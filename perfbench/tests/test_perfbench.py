"""Tests of the benchmark itself (not of streamrl).

    python3 -m pytest perfbench/tests -q

They run every workload at a tiny budget, so they take about half a minute.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY_UPDATES = {"grid-dqn-replay": 40, "cartpole-a2c-ewc": 12}
make_full = workloads.make


def make_tiny(name: str, seed: int) -> dict:
    """The workload at a tiny update budget, for runs that only prove the
    benchmark's plumbing."""
    generated = make_full(name, seed)
    updates = TINY_UPDATES[name]
    expect = generated["expect"]
    expect["env_steps_per_experience"] = (
        expect["env_steps_per_experience"] // expect["updates_per_experience"] * updates
    )
    expect["updates_per_experience"] = updates
    generated["config"]["budget"]["updates_per_experience"] = updates
    return generated


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "make", make_tiny)


def declared(kind: str) -> dict[str, str]:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def invoke(capsys, *argv) -> tuple[int, dict, str]:
    code = run.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def test_benchmark_json_matches_the_runner():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert bench["workloads"] == [{"name": n, "why": workloads.WHY[n]} for n in workloads.NAMES]
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == spans.PER_LAYER


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_every_metric_appears_with_its_unit(capsys, tiny, workload):
    code, result, out = invoke(capsys, "--workload", workload, "--seed", "3", "--trace", "0",
                               "--seconds", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_RUNS
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in got.items():
        assert f"{name} = " in out and f" {unit} (" in out

    code, result, _ = invoke(capsys, "--workload", workload, "--seed", "3", "--trace", "1",
                             "--seconds", "0")
    assert code == 0 and result["correct"] and result["attempted"] == 2
    layers = {name: m["value"] for name, m in result["metrics"].items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared("per_layer")
    # Each layer reports where it runs and reads zero where it never runs.
    expect = make_tiny(workload, 3)["expect"]
    assert layers["training.iter.count"] == (
        expect["updates_per_experience"] * expect["n_experiences"]
    )
    runs_here = {
        "grid-dqn-replay": ["plugins.replay.before_update.ms", "plugins.replay.rows_per_scanned",
                            "evaluation.records", "checkpoint.bytes", "cli.load_config_ms"],
        "cartpole-a2c-ewc": ["plugins.ewc.fisher.samples", "plugins.ewc.before_update.ms",
                             "core_env.terminal_obs.calls", "evaluation.records"],
    }[workload]
    never_here = {
        "grid-dqn-replay": ["plugins.ewc.fisher.samples", "plugins.ewc.before_update.ms"],
        "cartpole-a2c-ewc": ["plugins.replay.rows_per_scanned", "plugins.replay.before_update.ms"],
    }[workload]
    assert all(layers[name] > 0 for name in runs_here), layers
    assert all(layers[name] == 0 for name in never_here), layers


def _drop_last_csv_row(out: Path) -> None:
    path = out / "forgetting.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _flip_jsonl_byte(out: Path) -> None:
    path = out / "metrics.jsonl"
    data = bytearray(path.read_bytes())
    data[10] ^= 1
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("corrupt", [_drop_last_csv_row, _flip_jsonl_byte])
def test_corrupted_output_counts_as_failure(capsys, monkeypatch, tiny, corrupt):
    """Corrupt the second run's artifacts before they are checked: that run
    must fail (a bad forgetting.csv, or a digest that differs from the
    other repeats), and the benchmark must exit non-zero."""
    check = run.check_outputs
    seen = []

    def corrupting_check(generated, result, run_dir):
        seen.append(run_dir)
        if len(seen) == 2:
            corrupt(run_dir / workloads.OUTPUT_DIR)
        return check(generated, result, run_dir)

    monkeypatch.setattr(run, "check_outputs", corrupting_check)
    code, result, out = invoke(capsys, "--workload", "grid-dqn-replay", "--seed", "5",
                               "--trace", "0", "--seconds", "0")
    assert code != 0
    assert result["correct"] is False
    assert result["attempted"] == run.MIN_RUNS and result["failed"] == 1
    assert result["metrics"]["success_frac"]["value"] == pytest.approx(2 / 3)
    assert "FAILED run:" in out


def test_missing_program_exits_nonzero_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "grid-dqn-replay", "--seed", "1", "--seconds", "1"])
    captured = capsys.readouterr()
    assert code != 0 and captured.out == "" and "missing" in captured.err


def test_same_seed_same_input_other_seed_other_input():
    one = workloads.make("cartpole-a2c-ewc", 7)
    assert one == workloads.make("cartpole-a2c-ewc", 7)
    assert one["config"]["seeds"] != workloads.make("cartpole-a2c-ewc", 8)["config"]["seeds"]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert spans.percentile(values, 50) == 50
    assert spans.percentile(values, 99) == 99
    assert spans.percentile([7], 99) == 7


def test_per_layer_leaves_out_traced_runs_that_failed():
    """A traced run whose digest differs from the others changed behaviour
    under tracing; its layers must not reach the medians."""
    def traced(value, problems):
        return {"traced": True, "run_norm_s": 2.0, "problems": problems,
                "layers": {"nn.backward.calls": value}}

    runs = [{"traced": False, "run_norm_s": 1.0, "problems": []},
            traced(10, []), traced(99, ["digest differs"])]
    samples = run.per_layer(runs)
    assert samples["nn.backward.calls"] == [10]
    assert samples["trace.overhead_frac"] == [1.0]


def test_normalised_scales_each_phase_by_its_own_chunks():
    """A phase run while the machine was half as fast (chunks at 2 ms) and
    one run at nominal speed (chunks at 1 ms) both read in nominal seconds."""
    result = {
        "setup_cpu_s": 0.5, "run_cpu_s": 7.5, "train_cpu_s": 7.0, "eval_cpu_s": 1.0,
        "yardstick_chunks": {"setup": 10, "train": 100, "eval": 50},
        "yardstick_cpu_ns": {"setup": 10 * 10**6, "train": 200 * 10**6, "eval": 50 * 10**6},
    }
    got = run.normalised(result)
    assert got["setup_s"] == pytest.approx(0.5)
    assert got["train_norm_s"] == pytest.approx(6.0 / 2)
    assert got["eval_norm_s"] == pytest.approx(1.0)
    assert got["run_norm_s"] == pytest.approx(7.5 * 160 / 260)
