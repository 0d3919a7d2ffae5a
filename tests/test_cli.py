"""End-to-end CLI behavior: run/eval/plot-data, artifacts, exit codes."""

import copy
import struct
import subprocess
import sys

import pytest
import yaml

from streamrl.checkpoint import MAGIC, save_model
from streamrl.cli import main
from streamrl.evaluation import read_metrics_jsonl
from streamrl.nn import Mlp

GRID_MAP = "S..\n...\n..G"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("STREAMRL_OUTPUT_DIR", raising=False)


def base_config(out_dir):
    return {
        "scenario": {
            "generator": "gym_benchmark",
            "env_specs": [
                {
                    "name": "grid",
                    "env": "gridworld",
                    "map": GRID_MAP,
                    "params": {"max_steps": 20},
                }
            ],
            "n_experiences": 2,
            "order": {"explicit": [0, 0]},
        },
        "strategy": {"name": "dqn", "hidden": [8], "batch_size": 4},
        "budget": {"updates_per_experience": 3, "rollout": {"steps": 2}},
        "seeds": {"env": 1, "net": 2, "sampling": 3},
        "eval": {"episodes": 2},
        "output_dir": str(out_dir),
    }


def write_config(tmp_path, config, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(config))
    return path


def run_ok(tmp_path, config, name="config.yaml"):
    cfg = write_config(tmp_path, config, name)
    assert main(["run", str(cfg)]) == 0
    return cfg


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    run_ok(tmp_path, base_config(out))
    for artifact in ("metrics.jsonl", "forgetting.csv", "checkpoint.bin", "config_effective.yaml"):
        assert (out / artifact).exists(), artifact
    assert (out / "metrics.jsonl").stat().st_size > 0
    stdout = capsys.readouterr().out
    assert "experience 0 (task 0)" in stdout
    assert "experience 1 (task 0)" in stdout
    assert "eval task 0: return" in stdout
    assert f"artifacts written to {out}" in stdout


def test_run_metrics_structure(tmp_path):
    out = tmp_path / "out"
    run_ok(tmp_path, base_config(out))
    records = read_metrics_jsonl(out / "metrics.jsonl")
    names = {r.metric_name for r in records}
    assert "epsilon" in names
    assert names & {"loss", "update_skipped"}
    assert any(r.phase == "eval" and r.metric_name == "eval_return" for r in records)
    # eval after each of the 2 experiences, single eval task
    lines = (out / "forgetting.csv").read_text().splitlines()
    assert lines[0] == "after_experience,task_0"
    assert len(lines) == 3


def test_run_unknown_strategy_exit_2(tmp_path, capsys):
    config = base_config(tmp_path / "out")
    config["strategy"]["name"] = "ppo"
    cfg = write_config(tmp_path, config)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "strategy" in err
    assert "ppo" in err


def test_run_unknown_key_exit_2(tmp_path, capsys):
    config = base_config(tmp_path / "out")
    config["surprise"] = 1
    cfg = write_config(tmp_path, config)
    assert main(["run", str(cfg)]) == 2
    assert "surprise" in capsys.readouterr().err


def test_run_missing_config_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_twice_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_ok(tmp_path, base_config(out1), "a.yaml")
    run_ok(tmp_path, base_config(out2), "b.yaml")
    for artifact in ("metrics.jsonl", "forgetting.csv", "checkpoint.bin"):
        assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes(), artifact


def test_runtime_failure_exit_3(tmp_path, capsys):
    config = base_config(tmp_path / "out")
    # validates fine, but the remap target is outside the 4-action gridworld
    config["scenario"]["env_specs"][0]["wrappers"] = [{"action_remap": {0: 7}}]
    cfg = write_config(tmp_path, config)
    assert main(["run", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith("runtime error:")


@pytest.mark.parametrize("name", ["a2c", "double_dqn"])
def test_other_strategies_run(tmp_path, name):
    config = base_config(tmp_path / "out")
    config["strategy"] = {"name": name, "hidden": [8]}
    run_ok(tmp_path, config)


def test_wrappers_expand_into_effective_config(tmp_path):
    out = tmp_path / "out"
    config = base_config(out)
    config["scenario"]["env_specs"][0]["wrappers"] = [
        {"time_limit": 5},
        {"reward_clip": [-0.5, 0.5]},
    ]
    run_ok(tmp_path, config)
    effective = yaml.safe_load((out / "config_effective.yaml").read_text())
    assert effective["scenario"]["env_specs"][0]["wrappers"] == [
        {"time_limit": 5},
        {"reward_clip": [-0.5, 0.5]},
    ]
    # defaults were expanded too
    assert effective["strategy"]["gamma"] == 0.99
    assert effective["eval"] == {"episodes": 2, "after_each_experience": True}


def test_single_final_eval_when_disabled(tmp_path):
    out = tmp_path / "out"
    config = base_config(out)
    config["eval"] = {"episodes": 2, "after_each_experience": False}
    run_ok(tmp_path, config)
    lines = (out / "forgetting.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the one final row


def test_bandit_config_requires_means(tmp_path, capsys):
    config = base_config(tmp_path / "out")
    config["scenario"]["env_specs"] = [{"name": "b", "env": "bandit"}]
    cfg = write_config(tmp_path, config)
    assert main(["run", str(cfg)]) == 2
    assert "means" in capsys.readouterr().err


def test_bandit_config_runs(tmp_path):
    config = base_config(tmp_path / "out")
    config["scenario"]["env_specs"] = [
        {"name": "b", "env": "bandit", "params": {"means": [0.0, 1.0]}}
    ]
    run_ok(tmp_path, config)


def test_task_stream_config_runs(tmp_path):
    out = tmp_path / "out"
    config = base_config(out)
    config["scenario"] = {
        "generator": "task_stream",
        "tasks": [
            {"name": "go", "type": "reach_goal", "duration": {"episodes": 2}},
            {"name": "stay", "type": "survive", "duration": {"episodes": 2}},
        ],
        "scenes": [GRID_MAP],
        "scene_params": {"max_steps": 10},
    }
    run_ok(tmp_path, config)
    lines = (out / "forgetting.csv").read_text().splitlines()
    assert lines[0] == "after_experience,task_0,task_1"
    assert len(lines) == 3  # two experiences, eval after each


def test_continual_control_config_runs(tmp_path):
    out = tmp_path / "out"
    config = base_config(out)
    config["scenario"] = {
        "generator": "continual_control",
        "base_params": {"max_steps": 30},
        "schedule": [{}, {"gravity": 11.0}],
    }
    config["eval"] = {"episodes": 1}
    run_ok(tmp_path, config)
    records = read_metrics_jsonl(out / "metrics.jsonl")
    assert any(r.metric_name == "eval_return" for r in records)


def test_output_dir_env_override(tmp_path, monkeypatch):
    configured = tmp_path / "configured"
    override = tmp_path / "override"
    monkeypatch.setenv("STREAMRL_OUTPUT_DIR", str(override))
    run_ok(tmp_path, base_config(configured))
    assert (override / "metrics.jsonl").exists()
    assert not configured.exists()


def test_effective_config_reproduces_run(tmp_path, monkeypatch):
    out1 = tmp_path / "one"
    run_ok(tmp_path, base_config(out1))
    out2 = tmp_path / "two"
    monkeypatch.setenv("STREAMRL_OUTPUT_DIR", str(out2))
    assert main(["run", str(out1 / "config_effective.yaml")]) == 0
    assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
    assert (out1 / "checkpoint.bin").read_bytes() == (out2 / "checkpoint.bin").read_bytes()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_matches_runs_final_row(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_ok(tmp_path, base_config(out))
    capsys.readouterr()
    assert main(["eval", str(cfg), str(out / "checkpoint.bin")]) == 0
    assert "task 0: return" in capsys.readouterr().out
    final_row = (out / "forgetting.csv").read_text().splitlines()[-1]
    final_return = float(final_row.split(",")[1])
    eval_records = read_metrics_jsonl(out / "eval_metrics.jsonl")
    (eval_return,) = [r.value for r in eval_records if r.metric_name == "eval_return"]
    assert eval_return == final_return  # same seeds: identical to the bit


def test_eval_writes_per_episode_records(tmp_path):
    out = tmp_path / "out"
    config = base_config(out)
    config["eval"] = {"episodes": 5}
    cfg = run_ok(tmp_path, config)
    assert main(["eval", str(cfg), str(out / "checkpoint.bin")]) == 0
    records = read_metrics_jsonl(out / "eval_metrics.jsonl")
    episode_returns = [r for r in records if r.metric_name == "ep_return"]
    assert len(episode_returns) == 5  # episodes x the single eval task
    assert all(r.phase == "eval" for r in episode_returns)


def test_eval_wrong_shape_checkpoint_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_ok(tmp_path, base_config(out))
    bad = tmp_path / "bad.bin"
    save_model(bad, Mlp([3, 2], heads={"q_values": 2}))
    assert main(["eval", str(cfg), str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_missing_checkpoint_exit_2(tmp_path, capsys):
    cfg = run_ok(tmp_path, base_config(tmp_path / "out"))
    assert main(["eval", str(cfg), str(tmp_path / "ghost.bin")]) == 2


@pytest.mark.parametrize("payload", [
    MAGIC + b"\x10\x00\x00",  # cut inside the header length
    MAGIC + struct.pack("<Q", 6) + b"{bad}\n",  # header is not JSON
    MAGIC + struct.pack("<Q", 2) + b"[]",  # header is not an object
], ids=["cut-length", "bad-json", "not-object"])
def test_eval_malformed_checkpoint_exit_2(tmp_path, capsys, payload):
    cfg = run_ok(tmp_path, base_config(tmp_path / "out"))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(payload)
    assert main(["eval", str(cfg), str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plot-data
# ---------------------------------------------------------------------------


def test_plot_data_sorted_csv(tmp_path, capsys):
    out = tmp_path / "out"
    run_ok(tmp_path, base_config(out))
    capsys.readouterr()
    assert main(["plot-data", str(out / "metrics.jsonl"), "epsilon"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step,value"
    steps = [int(line.split(",")[0]) for line in lines[1:]]
    assert steps == sorted(steps)
    # the first update of each experience skips (replay 2 < batch 4), so
    # epsilon is recorded for the remaining 2 applied updates per experience
    assert len(steps) == 4
    for line in lines[1:]:
        float(line.split(",", 1)[1])  # repr round-trips through float


def test_plot_data_unknown_metric_lists_names(tmp_path, capsys):
    out = tmp_path / "out"
    run_ok(tmp_path, base_config(out))
    capsys.readouterr()
    assert main(["plot-data", str(out / "metrics.jsonl"), "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "nonsense" in err
    assert "epsilon" in err  # available names are listed


def test_plot_data_empty_filter_header_only(tmp_path, capsys):
    out = tmp_path / "out"
    run_ok(tmp_path, base_config(out))
    capsys.readouterr()
    # epsilon only exists in the train phase
    assert main(["plot-data", str(out / "metrics.jsonl"), "epsilon", "--phase", "eval"]) == 0
    assert capsys.readouterr().out == "step,value\n"


# ---------------------------------------------------------------------------
# packaging
# ---------------------------------------------------------------------------


def test_module_entry_point_subprocess(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(out))
    proc = subprocess.run(
        [sys.executable, "-m", "streamrl", "run", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "checkpoint.bin").exists()
    assert "artifacts written" in proc.stdout
