"""streamrl benchmark: one continual-RL workload, measured end to end.

    python3 perfbench/run.py --workload grid-dqn-replay --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program under test is the
checkout's own `src/streamrl`. The runner generates the workload's input from
--seed, then runs it end to end in fresh child processes, one at a time
(closed loop, one client), until --seconds have passed. Every run repeats the
same generated input, so every run must produce the same output digest.

--trace 0 reports the end-to-end metrics (medians over the runs). Set-up
time, run time and throughput are taken on the child's CPU clock and scaled,
by a yardstick run inside the child, to a fixed machine speed (see
normalised()). --trace 1
alternates untraced and traced runs and reports the per-layer metrics of the
traced runs (medians) plus the tracing overhead. Every metric is printed by
name and unit; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 1 when any run fails
an output check, 2 when the checkout has no program to run.

Details of each invocation (per-run samples, quartiles, digest, generated
input, provenance) go to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ROOT / ".perfbench_out"
# A run still going this long after the invocation started is killed, so an
# invocation of up to this many --seconds ends well within three minutes.
DEADLINE_S = 150.0
MIN_RUNS = 3
CKPT_MAGIC = b"SRLCKPT1"

# The CPU time one yardstick chunk (child.Yardstick) takes at the speed that
# the normalised metrics are given at; about its median on a 2-vCPU Xeon VM.
YARDSTICK_NOMINAL_NS = 1_000_000

END_TO_END = {
    "setup_s": "s",
    "run_norm_s": "s",
    "train_steps_per_norm_s": "1/s",
    "eval_steps_per_norm_s": "1/s",
    "peak_rss_mib": "MiB",
    "success_frac": "ratio",
}


# ---------------------------------------------------------------------------
# One child run
# ---------------------------------------------------------------------------


def run_child(generated: dict, run_dir: Path, traced: bool, deadline: float) -> dict:
    """Runs one end-to-end child process; returns its result plus `problems`."""
    run_dir.mkdir(parents=True)
    spec = {
        "input": generated,
        "trace": traced,
        "config_file": str(run_dir / "config.yaml"),
        "result_file": str(run_dir / "result.json"),
        "span_file": str(run_dir / "spans.json"),
    }
    # JSON is valid YAML: the generated config is what the program reads.
    Path(spec["config_file"]).write_text(json.dumps(generated["config"], indent=1) + "\n")
    (run_dir / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ)
    env.pop("STREAMRL_OUTPUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    started = time.monotonic()
    with open(run_dir / "stdout.txt", "w") as out, open(run_dir / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(run_dir / "spec.json")],
            cwd=run_dir, env=env, stdout=out, stderr=err, start_new_session=True,
        )
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            rc = None
    result = {"traced": traced, "wall_s": time.monotonic() - started, "problems": []}
    if rc != 0:
        tail = (run_dir / "stderr.txt").read_text()[-400:].strip()
        result["problems"].append(f"child exited with {rc}: {tail}" if rc is not None
                                  else "child timed out")
        return result
    result.update(json.loads((run_dir / "result.json").read_text()))
    result["problems"] += check_outputs(generated, result, run_dir)
    if not result["problems"]:
        result.update(normalised(result))
    return result


def normalised(result: dict) -> dict[str, float]:
    """The run's CPU times (yardstick chunks left out) scaled to the speed at
    which a yardstick chunk takes YARDSTICK_NOMINAL_NS: each phase by the
    chunks run inside it (set-up by those run as it ends), the whole run by
    all of them."""
    ref_ns, chunks = result["yardstick_cpu_ns"], result["yardstick_chunks"]

    def scale(cpu_s: float, phases: tuple[str, ...]) -> float:
        spent = sum(ref_ns[p] for p in phases)
        return cpu_s * YARDSTICK_NOMINAL_NS * sum(chunks[p] for p in phases) / spent

    return {
        "setup_s": scale(result["setup_cpu_s"], ("setup",)),
        "run_norm_s": scale(result["run_cpu_s"], ("setup", "train", "eval")),
        "train_norm_s": scale(result["train_cpu_s"] - result["eval_cpu_s"], ("train",)),
        "eval_norm_s": scale(result["eval_cpu_s"], ("eval",)),
    }


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_outputs(generated: dict, result: dict, run_dir: Path) -> list[str]:
    """Output checks of one run; sets result["digest"]."""
    expect = generated["expect"]
    n_exp = expect["n_experiences"]
    problems = []
    if result["rc"] != 0:
        problems.append(f"program exited with {result['rc']}")
    experiences = result.get("experiences", [])
    if len(experiences) != n_exp:
        problems.append(f"{len(experiences)} experiences reported, expected {n_exp}")
    for i, exp in enumerate(experiences):
        if exp["env_steps"] != expect["env_steps_per_experience"]:
            problems.append(f"experience {i}: {exp['env_steps']} env steps, "
                            f"expected {expect['env_steps_per_experience']}")
        updates = exp["updates_applied"] + exp["updates_skipped"]
        if updates != expect["updates_per_experience"]:
            problems.append(f"experience {i}: {updates} updates, "
                            f"expected {expect['updates_per_experience']}")
    evals = result.get("eval_returns", [])
    if len(evals) != n_exp or any(len(row) != expect["n_eval_tasks"] for row in evals):
        problems.append(f"eval rows {[len(row) for row in evals]}, expected {n_exp} of "
                        f"{expect['n_eval_tasks']}")
    if not all(_finite(v) for row in evals for v in row):
        problems.append(f"non-finite eval return in {evals}")
    out = run_dir / workloads.OUTPUT_DIR
    problems += _check_forgetting_csv(out / "forgetting.csv", n_exp, expect["n_eval_tasks"])
    try:
        jsonl = (out / "metrics.jsonl").read_bytes()
        ckpt = (out / "checkpoint.bin").read_bytes()
    except OSError as err:
        return problems + [f"missing artifact: {err}"]
    if not jsonl.endswith(b"\n"):
        problems.append("metrics.jsonl is empty or truncated")
    if not ckpt.startswith(CKPT_MAGIC):
        problems.append("checkpoint.bin has no checkpoint magic")
    result["digest"] = hashlib.sha256(
        hashlib.sha256(jsonl).digest() + hashlib.sha256(ckpt).digest()
    ).hexdigest()
    return problems


def _check_forgetting_csv(path: Path, n_exp: int, n_tasks: int) -> list[str]:
    try:
        lines = path.read_text().splitlines()
    except OSError as err:
        return [f"missing artifact: {err}"]
    if len(lines) != n_exp + 1:
        return [f"forgetting.csv has {len(lines) - 1} rows, expected {n_exp}"]
    problems = []
    for j, line in enumerate(lines[1:]):
        cells = line.split(",")
        try:
            values = [float(c) for c in cells[1:]]
        except ValueError:
            values = []
        if cells[0] != str(j) or len(values) != n_tasks or not all(map(math.isfinite, values)):
            problems.append(f"forgetting.csv row {j} malformed: {line!r}")
    return problems


# ---------------------------------------------------------------------------
# Measurement loop and metrics
# ---------------------------------------------------------------------------


def measure(generated: dict, seconds: float, trace: bool, base_dir: Path) -> list[dict]:
    """Runs children until `seconds` have passed (at least MIN_RUNS, or one
    untraced/traced pair with tracing). Each run is checked, then its
    output directory is removed; the last run's directory is kept."""
    shutil.rmtree(base_dir, ignore_errors=True)
    start = time.monotonic()
    hard_deadline = start + max(seconds, DEADLINE_S)
    runs: list[dict] = []
    while True:
        traced = trace and len(runs) % 2 == 1
        run_dir = base_dir / f"run{len(runs)}"
        run = run_child(generated, run_dir, traced, hard_deadline)
        if traced and not run["problems"]:
            run["layers"] = spans.layer_metrics(run_dir / "spans.json", run)
        runs.append(run)
        if len(runs) > 1:
            shutil.rmtree(base_dir / f"run{len(runs) - 2}", ignore_errors=True)
        enough = len(runs) % 2 == 0 if trace else len(runs) >= MIN_RUNS
        # the next unit of work is one run, or one untraced/traced pair
        next_s = statistics.median(r["wall_s"] for r in runs) * (2 if trace else 1)
        now = time.monotonic()
        if (enough and now + next_s > start + seconds) or now + next_s > hard_deadline:
            return runs


def check_digests(runs: list[dict]) -> str | None:
    """All runs repeat one input, so they must agree on the output digest.
    Runs that differ from the most common digest fail."""
    digests = collections.Counter(r["digest"] for r in runs if r.get("digest"))
    if not digests:
        return None
    reference = digests.most_common(1)[0][0]
    for run in runs:
        if run.get("digest") and run["digest"] != reference:
            run["problems"].append(f"digest {run['digest'][:16]} differs from {reference[:16]}")
    return reference


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def end_to_end(runs: list[dict]) -> dict[str, list[float]]:
    ok = [r for r in runs if not r["problems"]]
    samples = {
        "setup_s": [r["setup_s"] for r in ok],
        "run_norm_s": [r["run_norm_s"] for r in ok],
        "train_steps_per_norm_s": [r["train_env_steps"] / r["train_norm_s"] for r in ok],
        "eval_steps_per_norm_s": [r["eval_env_steps"] / r["eval_norm_s"] for r in ok],
        "peak_rss_mib": [r["peak_rss_mib"] for r in ok],
    }
    samples["success_frac"] = [len(ok) / len(runs)]
    return samples


def per_layer(runs: list[dict]) -> dict[str, list[float]]:
    """Per-layer samples of the traced runs that passed every check, the
    digest comparison included."""
    traced = [r for r in runs if r.get("layers") and not r["problems"]]
    plain = [r["run_norm_s"] for r in runs if not r["traced"] and not r["problems"]]
    if not traced:
        return {}
    samples = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
    if plain:
        base = statistics.median(plain)
        samples["trace.overhead_frac"] = [r["run_norm_s"] / base - 1.0 for r in traced]
    return samples


def steal_s() -> float | None:
    """CPU time the hypervisor has taken from this machine's vCPUs since
    boot (the steal column of /proc/stat), or None where there is none."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "streamrl" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'streamrl'} is missing",
              file=sys.stderr)
        return 2
    generated = workloads.make(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    steal_before = steal_s()
    runs = measure(generated, args.seconds, bool(args.trace), WORK_DIR / "runs" / tag)
    steal = steal_s()
    steal = steal - steal_before if steal is not None and steal_before is not None else None
    digest = check_digests(runs)
    failed = sum(1 for r in runs if r["problems"])

    if args.trace:
        samples, units = per_layer(runs), spans.PER_LAYER
    else:
        samples, units = end_to_end(runs), END_TO_END
    summary = {
        name: {"median": statistics.median(samples[name]), "quartiles": quartiles(samples[name]),
               "samples": len(samples[name]), "unit": unit}
        for name, unit in units.items() if samples.get(name)
    }
    details = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": {
            "cpu_count": os.cpu_count(), "platform": platform.platform(),
            "versions": next((r["versions"] for r in runs if "versions" in r), None),
            "git_commit": git_commit(),
            "steal_s": steal,
        },
        "generated_input": generated,
        "digest": digest,
        "metrics": summary,
        "runs": [{k: v for k, v in r.items() if k != "layers"} for r in runs],
    }
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(details, indent=1))

    for run in runs:
        for problem in run["problems"]:
            print(f"FAILED run: {problem}")
    print(f"{args.workload} seed {args.seed}: {len(runs)} runs, {failed} failed, "
          f"digest {digest}, vCPU time stolen by the host: "
          f"{'unknown' if steal is None else f'{steal:.2f} s'}")
    for name, entry in summary.items():
        q = entry["quartiles"]
        print(f"  {name} = {entry['median']:.6g} {entry['unit']} "
              f"(quartiles {q[0]:.6g} .. {q[2]:.6g}, n={entry['samples']})")
    correct = failed == 0 and bool(summary)
    metrics = {name: {"value": e["median"], "unit": e["unit"]} for name, e in summary.items()}
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
