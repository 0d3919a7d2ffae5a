"""The benchmark wraps streamrl functions by name; every name must exist."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_in_perfbench(script: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True, timeout=120,
    )


def test_benchmark_tracer_finds_every_wrapped_name():
    proc = run_in_perfbench("import spans; spans.instrument(spans.Tracer())")
    assert proc.returncode == 0, proc.stderr


def test_benchmark_phase_clock_finds_every_wrapped_name():
    proc = run_in_perfbench(
        "import numpy, child\n"
        "from streamrl.training import A2cStrategy, DqnStrategy, RLBaseStrategy\n"
        "child.PhaseClock(RLBaseStrategy, (DqnStrategy, A2cStrategy), child.Yardstick(numpy))"
    )
    assert proc.returncode == 0, proc.stderr
