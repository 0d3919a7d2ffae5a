"""The benchmark's tracer wraps streamrl functions by name; every name must exist."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_finds_every_wrapped_name():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.instrument(spans.Tracer())"],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
