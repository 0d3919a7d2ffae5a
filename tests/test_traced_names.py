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


def test_benchmark_phase_clock_measures_an_eval_phase_played_as_one_lane_set():
    """The clock runs its eval yardstick on greedy_action calls made while
    eval_experience is set. A 3-task cart-pole evaluate, played as one lane
    set of 90 jobs, must still get a chunk, and the clock must count every
    step that was played."""
    proc = run_in_perfbench(
        "import numpy, child\n"
        "from streamrl.benchmarks import RLExperience\n"
        "from streamrl.envs import CartPole, CartPoleParams\n"
        "from streamrl.nn import Adam, Mlp\n"
        "from streamrl.training import A2cStrategy, RLBaseStrategy, Steps, TrainingBudget\n"
        "yardstick = child.Yardstick(numpy)\n"
        "clock = child.PhaseClock(RLBaseStrategy, (A2cStrategy,), yardstick)\n"
        "model = Mlp([4, 16, 3], heads={'policy_logits': 2, 'value': 1}, seed=1)\n"
        "strategy = A2cStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)))\n"
        "stream = [RLExperience(env_factory=lambda h=h: CartPole(CartPoleParams(pole_half_length=h)),\n"
        "                       task_label=i, n_envs=1, experience_index=i)\n"
        "          for i, h in enumerate((0.5, 1.0, 0.25))]\n"
        "rows, greedy = [], strategy.greedy_action\n"
        "strategy.greedy_action = lambda obs: rows.append(len(obs)) or greedy(obs)\n"
        "strategy.evaluate(stream, 30)\n"
        "if yardstick.chunks['eval'] < 1 or max(rows) != 90:\n"
        "    raise SystemExit(f'eval chunks {yardstick.chunks}, widest batch {max(rows)}')\n"
        "if clock.eval_steps != sum(rows):\n"
        "    raise SystemExit(f'clock counted {clock.eval_steps} eval steps of {sum(rows)}')\n"
    )
    assert proc.returncode == 0, proc.stderr
