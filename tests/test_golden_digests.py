"""Golden output digests: six small continual runs through `streamrl run`
must write byte-identical metrics.jsonl and checkpoint.bin to the pinned
SHA-256 values below.

The pins make "bitwise identical" a property the suite enforces: a change
that is meant to keep every float64 value must leave them as they are, and
one that changes results on purpose must say so and re-pin them. The values
depend on the numpy build and on the kernel its bundled OpenBLAS picks for
the CPU when it loads (np.dot's bits differ between kernels), so there is
one pin set per (numpy major.minor, OpenBLAS kernel). The runs in this
process check the set of the kernel in use, and skip, naming the numpy
version and the kernel, when there is none. Each other kernel with a pin set
is checked in a subprocess that forces it with OPENBLAS_CORETYPE, where the
CPU has the instructions it needs.

Run as a script, this module prints the OpenBLAS kernel and the digests of
every golden config as JSON: `OPENBLAS_CORETYPE=Haswell python
tests/test_golden_digests.py` records a pin set for another kernel.
"""

import contextlib
import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml

import streamrl
from streamrl.cli import main

NUMPY_VERSION = ".".join(np.__version__.split(".")[:2])

MAP_A = "S.#..\n..#..\n..#..\n..#..\n.G#.."
MAP_B = "..#.S\n..#..\n..#..\n..#..\n..#G."

# DQN on two walled gridworlds with a 1000-transition replay memory: 2500
# transitions per experience wrap the ring twice in experience 0, and
# experience 1 mixes task-0 rows into its batches while task-1 rows
# overwrite the ring.
DQN_REPLAY = {
    "scenario": {
        "generator": "gym_benchmark",
        "env_specs": [
            {"name": "A", "env": "gridworld", "map": MAP_A,
             "params": {"max_steps": 40, "step_reward": -0.1, "goal_reward": 10.0}},
            {"name": "B", "env": "gridworld", "map": MAP_B,
             "params": {"max_steps": 40, "step_reward": -0.1, "goal_reward": 10.0}},
        ],
        "n_experiences": 2,
        "order": {"explicit": [0, 1]},
    },
    "strategy": {"name": "dqn", "hidden": [32, 32], "gamma": 0.9, "batch_size": 32,
                 "eps_decay_fraction": 0.3, "target_sync_period": 50},
    "plugins": [{"name": "replay", "capacity": 1000, "mix_ratio": 0.5}],
    "budget": {"updates_per_experience": 500, "rollout": {"steps": 5}},
    "seeds": {"env": 5, "net": 6, "sampling": 7},
    "eval": {"episodes": 20, "after_each_experience": True},
}

# A2C with 4 serial actors on three cart-pole variants, EWC anchored after
# each experience: the penalty runs with one and then two anchors.
A2C_EWC = {
    "scenario": {
        "generator": "continual_control",
        "base_params": {"max_steps": 50},
        "schedule": [{"pole_half_length": 0.5}, {"pole_half_length": 1.0},
                     {"pole_half_length": 0.25}],
        "n_parallel_envs": 4,
    },
    "strategy": {"name": "a2c", "hidden": [32, 32]},
    "plugins": [{"name": "ewc", "lam": 100.0, "fisher_sample_count": 256}],
    "budget": {"updates_per_experience": 250, "rollout": {"steps": 5}},
    "seeds": {"env": 8, "net": 9, "sampling": 10},
    "eval": {"episodes": 10, "after_each_experience": True},
}

# A2C with one actor whose rollouts run until two episodes end: every rollout
# has its own length and ends in a done, so the n-step returns are cut inside
# and at the end of each rollout and VectorizedEnv.step returns a final_obs
# that differs from obs. Pinned from the commit before the shared-softmax A2C
# update, so that change and everything after it must reproduce these bytes.
A2C_EPISODES = {
    "scenario": {
        "generator": "continual_control",
        "base_params": {"max_steps": 40},
        "schedule": [{"pole_half_length": 0.5}, {"pole_half_length": 0.25}],
        "n_parallel_envs": 1,
    },
    "strategy": {"name": "a2c", "hidden": [16, 16]},
    "budget": {"updates_per_experience": 150, "rollout": {"episodes": 2}},
    "seeds": {"env": 11, "net": 12, "sampling": 13},
    "eval": {"episodes": 5, "after_each_experience": True},
}

# DoubleDQN with 2 gridworld actors and EWC: while epsilon anneals, some
# acting steps explore on one actor and act greedily on the other, the
# targets take the double-DQN path, and each experience ends in a DQN
# Fisher, whose penalty then runs through experience 1. Pinned from the
# commit before the Q-network pass was skipped on exploring steps and the
# MLP's products went through np.dot, so that change and everything after
# it must reproduce these bytes.
DOUBLE_DQN_EWC = {
    "scenario": {
        "generator": "gym_benchmark",
        "env_specs": [
            {"name": "A", "env": "gridworld", "map": MAP_A,
             "params": {"max_steps": 30, "step_reward": -0.1, "goal_reward": 10.0}},
            {"name": "B", "env": "gridworld", "map": MAP_B,
             "params": {"max_steps": 30, "step_reward": -0.1, "goal_reward": 10.0}},
        ],
        "n_experiences": 2,
        "order": {"explicit": [0, 1]},
        "n_parallel_envs": 2,
    },
    "strategy": {"name": "double_dqn", "hidden": [16, 16], "gamma": 0.9, "batch_size": 16,
                 "eps_decay_fraction": 0.5, "target_sync_period": 40},
    "plugins": [{"name": "ewc", "lam": 50.0, "fisher_sample_count": 200}],
    "budget": {"updates_per_experience": 200, "rollout": {"steps": 2}},
    "seeds": {"env": 14, "net": 15, "sampling": 16},
    "eval": {"episodes": 6, "after_each_experience": True},
}

# DQN on a task stream: one shared TaskStreamEnv on two walled 4x4 maps, a
# reach_goal task and then a survive task, the scene swapped every 10 steps of
# the schedule. All five scene swaps, one per experience boundary, land
# mid-episode, and two of them move the agent to the new scene's start because
# its cell is a wall there. Eval plays fresh TaskStreamEnvs, one per (task,
# scene) pair. Pinned from the commit before gridworld steps came from a
# per-scene move table, so that change and everything after it must reproduce
# these bytes.
MAP_C = "S..#\n.#..\n.#..\n...G"
MAP_D = "...S\n.#..\n.#.#\nG..."
TASK_STREAM = {
    "scenario": {
        "generator": "task_stream",
        "tasks": [
            {"name": "go", "type": "reach_goal", "duration": {"steps": 40},
             "params": {"step_reward": -0.05, "goal_reward": 2.0}},
            {"name": "stay", "type": "survive", "duration": {"steps": 20},
             "params": {"step_reward": 0.02}},
        ],
        "scenes": [MAP_C, MAP_D],
        "swap": {"every_n_steps": 10},
        "scene_params": {"max_steps": 25},
    },
    "strategy": {"name": "dqn", "hidden": [16, 16], "gamma": 0.9, "batch_size": 16,
                 "eps_decay_fraction": 0.5, "target_sync_period": 30},
    "budget": {"updates_per_experience": 100, "rollout": {"steps": 3}},
    "seeds": {"env": 17, "net": 18, "sampling": 19},
    "eval": {"episodes": 4, "after_each_experience": True},
}

# A2C with 2 gridworld actors and EWC on two walled maps: four actions, so
# the sampler's cdf and the policy and entropy losses run over more than two
# columns (every other A2C pin is a 2-action cart-pole), short rollouts that
# episode ends cut inside and at their last step, and an A2C Fisher whose
# penalty runs through experience 1. Pinned from the commit before the A2C
# acting step and update called numpy's reductions as ufuncs, so that change
# and everything after it must reproduce these bytes.
A2C_GRID_EWC = {
    "scenario": {
        "generator": "gym_benchmark",
        "env_specs": [
            {"name": "A", "env": "gridworld", "map": MAP_A,
             "params": {"max_steps": 30, "step_reward": -0.1, "goal_reward": 10.0}},
            {"name": "B", "env": "gridworld", "map": MAP_B,
             "params": {"max_steps": 30, "step_reward": -0.1, "goal_reward": 10.0}},
        ],
        "n_experiences": 2,
        "order": {"explicit": [0, 1]},
        "n_parallel_envs": 2,
    },
    "strategy": {"name": "a2c", "hidden": [16, 16], "gamma": 0.9},
    "plugins": [{"name": "ewc", "lam": 50.0, "fisher_sample_count": 200}],
    "budget": {"updates_per_experience": 200, "rollout": {"steps": 5}},
    "seeds": {"env": 20, "net": 21, "sampling": 22},
    "eval": {"episodes": 6, "after_each_experience": True},
}

# name -> config
GOLDEN = {
    "dqn-replay": DQN_REPLAY,
    "a2c-ewc": A2C_EWC,
    "a2c-episodes": A2C_EPISODES,
    "double-dqn-ewc": DOUBLE_DQN_EWC,
    "task-stream": TASK_STREAM,
    "a2c-grid-ewc": A2C_GRID_EWC,
}

# (numpy major.minor, OpenBLAS kernel) -> name -> (sha256 of metrics.jsonl,
# sha256 of checkpoint.bin), recorded with numpy 2.4 (OpenBLAS 0.3.31) on x86-64
PINS = {
    ("2.4", "SkylakeX"): {
        "dqn-replay": ("82e32928cdea7dbfe04736323ff68951de9f5c93d2e13d913c2d6f517e4ee2c7",
                       "138537762d990e3078eb7ba051451d4fdae82dfc8d684896d0cf273be8ba0af5"),
        "a2c-ewc": ("06b5280e070a8c77340b725e5180c92e80dd0b6e4c722fb22ac57df83f9071a8",
                    "a7133a4d8f9b7d4327e3436af025beca39724665350bde25679d6be21f22b65f"),
        "a2c-episodes": ("0310222eba5a7742f0e992efade3c08ecf43628363a1167d9c9776949dbdec63",
                         "606cc293c7562256de400d498510dc655539f9629fb0571b1abdf8958ed5a49f"),
        "double-dqn-ewc": ("be435a13f367ac098c9b1c08cec74f76a60e85e3a81842a858acdbeac7c9376f",
                           "970aa3c2b1739a633a067ff326783164a9ec99b440b5463859ced369d7b9285c"),
        "task-stream": ("3bea7da9d23c39d878e6484be518a1967fc3b8f40c21f17f7dfebb1d64cc4bfd",
                        "bf5f5b7b06e94a17be52561e56bd6d1197f3f0f1f78e32a21937c3690553fdba"),
        "a2c-grid-ewc": ("2a61460fc4e3497cbd624508a27994b2a0cd22b80833f4789674d0de4694bcb4",
                         "c97b2051d8e4ae541395ee1cb05fa7bec85e7e249b6b6f099a0f0dc8d170a882"),
    },
    ("2.4", "Haswell"): {
        "dqn-replay": ("1daa4003f580e8149d6a602163cbb46a8754e23580c344d6f8d8ba6a15bebb88",
                       "844c72371466bbe852cca893722d64535d3d6360c9db8f82ee0c7c4b9cb920bb"),
        "a2c-ewc": ("03f171cfcd8b1339a82a98dedd9ba9251a40f26de3261f75159ec369c1c5b12a",
                    "ddadab5201463dd44959e1aa7f9ef792f890c18d0c0f6910e3538f9616e05d76"),
        "a2c-episodes": ("22e5d0abce4929f12f42d1d96e8a7a3e3689a08a315c3304c13ad029949a2776",
                         "ce02d674d0152277ae7c35bc0ec55be7d2e490c2dba40353ced247fa30afc92c"),
        "double-dqn-ewc": ("be435a13f367ac098c9b1c08cec74f76a60e85e3a81842a858acdbeac7c9376f",
                           "970aa3c2b1739a633a067ff326783164a9ec99b440b5463859ced369d7b9285c"),
        "task-stream": ("3bea7da9d23c39d878e6484be518a1967fc3b8f40c21f17f7dfebb1d64cc4bfd",
                        "bf5f5b7b06e94a17be52561e56bd6d1197f3f0f1f78e32a21937c3690553fdba"),
        "a2c-grid-ewc": ("f2fc80627ce1263fa5f68b331935cfabdf806d485039a8203dbf6c055ae2cf48",
                         "ea4f416bc810f23c584e0c658001944211a40c7cd8bf35269f7d5d3a26abc61e"),
    },
}

# the x86 CPU flag each pinned kernel's code needs, as /proc/cpuinfo names it
KERNEL_FLAGS = {"SkylakeX": "avx512f", "Haswell": "avx2"}


def blas_kernel() -> str | None:
    """The kernel numpy's bundled scipy-openblas picked when it loaded (for
    example "SkylakeX"), or None for a numpy without one."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if not libs:
        return None
    # the library is loaded already, so this is numpy's own instance
    corename = getattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_corename64_", None)
    if corename is None:
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


KERNEL = blas_kernel()


def run_digests(config: dict, workdir: Path) -> tuple[str, str]:
    """SHA-256 of the metrics.jsonl and checkpoint.bin that `streamrl run` writes."""
    path = workdir / "config.yaml"
    path.write_text(yaml.safe_dump({**config, "output_dir": str(workdir / "out")}))
    assert main(["run", str(path)]) == 0
    return tuple(hashlib.sha256((workdir / "out" / artifact).read_bytes()).hexdigest()
                 for artifact in ("metrics.jsonl", "checkpoint.bin"))


@pytest.mark.parametrize("name", list(GOLDEN))
def test_run_outputs_match_the_pinned_digests(name, tmp_path, monkeypatch):
    pins = PINS.get((NUMPY_VERSION, KERNEL))
    if pins is None:
        pytest.skip(f"no digests pinned for numpy {np.__version__} with OpenBLAS kernel {KERNEL}")
    monkeypatch.delenv("STREAMRL_OUTPUT_DIR", raising=False)
    assert run_digests(GOLDEN[name], tmp_path) == pins[name]


def cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.partition(":")[2].split()}


OTHER_KERNELS = [kernel for numpy_version, kernel in PINS
                 if numpy_version == NUMPY_VERSION and kernel != KERNEL]


@pytest.fixture(scope="module")
def forced_kernel_digests():
    """kernel -> what this module, run as a script with OPENBLAS_CORETYPE set
    to that kernel, prints; computed once per kernel."""
    cache = {}

    def digests(kernel):
        if kernel not in cache:
            env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
                   "PYTHONPATH": os.pathsep.join(filter(None, [
                       str(Path(streamrl.__file__).parent.parent), os.environ.get("PYTHONPATH")]))}
            env.pop("STREAMRL_OUTPUT_DIR", None)
            done = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                                  text=True, timeout=600)
            assert done.returncode == 0, done.stderr
            cache[kernel] = json.loads(done.stdout)
        return cache[kernel]

    return digests


@pytest.mark.skipif(KERNEL is None, reason="numpy has no bundled scipy-openblas")
@pytest.mark.parametrize("kernel,name", [(kernel, name) for kernel in OTHER_KERNELS
                                         for name in GOLDEN])
def test_another_kernel_reproduces_its_pins_in_a_subprocess(kernel, name, forced_kernel_digests):
    if KERNEL_FLAGS[kernel] not in cpu_flags():
        pytest.skip(f"this CPU lacks {KERNEL_FLAGS[kernel]}, which OpenBLAS's {kernel} kernel needs")
    printed = forced_kernel_digests(kernel)
    assert printed["kernel"] == kernel
    assert tuple(printed["digests"][name]) == PINS[(NUMPY_VERSION, kernel)][name]


if __name__ == "__main__":
    # the runs' progress lines go to stderr, so stdout holds only the JSON
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        digests = {}
        for name, config in GOLDEN.items():
            (Path(tmp) / name).mkdir()
            digests[name] = run_digests(config, Path(tmp) / name)
    print(json.dumps({"numpy": np.__version__, "kernel": KERNEL, "digests": digests}, indent=1))
