"""Golden output digests: six small continual runs through `streamrl run`
must write byte-identical metrics.jsonl and checkpoint.bin to the pinned
SHA-256 values below.

The pins make "bitwise identical" a property the suite enforces: a change
that is meant to keep every float64 value must leave them as they are, and
one that changes results on purpose must say so and re-pin them. The values
depend on the numpy build (BLAS kernels, summation order), so they are
recorded with numpy's major.minor version, and the test skips on another.
"""

import hashlib

import numpy as np
import pytest
import yaml

from streamrl.cli import main

NUMPY_VERSION = "2.4"

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

# name -> (config, sha256 of metrics.jsonl, sha256 of checkpoint.bin), recorded
# with numpy 2.4 (OpenBLAS 0.3.31) on x86-64
GOLDEN = {
    "dqn-replay": (
        DQN_REPLAY,
        "82e32928cdea7dbfe04736323ff68951de9f5c93d2e13d913c2d6f517e4ee2c7",
        "138537762d990e3078eb7ba051451d4fdae82dfc8d684896d0cf273be8ba0af5",
    ),
    "a2c-ewc": (
        A2C_EWC,
        "06b5280e070a8c77340b725e5180c92e80dd0b6e4c722fb22ac57df83f9071a8",
        "a7133a4d8f9b7d4327e3436af025beca39724665350bde25679d6be21f22b65f",
    ),
    "a2c-episodes": (
        A2C_EPISODES,
        "0310222eba5a7742f0e992efade3c08ecf43628363a1167d9c9776949dbdec63",
        "606cc293c7562256de400d498510dc655539f9629fb0571b1abdf8958ed5a49f",
    ),
    "double-dqn-ewc": (
        DOUBLE_DQN_EWC,
        "be435a13f367ac098c9b1c08cec74f76a60e85e3a81842a858acdbeac7c9376f",
        "970aa3c2b1739a633a067ff326783164a9ec99b440b5463859ced369d7b9285c",
    ),
    "task-stream": (
        TASK_STREAM,
        "3bea7da9d23c39d878e6484be518a1967fc3b8f40c21f17f7dfebb1d64cc4bfd",
        "bf5f5b7b06e94a17be52561e56bd6d1197f3f0f1f78e32a21937c3690553fdba",
    ),
    "a2c-grid-ewc": (
        A2C_GRID_EWC,
        "2a61460fc4e3497cbd624508a27994b2a0cd22b80833f4789674d0de4694bcb4",
        "c97b2051d8e4ae541395ee1cb05fa7bec85e7e249b6b6f099a0f0dc8d170a882",
    ),
}


@pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != NUMPY_VERSION,
    reason=f"digests were recorded with numpy {NUMPY_VERSION}, this is numpy {np.__version__}",
)
@pytest.mark.parametrize("name", list(GOLDEN))
def test_run_outputs_match_the_pinned_digests(name, tmp_path, monkeypatch):
    monkeypatch.delenv("STREAMRL_OUTPUT_DIR", raising=False)
    config, metrics_sha, checkpoint_sha = GOLDEN[name]
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({**config, "output_dir": str(tmp_path / "out")}))
    assert main(["run", str(path)]) == 0
    digest = {
        artifact: hashlib.sha256((tmp_path / "out" / artifact).read_bytes()).hexdigest()
        for artifact in ("metrics.jsonl", "checkpoint.bin")
    }
    assert digest == {"metrics.jsonl": metrics_sha, "checkpoint.bin": checkpoint_sha}
