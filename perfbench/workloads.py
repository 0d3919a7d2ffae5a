"""The benchmark workloads, generated from the benchmark's seed.

Each workload is one continual run through a stream of experiences, with
the whole task set re-evaluated after every experience. `make(name, seed)`
returns the generated `streamrl run` config together with the budget the
output checks expect. The seed only picks the program's seeds; the amount of
work per run is fixed, so runs at different seeds measure the same work on
different trajectories.

Why each workload exists (see README.md for the per-layer predictions):

- grid-dqn-replay: update-heavy DQN whose ReplayPlugin memory is full for the
  whole second experience, so every update scans a 10k-transition memory.
  Also the JSONL-logging and checkpoint-heavy case.
- cartpole-a2c-ewc: rollout-heavy A2C with four serial actors, cart-pole
  physics, an EWC Fisher at each experience end and a long greedy eval phase.
  No replay at all.
"""

from __future__ import annotations

import random

# The walled two-task gridworld stream of acceptance criterion 6.
MAP_A = "S.#..\n..#..\n..#..\n..#..\n.G#.."
MAP_B = "..#.S\n..#..\n..#..\n..#..\n..#G."
GRID_PARAMS = {"max_steps": 100, "step_reward": -0.1, "goal_reward": 10.0}
# Relative to the child's working directory, so repeats of one seed run the
# byte-identical config.
OUTPUT_DIR = "out"

WHY = {
    "grid-dqn-replay": "update-heavy DQN; replay memory full (10k) so each update scans it; JSONL and checkpoint heavy",
    "cartpole-a2c-ewc": "rollout-heavy A2C, 4 serial actors, cart-pole physics, EWC Fisher, long greedy eval; no replay",
}
NAMES = tuple(WHY)


def _seeds(name: str, seed: int) -> dict:
    rng = random.Random(f"{name}:{seed}")
    return {key: rng.randrange(1 << 20) for key in ("env", "net", "sampling")}


def make(name: str, seed: int) -> dict:
    """The generated input of one workload at one seed: the `streamrl run`
    config, and in `expect` what the output checks compare against."""
    seeds = _seeds(name, seed)
    if name == "grid-dqn-replay":
        # 2000 updates x 5 steps = 10 000 transitions: the replay memory is
        # exactly full when experience 0 ends.
        updates, steps, actors, episodes = 2000, 5, 1, 200
        config = {
            "scenario": {
                "generator": "gym_benchmark",
                "env_specs": [
                    {"name": "A", "env": "gridworld", "map": MAP_A, "params": GRID_PARAMS},
                    {"name": "B", "env": "gridworld", "map": MAP_B, "params": GRID_PARAMS},
                ],
                "n_experiences": 2,
                "order": {"explicit": [0, 1]},
                "n_parallel_envs": actors,
            },
            "strategy": {"name": "dqn", "hidden": [64, 64], "gamma": 0.9, "batch_size": 32,
                         "eps_decay_fraction": 0.3},
            "plugins": [{"name": "replay", "capacity": 10_000, "mix_ratio": 0.5}],
            "budget": {"updates_per_experience": updates, "rollout": {"steps": steps}},
            "seeds": seeds,
            "eval": {"episodes": episodes, "after_each_experience": True},
            "output_dir": OUTPUT_DIR,
        }
        n_exp, n_tasks = 2, 2
    elif name == "cartpole-a2c-ewc":
        updates, steps, actors, episodes = 600, 5, 4, 30
        config = {
            "scenario": {
                "generator": "continual_control",
                "base_params": {"max_steps": 100},
                "schedule": [{"pole_half_length": 0.5}, {"pole_half_length": 1.0},
                             {"pole_half_length": 0.25}],
                "n_parallel_envs": actors,
            },
            "strategy": {"name": "a2c", "hidden": [64, 64]},
            "plugins": [{"name": "ewc", "lam": 100.0, "fisher_sample_count": 512}],
            "budget": {"updates_per_experience": updates, "rollout": {"steps": steps}},
            "seeds": seeds,
            "eval": {"episodes": episodes, "after_each_experience": True},
            "output_dir": OUTPUT_DIR,
        }
        n_exp, n_tasks = 3, 3
    else:
        raise KeyError(f"unknown workload {name!r} (choose from {', '.join(NAMES)})")
    return {
        "workload": name,
        "config": config,
        "expect": {
            "n_experiences": n_exp,
            "n_eval_tasks": n_tasks,
            "updates_per_experience": updates,
            "env_steps_per_experience": updates * steps * actors,
            "eval_episodes": episodes,
        },
    }
