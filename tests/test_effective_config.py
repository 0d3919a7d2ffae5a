"""The bytes of config_effective.yaml, pinned: the default-expanded config
that `streamrl run` writes must stay the same byte for byte, for the golden
runs' configs, the README's configs and configs with irregular parts."""

import hashlib
import re
from pathlib import Path

import pytest
import yaml

from streamrl.cli import walk_config
from test_golden_digests import GOLDEN

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_configs() -> list:
    blocks = re.findall(r"^```yaml\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    return [yaml.safe_load(block) for block in blocks]


# Configs whose effective form has irregular parts: bandit params are
# normalised to floats, cart-pole params and task entries are kept as written,
# a task stream's n_experiences appears only when it is set, and a null
# plugins list is an empty one.
IRREGULAR = {
    "bandit": {
        "scenario": {"generator": "gym_benchmark", "n_experiences": 2,
                     "order": {"random_seed": 4},
                     "env_specs": [{"name": "b", "env": "bandit",
                                    "params": {"means": [0, 1.5], "noise_std": 1}}]},
        "strategy": {"name": "a2c", "value_coef": 1, "entropy_coef": 0},
        "plugins": None,
        "budget": {"updates_per_experience": 3, "rollout": {"episodes": 2}},
        "seeds": {"env": 1, "net": 2, "sampling": 3},
        "output_dir": "out",
    },
    "cartpole-wrappers": {
        "scenario": {"generator": "gym_benchmark", "n_experiences": 1, "order": {"explicit": [0]},
                     "env_specs": [{"name": "c", "env": "cartpole",
                                    "params": {"gravity": 11, "max_steps": 30},
                                    "wrappers": [{"time_limit": 9}, {"reward_clip": [-1, 1]},
                                                 {"obs_normalize": True},
                                                 {"action_remap": {0: 1, 1: 0}},
                                                 {"reduced_actions": [1, 0]},
                                                 {"frame_stack": 3}]}],
                     "n_parallel_envs": 2},
        "strategy": {"name": "double_dqn", "lr": 1, "eps_end": 0},
        "plugins": [{"name": "naive"}, {"name": "ewc", "lam": 0}, {"name": "replay"}],
        "budget": {"updates_per_experience": 1},
        "seeds": {"env": 1, "net": 2, "sampling": 3},
        "eval": {"after_each_experience": False},
        "output_dir": "out",
    },
    "task-stream-short": {
        "scenario": {"generator": "task_stream", "n_experiences": 2,
                     "tasks": [{"type": "survive", "duration": {"episodes": 3}},
                               {"name": "go", "type": "reach_goal", "duration": {"episodes": 2},
                                "params": {"goal_reward": 2}}],
                     "scenes": ["S..\n...\n..G"], "swap": {"every_n_episodes": 1},
                     "scene_params": {"max_steps": 9}},
        "strategy": {"name": "dqn"},
        "budget": {"updates_per_experience": 1},
        "seeds": {"env": 1, "net": 2, "sampling": 3},
        "output_dir": "out",
    },
    "continual-control-bare": {
        "scenario": {"generator": "continual_control", "schedule": [{}, {"gravity": 11}]},
        "strategy": {"name": "a2c", "hidden": []},
        "budget": {"updates_per_experience": 1},
        "seeds": {"env": 0, "net": 0, "sampling": 0},
        "output_dir": "out",
    },
}

EFFECTIVE_CONFIGS = {
    **{f"golden-{name}": {**config, "output_dir": "out"} for name, config in GOLDEN.items()},
    **{f"readme-{i}": config for i, config in enumerate(readme_configs())},
    **IRREGULAR,
}

# sha256 of yaml.safe_dump(walk_config(config).effective, sort_keys=True): the
# bytes `streamrl run` writes to config_effective.yaml before it sets output_dir
EFFECTIVE_SHA256 = {
    "golden-dqn-replay": "f9de4be7b32cd451d57e7579ba3f56b5fd1a443533866a87ea870f9d9a094ed3",
    "golden-a2c-ewc": "61b8aa5b5a897a5181c3c1036fc32435884ef4fe2f67dc47b08b2e4d52a7c823",
    "golden-a2c-episodes": "d7cd9efa460b87cbd629b8d3fbaeb19ebc6efcd04e4e3e53b49d533e74af2531",
    "golden-double-dqn-ewc": "147f26308e3192f2c09ccb180ffcfd96dd6fd4e474f16553b6f3bdf2826ddac4",
    "golden-task-stream": "e15913835630de46cc7cb027ea9d61fabc5d8d02b3cf2a3a558fc94b10274ba6",
    "golden-a2c-grid-ewc": "3728d01f9314eba39b1d482b02a4ac297cff32e7f816c87af1aab6752df4262a",
    "readme-0": "7e82a119cd7b75d78bf7c81295d14bcd78fb59e6fd003843a1678c551a252dce",
    "readme-1": "5d1a495d5c7b459726124554d20fcda7fe28d8e3ca5c711dad64fd9aafdbf428",
    "readme-2": "beecde82fc48b2e43b52098c2c6493c04ed37cd6544e29e1160205134ae72634",
    "bandit": "289e9710e7d3b9f0dc9bb020f84f7c42b81f9bf025dd702b041aba769df49ebb",
    "cartpole-wrappers": "b5d8d8798b3f09924a57e570c465e6f1b92a2ebc5145cda77b80f97ad5ed54ec",
    "task-stream-short": "03374853a9317adebad8d9815803a06b81970c55aed0bde85210766a35c5c5af",
    "continual-control-bare": "ad90c9d843cd6e50098b70b525e4c8eef90a6064d2af247c768ab869c375beae",
}


@pytest.mark.parametrize("name", list(EFFECTIVE_CONFIGS))
def test_effective_config_bytes_are_pinned(name):
    text = yaml.safe_dump(walk_config(EFFECTIVE_CONFIGS[name]).effective, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == EFFECTIVE_SHA256[name]
