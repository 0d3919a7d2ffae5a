"""Experience streams: generators, task labels, eval-stream derivation."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from streamrl.benchmarks import (
    BadOrderIndex,
    EmptySpecList,
    EnvSpec,
    Explicit,
    RandomSample,
    RLExperience,
    RLScenario,
    continual_control_generator,
    experiences,
    gym_benchmark_generator,
)
from streamrl.cli import walk_config
from streamrl.core_env import TimeLimit
from streamrl.envs import CartPole, CartPoleParams, GridScene, GridWorld, InvalidParams, parse_scene

ROOT = Path(__file__).resolve().parents[1]

SPEC_A = EnvSpec("grid_a", lambda: GridWorld(GridScene(5, 5)))
SPEC_B = EnvSpec("grid_b", lambda: GridWorld(GridScene(5, 5, goal=(0, 4))))


def test_explicit_single_spec_repeated():
    scn = gym_benchmark_generator([SPEC_A], 3, Explicit((0, 0, 0)))
    assert [e.task_label for e in scn.train_stream] == [0, 0, 0]
    assert [e.experience_index for e in scn.train_stream] == [0, 1, 2]


def test_revisit_keeps_stable_label():
    scn = gym_benchmark_generator([SPEC_A, SPEC_B], 3, Explicit((0, 1, 0)))
    labels = [e.task_label for e in scn.train_stream]
    assert labels == [0, 1, 0]
    assert scn.train_stream[0].name == scn.train_stream[2].name == "grid_a"


def test_random_sample_reproducible():
    first = gym_benchmark_generator([SPEC_A, SPEC_B], 6, RandomSample(42))
    second = gym_benchmark_generator([SPEC_A, SPEC_B], 6, RandomSample(42))
    other = gym_benchmark_generator([SPEC_A, SPEC_B], 6, RandomSample(43))
    labels = [e.task_label for e in first.train_stream]
    assert labels == [e.task_label for e in second.train_stream]
    assert all(l in (0, 1) for l in labels)
    assert len(other.train_stream) == 6


def test_eval_stream_one_per_spec():
    scn = gym_benchmark_generator([SPEC_A, SPEC_B], 5, Explicit((0, 1, 0, 1, 0)))
    assert len(scn.eval_stream) == 2
    assert [e.task_label for e in scn.eval_stream] == [0, 1]
    assert all(e.n_envs == 1 for e in scn.eval_stream)


def test_empty_spec_list():
    with pytest.raises(EmptySpecList):
        gym_benchmark_generator([], 1, Explicit((0,)))


def test_bad_order_index():
    with pytest.raises(BadOrderIndex):
        gym_benchmark_generator([SPEC_A], 1, Explicit((1,)))
    with pytest.raises(BadOrderIndex):
        gym_benchmark_generator([SPEC_A], 2, Explicit((0,)))  # wrong length


def test_n_parallel_envs_propagates():
    scn = gym_benchmark_generator([SPEC_A], 2, Explicit((0, 0)), n_parallel_envs=4)
    assert all(e.n_envs == 4 for e in scn.train_stream)
    assert all(e.n_envs == 1 for e in scn.eval_stream)


def test_spec_wrappers_applied_by_build():
    spec = EnvSpec("limited", lambda: GridWorld(GridScene(5, 5)), wrappers=(TimeLimit(2),))
    env = spec.build()
    env.reset(seed=0)
    env.step(3)
    assert env.step(3).done


def test_stream_iterable_twice_identically():
    scn = gym_benchmark_generator([SPEC_A, SPEC_B], 4, RandomSample(7))
    first = [(e.task_label, e.name) for e in scn.train_stream]
    second = [(e.task_label, e.name) for e in scn.train_stream]
    assert first == second
    obs1 = scn.train_stream[0].env_factory().reset(seed=3)
    obs2 = scn.train_stream[0].env_factory().reset(seed=3)
    assert np.array_equal(obs1, obs2)


def test_experience_invariants():
    with pytest.raises(ValueError):
        RLExperience(env_factory=SPEC_A.build, task_label=0, n_envs=0)


def test_scenario_index_invariant():
    good = RLExperience(env_factory=SPEC_A.build, task_label=0, n_envs=1, experience_index=0)
    bad = RLExperience(env_factory=SPEC_A.build, task_label=0, n_envs=1, experience_index=5)
    with pytest.raises(ValueError):
        RLScenario(train_stream=(good, bad), eval_stream=(good,))


# ---------------------------------------------------------------------------
# continual_control_generator
# ---------------------------------------------------------------------------


def test_continual_control_schedule():
    scn = continual_control_generator(
        CartPoleParams(), [{"gravity": 9.8}, {"gravity": 19.6}]
    )
    assert len(scn.train_stream) == 2
    assert [e.task_label for e in scn.train_stream] == [0, 1]

    def one_step(exp):
        env = exp.env_factory()
        env.reset(seed=3)
        env.set_state((0.0, 0.0, 0.1, 0.0))
        return env.step(1).obs

    assert not np.array_equal(one_step(scn.train_stream[0]), one_step(scn.train_stream[1]))


def test_continual_control_empty_override_matches_base():
    scn = continual_control_generator(CartPoleParams(), [{}])
    env = scn.train_stream[0].env_factory()
    base = CartPole(CartPoleParams())
    assert np.array_equal(env.reset(seed=5), base.reset(seed=5))


def test_continual_control_invalid_params():
    with pytest.raises(InvalidParams):
        continual_control_generator(CartPoleParams(), [{"gravity": -1.0}])
    with pytest.raises(InvalidParams):
        continual_control_generator(CartPoleParams(), [{"gravity": 0.0}])


def test_continual_control_empty_schedule():
    with pytest.raises(EmptySpecList):
        continual_control_generator(CartPoleParams(), [])


def test_continual_control_eval_mirror():
    scn = continual_control_generator(
        CartPoleParams(), [{"gravity": 9.8}, {"gravity": 19.6}], n_parallel_envs=3
    )
    assert all(e.n_envs == 3 for e in scn.train_stream)
    assert all(e.n_envs == 1 for e in scn.eval_stream)
    assert [e.task_label for e in scn.eval_stream] == [0, 1]


def test_experiences_index_entries_in_order():
    make = lambda: GridWorld(GridScene(5, 5))  # noqa: E731
    built = experiences([(make, 1, "x"), (make, 0, "y"), (make, 1, "z")], n_envs=3)
    assert built == (
        RLExperience(make, 1, 3, experience_index=0, name="x"),
        RLExperience(make, 0, 3, experience_index=1, name="y"),
        RLExperience(make, 1, 3, experience_index=2, name="z"),
    )
    assert experiences([], n_envs=1) == ()


def readme_task_stream_config() -> dict:
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```yaml\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    (block,) = [b for b in blocks if "generator: task_stream" in b]
    return yaml.safe_load(block)


def workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def described(stream) -> list[tuple]:
    """Each experience's label, n_envs, index and name, whether its factory
    hands out one shared env, and what that env is: its class, its cart-pole
    physics or its scene, and its active task."""
    rows = []
    for exp in stream:
        env = exp.env_factory()
        task = getattr(env, "active_task", None)
        what = (type(env).__name__, getattr(env, "params", None), getattr(env, "scene", None),
                getattr(task, "name", None))
        rows.append((exp.task_label, exp.n_envs, exp.experience_index, exp.name,
                     exp.env_factory() is env, what))
    return rows


def expected_streams(config_name: str) -> tuple[list, list]:
    if config_name == "readme-task-stream":
        a, b = (parse_scene(text, max_steps=50) for text in ("S..\n...\n..G", "S.#\n...\nG.."))
        cells = [(0, "go", 0, a), (0, "go", 1, b), (1, "stay", 0, a), (1, "stay", 1, b)]
        train = [(t, 1, i, f"{name}/scene{s}(len=10)", True, ("TaskStreamEnv", None, scene, name))
                 for i, (t, name, s, scene) in enumerate(cells)]
        evals = [(t, 1, i, f"eval/{name}/scene{s}", False, ("TaskStreamEnv", None, scene, name))
                 for i, (t, name, s, scene) in enumerate(cells)]
        return train, evals
    module = workloads()
    if config_name == "grid-dqn-replay":
        scenes = [parse_scene(text, **module.GRID_PARAMS) for text in (module.MAP_A, module.MAP_B)]
        rows = [(i, 1, i, name, False, ("GridWorld", None, scene, None))
                for i, (name, scene) in enumerate(zip("AB", scenes))]
        return rows, rows
    physics = [CartPoleParams(max_steps=100, pole_half_length=h) for h in (0.5, 1.0, 0.25)]
    rows = [(i, n_envs, i, f"cartpole_variant_{i}", False, ("CartPole", params, None, None))
            for i, params in enumerate(physics) for n_envs in (4, 1)]
    return rows[::2], rows[1::2]


@pytest.mark.parametrize("config_name", ["readme-task-stream", "grid-dqn-replay", "cartpole-a2c-ewc"])
def test_generators_build_the_pinned_experiences(config_name):
    if config_name == "readme-task-stream":
        config = readme_task_stream_config()
    else:
        config = workloads().make(config_name, 1)["config"]
    scenario = walk_config(config).scenario
    train, evals = expected_streams(config_name)
    assert described(scenario.train_stream) == train
    assert described(scenario.eval_stream) == evals
