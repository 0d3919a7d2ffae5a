"""The shared argument rules of streamrl.checks, and every public constructor
that takes a count, a seed, a label, an index or a finite number refusing
what the rules refuse, and a number out of its range, with the argument's
name in the message and its module's error class."""

import re

import numpy as np
import pytest

from streamrl.benchmarks import BadOrderIndex, Explicit, RLExperience
from streamrl.checks import Count, count, finite, integer
from streamrl.core_env import Discrete, FrameStack, TimeLimit, wrap
from streamrl.envs import BanditParams, CartPole, CartPoleParams, GridScene, InvalidParams
from streamrl.evaluation import ForgettingMatrix, MetricsCollector, WindowedScalar
from streamrl.nn import Adam, Mlp, Sgd
from streamrl.plugins import EwcPlugin, ReplayPlugin
from streamrl.task_stream import (
    EveryNEpisodes,
    EveryNSteps,
    MaxEpisodes,
    MaxSteps,
    TaskStreamConfigError,
    build_task,
)
from streamrl.training import (
    A2cStrategy,
    DqnStrategy,
    Episodes,
    InvalidEpisodeCount,
    ReplayBuffer,
    Rollout,
    Steps,
    TrainingBudget,
    Transitions,
)
from streamrl.vec_env import VectorizedEnv


def test_integer_accepts_integers_from_its_lower_bound():
    for value in (-5, 0, np.int64(-3), 10**30):
        assert integer(value, "k") is value
    for value in (0, 3, np.uint8(2)):
        assert integer(value, "seed", low=0) is value


def test_integer_messages():
    for value in (2.5, True, np.bool_(False), "3", None, float("nan")):
        message = f"^k must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidParams, match=message):
            integer(value, "k", InvalidParams)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        integer(-1, "seed", low=0)


def test_count_accepts_integers_of_one_and_more():
    for value in (1, 7, np.int64(3), np.uint8(2), 10**30):
        assert count(value, "n") is value


def test_count_messages():
    with pytest.raises(ValueError, match=r"^n must be an integer, got 2\.5$"):
        count(2.5, "n")
    with pytest.raises(ValueError, match=r"^n must be an integer, got True$"):
        count(True, "n")
    with pytest.raises(ValueError, match=r"^n must be an integer, got np\.True_$"):
        count(np.bool_(True), "n")
    with pytest.raises(TaskStreamConfigError, match=r"^k must be >= 1, got 0$"):
        count(0, "k", TaskStreamConfigError)


def test_finite_accepts_real_numbers_in_the_float_range():
    for value in (0, -3, 0.5, -1e308, np.float64(2.0), np.int32(-4)):
        assert finite(value, "x") is value


def test_finite_messages():
    for value in (float("nan"), float("-inf"), True, "1", None, 1j, 10**400):
        message = f"^x must be a finite number, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidParams, match=message):
            finite(value, "x", InvalidParams)


def test_a_count_subclass_names_itself_and_raises_its_error():
    class Laps(Count):
        error = InvalidParams

    assert Laps(np.int64(3)).n == 3 and Laps(2) != Count(2) and repr(Laps(2)).endswith(".Laps(n=2)")
    with pytest.raises(InvalidParams, match=r"^Laps\(n\) must be >= 1, got -1$"):
        Laps(-1)
    with pytest.raises(ValueError, match=r"^Count\(n\) must be an integer"):
        Count(1.0)


def tiny_dqn(**kwargs):
    model = Mlp([4, 2], heads={"q_values": 2})
    return DqnStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)), **kwargs)


def tiny_a2c(**kwargs):
    model = Mlp([4, 3], heads={"policy_logits": 2, "value": 1})
    return A2cStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)), **kwargs)


def grid_scene(**kwargs):
    return GridScene(**{"width": 3, "height": 3, "goal": (2, 2), **kwargs})


def vectorized_env(n):
    VectorizedEnv(CartPole, n).close()


# (what the message calls the argument, its constructor, the error class it raises)
COUNT_ARGUMENTS = {
    "Discrete": ("Discrete(n)", Discrete, ValueError),
    "TimeLimit": ("TimeLimit max_steps", lambda n: wrap(CartPole(), TimeLimit(n)), ValueError),
    "FrameStack": ("FrameStack k", lambda n: wrap(CartPole(), FrameStack(n)), ValueError),
    "CartPoleParams.max_steps": ("max_steps", lambda n: CartPoleParams(max_steps=n), InvalidParams),
    "GridScene.width": ("width", lambda n: grid_scene(width=n), InvalidParams),
    "GridScene.height": ("height", lambda n: grid_scene(height=n), InvalidParams),
    "GridScene.max_steps": ("max_steps", lambda n: grid_scene(max_steps=n), InvalidParams),
    "WindowedScalar": ("window", WindowedScalar, ValueError),
    "MetricsCollector": ("window", MetricsCollector, ValueError),
    "ForgettingMatrix": ("n_eval_tasks", ForgettingMatrix, ValueError),
    "RLExperience": ("n_envs", lambda n: RLExperience(CartPole, 0, n_envs=n), ValueError),
    "VectorizedEnv": ("n_actors", vectorized_env, ValueError),
    "Rollout": ("n_actors", lambda n: Rollout(n, Transitions.zeros((0,), (4,))), ValueError),
    "TrainingBudget": ("updates_per_experience", lambda n: TrainingBudget(n, Steps(5)), ValueError),
    "evaluate": ("n_episodes", lambda n: tiny_dqn().evaluate([], n), InvalidEpisodeCount),
    "ReplayBuffer": ("capacity", ReplayBuffer, ValueError),
    "DqnStrategy.batch_size": ("batch_size", lambda n: tiny_dqn(batch_size=n), ValueError),
    "DqnStrategy.target_sync_period":
        ("target_sync_period", lambda n: tiny_dqn(target_sync_period=n), ValueError),
    "EwcPlugin.fisher_sample_count":
        ("fisher_sample_count", lambda n: EwcPlugin(fisher_sample_count=n), ValueError),
    "Steps": ("Steps(n)", Steps, ValueError),
    "Episodes": ("Episodes(n)", Episodes, ValueError),
    "MaxSteps": ("MaxSteps(n)", MaxSteps, TaskStreamConfigError),
    "MaxEpisodes": ("MaxEpisodes(n)", MaxEpisodes, TaskStreamConfigError),
    "EveryNSteps": ("EveryNSteps(n)", EveryNSteps, TaskStreamConfigError),
    "EveryNEpisodes": ("EveryNEpisodes(n)", EveryNEpisodes, TaskStreamConfigError),
    "Mlp.sizes": ("sizes[1]", lambda n: Mlp([4, n, 2]), ValueError),
}

FINITE_ARGUMENTS = {
    "CartPoleParams": ("pole_mass", lambda x: CartPoleParams(pole_mass=x), InvalidParams),
    "GridScene.step_reward": ("step_reward", lambda x: grid_scene(step_reward=x), InvalidParams),
    "GridScene.goal_reward": ("goal_reward", lambda x: grid_scene(goal_reward=x), InvalidParams),
    "BanditParams.means": ("bandit means", lambda x: BanditParams(means=(0.0, x)), InvalidParams),
    "BanditParams.noise_std": ("noise_std", lambda x: BanditParams((0.0,), x), InvalidParams),
    "EwcPlugin.lam": ("lam", lambda x: EwcPlugin(lam=x), ValueError),
    "build_task": ("goal_reward", lambda x: build_task("reach_goal", goal_reward=x),
                   TaskStreamConfigError),
    "Sgd": ("lr", Sgd, ValueError),
    "Adam": ("lr", Adam, ValueError),
    "Adam.beta1": ("beta1", lambda x: Adam(1e-3, beta1=x), ValueError),
    "Adam.beta2": ("beta2", lambda x: Adam(1e-3, beta2=x), ValueError),
    "Adam.eps": ("eps", lambda x: Adam(1e-3, eps=x), ValueError),
    "RLBaseStrategy.gamma": ("gamma", lambda x: tiny_dqn(gamma=x), ValueError),
    "DqnStrategy.eps_start": ("eps_start", lambda x: tiny_dqn(eps_start=x), ValueError),
    "DqnStrategy.eps_end": ("eps_end", lambda x: tiny_dqn(eps_end=x), ValueError),
    "DqnStrategy.eps_decay_fraction":
        ("eps_decay_fraction", lambda x: tiny_dqn(eps_decay_fraction=x), ValueError),
    "A2cStrategy.value_coef": ("value_coef", lambda x: tiny_a2c(value_coef=x), ValueError),
    "A2cStrategy.entropy_coef": ("entropy_coef", lambda x: tiny_a2c(entropy_coef=x), ValueError),
    "ReplayPlugin.mix_ratio": ("mix_ratio", lambda x: ReplayPlugin(mix_ratio=x), ValueError),
}

# (argument, its constructor): each is an integer >= 0
SEED_ARGUMENTS = {
    "RLBaseStrategy.env_seed": ("env_seed", lambda n: tiny_dqn(env_seed=n)),
    "RLBaseStrategy.eval_env_seed": ("eval_env_seed", lambda n: tiny_dqn(eval_env_seed=n)),
    "DqnStrategy.action_seed": ("action_seed", lambda n: tiny_dqn(action_seed=n)),
    "DqnStrategy.replay_seed": ("replay_seed", lambda n: tiny_dqn(replay_seed=n)),
    "A2cStrategy.action_seed": ("action_seed", lambda n: tiny_a2c(action_seed=n)),
    "ReplayPlugin.seed": ("seed", lambda n: ReplayPlugin(seed=n)),
    # not seeds, but the same rule: a task label and a position in the stream
    "RLExperience.task_label": ("task_label", lambda n: RLExperience(CartPole, n)),
    "RLExperience.experience_index":
        ("experience_index", lambda n: RLExperience(CartPole, 0, experience_index=n)),
}

# (argument, its constructor, finite values out of its range, the range the message names)
RANGED_ARGUMENTS = {
    "Adam.lr": ("lr", Adam, [0, -1e-3], "> 0"),
    "Adam.beta1": ("beta1", lambda x: Adam(1e-3, beta1=x), [1.0, -0.1, 2], "in [0, 1)"),
    "Adam.beta2": ("beta2", lambda x: Adam(1e-3, beta2=x), [1.0, 2.0, -1e-9], "in [0, 1)"),
    "Adam.eps": ("eps", lambda x: Adam(1e-3, eps=x), [0.0, -1.0], "> 0"),
    "RLBaseStrategy.gamma": ("gamma", lambda x: tiny_dqn(gamma=x), [1.5, -0.01], "in [0, 1]"),
    "ReplayPlugin.mix_ratio": ("mix_ratio", lambda x: ReplayPlugin(mix_ratio=x), [2, -0.5], "in [0, 1]"),
}


@pytest.mark.parametrize("value", [0, -1, 2.5, True, "3"], ids=repr)
@pytest.mark.parametrize("site", list(COUNT_ARGUMENTS))
def test_every_count_argument_refuses_what_is_no_count(site, value):
    name, construct, error = COUNT_ARGUMENTS[site]
    with pytest.raises(error, match=f"^{re.escape(name)} must be "):
        construct(value)


@pytest.mark.parametrize("site", list(COUNT_ARGUMENTS))
def test_every_count_argument_accepts_a_numpy_integer(site):
    _, construct, _ = COUNT_ARGUMENTS[site]
    construct(np.int64(3))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "1"], ids=repr)
@pytest.mark.parametrize("site", list(FINITE_ARGUMENTS))
def test_every_finite_argument_refuses_what_is_no_finite_number(site, value):
    name, construct, error = FINITE_ARGUMENTS[site]
    with pytest.raises(error, match=f"^{re.escape(name)} must be "):
        construct(value)


@pytest.mark.parametrize("site", list(FINITE_ARGUMENTS))
def test_every_finite_argument_accepts_a_numpy_float(site):
    _, construct, _ = FINITE_ARGUMENTS[site]
    construct(np.float64(0.5))


@pytest.mark.parametrize("value", [-1, 2.5, True, "3"], ids=repr)
@pytest.mark.parametrize("site", list(SEED_ARGUMENTS))
def test_every_seed_argument_refuses_what_is_no_integer_of_zero_or_more(site, value):
    name, construct = SEED_ARGUMENTS[site]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        construct(value)


@pytest.mark.parametrize("site", list(SEED_ARGUMENTS))
def test_every_seed_argument_accepts_zero_and_a_numpy_integer(site):
    _, construct = SEED_ARGUMENTS[site]
    construct(0)
    construct(np.int64(7))


@pytest.mark.parametrize("value", [1.5, 0.2, True, np.True_, "1", None], ids=repr)
def test_explicit_refuses_an_order_index_that_is_no_integer(value):
    message = f"^order index must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(BadOrderIndex, match=message):
        Explicit((0, value))


def test_explicit_stores_numpy_integer_indices_as_int():
    order = Explicit((np.int64(1), 0, np.int32(2)))
    assert order.indices == (1, 0, 2)
    assert all(type(i) is int for i in order.indices)


@pytest.mark.parametrize("mode", ["bogus", "Serial", None, 1])
@pytest.mark.parametrize("make", [tiny_dqn, tiny_a2c], ids=["dqn", "a2c"])
def test_a_strategy_refuses_an_unknown_vec_mode_when_built(make, mode):
    with pytest.raises(ValueError, match=f"^vec_mode must be 'serial' or 'parallel', got {re.escape(repr(mode))}$"):
        make(vec_mode=mode)


@pytest.mark.parametrize("site", list(RANGED_ARGUMENTS))
def test_every_ranged_argument_refuses_a_finite_number_out_of_its_range(site):
    name, construct, values, bounds = RANGED_ARGUMENTS[site]
    for value in values:
        message = f"^{re.escape(name)} must be {re.escape(bounds)}, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            construct(value)


def test_adam_accepts_the_ends_of_its_ranges():
    adam = Adam(1e-3, beta1=0, beta2=0.0, eps=5e-324)
    assert (adam.beta1, adam.beta2, adam.eps) == (0.0, 0.0, 5e-324)
