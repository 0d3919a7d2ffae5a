"""Environment interface contract: spaces, step results, and wrappers."""

import numpy as np
import pytest

from streamrl.core_env import (
    ActionOutOfSpace,
    ActionRemap,
    BoxSpace,
    Discrete,
    EpisodeAlreadyDone,
    FrameStack,
    IncompatibleSpace,
    ObservationNormalize,
    ReducedActionSet,
    RewardClip,
    TimeLimit,
    deserialize_obs,
    serialize_obs,
    wrap,
    wrap_all,
)
from streamrl.envs import CartPole, CartPoleParams, GridScene, GridWorld


def make_grid(**kwargs):
    return GridWorld(GridScene(5, 5, **kwargs))


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------


def test_discrete_membership():
    space = Discrete(4)
    assert space.contains(0)
    assert space.contains(3)
    assert not space.contains(4)
    assert not space.contains(-1)


def test_discrete_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        Discrete(0)


def test_box_space_bounds_checked():
    with pytest.raises(ValueError):
        BoxSpace(low=np.array([1.0]), high=np.array([0.0]), shape=(1,))


def test_box_space_contains():
    space = BoxSpace(low=np.zeros(2), high=np.ones(2), shape=(2,))
    assert space.contains(np.array([0.5, 1.0]))
    assert not space.contains(np.array([0.5, 1.5]))
    assert not space.contains(np.array([0.5]))


def test_box_space_shape_total_must_match():
    with pytest.raises(ValueError):
        BoxSpace(low=np.zeros(3), high=np.ones(3), shape=(2,))


# ---------------------------------------------------------------------------
# Observation serialization (an exact JSON round trip)
# ---------------------------------------------------------------------------


def test_serialize_round_trip_exact():
    obs = np.array([0.1, -2.5e-17, 3.0, 1 / 3])
    back = deserialize_obs(serialize_obs(obs))
    assert back.dtype == np.float64
    assert np.array_equal(back, obs)


def test_serialize_preserves_shape():
    obs = np.arange(6, dtype=np.float64).reshape(2, 3)
    back = deserialize_obs(serialize_obs(obs))
    assert back.shape == (2, 3)
    assert np.array_equal(back, obs)


# ---------------------------------------------------------------------------
# Base environment contract
# ---------------------------------------------------------------------------


def test_gridworld_reset_one_hot_start():
    env = make_grid()
    obs = env.reset(seed=7)
    assert obs.shape == (25,)
    assert obs[0] == 1.0
    assert obs.sum() == 1.0
    # start cell is fixed, so the seed is irrelevant
    assert np.array_equal(env.reset(seed=123), obs)


def test_cartpole_reset_deterministic_and_bounded():
    env = CartPole(CartPoleParams())
    first = env.reset(seed=3)
    second = env.reset(seed=3)
    assert np.array_equal(first, second)
    assert first.shape == (4,)
    assert np.all(np.abs(first) <= 0.05)


def test_step_after_done_is_an_error():
    env = make_grid(goal=(1, 0))
    env.reset(seed=0)
    result = env.step(3)  # Right moves onto the goal
    assert result.done
    with pytest.raises(EpisodeAlreadyDone):
        env.step(0)


def test_step_before_reset_is_an_error():
    env = make_grid()
    with pytest.raises(EpisodeAlreadyDone):
        env.step(0)


def test_action_out_of_space():
    env = make_grid()
    env.reset(seed=0)
    with pytest.raises(ActionOutOfSpace):
        env.step(4)


def test_determinism_full_trajectory():
    actions = [3, 3, 1, 0, 2, 1, 1, 3]
    runs = []
    for _ in range(2):
        env = CartPole(CartPoleParams())
        obs = [env.reset(seed=11)]
        rewards = []
        for a in actions:
            result = env.step(a % 2)
            obs.append(result.obs)
            rewards.append(result.reward)
            if result.done:
                break
        runs.append((np.stack(obs), rewards))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_observations_satisfy_space():
    env = make_grid()
    obs = env.reset(seed=0)
    space = env.observation_space
    assert space.contains(obs)
    for a in [3, 1, 3, 1]:
        result = env.step(a)
        assert space.contains(result.obs)


# ---------------------------------------------------------------------------
# TimeLimit
# ---------------------------------------------------------------------------


def test_time_limit_forces_done_with_info():
    env = wrap(make_grid(), TimeLimit(max_steps=2))
    env.reset(seed=0)
    first = env.step(3)
    assert not first.done
    second = env.step(3)
    assert second.done
    assert second.info["time_limit"] == "true"


def test_time_limit_resets_counter():
    env = wrap(make_grid(), TimeLimit(max_steps=2))
    env.reset(seed=0)
    env.step(3)
    env.step(3)
    env.reset(seed=0)
    assert not env.step(3).done


def test_time_limit_does_not_mask_natural_done():
    env = wrap(make_grid(goal=(1, 0)), TimeLimit(max_steps=50))
    env.reset(seed=0)
    result = env.step(3)
    assert result.done
    assert "time_limit" not in result.info


# ---------------------------------------------------------------------------
# FrameStack
# ---------------------------------------------------------------------------


def test_frame_stack_reset_repeats_initial_obs():
    env = wrap(make_grid(), FrameStack(k=2))
    obs = env.reset(seed=0)
    assert obs.shape == (50,)
    assert np.array_equal(obs[:25], obs[25:])
    assert obs[0] == 1.0 and obs[25] == 1.0


def test_frame_stack_oldest_first_ordering():
    env = wrap(make_grid(), FrameStack(k=2))
    initial = env.reset(seed=0)[:25]
    result = env.step(3)  # move right: new cell index 1
    stacked = result.obs
    assert np.array_equal(stacked[:25], initial)  # oldest frame first
    assert stacked[25 + 1] == 1.0  # newest frame last


def test_frame_stack_matches_raw_history():
    k = 3
    raw = make_grid()
    stacked = wrap(make_grid(), FrameStack(k=k))
    history = [raw.reset(seed=0)]
    assert np.array_equal(stacked.reset(seed=0), np.concatenate([history[0]] * k))
    for a in [3, 1, 3, 1, 2]:
        history.append(raw.step(a).obs)
        window = history[-k:]
        while len(window) < k:
            window = [history[0]] + window
        assert np.array_equal(stacked.step(a).obs, np.concatenate(window))


def test_frame_stack_expands_observation_space():
    env = wrap(make_grid(), FrameStack(k=4))
    assert env.observation_space.shape == (100,)
    assert env.observation_space.contains(env.reset(seed=0))


# ---------------------------------------------------------------------------
# ActionRemap / ReducedActionSet
# ---------------------------------------------------------------------------


def test_action_remap_permutes_actions():
    plain = make_grid()
    remapped = wrap(make_grid(), ActionRemap(((0, 1), (1, 0), (2, 2), (3, 3))))
    plain.reset(seed=0)
    remapped.reset(seed=0)
    # issuing 0 on the remapped env moves as inner action 1 (Down) would
    assert np.array_equal(remapped.step(0).obs, plain.step(1).obs)


def test_action_remap_shrinks_space():
    env = wrap(make_grid(), ActionRemap(((0, 2), (1, 3))))
    assert env.action_space.n == 2
    env.reset(seed=0)
    with pytest.raises(ActionOutOfSpace):
        env.step(2)


def test_action_remap_rejects_out_of_range_target():
    with pytest.raises(IncompatibleSpace):
        wrap(make_grid(), ActionRemap(((0, 4),)))


def test_action_remap_rejects_box_action_space():
    class VectorActions(GridWorld):
        def __init__(self):
            super().__init__(GridScene(5, 5))
            self.action_space = BoxSpace(low=np.zeros(1), high=np.ones(1), shape=(1,))

    with pytest.raises(IncompatibleSpace):
        wrap(VectorActions(), ActionRemap(((0, 0),)))


def test_reduced_action_set():
    env = wrap(make_grid(), ReducedActionSet((1, 3)))  # Down, Right only
    assert env.action_space.n == 2
    env.reset(seed=0)
    result = env.step(1)  # maps to inner 3 = Right
    assert result.obs[1] == 1.0


def test_reduced_action_set_rejects_bad_subset():
    with pytest.raises(IncompatibleSpace):
        wrap(make_grid(), ReducedActionSet((0, 9)))


# ---------------------------------------------------------------------------
# RewardClip / ObservationNormalize
# ---------------------------------------------------------------------------


def test_reward_clip_clamps():
    env = wrap(make_grid(goal=(1, 0), goal_reward=10.0), RewardClip(-1.0, 1.0))
    env.reset(seed=0)
    assert env.step(3).reward == 1.0


def test_reward_clip_leaves_in_range_rewards():
    env = wrap(make_grid(), RewardClip(-1.0, 1.0))
    env.reset(seed=0)
    assert env.step(3).reward == -0.01


def test_observation_normalize_running_stats():
    env = wrap(CartPole(CartPoleParams()), ObservationNormalize())
    obs = env.reset(seed=0)
    assert np.all(np.isfinite(obs))
    for _ in range(20):
        result = env.step(1)
        assert np.all(np.isfinite(result.obs))
        if result.done:
            break


def test_observation_normalize_deterministic():
    def run():
        env = wrap(CartPole(CartPoleParams()), ObservationNormalize())
        rows = [env.reset(seed=4)]
        for _ in range(10):
            result = env.step(0)
            rows.append(result.obs)
            if result.done:
                break
        return np.stack(rows)

    first, second = run(), run()
    assert len(first) > 1
    assert np.array_equal(first, second)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def test_wrap_all_outermost_last():
    env = wrap_all(make_grid(), [FrameStack(2), TimeLimit(3)])
    env.reset(seed=0)
    env.step(3)
    env.step(3)
    result = env.step(3)
    assert result.done and result.info["time_limit"] == "true"
    assert result.obs.shape == (50,)  # frame stack still applied underneath


def test_time_limit_reward_clip_commute_when_in_bounds():
    def rewards(specs):
        env = wrap_all(make_grid(), specs)
        env.reset(seed=0)
        out = []
        for a in [3, 1, 3, 1]:
            result = env.step(a)
            out.append(result.reward)
            if result.done:
                break
        return out

    a = rewards([TimeLimit(4), RewardClip(-1.0, 1.0)])
    b = rewards([RewardClip(-1.0, 1.0), TimeLimit(4)])
    assert a == b
