"""Actor pool: seeding schedule, auto-reset, serial/parallel equivalence."""

import numpy as np
import pytest

from streamrl.core_env import ActionOutOfSpace, TimeLimit, deserialize_obs, wrap
from streamrl.envs import CartPole, CartPoleParams, GridScene, GridWorld
from streamrl.vec_env import EPISODE_SEED_STRIDE, ActorCrashed, VectorizedEnv


def grid_factory():
    return GridWorld(GridScene(5, 5))


def cartpole_factory():
    return CartPole(CartPoleParams())


def limited_grid_factory():
    return wrap(GridWorld(GridScene(5, 5)), TimeLimit(max_steps=2))


def test_single_actor_matches_plain_env():
    venv = VectorizedEnv(cartpole_factory, 1, base_seed=3)
    plain = cartpole_factory()
    assert np.array_equal(venv.reset(), plain.reset(seed=3)[None, :])
    obs, rewards, dones, infos = venv.step([1])
    result = plain.step(1)
    assert np.array_equal(obs[0], result.obs)
    assert rewards[0] == result.reward
    assert dones[0] == result.done


def test_grid_rows_identical_fixed_start():
    venv = VectorizedEnv(grid_factory, 3, base_seed=0)
    batch = venv.reset()
    assert batch.shape == (3, 25)
    assert np.array_equal(batch[0], batch[1])
    assert np.array_equal(batch[1], batch[2])


def test_cartpole_rows_match_serial_seeds():
    venv = VectorizedEnv(cartpole_factory, 2, base_seed=5)
    batch = venv.reset()
    for i, seed in enumerate([5, 6]):
        env = cartpole_factory()
        assert np.array_equal(batch[i], env.reset(seed=seed))


def test_auto_reset_returns_next_episode_obs():
    venv = VectorizedEnv(limited_grid_factory, 1, base_seed=0)
    start = venv.reset()[0]
    venv.step([3])  # (1,0)
    obs, rewards, dones, infos = venv.step([3])  # time limit hit at (2,0)
    assert dones[0]
    assert np.array_equal(obs[0], start)  # fresh reset obs, not terminal obs
    terminal = deserialize_obs(infos[0]["terminal_obs"])
    assert terminal[2] == 1.0  # episode actually ended at cell (2,0)


def test_reseed_schedule_per_episode():
    # cart-pole resets are seed-sensitive, so the pinned formula is observable
    venv = VectorizedEnv(cartpole_factory, 2, base_seed=9)
    venv.reset()
    # drive both actors until each finishes an episode at least once
    first_next = [None, None]
    for _ in range(600):
        obs, _, dones, _ = venv.step([0, 0])
        for i in range(2):
            if dones[i] and first_next[i] is None:
                first_next[i] = obs[i].copy()
        if all(o is not None for o in first_next):
            break
    assert all(o is not None for o in first_next)
    for i in range(2):
        oracle = cartpole_factory()
        expected = oracle.reset(seed=9 + i + EPISODE_SEED_STRIDE * 1)
        assert np.array_equal(first_next[i], expected)


def run_trajectory(mode, factory, n, base_seed, action_plan):
    venv = VectorizedEnv(factory, n, base_seed=base_seed, mode=mode)
    rows = [venv.reset()]
    rewards, dones = [], []
    for actions in action_plan:
        obs, r, d, _ = venv.step(actions)
        rows.append(obs)
        rewards.append(r)
        dones.append(d)
    venv.close()
    return np.stack(rows), np.stack(rewards), np.stack(dones)


def test_four_actors_equal_serial_oracle():
    n, base_seed = 4, 2
    rng = np.random.default_rng(0)
    plan = [list(rng.integers(0, 2, size=n)) for _ in range(120)]
    obs, rewards, dones = run_trajectory("serial", cartpole_factory, n, base_seed, plan)

    # oracle: one plain env per actor, replicating the auto-reset reseed rule
    for i in range(n):
        env = cartpole_factory()
        cur = env.reset(seed=base_seed + i)
        episode = 0
        assert np.array_equal(obs[0, i], cur)
        for t, actions in enumerate(plan):
            result = env.step(actions[i])
            assert rewards[t, i] == result.reward
            assert dones[t, i] == result.done
            if result.done:
                episode += 1
                cur = env.reset(seed=base_seed + i + EPISODE_SEED_STRIDE * episode)
            else:
                cur = result.obs
            assert np.array_equal(obs[t + 1, i], cur)


@pytest.mark.parametrize("factory", [grid_factory, cartpole_factory])
def test_parallel_serial_bit_equivalence(factory):
    n, base_seed = 4, 1
    rng = np.random.default_rng(5)
    n_actions = factory().action_space.n
    plan = [list(rng.integers(0, n_actions, size=n)) for _ in range(200)]
    serial = run_trajectory("serial", factory, n, base_seed, plan)
    parallel = run_trajectory("parallel", factory, n, base_seed, plan)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


def test_action_validation_names_actor():
    venv = VectorizedEnv(grid_factory, 2, base_seed=0)
    venv.reset()
    with pytest.raises(ActionOutOfSpace, match="actor 1"):
        venv.step([0, 9])


class GridFailingOnSeed1(GridWorld):
    """A grid whose step raises in the replica reset with seed 1."""

    def reset(self, seed=None):
        self.seed = seed
        return super().reset(seed)

    def step(self, action):
        if self.seed == 1:
            raise RuntimeError("sensor fault")
        return super().step(action)


def test_parallel_worker_error_names_its_actor():
    venv = VectorizedEnv(lambda: GridFailingOnSeed1(GridScene(5, 5)), 3, base_seed=0,
                         mode="parallel")
    try:
        venv.reset()
        with pytest.raises(ActorCrashed, match="actor 1: RuntimeError: sensor fault"):
            venv.step([0, 0, 0])
    finally:
        venv.close()
    assert not any(proc.is_alive() for proc in venv._procs)


def test_action_count_must_match():
    venv = VectorizedEnv(grid_factory, 2, base_seed=0)
    venv.reset()
    with pytest.raises(ValueError):
        venv.step([0])


def test_actors_do_not_share_state():
    venv = VectorizedEnv(grid_factory, 2, base_seed=0)
    venv.reset()
    # actor 0 walks right, actor 1 stays pinned against the left wall
    for _ in range(3):
        obs, _, _, _ = venv.step([3, 2])
    assert obs[0][3] == 1.0  # (3,0)
    assert obs[1][0] == 1.0  # still (0,0)


def test_rejects_bad_configuration():
    with pytest.raises(ValueError):
        VectorizedEnv(grid_factory, 0)
    with pytest.raises(ValueError):
        VectorizedEnv(grid_factory, 1, mode="threads")


def test_context_manager_closes():
    with VectorizedEnv(grid_factory, 2, base_seed=0, mode="parallel") as venv:
        venv.reset()
        obs, _, _, _ = venv.step([0, 0])
        assert obs.shape == (2, 25)
