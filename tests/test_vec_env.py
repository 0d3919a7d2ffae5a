"""Actor pool: seeding schedule, auto-reset, serial/parallel equivalence."""

import os
import signal

import numpy as np
import pytest

from streamrl import vec_env
from streamrl.core_env import ActionOutOfSpace, TimeLimit, wrap
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
    obs, rewards, dones, final_obs = venv.step([3])  # time limit hit at (2,0)
    assert dones[0]
    assert np.array_equal(obs[0], start)  # fresh reset obs, not terminal obs
    terminal = final_obs[0]
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


class GridFailingOnSeed(GridWorld):
    """A grid whose step raises, or with exit=True ends its process without a
    word, in the replica reset with seed bad_seed."""

    def __init__(self, bad_seed, exit=False):
        super().__init__(GridScene(5, 5))
        self.bad_seed, self.exit = bad_seed, exit

    def reset(self, seed=None):
        self.seed = seed
        return super().reset(seed)

    def step(self, action):
        if self.seed == self.bad_seed:
            if self.exit:
                os._exit(1)
            raise RuntimeError("sensor fault")
        return super().step(action)


def test_parallel_worker_error_names_its_actor():
    venv = VectorizedEnv(lambda: GridFailingOnSeed(1), 3, base_seed=0, mode="parallel")
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


# ---------------------------------------------------------------------------
# The array boundary: final_obs, copies, and checks before any actor steps
# ---------------------------------------------------------------------------


def test_final_obs_holds_terminal_rows_and_equals_obs_elsewhere():
    venv = VectorizedEnv(limited_grid_factory, 2, base_seed=0)
    start = venv.reset()
    obs, _, dones, final_obs = venv.step([3, 1])  # (1,0) and (0,1)
    assert not dones.any()
    assert np.array_equal(final_obs, obs) and final_obs is not obs
    obs, _, dones, final_obs = venv.step([3, 1])  # time limit at (2,0) and (0,2)
    assert dones.all()
    assert np.array_equal(obs, start)
    assert np.flatnonzero(final_obs[0]).tolist() == [2]
    assert np.flatnonzero(final_obs[1]).tolist() == [10]


def old_actor_step(env, base_seed, lane, episodes, action):
    """The per-actor step VectorizedEnv ran before lane-batched steps:
    (obs, reward, done, final_obs), auto-resetting a finished actor;
    episodes[lane] is the episode index of actor `lane`."""
    result = env.step(action)
    obs = final = result.obs
    if result.done:
        final = np.array(final)
        episodes[lane] += 1
        obs = env.reset(seed=base_seed + lane + EPISODE_SEED_STRIDE * episodes[lane])
    return obs, result.reward, result.done, final


def old_vec_step(venv, actions, episodes):
    """Serial VectorizedEnv.step as it was before final_obs became a copy of
    obs when no actor is done: a second np.array over the same rows."""
    actions = actions.tolist() if isinstance(actions, np.ndarray) else actions
    results = [old_actor_step(env, venv.base_seed, lane, episodes, a)
               for lane, (env, a) in enumerate(zip(venv.envs, actions))]
    obs, rewards, dones, final_obs = zip(*results)
    rewards, dones = np.array(rewards, dtype=np.float64), np.array(dones, dtype=bool)
    return np.array(obs), rewards, dones, np.array(final_obs)


@pytest.mark.parametrize("factory", [limited_grid_factory, cartpole_factory])
@pytest.mark.parametrize("n", [1, 4])
def test_step_rows_equal_the_old_assembly_bitwise(factory, n):
    rng = np.random.default_rng(n)
    plan = rng.integers(0, factory().action_space.n, size=(300, n))
    new, old = VectorizedEnv(factory, n, base_seed=3), VectorizedEnv(factory, n, base_seed=3)
    assert new.reset().tobytes() == old.reset().tobytes()
    done_steps, episodes = 0, [0] * n
    for actions in plan:
        got, want = new.step(actions), old_vec_step(old, actions, episodes)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        done_steps += bool(got[2].any())
    assert 0 < done_steps < len(plan)


@pytest.mark.parametrize("factory", [limited_grid_factory, cartpole_factory])
def test_final_obs_and_obs_are_distinct_arrays(factory):
    venv = VectorizedEnv(factory, 2, base_seed=0)
    venv.reset()
    seen = set()
    for _ in range(60):
        obs, _, dones, final_obs = venv.step([1, 1])
        assert not np.shares_memory(obs, final_obs)
        kept = obs.copy()
        final_obs += 1.0  # writing into final_obs leaves obs as it was
        assert obs.tobytes() == kept.tobytes()
        seen.add(bool(dones.any()))
    assert seen == {False, True}


class CountingGrid(GridWorld):
    def __init__(self):
        super().__init__(GridScene(5, 5))
        self.steps = 0

    def step(self, action):
        self.steps += 1
        return super().step(action)


def test_out_of_range_action_names_actor_before_any_actor_steps():
    venv = VectorizedEnv(CountingGrid, 3, base_seed=0)
    venv.reset()
    with pytest.raises(ActionOutOfSpace, match="actor 2"):
        venv.step(np.array([0, 1, 4]))
    with pytest.raises(ActionOutOfSpace, match="actor 1"):
        venv.step([0, -1, 0])
    assert [env.steps for env in venv.envs] == [0, 0, 0]


@pytest.mark.parametrize("factory", [limited_grid_factory, cartpole_factory])
def test_parallel_serial_final_obs_equal(factory):
    n, base_seed = 3, 4
    rng = np.random.default_rng(6)
    plan = rng.integers(0, factory().action_space.n, size=(150, n))
    runs = {}
    for mode in ("serial", "parallel"):
        with VectorizedEnv(factory, n, base_seed=base_seed, mode=mode) as venv:
            venv.reset()
            runs[mode] = [venv.step(actions) for actions in plan]
    assert any(step[2].any() for step in runs["serial"])
    for serial, parallel in zip(runs["serial"], runs["parallel"]):
        for a, b in zip(serial, parallel):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Shards: one worker per usable CPU, and one env instance per replica
# ---------------------------------------------------------------------------


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.mark.parametrize("factory", [limited_grid_factory, cartpole_factory])
def test_five_actors_over_two_workers_equal_serial(two_cpus, factory):
    plan = np.random.default_rng(8).integers(0, factory().action_space.n, size=(150, 5))
    runs = {}
    for mode in ("serial", "parallel"):
        with VectorizedEnv(factory, 5, base_seed=2, mode=mode) as venv:
            runs[mode] = [(venv.reset(),)] + [venv.step(actions) for actions in plan]
    assert len(venv._procs) == 2
    assert any(step[2].any() for step in runs["serial"][1:])
    for serial, parallel in zip(runs["serial"], runs["parallel"]):
        for a, b in zip(serial, parallel):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_error_in_second_worker_names_its_global_actor(two_cpus):
    with VectorizedEnv(lambda: GridFailingOnSeed(3), 5, mode="parallel") as venv:
        venv.reset()
        with pytest.raises(ActorCrashed, match="^actor 3: RuntimeError: sensor fault"):
            venv.step([0] * 5)


def test_worker_that_exits_without_replying_is_named(two_cpus):
    with VectorizedEnv(lambda: GridFailingOnSeed(3, exit=True), 5, mode="parallel") as venv:
        venv.reset()
        with pytest.raises(ActorCrashed, match="^actors 2..4: worker exited with code 1$"):
            venv.step([0] * 5)


def test_worker_killed_between_steps_is_named(two_cpus):
    with VectorizedEnv(grid_factory, 5, mode="parallel") as venv:
        venv.reset()
        os.kill(venv._procs[1].pid, signal.SIGKILL)
        venv._procs[1].join()
        killed = f"^actors 2..4: worker exited with code {-signal.SIGKILL}$"
        with pytest.raises(ActorCrashed, match=killed):
            venv.step([0] * 5)


def test_factory_returning_one_instance_is_refused_for_two_replicas(monkeypatch):
    shared = grid_factory()
    with VectorizedEnv(lambda: shared, 1) as venv:  # one in-process actor may share
        assert venv.envs[0] is shared
    monkeypatch.setattr(vec_env.mp, "get_context", None)  # no worker may start
    for n, mode in [(2, "serial"), (1, "parallel"), (3, "parallel")]:
        with pytest.raises(ValueError, match="new env for every replica"):
            VectorizedEnv(lambda: shared, n, mode=mode)
