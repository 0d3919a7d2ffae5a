"""Lane-batched env steps: each class's step_lanes against its per-env step,
the cases that must take the per-env default, and checks before any lane moves."""

import numpy as np
import pytest

from streamrl import vec_env
from streamrl.benchmarks import RLExperience
from streamrl.core_env import (
    ActionOutOfSpace,
    ActionRemap,
    Environment,
    EpisodeAlreadyDone,
    FrameStack,
    ObservationNormalize,
    ReducedActionSet,
    RewardClip,
    TimeLimit,
    lane_stepper,
    wrap,
)
from streamrl.envs import Bandit, BanditParams, CartPole, CartPoleParams, GridScene, GridWorld
from streamrl.task_stream import TaskStreamEnv, build_task
from streamrl.training.base import EVAL_LANES
from streamrl.vec_env import ActorCrashed, VectorizedEnv

from test_envs import random_walled_scene
from test_training import eval_strategy, lane_eval, one_stream, tuple_lane_eval


def assert_lanes_equal_steps(lanes, twins, actions):
    """step_lanes on `lanes` and per-env step on their `twins` give the same
    row bytes, rewards and dones; returns the dones."""
    rows, rewards, dones = lane_stepper(lanes)(lanes, actions)
    results = [env.step(action) for env, action in zip(twins, actions)]
    want = np.array([r.obs for r in results])
    assert rows.dtype == want.dtype and rows.shape == want.shape
    assert rows.tobytes() == want.tobytes()
    assert rewards == [r.reward for r in results]
    assert [type(r) for r in rewards] == [type(r.reward) for r in results]
    assert dones == [r.done for r in results] and all(type(d) is bool for d in dones)
    return dones


# ---------------------------------------------------------------------------
# Bitwise oracles: the lane kernels against each lane's own step
# ---------------------------------------------------------------------------

CARTPOLE_LANE_PARAMS = [
    CartPoleParams(),
    CartPoleParams(max_steps=7),  # ends at max_steps
    CartPoleParams(x_threshold=0.06, theta_threshold=1.5),  # ends at |x| > x_threshold
    CartPoleParams(theta_threshold=0.06, x_threshold=10.0),  # ends at |theta| > theta_threshold
    CartPoleParams(pole_half_length=0.25, gravity=0.0, force_mag=3.0),
    CartPoleParams(pole_mass=0.4, cart_mass=2.5, dt=0.05),
]


def cartpole_end(env) -> str:
    x, _, theta, _ = env._state
    p = env.params
    return "x" if abs(x) > p.x_threshold else "theta" if abs(theta) > p.theta_threshold else "steps"


def test_cartpole_lanes_equal_per_env_steps_bitwise():
    rng = np.random.default_rng(11)
    lanes = [CartPole(p) for p in CARTPOLE_LANE_PARAMS * 2]
    twins = [CartPole(p) for p in CARTPOLE_LANE_PARAMS * 2]
    for i, (lane, twin) in enumerate(zip(lanes, twins)):
        assert lane.reset(seed=i).tobytes() == twin.reset(seed=i).tobytes()
    assert lane_stepper(lanes) == CartPole.step_lanes
    ends, episodes = set(), [0] * len(lanes)
    for step in range(600):
        kind = step % 3  # int, np.int64 and np.int8 actions
        draw = rng.integers(2, size=len(lanes))
        actions = [int(a) if kind == 0 else np.int64(a) if kind == 1 else np.int8(a) for a in draw]
        dones = assert_lanes_equal_steps(lanes, twins, actions)
        for i in np.flatnonzero(dones):
            assert lanes[i]._state == twins[i]._state
            ends.add(cartpole_end(lanes[i]))
            episodes[i] += 1
            seed = 1000 * step + int(i)
            assert lanes[i].reset(seed=seed).tobytes() == twins[i].reset(seed=seed).tobytes()
    assert ends == {"x", "theta", "steps"} and min(episodes) > 0


@pytest.mark.parametrize("seed", range(6))
def test_grid_lanes_equal_per_env_steps_bitwise(seed):
    rng = np.random.default_rng(200 + seed)
    scenes = [random_walled_scene(rng, 5, 4, wall_frac=0.25, max_steps=int(rng.integers(3, 40)))
              for _ in range(3)]
    lanes = [GridWorld(scenes[i % 3]) for i in range(7)]
    twins = [GridWorld(scenes[i % 3]) for i in range(7)]
    for lane, twin in zip(lanes, twins):
        assert lane.reset().tobytes() == twin.reset().tobytes()
    assert lane_stepper(lanes) == GridWorld.step_lanes
    goals = limits = 0
    for step in range(1500):
        draw = rng.integers(4, size=len(lanes))
        actions = [int(a) if step % 2 else np.int64(a) for a in draw]
        dones = assert_lanes_equal_steps(lanes, twins, actions)
        assert [env.position for env in lanes] == [env.position for env in twins]
        for i in np.flatnonzero(dones):
            goals += lanes[i].position == lanes[i].scene.goal
            limits += lanes[i].position != lanes[i].scene.goal
            assert lanes[i].reset().tobytes() == twins[i].reset().tobytes()
    assert goals > 0 and limits > 0


def test_grids_of_two_sizes_never_reach_a_lane_kernel():
    """step_lanes takes lanes of one observation shape. Its callers refuse a
    mixed-size lane set when they put its start rows into one array, before
    any lane steps: at reset, and when an eval lane takes its next episode."""
    small = GridScene(4, 4, goal=(3, 3))
    mixed = alternating_factory(lambda: GridWorld(small), lambda: GridWorld(GridScene(5, 5)))
    with VectorizedEnv(mixed, 2) as venv, pytest.raises(ValueError, match="same shape"):
        venv.reset()
    made = []

    def refills_on_a_small_grid():
        made.append(GridWorld(GridScene(5, 5, max_steps=3) if len(made) < EVAL_LANES else small))
        return made[-1]

    strat = eval_strategy("dqn", 25, 4)
    with pytest.raises(ValueError, match="could not broadcast"):
        strat.evaluate(one_stream(refills_on_a_small_grid), EVAL_LANES + 1)
    assert [env._steps for env in made] == [3] * EVAL_LANES + [0]


@pytest.mark.parametrize("order", [(5, 4), (4, 5), (5, 5, 4)])
def test_the_grid_kernel_refuses_lanes_of_two_sizes_before_any_lane_moves(order):
    """Called directly, GridWorld.step_lanes checks that every lane's grid has
    the first lane's cell count, whatever its scene object, before any lane moves."""
    lanes = [GridWorld(GridScene(side, side, goal=(side - 1, side - 1))) for side in order]
    for env in lanes:
        env.reset()
    assert lane_stepper(lanes) == GridWorld.step_lanes
    before = lane_states(lanes)
    with pytest.raises(ValueError, match=r"grid lanes of (25 and 16|16 and 25) cells"):
        GridWorld.step_lanes(lanes, [1] * len(lanes))
    assert lane_states(lanes) == before
    walled = random_walled_scene(np.random.default_rng(3), 5, 5)
    same_size = [GridWorld(GridScene(5, 5)), GridWorld(walled)]  # two scenes of 25 cells
    for env in same_size:
        env.reset()
    assert GridWorld.step_lanes(same_size, [1, 1])[0].shape == (2, 25)


# ---------------------------------------------------------------------------
# Lane sets that take the per-env default
# ---------------------------------------------------------------------------


def cartpole():
    return CartPole(CartPoleParams(max_steps=20))


class SubclassedCartPole(CartPole):
    """A cart-pole whose own step pays half the reward."""

    def step(self, action):
        result = super().step(action)
        result.reward = 0.5
        return result


DEFAULT_LANES = {
    "task-stream": lambda: TaskStreamEnv(GridScene(3, 3, goal=(2, 2)), build_task("reach_goal", "r")),
    "time_limit": lambda: wrap(cartpole(), TimeLimit(5)),
    "frame_stack": lambda: wrap(cartpole(), FrameStack(2)),
    "action_remap": lambda: wrap(GridWorld(GridScene(5, 5)), ActionRemap.from_dict({0: 3, 1: 0})),
    "reduced_action_set": lambda: wrap(GridWorld(GridScene(5, 5)), ReducedActionSet((1, 3))),
    "reward_clip": lambda: wrap(cartpole(), RewardClip(0.0, 0.5)),
    "obs_normalize": lambda: wrap(cartpole(), ObservationNormalize()),
    "bandit": lambda: Bandit(BanditParams(means=(0.0, 1.0), noise_std=0.5)),
    "subclass": SubclassedCartPole,
}


@pytest.mark.parametrize("name", list(DEFAULT_LANES))
def test_lanes_that_are_not_exactly_a_kernel_class_take_the_default(name):
    make = DEFAULT_LANES[name]
    lanes, twins = [make() for _ in range(4)], [make() for _ in range(4)]
    assert lane_stepper(lanes) == Environment.step_lanes
    rng = np.random.default_rng(5)
    for i, (lane, twin) in enumerate(zip(lanes, twins)):
        assert lane.reset(seed=i).tobytes() == twin.reset(seed=i).tobytes()
    for step in range(40):
        actions = rng.integers(lanes[0].action_space.n, size=4).tolist()
        for i in np.flatnonzero(assert_lanes_equal_steps(lanes, twins, actions)):
            assert lanes[i].reset(seed=step).tobytes() == twins[i].reset(seed=step).tobytes()


def test_a_mixed_lane_set_takes_the_default():
    assert lane_stepper([cartpole(), SubclassedCartPole()]) == Environment.step_lanes
    assert lane_stepper([cartpole(), wrap(cartpole(), TimeLimit(3))]) == Environment.step_lanes
    assert lane_stepper([cartpole(), cartpole()]) == CartPole.step_lanes


def test_a_patched_step_is_the_one_that_runs(monkeypatch):
    """The kernel stands in for the step its class was defined with, so a
    step patched in later (as the CLI's failure test does) runs per env."""
    calls = []
    original = GridWorld.step

    def counted(self, action):
        calls.append(action)
        return original(self, action)

    monkeypatch.setattr(GridWorld, "step", counted)
    lanes = [GridWorld(GridScene(5, 5)) for _ in range(3)]
    assert lane_stepper(lanes) == Environment.step_lanes
    with VectorizedEnv(lambda: GridWorld(GridScene(5, 5)), 3) as venv:
        venv.reset()
        venv.step([1, 2, 3])
    assert calls == [1, 2, 3]


def test_the_default_names_the_lane_that_raised():
    class Failing(GridWorld):
        def step(self, action):
            raise RuntimeError("sensor fault")

    lanes = [GridWorld(GridScene(5, 5)), Failing(GridScene(5, 5))]
    for env in lanes:
        env.reset()
    with pytest.raises(RuntimeError, match="sensor fault") as info:
        Environment.step_lanes(lanes, [1, 1])
    assert info.value.lane == 1


def alternating_factory(*makers):
    made = []

    def factory():
        made.append(None)
        return makers[len(made) % len(makers)]()

    return factory


def switching_factory(first, then, after):
    made = []

    def factory():
        made.append(None)
        return first() if len(made) <= after else then()

    return factory


EVAL_CASES = {  # name: (a fresh factory, obs_dim, n_actions)
    "cartpole-params": (lambda: alternating_factory(
        *(lambda p=p: CartPole(p) for p in CARTPOLE_LANE_PARAMS)), 4, 2),
    "cartpole-classes": (lambda: alternating_factory(cartpole, SubclassedCartPole, cartpole), 4, 2),
    "subclass-refills": (lambda: switching_factory(cartpole, SubclassedCartPole, EVAL_LANES), 4, 2),
    "walled-grid": (lambda: alternating_factory(*(lambda s=s: GridWorld(s) for s in [
        random_walled_scene(np.random.default_rng(9 + k), 5, 5, max_steps=15) for k in range(3)])),
        25, 4),
}


@pytest.mark.parametrize("n_episodes", [1, 31, 32, 33, EVAL_LANES + 1])
@pytest.mark.parametrize("case", list(EVAL_CASES))
def test_lane_eval_equals_the_tuple_lane_loop(case, n_episodes):
    """Lanes whose refills change the lane set: cart-poles on alternating
    parameters (one kernel), alternating classes (the default), kernel lanes
    refilled with a subclass whose step differs (picked again on refill), and
    walled grids on alternating scenes of one size."""
    make_factory, obs_dim, n_actions = EVAL_CASES[case]

    def stream():  # a fresh factory each time: its env sequence restarts
        return [RLExperience(env_factory=make_factory(), task_label=0, n_envs=1)]

    strat = eval_strategy("a2c", obs_dim, n_actions)
    got = lane_eval(strat, stream(), n_episodes)
    assert got == tuple_lane_eval(strat, stream(), n_episodes)
    assert len(got[0]) == n_episodes


# ---------------------------------------------------------------------------
# Every check before any lane moves
# ---------------------------------------------------------------------------


def lane_states(envs):
    return [(env._state if isinstance(env, CartPole) else env.position, env._steps) for env in envs]


@pytest.mark.parametrize("make", [cartpole, lambda: GridWorld(GridScene(5, 5))])
def test_a_finished_lane_in_the_middle_leaves_every_lane_unmoved(make):
    lanes = [make() for _ in range(3)]
    for env in lanes:
        env.reset(seed=1)
    lanes[1]._done = True
    before = lane_states(lanes)
    with pytest.raises(EpisodeAlreadyDone, match="after done=True"):
        lane_stepper(lanes)(lanes, [1, 1, 1])
    assert lane_states(lanes) == before
    fresh = [make(), make()]  # the second lane was never reset
    fresh[0].reset(seed=1)
    before = lane_states(fresh)
    with pytest.raises(EpisodeAlreadyDone, match="before reset"):
        lane_stepper(fresh)(fresh, [1, 1])
    assert lane_states(fresh) == before


@pytest.mark.parametrize("make", [cartpole, lambda: GridWorld(GridScene(5, 5))])
def test_a_bad_action_leaves_every_actor_unmoved(make):
    venv = VectorizedEnv(make, 3, base_seed=0)
    venv.reset()
    before = lane_states(venv.envs)
    with pytest.raises(ActionOutOfSpace, match="^actor 2: action 7 not in"):
        venv.step([1, 0, 7])
    with pytest.raises(ActionOutOfSpace, match="^actor 1: action -1 not in"):
        venv.step(np.array([1, -1, 0]))
    with pytest.raises(ActionOutOfSpace, match="^actor 0: action True not in"):
        venv.step([True, False, 0])  # a bool is no action
    assert lane_states(venv.envs) == before


@pytest.mark.parametrize("case", ["cartpole", "gridworld"])
def test_a_bad_greedy_action_leaves_every_lane_unmoved(case, monkeypatch):
    made = []

    def factory():
        made.append(cartpole() if case == "cartpole" else GridWorld(GridScene(5, 5)))
        return made[-1]

    strat = eval_strategy("dqn", 4 if case == "cartpole" else 25, 2 if case == "cartpole" else 4)
    monkeypatch.setattr(strat, "greedy_action", lambda obs: np.r_[np.zeros(len(obs) - 2, int), 9, 0])
    with pytest.raises(ActionOutOfSpace, match="^eval experience 0, episode 3: action 9 not in"):
        strat.evaluate(one_stream(factory), 5)
    assert [env._steps for env in made] == [0] * 5


# ---------------------------------------------------------------------------
# Worker shards name the actor an error came from
# ---------------------------------------------------------------------------


class GridFailingOnReset(GridWorld):
    def __init__(self, bad_seed):
        super().__init__(GridScene(5, 5))
        self.bad_seed = bad_seed

    def reset(self, seed=None):
        if seed == self.bad_seed:
            raise RuntimeError("no start")
        return super().reset(seed)


def test_a_reset_error_in_a_worker_names_its_actor(monkeypatch):
    monkeypatch.setattr(vec_env.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with VectorizedEnv(lambda: GridFailingOnReset(3), 5, mode="parallel") as venv:
        with pytest.raises(ActorCrashed, match="^actor 3: RuntimeError: no start"):
            venv.reset()
