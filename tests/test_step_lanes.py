"""Lane sets: each class's step_lanes and the cart-pole columns against the
per-env step, the cases that must take the per-env default, and checks before
any lane moves."""

import numpy as np
import pytest

from streamrl import core_env, vec_env
from streamrl.benchmarks import RLExperience
from streamrl.core_env import (
    ActionOutOfSpace,
    ActionRemap,
    COLUMN_LANES,
    Environment,
    EpisodeAlreadyDone,
    FrameStack,
    LaneSet,
    ObservationNormalize,
    ReducedActionSet,
    RewardClip,
    TimeLimit,
    wrap,
)
from streamrl.envs import Bandit, BanditParams, CartPole, CartPoleParams, GridScene, GridWorld
from streamrl.task_stream import TaskStreamEnv, build_task
from streamrl.training.base import EVAL_LANES
from streamrl.vec_env import ActorCrashed, VectorizedEnv

from test_envs import random_walled_scene
from test_training import eval_strategy, lane_eval, one_stream, tuple_lane_eval


def path_of(lanes: LaneSet) -> str:
    """How a lane set steps: "columns", a class's own step_lanes, or "default"."""
    if lanes._columns is not None:
        return "columns"
    kernel = lanes._step_lanes
    return "default" if kernel == Environment.step_lanes else kernel.__self__.__name__


def assert_lanes_equal_steps(lanes, twins, actions):
    """A lane set's step and per-env step on its lanes' `twins` give the same
    row bytes, rewards and dones; returns the dones."""
    rows, rewards, dones = lanes.step(actions)
    results = [env.step(action) for env, action in zip(twins, actions)]
    want = np.array([r.obs for r in results])
    assert rows.dtype == want.dtype and rows.shape == want.shape
    assert rows.tobytes() == want.tobytes()
    assert list(rewards) == [r.reward for r in results] and list(dones) == [r.done for r in results]
    if lanes._columns is None:  # a class's step_lanes returns what its step does
        assert [type(r) for r in rewards] == [type(r.reward) for r in results]
        assert [type(d) for d in dones] == [type(r.done) for r in results]
    else:
        assert rewards.dtype == np.float64 and dones.dtype == bool
    return np.array(dones)


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


@pytest.mark.parametrize("copies", [2, 6])  # 12 lanes on the per-lane loop, 36 as columns
def test_cartpole_lanes_equal_per_env_steps_bitwise(copies):
    rng = np.random.default_rng(11)
    envs = [CartPole(p) for p in CARTPOLE_LANE_PARAMS * copies]
    twins = [CartPole(p) for p in CARTPOLE_LANE_PARAMS * copies]
    lanes = LaneSet(envs)
    assert path_of(lanes) == ("CartPole" if len(envs) < COLUMN_LANES else "columns")
    for i, (env, twin) in enumerate(zip(envs, twins)):
        assert lanes.start(i, env, i).tobytes() == twin.reset(seed=i).tobytes()
    ends, episodes = set(), [0] * len(envs)
    for step in range(600):
        kind = step % 4  # int, np.int64 and np.int8 actions, and an int8 array
        draw = rng.integers(2, size=len(envs))
        actions = draw.astype(np.int8) if kind == 3 else [
            int(a) if kind == 0 else np.int64(a) if kind == 1 else np.int8(a) for a in draw]
        dones = assert_lanes_equal_steps(lanes, twins, actions)
        for i in np.flatnonzero(dones).tolist():
            ends.add(cartpole_end(twins[i]))
            episodes[i] += 1
            seed = 1000 * step + i
            assert lanes.start(i, envs[i], seed).tobytes() == twins[i].reset(seed=seed).tobytes()
    lanes.drop(range(len(envs)))  # every lane's state back to its env
    assert [env._state for env in envs] == [env._state for env in twins]
    assert ends == {"x", "theta", "steps"} and min(episodes) > 0


@pytest.mark.parametrize("seed", range(6))
def test_grid_lanes_equal_per_env_steps_bitwise(seed):
    rng = np.random.default_rng(200 + seed)
    scenes = [random_walled_scene(rng, 5, 4, wall_frac=0.25, max_steps=int(rng.integers(3, 40)))
              for _ in range(3)]
    envs = [GridWorld(scenes[i % 3]) for i in range(7)]
    twins = [GridWorld(scenes[i % 3]) for i in range(7)]
    lanes = LaneSet(envs)
    assert path_of(lanes) == "GridWorld"
    for i, (env, twin) in enumerate(zip(envs, twins)):
        assert lanes.start(i, env, None).tobytes() == twin.reset().tobytes()
    goals = limits = 0
    for step in range(1500):
        draw = rng.integers(4, size=len(envs))
        actions = [int(a) if step % 2 else np.int64(a) for a in draw]
        dones = assert_lanes_equal_steps(lanes, twins, actions)
        assert [env.position for env in envs] == [env.position for env in twins]
        for i in np.flatnonzero(dones).tolist():
            goals += envs[i].position == envs[i].scene.goal
            limits += envs[i].position != envs[i].scene.goal
            assert lanes.start(i, envs[i], None).tobytes() == twins[i].reset().tobytes()
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
    assert path_of(LaneSet(lanes)) == "GridWorld"
    before = lane_states(lanes)
    with pytest.raises(ValueError, match=r"grid lanes of (25 and 16|16 and 25) cells"):
        GridWorld.step_lanes(lanes, [1] * len(lanes))
    assert lane_states(lanes) == before
    walled = random_walled_scene(np.random.default_rng(3), 5, 5)
    same_size = [GridWorld(GridScene(5, 5)), GridWorld(walled)]  # two scenes of 25 cells
    for env in same_size:
        env.reset()
    assert GridWorld.step_lanes(same_size, [1, 1])[0].shape == (2, 25)


class LoopLanes:
    """The oracle of a cart-pole lane set: its envs stepped by the per-lane
    loop (CartPole.step_lanes, or each env's step for a mixed set)."""

    def __init__(self, envs):
        self.envs = list(envs)

    def start(self, lane, env, seed):
        self.envs[lane] = env
        return env.reset(seed=seed)

    def step(self, actions):
        exact = all(type(env) is CartPole for env in self.envs)
        obs, rewards, dones = (CartPole if exact else Environment).step_lanes(self.envs, actions)
        return obs, rewards, dones

    def drop(self, lanes):
        self.envs = [env for lane, env in enumerate(self.envs) if lane not in set(lanes)]


def env_state(env):
    return np.array(env._state).tobytes(), env._steps, env._done


def random_cartpole(rng, subclass=0.0):
    """A cart-pole on one of the lane params or on drawn ones; a subclass with
    probability `subclass`."""
    if rng.random() < 0.5:
        params = CARTPOLE_LANE_PARAMS[rng.integers(len(CARTPOLE_LANE_PARAMS))]
    else:
        params = CartPoleParams(max_steps=int(rng.integers(1, 60)), force_mag=float(rng.uniform(1, 20)),
                                pole_half_length=float(rng.uniform(0.2, 1.0)), dt=float(rng.uniform(0.01, 0.05)))
    return (SubclassedCartPole if rng.random() < subclass else CartPole)(params)


def twin_of(env):
    return type(env)(env.params)


@pytest.mark.parametrize("column_lanes", [1, COLUMN_LANES])
@pytest.mark.parametrize("seed", range(6))
def test_random_start_step_drop_replace_give_the_loops_bits(seed, column_lanes, monkeypatch):
    """Random widths (1-96), mixed params, restarts, replacements (now and then
    of another class) and drops: the lane set gives the per-lane loop's obs,
    rewards and dones, and every env it drops or replaces, and every env at the
    end, holds the loop's state. column_lanes 1 keeps every width in columns;
    at COLUMN_LANES the set crosses between columns and the loop as it shrinks."""
    monkeypatch.setattr(core_env, "COLUMN_LANES", column_lanes)
    rng = np.random.default_rng(300 + seed)
    width = int(rng.integers(column_lanes, 97))
    envs = [random_cartpole(rng) for _ in range(width)]
    twins = [twin_of(env) for env in envs]
    lanes, loop, seen = LaneSet(envs), LoopLanes(twins), set()
    for lane in range(width):
        assert lanes.start(lane, envs[lane], lane).tobytes() == loop.start(lane, twins[lane], lane).tobytes()
    for step in range(250):
        if not lanes.envs:
            break
        seen.add(path_of(lanes))
        actions = rng.integers(2, size=len(lanes.envs))
        rows, rewards, dones = lanes.step(actions if step % 2 else actions.tolist())
        want_rows, want_rewards, want_dones = loop.step(actions.tolist())
        assert rows.tobytes() == want_rows.tobytes()
        assert list(rewards) == want_rewards and list(dones) == want_dones
        dones = np.array(dones)
        restart = np.flatnonzero(dones).tolist()
        live = np.flatnonzero(~dones).tolist()
        replace = [lane for lane in live if rng.random() < 0.02]  # mid-episode
        gone = [lane for lane in restart if rng.random() < 0.3] + [lane for lane in live if rng.random() < 0.01]
        for lane in sorted(set(restart + replace) - set(gone)):
            old, old_twin = lanes.envs[lane], loop.envs[lane]
            env = old if lane in restart and rng.random() < 0.5 else random_cartpole(rng, 0.05)
            twin = old_twin if env is old else twin_of(env)
            seed_k = int(rng.integers(10**6))
            assert lanes.start(lane, env, seed_k).tobytes() == loop.start(lane, twin, seed_k).tobytes()
            assert env_state(old) == env_state(old_twin)  # written back when replaced
        dropped = [(lanes.envs[lane], loop.envs[lane]) for lane in gone]
        lanes.drop(gone)
        loop.drop(gone)
        assert [env_state(env) for env, _ in dropped] == [env_state(twin) for _, twin in dropped]
    ends = list(zip(lanes.envs, loop.envs))
    lanes.drop(range(len(lanes.envs)))
    assert [env_state(env) for env, _ in ends] == [env_state(twin) for _, twin in ends]
    assert seen == {"columns", "default"} | ({"CartPole"} if column_lanes > 1 else set())


def test_a_wide_vectorized_cartpole_gives_the_loops_rows(monkeypatch):
    """A serial VectorizedEnv of COLUMN_LANES or more cart-poles keeps them in
    columns and gives the rows, auto-resets included, of the per-lane loop."""
    def factory():
        made.append(None)
        return CartPole(CARTPOLE_LANE_PARAMS[len(made) % len(CARTPOLE_LANE_PARAMS)])

    made = []
    wide = VectorizedEnv(factory, 40, base_seed=5)
    monkeypatch.setattr(core_env, "COLUMN_LANES", 10**9)
    made = []
    narrow = VectorizedEnv(factory, 40, base_seed=5)
    assert (path_of(wide._lanes), path_of(narrow._lanes)) == ("columns", "CartPole")
    assert wide.reset().tobytes() == narrow.reset().tobytes()
    rng, finished = np.random.default_rng(8), 0
    for _ in range(300):
        actions = rng.integers(2, size=40)
        got, want = wide.step(actions), narrow.step(actions)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        finished += int(got[2].sum())
    assert finished > 40


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
    envs, twins = [make() for _ in range(4)], [make() for _ in range(4)]
    lanes = LaneSet(envs)
    assert path_of(lanes) == "default"
    rng = np.random.default_rng(5)
    for i, (env, twin) in enumerate(zip(envs, twins)):
        assert lanes.start(i, env, i).tobytes() == twin.reset(seed=i).tobytes()
    for step in range(40):
        actions = rng.integers(envs[0].action_space.n, size=4).tolist()
        for i in np.flatnonzero(assert_lanes_equal_steps(lanes, twins, actions)).tolist():
            assert lanes.start(i, envs[i], step).tobytes() == twins[i].reset(seed=step).tobytes()


def test_a_mixed_lane_set_takes_the_default():
    assert path_of(LaneSet([cartpole(), SubclassedCartPole()])) == "default"
    assert path_of(LaneSet([cartpole(), wrap(cartpole(), TimeLimit(3))])) == "default"
    assert path_of(LaneSet([cartpole(), cartpole()])) == "CartPole"


@pytest.mark.parametrize("width", [1, 4, COLUMN_LANES, 96])
@pytest.mark.parametrize("make", [SubclassedCartPole, lambda: wrap(cartpole(), TimeLimit(50)), "patched"])
def test_a_cartpole_that_is_not_exactly_the_kernel_class_steps_per_lane_at_every_width(
        make, width, monkeypatch):
    """Traced runs patch CartPole.step: whatever the width, the patched (or
    subclassed, or wrapped) step is the one that runs, on every lane."""
    calls, patched = [], make == "patched"
    if patched:
        original = CartPole.step
        monkeypatch.setattr(CartPole, "step", lambda self, a: calls.append(a) or original(self, a))
        make = cartpole
    envs, twins = [make() for _ in range(width)], [make() for _ in range(width)]
    lanes = LaneSet(envs)
    assert path_of(lanes) == "default"
    for i, (env, twin) in enumerate(zip(envs, twins)):
        assert lanes.start(i, env, i).tobytes() == twin.reset(seed=i).tobytes()
    actions = np.arange(width) % 2
    assert_lanes_equal_steps(lanes, twins, actions)
    assert calls == (actions.tolist() * 2 if patched else [])


def test_a_patched_step_is_the_one_that_runs(monkeypatch):
    """The kernel stands in for the step its class was defined with, so a
    step patched in later (as the CLI's failure test does) runs per env."""
    calls = []
    original = GridWorld.step

    def counted(self, action):
        calls.append(action)
        return original(self, action)

    monkeypatch.setattr(GridWorld, "step", counted)
    assert path_of(LaneSet([GridWorld(GridScene(5, 5)) for _ in range(3)])) == "default"
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


@pytest.mark.parametrize("width", [3, COLUMN_LANES])
@pytest.mark.parametrize("make", [cartpole, lambda: GridWorld(GridScene(5, 5))])
def test_a_finished_lane_in_the_middle_leaves_every_lane_unmoved(make, width):
    envs = [make() for _ in range(width)]
    for env in envs:
        env.reset(seed=1)
    envs[1]._done = True
    before = lane_states(envs)
    lanes = LaneSet(envs)
    with pytest.raises(EpisodeAlreadyDone, match="after done=True"):
        lanes.step([1] * width)
    lanes.drop(range(width))  # a column set writes every lane back
    assert lane_states(envs) == before
    fresh = [make() for _ in range(width)]  # the second lane was never reset
    for env in fresh[:1] + fresh[2:]:
        env.reset(seed=1)
    before = lane_states(fresh)
    lanes = LaneSet(fresh)
    with pytest.raises(EpisodeAlreadyDone, match="before reset"):
        lanes.step([1] * width)
    lanes.drop(range(width))
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
