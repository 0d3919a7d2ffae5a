"""Built-in environments: cart-pole physics, gridworld scenes, bandit."""

import math

import numpy as np
import pytest

from streamrl.core_env import ActionOutOfSpace, Discrete, StepResult
from streamrl.envs import (
    GRID_MOVES,
    Bandit,
    BanditParams,
    CartPole,
    CartPoleParams,
    GridScene,
    GridWorld,
    InvalidParams,
    SceneFormatError,
    cartpole_derivatives,
    one_hot_cell,
    parse_scene,
)

# ---------------------------------------------------------------------------
# Cart-pole dynamics. Oracle values hand-evaluated from the standard
# equations with defaults (g=9.8, m_c=1.0, m_p=0.1, l=0.5, F=10, dt=0.02):
#
#   temp = (F + m_p l thdot^2 sin th) / (m_c + m_p)        = 10/1.1
#   thacc = (g sin th - cos th * temp)
#           / (l (4/3 - m_p cos^2 th / (m_c + m_p)))       = -600/41
#   xacc  = temp - m_p l thacc cos th / (m_c + m_p)        =  400/41
#
# followed by one explicit-Euler step (all four components use pre-update
# derivatives).
# ---------------------------------------------------------------------------

THACC_ORACLE = -600.0 / 41.0  # = -14.634146341463415
XACC_ORACLE = 400.0 / 41.0  # = 9.75609756097561


class OldCartPole(CartPole):
    """CartPole as it was before it kept its state as Python floats: an
    ndarray state, turned into floats and back on every step, and copied
    into every observation."""

    def reset(self, seed=None):
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        self._state = self._rng.uniform(-0.05, 0.05, size=4)
        self._steps, self._done, self._started = 0, False, True
        return self._state.copy()

    def set_state(self, state):
        self._state = np.asarray(state, dtype=np.float64).copy()
        self._steps, self._done, self._started = 0, False, True
        return self._state.copy()

    def step(self, action):
        self._require_active()
        self._check_action(action)
        p = self.params
        state = self._state.tolist()
        x, x_dot, theta, theta_dot = state
        x_acc, theta_acc = cartpole_derivatives(state, int(action), p)
        x = x + p.dt * x_dot
        x_dot = x_dot + p.dt * x_acc
        theta = theta + p.dt * theta_dot
        theta_dot = theta_dot + p.dt * theta_acc
        self._state = np.array([x, x_dot, theta, theta_dot])
        self._steps += 1
        done = abs(x) > p.x_threshold or abs(theta) > p.theta_threshold or self._steps >= p.max_steps
        self._done = done
        return StepResult(obs=self._state.copy(), reward=1.0, done=done)


@pytest.mark.parametrize("params", [
    CartPoleParams(), CartPoleParams(max_steps=30), CartPoleParams(pole_half_length=0.25, gravity=0.0),
])
def test_cartpole_rows_equal_the_old_ndarray_state_bitwise(params):
    rng = np.random.default_rng(2)
    new, old = CartPole(params), OldCartPole(params)
    starts = [(0.0, 0.0, 0.0, 0.0), (-0.0, 1e-300, -0.2, 3.0), (2.3, -1.0, 0.1, -2.0)]
    episodes = 0
    for k in range(40):
        if k < len(starts):
            first = new.set_state(starts[k]), old.set_state(starts[k])
        else:
            first = new.reset(seed=k if k % 2 else None), old.reset(seed=k if k % 2 else None)
        assert first[0].dtype == first[1].dtype and first[0].tobytes() == first[1].tobytes()
        done = False
        while not done:
            action = int(rng.integers(2)) if k % 3 else np.int64(rng.integers(2))
            got, want = new.step(action), old.step(action)
            assert got.obs.dtype == want.obs.dtype and got.obs.tobytes() == want.obs.tobytes()
            assert (got.reward, got.done, got.info) == (want.reward, want.done, want.info)
            got.obs[0] = 99.0  # an observation is the caller's own: the next step ignores it
            done = got.done
        episodes += 1
    assert episodes == 40


def test_derivatives_at_origin_push_right():
    xacc, thacc = cartpole_derivatives((0.0, 0.0, 0.0, 0.0), 1, CartPoleParams())
    assert abs(xacc - XACC_ORACLE) < 1e-12
    assert abs(thacc - THACC_ORACLE) < 1e-12


def test_derivatives_left_mirror():
    xacc_r, thacc_r = cartpole_derivatives((0.0, 0.0, 0.0, 0.0), 1, CartPoleParams())
    xacc_l, thacc_l = cartpole_derivatives((0.0, 0.0, 0.0, 0.0), 0, CartPoleParams())
    assert abs(xacc_l + xacc_r) < 1e-12
    assert abs(thacc_l + thacc_r) < 1e-12


def test_euler_step_from_origin():
    env = CartPole(CartPoleParams())
    env.reset(seed=0)
    env.set_state((0.0, 0.0, 0.0, 0.0))
    result = env.step(1)
    expected = np.array(
        [0.0, 0.02 * XACC_ORACLE, 0.0, 0.02 * THACC_ORACLE]
    )
    assert np.allclose(result.obs, expected, atol=1e-15)
    assert result.obs[1] == 0.1951219512195122
    assert result.obs[3] == -0.2926829268292683
    assert result.reward == 1.0
    assert not result.done


@pytest.mark.parametrize("state", [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 0.0)])
def test_set_state_rejects_a_state_without_four_entries(state):
    env = CartPole(CartPoleParams())
    env.reset(seed=0)
    with pytest.raises(ValueError, match="needs 4 entries"):
        env.set_state(state)
    env.set_state((0.0, 0.0, 0.0, 0.0))  # the env still steps from a valid state
    assert env.step(1).obs[1] == 0.1951219512195122


def test_push_right_signs():
    env = CartPole(CartPoleParams())
    env.reset(seed=0)
    env.set_state((0.0, 0.0, 0.0, 0.0))
    obs = env.step(1).obs
    assert obs[1] > 0  # cart accelerates right
    assert obs[3] < 0  # pole tips left relative to the cart


def test_zero_force_zero_gravity_fixed_point():
    params = CartPoleParams(gravity=0.0, force_mag=0.0)
    env = CartPole(params)
    env.reset(seed=0)
    env.set_state((0.0, 0.0, 0.0, 0.0))
    result = env.step(1)
    assert np.array_equal(result.obs, np.zeros(4))
    assert result.reward == 1.0
    assert not result.done


def test_theta_threshold_terminates():
    params = CartPoleParams()
    env = CartPole(params)
    env.reset(seed=0)
    env.set_state((0.0, 0.0, params.theta_threshold * 1.01, 0.0))
    assert env.step(0).done


def test_x_threshold_terminates():
    params = CartPoleParams()
    env = CartPole(params)
    env.reset(seed=0)
    env.set_state((params.x_threshold + 0.5, 0.0, 0.0, 0.0))
    assert env.step(0).done


def test_max_steps_terminates():
    env = CartPole(CartPoleParams(gravity=0.0, force_mag=0.0, max_steps=3))
    env.reset(seed=0)
    env.set_state((0.0, 0.0, 0.0, 0.0))
    assert not env.step(0).done
    assert not env.step(0).done
    assert env.step(0).done


def test_energy_sanity_long_run():
    # zero force, no termination: small oscillations must stay finite
    params = CartPoleParams(
        force_mag=0.0, x_threshold=1e9, theta_threshold=1e9, max_steps=10**9
    )
    env = CartPole(params)
    env.reset(seed=0)
    env.set_state((0.0, 0.0, 0.01, 0.0))
    for _ in range(10_000):
        result = env.step(0)
        assert np.all(np.isfinite(result.obs))


def test_gravity_changes_trajectory():
    def trajectory(gravity):
        env = CartPole(CartPoleParams(gravity=gravity))
        env.reset(seed=9)
        env.set_state((0.0, 0.0, 0.1, 0.0))  # nonzero theta so gravity matters
        return env.step(1).obs

    assert not np.array_equal(trajectory(9.8), trajectory(19.6))


def test_invalid_params_rejected():
    for bad in (
        dict(gravity=9.8, cart_mass=0.0),
        dict(pole_mass=-1.0),
        dict(dt=0.0),
        dict(force_mag=-10.0),
        dict(x_threshold=-1.0),
    ):
        with pytest.raises(InvalidParams):
            CartPoleParams(**bad)


def test_envs_on_one_params_share_their_spaces():
    params = CartPoleParams(x_threshold=1.5, theta_threshold=0.1)
    first, second = CartPole(params), CartPole(params)
    assert first.observation_space is second.observation_space
    assert first.action_space is second.action_space is CartPole().action_space
    assert first.action_space == Discrete(2)
    space = first.observation_space
    high = np.array([3.0, np.inf, 0.2, np.inf])
    assert space.shape == (4,)
    assert space.low.tobytes() == (-high).tobytes() and space.high.tobytes() == high.tobytes()
    assert CartPole(params.override(x_threshold=2.0)).observation_space is not space


def test_params_override():
    params = CartPoleParams().override(gravity=19.6)
    assert params.gravity == 19.6
    assert params.cart_mass == 1.0
    with pytest.raises(InvalidParams):
        CartPoleParams().override(gravity=-1.0)


@pytest.mark.parametrize(
    "change",
    [dict(max_steps=2.5), dict(max_steps=True), dict(gravity=True), dict(dt="0.02"),
     dict(gravity=math.nan), dict(x_threshold=math.inf)],
)
def test_params_reject_non_numbers_and_fractional_max_steps(change):
    with pytest.raises(InvalidParams, match=next(iter(change))):
        CartPoleParams().override(**change)


# ---------------------------------------------------------------------------
# Gridworld
# ---------------------------------------------------------------------------


def test_boundary_blocks_movement():
    env = GridWorld(GridScene(5, 5))
    env.reset(seed=0)
    result = env.step(2)  # Left from (0,0)
    assert result.obs[0] == 1.0
    assert result.reward == -0.01
    assert not result.done


def test_goal_step_rewards_and_terminates():
    env = GridWorld(GridScene(5, 5, start=(4, 3), goal=(4, 4)))
    env.reset(seed=0)
    result = env.step(1)  # Down (+y) onto the goal
    assert result.reward == 1.0
    assert result.done


def test_optimal_return_empty_room():
    # shortest path (0,0)->(4,4) is 8 moves; 7 step penalties + goal reward
    env = GridWorld(GridScene(5, 5))
    env.reset(seed=0)
    total = 0.0
    for action in [3, 3, 3, 3, 1, 1, 1, 1]:
        result = env.step(action)
        total += result.reward
    assert result.done
    assert abs(total - 0.93) < 1e-12


def test_walls_block_movement():
    env = GridWorld(GridScene(5, 5, walls=frozenset({(1, 0)})))
    env.reset(seed=0)
    result = env.step(3)  # Right into the wall at (1,0)
    assert result.obs[0] == 1.0  # unchanged
    assert result.reward == -0.01


def test_position_always_valid():
    scene = GridScene(5, 5, walls=frozenset({(2, 2), (1, 3), (3, 1)}))
    env = GridWorld(scene)
    env.reset(seed=0)
    rng = np.random.default_rng(0)
    for _ in range(300):
        result = env.step(int(rng.integers(4)))
        assert scene.passable(env.position)
        if result.done:
            env.reset(seed=0)


def test_max_steps_episode_cap():
    env = GridWorld(GridScene(5, 5, max_steps=3))
    env.reset(seed=0)
    env.step(3)
    env.step(2)
    assert env.step(3).done


def test_envs_on_one_scene_share_their_spaces():
    scene = GridScene(4, 3, goal=(3, 2))
    first, second = GridWorld(scene), GridWorld(scene)
    assert first.observation_space is second.observation_space
    assert first.action_space is second.action_space
    assert first.action_space is GridWorld(GridScene(5, 5)).action_space
    assert first.action_space == Discrete(4)
    space = first.observation_space
    assert space.shape == (12,)
    assert np.array_equal(space.low, np.zeros(12)) and np.array_equal(space.high, np.ones(12))
    assert space.low.dtype == space.high.dtype == np.float64
    assert GridWorld(GridScene(4, 3, goal=(2, 2))).observation_space is not space


def test_scene_invariants():
    with pytest.raises(ValueError):
        GridScene(5, 5, start=(0, 0), goal=(0, 0))  # start == goal
    with pytest.raises(ValueError):
        GridScene(5, 5, walls=frozenset({(0, 0)}))  # start on a wall
    with pytest.raises(ValueError):
        GridScene(5, 5, goal=(5, 5))  # out of bounds
    with pytest.raises(ValueError):
        # goal walled off from start
        GridScene(
            3, 3, start=(0, 0), goal=(2, 2),
            walls=frozenset({(2, 1), (1, 2)}),
        )


@pytest.mark.parametrize("field, value, name", [
    ("start", (1.5, 0), "start coordinate"),
    ("start", (0, np.float64(1.0)), "start coordinate"),
    ("start", 0, "start"),
    ("goal", (True, 4), "goal coordinate"),
    ("goal", (4.0, 4), "goal coordinate"),
    ("goal", (4, 4, 0), "goal"),
    ("goal", "44", "goal"),
    ("walls", frozenset({(1.5, 2)}), "walls cell coordinate"),
    ("walls", [(2, "2")], "walls cell coordinate"),
    ("walls", [3], "walls cell"),
], ids=repr)
def test_scene_refuses_a_cell_that_is_no_pair_of_integers(field, value, name):
    with pytest.raises(InvalidParams, match=f"^{name} must be "):
        GridScene(5, 5, **{field: value})


def test_scene_stores_integer_cells_as_int_pairs():
    scene = GridScene(5, 5, walls=[[2, np.int64(2)]], start=(np.int64(1), 0), goal=[4, 4])
    assert (scene.start, scene.goal, scene.walls) == ((1, 0), (4, 4), frozenset({(2, 2)}))
    assert all(type(v) is int for cell in (scene.start, scene.goal, *scene.walls) for v in cell)


def test_one_hot_layout_row_major():
    obs = one_hot_cell((2, 1), 5, 5)
    assert obs.shape == (25,)
    assert obs[1 * 5 + 2] == 1.0
    assert obs.sum() == 1.0


# ---------------------------------------------------------------------------
# The per-scene move table against the rule it replaced
# ---------------------------------------------------------------------------


def old_grid_move(scene, pos, action):
    """The gridworld movement rule before the per-scene move table, kept as
    the bitwise oracle: GRID_MOVES arithmetic, then `passable` (in bounds and
    not a wall); a blocked move stays put."""
    dx, dy = GRID_MOVES[int(action)]
    target = (pos[0] + dx, pos[1] + dy)
    return target if scene.passable(target) else pos


class OldGridWorld(GridWorld):
    """GridWorld.step as it was before the move table."""

    def step(self, action):
        self._require_active()
        self._check_action(action)
        self._pos = old_grid_move(self.scene, self._pos, action)
        self._steps += 1
        if self._pos == self.scene.goal:
            reward, done = self.scene.goal_reward, True
        else:
            reward, done = self.scene.step_reward, self._steps >= self.scene.max_steps
        self._done = done
        obs = one_hot_cell(self._pos, self.scene.width, self.scene.height)
        return StepResult(obs=obs, reward=reward, done=done)


def random_walled_scene(rng, width, height, wall_frac=0.3, **fields):
    """A seeded random scene (width * height >= 2), redrawn until its goal
    is reachable from its start."""
    cells = [(x, y) for y in range(height) for x in range(width)]
    while True:
        start, goal, *rest = (cells[i] for i in rng.permutation(len(cells)))
        walls = frozenset(rest[: int(wall_frac * len(cells))])
        try:
            return GridScene(width, height, walls=walls, start=start, goal=goal, **fields)
        except InvalidParams:
            pass


def assert_same_step(got, want):
    assert got.obs.dtype == want.obs.dtype and got.obs.tobytes() == want.obs.tobytes()
    assert (got.reward, got.done, got.info) == (want.reward, want.done, want.info)
    assert type(got.reward) is type(want.reward)


@pytest.mark.parametrize("seed", range(12))
def test_grid_steps_equal_the_old_move_rule_from_every_cell(seed):
    """From every cell, walls included, and for every action: the same cell,
    observation bytes, reward and done as GRID_MOVES plus passable."""
    rng = np.random.default_rng(seed)
    scene = random_walled_scene(rng, int(rng.integers(1, 9)), int(rng.integers(2, 9)),
                                max_steps=int(rng.integers(1, 4)))
    new, old = GridWorld(scene), OldGridWorld(scene)
    for cell in [(x, y) for y in range(scene.height) for x in range(scene.width)]:
        for action in (0, 1, 2, 3, np.int64(2), np.int8(1)):
            new.reset(), old.reset()
            new._pos = old._pos = cell
            assert_same_step(new.step(action), old.step(action))
            assert new.position == old.position


@pytest.mark.parametrize("seed", range(6))
def test_grid_random_walks_equal_the_old_move_rule(seed):
    rng = np.random.default_rng(100 + seed)
    scene = random_walled_scene(rng, 7, 6, wall_frac=0.25, max_steps=30)
    new, old = GridWorld(scene), OldGridWorld(scene)
    assert new.reset().tobytes() == old.reset().tobytes()
    ends = 0
    for action in rng.integers(4, size=3000):
        got, want = new.step(action), old.step(action)
        assert_same_step(got, want)
        if got.done:
            ends += 1
            assert new.reset().tobytes() == old.reset().tobytes()
    assert ends > 0


def test_move_table_holds_one_row_per_cell():
    """O(cells): a 200x200 scene has 40,000 rows of 4 moves, and the moves
    share one (cell, index) entry per cell, so nothing grows with cells**2."""
    scene = GridScene(200, 200, walls=frozenset((x, 100) for x in range(199)),
                      start=(0, 0), goal=(199, 199))
    moves = scene.moves
    assert len(moves) == 200 * 200
    assert {len(row) for row in moves.values()} == {4}
    assert len({id(entry) for row in moves.values() for entry in row}) <= 200 * 200
    assert moves[(0, 0)] == (((0, 0), 0), ((0, 1), 200), ((0, 0), 0), ((1, 0), 1))
    assert moves[(5, 99)][1] == ((5, 99), 99 * 200 + 5)  # down into the wall row
    assert scene.moves is moves  # built once per scene


# ---------------------------------------------------------------------------
# Scene text format
# ---------------------------------------------------------------------------

MAP_OK = "S..\n.#.\n..G"


def test_parse_scene_basic():
    scene = parse_scene(MAP_OK)
    assert (scene.width, scene.height) == (3, 3)
    assert scene.start == (0, 0)
    assert scene.goal == (2, 2)
    assert scene.walls == frozenset({(1, 1)})


def test_parse_scene_overrides():
    scene = parse_scene(MAP_OK, step_reward=-0.1, goal_reward=10.0, max_steps=50)
    assert scene.step_reward == -0.1
    assert scene.goal_reward == 10.0
    assert scene.max_steps == 50


@pytest.mark.parametrize("change", [dict(step_reward=math.inf), dict(step_reward="0"),
                                    dict(goal_reward=math.nan), dict(goal_reward=True)])
def test_scene_rewards_must_be_finite_numbers(change):
    with pytest.raises(InvalidParams, match=f"^{next(iter(change))} must be a finite number"):
        parse_scene(MAP_OK, **change)


def test_parse_scene_ragged_lines_rejected():
    with pytest.raises(SceneFormatError):
        parse_scene("S..\n..\n..G")


def test_parse_scene_requires_single_start_and_goal():
    with pytest.raises(SceneFormatError):
        parse_scene("S.S\n...\n..G")
    with pytest.raises(SceneFormatError):
        parse_scene("S..\n...\n...")
    with pytest.raises(SceneFormatError):
        parse_scene("S..\n..G\n..G")


def test_parse_scene_unknown_character():
    with pytest.raises(SceneFormatError):
        parse_scene("S.X\n...\n..G")


# ---------------------------------------------------------------------------
# Bandit
# ---------------------------------------------------------------------------


def test_bandit_deterministic_arms():
    env = Bandit(BanditParams(means=(0.0, 1.0), noise_std=0.0))
    obs = env.reset(seed=0)
    assert np.array_equal(obs, np.zeros(1))
    result = env.step(1)
    assert result.reward == 1.0
    assert result.done
    env.reset(seed=0)
    assert env.step(0).reward == 0.0


def test_bandit_episode_length_one():
    env = Bandit(BanditParams(means=(0.5,), noise_std=0.0))
    env.reset(seed=0)
    assert env.step(0).done


def test_bandit_action_out_of_space():
    env = Bandit(BanditParams(means=(0.0, 1.0), noise_std=0.0))
    env.reset(seed=0)
    with pytest.raises(ActionOutOfSpace):
        env.step(2)


def test_bandit_noise_monte_carlo():
    env = Bandit(BanditParams(means=(0.2, 0.8), noise_std=0.1))
    total = 0.0
    n = 10_000
    for i in range(n):
        env.reset(seed=i)
        total += env.step(1).reward
    assert abs(total / n - 0.8) < 0.01


@pytest.mark.parametrize("seeds", [
    (None, None, None), (5, None, None), (None, 7, None, 7), (3, 3, None, 0, None),
], ids=["unseeded", "seeded-then-unseeded", "unseeded-then-seeded", "mixed"])
def test_cartpole_starts_follow_one_rng_made_at_the_first_reset(seeds):
    """The generator is made by the first reset, not by the constructor:
    default_rng(seed), or default_rng(0) for an unseeded first reset, as the
    constructor's default_rng(0) once gave; an unseeded reset continues it."""
    env, rng = CartPole(CartPoleParams()), np.random.default_rng(0)
    for seed in seeds:
        if seed is not None:
            rng = np.random.default_rng(seed)
        want = rng.uniform(-0.05, 0.05, size=4)
        assert env.reset(seed=seed).tobytes() == want.tobytes()


@pytest.mark.parametrize("seeds", [(None,) * 4, (2, None, None), (None, None, 9, None)],
                         ids=["unseeded", "seeded-then-unseeded", "unseeded-then-seeded"])
def test_noisy_bandit_draws_follow_one_rng_made_at_the_first_reset(seeds):
    params = BanditParams(means=(0.0, 0.5), noise_std=2.0)
    env, rng = Bandit(params), np.random.default_rng(0)
    for seed in seeds:
        if seed is not None:
            rng = np.random.default_rng(seed)
        env.reset(seed=seed)
        assert env.step(1).reward == float(rng.normal(0.5, 2.0))


def test_bandit_invariants():
    with pytest.raises(InvalidParams):
        BanditParams(means=(), noise_std=0.0)
    with pytest.raises(InvalidParams):
        BanditParams(means=(0.0, math.nan), noise_std=0.0)
    with pytest.raises(InvalidParams):
        BanditParams(means=(0.0,), noise_std=-1.0)
    for noise_std in (math.inf, math.nan):
        with pytest.raises(InvalidParams, match="noise_std"):
            BanditParams(means=(0.0,), noise_std=noise_std)
