"""Built-in parameterizable environments: cart-pole, gridworld, k-armed bandit.

Cart-pole exposes every physics constant so streams of shifted dynamics can be
generated from one base configuration. Gridworld scenes are swappable at
runtime (see task_stream) and loadable from plain-text maps. The bandit is a
one-step environment small enough to check policies against closed forms.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .checks import count, finite, integer
from .core_env import BoxSpace, Discrete, Environment, StepResult


class InvalidParams(ValueError):
    """Environment parameters violate their invariants."""


@dataclass(frozen=True)
class CartPoleParams:
    gravity: float = 9.8
    cart_mass: float = 1.0
    pole_mass: float = 0.1
    pole_half_length: float = 0.5
    force_mag: float = 10.0
    dt: float = 0.02
    x_threshold: float = 2.4
    theta_threshold: float = 12.0 * math.pi / 180.0
    max_steps: int = 500

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = finite(getattr(self, name), name, InvalidParams)
            # gravity/force_mag of exactly 0 are allowed for degenerate test setups
            if name in ("gravity", "force_mag"):
                if value < 0:
                    raise InvalidParams(f"{name} must be >= 0, got {value}")
            elif value <= 0:
                raise InvalidParams(f"{name} must be > 0, got {value}")
        count(self.max_steps, "max_steps", InvalidParams)
        # the state space every env on these parameters shares; set eagerly, as GridScene's
        high = np.array([self.x_threshold * 2, np.inf, self.theta_threshold * 2, np.inf])
        object.__setattr__(self, "observation_space", BoxSpace(-high, high, (4,)))
        object.__setattr__(self, "constants", (  # what _cartpole_step reads
            self.gravity, self.force_mag, self.cart_mass + self.pole_mass,
            self.pole_mass * self.pole_half_length, self.pole_half_length, self.pole_mass,
            self.dt, self.x_threshold, self.theta_threshold, self.max_steps))

    def override(self, **changes) -> "CartPoleParams":
        unknown = set(changes) - set(self.__dataclass_fields__)
        if unknown:
            raise InvalidParams(f"unknown cart-pole parameter(s): {sorted(unknown)}")
        return replace(self, **changes)


_PUSH = (-1.0, 1.0)  # the force's sign for cart-pole actions 0 (left) and 1 (right)
_PUSH_COLUMN = np.array(_PUSH)


def _cartpole_step(state, push, steps, constants, sin, cos):
    """The cart-pole equations, once: (next state, done, x_acc, theta_acc) of
    Euler step number `steps` from `state` under the action's _PUSH, with the
    pre-update accelerations, for a CartPoleParams.constants. One lane's Python
    floats step with math.sin and math.cos; numpy columns of state rows,
    pushes, step counts and constants step with np.sin and np.cos, to the
    same bits."""
    x, x_dot, theta, theta_dot = state
    gravity, force_mag, total_mass, polemass_length, half_length, pole_mass, dt, \
        x_threshold, theta_threshold, max_steps = constants
    force = force_mag * push  # exact: force_mag times 1.0 or -1.0
    sin, cos = sin(theta), cos(theta)
    temp = (force + polemass_length * theta_dot * theta_dot * sin) / total_mass
    theta_acc = (gravity * sin - cos * temp) / (
        half_length * (4.0 / 3.0 - pole_mass * cos * cos / total_mass)
    )
    x_acc = temp - polemass_length * theta_acc * cos / total_mass
    x, theta = x + dt * x_dot, theta + dt * theta_dot
    done = (abs(x) > x_threshold) | (abs(theta) > theta_threshold) | (steps >= max_steps)
    return [x, x_dot + dt * x_acc, theta, theta_dot + dt * theta_acc], done, x_acc, theta_acc


def cartpole_derivatives(state, action: int, p: CartPoleParams):
    """Accelerations (xacc, thetaacc) of the standard cart-pole equations."""
    return _cartpole_step(state, _PUSH[action], 0, p.constants, math.sin, math.cos)[2:]


class _CartPoleColumns:
    """The state of a set of cart-pole lanes (see core_env.LaneSet) as numpy
    columns: (n, 4) state rows, step counts, done flags, and the lanes'
    CartPoleParams.constants as a (10, n) block."""

    def __init__(self, envs):
        self.state = np.array([env._state for env in envs], dtype=np.float64)
        self.steps = np.array([env._steps for env in envs], dtype=np.int64)
        self.done = np.array([env._done for env in envs], dtype=bool)
        self.constants = np.array([env.params.constants for env in envs], dtype=np.float64).T.copy()

    def load(self, lane: int, env: "CartPole") -> None:
        self.state[lane], self.steps[lane], self.done[lane] = env._state, env._steps, env._done
        self.constants[:, lane] = env.params.constants

    def store(self, lane: int, env: "CartPole") -> None:
        env._state, env._steps = self.state[lane].tolist(), int(self.steps[lane])
        env._done = bool(self.done[lane])

    def keep(self, lanes: list) -> None:
        self.state, self.steps, self.done = self.state[lanes], self.steps[lanes], self.done[lanes]
        self.constants = self.constants[:, lanes]

    def step(self, envs, actions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.done.any():  # every lane active before any lane moves
            lane = int(self.done.argmax())
            self.store(lane, envs[lane])
            envs[lane]._require_active()
        self.steps += 1
        state, self.done, _, _ = _cartpole_step(
            self.state.T, _PUSH_COLUMN[actions], self.steps, self.constants, np.sin, np.cos)
        self.state = np.array(state).T  # (n, 4), each column contiguous for the next step
        return self.state.copy(), np.ones(len(self.steps)), self.done.copy()


CARTPOLE_ACTIONS = Discrete(2)  # push left, push right; shared by every cart-pole


class CartPole(Environment):
    """Classic cart-pole balance with explicit-Euler integration.

    The Euler update uses the pre-update derivatives, applied in the order
    x, x_dot, theta, theta_dot. Reward is +1.0 every step; the episode ends
    when |x| or |theta| exceeds its threshold or after max_steps.
    """

    def __init__(self, params: CartPoleParams | None = None):
        self.params = params or CartPoleParams()
        self.action_space = CARTPOLE_ACTIONS
        self.observation_space = self.params.observation_space
        self._rng = None  # made by the first reset: default_rng(seed), else default_rng(0)
        self._state = [0.0] * 4  # Python floats: the same IEEE sums, less overhead
        self._steps = 0

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None or self._rng is None:
            self._rng = np.random.default_rng(0 if seed is None else seed)
        return self.set_state(self._rng.uniform(-0.05, 0.05, size=4))

    def set_state(self, state) -> np.ndarray:
        """Force the physical state (a test hook, and reset's start); keeps the episode active."""
        state = np.asarray(state, dtype=np.float64)
        if state.shape != (4,):
            raise ValueError(f"cart-pole state needs 4 entries (x, x_dot, theta, theta_dot), "
                             f"got shape {state.shape}")
        self._state = state.tolist()
        self._steps = 0
        self._done = False
        self._started = True
        return np.array(self._state)

    def step(self, action) -> StepResult:
        if self._done:  # also before the first reset
            self._require_active()
        self._check_action(action)
        self._steps += 1
        self._state, self._done, _, _ = _cartpole_step(
            self._state, _PUSH[action], self._steps, self.params.constants, math.sin, math.cos)
        return StepResult(np.array(self._state), 1.0, self._done)

    _lane_step = step  # the step that step_lanes stands in for
    lane_columns = _CartPoleColumns  # how a wide lane set keeps its lanes' state

    @classmethod
    def step_lanes(cls, envs, actions) -> tuple[np.ndarray, list, list]:
        for env in envs:  # every lane active before any lane moves
            if env._done:
                env._require_active()
        sin, cos = math.sin, math.cos
        for env, action in zip(envs, actions):
            env._steps = steps = env._steps + 1
            env._state, env._done, _, _ = _cartpole_step(
                env._state, _PUSH[action], steps, env.params.constants, sin, cos)
        return np.array([env._state for env in envs]), [1.0] * len(envs), [env._done for env in envs]


# ---------------------------------------------------------------------------
# Gridworld
# ---------------------------------------------------------------------------

GRID_MOVES = ((0, -1), (0, 1), (-1, 0), (1, 0))  # 0=Up(-y) 1=Down(+y) 2=Left(-x) 3=Right(+x)
GRID_ACTIONS = Discrete(4)  # one action per GRID_MOVES entry, one space for every gridworld


class SceneFormatError(ValueError):
    """A plain-text scene map failed strict parsing."""


@dataclass(frozen=True)
class GridScene:
    """A gridworld map with its rewards and step limit. __post_init__ also sets
    `moves`, the one movement rule (see _move_table), and the one-hot
    `observation_space` its envs share; a cached_property would write into the
    instance dict, which makes every later read on the scene 2-3x slower (CPython 3.11)."""

    width: int
    height: int
    walls: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    start: tuple[int, int] = (0, 0)
    goal: tuple[int, int] = (4, 4)
    step_reward: float = -0.01
    goal_reward: float = 1.0
    max_steps: int = 200

    def __post_init__(self) -> None:
        object.__setattr__(self, "walls", frozenset(_cell(w, "walls cell") for w in self.walls))
        for name in ("width", "height", "max_steps"):
            count(getattr(self, name), name, InvalidParams)
        for name in ("step_reward", "goal_reward"):
            finite(getattr(self, name), name, InvalidParams)
        for name in ("start", "goal"):
            object.__setattr__(self, name, cell := _cell(getattr(self, name), name))
            if not self.in_bounds(cell):
                raise InvalidParams(f"{name} {cell} outside {self.width}x{self.height} grid")
            if cell in self.walls:
                raise InvalidParams(f"{name} {cell} is a wall")
        if self.start == self.goal:
            raise InvalidParams("start and goal must differ")
        object.__setattr__(self, "moves", self._move_table())
        if not self._reachable():
            raise InvalidParams(f"goal {self.goal} unreachable from start {self.start}")
        n = self.width * self.height
        object.__setattr__(self, "observation_space", BoxSpace(np.zeros(n), np.ones(n), (n,)))

    def in_bounds(self, cell: tuple[int, int]) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def passable(self, cell: tuple[int, int]) -> bool:
        return self.in_bounds(cell) and cell not in self.walls

    def _move_table(self) -> dict[tuple[int, int], tuple[tuple[tuple[int, int], int], ...]]:
        """moves[cell][action] is (the cell reached, its one-hot index). A move
        into a wall or off the grid stays put. Every cell, walls included, has
        a row, and the rows share one entry per cell: O(cells)."""
        entries = {(x, y): ((x, y), y * self.width + x)
                   for y in range(self.height) for x in range(self.width)}
        return {
            (x, y): tuple(here if (x + dx, y + dy) in self.walls
                          else entries.get((x + dx, y + dy), here) for dx, dy in GRID_MOVES)
            for (x, y), here in entries.items()
        }

    def _reachable(self) -> bool:
        seen = {self.start}
        queue = deque([self.start])
        while queue:
            cell = queue.popleft()
            if cell == self.goal:
                return True
            for nxt, _ in self.moves[cell]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False


def _cell(cell, name: str) -> tuple[int, int]:
    """`cell` as two ints if it is a pair of integers, not bools; else InvalidParams."""
    if not isinstance(cell, (tuple, list)) or len(cell) != 2:
        raise InvalidParams(f"{name} must be a pair of integers, got {cell!r}")
    return tuple(int(integer(v, f"{name} coordinate", InvalidParams)) for v in cell)


def parse_scene(text: str, **overrides) -> GridScene:
    """Parse a plain-text map: '#'=wall, 'S'=start, 'G'=goal, '.'=free.

    Lines must be rectangular and characters limited to the four above;
    anything else raises SceneFormatError. Reward/step-limit fields can be
    overridden via keyword arguments.
    """
    lines = [line for line in text.splitlines() if line.strip() != ""]
    if not lines:
        raise SceneFormatError("empty scene map")
    width = len(lines[0])
    walls, start, goal = set(), None, None
    for y, line in enumerate(lines):
        if len(line) != width:
            raise SceneFormatError(f"ragged line {y}: length {len(line)} != {width}")
        for x, ch in enumerate(line):
            if ch == "#":
                walls.add((x, y))
            elif ch == "S":
                if start is not None:
                    raise SceneFormatError("multiple start cells")
                start = (x, y)
            elif ch == "G":
                if goal is not None:
                    raise SceneFormatError("multiple goal cells")
                goal = (x, y)
            elif ch != ".":
                raise SceneFormatError(f"unknown character {ch!r} at ({x},{y})")
    if start is None or goal is None:
        raise SceneFormatError("map must contain exactly one 'S' and one 'G'")
    return GridScene(
        width=width, height=len(lines), walls=frozenset(walls), start=start, goal=goal, **overrides
    )


def one_hot_cell(cell: tuple[int, int], width: int, height: int) -> np.ndarray:
    obs = np.zeros(width * height)
    obs[cell[1] * width + cell[0]] = 1.0
    return obs


class GridWorld(Environment):
    """Deterministic gridworld over a GridScene; observations are one-hot cells."""

    def __init__(self, scene: GridScene):
        self.scene = scene
        self.action_space = GRID_ACTIONS
        self.observation_space = scene.observation_space
        self._cells = scene.width * scene.height  # the one-hot width; step_lanes checks lanes agree
        self._pos = scene.start
        self._steps = 0

    @property
    def position(self) -> tuple[int, int]:
        return self._pos

    def _obs(self) -> np.ndarray:
        return one_hot_cell(self._pos, self.scene.width, self.scene.height)

    def reset(self, seed: int | None = None) -> np.ndarray:
        self._pos = self.scene.start
        self._steps = 0
        self._done = False
        self._started = True
        return self._obs()

    def _advance(self, action) -> tuple[int, float, bool]:
        """The grid step rule, once: (one-hot index, reward, done) of a move."""
        scene = self.scene
        self._pos, index = scene.moves[self._pos][action]
        self._steps += 1
        if self._pos == scene.goal:
            self._done = True
            return index, scene.goal_reward, True
        self._done = done = self._steps >= scene.max_steps
        return index, scene.step_reward, done

    def step(self, action) -> StepResult:
        if self._done:  # also before the first reset
            self._require_active()
        self._check_action(action)
        index, reward, done = self._advance(action)
        obs = np.zeros(self.observation_space.shape)
        obs[index] = 1.0
        return StepResult(obs, reward, done)

    _lane_step = step  # the step that step_lanes stands in for

    @classmethod
    def step_lanes(cls, envs, actions) -> tuple[np.ndarray, list, list]:
        n = envs[0]._cells
        for env in envs:  # every lane active, and of one size, before any lane moves
            if env._done:
                env._require_active()
            if env._cells != n:
                raise ValueError(f"grid lanes of {n} and {env._cells} cells")
        obs, rewards, dones = np.zeros(len(envs) * n), [], []
        for start, env, action in zip(range(0, len(obs), n), envs, actions):
            index, reward, done = env._advance(action)
            obs[start + index] = 1.0
            rewards.append(reward)
            dones.append(done)
        return obs.reshape(len(envs), n), rewards, dones


# ---------------------------------------------------------------------------
# k-armed bandit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BanditParams:
    means: tuple[float, ...]
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        means = tuple(float(finite(m, "bandit means", InvalidParams)) for m in self.means)
        object.__setattr__(self, "means", means)
        if len(self.means) < 1:
            raise InvalidParams("bandit needs k >= 1 arms")
        if finite(self.noise_std, "noise_std", InvalidParams) < 0:
            raise InvalidParams(f"noise_std must be >= 0, got {self.noise_std!r}")

    @property
    def k(self) -> int:
        return len(self.means)


class Bandit(Environment):
    """k-armed Gaussian bandit; every episode is exactly one pull."""

    def __init__(self, params: BanditParams):
        self.params = params
        self.action_space = Discrete(params.k)
        self.observation_space = BoxSpace(low=np.zeros(1), high=np.zeros(1), shape=(1,))
        self._rng = None  # made by the first reset: default_rng(seed), else default_rng(0)

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None or self._rng is None:
            self._rng = np.random.default_rng(0 if seed is None else seed)
        self._done = False
        self._started = True
        return np.zeros(1)

    def step(self, action) -> StepResult:
        self._require_active()
        self._check_action(action)
        mean = self.params.means[int(action)]
        reward = mean if self.params.noise_std == 0 else float(
            self._rng.normal(mean, self.params.noise_std)
        )
        self._done = True
        return StepResult(obs=np.zeros(1), reward=reward, done=True)
