"""Built-in parameterizable environments: cart-pole, gridworld, k-armed bandit.

Cart-pole exposes every physics constant so streams of shifted dynamics can be
generated from one base configuration. Gridworld scenes are swappable at
runtime (see task_stream) and loadable from plain-text maps. The bandit is a
one-step environment small enough to check policies against closed forms.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

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
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value)):
                raise InvalidParams(f"{name} must be a finite number, got {value!r}")
            # gravity/force_mag of exactly 0 are allowed for degenerate test setups
            if name in ("gravity", "force_mag"):
                if value < 0:
                    raise InvalidParams(f"{name} must be >= 0, got {value}")
            elif value <= 0:
                raise InvalidParams(f"{name} must be > 0, got {value}")
        if not isinstance(self.max_steps, numbers.Integral):
            raise InvalidParams(f"max_steps must be an integer, got {self.max_steps!r}")

    def override(self, **changes) -> "CartPoleParams":
        unknown = set(changes) - set(self.__dataclass_fields__)
        if unknown:
            raise InvalidParams(f"unknown cart-pole parameter(s): {sorted(unknown)}")
        return replace(self, **changes)


def cartpole_derivatives(state, action: int, p: CartPoleParams):
    """Accelerations (xacc, thetaacc) of the standard cart-pole equations."""
    _, _, theta, theta_dot = state
    force = p.force_mag if action == 1 else -p.force_mag
    sin, cos = math.sin(theta), math.cos(theta)
    total_mass = p.cart_mass + p.pole_mass
    polemass_length = p.pole_mass * p.pole_half_length
    temp = (force + polemass_length * theta_dot * theta_dot * sin) / total_mass
    theta_acc = (p.gravity * sin - cos * temp) / (
        p.pole_half_length * (4.0 / 3.0 - p.pole_mass * cos * cos / total_mass)
    )
    x_acc = temp - polemass_length * theta_acc * cos / total_mass
    return x_acc, theta_acc


class CartPole(Environment):
    """Classic cart-pole balance with explicit-Euler integration.

    The Euler update uses the pre-update derivatives, applied in the order
    x, x_dot, theta, theta_dot. Reward is +1.0 every step; the episode ends
    when |x| or |theta| exceeds its threshold or after max_steps.
    """

    def __init__(self, params: CartPoleParams | None = None):
        self.params = params or CartPoleParams()
        self.action_space = Discrete(2)
        high = np.array(
            [self.params.x_threshold * 2, np.inf, self.params.theta_threshold * 2, np.inf]
        )
        self.observation_space = BoxSpace(low=-high, high=high, shape=(4,))
        self._rng = np.random.default_rng(0)
        self._state = [0.0] * 4  # Python floats: the same IEEE sums, less overhead
        self._steps = 0

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        return self.set_state(self._rng.uniform(-0.05, 0.05, size=4))

    def set_state(self, state) -> np.ndarray:
        """Force the physical state (a test hook, and reset's start); keeps the episode active."""
        self._state = np.asarray(state, dtype=np.float64).tolist()
        self._steps = 0
        self._done = False
        self._started = True
        return np.array(self._state)

    def step(self, action) -> StepResult:
        self._require_active()
        self._check_action(action)
        p = self.params
        x, x_dot, theta, theta_dot = state = self._state
        x_acc, theta_acc = cartpole_derivatives(state, int(action), p)
        x = x + p.dt * x_dot
        x_dot = x_dot + p.dt * x_acc
        theta = theta + p.dt * theta_dot
        theta_dot = theta_dot + p.dt * theta_acc
        self._state = [x, x_dot, theta, theta_dot]
        self._steps += 1
        done = (
            abs(x) > p.x_threshold
            or abs(theta) > p.theta_threshold
            or self._steps >= p.max_steps
        )
        self._done = done
        return StepResult(obs=np.array(self._state), reward=1.0, done=done)


# ---------------------------------------------------------------------------
# Gridworld
# ---------------------------------------------------------------------------

GRID_MOVES = ((0, -1), (0, 1), (-1, 0), (1, 0))  # 0=Up(-y) 1=Down(+y) 2=Left(-x) 3=Right(+x)


class SceneFormatError(ValueError):
    """A plain-text scene map failed strict parsing."""


@dataclass(frozen=True)
class GridScene:
    width: int
    height: int
    walls: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    start: tuple[int, int] = (0, 0)
    goal: tuple[int, int] = (4, 4)
    step_reward: float = -0.01
    goal_reward: float = 1.0
    max_steps: int = 200

    def __post_init__(self) -> None:
        object.__setattr__(self, "walls", frozenset(tuple(w) for w in self.walls))
        if self.width < 1 or self.height < 1:
            raise InvalidParams("scene dimensions must be >= 1")
        if not isinstance(self.max_steps, numbers.Integral) or isinstance(self.max_steps, bool):
            raise InvalidParams(f"max_steps must be an integer, got {self.max_steps!r}")
        if self.max_steps < 1:
            raise InvalidParams("max_steps must be >= 1")
        for name in ("step_reward", "goal_reward"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value)):
                raise InvalidParams(f"{name} must be a finite number, got {value!r}")
        for name, cell in (("start", self.start), ("goal", self.goal)):
            if not self.in_bounds(cell):
                raise InvalidParams(f"{name} {cell} outside {self.width}x{self.height} grid")
            if cell in self.walls:
                raise InvalidParams(f"{name} {cell} is a wall")
        if self.start == self.goal:
            raise InvalidParams("start and goal must differ")
        if not self._reachable():
            raise InvalidParams(f"goal {self.goal} unreachable from start {self.start}")

    def in_bounds(self, cell: tuple[int, int]) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def passable(self, cell: tuple[int, int]) -> bool:
        return self.in_bounds(cell) and cell not in self.walls

    def _reachable(self) -> bool:
        seen = {self.start}
        queue = deque([self.start])
        while queue:
            x, y = queue.popleft()
            if (x, y) == self.goal:
                return True
            for dx, dy in GRID_MOVES:
                nxt = (x + dx, y + dy)
                if self.passable(nxt) and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False


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
        self.action_space = Discrete(4)
        n = scene.width * scene.height
        self.observation_space = BoxSpace(low=np.zeros(n), high=np.ones(n), shape=(n,))
        self._pos = scene.start
        self._steps = 0

    @property
    def position(self) -> tuple[int, int]:
        return self._pos

    def reset(self, seed: int | None = None) -> np.ndarray:
        self._pos = self.scene.start
        self._steps = 0
        self._done = False
        self._started = True
        return one_hot_cell(self._pos, self.scene.width, self.scene.height)

    def step(self, action) -> StepResult:
        self._require_active()
        self._check_action(action)
        dx, dy = GRID_MOVES[int(action)]
        target = (self._pos[0] + dx, self._pos[1] + dy)
        if self.scene.passable(target):
            self._pos = target
        self._steps += 1
        if self._pos == self.scene.goal:
            reward, done = self.scene.goal_reward, True
        else:
            reward, done = self.scene.step_reward, self._steps >= self.scene.max_steps
        self._done = done
        obs = one_hot_cell(self._pos, self.scene.width, self.scene.height)
        return StepResult(obs=obs, reward=reward, done=done)


# ---------------------------------------------------------------------------
# k-armed bandit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BanditParams:
    means: tuple[float, ...]
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        if len(self.means) < 1:
            raise InvalidParams("bandit needs k >= 1 arms")
        if not all(math.isfinite(m) for m in self.means):
            raise InvalidParams("bandit means must be finite")
        if not (self.noise_std >= 0 and math.isfinite(self.noise_std)):
            raise InvalidParams(f"noise_std must be finite and >= 0, got {self.noise_std!r}")

    @property
    def k(self) -> int:
        return len(self.means)


class Bandit(Environment):
    """k-armed Gaussian bandit; every episode is exactly one pull."""

    def __init__(self, params: BanditParams):
        self.params = params
        self.action_space = Discrete(params.k)
        self.observation_space = BoxSpace(low=np.zeros(1), high=np.zeros(1), shape=(1,))
        self._rng = np.random.default_rng(0)

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
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
