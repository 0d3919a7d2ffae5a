"""Environment interface shared by every built-in environment and the actor pool.

Observations are flat float64 numpy arrays. Actions are either a plain int
(Discrete spaces) or a float vector (BoxSpace). ``info`` is a flat str->str
map so it can be logged and shipped over process boundaries without any
nested serialization.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .checks import count


class EnvError(Exception):
    """Base class for environment contract violations."""


class ActionOutOfSpace(EnvError):
    """Action is not a member of the environment's action space."""


class EpisodeAlreadyDone(EnvError):
    """step() was called after done=True without an intervening reset()."""


class IncompatibleSpace(EnvError):
    """A wrapper was applied to an environment whose spaces don't support it."""


@dataclass(frozen=True)
class Discrete:
    """Action/observation space of n distinct integer actions 0..n-1."""

    n: int

    def __post_init__(self) -> None:
        count(self.n, "Discrete(n)")

    def contains(self, action) -> bool:
        # a bool is no action; numpy integers compare with Python ints exactly
        return (type(action) is int or isinstance(action, np.integer)) and 0 <= action < self.n


@dataclass(frozen=True)
class BoxSpace:
    """Box of float vectors with per-component [low, high] bounds."""

    low: np.ndarray
    high: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        low = np.asarray(self.low, dtype=np.float64).reshape(-1)
        high = np.asarray(self.high, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        object.__setattr__(self, "shape", tuple(map(int, self.shape)))
        n = math.prod(self.shape)
        if low.size != n or high.size != n:
            raise ValueError(
                f"low/high size {low.size}/{high.size} disagree with shape {self.shape}"
            )
        if np.count_nonzero(low > high):
            raise ValueError("BoxSpace requires low[i] <= high[i] for all i")

    def contains(self, value) -> bool:
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != self.shape:
            return False
        flat = arr.reshape(-1)
        return bool(np.all(np.isfinite(flat)) and np.all(flat >= self.low) and np.all(flat <= self.high))


Space = Discrete | BoxSpace


@dataclass
class StepResult:
    """One environment transition: next observation, reward, terminal flag, info."""

    obs: np.ndarray
    reward: float
    done: bool
    info: dict[str, str] = field(default_factory=dict)


def serialize_obs(obs: np.ndarray) -> str:
    """Encode an observation as a JSON string (exact float round-trip)."""
    arr = np.asarray(obs, dtype=np.float64)
    return json.dumps({"shape": list(arr.shape), "data": arr.reshape(-1).tolist()})


def deserialize_obs(text: str) -> np.ndarray:
    payload = json.loads(text)
    return np.asarray(payload["data"], dtype=np.float64).reshape(payload["shape"])


class Environment(ABC):
    """Reset/step contract.

    Determinism: reset with the same seed must yield an identical initial
    observation and an identical trajectory under identical action sequences.
    Instances are single-threaded but transferable between threads; parallelism
    happens by replication (see vec_env), never by sharing.
    """

    action_space: Space
    observation_space: Space

    @abstractmethod
    def reset(self, seed: int | None = None) -> np.ndarray:
        """Start a new episode, optionally reseeding, and return the initial observation."""

    @abstractmethod
    def step(self, action) -> StepResult:
        """Advance one transition. Raises EpisodeAlreadyDone after a terminal step."""

    @classmethod
    def step_lanes(cls, envs, actions) -> tuple[np.ndarray, list, list]:
        """(obs rows, rewards, dones) of stepping lane i's env by actions[i]. The
        caller has checked each action, and the lanes share one observation
        shape. This default calls each env's step; an error carries its `lane`."""
        results = []
        for lane, (env, action) in enumerate(zip(envs, actions)):
            try:
                results.append(env.step(action))
            except Exception as err:
                err.lane = lane
                raise
        return np.array([r.obs for r in results]), [r.reward for r in results], [r.done for r in results]

    # Guard helpers shared by the built-in environments.
    _done: bool = True
    _started: bool = False

    def _require_active(self) -> None:
        if not self._started:
            raise EpisodeAlreadyDone("step() called before reset()")
        if self._done:
            raise EpisodeAlreadyDone("step() called after done=True without reset()")

    def _check_action(self, action) -> None:
        if not self.action_space.contains(action):
            raise ActionOutOfSpace(f"action {action!r} not in {self.action_space}")


# The width from which a lane set of a kernel class with `lane_columns`
# (CartPole) keeps its lanes' state in numpy columns. On a 2-vCPU Xeon VM a
# cart-pole LaneSet.step took 6.8 / 20.6 / 27.2 / 105.7 us at 4 / 16 / 24 / 96
# lanes on the per-lane loop and 25.4 / 24.1 / 24.0 / 28.8 us as columns.
COLUMN_LANES = 24


class LaneSet:
    """Lane i plays envs[i], and one call steps every lane.

    start(lane, env, seed) resets env, which takes the lane's place when it is
    another env, and returns its first row. step(actions) returns (obs rows,
    rewards, dones) in lane order as step_lanes does (the columns give
    arrays); the caller has checked each action, and the lanes share one
    observation shape. drop(lanes) takes lanes out and keeps the others in order.

    The one selection rule: when every lane is exactly one class whose step is
    still the `_lane_step` it was defined with, the lanes step through that
    class's step_lanes, which checks every lane is active before any moves;
    else through the per-env default. It is applied again when a lane takes
    an env of another class and when lanes are dropped. At COLUMN_LANES or
    more such lanes, a class with `lane_columns` keeps their state in that
    object instead: a lane's env gets its state back when the lane is
    dropped or replaced."""

    def __init__(self, envs):
        self.envs, self._columns = list(envs), None
        self._select()

    def _select(self) -> None:
        self._release()
        cls = type(self.envs[0]) if self.envs else Environment
        kernel = cls.step is cls.__dict__.get("_lane_step")
        kernel = kernel and all(type(env) is cls for env in self.envs)
        self._step_lanes = cls.step_lanes if kernel else Environment.step_lanes
        if kernel and len(self.envs) >= COLUMN_LANES and hasattr(cls, "lane_columns"):
            self._columns = cls.lane_columns(self.envs)

    def _release(self) -> None:
        """Every lane's state back to its env; the lanes step per lane."""
        if self._columns is not None:
            for lane, env in enumerate(self.envs):
                self._columns.store(lane, env)
            self._columns = None

    def start(self, lane: int, env: Environment, seed) -> np.ndarray:
        old = self.envs[lane]
        if type(env) is not type(old):
            self._release()
        elif self._columns is not None and env is not old:
            self._columns.store(lane, old)
        self.envs[lane] = env
        row = env.reset(seed=seed)
        if self._columns is not None:
            self._columns.load(lane, env)
        elif type(env) is not type(old):
            self._select()
        return row

    def step(self, actions) -> tuple:
        if self._columns is not None:
            return self._columns.step(self.envs, actions)
        if isinstance(actions, np.ndarray):
            actions = actions.tolist()
        return self._step_lanes(self.envs, actions)

    def drop(self, lanes) -> None:
        gone = set(lanes)
        keep = [lane for lane in range(len(self.envs)) if lane not in gone]
        if self._columns is not None:
            for lane in gone:
                self._columns.store(lane, self.envs[lane])
            self._columns.keep(keep)
        self.envs = [self.envs[lane] for lane in keep]
        if self._columns is None or len(keep) < COLUMN_LANES:
            self._select()


# ---------------------------------------------------------------------------
# Wrappers. Each spec below is a declarative, serializable description; wrap()
# turns (env, spec) into a new Environment. wrap_all applies a list with the
# last entry outermost.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeLimit:
    max_steps: int


@dataclass(frozen=True)
class FrameStack:
    k: int


@dataclass(frozen=True)
class ActionRemap:
    mapping: tuple[tuple[int, int], ...]  # (new_index, inner_index) pairs

    @staticmethod
    def from_dict(mapping: dict[int, int]) -> "ActionRemap":
        return ActionRemap(tuple(sorted(mapping.items())))


@dataclass(frozen=True)
class ReducedActionSet:
    subset: tuple[int, ...]


@dataclass(frozen=True)
class RewardClip:
    lo: float
    hi: float


@dataclass(frozen=True)
class ObservationNormalize:
    eps: float = 1e-8


WrapperSpec = TimeLimit | FrameStack | ActionRemap | ReducedActionSet | RewardClip | ObservationNormalize


class _Wrapped(Environment):
    def __init__(self, env: Environment):
        self.env = env
        self.action_space = env.action_space
        self.observation_space = env.observation_space

    def reset(self, seed: int | None = None) -> np.ndarray:
        self._done = False
        self._started = True
        return self.env.reset(seed)

    def step(self, action) -> StepResult:
        self._require_active()
        result = self.env.step(action)
        self._done = result.done
        return result


class _TimeLimitEnv(_Wrapped):
    def __init__(self, env: Environment, max_steps: int):
        super().__init__(env)
        self._max_steps = count(max_steps, "TimeLimit max_steps")
        self._elapsed = 0

    def reset(self, seed: int | None = None) -> np.ndarray:
        self._elapsed = 0
        return super().reset(seed)

    def step(self, action) -> StepResult:
        result = super().step(action)
        self._elapsed += 1
        if self._elapsed >= self._max_steps:
            result.done = self._done = True
            result.info["time_limit"] = "true"
        return result


class _FrameStackEnv(_Wrapped):
    """Concatenates the last k observations along axis 0, oldest first.

    Before k real frames exist the stack is padded by repeating the initial
    observation, so there is no discontinuity at episode start.
    """

    def __init__(self, env: Environment, k: int):
        super().__init__(env)
        self._k = count(k, "FrameStack k")
        self._frames: list[np.ndarray] = []
        space = env.observation_space
        if isinstance(space, BoxSpace):
            self.observation_space = BoxSpace(
                low=np.tile(space.low, k),
                high=np.tile(space.high, k),
                shape=(k * space.shape[0],) + space.shape[1:],
            )

    def _stacked(self) -> np.ndarray:
        return np.concatenate(self._frames, axis=0)

    def reset(self, seed: int | None = None) -> np.ndarray:
        obs = super().reset(seed)
        self._frames = [obs] * self._k
        return self._stacked()

    def step(self, action) -> StepResult:
        result = super().step(action)
        self._frames = self._frames[1:] + [result.obs]
        result.obs = self._stacked()
        return result


class _ActionMapEnv(_Wrapped):
    """Action i of this env is action targets[i] of the inner one."""

    def __init__(self, env: Environment, targets: tuple[int, ...]):
        super().__init__(env)
        inner = env.action_space
        if not isinstance(inner, Discrete):
            raise IncompatibleSpace("an action map requires a Discrete inner action space")
        if not targets or any(t < 0 or t >= inner.n for t in targets):
            raise IncompatibleSpace(f"action map targets {targets} invalid for Discrete({inner.n})")
        self._targets = targets
        self.action_space = Discrete(len(targets))

    def step(self, action) -> StepResult:
        self._require_active()  # a finished episode is reported before a bad action
        self._check_action(action)
        return super().step(self._targets[int(action)])


class _RewardClipEnv(_Wrapped):
    def __init__(self, env: Environment, lo: float, hi: float):
        if lo > hi:
            raise ValueError("RewardClip needs lo <= hi")
        super().__init__(env)
        self._lo = float(lo)
        self._hi = float(hi)

    def step(self, action) -> StepResult:
        result = super().step(action)
        result.reward = min(max(result.reward, self._lo), self._hi)
        return result


class _ObservationNormalizeEnv(_Wrapped):
    """Normalizes observations with running per-component mean/variance (Welford)."""

    def __init__(self, env: Environment, eps: float = 1e-8):
        super().__init__(env)
        self._eps = float(eps)
        self._count = 0
        self._mean: np.ndarray | None = None
        self._m2: np.ndarray | None = None

    def _normalize(self, obs: np.ndarray) -> np.ndarray:
        if self._mean is None:
            self._mean = np.zeros_like(obs)
            self._m2 = np.zeros_like(obs)
        self._count += 1
        delta = obs - self._mean
        self._mean = self._mean + delta / self._count
        self._m2 = self._m2 + delta * (obs - self._mean)
        var = self._m2 / self._count
        return (obs - self._mean) / np.sqrt(var + self._eps)

    def reset(self, seed: int | None = None) -> np.ndarray:
        return self._normalize(super().reset(seed))

    def step(self, action) -> StepResult:
        result = super().step(action)
        result.obs = self._normalize(result.obs)
        return result


def wrap(env: Environment, spec: WrapperSpec) -> Environment:
    """Compose one wrapper around env according to the declarative spec."""
    if isinstance(spec, TimeLimit):
        return _TimeLimitEnv(env, spec.max_steps)
    if isinstance(spec, FrameStack):
        return _FrameStackEnv(env, spec.k)
    if isinstance(spec, ReducedActionSet):
        spec = ActionRemap(tuple(enumerate(spec.subset)))
    if isinstance(spec, ActionRemap):
        pairs = sorted(spec.mapping)
        if [new for new, _ in pairs] != list(range(len(pairs))):
            raise IncompatibleSpace("ActionRemap keys must be the contiguous range 0..m-1")
        return _ActionMapEnv(env, tuple(inner for _, inner in pairs))
    if isinstance(spec, RewardClip):
        return _RewardClipEnv(env, spec.lo, spec.hi)
    if isinstance(spec, ObservationNormalize):
        return _ObservationNormalizeEnv(env, spec.eps)
    raise TypeError(f"unknown wrapper spec: {spec!r}")


def wrap_all(env: Environment, specs) -> Environment:
    """Apply wrapper specs in order; the last entry ends up outermost."""
    for spec in specs:
        env = wrap(env, spec)
    return env
