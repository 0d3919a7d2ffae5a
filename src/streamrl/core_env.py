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


_INTEGERS = (int, np.integer)


@dataclass(frozen=True)
class Discrete:
    """Action/observation space of n distinct integer actions 0..n-1."""

    n: int

    def __post_init__(self) -> None:
        count(self.n, "Discrete(n)")

    def contains(self, action) -> bool:
        # numpy integers compare with Python ints exactly, so no int() is needed
        return isinstance(action, _INTEGERS) and 0 <= action < self.n


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


def lane_stepper(envs):
    """The step_lanes for one lane set: a class's own, which checks that every
    lane is active before any moves, when every lane is exactly that class and
    its step is still the `_lane_step` it was defined with; else the default."""
    cls = type(envs[0])
    if cls.step is cls.__dict__.get("_lane_step") and all(type(env) is cls for env in envs):
        return cls.step_lanes
    return Environment.step_lanes


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
