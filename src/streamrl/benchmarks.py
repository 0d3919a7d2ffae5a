"""Task-stream benchmarks: experiences, scenarios, and the generators that
turn lists of environment constructors into ordered training streams.

Task labels are indices into the spec list, not positions in the stream, so a
revisited environment keeps its label and task-aware strategies can recognize
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .checks import count
from .core_env import Environment, WrapperSpec, wrap_all
from .envs import CartPole, CartPoleParams, InvalidParams


class EmptySpecList(ValueError):
    pass


class BadOrderIndex(ValueError):
    pass


@dataclass(frozen=True)
class RLExperience:
    """One segment of the stream: an environment factory plus its task label."""

    env_factory: Callable[[], Environment]
    task_label: int
    n_envs: int = 1
    experience_index: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        count(self.n_envs, "n_envs")


@dataclass(frozen=True)
class RLScenario:
    train_stream: tuple[RLExperience, ...]
    eval_stream: tuple[RLExperience, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "train_stream", tuple(self.train_stream))
        object.__setattr__(self, "eval_stream", tuple(self.eval_stream))
        for i, exp in enumerate(self.train_stream):
            if exp.experience_index != i:
                raise ValueError("train_stream experience_index values must be 0..len-1")

    @property
    def n_experiences(self) -> int:
        return len(self.train_stream)


def experiences(
    entries: Iterable[tuple[Callable[[], Environment], int, str]], n_envs: int
) -> tuple[RLExperience, ...]:
    """One experience per (env_factory, task_label, name) entry, indexed in order."""
    return tuple(
        RLExperience(factory, label, n_envs, experience_index=i, name=name)
        for i, (factory, label, name) in enumerate(entries)
    )


@dataclass(frozen=True)
class EnvSpec:
    """Named environment constructor with optional wrappers (outermost last)."""

    name: str
    factory: Callable[[], Environment]
    wrappers: tuple[WrapperSpec, ...] = ()

    def build(self) -> Environment:
        return wrap_all(self.factory(), self.wrappers)


@dataclass(frozen=True)
class Explicit:
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))


@dataclass(frozen=True)
class RandomSample:
    seed: int


def gym_benchmark_generator(
    env_specs: Sequence[EnvSpec],
    n_experiences: int,
    order: Explicit | RandomSample,
    n_parallel_envs: int = 1,
) -> RLScenario:
    """Build a scenario from named env constructors.

    Explicit orders index into env_specs; RandomSample draws i.i.d. uniform
    indices from a seeded generator. The eval stream holds one single-actor
    experience per spec.
    """
    specs = list(env_specs)
    if not specs:
        raise EmptySpecList("env_specs must be non-empty")
    if isinstance(order, Explicit):
        indices = list(order.indices)
        if len(indices) != n_experiences:
            raise BadOrderIndex(
                f"explicit order has {len(indices)} entries for {n_experiences} experiences"
            )
        for idx in indices:
            if idx < 0 or idx >= len(specs):
                raise BadOrderIndex(f"order index {idx} outside 0..{len(specs) - 1}")
    else:
        rng = np.random.default_rng(order.seed)
        indices = [int(i) for i in rng.integers(0, len(specs), size=n_experiences)]

    train = experiences(((specs[i].build, i, specs[i].name) for i in indices), n_parallel_envs)
    evals = experiences(((spec.build, i, spec.name) for i, spec in enumerate(specs)), n_envs=1)
    return RLScenario(train_stream=train, eval_stream=evals)


def continual_control_generator(
    base: CartPoleParams,
    schedule: Sequence[dict],
    n_parallel_envs: int = 1,
) -> RLScenario:
    """One cart-pole experience per parameter override; labels follow schedule order."""
    if not schedule:
        raise EmptySpecList("schedule must be non-empty")
    variants = []
    for i, overrides in enumerate(schedule):
        try:
            params = base.override(**overrides)
            # params itself tolerates gravity == 0 (degenerate fixed-point setups);
            # a control *benchmark* with a free-floating pole is a config mistake.
            if params.gravity <= 0:
                raise InvalidParams(f"gravity must be > 0, got {params.gravity}")
        except (TypeError, ValueError) as err:
            raise type(err)(f"schedule[{i}]: {err}") from err
        variants.append(params)

    entries = [
        (partial(CartPole, params), i, f"cartpole_variant_{i}") for i, params in enumerate(variants)
    ]
    return RLScenario(
        train_stream=experiences(entries, n_parallel_envs), eval_stream=experiences(entries, n_envs=1)
    )
