"""Task/scene streaming on top of gridworld scenes.

A Task bundles what varies between objectives — the reward function, the
goal test, and the action space — while the environment object stays the
same. A TaskIterator schedules tasks over step/episode durations, a
SceneManager swaps GridScenes under a policy (possibly mid-episode), and
task_stream_benchmark_generator turns both configs into an RLScenario whose
experiences are all views over one shared TaskStreamEnv instance.

Because the stream is one continuous interaction, the shared env's reset()
is soft: a reset request that arrives while an episode is still running
(i.e. at an experience boundary that landed mid-episode) keeps the agent
exactly where it is. Scene swaps never rebuild the env; if the agent's cell
is invalid in the new scene it is moved to that scene's start.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .benchmarks import RLScenario, experiences
from .checks import Count, finite
from .core_env import Discrete, Environment, Space
from .envs import GridScene, GridWorld


class TaskStreamConfigError(ValueError):
    """Invalid task/scene stream configuration; message names the culprit."""


class StreamExhausted(RuntimeError):
    """The task schedule has no further tasks (or segments) to serve."""


class GridState(NamedTuple):
    """World state handed to reward_fn/goal_test: where the agent is and
    which scene it is in."""

    position: tuple[int, int]
    scene: GridScene


@dataclass(frozen=True)
class Task:
    name: str
    reward_fn: Callable[[GridState, int, GridState], float]
    goal_test: Callable[[GridState], bool]
    action_space: Space
    on_activate: Optional[Callable[[object], None]] = None


class MaxSteps(Count):
    """A task that lasts n env steps."""

    error = TaskStreamConfigError


class MaxEpisodes(Count):
    """A task that lasts n episodes."""

    error = TaskStreamConfigError


def _schedule_ends(
    tasks: Sequence[Task], durations: Sequence[MaxSteps | MaxEpisodes]
) -> tuple[type, list[int]]:
    """The schedule's one unit (MaxSteps or MaxEpisodes) and the count of
    that unit at which each task ends: task t covers [ends[t - 1], ends[t])."""
    if not tasks:
        raise TaskStreamConfigError("need at least one task")
    if len(tasks) != len(durations):
        raise TaskStreamConfigError(
            f"{len(tasks)} tasks but {len(durations)} durations"
        )
    for unit in (MaxSteps, MaxEpisodes):
        if all(isinstance(d, unit) for d in durations):
            return unit, list(accumulate(d.n for d in durations))
    raise TaskStreamConfigError(
        "all task durations must use the same unit (all episodes or all steps)"
    )


class TaskIterator:
    """Serves the active task given monotone step/episode counters.

    Every duration counts the same unit, and the task whose span holds that
    unit's counter is active; when the last task's duration is exhausted the
    stream ends (no wrap-around). on_activate of each newly active task
    fires, in order, with the bound environment (None if unbound).
    """

    def __init__(
        self,
        tasks: Sequence[Task],
        durations: Sequence[MaxSteps | MaxEpisodes],
        env: Optional[object] = None,
    ):
        self._unit, self._ends = _schedule_ends(tasks, durations)
        self.tasks = list(tasks)
        self.env = env
        self.cursor = 0

    @property
    def active_task(self) -> Task:
        return self.tasks[self.cursor]

    def current_task(self, steps_taken: int, episodes_done: int) -> tuple[Task, bool]:
        used = steps_taken if self._unit is MaxSteps else episodes_done
        reached = bisect_right(self._ends, used)
        target = min(reached, len(self.tasks) - 1)
        changed = self.cursor < target
        while self.cursor < target:
            self.cursor += 1
            task = self.tasks[self.cursor]
            if task.on_activate is not None:
                task.on_activate(self.env)
        if reached == len(self.tasks):
            raise StreamExhausted(
                f"task schedule exhausted after {steps_taken} steps / "
                f"{episodes_done} episodes"
            )
        return self.tasks[self.cursor], changed


class SwapEvent(enum.Enum):
    TASK_CHANGED = "task_changed"
    EPISODE_ENDED = "episode_ended"
    STEP_TAKEN = "step_taken"


@dataclass(frozen=True)
class OnTaskChange:
    pass


class EveryNEpisodes(Count):
    """Swap the scene after every n finished episodes."""

    error = TaskStreamConfigError


class EveryNSteps(Count):
    """Swap the scene after every n env steps."""

    error = TaskStreamConfigError


class SceneManager:
    """Cycles through scenes whenever the configured event fires often
    enough. All scenes must share one grid size so observations keep their
    shape across swaps."""

    def __init__(
        self,
        scenes: Sequence[GridScene],
        swap_policy: OnTaskChange | EveryNEpisodes | EveryNSteps,
    ):
        if not scenes:
            raise TaskStreamConfigError("SceneManager needs at least one scene")
        first = scenes[0]
        for i, scene in enumerate(scenes):
            if (scene.width, scene.height) != (first.width, first.height):
                raise TaskStreamConfigError(
                    f"scene {i} is {scene.width}x{scene.height}, expected "
                    f"{first.width}x{first.height} (all scenes must match)"
                )
        self.scenes = list(scenes)
        self.swap_policy = swap_policy
        self.active_index = 0
        self._count = 0

    @property
    def active_scene(self) -> GridScene:
        return self.scenes[self.active_index]

    def maybe_swap(self, event: SwapEvent) -> tuple[GridScene, bool]:
        policy = self.swap_policy
        if isinstance(policy, OnTaskChange):
            should = event is SwapEvent.TASK_CHANGED
        else:
            episodic = isinstance(policy, EveryNEpisodes)
            if event is (SwapEvent.EPISODE_ENDED if episodic else SwapEvent.STEP_TAKEN):
                self._count += 1
            should = self._count >= policy.n
        if should:
            self._count = 0
            self.active_index = (self.active_index + 1) % len(self.scenes)
        return self.scenes[self.active_index], should


class TaskStreamEnv(GridWorld):
    """Gridworld whose reward/termination are delegated to the active Task
    and whose scene can be replaced in flight.

    reset() only restarts an episode when there is none running; an
    experience boundary that lands mid-episode therefore keeps the agent's
    position, per the stream-continuity contract. Episode length is capped
    by the active scene's max_steps.
    """

    def __init__(self, scene: GridScene, task: Task):
        super().__init__(scene)
        self._task = None
        self.set_active_task(task)

    @property
    def active_task(self) -> Task:
        return self._task

    @property
    def active_scene(self) -> GridScene:
        return self.scene

    def set_active_task(self, task: Task) -> None:
        if task is self._task:
            return
        self._task = task
        self.action_space = task.action_space
        if task.on_activate is not None:
            task.on_activate(self)

    def set_active_scene(self, scene: GridScene) -> None:
        if scene is self.scene:
            return
        if (scene.width, scene.height) != (self.scene.width, self.scene.height):
            raise TaskStreamConfigError(
                "replacement scene must match the current grid size"
            )
        self.scene = scene
        if self._started and not self._done:
            # mid-episode swap: keep the agent where it is when possible
            if not scene.passable(self._pos):
                self._pos = scene.start

    def reset(self, seed: int | None = None) -> np.ndarray:
        if self._started and not self._done:
            return self._obs()
        return super().reset(seed)

    def _advance(self, action) -> tuple[int, float, bool]:
        """The grid's move, with reward and done from the active task."""
        scene, task = self.scene, self._task
        state = GridState(self._pos, scene)
        index, _, _ = GridWorld._advance(self, action)
        next_state = GridState(self._pos, scene)
        reward = float(task.reward_fn(state, int(action), next_state))
        self._done = done = bool(task.goal_test(next_state)) or self._steps >= scene.max_steps
        return index, reward, done


# ---------------------------------------------------------------------------
# Task type registry: maps a type name and its parameters onto a Task, with
# strict parameter validation (unknown keys are errors).
# ---------------------------------------------------------------------------


def _make_reach_goal(step_reward: float, goal_reward: float) -> tuple:
    def reward_fn(state: GridState, action: int, next_state: GridState) -> float:
        if next_state.position == next_state.scene.goal:
            return goal_reward
        return step_reward

    def goal_test(state: GridState) -> bool:
        return state.position == state.scene.goal

    return reward_fn, goal_test


def _make_survive(step_reward: float) -> tuple:
    def reward_fn(state: GridState, action: int, next_state: GridState) -> float:
        return step_reward

    def goal_test(state: GridState) -> bool:
        return False

    return reward_fn, goal_test


TASK_TYPES: dict[str, dict[str, float]] = {
    "reach_goal": {"step_reward": -0.01, "goal_reward": 1.0},
    "survive": {"step_reward": 0.01},
}


def build_task(type_name: str, name: str = "", **params) -> Task:
    if type_name not in TASK_TYPES:
        raise TaskStreamConfigError(
            f"unknown task type {type_name!r}; available: {sorted(TASK_TYPES)}"
        )
    schema = TASK_TYPES[type_name]
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise TaskStreamConfigError(
            f"task type {type_name!r} got unknown parameter(s) {unknown}; "
            f"declared: {sorted(schema)}"
        )
    values = {**schema, **{k: float(finite(v, k, TaskStreamConfigError)) for k, v in params.items()}}
    if type_name == "reach_goal":
        reward_fn, goal_test = _make_reach_goal(values["step_reward"], values["goal_reward"])
    else:
        reward_fn, goal_test = _make_survive(values["step_reward"])
    return Task(
        name=name or type_name,
        reward_fn=reward_fn,
        goal_test=goal_test,
        action_space=Discrete(4),
    )


# ---------------------------------------------------------------------------
# Generator: enumerate (task, scene) segments and wrap them as experiences
# over one shared environment instance.
# ---------------------------------------------------------------------------


def _enumerate_segments(
    ends: Sequence[int],
    n_scenes: int,
    swap_policy: OnTaskChange | EveryNEpisodes | EveryNSteps,
) -> list[tuple[int, int, int]]:
    """(task_idx, scene_idx, length) segments of a schedule whose tasks end
    at `ends`. Under OnTaskChange task t plays scene t mod n_scenes; under an
    EveryN* policy of period n, unit u plays scene (u // n) mod n_scenes. So a
    segment ends at each task end and, with more than one scene, at each
    multiple of n: the cost grows with the segments, not the schedule's length."""
    period = None if isinstance(swap_policy, OnTaskChange) else swap_policy.n
    cuts = set(ends)
    if period is not None and n_scenes > 1:
        cuts.update(range(period, ends[-1], period))
    segments, start = [], 0
    for cut in sorted(cuts):
        task = bisect_right(ends, start)
        scene = task if period is None else start // period
        segments.append((task, scene % n_scenes, cut - start))
        start = cut
    return segments


def task_stream_benchmark_generator(
    tasks: Sequence[Task],
    durations: Sequence[MaxSteps | MaxEpisodes],
    scenes: Sequence[GridScene],
    swap_policy: OnTaskChange | EveryNEpisodes | EveryNSteps = OnTaskChange(),
    n_experiences: Optional[int] = None,
) -> RLScenario:
    """One experience per contiguous (task, scene) segment of the schedule.

    Every train experience's factory returns the SAME TaskStreamEnv object,
    with the segment's task/scene installed at build time; segment lengths
    describe the schedule the configs imply, while actual training time per
    experience is governed by the strategy's budget. The eval stream holds a
    fresh, independent env per distinct (task, scene) pair. The swap policy
    must count the durations' unit (OnTaskChange counts neither).
    """
    unit, ends = _schedule_ends(tasks, durations)
    wrong = EveryNSteps if unit is MaxEpisodes else EveryNEpisodes
    if isinstance(swap_policy, wrong):
        raise TaskStreamConfigError(
            f"{wrong.__name__} swap policy cannot be scheduled against "
            f"{'episode' if unit is MaxEpisodes else 'step'} durations"
        )
    scenes = SceneManager(scenes, swap_policy).scenes  # non-empty, one grid size
    segments = _enumerate_segments(ends, len(scenes), swap_policy)
    if n_experiences is not None:
        if n_experiences > len(segments):
            raise StreamExhausted(
                f"schedule implies {len(segments)} experiences, "
                f"{n_experiences} requested"
            )
        segments = segments[:n_experiences]

    shared = TaskStreamEnv(scenes[0], tasks[0])

    def make_factory(task: Task, scene: GridScene) -> Callable[[], Environment]:
        def factory() -> Environment:
            shared.set_active_task(task)
            shared.set_active_scene(scene)
            return shared

        return factory

    train = experiences(
        ((make_factory(tasks[t], scenes[s]), t, f"{tasks[t].name}/scene{s}(len={length})")
         for t, s, length in segments),
        n_envs=1,
    )
    pairs = dict.fromkeys((t, s) for t, s, _ in segments)
    eval_exps = experiences(
        ((partial(TaskStreamEnv, scenes[s], tasks[t]), t, f"eval/{tasks[t].name}/scene{s}")
         for t, s in pairs),
        n_envs=1,
    )
    return RLScenario(train_stream=train, eval_stream=eval_exps)
