"""Task scheduling, scene swapping, and the shared-env stream generator."""

import numpy as np
import pytest

from streamrl import vec_env
from streamrl.core_env import Discrete
from streamrl.envs import GridScene, one_hot_cell, parse_scene
from streamrl.nn import Adam, Mlp
from streamrl.task_stream import (
    EveryNEpisodes,
    EveryNSteps,
    GridState,
    MaxEpisodes,
    MaxSteps,
    OnTaskChange,
    SceneManager,
    StreamExhausted,
    SwapEvent,
    Task,
    TaskIterator,
    TaskStreamConfigError,
    TaskStreamEnv,
    build_task,
    task_from_config,
    task_stream_benchmark_generator,
)
from streamrl.training import DqnStrategy, Steps, StrategyPlugin, TrainingBudget

SCENE = GridScene(3, 3, goal=(2, 2), max_steps=10)
SCENE_ALT = GridScene(3, 3, goal=(0, 2), max_steps=10)


def named_task(name, reward=0.0, goal_test=None, on_activate=None):
    return Task(
        name=name,
        reward_fn=lambda s, a, ns: reward,
        goal_test=goal_test or (lambda s: False),
        action_space=Discrete(4),
        on_activate=on_activate,
    )


# ---------------------------------------------------------------------------
# TaskIterator
# ---------------------------------------------------------------------------


def test_single_task_never_changes():
    it = TaskIterator([named_task("only")], [MaxEpisodes(10**6)])
    for episodes in (0, 5, 999_999):
        task, changed = it.current_task(0, episodes)
        assert task.name == "only"
        assert not changed


def test_episode_duration_boundary():
    it = TaskIterator(
        [named_task("first"), named_task("second")],
        [MaxEpisodes(2), MaxEpisodes(2)],
    )
    assert it.current_task(0, 0) == (it.tasks[0], False)
    assert it.current_task(0, 1) == (it.tasks[0], False)
    task, changed = it.current_task(0, 2)  # third episode starts
    assert task.name == "second"
    assert changed


def test_step_duration_boundary_mid_episode():
    it = TaskIterator(
        [named_task("first"), named_task("second")],
        [MaxSteps(5), MaxSteps(5)],
    )
    assert it.current_task(4, 0)[0].name == "first"
    task, changed = it.current_task(5, 0)  # sixth step, episode still going
    assert task.name == "second"
    assert changed


def test_stream_exhausted_after_last_duration():
    it = TaskIterator([named_task("only")], [MaxEpisodes(2)])
    it.current_task(0, 1)
    with pytest.raises(StreamExhausted):
        it.current_task(0, 2)


def test_on_activate_receives_bound_env():
    seen = []
    tasks = [named_task("a"), named_task("b", on_activate=seen.append)]
    sentinel = object()
    it = TaskIterator(tasks, [MaxEpisodes(1), MaxEpisodes(1)], env=sentinel)
    it.current_task(0, 1)
    assert seen == [sentinel]


def test_iterator_config_validation():
    with pytest.raises(TaskStreamConfigError):
        TaskIterator([], [])
    with pytest.raises(TaskStreamConfigError):
        TaskIterator([named_task("a")], [MaxEpisodes(1), MaxEpisodes(1)])
    with pytest.raises(TaskStreamConfigError):
        MaxEpisodes(0)
    with pytest.raises(TaskStreamConfigError):
        MaxSteps(0)


# ---------------------------------------------------------------------------
# SceneManager
# ---------------------------------------------------------------------------


def test_on_task_change_ignores_other_events():
    mgr = SceneManager([SCENE, SCENE_ALT], OnTaskChange())
    for _ in range(20):
        scene, swapped = mgr.maybe_swap(SwapEvent.STEP_TAKEN)
        assert not swapped
        scene, swapped = mgr.maybe_swap(SwapEvent.EPISODE_ENDED)
        assert not swapped
    assert mgr.active_scene is SCENE


def test_on_task_change_swaps_on_task_change():
    mgr = SceneManager([SCENE, SCENE_ALT], OnTaskChange())
    scene, swapped = mgr.maybe_swap(SwapEvent.TASK_CHANGED)
    assert swapped
    assert scene is SCENE_ALT


def test_every_n_episodes_counts_exactly():
    mgr = SceneManager([SCENE, SCENE_ALT], EveryNEpisodes(2))
    swaps = []
    for episode in range(1, 7):
        _, swapped = mgr.maybe_swap(SwapEvent.EPISODE_ENDED)
        if swapped:
            swaps.append(episode)
    assert swaps == [2, 4, 6]


def test_every_n_steps_counts_exactly():
    mgr = SceneManager([SCENE, SCENE_ALT], EveryNSteps(3))
    results = [mgr.maybe_swap(SwapEvent.STEP_TAKEN)[1] for _ in range(6)]
    assert results == [False, False, True, False, False, True]


def test_scene_cycle_wraps_around():
    mgr = SceneManager([SCENE, SCENE_ALT], EveryNEpisodes(1))
    order = [mgr.maybe_swap(SwapEvent.EPISODE_ENDED)[0] for _ in range(3)]
    assert order == [SCENE_ALT, SCENE, SCENE_ALT]


def test_scene_sizes_must_match():
    with pytest.raises(TaskStreamConfigError):
        SceneManager([SCENE, GridScene(4, 4, goal=(3, 3))], OnTaskChange())
    with pytest.raises(TaskStreamConfigError):
        SceneManager([], OnTaskChange())


def test_swap_policy_validation():
    with pytest.raises(TaskStreamConfigError):
        EveryNEpisodes(0)
    with pytest.raises(TaskStreamConfigError):
        EveryNSteps(0)


# ---------------------------------------------------------------------------
# TaskStreamEnv
# ---------------------------------------------------------------------------


def test_reset_is_soft_mid_episode():
    env = TaskStreamEnv(SCENE, build_task("survive"))
    env.reset()
    env.step(3)  # move right
    pos = env.position
    obs = env.reset()  # episode still running: nothing moves
    assert env.position == pos
    assert np.array_equal(obs, one_hot_cell(pos, 3, 3))


def test_reset_restarts_after_done():
    scene = GridScene(3, 3, goal=(2, 2), max_steps=2)
    env = TaskStreamEnv(scene, build_task("survive"))
    env.reset()
    env.step(3)
    result = env.step(3)
    assert result.done  # max_steps cap
    env.reset()
    assert env.position == scene.start


def test_reward_and_termination_delegate_to_task():
    calls = []

    def spy_reward(state, action, next_state):
        calls.append((state.position, action, next_state.position))
        return 42.0

    task = Task("spy", spy_reward, lambda s: s.position == (1, 0), Discrete(4))
    env = TaskStreamEnv(SCENE, task)
    env.reset()
    result = env.step(3)
    assert result.reward == 42.0
    assert result.done  # goal_test satisfied at (1, 0)
    assert calls == [((0, 0), 3, (1, 0))]
    assert isinstance(calls[0], tuple)
    # GridState hands the scene along with the position
    state = GridState((0, 0), SCENE)
    assert state.scene.goal == (2, 2)


def test_reach_goal_task_semantics():
    env = TaskStreamEnv(SCENE, build_task("reach_goal"))
    env.reset()
    assert env.step(3).reward == -0.01
    env.step(3)
    env.step(1)
    result = env.step(1)  # arrives at (2, 2)
    assert result.reward == 1.0
    assert result.done


def test_walls_block_movement():
    scene = parse_scene("S#.\n...\n..G", max_steps=10)
    env = TaskStreamEnv(scene, build_task("survive"))
    env.reset()
    env.step(3)  # into the wall
    assert env.position == (0, 0)


def test_scene_swap_keeps_position_when_passable():
    env = TaskStreamEnv(SCENE, build_task("survive"))
    env.reset()
    env.step(3)
    env.set_active_scene(SCENE_ALT)
    assert env.active_scene is SCENE_ALT
    assert env.position == (1, 0)


def test_scene_swap_clamps_to_start_when_blocked():
    blocked = parse_scene(".#S\n...\n..G", max_steps=10)
    env = TaskStreamEnv(SCENE, build_task("survive"))
    env.reset()
    env.step(3)  # now at (1, 0), a wall in `blocked`
    env.set_active_scene(blocked)
    assert env.position == blocked.start  # (2, 0)


def test_scene_swap_rejects_size_mismatch():
    env = TaskStreamEnv(SCENE, build_task("survive"))
    with pytest.raises(TaskStreamConfigError):
        env.set_active_scene(GridScene(4, 4, goal=(3, 3)))


def test_task_swap_fires_on_activate_once():
    fired = []
    t1 = named_task("one")
    t2 = named_task("two", on_activate=lambda env: fired.append(env))
    env = TaskStreamEnv(SCENE, t1)
    env.set_active_task(t2)
    assert fired == [env]
    env.set_active_task(t2)  # same task object: no refire
    assert len(fired) == 1


# ---------------------------------------------------------------------------
# Task registry / config entries
# ---------------------------------------------------------------------------


def test_build_task_defaults_and_overrides():
    default = build_task("reach_goal")
    assert default.name == "reach_goal"
    state = GridState((2, 2), SCENE)
    assert default.goal_test(state)
    assert default.reward_fn(state, 0, GridState((0, 0), SCENE)) == -0.01

    custom = build_task("survive", name="coast", step_reward=0.5)
    assert custom.name == "coast"
    assert custom.reward_fn(state, 0, state) == 0.5
    assert not custom.goal_test(state)


def test_build_task_rejects_unknowns():
    with pytest.raises(TaskStreamConfigError, match="unknown task type"):
        build_task("fly")
    with pytest.raises(TaskStreamConfigError, match="unknown parameter"):
        build_task("survive", goal_reward=2.0)


@pytest.mark.parametrize("make", [MaxSteps, MaxEpisodes])
@pytest.mark.parametrize("n", [2.7, True, "5"])
def test_durations_must_be_integers(make, n):
    with pytest.raises(TaskStreamConfigError, match="integer"):
        make(n)


@pytest.mark.parametrize("value", ["5", True, None, float("nan")])
def test_build_task_rejects_non_number_params(value):
    with pytest.raises(TaskStreamConfigError, match="step_reward"):
        build_task("survive", step_reward=value)


def test_task_from_config_round_trip():
    task, duration = task_from_config(
        {"name": "walk", "type": "reach_goal", "duration": {"episodes": 3},
         "params": {"step_reward": -0.1}}
    )
    assert task.name == "walk"
    assert duration == MaxEpisodes(3)
    assert task.reward_fn(GridState((0, 0), SCENE), 0, GridState((1, 0), SCENE)) == -0.1

    _, steps = task_from_config({"type": "survive", "duration": {"steps": 7}})
    assert steps == MaxSteps(7)


@pytest.mark.parametrize(
    "entry",
    [
        {"type": "survive"},  # missing duration
        {"duration": {"steps": 1}},  # missing type
        {"type": "survive", "duration": {"steps": 1}, "extra": 1},
        {"type": "survive", "duration": {"steps": 1, "episodes": 1}},
        {"type": "survive", "duration": "steps"},
        {"type": "survive", "duration": {"minutes": 5}},
    ],
)
def test_task_from_config_rejects_bad_entries(entry):
    with pytest.raises(TaskStreamConfigError):
        task_from_config(entry)


# ---------------------------------------------------------------------------
# Stream generator
# ---------------------------------------------------------------------------


def two_task_schedule():
    return [build_task("reach_goal"), build_task("survive")], [MaxEpisodes(2), MaxEpisodes(2)]


def test_generator_one_experience_per_segment():
    tasks, durations = two_task_schedule()
    scn = task_stream_benchmark_generator(tasks, durations, [SCENE])
    assert len(scn.train_stream) == 2
    assert [e.task_label for e in scn.train_stream] == [0, 1]
    assert scn.train_stream[0].name == "reach_goal/scene0(len=2)"
    assert scn.train_stream[1].name == "survive/scene0(len=2)"


def test_generator_scene_alternation():
    scn = task_stream_benchmark_generator(
        [build_task("survive")], [MaxEpisodes(4)], [SCENE, SCENE_ALT],
        swap_policy=EveryNEpisodes(1),
    )
    assert len(scn.train_stream) == 4
    assert [e.task_label for e in scn.train_stream] == [0, 0, 0, 0]
    scenes = [e.env_factory().active_scene for e in scn.train_stream]
    assert scenes == [SCENE, SCENE_ALT, SCENE, SCENE_ALT]


def test_generator_shares_one_env_instance():
    tasks, durations = two_task_schedule()
    scn = task_stream_benchmark_generator(tasks, durations, [SCENE])
    env0 = scn.train_stream[0].env_factory()
    env1 = scn.train_stream[1].env_factory()
    assert env0 is env1
    assert env1.active_task is tasks[1]  # factory installed the segment's task


def test_generator_env_state_survives_experience_boundary():
    tasks, durations = two_task_schedule()
    scn = task_stream_benchmark_generator(tasks, durations, [SCENE])
    env = scn.train_stream[0].env_factory()
    env.reset()
    env.step(3)
    env2 = scn.train_stream[1].env_factory()
    env2.reset()  # soft: the running episode carries across the boundary
    assert env2.position == (1, 0)


def test_generator_eval_envs_are_fresh_and_distinct():
    tasks, durations = two_task_schedule()
    scn = task_stream_benchmark_generator(tasks, durations, [SCENE])
    assert len(scn.eval_stream) == 2
    assert [e.task_label for e in scn.eval_stream] == [0, 1]
    a, b = scn.eval_stream[0].env_factory(), scn.eval_stream[0].env_factory()
    assert a is not b
    assert a is not scn.train_stream[0].env_factory()


def test_generator_truncates_and_validates_n_experiences():
    tasks, durations = two_task_schedule()
    scn = task_stream_benchmark_generator(tasks, durations, [SCENE], n_experiences=1)
    assert len(scn.train_stream) == 1
    with pytest.raises(StreamExhausted):
        task_stream_benchmark_generator(tasks, durations, [SCENE], n_experiences=3)


def test_generator_config_errors():
    tasks, durations = two_task_schedule()
    with pytest.raises(TaskStreamConfigError):
        task_stream_benchmark_generator(tasks, durations, [SCENE], n_envs=2)
    with pytest.raises(TaskStreamConfigError):
        task_stream_benchmark_generator([], [], [SCENE])
    with pytest.raises(TaskStreamConfigError):
        task_stream_benchmark_generator(tasks, [MaxEpisodes(1)], [SCENE])
    with pytest.raises(TaskStreamConfigError):
        task_stream_benchmark_generator(
            tasks, [MaxEpisodes(1), MaxSteps(5)], [SCENE]
        )
    with pytest.raises(TaskStreamConfigError):
        task_stream_benchmark_generator(
            tasks, durations, [SCENE, SCENE_ALT], swap_policy=EveryNSteps(2)
        )
    with pytest.raises(TaskStreamConfigError):
        task_stream_benchmark_generator(
            tasks, [MaxSteps(4), MaxSteps(4)], [SCENE, SCENE_ALT],
            swap_policy=EveryNEpisodes(1),
        )


def test_generator_step_durations_with_step_swaps():
    scn = task_stream_benchmark_generator(
        [build_task("survive")], [MaxSteps(4)], [SCENE, SCENE_ALT],
        swap_policy=EveryNSteps(2),
    )
    assert len(scn.train_stream) == 2
    scenes = [e.env_factory().active_scene for e in scn.train_stream]
    assert scenes == [SCENE, SCENE_ALT]


def test_strategy_trains_over_task_stream():
    tasks, durations = two_task_schedule()
    scn = task_stream_benchmark_generator(tasks, durations, [SCENE])
    model = Mlp([9, 8, 4], heads={"q_values": 4}, seed=0)
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(2, Steps(2)), batch_size=2)
    report = strat.train(scn, [])
    assert [e.task_label for e in report.experiences] == [0, 1]
    assert report.total_env_steps == 8


class CellAtExperienceEdges(StrategyPlugin):
    """The agent's cell where each training experience starts and stops."""

    def __init__(self):
        self.starts, self.stops = [], []

    def before_training_exp(self, strategy):
        self.starts.append(strategy.venv.actors[0].env.position)
        assert np.array_equal(strategy.current_obs[0], one_hot_cell(self.starts[-1], 3, 3))

    def after_training_exp(self, strategy):
        self.stops.append(strategy.venv.actors[0].env.position)


def swapping_stream():
    return task_stream_benchmark_generator(
        [build_task("survive")], [MaxSteps(12)], [SCENE, SCENE_ALT], swap_policy=EveryNSteps(3)
    )


def dqn(**kwargs):
    model = Mlp([9, 8, 4], heads={"q_values": 4}, seed=0)
    return DqnStrategy(model, Adam(1e-3), TrainingBudget(2, Steps(2)), batch_size=2, **kwargs)


def test_serial_stream_starts_each_experience_where_the_last_stopped():
    edges = CellAtExperienceEdges()
    report = dqn().train(swapping_stream(), [edges])
    assert len(report.experiences) == 4
    assert edges.starts[1:] == edges.stops[:-1]
    assert any(cell != SCENE.start for cell in edges.stops[:-1])  # the carry is visible


def test_parallel_mode_refuses_the_shared_stream_env_before_any_worker(monkeypatch):
    monkeypatch.setattr(vec_env.mp, "get_context", None)  # no worker may start
    with pytest.raises(ValueError, match="new env for every replica"):
        dqn(vec_mode="parallel").train(swapping_stream(), [])
