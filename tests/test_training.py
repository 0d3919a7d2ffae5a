"""Strategy engine: rollout/update loop, hooks, DQN family, A2C."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from streamrl.benchmarks import EnvSpec, Explicit, RLExperience, RLScenario, gym_benchmark_generator
from streamrl.core_env import (
    ActionOutOfSpace,
    ActionRemap,
    FrameStack,
    ObservationNormalize,
    RewardClip,
    TimeLimit,
    wrap,
)
from streamrl.envs import (
    GRID_MOVES, Bandit, BanditParams, CartPoleParams, CartPole, GridScene, GridWorld, parse_scene,
)
from streamrl.evaluation import MetricsCollector
from streamrl.nn import (
    Adam,
    Mlp,
    NonFinite,
    Sgd,
    entropy_loss,
    mse_loss,
    policy_gradient_loss,
    softmax,
)
from streamrl.plugins import EwcPlugin
from streamrl.task_stream import MaxEpisodes, build_task, task_stream_benchmark_generator
from streamrl.training import (
    A2cStrategy,
    DqnStrategy,
    EmptyRollout,
    EmptyStream,
    Episodes,
    EvalResult,
    InsufficientReplay,
    InvalidEpisodeCount,
    Rollout,
    Steps,
    StrategyPlugin,
    TrainingBudget,
    Transitions,
    compute_dqn_targets,
    compute_nstep_returns,
)
from streamrl.training.base import EVAL_LANES, HOOKS
from streamrl.training.dqn import ReplayBuffer
from streamrl.vec_env import EPISODE_SEED_STRIDE, VectorizedEnv
from test_nn import old_entropy_loss, old_mse_loss, old_policy_gradient_loss, old_softmax
from test_transitions import by_actor, rollout_of

SPEC_A = EnvSpec("grid_a", lambda: GridWorld(GridScene(5, 5)))
SPEC_B = EnvSpec("grid_b", lambda: GridWorld(GridScene(5, 5, goal=(0, 4))))


def make_steps(values, action=0, reward=0.0, done=False, label=0, dim=2):
    """One transition per value, with obs filled with the value."""
    obs = np.repeat(np.asarray(values, dtype=float)[:, None], dim, axis=1)
    n = len(obs)
    return Transitions(obs=obs, action=np.full(n, action), reward=np.full(n, reward),
                       done=np.full(n, done), next_obs=obs + 1, task_label=np.full(n, label))


def make_step(value=0.0, **kwargs):
    return make_steps([value], **kwargs)


def dqn_model(obs_dim=25, n_actions=4, hidden=(8,), seed=0):
    sizes = [obs_dim, *hidden, n_actions]
    return Mlp(sizes, heads={"q_values": n_actions}, seed=seed)


def a2c_model(obs_dim=4, n_actions=2, hidden=(8,), seed=0):
    sizes = [obs_dim, *hidden, n_actions + 1]
    return Mlp(sizes, heads={"policy_logits": n_actions, "value": 1}, seed=seed)


# ---------------------------------------------------------------------------
# DQN target computation
# ---------------------------------------------------------------------------


def test_dqn_target_terminal():
    y = compute_dqn_targets(
        np.array([1.0]), np.array([1.0]), np.array([[5.0, 7.0]]), gamma=0.9
    )
    assert np.array_equal(y, np.array([1.0]))


def test_dqn_target_bootstraps_max():
    y = compute_dqn_targets(
        np.array([0.0]), np.array([0.0]), np.array([[1.0, 2.0]]), gamma=0.9
    )
    assert np.allclose(y, np.array([1.8]))


def test_double_dqn_uses_online_argmax():
    q_target = np.array([[1.0, 2.0]])
    q_online = np.array([[3.0, 0.0]])  # online prefers action 0
    y = compute_dqn_targets(
        np.array([0.0]), np.array([0.0]), q_target, 0.9, q_online, double=True
    )
    assert np.allclose(y, np.array([0.9]))  # target's value for action 0
    vanilla = compute_dqn_targets(np.array([0.0]), np.array([0.0]), q_target, 0.9)
    assert np.allclose(vanilla, np.array([1.8]))


def test_double_requires_online_q():
    with pytest.raises(ValueError):
        compute_dqn_targets(
            np.zeros(1), np.zeros(1), np.ones((1, 2)), 0.9, None, double=True
        )


def test_dqn_targets_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        rewards = rng.normal(size=n)
        dones = rng.integers(0, 2, size=n).astype(float)
        q_t = rng.normal(size=(n, k))
        q_o = rng.normal(size=(n, k))
        gamma = float(rng.uniform(0, 1))
        for double in (False, True):
            got = compute_dqn_targets(rewards, dones, q_t, gamma, q_o, double)
            for i in range(n):
                if double:
                    boot = q_t[i][int(np.argmax(q_o[i]))]
                else:
                    boot = max(q_t[i])
                want = rewards[i] + gamma * (1.0 - dones[i]) * boot
                assert abs(got[i] - want) <= 1e-12


# ---------------------------------------------------------------------------
# n-step returns
# ---------------------------------------------------------------------------


def test_nstep_returns_terminal_tail():
    got = compute_nstep_returns([1.0, 1.0, 1.0], [False, False, True], 99.0, 0.5)
    assert np.allclose(got, [1.75, 1.5, 1.0])


def test_nstep_returns_bootstrap():
    got = compute_nstep_returns([0.0], [False], 2.0, 0.9)
    assert np.allclose(got, [1.8])


def test_nstep_returns_done_cuts_chain():
    got = compute_nstep_returns([1.0, 5.0, 1.0], [False, True, False], 10.0, 0.5)
    # episode boundary after step 1: step 2 bootstraps, steps 0-1 do not see it
    assert np.allclose(got, [1.0 + 0.5 * 5.0, 5.0, 1.0 + 0.5 * 10.0])


def test_nstep_returns_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        rewards = rng.normal(size=n)
        dones = [bool(d) for d in rng.integers(0, 2, size=n)]
        bootstrap = float(rng.normal())
        gamma = float(rng.uniform(0, 1))
        got = compute_nstep_returns(rewards, dones, bootstrap, gamma)
        # independent oracle: explicit forward sum per position
        for t in range(n):
            want, discount = 0.0, 1.0
            for j in range(t, n):
                want += discount * rewards[j]
                if dones[j]:
                    break
                discount *= gamma
            if not any(dones[t:]):
                want += discount * bootstrap  # discount == gamma ** (n - t) here
            assert abs(got[t] - want) <= 1e-12


def old_compute_nstep_returns(rewards, dones, bootstrap_value, gamma):
    """compute_nstep_returns as it was before it ran over Python floats."""
    rewards = np.asarray(rewards, dtype=np.float64)
    returns = np.empty_like(rewards)
    acc = float(bootstrap_value)
    for t in range(len(rewards) - 1, -1, -1):
        if dones[t]:
            acc = 0.0
        acc = rewards[t] + gamma * acc
        returns[t] = acc
    return returns


def test_nstep_returns_equal_the_old_numpy_loop_bitwise():
    rng = np.random.default_rng(4)
    cases = [
        ([1.0], [True], 3.0), ([1.0], [False], -0.0), ([], [], 2.0),
        ([-0.0, -0.0, -0.0], [False] * 3, -0.0), ([-0.0, -0.0], [True, True], 1.0),
        ([1.0, 2.0, 3.0], [True, False, False], 0.5), ([1.0, 2.0, 3.0], [False, False, True], 9.0),
    ]
    for _ in range(300):
        n = int(rng.integers(1, 9))
        rewards = rng.normal(size=n) * rng.choice([1.0, 1e-300, 1e300])
        rewards[rng.random(n) < 0.2] = -0.0
        cases.append((rewards, rng.random(n) < 0.3, float(rng.normal())))
    for rewards, dones, bootstrap in cases:
        for gamma in (0.0, 0.9, 0.99, 1.0):
            for given in (rewards, np.asarray(rewards, dtype=np.float64)):
                got = compute_nstep_returns(given, dones, bootstrap, gamma)
                want = old_compute_nstep_returns(given, dones, bootstrap, gamma)
                assert got.dtype == np.float64 and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Rollout container
# ---------------------------------------------------------------------------


def test_rollout_time_major_layout():
    rollout = rollout_of(2, [make_steps([10 * a + t for a in range(2)]).columns[:5] for t in range(2)])
    flat = rollout.steps
    assert [s.obs[0] for s in flat] == [0.0, 10.0, 1.0, 11.0]
    assert np.array_equal(rollout.steps.obs[:, 0], np.array([0.0, 10.0, 1.0, 11.0]))


@pytest.mark.parametrize("condition", [Steps(4), Episodes(2)], ids=repr)
@pytest.mark.parametrize("kind", ["dqn", "a2c"])
def test_every_after_rollout_sees_the_joined_rollout_its_update_consumes(kind, condition):
    """collect_rollout joins each rollout once: when after_rollout fires, its
    steps are Transitions, row t * n_actors + a being actor a's step t, with
    the experience's task label, and the update reads that very object."""
    n_actors, acted, joined, consumed = 3, [], [], []  # acted: (obs, actions) per step

    class Recording(DqnStrategy if kind == "dqn" else A2cStrategy):
        def sample_rollout_action(self, obs_batch):
            actions = super().sample_rollout_action(obs_batch)
            acted.append((obs_batch.copy(), actions.copy()))
            return actions

        def apply_update(self, batch):
            if kind == "a2c":
                consumed.append(batch)
            super().apply_update(batch)

    class JoinedRolloutCheck(StrategyPlugin):
        def after_rollout(self, strategy):
            rollout, steps = strategy.rollout, strategy.rollout.steps
            assert type(steps) is Transitions and rollout.n_actors == n_actors
            assert len(steps) == len(acted) * n_actors
            for t, (obs, actions) in enumerate(acted):
                for a in range(n_actors):
                    assert steps.obs[t * n_actors + a].tobytes() == obs[a].tobytes()
                    assert steps.action[t * n_actors + a] == actions[a]
            assert steps.task_label.dtype == np.int64
            assert steps.task_label.tolist() == [strategy.experience.task_label] * len(steps)
            acted.clear()
            joined.append(rollout)

    if kind == "dqn":
        strat = Recording(dqn_model(obs_dim=4, n_actions=2), Adam(1e-3),
                          TrainingBudget(3, condition), batch_size=4)
        extend = strat.replay.extend
        strat.replay.extend = lambda batch: (consumed.append(batch), extend(batch))
    else:
        strat = Recording(a2c_model(), Adam(1e-3), TrainingBudget(3, condition))
    specs = [EnvSpec(f"cp{i}", lambda h=h: CartPole(CartPoleParams(pole_half_length=h)))
             for i, h in enumerate((0.5, 1.0))]
    strat.train(gym_benchmark_generator(specs, 2, Explicit((1, 0)), n_actors), [JoinedRolloutCheck()])
    assert [r.steps.task_label[0] for r in joined] == [1, 1, 1, 0, 0, 0]
    if kind == "dqn":
        assert all(batch is rollout.steps for batch, rollout in zip(consumed, joined, strict=True))
    else:
        assert all(batch is rollout for batch, rollout in zip(consumed, joined, strict=True))


def test_step_validation():
    with pytest.raises(ValueError):
        make_step(reward=float("nan"))
    with pytest.raises(ValueError):
        Transitions(obs=np.zeros((1, 2)), action=np.zeros(1, dtype=int), reward=np.zeros(1),
                    done=np.zeros(1, dtype=bool), next_obs=np.zeros((1, 3)),
                    task_label=np.zeros(1, dtype=int))


# ---------------------------------------------------------------------------
# Replay buffer
# ---------------------------------------------------------------------------


def test_replay_fifo_eviction():
    buf = ReplayBuffer(3)
    for i in range(5):
        buf.extend(make_step(value=float(i)))
    assert len(buf) == 3
    # items 0 and 1 were evicted first-in-first-out
    assert sorted(s.obs[0] for s in buf.items()) == [2.0, 3.0, 4.0]


def test_replay_sample_uniform_with_replacement():
    buf, rng = ReplayBuffer(4), np.random.default_rng(3)
    for i in range(4):
        buf.extend(make_step(value=float(i)))
    counts = np.zeros(4)
    for _ in range(400):
        for s in buf.sample(4, rng):
            counts[int(s.obs[0])] += 1
    total = counts.sum()
    chi2 = float((((counts - total / 4) ** 2) / (total / 4)).sum())
    assert chi2 < 16.27  # chi^2(3 dof) at p=0.001


def test_replay_insufficient():
    buf = ReplayBuffer(10)
    buf.extend(make_step())
    with pytest.raises(InsufficientReplay):
        buf.sample(2, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Budget accounting
# ---------------------------------------------------------------------------


def test_steps_budget_exact_counts():
    model = dqn_model()
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(3, Steps(2)), batch_size=4)
    scn = gym_benchmark_generator([SPEC_A], 1, Explicit((0,)), n_parallel_envs=2)
    report = strat.train(scn, [])
    exp = report.experiences[0]
    assert exp.env_steps == 3 * 2 * 2  # updates x rollout steps x actors
    assert exp.updates_applied + exp.updates_skipped == 3
    assert report.total_env_steps == 12
    assert report.total_updates == 3


def test_insufficient_replay_consumes_budget():
    model = dqn_model()
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(3, Steps(2)), batch_size=100)
    scn = gym_benchmark_generator([SPEC_A], 1, Explicit((0,)))
    report = strat.train(scn, [])
    exp = report.experiences[0]
    assert exp.updates_applied == 0
    assert exp.updates_skipped == 3
    assert exp.env_steps == 6


def test_episodes_budget_rolls_to_episode_end():
    spec = EnvSpec("short", lambda: GridWorld(GridScene(5, 5, max_steps=3)))
    model = dqn_model()
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(2, Episodes(1)), batch_size=2)
    scn = gym_benchmark_generator([spec], 1, Explicit((0,)))
    report = strat.train(scn, [])
    exp = report.experiences[0]
    # a random 5x5 walk cannot reach the far goal in 3 steps, so every
    # episode ends by the cap and each rollout is exactly 3 steps
    assert exp.episodes_completed == 2
    assert exp.env_steps == 6


def test_empty_stream_rejected():
    model = dqn_model()
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)))
    with pytest.raises(EmptyStream):
        strat.train(RLScenario(train_stream=(), eval_stream=()))


# ---------------------------------------------------------------------------
# Plugin hooks
# ---------------------------------------------------------------------------

def test_hooks_are_the_plugin_methods_in_definition_order():
    assert HOOKS == (
        "before_training", "before_training_exp", "before_rollout", "after_rollout",
        "before_update", "after_update", "after_training_exp", "after_training",
        "before_eval_exp", "after_eval_exp",
    )
    assert all(callable(getattr(StrategyPlugin, hook)) for hook in HOOKS)


LOOP_HOOKS = ("before_rollout", "after_rollout", "before_update", "after_update")


class SpyPlugin(StrategyPlugin):
    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def _mark(self, hook):
        self.log.append((self.tag, hook))

    def before_training(self, strategy):
        self._mark("before_training")

    def before_training_exp(self, strategy):
        self._mark("before_training_exp")

    def before_rollout(self, strategy):
        self._mark("before_rollout")

    def after_rollout(self, strategy):
        self._mark("after_rollout")

    def before_update(self, strategy):
        self._mark("before_update")

    def after_update(self, strategy):
        self._mark("after_update")

    def after_training_exp(self, strategy):
        self._mark("after_training_exp")

    def after_training(self, strategy):
        self._mark("after_training")

    def before_eval_exp(self, strategy):
        self._mark("before_eval_exp")

    def after_eval_exp(self, strategy):
        self._mark("after_eval_exp")


def test_hook_sequence_two_plugins_registration_order():
    log = []
    plugins = [SpyPlugin("p1", log), SpyPlugin("p2", log)]
    model = dqn_model()
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(2, Steps(1)), batch_size=1)
    scn = gym_benchmark_generator([SPEC_A, SPEC_B], 2, Explicit((0, 1)))
    strat.train(scn, plugins)

    tags = ["p1", "p2"]
    expected = [(t, "before_training") for t in tags]
    for _ in range(2):  # experiences
        expected += [(t, "before_training_exp") for t in tags]
        for _ in range(2):  # updates
            for hook in LOOP_HOOKS:
                expected += [(t, hook) for t in tags]
        expected += [(t, "after_training_exp") for t in tags]
    expected += [(t, "after_training") for t in tags]
    assert log == expected


def test_eval_hooks_fire_per_eval_experience():
    log = []
    model = dqn_model()
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)), batch_size=1)
    scn = gym_benchmark_generator([SPEC_A, SPEC_B], 1, Explicit((0,)))
    strat.train(scn, [SpyPlugin("p", log)], eval_stream=scn.eval_stream, eval_episodes=1)
    evals = [entry for entry in log if "eval" in entry[1]]
    # one training experience, two eval experiences
    assert evals == [
        ("p", "before_eval_exp"),
        ("p", "after_eval_exp"),
        ("p", "before_eval_exp"),
        ("p", "after_eval_exp"),
    ]
    # eval hooks come after the experience closes
    assert log.index(("p", "after_training_exp")) < log.index(("p", "before_eval_exp"))


class ObsContinuitySpy(StrategyPlugin):
    def __init__(self):
        self.boundaries = []
        self._last = None

    def after_rollout(self, strategy):
        steps = strategy.rollout.steps
        if self._last is not None:
            self.boundaries.append((self._last, steps[0]))
        self._last = steps[-1]


def test_rollouts_are_seamless_within_experience():
    spy = ObsContinuitySpy()
    model = dqn_model()
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(4, Steps(1)), batch_size=1)
    scn = gym_benchmark_generator([SPEC_A], 1, Explicit((0,)))
    strat.train(scn, [spy])
    assert len(spy.boundaries) == 3
    for prev, nxt in spy.boundaries:
        assert not prev.done  # 4 random steps cannot reach the goal at (4,4)
        assert np.array_equal(prev.next_obs, nxt.obs)


# ---------------------------------------------------------------------------
# Epsilon-greedy exploration
# ---------------------------------------------------------------------------


def test_epsilon_linear_schedule():
    model = dqn_model()
    strat = DqnStrategy(
        model, Adam(1e-3), TrainingBudget(10, Steps(5)), eps_decay_fraction=0.2
    )
    exp = RLExperience(env_factory=SPEC_A.build, task_label=0, n_envs=1)
    strat.on_experience_start(exp)  # expected steps 50 -> decay over 10
    strat.env_steps_this_exp = 0
    assert strat.epsilon == 1.0
    strat.env_steps_this_exp = 5
    assert abs(strat.epsilon - 0.525) < 1e-12
    strat.env_steps_this_exp = 10
    assert abs(strat.epsilon - 0.05) < 1e-12
    strat.env_steps_this_exp = 40
    assert abs(strat.epsilon - 0.05) < 1e-12  # clamps at the floor


def test_epsilon_resets_each_experience():
    model = dqn_model()
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(2, Steps(2)), batch_size=1,
                        eps_decay_fraction=0.5)
    scn = gym_benchmark_generator([SPEC_A, SPEC_B], 2, Explicit((0, 1)))

    seen = []

    class EpsSpy(StrategyPlugin):
        def before_training_exp(self, strategy):
            seen.append(strategy.epsilon)

    strat.train(scn, [EpsSpy()])
    assert seen == [1.0, 1.0]


def test_full_exploration_uniform_chi_square():
    model = dqn_model(obs_dim=2)
    strat = DqnStrategy(
        model, Adam(1e-3), TrainingBudget(1, Steps(1)), eps_start=1.0, eps_end=1.0,
        action_seed=12,
    )
    actions = strat.sample_rollout_action(np.zeros((10_000, 2)))
    counts = np.bincount(actions, minlength=4)
    expected = 10_000 / 4
    chi2 = float((((counts - expected) ** 2) / expected).sum())
    assert chi2 < 16.27  # chi^2(3 dof) at p=0.001


def test_greedy_tie_break_lowest_index():
    model = dqn_model(obs_dim=3)
    model.unflatten(np.zeros(model.param_count))  # all Q identical
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)))
    actions = strat.greedy_action(np.ones((5, 3)))
    assert np.array_equal(actions, np.zeros(5, dtype=np.int64))


def test_zero_epsilon_acts_greedily():
    model = dqn_model(obs_dim=2)
    strat = DqnStrategy(
        model, Adam(1e-3), TrainingBudget(1, Steps(1)), eps_start=0.0, eps_end=0.0
    )
    obs = np.random.default_rng(0).normal(size=(20, 2))
    assert np.array_equal(strat.sample_rollout_action(obs), strat.greedy_action(obs))


# ---------------------------------------------------------------------------
# DQN update mechanics
# ---------------------------------------------------------------------------


def test_replay_cleared_between_experiences():
    model = dqn_model()
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(2, Steps(2)), batch_size=1)
    scn = gym_benchmark_generator([SPEC_A, SPEC_B], 2, Explicit((0, 1)))
    strat.train(scn, [])
    labels = {s.task_label for s in strat.replay.items()}
    assert labels == {1}  # only the second experience's transitions remain


def test_target_sync_counts_applied_updates():
    def run(n_updates):
        model = dqn_model(seed=4)
        strat = DqnStrategy(
            model, Sgd(0.01), TrainingBudget(n_updates, Steps(1)),
            batch_size=1, target_sync_period=3,
        )
        scn = gym_benchmark_generator([SPEC_A], 1, Explicit((0,)))
        strat.train(scn, [])
        return strat

    strat2 = run(2)
    # two applied updates: target still holds the initial parameters
    initial = dqn_model(seed=4).flatten()
    assert np.array_equal(strat2.target_model.flatten(), initial)
    assert not np.array_equal(strat2.model.flatten(), initial)

    strat3 = run(3)
    # third applied update triggers the hard sync
    assert np.array_equal(strat3.target_model.flatten(), strat3.model.flatten())


def test_skipped_updates_do_not_advance_sync_counter():
    model = dqn_model(seed=4)
    strat = DqnStrategy(
        model, Sgd(0.01), TrainingBudget(3, Steps(1)),
        batch_size=100, target_sync_period=3,
    )
    scn = gym_benchmark_generator([SPEC_A], 1, Explicit((0,)))
    strat.train(scn, [])
    # nothing applied, so no sync and no parameter motion
    assert np.array_equal(strat.model.flatten(), dqn_model(seed=4).flatten())
    assert np.array_equal(strat.target_model.flatten(), strat.model.flatten())


def test_dqn_requires_q_head():
    bad = Mlp([4, 4], heads={"policy_logits": 4})
    with pytest.raises(ValueError):
        DqnStrategy(bad, Adam(1e-3), TrainingBudget(1, Steps(1)))


def test_gamma_validated():
    with pytest.raises(ValueError):
        DqnStrategy(dqn_model(), Adam(1e-3), TrainingBudget(1, Steps(1)), gamma=1.5)


@pytest.mark.parametrize("condition", [5, MaxEpisodes(5), None], ids=repr)
def test_training_budget_refuses_a_rollout_condition_that_is_not_steps_or_episodes(condition):
    message = f"^rollout_condition must be Steps or Episodes, got {re.escape(repr(condition))}$"
    with pytest.raises(TypeError, match=message):
        TrainingBudget(3, condition)


def test_a_strategy_built_without_a_collector_records_into_its_own():
    strat = DqnStrategy(dqn_model(), Adam(1e-3), TrainingBudget(1, Steps(1)))
    assert type(strat.metrics) is MetricsCollector and strat.metrics.loggers == []
    stream = [RLExperience(env_factory=SPEC_A.build, task_label=0, n_envs=1)]
    (result,) = strat.evaluate(stream, 3)
    assert strat.metrics.windowed_mean("ep_return", "eval") == pytest.approx(result.mean_return)
    assert strat.metrics.phase == "train"


def test_training_deterministic_bitwise():
    def run():
        model = dqn_model(seed=3)
        strat = DqnStrategy(
            model, Adam(1e-3), TrainingBudget(4, Steps(2)), batch_size=4,
            env_seed=1, action_seed=2, replay_seed=3, eval_env_seed=4,
        )
        scn = gym_benchmark_generator([SPEC_A, SPEC_B], 2, Explicit((0, 1)))
        report = strat.train(scn, [], eval_stream=scn.eval_stream, eval_episodes=2)
        return report, model.flatten()

    (report1, params1), (report2, params2) = run(), run()
    assert report1 == report2
    assert np.array_equal(params1, params2)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def grid_q_table_model(scene):
    """Q(s, a) = -(manhattan distance after taking a): greedy is optimal."""
    n = scene.width * scene.height
    model = Mlp([n, 4], activations=["identity"], heads={"q_values": 4})
    weights = np.zeros((4, n))
    for y in range(scene.height):
        for x in range(scene.width):
            if not scene.passable((x, y)):
                continue
            for a, (dx, dy) in enumerate(GRID_MOVES):
                target = (x + dx, y + dy)
                if not scene.passable(target):
                    target = (x, y)
                dist = abs(target[0] - scene.goal[0]) + abs(target[1] - scene.goal[1])
                weights[a, y * scene.width + x] = -float(dist)
    model.weights[0][...] = weights
    model.biases[0][...] = np.zeros(4)
    return model


def test_injected_optimal_policy_scores_optimal_return():
    scene = GridScene(5, 5)
    model = grid_q_table_model(scene)
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)))
    stream = [RLExperience(env_factory=lambda: GridWorld(scene), task_label=0, n_envs=1)]
    (result,) = strat.evaluate(stream, 3)
    assert abs(result.mean_return - 0.93) < 1e-9
    assert result.std_return < 1e-12
    assert result.mean_length == 8.0


def test_untrained_bandit_eval_returns_zero():
    model = Mlp([1, 2], activations=["identity"], heads={"q_values": 2})
    model.unflatten(np.zeros(model.param_count))
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)))
    stream = [
        RLExperience(
            env_factory=lambda: Bandit(BanditParams(means=(0.0, 1.0), noise_std=0.0)),
            task_label=0,
            n_envs=1,
        )
    ]
    (result,) = strat.evaluate(stream, 4)
    assert result.mean_return == 0.0  # greedy ties resolve to arm 0
    assert result.mean_length == 1.0


def test_evaluate_rejects_zero_episodes():
    strat = DqnStrategy(dqn_model(), Adam(1e-3), TrainingBudget(1, Steps(1)))
    stream = [RLExperience(env_factory=SPEC_A.build, task_label=0, n_envs=1)]
    with pytest.raises(InvalidEpisodeCount):
        strat.evaluate(stream, 0)


def test_eval_emits_per_episode_records():
    from streamrl.evaluation import MetricsCollector

    captured = []

    class Capture:
        def emit(self, record):
            captured.append(record)

        def close(self):
            pass

    scene = GridScene(5, 5)
    model = grid_q_table_model(scene)
    metrics = MetricsCollector(window=10, loggers=[Capture()])
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)), metrics=metrics)
    stream = [RLExperience(env_factory=lambda: GridWorld(scene), task_label=0, n_envs=1)]
    strat.evaluate(stream, 5)
    ep_returns = [r for r in captured if r.metric_name == "ep_return"]
    assert len(ep_returns) == 5  # one per eval episode
    assert all(r.phase == "eval" for r in ep_returns)
    summaries = [r for r in captured if r.metric_name == "eval_return"]
    assert len(summaries) == 1


def test_eval_rows_one_per_training_experience():
    model = dqn_model()
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)), batch_size=1)
    scn = gym_benchmark_generator([SPEC_A, SPEC_B], 2, Explicit((0, 1)))
    report = strat.train(scn, [], eval_stream=scn.eval_stream, eval_episodes=1)
    assert len(report.evals) == 2  # one eval pass after each experience
    assert all(len(row) == 2 for row in report.evals)
    assert [r.task_label for r in report.evals[0]] == [0, 1]


# ---------------------------------------------------------------------------
# A2C
# ---------------------------------------------------------------------------


def test_a2c_requires_heads():
    with pytest.raises(ValueError):
        A2cStrategy(Mlp([4, 3], heads={"policy_logits": 3}), Adam(1e-3),
                    TrainingBudget(1, Steps(1)))
    with pytest.raises(ValueError):
        A2cStrategy(Mlp([4, 4], heads={"policy_logits": 2, "value": 2}), Adam(1e-3),
                    TrainingBudget(1, Steps(1)))


def test_a2c_saturated_logits_stable():
    model = Mlp([1, 3], activations=["identity"],
                heads={"policy_logits": 2, "value": 1})
    model.weights[0][...] = np.array([[1000.0], [-1000.0], [0.0]])
    model.biases[0][...] = np.zeros(3)
    strat = A2cStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)))
    actions = strat.sample_rollout_action(np.ones((50, 1)))
    assert np.array_equal(actions, np.zeros(50, dtype=np.int64))


def test_a2c_loss_composition():
    model = a2c_model(obs_dim=3, n_actions=2, seed=5)
    reference = model.clone()
    strat = A2cStrategy(model, Sgd(0.01), TrainingBudget(1, Steps(2)),
                        gamma=0.9, value_coef=0.5, entropy_coef=0.01)

    rng = np.random.default_rng(6)
    per_actor, rows = [[], []], []  # (obs, action, reward, next_obs) per step, per actor
    for t in range(2):
        for a in range(2):
            per_actor[a].append((rng.normal(size=3), int(rng.integers(2)),
                                 float(rng.normal()), rng.normal(size=3)))
        row = [steps[t] for steps in per_actor]
        obs, actions, rewards, next_obs = (np.array(column) for column in zip(*row))
        rows.append((obs, actions, rewards, np.zeros(2, dtype=bool), next_obs))
    rollout = rollout_of(2, rows)
    strat.loss = 0.0
    strat.grad_accum = np.zeros(model.param_count)
    strat.apply_update(rollout)

    # replicate the loss on the pre-update clone
    last_next = np.stack([steps[-1][3] for steps in per_actor])
    tails = reference.forward(last_next)["value"][:, 0]
    flat, returns = [], []
    for a, steps in enumerate(per_actor):
        flat.extend(steps)
        returns.extend(compute_nstep_returns(
            [s[2] for s in steps], [False for s in steps], tails[a], 0.9))
    returns = np.array(returns)
    out = reference.forward(np.stack([s[0] for s in flat]))
    logits, values = out["policy_logits"], out["value"][:, 0]
    pg, _ = policy_gradient_loss(logits, np.array([s[1] for s in flat]),
                                 returns - values)
    vl, _ = mse_loss(values, returns)
    ent, _ = entropy_loss(logits)
    assert abs(strat.loss - (pg + 0.5 * vl - 0.01 * ent)) < 1e-12


def old_a2c_update(strat, rollout):
    """A2cStrategy.apply_update as it was before policy_losses: the old
    returns, policy-gradient, entropy and MSE formulas (test_nn keeps their
    oracles), each with its own softmax."""
    per_actor = by_actor(rollout)
    tail_values = strat.model.forward(per_actor.next_obs[:, -1])["value"][:, 0]
    returns = np.concatenate([
        old_compute_nstep_returns(per_actor.reward[a], per_actor.done[a], tail_values[a], strat.gamma)
        for a in range(rollout.n_actors)
    ])
    obs = per_actor.obs.reshape(len(rollout), *per_actor.obs.shape[2:])
    actions = per_actor.action.reshape(len(rollout))
    out = strat.model.forward(obs)
    logits, values = out["policy_logits"], out["value"][:, 0]
    pg_loss, pg_grad = old_policy_gradient_loss(logits, actions, returns - values)
    value_loss, value_grad = old_mse_loss(values, returns)
    entropy, entropy_grad = old_entropy_loss(logits)
    grads = strat.model.backward({
        "policy_logits": pg_grad - strat.entropy_coef * entropy_grad,
        "value": (strat.value_coef * value_grad)[:, None],
    })
    grads += strat.grad_accum
    strat.optimizer.step(strat.model.params, grads)
    return pg_loss + strat.value_coef * value_loss - strat.entropy_coef * entropy


A2C_DONES = {  # per actor, over 5 steps
    "none": lambda a, t: False,
    "first-step": lambda a, t: t == 0,
    "last-step": lambda a, t: t == 4,
    "every-step": lambda a, t: True,
    "mixed": lambda a, t: (a + t) % 3 == 0,
}


@pytest.mark.parametrize("saturated", [False, True])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("n_actors", [1, 4])
@pytest.mark.parametrize("dones", list(A2C_DONES))
def test_a2c_update_equals_the_old_composition_bitwise(saturated, activation, n_actors, dones):
    rng = np.random.default_rng(n_actors)
    models = [Mlp([4, 16, 16, 4], activations=[activation] * 2 + ["identity"],
                  heads={"policy_logits": 3, "value": 1}, seed=2) for _ in range(2)]
    for model in models:
        model.weights[-1][:3] *= 3000.0 if saturated else 1.0  # logit gaps over 746
    strats = [A2cStrategy(model, Adam(0.05), TrainingBudget(1, Steps(5)), gamma=0.9)
              for model in models]
    for update in range(6):
        rows = []
        for t in range(5):
            obs = rng.normal(size=(n_actors, 4))
            rewards = rng.choice([-0.0, 1.0, -1.5], size=n_actors)
            done = np.array([A2C_DONES[dones](a, t) for a in range(n_actors)])
            rows.append((obs, rng.integers(0, 3, size=n_actors), rewards, done,
                         obs + rng.normal(size=obs.shape)))
        rollout = rollout_of(n_actors, rows)
        if saturated:
            probs = softmax(models[0].forward(rollout.steps.obs)["policy_logits"])
            assert (probs == 0.0).any()
        accum = rng.normal(size=models[0].param_count) * (update % 2)
        for strat in strats:
            strat.loss, strat.grad_accum = 0.0, accum.copy()
        strats[0].apply_update(rollout)
        want_loss = old_a2c_update(strats[1], rollout)
        assert np.float64(strats[0].loss).tobytes() == np.float64(want_loss).tobytes()
        assert models[0].params.tobytes() == models[1].params.tobytes()


def test_a2c_empty_rollout_rejected():
    strat = A2cStrategy(a2c_model(), Adam(1e-3), TrainingBudget(1, Steps(1)))
    with pytest.raises(EmptyRollout):
        strat.apply_update(Rollout(1, Transitions.zeros((0,), (4,))))


def test_a2c_trains_deterministically_on_cartpole():
    def run():
        model = a2c_model(obs_dim=4, n_actions=2, seed=1)
        strat = A2cStrategy(model, Adam(1e-3), TrainingBudget(5, Steps(4)),
                            env_seed=7, action_seed=8, eval_env_seed=9)
        spec = EnvSpec("cp", lambda: CartPole(CartPoleParams()))
        scn = gym_benchmark_generator([spec], 1, Explicit((0,)))
        report = strat.train(scn, [])
        return report, model.flatten()

    (r1, p1), (r2, p2) = run(), run()
    assert r1 == r2
    assert np.array_equal(p1, p2)


class SharedBufferGrid(GridWorld):
    """A grid that returns one buffer, rewritten in place, from every reset and step."""

    def __init__(self):
        super().__init__(GridScene(5, 5, max_steps=3))
        self.buffer = np.zeros(25)

    def reset(self, seed=None):
        self.buffer[...] = super().reset(seed)
        return self.buffer

    def step(self, action):
        result = super().step(action)
        self.buffer[...] = result.obs
        result.obs = self.buffer
        return result


def test_rollout_rows_do_not_alias_an_env_buffer():
    def last_rollout(factory):
        strat = DqnStrategy(dqn_model(), Adam(1e-3), TrainingBudget(1, Steps(8)), batch_size=64)
        strat.train(gym_benchmark_generator([EnvSpec("g", factory)], 1, Explicit((0,)), 2), [])
        return strat.rollout.steps

    shared = last_rollout(SharedBufferGrid)
    fresh = last_rollout(lambda: GridWorld(GridScene(5, 5, max_steps=3)))
    assert shared.done.any()
    assert len(np.unique(shared.next_obs, axis=0)) > 1
    for a, b in zip(shared.columns, fresh.columns):
        assert np.array_equal(a, b)


class EpisodeLog(MetricsCollector):
    """A collector that keeps the episodes it books and every record it emits."""

    def __init__(self):
        super().__init__(loggers=[self])
        self.episodes, self.records = [], []

    def emit(self, record):
        self.records.append(record)

    def close(self):
        pass

    def record_episode(self, episode_return, length):
        self.episodes.append((episode_return, length))
        super().record_episode(episode_return, length)


class RolloutLog(StrategyPlugin):
    def __init__(self):
        self.rollouts = []

    def after_rollout(self, strategy):
        self.rollouts.append(by_actor(strategy.rollout))


def test_episode_bookkeeping_matches_per_actor_oracle():
    metrics, log = EpisodeLog(), RolloutLog()
    strat = A2cStrategy(a2c_model(), Adam(1e-3), TrainingBudget(3, Steps(40)), metrics=metrics)
    spec = EnvSpec("cp", lambda: CartPole(CartPoleParams(max_steps=15)))
    report = strat.train(gym_benchmark_generator([spec], 1, Explicit((0,)), 3), [log])

    expected, ret, length = [], [0.0] * 3, [0] * 3
    rewards = np.concatenate([r.reward for r in log.rollouts], axis=1)
    dones = np.concatenate([r.done for r in log.rollouts], axis=1)
    for t in range(rewards.shape[1]):
        for a in range(3):
            ret[a] += float(rewards[a, t])
            length[a] += 1
            if dones[a, t]:
                expected.append((ret[a], length[a]))
                ret[a], length[a] = 0.0, 0
    assert len(expected) > 3
    assert metrics.episodes == expected
    assert all(type(r) is float and type(n) is int for r, n in metrics.episodes)
    assert report.experiences[0].episode_returns == tuple(r for r, _ in expected)


def test_episode_returns_equal_the_float64_array_accumulator():
    """Running returns are Python floats, fed from rewards.tolist(); they must
    equal, bit for bit, the numpy float64 accumulator they replaced, on
    rewards whose sums round (-0.1 per step, 10 at the goal)."""
    metrics, log = EpisodeLog(), RolloutLog()
    scene = GridScene(3, 3, goal=(2, 2), step_reward=-0.1, goal_reward=10.0, max_steps=13)
    strat = DqnStrategy(dqn_model(obs_dim=9), Adam(1e-3), TrainingBudget(4, Steps(30)),
                        batch_size=8, eps_start=0.5, eps_end=0.5, metrics=metrics)
    spec = EnvSpec("grid", lambda: GridWorld(scene))
    strat.train(gym_benchmark_generator([spec], 1, Explicit((0,)), 3), [log])

    expected, ret, length = [], np.zeros(3), np.zeros(3, dtype=np.int64)
    rewards = np.concatenate([r.reward for r in log.rollouts], axis=1)
    dones = np.concatenate([r.done for r in log.rollouts], axis=1)
    for t in range(rewards.shape[1]):
        ret += rewards[:, t]
        length += 1
        for a in dones[:, t].nonzero()[0]:
            expected.append((float(ret[a]), int(length[a])))
            ret[a], length[a] = 0.0, 0
    assert len(expected) > 5 and len({r for r, _ in expected}) > 2
    assert [(np.float64(r).tobytes(), n) for r, n in metrics.episodes] == \
        [(np.float64(r).tobytes(), n) for r, n in expected]
    assert [type(r) for r, _ in metrics.episodes] == [float] * len(expected)
    assert strat._ep_return == [float(r) for r in ret] and strat._ep_length == length.tolist()


# ---------------------------------------------------------------------------
# DQN epsilon-greedy against the per-actor loop it replaced
# ---------------------------------------------------------------------------


def epsilon_greedy_oracle(strategy, rng, obs):
    """DqnStrategy.sample_rollout_action as it was: one argmax per actor row."""
    q = strategy.model.forward(obs)["q_values"]
    actions = np.empty(len(q), dtype=np.int64)
    for i in range(len(q)):
        if rng.random() < strategy.epsilon:
            actions[i] = rng.integers(strategy.n_actions)
        else:
            actions[i] = int(np.argmax(q[i]))
    return actions


@pytest.mark.parametrize("n_actors", [1, 4, 7])
@pytest.mark.parametrize("eps", [0.0, 0.37, 1.0])
def test_dqn_epsilon_greedy_matches_the_per_actor_loop(eps, n_actors):
    rng = np.random.default_rng(n_actors)
    model = dqn_model(obs_dim=3, n_actions=5)
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)),
                        eps_start=eps, eps_end=eps, action_seed=11)
    oracle_rng = np.random.default_rng(11)
    for k in range(200):
        # every 10th call on all-zero params: every Q ties, argmax takes action 0
        model.params[...] = rng.normal(size=model.param_count) * (k % 10 != 0)
        obs = rng.normal(size=(n_actors, 3))
        expected = epsilon_greedy_oracle(strat, oracle_rng, obs)
        actions = strat.sample_rollout_action(obs)
        assert actions.dtype == np.int64 and np.array_equal(actions, expected)
    assert strat._action_rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("n_actors", [1, 4])
def test_dqn_acting_runs_the_q_network_only_for_greedy_actors(n_actors):
    model = dqn_model(obs_dim=3, n_actions=5)
    calls = []
    forward = model.forward
    model.forward = lambda batch: calls.append(len(batch)) or forward(batch)
    obs = np.random.default_rng(0).normal(size=(n_actors, 3))
    for eps, want in ((1.0, []), (0.0, [n_actors] * 20)):
        calls.clear()
        strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)),
                            eps_start=eps, eps_end=eps, action_seed=3)
        for _ in range(20):
            assert strat.sample_rollout_action(obs).shape == (n_actors,)
        assert calls == want  # at eps 0 one forward per call, over the whole batch


@pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
def test_dqn_acting_takes_a_single_observation_as_one_actor(eps):
    model = dqn_model(obs_dim=3, n_actions=5)
    strat = DqnStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)),
                        eps_start=eps, eps_end=eps, action_seed=4)
    oracle_rng = np.random.default_rng(4)
    for obs in np.random.default_rng(1).normal(size=(30, 3)):
        expected = epsilon_greedy_oracle(strat, oracle_rng, obs)
        assert np.array_equal(strat.sample_rollout_action(obs), expected) and len(expected) == 1


# ---------------------------------------------------------------------------
# Vectorized A2C sampling against the per-actor Generator.choice it replaced
# ---------------------------------------------------------------------------


def choice_oracle(rng, probs):
    """One rng.choice per actor: the sampler the vectorized one replaced."""
    return np.array([rng.choice(probs.shape[1], p=row) for row in probs], dtype=np.int64)


@pytest.mark.parametrize("n_actors", [1, 4, 7])
def test_a2c_sampler_matches_per_actor_choice(n_actors):
    rng = np.random.default_rng(n_actors)
    for n_actions in (2, 3, 6):
        model = Mlp([3, n_actions + 1], activations=["identity"],
                    heads={"policy_logits": n_actions, "value": 1})
        strat = A2cStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)), action_seed=n_actions)
        oracle_rng = np.random.default_rng(n_actions)
        for _ in range(300):
            model.params[...] = rng.normal(size=model.param_count) * rng.choice([0.1, 1.0, 30.0])
            obs = rng.normal(size=(n_actors, 3))
            expected = choice_oracle(oracle_rng, softmax(model.forward(obs)["policy_logits"]))
            assert np.array_equal(strat.sample_rollout_action(obs), expected)
        assert strat._action_rng.bit_generator.state == oracle_rng.bit_generator.state


def old_a2c_sample(strat, rng, obs):
    """A2cStrategy.sample_rollout_action as it was before softmax worked in
    place."""
    cdf = np.cumsum(old_softmax(strat.model.forward(obs)["policy_logits"]), axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(len(cdf))
    return (cdf <= u[:, None]).sum(axis=1)


@pytest.mark.parametrize("n_actors", [1, 4, 7])
def test_a2c_sampler_equals_the_old_softmax_cdf_bitwise(n_actors):
    rng = np.random.default_rng(20 + n_actors)
    for activation in ("relu", "tanh"):
        for n_actions in (2, 3, 6):
            model = Mlp([3, 8, n_actions + 1], activations=[activation, "identity"],
                        heads={"policy_logits": n_actions, "value": 1})
            strat = A2cStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)), action_seed=5)
            oracle_rng = np.random.default_rng(5)
            for k in range(300):
                # a scale of 1000 puts logit gaps over 746: probabilities of exactly 0
                model.params[...] = rng.normal(size=model.param_count) * (0.1, 1.0, 1000.0)[k % 3]
                obs = rng.normal(size=(n_actors, 3))
                want = old_a2c_sample(strat, oracle_rng, obs)
                got = strat.sample_rollout_action(obs)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert strat._action_rng.bit_generator.state == oracle_rng.bit_generator.state


# ---------------------------------------------------------------------------
# A non-finite value names the experience, update and phase where it appeared
# ---------------------------------------------------------------------------


def poison(hook, experience, update):
    """A plugin that writes inf into the model's parameters when `hook` fires
    at the given experience and update index."""

    def fire(self, strategy):
        if (strategy.experience.experience_index, strategy.update_index) == (experience, update):
            strategy.model.params[0] = np.inf

    return type("Poison", (StrategyPlugin,), {hook: fire})()


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("hook, experience, update, where", [
    ("after_update", 1, 1, "experience 1, update 2, rollout: "),
    ("after_rollout", 1, 0, "experience 1, update 0, update: "),
    ("after_training_exp", 0, 2, "experience 0, update 2, fisher: "),
], ids=["rollout", "update", "fisher"])
def test_non_finite_names_experience_update_and_phase(hook, experience, update, where):
    strat = A2cStrategy(a2c_model(obs_dim=25, n_actions=4), Adam(1e-3),
                        TrainingBudget(3, Steps(2)))
    scn = gym_benchmark_generator([SPEC_A, SPEC_B], 2, Explicit((0, 1)))
    with pytest.raises(NonFinite, match=f"^{where}non-finite activations"):
        strat.train(scn, [poison(hook, experience, update), EwcPlugin(fisher_sample_count=4)])


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_in_eval_names_the_eval_experience():
    strat = A2cStrategy(a2c_model(obs_dim=25, n_actions=4), Adam(1e-3),
                        TrainingBudget(2, Steps(2)))
    scn = gym_benchmark_generator([SPEC_A, SPEC_B], 2, Explicit((0, 1)))
    with pytest.raises(NonFinite, match="^eval experience 0: non-finite activations"):
        strat.train(scn, [poison("after_training_exp", 0, 1)], eval_stream=scn.eval_stream,
                    eval_episodes=1)


class GridPayingNanOnStep3(GridWorld):
    def step(self, action):
        result = super().step(action)
        return replace(result, reward=float("nan")) if self._steps == 3 else result


def test_non_finite_eval_reward_names_the_eval_experience_before_any_record(tmp_path):
    from streamrl.evaluation import JsonlLogger, MetricsCollector

    scene = GridScene(5, 5)
    logger = JsonlLogger(tmp_path / "metrics.jsonl")
    strat = DqnStrategy(grid_q_table_model(scene), Adam(1e-3), TrainingBudget(1, Steps(1)),
                        metrics=MetricsCollector(window=10, loggers=[logger]))
    stream = [RLExperience(env_factory=lambda: GridWorld(scene), task_label=0, n_envs=1,
                           experience_index=0),
              RLExperience(env_factory=lambda: GridPayingNanOnStep3(scene), task_label=1,
                           n_envs=1, experience_index=1)]
    with pytest.raises(ValueError, match="^eval experience 1: non-finite reward nan"):
        strat.evaluate(stream, 2)
    logger.close()
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert any('"phase": "eval"' in line for line in lines)  # experience 0 was booked
    assert not any("NaN" in line for line in lines)


class RaisesAfterEvalExp(StrategyPlugin):
    def after_eval_exp(self, strategy):
        raise RuntimeError("plugin failed")


@pytest.mark.parametrize("fault", ["nan-reward", "after_eval_exp"])
def test_evaluate_restores_its_state_when_it_raises(fault):
    """Experience 0 is booked (phase "eval") before the fault, and evaluate
    still leaves eval_experience, phase and experience_index as it found them."""
    scene = GridScene(5, 5)
    strat = DqnStrategy(grid_q_table_model(scene), Adam(1e-3), TrainingBudget(1, Steps(1)))
    strat.metrics.phase, strat.metrics.experience_index = "train", 4
    stream = [RLExperience(env_factory=lambda: GridWorld(scene), task_label=0, n_envs=1,
                           experience_index=0),
              RLExperience(env_factory=lambda: GridPayingNanOnStep3(scene), task_label=1,
                           n_envs=1, experience_index=1)]
    if fault == "nan-reward":
        with pytest.raises(ValueError, match="^eval experience 1: non-finite reward nan"):
            strat.evaluate(stream, 2)
    else:
        strat.plugins = [RaisesAfterEvalExp()]
        with pytest.raises(RuntimeError, match="^plugin failed$"):
            strat.evaluate(stream[:1], 2)
    assert strat.eval_experience is None
    assert (strat.metrics.phase, strat.metrics.experience_index) == ("train", 4)


def test_non_finite_training_reward_names_experience_and_update():
    strat = DqnStrategy(dqn_model(), Adam(1e-3), TrainingBudget(3, Steps(2)), batch_size=64)
    spec = EnvSpec("nan", lambda: GridPayingNanOnStep3(GridScene(5, 5)))
    scn = gym_benchmark_generator([SPEC_A, spec], 2, Explicit((0, 1)))
    with pytest.raises(ValueError, match=r"^experience 1, update 1, rollout: non-finite reward in \[nan\]"):
        strat.train(scn, [])


class RaisesAfterUpdate(StrategyPlugin):
    def after_update(self, strategy):
        raise RuntimeError("plugin failed")


@pytest.mark.parametrize("fault", [None, "nan-reward", "after_update"])
def test_train_restores_its_state_when_an_experience_raises(fault):
    """A raise leaves training False and no experience, as evaluate's finally
    does; a normal return keeps the last experience."""
    strat = DqnStrategy(dqn_model(), Adam(1e-3), TrainingBudget(3, Steps(2)), batch_size=64)
    spec = EnvSpec("nan", lambda: GridPayingNanOnStep3(GridScene(5, 5)))
    if fault == "nan-reward":
        scn = gym_benchmark_generator([SPEC_A, spec], 2, Explicit((0, 1)))
        with pytest.raises(ValueError, match="^experience 1, update 1, rollout: non-finite"):
            strat.train(scn, [])
    elif fault == "after_update":
        scn = gym_benchmark_generator([SPEC_A], 1, Explicit((0,)))
        with pytest.raises(RuntimeError, match="^plugin failed$"):
            strat.train(scn, [RaisesAfterUpdate()])
    else:
        scn = gym_benchmark_generator([SPEC_A, SPEC_A], 2, Explicit((0, 1)))
        strat.train(scn, [])
    assert strat.training is False and strat.venv is None
    assert strat.experience is (None if fault else scn.train_stream[-1])


# ---------------------------------------------------------------------------
# Lane-batched greedy evaluation against the one-actor loop it replaced
# ---------------------------------------------------------------------------


def sequential_eval(strat, eval_stream, n_episodes):
    """The loop evaluate() ran before lanes: one VectorizedEnv actor plays the
    episodes one after another, one batch-1 greedy forward per step. Returns
    every (return, length) in play order and the EvalResults."""
    episodes, results = [], []
    for exp in eval_stream:
        played, ep_return, ep_length = [], 0.0, 0
        with VectorizedEnv(exp.env_factory, 1, base_seed=strat.eval_env_seed) as venv:
            obs = venv.reset()
            while len(played) < n_episodes:
                obs, rewards, dones, _ = venv.step(strat.greedy_action(obs))
                ep_return += float(rewards[0])
                ep_length += 1
                if dones[0]:
                    played.append((ep_return, ep_length))
                    ep_return, ep_length = 0.0, 0
        returns, lengths = [r for r, _ in played], [n for _, n in played]
        results.append(EvalResult(exp.experience_index, exp.task_label, float(np.mean(returns)),
                                  float(np.std(returns)), float(np.mean(lengths))))
        episodes += played
    return episodes, results


def lane_eval(strat, eval_stream, n_episodes):
    """evaluate() with its episode records and greedy_action batch sizes."""
    strat.metrics, batches = EpisodeLog(), []
    greedy = strat.greedy_action
    strat.greedy_action = lambda obs: batches.append(len(obs)) or greedy(obs)
    try:
        results = strat.evaluate(eval_stream, n_episodes)
    finally:
        del strat.greedy_action
    return strat.metrics.episodes, results, batches


def eval_strategy(kind, obs_dim, n_actions, seed=3):
    budget = TrainingBudget(1, Steps(1))
    if kind == "dqn":
        return DqnStrategy(dqn_model(obs_dim, n_actions, hidden=(16,), seed=seed), Adam(1e-3),
                           budget, eval_env_seed=77)
    return A2cStrategy(a2c_model(obs_dim, n_actions, hidden=(16,), seed=seed), Adam(1e-3),
                       budget, eval_env_seed=77)


def one_stream(factory):
    return [RLExperience(env_factory=factory, task_label=0, n_envs=1)]


def cartpole(max_steps=20):
    return CartPole(CartPoleParams(max_steps=max_steps))


def task_stream_scenario():
    scenes = [GridScene(3, 3, goal=(2, 2), max_steps=10), GridScene(3, 3, goal=(0, 2), max_steps=10)]
    tasks = [build_task("reach_goal", "reach"), build_task("survive", "survive")]
    return task_stream_benchmark_generator(tasks, [MaxEpisodes(2), MaxEpisodes(2)], scenes)


# name: (eval stream, obs_dim, n_actions)
LANE_CASES = {
    "gridworld": (lambda: one_stream(lambda: GridWorld(GridScene(5, 5, max_steps=12))), 25, 4),
    "cartpole": (lambda: one_stream(cartpole), 4, 2),
    "noisy-bandit": (lambda: one_stream(
        lambda: Bandit(BanditParams(means=(0.0, 0.3, 1.0), noise_std=1.0))), 1, 3),
    "task-stream-eval": (lambda: task_stream_scenario().eval_stream, 9, 4),
    "frame_stack": (lambda: one_stream(lambda: wrap(cartpole(), FrameStack(3))), 12, 2),
    "time_limit": (lambda: one_stream(lambda: wrap(cartpole(500), TimeLimit(9))), 4, 2),
    "reward_clip": (lambda: one_stream(lambda: wrap(cartpole(), RewardClip(0.0, 0.25))), 4, 2),
    "action_remap": (lambda: one_stream(lambda: wrap(
        GridWorld(GridScene(5, 5, max_steps=12)), ActionRemap.from_dict({0: 3, 1: 1, 2: 0}))), 25, 3),
}


def lane_sets(stream):
    """(experiences, shared) of each lane set of the stream, by the rule:
    consecutive experiences whose envs are of one exact class, from factories
    that return a fresh env on each call; a factory that returns one env twice
    is a set of its own. Calls each factory twice."""
    sets = []
    for exp in stream:
        env, again = exp.env_factory(), exp.env_factory()
        key = (type(env), env is again)
        if sets and env is not again and sets[-1][0] == key:
            sets[-1][1] += 1
        else:
            sets.append([key, 1])
    return [(size, shared) for (_, shared), size in sets]


def set_widths(stream, n_episodes):
    """The lane count of each lane set: one for a shared env, else one per
    job up to EVAL_LANES."""
    return [1 if shared else min(size * n_episodes, EVAL_LANES) for size, shared in lane_sets(stream)]


class SubGrid(GridWorld):
    """A gridworld of another class, so it plays in a lane set of its own."""


def stream_of(*factories):
    return [RLExperience(env_factory=factory, task_label=i, n_envs=1, experience_index=i)
            for i, factory in enumerate(factories)]


# the walled two-task gridworld stream of acceptance criterion 6
MAP_A = "S.#..\n..#..\n..#..\n..#..\n.G#.."
MAP_B = "..#.S\n..#..\n..#..\n..#..\n..#G."


def walled_grid(text):
    return lambda: GridWorld(parse_scene(text, max_steps=12, step_reward=-0.1, goal_reward=10.0))


# name: (eval stream, obs_dim, n_actions, its lane sets as (experiences, shared))
MERGED_CASES = {
    "cartpole-poles": (lambda: stream_of(*(
        lambda h=h: CartPole(CartPoleParams(max_steps=20, pole_half_length=h))
        for h in (0.5, 1.0, 0.25))), 4, 2, [(3, False)]),
    "walled-grids": (lambda: stream_of(walled_grid(MAP_A), walled_grid(MAP_B)), 25, 4, [(2, False)]),
    "grid-and-subclass": (lambda: stream_of(
        lambda: GridWorld(GridScene(5, 5, max_steps=12)),
        lambda: SubGrid(GridScene(5, 5, max_steps=12))), 25, 4, [(1, False), (1, False)]),
    "task-stream-eval": (lambda: task_stream_scenario().eval_stream, 9, 4, [(2, False)]),
    "task-stream-shared": (lambda: task_stream_scenario().train_stream, 9, 4, [(1, True), (1, True)]),
}


def assert_lanes_match_sequential(strat, stream, n_episodes):
    expected_episodes, expected_results = sequential_eval(strat, stream, n_episodes)
    episodes, results, batches = lane_eval(strat, stream, n_episodes)
    assert episodes == expected_episodes
    assert all(type(r) is float and type(n) is int for r, n in episodes)
    assert results == expected_results
    assert max(batches) == max(set_widths(stream, n_episodes))
    return episodes


@pytest.mark.parametrize("kind", ["dqn", "a2c"])
@pytest.mark.parametrize("case", list(LANE_CASES))
def test_lane_eval_matches_sequential_loop(case, kind):
    make_stream, obs_dim, n_actions = LANE_CASES[case]
    assert_lanes_match_sequential(eval_strategy(kind, obs_dim, n_actions), make_stream(), 33)


@pytest.mark.parametrize("n_episodes", [1, 31, 32, 33, 200])
def test_lane_eval_matches_sequential_loop_at_every_width(n_episodes):
    episodes = assert_lanes_match_sequential(
        eval_strategy("a2c", 4, 2), one_stream(cartpole), n_episodes)
    assert len(episodes) == n_episodes
    if n_episodes > 1:  # lanes finish out of episode order
        assert len({n for _, n in episodes}) > 1


def test_lane_eval_plays_a_shared_env_one_episode_at_a_time():
    (train_exp, *_) = task_stream_scenario().train_stream
    assert train_exp.env_factory() is train_exp.env_factory()
    strat = eval_strategy("dqn", 9, 4)
    expected_episodes, expected_results = sequential_eval(strat, [train_exp], 5)
    episodes, results, batches = lane_eval(strat, [train_exp], 5)
    assert (episodes, results) == (expected_episodes, expected_results)
    assert set(batches) == {1}


def test_obs_normalize_eval_episode_equals_the_episode_played_alone():
    stream = one_stream(lambda: wrap(cartpole(), ObservationNormalize()))
    strat = eval_strategy("a2c", 4, 2)
    episodes, _, _ = lane_eval(strat, stream, 40)
    alone = []
    for k in range(40):
        strat.eval_env_seed = 77 + EPISODE_SEED_STRIDE * k
        alone += lane_eval(strat, stream, 1)[0]
    assert episodes == alone


class SubCartPole(CartPole):
    """A cart-pole of another class, so it plays in a lane set of its own."""


class CountingGrid(GridWorld):
    steps_taken = 0

    def step(self, action):
        CountingGrid.steps_taken += 1
        return super().step(action)


def test_out_of_space_greedy_action_refused_before_any_lane_steps(monkeypatch):
    strat = eval_strategy("dqn", 25, 4)
    monkeypatch.setattr(strat, "greedy_action", lambda obs: np.r_[np.zeros(len(obs) - 1, int), 4])
    monkeypatch.setattr(CountingGrid, "steps_taken", 0)
    with pytest.raises(ActionOutOfSpace, match="^eval experience 0, episode 4: action 4 not in"):
        strat.evaluate(one_stream(lambda: CountingGrid(GridScene(5, 5))), 5)
    assert CountingGrid.steps_taken == 0


def test_each_lane_action_is_checked_against_its_own_experiences_space(monkeypatch):
    """Two remapped grids of one wrapper class play as one set; action 2 is
    in the first experience's space and not in the second's."""
    strat = eval_strategy("dqn", 25, 4)
    monkeypatch.setattr(strat, "greedy_action", lambda obs: np.full(len(obs), 2))
    monkeypatch.setattr(CountingGrid, "steps_taken", 0)
    stream = stream_of(lambda: wrap(CountingGrid(GridScene(5, 5)), ActionRemap.from_dict({0: 3, 1: 1, 2: 0})),
                       lambda: wrap(CountingGrid(GridScene(5, 5)), ActionRemap.from_dict({0: 0, 1: 1})))
    assert lane_sets(stream) == [(2, False)]
    with pytest.raises(ActionOutOfSpace, match=r"^eval experience 1, episode 0: action 2 not in Discrete\(n=2\)"):
        strat.evaluate(stream, 3)
    assert CountingGrid.steps_taken == 0


class GridPayingNanAt(GridWorld):
    """A grid whose step number `nan_step` pays a NaN reward."""

    def __init__(self, scene, nan_step=None):
        super().__init__(scene)
        self.nan_step = nan_step

    def step(self, action):
        result = super().step(action)
        return replace(result, reward=float("nan")) if self._steps == self.nan_step else result


def test_non_finite_eval_reward_names_its_lanes_experience_before_its_set_books_any_record(tmp_path):
    from streamrl.evaluation import JsonlLogger

    scene = GridScene(5, 5)
    logger = JsonlLogger(tmp_path / "metrics.jsonl")
    strat = DqnStrategy(grid_q_table_model(scene), Adam(1e-3), TrainingBudget(1, Steps(1)),
                        metrics=MetricsCollector(window=10, loggers=[logger]))
    stream = stream_of(lambda: GridPayingNanAt(scene), lambda: GridPayingNanAt(scene, nan_step=3))
    assert lane_sets(stream) == [(2, False)]
    with pytest.raises(ValueError, match="^eval experience 1: non-finite reward nan"):
        strat.evaluate(stream, 2)
    logger.close()
    assert (tmp_path / "metrics.jsonl").read_text() == ""  # experience 0 shares the set


def test_greedy_action_count_must_match_the_lanes(monkeypatch):
    strat = eval_strategy("dqn", 25, 4)
    monkeypatch.setattr(strat, "greedy_action", lambda obs: np.zeros(len(obs) - 1, int))
    with pytest.raises(ValueError, match="^eval experience 0: need 5 actions, got 4"):
        strat.evaluate(one_stream(lambda: GridWorld(GridScene(5, 5))), 5)


def tuple_lane_play_greedy(strat, exp, n_episodes, probes):
    """_play_greedy as lanes first ran it, one experience at a time: a list
    of (episode, env, obs) tuples, np.stack of the observations, one action
    check per lane, and a closure that starts each episode. `probes` are the
    experience's first two envs, which its lane set has made."""
    where = f"eval experience {exp.experience_index}"
    returns, lengths = [0.0] * n_episodes, [0] * n_episodes
    envs = probes[:min(n_episodes, 2)]
    width = 1 if envs[-1] is envs[0] else min(n_episodes, EVAL_LANES)
    envs = envs[:width] + [exp.env_factory() for _ in range(width - 2)]
    space = envs[0].action_space

    def start(k, env):
        return k, env, env.reset(seed=strat.eval_env_seed + EPISODE_SEED_STRIDE * k)

    lanes = [start(k, env) for k, env in enumerate(envs)]
    next_episode = width
    while lanes:
        try:
            actions = strat.greedy_action(np.stack([obs for _, _, obs in lanes])).tolist()
        except NonFinite as err:
            raise NonFinite(f"{where}: {err}") from err
        if len(actions) != len(lanes):
            raise ValueError(f"{where}: need {len(lanes)} actions, got {len(actions)}")
        for (k, _, _), action in zip(lanes, actions):
            if not space.contains(action):
                raise ActionOutOfSpace(f"{where}, episode {k}: action {action!r} not in {space}")
        live = []
        for (k, env, _), action in zip(lanes, actions):
            result = env.step(action)
            reward = float(result.reward)
            if not math.isfinite(reward):
                raise ValueError(f"{where}: non-finite reward {reward!r}")
            returns[k] += reward
            lengths[k] += 1
            if not result.done:
                live.append((k, env, result.obs))
            elif next_episode < n_episodes:
                live.append(start(next_episode, exp.env_factory()))
                next_episode += 1
        lanes = live
    return returns, lengths


def tuple_lane_eval(strat, eval_stream, n_episodes):
    """lane_eval with each experience of a lane set played on its own lanes
    by tuple_lane_play_greedy."""
    strat._play_greedy = lambda lane_set, n: [tuple_lane_play_greedy(strat, exp, n, probes)
                                              for exp, probes in lane_set]
    try:
        return lane_eval(strat, eval_stream, n_episodes)
    finally:
        del strat._play_greedy


@pytest.mark.parametrize("kind", ["dqn", "a2c"])
@pytest.mark.parametrize("case", list(LANE_CASES))
def test_lane_eval_matches_the_tuple_lane_loop(case, kind):
    make_stream, obs_dim, n_actions = LANE_CASES[case]
    strat = eval_strategy(kind, obs_dim, n_actions)
    stream = make_stream()
    got, want = lane_eval(strat, stream, 33), tuple_lane_eval(strat, make_stream(), 33)
    assert got[:2] == want[:2]  # episodes and results
    if len(stream) == 1:  # a set of one experience also makes the oracle's calls
        assert got[2] == want[2]
    assert all(type(r) is float and type(n) is int for r, n in got[0])


@pytest.mark.parametrize("n_episodes", [1, 31, 32, 33, 200])
@pytest.mark.parametrize("case", ["cartpole", "gridworld"])
def test_lane_eval_matches_the_tuple_lane_loop_at_every_width(case, n_episodes):
    make_stream, obs_dim, n_actions = LANE_CASES[case]
    strat = eval_strategy("a2c", obs_dim, n_actions)
    episodes, results, batches = lane_eval(strat, make_stream(), n_episodes)
    assert (episodes, results, batches) == tuple_lane_eval(strat, make_stream(), n_episodes)
    assert len(episodes) == n_episodes


@pytest.mark.parametrize("n_episodes", [1, 31, 32, 33, 200])
@pytest.mark.parametrize("case", list(MERGED_CASES))
def test_lane_sets_match_the_per_task_oracles(case, n_episodes):
    """A lane set plays all its experiences' episodes side by side. Episodes,
    records and results are those of playing each experience on its own, one
    episode at a time (sequential_eval) and on lanes of its own
    (tuple_lane_play_greedy); the widest greedy batch is the set's job count,
    up to EVAL_LANES."""
    make_stream, obs_dim, n_actions, sets = MERGED_CASES[case]
    assert lane_sets(make_stream()) == sets
    strat = eval_strategy("a2c" if n_episodes % 2 else "dqn", obs_dim, n_actions)
    episodes = assert_lanes_match_sequential(strat, make_stream(), n_episodes)
    assert len(episodes) == sum(size for size, _ in sets) * n_episodes
    got = lane_eval(strat, make_stream(), n_episodes)
    got_records = strat.metrics.records
    want = tuple_lane_eval(strat, make_stream(), n_episodes)
    assert got[:2] == want[:2]
    assert got_records == strat.metrics.records
    assert [r.phase for r in got_records] == ["eval"] * len(got_records)


class EvalEventLog(StrategyPlugin):
    """Logs each eval hook, and each greedy_action call, with the index of
    the strategy's eval_experience at that moment."""

    def __init__(self, strat):
        self.events = []
        greedy = strat.greedy_action

        def logged(obs):
            self.log(strat, "act")
            return greedy(obs)

        strat.greedy_action = logged

    def log(self, strategy, event):
        index = strategy.eval_experience.experience_index
        if not self.events or self.events[-1] != (event, index) or event != "act":
            self.events.append((event, index))

    def before_eval_exp(self, strategy):
        self.log(strategy, "before_eval_exp")

    def after_eval_exp(self, strategy):
        self.log(strategy, "after_eval_exp")


def test_eval_hooks_see_their_own_experience_after_its_lane_set_played():
    """Greedy calls see the set's first experience as eval_experience; each
    hook sees its own experience, in stream order, after the set played."""
    stream = stream_of(cartpole, cartpole, SubCartPole, cartpole)
    strat = eval_strategy("dqn", 4, 2)
    log = EvalEventLog(strat)
    strat.plugins = [log]
    strat.evaluate(stream, 3)
    hooks = lambda i: [("before_eval_exp", i), ("after_eval_exp", i)]  # noqa: E731
    assert log.events == [("act", 0), *hooks(0), *hooks(1), ("act", 2), *hooks(2),
                          ("act", 3), *hooks(3)]
    assert strat.eval_experience is None


def lane_schedule(lengths, width):
    """The row count of every greedy_action call when `width` lanes play
    jobs of these lengths: lanes start with jobs 0..width-1, and a lane whose
    job ends takes the next unplayed one, in job order."""
    left = list(lengths[:width])  # steps each lane's job has still to play
    next_job, rows = width, []
    while left:
        rows.append(len(left))
        live = []
        for steps in left:
            if steps > 1:
                live.append(steps - 1)
            elif next_job < len(lengths):
                live.append(lengths[next_job])
                next_job += 1
        left = live
    return rows


def job_schedule(stream, lengths, n_episodes):
    """lane_schedule of each lane set in turn. A set's jobs are its
    (experience, episode) pairs in stream order, then episode order, which is
    the order of `lengths`, the lengths of the episodes evaluate() booked."""
    rows, first = [], 0
    for (size, _), width in zip(lane_sets(stream), set_widths(stream, n_episodes)):
        jobs = size * n_episodes
        rows += lane_schedule(lengths[first:first + jobs], width)
        first += jobs
    return rows


def test_lane_schedule_refills_in_episode_order():
    assert lane_schedule([3, 1, 2, 1], 2) == [2, 2, 2, 1]
    assert lane_schedule([2, 2], 1) == [1, 1, 1, 1]
    assert lane_schedule([1, 1, 1], 5) == [3]


def test_job_schedule_follows_the_lane_sets():
    stream = stream_of(cartpole, cartpole)
    assert job_schedule(stream, [3, 1, 2, 1], 2) == [4, 2, 1]  # one set of 4 jobs
    stream = stream_of(cartpole, cartpole, SubCartPole)
    assert job_schedule(stream, [3, 1, 2, 1, 1, 2], 2) == [4, 2, 1, 2, 1]
    assert job_schedule(task_stream_scenario().train_stream, [2, 1, 1, 3], 2) == [1] * 7


SCHEDULE_CASES = ([(case, 33) for case in LANE_CASES] + [("cartpole", n) for n in (1, 31, 32, 200)]
                  + [(case, n) for case in ("cartpole-poles", "grid-and-subclass", "task-stream-shared")
                     for n in (1, 32, 33)])


@pytest.mark.parametrize("case, n_episodes", SCHEDULE_CASES,
                         ids=[f"{case}-{n}" for case, n in SCHEDULE_CASES])
def test_greedy_action_runs_once_per_lockstep_step_of_the_lane_schedule(case, n_episodes):
    """perfbench runs its eval yardstick on a cadence of greedy_action calls,
    so the calls and their row counts are part of what the eval benchmark
    measures: one call per lockstep step of each lane set, with one row per
    running (experience, episode) job."""
    make_stream, obs_dim, n_actions = {**LANE_CASES, **MERGED_CASES}[case][:3]
    stream = make_stream()
    episodes, _, batches = lane_eval(eval_strategy("dqn", obs_dim, n_actions), stream, n_episodes)
    assert batches == job_schedule(make_stream(), [n for _, n in episodes], n_episodes)


def test_shared_env_lane_schedule_is_one_row_per_step():
    (train_exp, *_) = task_stream_scenario().train_stream
    episodes, _, batches = lane_eval(eval_strategy("dqn", 9, 4), [train_exp], 5)
    assert batches == lane_schedule([n for _, n in episodes], 1)
