"""EWC and replay plugins: math oracles, batch mixing, checkpoint state."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from streamrl.benchmarks import EnvSpec, Explicit, gym_benchmark_generator
from streamrl.envs import GridScene, GridWorld
from streamrl.nn import Adam, LengthMismatch, Mlp
from streamrl.plugins import (
    FISHER_CHUNK,
    EwcPlugin,
    EwcState,
    NaivePlugin,
    ReplayPlugin,
    ewc_penalty_and_grad,
)
from streamrl.training import (
    A2cStrategy,
    DqnStrategy,
    ReplayBuffer,
    Rollout,
    Steps,
    StrategyPlugin,
    TrainingBudget,
    Transitions,
)

SPEC_A = EnvSpec("grid_a", lambda: GridWorld(GridScene(5, 5)))
SPEC_B = EnvSpec("grid_b", lambda: GridWorld(GridScene(5, 5, goal=(0, 4))))


def tiny_model(params=(1.0, 2.0)):
    model = Mlp([1, 1])  # exactly two parameters: one weight, one bias
    model.unflatten(np.asarray(params, dtype=float))
    return model


def flat_steps(values, label=0, action=0, done=False):
    """One transition per value: obs [value], reward value, next_obs value + 0.5."""
    obs = np.asarray(values, dtype=float).reshape(-1, 1)
    n = len(obs)
    return Transitions(obs=obs, action=np.full(n, action), reward=obs[:, 0].copy(),
                       done=np.full(n, done), next_obs=obs + 0.5, task_label=np.full(n, label))


def flat_step(value, **kwargs):
    return flat_steps([value], **kwargs)


class FakeStrategy:
    """Just the surface the plugins reach for."""

    def __init__(self, model, grad_fn=None, batch=None, task_label=0):
        self.model = model
        self.loss = 0.0
        self.grad_accum = np.zeros(model.param_count)
        self.update_batch = batch
        self.experience = SimpleNamespace(task_label=task_label)
        self.rollout = None
        self._grad_fn = grad_fn

    def per_sample_loss_grad(self, step):
        return self._grad_fn(step)[None, :]

    def fisher_sum(self, steps):
        rows = [self.per_sample_loss_grad(steps[i]) for i in range(len(steps))]
        return sum((r * r).sum(axis=0) for r in rows)


# ---------------------------------------------------------------------------
# EWC penalty math
# ---------------------------------------------------------------------------


def test_penalty_zero_at_anchor():
    model = tiny_model((1.0, 2.0))
    state = EwcState(lam=100.0, fisher_sample_count=1,
                     anchors=[model.flatten()], fishers=[np.ones(2)])
    penalty, grad = ewc_penalty_and_grad(model, state)
    assert penalty == 0.0
    assert np.array_equal(grad, np.zeros(2))


def test_penalty_hand_example():
    model = tiny_model((1.0, 2.0))
    state = EwcState(lam=2.0, fisher_sample_count=1,
                     anchors=[np.array([0.0, 3.0])], fishers=[np.ones(2)])
    penalty, grad = ewc_penalty_and_grad(model, state)
    # diff = [1, -1]: penalty = (2/2) * (1 + 1), grad = 2 * diff
    assert abs(penalty - 2.0) < 1e-15
    assert np.allclose(grad, [2.0, -2.0])


def test_penalty_sums_over_anchors():
    model = tiny_model((1.0, 2.0))
    a1, f1 = np.array([0.0, 2.0]), np.array([1.0, 4.0])
    a2, f2 = np.array([3.0, 3.0]), np.array([0.5, 0.0])
    state = EwcState(lam=10.0, fisher_sample_count=1, anchors=[a1, a2], fishers=[f1, f2])
    penalty, grad = ewc_penalty_and_grad(model, state)
    params = model.flatten()
    want_p = sum(
        0.5 * 10.0 * float(np.sum(f * (params - a) ** 2))
        for a, f in ((a1, f1), (a2, f2))
    )
    want_g = sum(10.0 * f * (params - a) for a, f in ((a1, f1), (a2, f2)))
    assert abs(penalty - want_p) < 1e-12
    assert np.allclose(grad, want_g, atol=1e-12)


def test_penalty_grad_matches_finite_differences():
    model = Mlp([2, 3], seed=0)
    n = model.param_count
    rng = np.random.default_rng(5)
    state = EwcState(
        lam=0.7, fisher_sample_count=1,
        anchors=[rng.normal(size=n), rng.normal(size=n)],
        fishers=[rng.uniform(0.1, 1.0, size=n), rng.uniform(0.1, 1.0, size=n)],
    )
    _, grad = ewc_penalty_and_grad(model, state)
    base = model.flatten()
    probe = model.clone()
    h = 1e-6
    for i in range(n):
        for sign, store in ((+1, "plus"), (-1, "minus")):
            shifted = base.copy()
            shifted[i] += sign * h
            probe.unflatten(shifted)
            val, _ = ewc_penalty_and_grad(probe, state)
            if sign > 0:
                p_plus = val
            else:
                p_minus = val
        fd = (p_plus - p_minus) / (2 * h)
        assert abs(fd - grad[i]) / max(1e-8, abs(grad[i])) < 1e-6


def test_penalty_rejects_mismatched_state():
    model = tiny_model()
    state = EwcState(lam=1.0, fisher_sample_count=1,
                     anchors=[np.zeros(3)], fishers=[np.zeros(3)])
    with pytest.raises(LengthMismatch):
        ewc_penalty_and_grad(model, state)


def old_ewc_penalty_and_grad(model, state):
    """ewc_penalty_and_grad as it was before it worked in scratch rows."""
    params = model.params
    penalty = 0.0
    grad = np.zeros_like(params)
    for anchor, fisher in zip(state.anchors, state.fishers):
        diff = params - anchor
        penalty += 0.5 * state.lam * float(np.sum(fisher * diff * diff))
        grad += state.lam * fisher * diff
    return penalty, grad


@pytest.mark.parametrize("prior", ["no-prior-gradient", "prior-gradient"])
@pytest.mark.parametrize("n_anchors", [1, 2, 3])
def test_ewc_before_update_equals_the_old_composition_bitwise(n_anchors, prior):
    """loss += penalty and grad_accum += grad, bit for bit as with the old
    function, over several updates, also when a preceding plugin already put
    a gradient in grad_accum."""
    rng = np.random.default_rng(n_anchors)
    model = Mlp([4, 16, 3], seed=n_anchors)
    plugin = EwcPlugin(lam=37.5)
    for _ in range(n_anchors):
        anchor = model.params + rng.normal(size=model.param_count) * rng.choice([0.0, 1e-3, 1.0])
        anchor[::7] = model.params[::7]  # exact zeros in diff
        plugin.state.anchors.append(anchor)
        fisher = rng.random(model.param_count)
        fisher[rng.random(model.param_count) < 0.2] = 0.0
        plugin.state.fishers.append(fisher)
    for _ in range(4):
        strategy = FakeStrategy(model)
        strategy.loss = float(rng.normal())
        if prior == "prior-gradient":
            strategy.grad_accum = rng.normal(size=model.param_count) * 1e3
        want_penalty, want_grad = old_ewc_penalty_and_grad(model, plugin.state)
        want_loss, want_accum = strategy.loss + want_penalty, strategy.grad_accum + want_grad
        plugin.before_update(strategy)
        assert np.float64(strategy.loss).tobytes() == np.float64(want_loss).tobytes()
        assert strategy.grad_accum.tobytes() == want_accum.tobytes()
        model.params[...] += rng.normal(size=model.param_count) * 0.1
    penalty, grad = ewc_penalty_and_grad(model, plugin.state)
    want_penalty, want_grad = old_ewc_penalty_and_grad(model, plugin.state)
    assert penalty == want_penalty and grad.tobytes() == want_grad.tobytes()


# ---------------------------------------------------------------------------
# Fisher estimation
# ---------------------------------------------------------------------------


def run_fisher(plugin, strat, rewards):
    rollout = Rollout(1)
    for r in rewards:
        rollout.append(*flat_step(r).columns[:5])
    strat.rollout = rollout
    plugin.before_training_exp(strat)
    plugin.after_rollout(strat)
    plugin.after_training_exp(strat)


def test_fisher_zero_gradients():
    model = tiny_model()
    strat = FakeStrategy(model, grad_fn=lambda step: np.zeros(2))
    plugin = EwcPlugin(lam=1.0, fisher_sample_count=2)
    run_fisher(plugin, strat, [1.0, 2.0])
    assert np.array_equal(plugin.state.fishers[0], np.zeros(2))
    assert np.array_equal(plugin.state.anchors[0], model.flatten())


def test_fisher_single_sample_squares_gradient():
    model = tiny_model()
    strat = FakeStrategy(model, grad_fn=lambda step: np.array([step.reward, 0.0]))
    plugin = EwcPlugin(lam=1.0, fisher_sample_count=1)
    run_fisher(plugin, strat, [3.0])
    assert np.allclose(plugin.state.fishers[0], [9.0, 0.0])


def test_fisher_averages_squared_gradients():
    model = tiny_model()
    strat = FakeStrategy(model, grad_fn=lambda step: np.array([step.reward, 0.0]))
    plugin = EwcPlugin(lam=1.0, fisher_sample_count=2)
    run_fisher(plugin, strat, [1.0, -2.0])
    assert np.allclose(plugin.state.fishers[0], [2.5, 0.0])


def test_fisher_uses_only_last_k_samples():
    model = tiny_model()
    strat = FakeStrategy(model, grad_fn=lambda step: np.array([step.reward, 0.0]))
    plugin = EwcPlugin(lam=1.0, fisher_sample_count=2)
    run_fisher(plugin, strat, [1.0, 2.0, 3.0])
    assert np.allclose(plugin.state.fishers[0], [(4.0 + 9.0) / 2, 0.0])


def test_fisher_warns_when_short_of_samples():
    model = tiny_model()
    strat = FakeStrategy(model, grad_fn=lambda step: np.zeros(2))
    plugin = EwcPlugin(lam=1.0, fisher_sample_count=10)
    with pytest.warns(UserWarning, match="transitions"):
        run_fisher(plugin, strat, [1.0])
    assert plugin.state.n_anchors == 1  # still anchors with what it has


def test_fisher_silent_with_enough_samples():
    model = tiny_model()
    strat = FakeStrategy(model, grad_fn=lambda step: np.zeros(2))
    plugin = EwcPlugin(lam=1.0, fisher_sample_count=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_fisher(plugin, strat, [1.0, 2.0])


def test_ewc_noop_before_first_anchor():
    model = tiny_model()
    strat = FakeStrategy(model)
    plugin = EwcPlugin(lam=100.0, fisher_sample_count=1)
    plugin.before_update(strat)
    assert strat.loss == 0.0
    assert np.array_equal(strat.grad_accum, np.zeros(2))


def test_ewc_adds_penalty_once_anchored():
    model = tiny_model((1.0, 2.0))
    strat = FakeStrategy(model)
    plugin = EwcPlugin(lam=2.0, fisher_sample_count=1)
    plugin.state.anchors.append(np.array([0.0, 3.0]))
    plugin.state.fishers.append(np.ones(2))
    strat.loss = 0.5
    plugin.before_update(strat)
    assert abs(strat.loss - 2.5) < 1e-15
    assert np.allclose(strat.grad_accum, [2.0, -2.0])


def test_ewc_ctor_validation():
    with pytest.raises(ValueError):
        EwcPlugin(lam=-1.0)
    with pytest.raises(ValueError):
        EwcPlugin(fisher_sample_count=0)
    for lam in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam"):
            EwcPlugin(lam=lam)
    for count in (2.5, True):
        with pytest.raises(ValueError, match="fisher_sample_count"):
            EwcPlugin(fisher_sample_count=count)


def test_ewc_state_sections_round_trip():
    plugin = EwcPlugin(lam=5.0, fisher_sample_count=3)
    plugin.state.anchors.append(np.array([1.0, -2.0]))
    plugin.state.fishers.append(np.array([0.5, 2.0]))
    plugin.state.anchors.append(np.array([0.25, 0.75]))
    plugin.state.fishers.append(np.array([4.0, 0.0]))

    fresh = EwcPlugin()
    fresh.load_state_sections(plugin.state_sections())
    assert fresh.state.lam == 5.0
    assert fresh.state.fisher_sample_count == 3
    assert fresh.state.n_anchors == 2
    for k in range(2):
        assert np.array_equal(fresh.state.anchors[k], plugin.state.anchors[k])
        assert np.array_equal(fresh.state.fishers[k], plugin.state.fishers[k])

    model = tiny_model((0.9, -0.1))
    assert ewc_penalty_and_grad(model, fresh.state)[0] == \
        ewc_penalty_and_grad(model, plugin.state)[0]


# ---------------------------------------------------------------------------
# Replay plugin
# ---------------------------------------------------------------------------


def seeded_replay(n_memory=20, label=1, base=100.0, **kwargs):
    plugin = ReplayPlugin(capacity=1000, **kwargs)
    for i in range(n_memory):
        plugin.memory.extend(flat_step(base + i, label=label))
    return plugin


def fresh_batch(n=10, label=0):
    return flat_steps(np.arange(n), label=label)


def test_replay_mixes_exact_fraction():
    plugin = seeded_replay(mix_ratio=0.5, seed=3)
    batch = fresh_batch(10)
    strat = FakeStrategy(tiny_model(), batch=batch, task_label=0)
    plugin.before_update(strat)
    foreign = [s for s in batch if s.obs[0] >= 100.0]
    assert len(foreign) == 5
    assert all(s.task_label == 1 for s in foreign)


def test_replay_fraction_floors():
    plugin = seeded_replay(mix_ratio=0.5, seed=3)
    batch = fresh_batch(5)
    strat = FakeStrategy(tiny_model(), batch=batch, task_label=0)
    plugin.before_update(strat)
    assert sum(1 for s in batch if s.obs[0] >= 100.0) == 2  # floor(2.5)


def test_replay_zero_ratio_is_identity():
    plugin = seeded_replay(mix_ratio=0.0, seed=3)
    batch = fresh_batch(10)
    originals = batch[np.arange(len(batch))]
    strat = FakeStrategy(tiny_model(), batch=batch, task_label=0)
    plugin.before_update(strat)
    assert all(np.array_equal(a, b) for a, b in zip(batch.columns, originals.columns))


def test_replay_full_ratio_replaces_everything():
    plugin = seeded_replay(mix_ratio=1.0, seed=3)
    batch = fresh_batch(10)
    strat = FakeStrategy(tiny_model(), batch=batch, task_label=0)
    plugin.before_update(strat)
    assert all(s.task_label == 1 for s in batch)


def test_replay_prefers_other_task_labels():
    plugin = ReplayPlugin(capacity=1000, mix_ratio=1.0, seed=3)
    for i in range(10):
        plugin.memory.extend(flat_step(100.0 + i, label=0))
    for i in range(3):
        plugin.memory.extend(flat_step(200.0 + i, label=1))
    batch = fresh_batch(10, label=0)
    strat = FakeStrategy(tiny_model(), batch=batch, task_label=0)
    plugin.before_update(strat)
    assert all(s.task_label == 1 for s in batch)  # never the current task


def test_replay_falls_back_to_own_task():
    plugin = seeded_replay(label=0, mix_ratio=1.0, seed=3)  # memory only label 0
    batch = fresh_batch(10, label=0)
    strat = FakeStrategy(tiny_model(), batch=batch, task_label=0)
    plugin.before_update(strat)
    assert all(s.obs[0] >= 100.0 for s in batch)


def test_replay_empty_memory_is_identity():
    plugin = ReplayPlugin(capacity=10, mix_ratio=1.0, seed=0)
    batch = fresh_batch(4)
    originals = batch[np.arange(len(batch))]
    strat = FakeStrategy(tiny_model(), batch=batch, task_label=0)
    plugin.before_update(strat)
    assert all(np.array_equal(a, b) for a, b in zip(batch.columns, originals.columns))


def test_replay_leaves_rollout_batches_alone():
    plugin = seeded_replay(mix_ratio=1.0, seed=0)
    rollout = Rollout(1)
    rollout.append(*flat_step(7.0).columns[:5])
    strat = FakeStrategy(tiny_model(), batch=rollout, task_label=0)
    plugin.before_update(strat)
    assert strat.update_batch is rollout
    assert rollout.steps()[0].obs[0] == 7.0


def test_replay_skips_none_batch():
    plugin = seeded_replay(mix_ratio=1.0, seed=0)
    strat = FakeStrategy(tiny_model(), batch=None, task_label=0)
    plugin.before_update(strat)  # must not raise
    assert strat.update_batch is None


def test_replay_reproducible_across_instances():
    def mixed_values(seed):
        plugin = seeded_replay(mix_ratio=0.5, seed=seed)
        batch = fresh_batch(10)
        strat = FakeStrategy(tiny_model(), batch=batch, task_label=0)
        plugin.before_update(strat)
        return [s.obs[0] for s in batch]

    assert mixed_values(11) == mixed_values(11)
    assert mixed_values(11) != mixed_values(12)


def test_replay_collects_rollouts():
    plugin = ReplayPlugin(capacity=100, mix_ratio=0.5, seed=0)
    rollout = Rollout(2)
    for t in range(3):
        rollout.append(*flat_steps([10 * a + t for a in range(2)]).columns[:5])
    strat = FakeStrategy(tiny_model(), task_label=0)
    strat.rollout = rollout
    plugin.after_rollout(strat)
    assert len(plugin.memory) == 6


def test_replay_ctor_validation():
    with pytest.raises(ValueError):
        ReplayPlugin(mix_ratio=-0.1)
    with pytest.raises(ValueError):
        ReplayPlugin(mix_ratio=1.5)
    with pytest.raises(ValueError):
        ReplayPlugin(capacity=0)
    for capacity in (2.5, True):
        with pytest.raises(ValueError, match="capacity"):
            ReplayBuffer(capacity)
        with pytest.raises(ValueError, match="capacity"):
            ReplayPlugin(capacity=capacity)
        with pytest.raises(ValueError, match="capacity"):
            DqnStrategy(Mlp([25, 4], heads={"q_values": 4}), Adam(1e-3),
                        TrainingBudget(1, Steps(1)), replay_capacity=capacity)


def test_replay_state_sections_round_trip():
    plugin = ReplayPlugin(capacity=50, mix_ratio=0.25, seed=0)
    plugin.memory.extend(flat_step(1.5, label=2, action=3, done=True))
    plugin.memory.extend(flat_step(-4.0, label=0, action=1))

    fresh = ReplayPlugin()
    fresh.load_state_sections(plugin.state_sections())
    assert fresh.memory.capacity == 50
    assert fresh.mix_ratio == 0.25
    assert len(fresh.memory) == 2
    for got, want in zip(fresh.memory.items(), plugin.memory.items()):
        assert np.array_equal(got.obs, want.obs)
        assert np.array_equal(got.next_obs, want.next_obs)
        assert got.action == want.action
        assert got.reward == want.reward
        assert got.done == want.done
        assert got.task_label == want.task_label


def test_replay_state_sections_empty_memory():
    plugin = ReplayPlugin(capacity=7, mix_ratio=0.5, seed=0)
    sections = plugin.state_sections()
    assert set(sections) == {"replay/meta"}
    fresh = ReplayPlugin()
    fresh.load_state_sections(sections)
    assert len(fresh.memory) == 0
    assert fresh.memory.capacity == 7


# ---------------------------------------------------------------------------
# Plugins riding a real training run
# ---------------------------------------------------------------------------


def small_dqn(seed=0):
    model = Mlp([25, 8, 4], heads={"q_values": 4}, seed=seed)
    return model, DqnStrategy(
        model, Adam(1e-3), TrainingBudget(3, Steps(2)), batch_size=4,
        env_seed=1, action_seed=2, replay_seed=3,
    )


def test_ewc_anchors_one_per_experience():
    _, strat = small_dqn()
    ewc = EwcPlugin(lam=1.0, fisher_sample_count=4)
    scn = gym_benchmark_generator([SPEC_A, SPEC_B], 2, Explicit((0, 1)))
    strat.train(scn, [ewc])
    assert ewc.state.n_anchors == 2
    assert all(a.size == strat.model.param_count for a in ewc.state.anchors)
    assert all(np.all(f >= 0) for f in ewc.state.fishers)


class WindowRecorder(StrategyPlugin):
    """Keeps every transition the experience collected, in rollout order."""

    def __init__(self):
        self.steps = []

    def after_rollout(self, strategy):
        self.steps.extend(strategy.rollout.steps())


def brute_force_q_fisher(model, anchor, steps):
    """mean_s sum_a (dQ_a(s)/dtheta)^2: one forward pass per sample, then one
    one-hot backward pass per action."""
    probe = model.clone()
    probe.unflatten(anchor)
    n_actions = probe.heads["q_values"]
    acc = np.zeros(probe.param_count)
    for step in steps:
        probe.forward(step.obs[None, :])
        for a in range(n_actions):
            one_hot = np.zeros((1, n_actions))
            one_hot[0, a] = 1.0
            grad = probe.backward({"q_values": one_hot})
            acc += grad * grad
    return acc / len(steps)


@pytest.mark.parametrize("double", [False, True])
def test_ewc_dqn_fisher_matches_brute_force_output_space_loop(double):
    model = Mlp([25, 8, 6, 4], activations=["tanh", "relu", "identity"],
                heads={"q_values": 4}, seed=4)
    strat = DqnStrategy(
        model, Adam(1e-2), TrainingBudget(20, Steps(3)), batch_size=4, double=double,
        target_sync_period=5, env_seed=1, action_seed=2, replay_seed=3,
    )
    recorder = WindowRecorder()
    ewc = EwcPlugin(lam=1.0, fisher_sample_count=32)
    scn = gym_benchmark_generator([SPEC_A], 1, Explicit((0,)))
    strat.train(scn, [recorder, ewc])

    assert len(recorder.steps) == 60
    anchor, fisher = ewc.state.anchors[0], ewc.state.fishers[0]
    assert np.array_equal(anchor, model.flatten())
    want = brute_force_q_fisher(model, anchor, recorder.steps[-32:])
    assert np.max(np.abs(fisher - want)) <= 1e-12
    # every output unit's bias has importance 1 per sample, taken action or not
    assert np.allclose(fisher[-4:], 1.0, atol=1e-12)


def fisher_strategy(kind, activation):
    """A 4-action strategy on a [3, 16, 16] body, seeded."""
    act = [activation, activation, "identity"]
    budget = TrainingBudget(1, Steps(1))
    if kind == "a2c":
        model = Mlp([3, 16, 16, 5], activations=act, heads={"policy_logits": 4, "value": 1}, seed=5)
        return A2cStrategy(model, Adam(1e-3), budget)
    model = Mlp([3, 16, 16, 4], activations=act, heads={"q_values": 4}, seed=5)
    return DqnStrategy(model, Adam(1e-3), budget, double=kind == "double_dqn")


def per_sample_fisher_sum(strategy, steps):
    """The reference: one per_sample_loss_grad pass per transition."""
    total = np.zeros(strategy.model.param_count)
    for i in range(len(steps)):
        rows = strategy.per_sample_loss_grad(steps[i])
        total += (rows * rows).sum(axis=0)
    return total


@pytest.mark.parametrize("n", [1, 63, 64, 65, 512])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("kind", ["a2c", "dqn", "double_dqn"])
def test_batched_fisher_matches_the_per_sample_loop(kind, activation, n, monkeypatch):
    strategy = fisher_strategy(kind, activation)
    rng = np.random.default_rng(n)
    obs = rng.normal(size=(n + 40, 3))
    stream = Transitions(obs=obs, action=rng.integers(0, 4, size=n + 40),
                         reward=rng.normal(size=n + 40), done=rng.random(n + 40) < 0.3,
                         next_obs=obs + 0.5, task_label=np.zeros(n + 40, dtype=np.int64))
    window = stream[40:]

    want = per_sample_fisher_sum(strategy, window)
    np.testing.assert_allclose(strategy.fisher_sum(window), want, rtol=1e-12, atol=0)

    plugin = EwcPlugin(lam=1.0, fisher_sample_count=n)
    plugin.before_training_exp(strategy)
    for lo, hi in ((0, 25), (25, n + 40)):  # the second rollout wraps the window's ring
        strategy.rollout = SimpleNamespace(steps=lambda lo=lo, hi=hi: stream[lo:hi])
        plugin.after_rollout(strategy)
    passes, forward = [], Mlp.forward

    def spy(net, batch):
        passes.append(len(batch))
        return forward(net, batch)

    monkeypatch.setattr(Mlp, "forward", spy)
    plugin.after_training_exp(strategy)
    monkeypatch.undo()

    assert sum(passes) == n and max(passes) <= FISHER_CHUNK
    assert np.array_equal(plugin.state.anchors[0], strategy.model.params)
    np.testing.assert_allclose(plugin.state.fishers[0], want / n, rtol=1e-12, atol=0)


def test_replay_memory_spans_experiences():
    _, strat = small_dqn()
    replay = ReplayPlugin(capacity=1000, mix_ratio=0.5, seed=7)
    scn = gym_benchmark_generator([SPEC_A, SPEC_B], 2, Explicit((0, 1)))
    strat.train(scn, [replay])
    labels = {s.task_label for s in replay.memory.items()}
    assert labels == {0, 1}
    assert len(replay.memory) == 12  # every collected transition retained


def test_ewc_and_replay_compose():
    _, strat = small_dqn()
    ewc = EwcPlugin(lam=1.0, fisher_sample_count=4)
    replay = ReplayPlugin(capacity=1000, mix_ratio=0.5, seed=7)
    scn = gym_benchmark_generator([SPEC_A, SPEC_B], 2, Explicit((0, 1)))
    report = strat.train(scn, [ewc, replay])
    assert ewc.state.n_anchors == 2
    assert {s.task_label for s in replay.memory.items()} == {0, 1}
    assert report.total_updates == 6


def test_naive_plugin_changes_nothing():
    def final_params(plugins):
        model, strat = small_dqn(seed=9)
        scn = gym_benchmark_generator([SPEC_A], 1, Explicit((0,)))
        strat.train(scn, plugins)
        return model.flatten()

    assert np.array_equal(final_params([]), final_params([NaivePlugin()]))
