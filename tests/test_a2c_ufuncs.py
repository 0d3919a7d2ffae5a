"""Bitwise oracles for the A2C acting step and update. The oracles below are
the formulas as they were before their numpy reductions became direct ufunc
calls (np.maximum.reduce, np.add.reduce, np.add.accumulate) and the n-step
returns of every actor ran in one pass; the program must give the same bits.

Inputs cover 2 to 9 actions (numpy's pairwise sum changes blocks at 8),
batches of 1, 4, 20 and 33 rows, logits up to +-700 (probabilities of
exactly 0) and tied logits, and rollouts whose dones fall inside and at the
last step."""

import numpy as np
import pytest

from streamrl.nn import Adam, Mlp, mse_loss, policy_losses, softmax
from streamrl.training import A2cStrategy, Steps, TrainingBudget, compute_nstep_returns
from test_transitions import by_actor, rollout_of

ACTIONS = range(2, 10)
BATCHES = (1, 4, 20, 33)


def parent_softmax_parts(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    total = probs.sum(axis=-1, keepdims=True)
    probs /= total
    return shifted, probs, total


def parent_policy_losses(logits, actions, advantages):
    n, _ = logits.shape
    shifted, probs, total = parent_softmax_parts(logits)
    picked = shifted[np.arange(n), actions] - np.log(total[:, 0])
    pg_grad = advantages[:, None] * (probs - np.eye(probs.shape[1])[actions]) / n
    safe_log = np.log(np.where(probs > 0.0, probs, 1.0))
    row_entropy = -(probs * safe_log).sum(axis=1)
    entropy_grad = -probs * (safe_log + row_entropy[:, None]) / n
    pg_loss, entropy = (-picked * advantages).sum() / n, row_entropy.sum() / n
    return (float(pg_loss), pg_grad), (float(entropy), entropy_grad)


def parent_mse_loss(pred, target):
    diff = pred - target
    return float((diff * diff).sum() / diff.size), 2.0 * diff / diff.size


def parent_sample(model, rng, obs):
    logits = model.forward(obs)["policy_logits"]
    cdf = parent_softmax_parts(logits)[1].cumsum(axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(len(cdf))
    return (cdf <= u[:, None]).sum(axis=1)


def parent_nstep_returns(rewards, dones, bootstrap_value, gamma):
    rewards = np.asarray(rewards, dtype=np.float64).tolist()
    returns = [0.0] * len(rewards)
    acc = float(bootstrap_value)
    for t in range(len(rewards) - 1, -1, -1):
        if dones[t]:
            acc = 0.0
        acc = rewards[t] + gamma * acc
        returns[t] = acc
    return np.array(returns, dtype=np.float64)


def parent_update(strat, rollout):
    """A2cStrategy.apply_update with the oracles above and one returns array
    per actor, joined."""
    per_actor = by_actor(rollout)
    tail_values = strat.model.forward(per_actor.next_obs[:, -1])["value"][:, 0]
    returns = np.concatenate([
        parent_nstep_returns(rewards, dones, tail, strat.gamma)
        for rewards, dones, tail in zip(
            per_actor.reward.tolist(), per_actor.done.tolist(), tail_values.tolist())
    ])
    obs = per_actor.obs.reshape(len(rollout), *per_actor.obs.shape[2:])
    out = strat.model.forward(obs)
    logits, values = out["policy_logits"], out["value"][:, 0]
    (pg_loss, pg_grad), (entropy, entropy_grad) = parent_policy_losses(
        logits, per_actor.action.reshape(len(rollout)), returns - values)
    value_loss, value_grad = parent_mse_loss(values, returns)
    grads = strat.model.backward({
        "policy_logits": pg_grad - strat.entropy_coef * entropy_grad,
        "value": (strat.value_coef * value_grad)[:, None],
    })
    grads += strat.grad_accum
    strat.optimizer.step(strat.model.params, grads)
    return pg_loss + strat.value_coef * value_loss - strat.entropy_coef * entropy


def same_bits(got, want):
    """(loss, gradient) pairs, equal and with the same bits (signs of zero too)."""
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()


def logit_batches(rng, n, k):
    """Logits as a column slice of a wider output (as the policy head is): at
    three scales, at +-700 with some rows tied, and all tied."""
    for scale in (0.1, 3.0, 700.0):
        out = rng.normal(scale=scale, size=(n, k + 1))
        if scale == 700.0:
            out[:, :k] = np.clip(out[:, :k], -700.0, 700.0)
            out[::2, 0] = 700.0
            out[::2, 1] = -700.0
            out[1::3, :k] = 4.0
        yield out[:, :k]
    yield np.full((n, k + 1), -2.5)[:, :k]


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("k", ACTIONS)
def test_softmax_and_losses_equal_the_parent_formulas_bitwise(n, k):
    rng = np.random.default_rng(100 * n + k)
    zeros = 0
    for logits in logit_batches(rng, n, k):
        want_parts = parent_softmax_parts(logits)
        zeros += int((want_parts[1] == 0.0).sum())
        assert np.array_equal(softmax(logits), want_parts[1])
        assert softmax(logits).tobytes() == want_parts[1].tobytes()
        actions = rng.integers(0, k, size=n)
        advantages = rng.normal(size=n)
        advantages[::3] = -0.0
        got, want = policy_losses(logits, actions, advantages), parent_policy_losses(
            logits, actions, advantages)
        same_bits(got[0], want[0])
        same_bits(got[1], want[1])
        values, returns = rng.normal(size=n) * 50.0, rng.normal(size=n)
        returns[::2] = -0.0
        same_bits(mse_loss(values, returns), parent_mse_loss(values, returns))
        matrix = rng.normal(size=(n, k))  # mse_loss also takes any shape
        same_bits(mse_loss(matrix, -matrix), parent_mse_loss(matrix, -matrix))
    assert zeros > 0  # the +-700 rows underflow to probabilities of 0


def a2c_model(k, obs_dim=3, seed=0):
    return Mlp([obs_dim, 8, k + 1], heads={"policy_logits": k, "value": 1}, seed=seed)


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("k", ACTIONS)
def test_sampled_actions_equal_the_parent_sampler_bitwise(n, k):
    rng = np.random.default_rng(10 * n + k)
    model = a2c_model(k)
    strat = A2cStrategy(model, Adam(1e-3), TrainingBudget(1, Steps(1)), action_seed=k)
    oracle_rng = np.random.default_rng(k)
    for trial in range(60):
        # scale 300 puts logits near +-700: probabilities of exactly 0
        model.params[...] = rng.normal(size=model.param_count) * (0.1, 1.0, 300.0)[trial % 3]
        obs = rng.normal(size=(n, 3))
        if trial % 5 == 4:  # tied logits: every policy row of the last layer alike
            model.weights[-1][:k] = model.weights[-1][0]
            model.biases[-1][:k] = model.biases[-1][0]
        want = parent_sample(model, oracle_rng, obs)
        got = strat.sample_rollout_action(obs)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert strat._action_rng.bit_generator.state == oracle_rng.bit_generator.state


DONES = {  # (actor, t, T) -> done
    "none": lambda a, t, T: False,
    "inside": lambda a, t, T: t == T // 2,
    "last": lambda a, t, T: t == T - 1,
    "mixed": lambda a, t, T: (a + t) % 3 == 0 or t == T - 1 and a % 2 == 1,
}


@pytest.mark.parametrize("dones", list(DONES))
def test_nstep_returns_equal_the_parent_recursion_bitwise(dones):
    rng = np.random.default_rng(len(dones))
    for T in (1, 2, 5, 11, 33):
        rewards = rng.choice([-0.0, 0.0, 1.0, -1.5, 1e-300], size=T) * rng.normal(size=T)
        done = np.array([DONES[dones](0, t, T) for t in range(T)])
        for tail in (0.0, -0.0, 2.5, rng.normal()):
            for gamma in (0.0, 0.9, 0.99, 1.0):
                want = parent_nstep_returns(rewards, done, tail, gamma)
                got = compute_nstep_returns(rewards, done, tail, gamma)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                got = compute_nstep_returns(rewards.tolist(), done.tolist(), np.float64(tail), gamma)
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dones", list(DONES))
@pytest.mark.parametrize("shape", [(1, 1), (4, 1), (1, 4), (4, 5), (3, 11)])  # (actors, steps)
@pytest.mark.parametrize("k", [2, 4, 9])
def test_a2c_update_equals_the_parent_update_bitwise(dones, shape, k):
    n_actors, T = shape
    rng = np.random.default_rng(n_actors * T + k)
    models = [a2c_model(k, obs_dim=4, seed=k) for _ in range(2)]
    strats = [A2cStrategy(model, Adam(0.05), TrainingBudget(1, Steps(T)), gamma=0.9)
              for model in models]
    for update in range(4):
        if update == 3:
            for model in models:
                model.weights[-1][:k] *= 2000.0  # logits up to hundreds: probabilities of 0
        rows = []
        for t in range(T):
            obs = rng.normal(size=(n_actors, 4))
            rewards = rng.choice([-0.0, 1.0, -1.5], size=n_actors) * rng.normal(size=n_actors)
            done = np.array([DONES[dones](a, t, T) for a in range(n_actors)])
            rows.append((obs, rng.integers(0, k, size=n_actors), rewards, done,
                         obs + rng.normal(size=obs.shape)))
        rollout = rollout_of(n_actors, rows)
        accum = rng.normal(size=models[0].param_count) * (update % 2)
        for strat in strats:
            strat.loss, strat.grad_accum = 0.0, accum.copy()
        strats[0].apply_update(rollout)
        want_loss = parent_update(strats[1], rollout)
        assert np.float64(strats[0].loss).tobytes() == np.float64(want_loss).tobytes()
        assert np.array_equal(models[0].params, models[1].params)
        assert models[0].params.tobytes() == models[1].params.tobytes()
