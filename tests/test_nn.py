"""MLP forward/backward, losses, optimizers, flat parameter views."""

import math
import subprocess
import sys

import numpy as np
import pytest

from streamrl.nn import (
    Adam,
    LengthMismatch,
    Mlp,
    NoCachedForward,
    NonFinite,
    Sgd,
    ShapeMismatch,
    entropy_loss,
    huber_loss,
    mse_loss,
    policy_gradient_loss,
    policy_losses,
    softmax,
)
from streamrl.training import Rollout
from test_transitions import by_actor


def identity_net(n=2):
    net = Mlp([n, n], activations=["identity"])
    net.weights[0][...] = np.eye(n)
    net.biases[0][...] = np.zeros(n)
    return net


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def test_forward_identity_layer():
    net = identity_net()
    out = net.forward(np.array([[3.0, -1.0]]))["out"]
    assert np.array_equal(out, np.array([[3.0, -1.0]]))


def test_forward_relu_layer():
    net = Mlp([2, 2], activations=["relu"])
    net.weights[0][...] = np.eye(2)
    net.biases[0][...] = np.zeros(2)
    out = net.forward(np.array([[3.0, -1.0]]))["out"]
    assert np.array_equal(out, np.array([[3.0, 0.0]]))


def test_forward_two_layer_against_straight_line_script():
    # independent oracle: plain matmul chain over the net's own weights
    net = Mlp([3, 5, 2], seed=0)
    x = np.ones((4, 3))
    hidden = np.maximum(x @ net.weights[0].T + net.biases[0], 0.0)
    expected = hidden @ net.weights[1].T + net.biases[1]
    out = net.forward(x)["out"]
    assert np.max(np.abs(out - expected)) < 1e-12


def test_forward_shape_mismatch():
    net = Mlp([3, 2])
    with pytest.raises(ShapeMismatch):
        net.forward(np.ones((1, 4)))


def test_heads_slice_final_layer():
    net = Mlp([3, 4, 5], heads={"policy_logits": 4, "value": 1}, seed=1)
    out = net.forward(np.ones((2, 3)))
    assert out["policy_logits"].shape == (2, 4)
    assert out["value"].shape == (2, 1)
    whole = Mlp([3, 4, 5], seed=1).forward(np.ones((2, 3)))["out"]
    assert np.array_equal(np.hstack([out["policy_logits"], out["value"]]), whole)


def test_head_widths_must_sum():
    with pytest.raises(ValueError):
        Mlp([3, 4], heads={"a": 2, "b": 3})


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------


def test_backward_linear_closed_form():
    net = identity_net(3)
    x = np.array([[2.0, -1.0, 0.5]])
    net.forward(x)
    grads = net.backward({"out": np.ones((1, 3))})
    d_w = grads[:9].reshape(3, 3)
    d_b = grads[9:]
    assert np.array_equal(d_w, np.outer(np.ones(3), x[0]))
    assert np.array_equal(d_b, np.ones(3))


def test_non_finite_guards_survive_python_O():
    script = """
import numpy as np
from streamrl.nn import Mlp, NonFinite
net = Mlp([2, 3, 1])
def backward_nan():
    net.forward(np.zeros((1, 2)))
    net.backward({"out": np.array([[np.nan]])})
for call in (lambda: net.forward(np.array([[np.inf, 0.0]])), backward_nan):
    try:
        call()
    except NonFinite as err:
        print(err)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "non-finite activations in forward pass",
        "non-finite gradients in backward pass",
    ]


def test_backward_requires_forward():
    net = Mlp([2, 2])
    with pytest.raises(NoCachedForward):
        net.backward({"out": np.ones((1, 2))})


def test_relu_subgradient_zero_at_zero():
    net = Mlp([1, 1, 1], activations=["relu", "identity"])
    net.weights[0][...] = np.array([[1.0]])
    net.biases[0][...] = np.array([0.0])
    net.weights[1][...] = np.array([[1.0]])
    net.biases[1][...] = np.array([0.0])
    net.forward(np.array([[0.0]]))  # pre-activation exactly 0
    grads = net.backward({"out": np.ones((1, 1))})
    # d/dW0 and d/db0 flow through relu'(0), pinned to 0
    assert grads[0] == 0.0 and grads[1] == 0.0
    # the outer layer still sees the (zero) hidden activation: dW1 = 0, db1 = 1
    assert grads[2] == 0.0 and grads[3] == 1.0


def finite_difference_grads(net, x, out_grads, h=1e-5):
    flat = net.flatten()
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (+1, -1):
            bumped = flat.copy()
            bumped[i] += sign * h
            net.unflatten(bumped)
            outs = net.forward(x)
            value = sum(
                float(np.sum(outs[name] * g)) for name, g in out_grads.items()
            )
            fd[i] += sign * value
    net.unflatten(flat)
    return fd / (2 * h)


def test_backward_matches_finite_differences_tanh():
    net = Mlp([3, 6, 2], activations=["tanh", "identity"], seed=5)
    x = np.random.default_rng(2).normal(size=(4, 3))
    out_grads = {"out": np.random.default_rng(3).normal(size=(4, 2))}
    net.forward(x)
    analytic = net.backward(out_grads)
    numeric = finite_difference_grads(net, x, out_grads)
    denom = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_backward_matches_finite_differences_multi_head():
    net = Mlp([2, 5, 3], heads={"a": 2, "b": 1}, seed=7)
    x = np.random.default_rng(4).normal(size=(3, 2))
    out_grads = {
        "a": np.random.default_rng(5).normal(size=(3, 2)),
        "b": np.random.default_rng(6).normal(size=(3, 1)),
    }
    net.forward(x)
    analytic = net.backward(out_grads)
    numeric = finite_difference_grads(net, x, out_grads)
    denom = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_backward_missing_head_contributes_zero():
    net = Mlp([2, 4, 3], heads={"a": 2, "b": 1}, seed=0)
    x = np.ones((2, 2))
    g = {"a": np.ones((2, 2))}
    net.forward(x)
    partial = net.backward(g)
    net.forward(x)
    full = net.backward({"a": np.ones((2, 2)), "b": np.zeros((2, 1))})
    assert np.array_equal(partial, full)


def old_forward(net, x):
    """Mlp.forward as it was before it computed each layer in place: the
    layer inputs, the preactivations and the output."""
    inputs, preacts = [], []
    for w, b, act in zip(net.weights, net.biases, net.activations):
        inputs.append(x)
        z = x @ w.T + b
        preacts.append(z)
        x = np.maximum(z, 0.0) if act == "relu" else np.tanh(z) if act == "tanh" else z
    return inputs, preacts, x


def old_backward(net, x, output_grads):
    """Mlp.backward as it was before it reused the forward pass's activations:
    the old forward, then activations recomputed from the preactivations, a
    float derivative per layer and delta @ W at every layer."""
    inputs, preacts, _ = old_forward(net, x)
    grad_out = np.zeros((len(inputs[0]), net.sizes[-1]))
    lo = 0
    for name, width in net.heads.items():
        if name in output_grads:
            grad_out[:, lo : lo + width] = output_grads[name]
        lo += width
    flat = np.empty_like(net.params)
    d_weights, d_biases, offset = [], [], 0
    for w in net.weights:
        d_weights.append(flat[offset : offset + w.size].reshape(w.shape))
        offset += w.size
        d_biases.append(flat[offset : offset + w.shape[0]])
        offset += w.shape[0]
    g = grad_out
    for i in range(len(net.weights) - 1, -1, -1):
        z, act = preacts[i], net.activations[i]
        if act == "relu":
            deriv = (z > 0.0).astype(np.float64)
        elif act == "tanh":
            a = np.tanh(z)
            deriv = 1.0 - a * a
        else:
            deriv = np.ones_like(z)
        delta = g * deriv
        d_weights[i][...] = delta.T @ inputs[i]
        d_biases[i][...] = delta.sum(axis=0)
        g = delta @ net.weights[i]
    return flat


@pytest.mark.parametrize("batch", [1, 4, 32])
@pytest.mark.parametrize("head", ["relu", "tanh", "identity"])
def test_forward_and_backward_equal_the_old_formulas_bitwise(head, batch):
    net = Mlp([5, 16, 16, 4], activations=["relu", "tanh", head], heads={"a": 3, "b": 1}, seed=2)
    rng = np.random.default_rng(batch)
    x = rng.normal(size=(batch, 5))
    grads = {"a": rng.normal(size=(batch, 3)), "b": rng.normal(size=(batch, 1))}
    out = net.forward(x)
    assert np.array_equal(np.hstack([out["a"], out["b"]]), old_forward(net, x)[2])
    assert np.array_equal(net.backward(grads), old_backward(net, x, grads))
    net.forward(x)
    assert np.array_equal(net.backward({"b": grads["b"]}), old_backward(net, x, {"b": grads["b"]}))


def matmul_forward(net, x):
    """Mlp.forward as it was before its products went through np.dot: each
    layer's input, then the output."""
    layer_outs = [np.asarray(x, dtype=np.float64)]
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = layer_outs[-1] @ w.T
        z += b
        layer_outs.append(np.maximum(z, 0.0) if act == "relu" else np.tanh(z) if act == "tanh" else z)
    return layer_outs


def matmul_backprop(net, layer_outs, output_grads, squared):
    """Mlp._backprop as it was before its products went through np.dot."""
    delta = np.zeros((len(layer_outs[0]), net.sizes[-1]))
    lo = 0
    for name, width in net.heads.items():
        if name in output_grads:
            delta[:, lo : lo + width] = output_grads[name]
        lo += width
    flat = np.empty_like(net.params)
    d_weights, d_biases, offset = [], [], 0
    for w in net.weights:
        d_weights.append(flat[offset : offset + w.size].reshape(w.shape))
        offset += w.size
        d_biases.append(flat[offset : offset + w.shape[0]])
        offset += w.shape[0]
    for i in range(len(net.weights) - 1, -1, -1):
        a = layer_outs[i + 1]
        if net.activations[i] == "relu":
            delta *= a > 0.0
        elif net.activations[i] == "tanh":
            delta *= 1.0 - a * a
        x = layer_outs[i]
        if squared:
            delta_sq = delta * delta
            np.matmul(delta_sq.T, x * x, out=d_weights[i])
            delta_sq.sum(axis=0, out=d_biases[i])
        else:
            np.matmul(delta.T, x, out=d_weights[i])
            delta.sum(axis=0, out=d_biases[i])
        if i:
            delta = delta @ net.weights[i]
    return flat


def a2c_tail_obs(n_actors, obs_dim, rng):
    """per_actor.next_obs[:, -1], the strided input of A2C's tail values."""
    rollout = Rollout(n_actors)
    for _ in range(5):
        obs = rng.normal(size=(n_actors, obs_dim))
        rollout.append(obs, np.zeros(n_actors, dtype=np.int64), np.zeros(n_actors),
                       np.zeros(n_actors, dtype=bool), obs + 1.0)
    tail = by_actor(rollout).next_obs[:, -1]
    assert n_actors == 1 or not tail.flags.c_contiguous
    return tail


# batch 64 is EwcPlugin's FISHER_CHUNK
@pytest.mark.parametrize("batch", [1, 4, 20, 32, 64])
@pytest.mark.parametrize("body", ["relu", "tanh"])
def test_dot_products_equal_the_matmul_formulas_bitwise(body, batch):
    rng = np.random.default_rng(batch)
    dqn = Mlp([25, 64, 64, 4], activations=[body, body, "identity"], heads={"q_values": 4}, seed=3)
    a2c = Mlp([4, 64, 64, 3], activations=[body, body, "identity"],
              heads={"policy_logits": 2, "value": 1}, seed=4)
    cases = [
        (dqn, rng.normal(size=(batch, 25))),
        (dqn, rng.normal(size=(batch, 3, 25))[:, -1]),  # a strided view
        (a2c, rng.normal(size=(batch, 4))),
        (a2c, a2c_tail_obs(batch, 4, rng)),
    ]
    for net, x in cases:
        out = net.forward(x)
        want = matmul_forward(net, x)
        assert np.hstack(list(out.values())).tobytes() == want[-1].tobytes()
        grads = {name: rng.normal(size=(batch, width)) for name, width in net.heads.items()}
        assert net.backward(grads).tobytes() == matmul_backprop(net, want, grads, False).tobytes()
        assert (net.squared_grad_sum(grads).tobytes()
                == matmul_backprop(net, want, grads, True).tobytes())


@pytest.mark.parametrize("batch", [1, 4, 32])
@pytest.mark.parametrize("head", ["relu", "tanh", "identity"])
def test_forward_follows_every_write_to_params(head, batch):
    """forward's per-layer plan holds views into params, so the next forward
    must see params written by unflatten, copy_params_from or an optimizer
    step, bitwise as the old formula on a fresh clone."""
    net = Mlp([5, 16, 16, 4], activations=["relu", "tanh", head], seed=2)
    other = Mlp([5, 16, 16, 4], activations=["relu", "tanh", head], seed=7)
    rng = np.random.default_rng(batch)
    x = rng.normal(size=(batch, 5))
    writes = [
        lambda: net.unflatten(rng.normal(size=net.param_count)),
        lambda: net.copy_params_from(other),
        lambda: Adam(0.1).step(net.params, rng.normal(size=net.param_count)),
        lambda: Sgd(0.1).step(net.params, rng.normal(size=net.param_count)),
    ]
    for write in writes:
        before = net.forward(x)["out"].copy()
        write()
        out = net.forward(x)["out"]
        assert not np.array_equal(out, before)
        assert np.array_equal(out, old_forward(net.clone(), x)[2])


@pytest.mark.parametrize("head", ["relu", "tanh", "identity"])
def test_squared_grad_sum_matches_row_by_row_backward(head):
    net = Mlp([5, 16, 16, 4], activations=["tanh", "relu", head], heads={"a": 3, "b": 1}, seed=4)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40, 5))
    grads = {"a": rng.normal(size=(40, 3))}  # head "b" contributes zero
    want = np.zeros(net.param_count)
    for i in range(40):
        net.forward(x[i : i + 1])
        row = net.backward({"a": grads["a"][i : i + 1]})
        want += row * row
    net.forward(x)
    got = net.squared_grad_sum(grads)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert np.array_equal(net.squared_grad_sum(grads), got)  # the cached forward is kept
    with pytest.raises(NonFinite, match="non-finite gradients"):
        net.squared_grad_sum({"a": np.full((40, 3), np.nan)})
    with pytest.raises(ShapeMismatch):
        net.squared_grad_sum({"a": np.ones((39, 3))})


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def test_glorot_bounds_and_zero_biases():
    net = Mlp([10, 20, 5], seed=3)
    for w, (fan_in, fan_out) in zip(net.weights, [(10, 20), (20, 5)]):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= lim)
        assert np.std(w) > 0  # actually random, not degenerate
    for b in net.biases:
        assert np.array_equal(b, np.zeros_like(b))


def test_seeded_init_reproducible():
    a = Mlp([4, 8, 2], seed=42).flatten()
    b = Mlp([4, 8, 2], seed=42).flatten()
    c = Mlp([4, 8, 2], seed=43).flatten()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def test_mse_at_target_is_zero():
    loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros(2))


def test_mse_value_and_grad():
    loss, grad = mse_loss(np.array([2.0]), np.array([0.0]))
    assert loss == 4.0
    assert np.array_equal(grad, np.array([4.0]))  # 2 * diff / n


def test_huber_piecewise_values():
    # residual 0.5: quadratic region, 0.5 * 0.5^2 = 0.125
    loss_small, grad_small = huber_loss(np.array([0.5]), np.array([0.0]))
    assert abs(loss_small - 0.125) < 1e-15
    assert np.array_equal(grad_small, np.array([0.5]))
    # residual 2: linear region, 1 * (2 - 0.5) = 1.5
    loss_big, grad_big = huber_loss(np.array([2.0]), np.array([0.0]))
    assert abs(loss_big - 1.5) < 1e-15
    assert np.array_equal(grad_big, np.array([1.0]))


def test_huber_mean_reduced():
    loss, grad = huber_loss(np.array([0.5, 2.0]), np.zeros(2))
    assert abs(loss - (0.125 + 1.5) / 2) < 1e-15
    assert np.allclose(grad, np.array([0.25, 0.5]))


def old_huber_loss(pred, target, delta=1.0):
    """huber_loss as it was before it took |r| once and its mean as sum / n."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    r = pred - target
    small = np.abs(r) <= delta
    per_elem = np.where(small, 0.5 * r * r, delta * (np.abs(r) - 0.5 * delta))
    grad = np.where(small, r, delta * np.sign(r)) / r.size
    return float(np.mean(per_elem)), grad


@pytest.mark.parametrize("n", [1, 32, 33])
@pytest.mark.parametrize("delta", [1.0, 0.25, 3.0])
def test_huber_loss_equals_the_old_formula_bitwise(n, delta):
    rng = np.random.default_rng(n)
    edges = [delta, -delta, np.nextafter(delta, 0.0), np.nextafter(delta, np.inf),
             0.0, -0.0, 1e300, -1e300, 5e-324]
    cases = [(np.full(n, edge), np.zeros(n)) for edge in edges]
    cases += [
        (np.resize(edges, n), np.zeros(n)),
        (rng.normal(scale=2 * delta, size=n), np.zeros(n)),
        (rng.normal(size=n) * 1e3, rng.normal(size=n)),
        (rng.normal(size=(3, n)), rng.normal(size=(3, n))),  # the mean covers every axis
    ]
    for pred, target in cases:
        with np.errstate(over="ignore"):  # 0.5 * r * r of the 1e300 residuals
            loss, grad = huber_loss(pred, target, delta)
            want_loss, want_grad = old_huber_loss(pred, target, delta)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()


def old_softmax(logits):
    """softmax as it was before it exponentiated and divided in place."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def old_mse_loss(pred, target):
    """mse_loss as it was before it took its mean as sum / n."""
    diff = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


def old_policy_gradient_loss(logits, actions, advantages):
    """policy_gradient_loss as it was before it shared one softmax with the
    entropy: two exps of the shifted logits and a one-hot matrix."""
    n, _ = logits.shape
    probs = old_softmax(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    picked = log_probs[np.arange(n), actions]
    loss = float(np.mean(-picked * advantages))
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(n), actions] = 1.0
    return loss, advantages[:, None] * (probs - one_hot) / n


def old_entropy_loss(logits):
    """entropy_loss as it was before it took one log under no np.errstate."""
    n, _ = logits.shape
    probs = old_softmax(logits)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0.0, probs * np.log(probs), 0.0)
    row_entropy = -plogp.sum(axis=1)
    safe_log = np.where(probs > 0.0, np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
    return float(np.mean(row_entropy)), -probs * (safe_log + row_entropy[:, None]) / n


def policy_batches():
    """(logits, actions, advantages, values, returns) at batch sizes 1 to 33
    and 2 to 6 actions: random rows at three logit scales, rows whose
    smallest probability underflows to exactly 0 (a logit gap over 746),
    tied rows, and advantages and returns of exactly -0.0 and 0.0. Logits are
    a column slice of a wider output, as the policy head of an Mlp is."""
    rng = np.random.default_rng(12)
    for n in (1, 4, 20, 33):
        for k in (2, 3, 6):
            for scale in (0.1, 1.0, 30.0):
                out = rng.normal(scale=scale, size=(n, k + 1))
                if scale == 30.0:
                    out[::2, 0] = 800.0  # exp(-800 - ...) is 0.0: p == 0 exactly
                    out[1::3, :k] = -3.0  # tied logits
                advantages = rng.normal(size=n)
                advantages[::3] = -0.0
                advantages[1::4] = 0.0
                returns = rng.normal(size=n)
                returns[::2] = -0.0
                yield out[:, :k], rng.integers(0, k, size=n), advantages, out[:, k], returns


def same_bits(got, want):
    """float losses and float64 gradient arrays, compared bit for bit."""
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].dtype == want[1].dtype and got[1].shape == want[1].shape
    assert got[1].tobytes() == want[1].tobytes()


def test_policy_and_value_losses_equal_the_old_formulas_bitwise():
    underflows = 0
    for logits, actions, advantages, values, returns in policy_batches():
        underflows += int((old_softmax(logits) == 0.0).sum())
        assert softmax(logits).tobytes() == old_softmax(logits).tobytes()
        pg, entropy = policy_losses(logits, actions, advantages)
        same_bits(pg, old_policy_gradient_loss(logits, actions, advantages))
        same_bits(entropy, old_entropy_loss(logits))
        same_bits(policy_gradient_loss(logits, actions, advantages), pg)
        same_bits(entropy_loss(logits), entropy)
        same_bits(mse_loss(values, returns), old_mse_loss(values, returns))
    assert underflows > 0  # the p == 0 rows were exercised


def test_entropy_uniform_two_way():
    loss, _ = entropy_loss(np.array([[0.0, 0.0]]))
    assert abs(loss - math.log(2)) < 1e-12


def test_entropy_gradient_finite_difference():
    logits = np.random.default_rng(8).normal(size=(3, 4))
    _, grad = entropy_loss(logits)
    h = 1e-6
    for i in range(3):
        for j in range(4):
            plus, minus = logits.copy(), logits.copy()
            plus[i, j] += h
            minus[i, j] -= h
            fd = (entropy_loss(plus)[0] - entropy_loss(minus)[0]) / (2 * h)
            assert abs(grad[i, j] - fd) < 1e-6


def test_policy_gradient_loss_value():
    logits = np.array([[0.0, 0.0]])
    actions = np.array([0])
    advantages = np.array([2.0])
    loss, grad = policy_gradient_loss(logits, actions, advantages)
    assert abs(loss - 2 * math.log(2)) < 1e-12
    # grad = adv * (p - onehot) / n
    assert np.allclose(grad, np.array([[2 * (0.5 - 1.0), 2 * 0.5]]))


def test_policy_gradient_loss_finite_difference():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(4, 3))
    actions = rng.integers(0, 3, size=4)
    advantages = rng.normal(size=4)
    _, grad = policy_gradient_loss(logits, actions, advantages)
    h = 1e-6
    for i in range(4):
        for j in range(3):
            plus, minus = logits.copy(), logits.copy()
            plus[i, j] += h
            minus[i, j] -= h
            fd = (
                policy_gradient_loss(plus, actions, advantages)[0]
                - policy_gradient_loss(minus, actions, advantages)[0]
            ) / (2 * h)
            assert abs(grad[i, j] - fd) < 1e-6


def test_loss_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        mse_loss(np.ones(3), np.ones(2))
    with pytest.raises(ShapeMismatch):
        huber_loss(np.ones(3), np.ones(2))
    with pytest.raises(ShapeMismatch):
        policy_gradient_loss(np.ones((2, 3)), np.zeros(3, dtype=int), np.ones(2))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(10)
    probs = softmax(rng.normal(scale=30.0, size=(50, 7)))
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(probs >= 0)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


def test_sgd_step():
    opt = Sgd(lr=0.1)
    out = opt.step(np.array([1.0]), np.array([2.0]))
    assert np.allclose(out, np.array([0.8]))


def test_sgd_zero_grad_no_change():
    opt = Sgd(lr=0.1)
    params = np.array([1.0, -2.0])
    before = params.copy()
    assert np.array_equal(opt.step(params, np.zeros(2)), before)


def test_adam_first_step_magnitude():
    # bias correction makes the first step essentially lr * sign(g)
    for c in (0.001, 1.0, 250.0):
        opt = Adam(lr=0.01)
        out = opt.step(np.zeros(1), np.array([c]))
        assert abs(abs(out[0]) - 0.01) < 1e-6
        assert out[0] < 0  # descends against the gradient


def test_adam_flushes_subnormal_state_every_flush_period():
    opt = Adam(lr=0.01)
    params = np.ones(5)
    opt.step(params, np.zeros(5))
    m = [5e-324, -1e-310, 2e-308, 1e-300, 0.0]  # the first three are below tiny
    v = [1e-320, 2e-308, 1e-300, 0.5, 0.0]
    opt.m[...], opt.v[...] = m, v
    opt.t = Adam.FLUSH_PERIOD - 1
    opt.step(params, np.zeros(5))  # no flush: m only decays
    assert opt.m[0] == 5e-324 and opt.m[2] != 0.0
    opt.m[...], opt.v[...] = m, v
    opt.step(params, np.zeros(5))  # t == FLUSH_PERIOD: flushed, then decayed
    assert opt.m.tolist() == [0.0, 0.0, 0.0, 0.9 * 1e-300, 0.0]
    assert opt.v.tolist() == [0.0, 0.0, 0.999 * 1e-300, 0.999 * 0.5, 0.0]


def test_adam_zero_grad_no_motion():
    opt = Adam(lr=0.01)
    params = np.array([3.0])
    out = opt.step(params, np.zeros(1))
    assert abs(out[0] - 3.0) <= 1e-9


def test_adam_step_counter_and_determinism():
    def run():
        opt = Adam(lr=0.05)
        params = np.array([1.0, -1.0])
        for g in ([0.5, -0.2], [0.1, 0.1], [-0.3, 0.9]):
            params = opt.step(params, np.array(g))
        return params, opt.t

    (p1, t1), (p2, t2) = run(), run()
    assert np.array_equal(p1, p2)
    assert t1 == t2 == 3


def _sgd_reference(lr, params, grads, state):
    return params - lr * grads


def _adam_reference(lr, params, grads, state, beta1=0.9, beta2=0.999, eps=1e-8):
    # the out-of-place formulas, operation for operation
    if "m" not in state:
        state.update(m=np.zeros_like(params), v=np.zeros_like(params), t=0)
    state["t"] += 1
    state["m"] = beta1 * state["m"] + (1.0 - beta1) * grads
    state["v"] = beta2 * state["v"] + (1.0 - beta2) * grads * grads
    m_hat = state["m"] / (1.0 - beta1 ** state["t"])
    v_hat = state["v"] / (1.0 - beta2 ** state["t"])
    return params - lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize("make, reference", [(Sgd, _sgd_reference), (Adam, _adam_reference)])
def test_in_place_step_matches_out_of_place_reference(make, reference):
    rng = np.random.default_rng(5)
    params = rng.normal(size=37)
    expected, state = params.copy(), {}
    opt = make(lr=0.01)
    for _ in range(20):
        grads = rng.normal(scale=rng.uniform(1e-3, 1e3), size=37)
        assert opt.step(params, grads) is params  # updated in place
        expected = reference(0.01, expected, grads, state)
        assert np.array_equal(params, expected)


class OldAdam(Adam):
    """Adam.step as it was before it kept its temporaries in scratch rows."""

    def step(self, params, grads):
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        self.t += 1
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grads
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grads * grads
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        params -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return params


def test_adam_equals_the_old_step_bitwise():
    """Past the step where 1 - beta1**t rounds to 1.0 (356 for 0.9, 54 for
    0.5), Adam skips that division; the parameters keep their bits."""
    for beta1 in (0.9, 0.5):
        rng = np.random.default_rng(11)
        params = rng.normal(size=301)
        expected = params.copy()
        adam, old = Adam(3e-3, beta1=beta1), OldAdam(3e-3, beta1=beta1)
        for _ in range(400):
            grads = rng.normal(scale=rng.uniform(1e-6, 1e3), size=301)
            adam.step(params, grads)
            old.step(expected, grads)
            assert params.tobytes() == expected.tobytes()
            assert adam.m.tobytes() == old.m.tobytes() and adam.v.tobytes() == old.v.tobytes()
        assert 1.0 - beta1**adam.t == 1.0


def test_optimizer_length_mismatch():
    with pytest.raises(LengthMismatch):
        Sgd(0.1).step(np.ones(2), np.ones(3))
    with pytest.raises(LengthMismatch):
        Adam(0.1).step(np.ones(2), np.ones(3))


# ---------------------------------------------------------------------------
# Flat parameter views
# ---------------------------------------------------------------------------


def test_flatten_unflatten_round_trip():
    net = Mlp([4, 16, 2], seed=1)
    flat = net.flatten()
    net.unflatten(flat)
    assert np.array_equal(net.flatten(), flat)


def test_param_count_formula():
    # sum(out*in + out) over layers: 4*16+16 + 16*2+2
    net = Mlp([4, 16, 2])
    expected = 4 * 16 + 16 + 16 * 2 + 2
    assert net.param_count == expected
    assert net.flatten().size == expected


def test_param_count_random_shapes():
    rng = np.random.default_rng(11)
    for _ in range(10):
        sizes = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(2, 5)))]
        net = Mlp(sizes, seed=0)
        expected = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
        assert net.param_count == expected
        flat = net.flatten()
        net.unflatten(flat)
        assert np.array_equal(net.flatten(), flat)


def test_unflatten_zeros_gives_zero_outputs():
    net = Mlp([3, 4, 2], seed=2)
    net.unflatten(np.zeros(net.param_count))
    out = net.forward(np.random.default_rng(0).normal(size=(5, 3)))["out"]
    assert np.array_equal(out, np.zeros((5, 2)))


def test_unflatten_length_mismatch():
    net = Mlp([3, 2])
    with pytest.raises(LengthMismatch):
        net.unflatten(np.zeros(net.param_count + 1))


def test_clone_independent_and_exact():
    net = Mlp([3, 4, 2], seed=6)
    twin = net.clone()
    assert np.array_equal(twin.flatten(), net.flatten())
    twin.weights[0][0, 0] += 1.0
    assert not np.array_equal(twin.flatten(), net.flatten())


def test_weights_and_biases_are_views_of_params():
    net = Mlp([3, 4, 2], seed=6)
    for w, b in zip(net.weights, net.biases):
        assert np.shares_memory(w, net.params)
        assert np.shares_memory(b, net.params)
    assert np.array_equal(np.concatenate([net.weights[0].ravel(), net.biases[0]]),
                          net.params[: 4 * 3 + 4])
    with pytest.raises(TypeError):
        net.weights[0] = np.zeros((4, 3))


def test_writing_params_changes_forward():
    net = Mlp([3, 4, 2], seed=6)
    x = np.ones((2, 3))
    before = net.forward(x)["out"]
    net.params[-1] += 1.0  # the last output's bias, which starts at zero
    after = net.forward(x)["out"]
    assert np.array_equal(after[:, 0], before[:, 0])
    assert np.array_equal(after[:, 1], before[:, 1] + 1.0)


def test_flatten_and_clone_share_no_memory():
    net = Mlp([3, 4, 2], seed=6)
    twin = net.clone()
    assert not np.shares_memory(net.flatten(), net.params)
    assert not np.shares_memory(twin.params, net.params)
    for w, b in zip(twin.weights, twin.biases):
        assert np.shares_memory(w, twin.params) and not np.shares_memory(w, net.params)
        assert np.shares_memory(b, twin.params) and not np.shares_memory(b, net.params)


def test_arch_round_trip():
    net = Mlp([3, 4, 5], heads={"q_values": 5}, activations=["tanh", "identity"], seed=0)
    rebuilt = Mlp.from_arch(net.arch())
    assert rebuilt.sizes == net.sizes
    assert rebuilt.activations == net.activations
    assert rebuilt.heads == net.heads
