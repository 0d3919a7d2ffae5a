"""Small trainable-function core: MLPs with exact reverse-mode gradients,
losses, and optimizers, all in float64 numpy.

No autodiff framework is involved; backward() computes gradients analytically
so they can be validated against finite differences. An Mlp keeps all its
parameters in one float64 buffer, `Mlp.params` (weights row-major then bias,
per layer, in layer order); `weights` and `biases` are tuples of views into
it. backward() returns a gradient with the same layout. The optimizers update
that buffer in place, and the consolidation plugins read it directly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .checks import count, finite


class ShapeMismatch(ValueError):
    """Input shapes disagree with the network or with each other."""


class LengthMismatch(ValueError):
    """Flat parameter/gradient vectors have different lengths."""


class NoCachedForward(RuntimeError):
    """backward() called without a preceding forward() on this network."""


class NonFinite(FloatingPointError):
    """A forward or backward pass produced inf or NaN."""


# Each activation's ufunc, applied in place; relu is np.maximum against _ZERO,
# a 0-d float64 array, which spares converting a Python 0.0 on every call.
_ACTIVATIONS = {"relu": np.maximum, "tanh": np.tanh, "identity": None}
_ZERO = np.zeros(())
# The MLP's matrix products: np.dot gives matmul's bits with less per-call overhead
_dot = np.dot
_TINY = np.finfo(np.float64).tiny  # the smallest normal double


def _all_finite(values: np.ndarray) -> bool:
    """np.isfinite(values).all(), without ndarray.all's Python-level wrapper."""
    return bool(np.logical_and.reduce(np.isfinite(values), axis=None))


def _layer_views(flat: np.ndarray, sizes: Sequence[int]) -> tuple[tuple, tuple]:
    """(weights, biases) of each layer, as views into `flat`."""
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in))
        offset += fan_out * fan_in
        biases.append(flat[offset : offset + fan_out])
        offset += fan_out
    return tuple(weights), tuple(biases)


class Mlp:
    """Affine+activation chain whose final layer is sliced into named heads.

    ``sizes`` gives [input, hidden..., output_total]; ``heads`` maps a head
    name to its width, in order, summing to output_total (default: one head
    "out" covering everything). Hidden activations default to relu, the final
    layer to identity. Weights are Glorot-uniform from the given seed, biases
    zero.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        activations: Sequence[str] | None = None,
        heads: dict[str, int] | None = None,
        seed: int = 0,
    ):
        if len(sizes) < 2:
            raise ValueError("Mlp needs at least input and output sizes")
        self.sizes = tuple(int(count(s, f"sizes[{i}]")) for i, s in enumerate(sizes))
        n_layers = len(self.sizes) - 1
        if activations is None:
            activations = ["relu"] * (n_layers - 1) + ["identity"]
        if len(activations) != n_layers:
            raise ValueError(f"need {n_layers} activations, got {len(activations)}")
        for act in activations:
            if not isinstance(act, str) or act not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        self.activations = tuple(activations)

        if heads is None:
            heads = {"out": self.sizes[-1]}
        if sum(heads.values()) != self.sizes[-1]:
            raise ValueError(
                f"head widths {dict(heads)} must sum to final layer size {self.sizes[-1]}"
            )
        self.heads = dict(heads)
        self._head_slices: list[tuple[str, int, int]] = []
        offset = 0
        for name, width in self.heads.items():
            self._head_slices.append((name, offset, offset + width))
            offset += width

        self.params = np.zeros(sum(a * b + b for a, b in zip(self.sizes[:-1], self.sizes[1:])))
        self.weights, self.biases = _layer_views(self.params, self.sizes)
        rng = np.random.default_rng(seed)
        for w in self.weights:
            fan_out, fan_in = w.shape
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-lim, lim, size=w.shape)
        # (W.T, b, activation ufunc or None) per layer, W.T and b views into params
        self._plan = tuple(
            (w.T, b, _ACTIVATIONS[act]) for w, b, act in zip(self.weights, self.biases, activations)
        )
        self._cache: list[np.ndarray] | None = None  # each layer's input, then the output

    @property
    def param_count(self) -> int:
        return self.params.size

    def forward(self, batch: np.ndarray) -> dict[str, np.ndarray]:
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.sizes[0]:
            raise ShapeMismatch(f"batch inner dim {x.shape[1]} != input size {self.sizes[0]}")
        layer_outs = [x]
        for w_t, b, act in self._plan:
            x = _dot(x, w_t)
            x += b
            if act is np.maximum:
                np.maximum(x, _ZERO, out=x)
            elif act is not None:
                act(x, out=x)
            layer_outs.append(x)
        if not _all_finite(x):
            raise NonFinite("non-finite activations in forward pass")
        self._cache = layer_outs
        return {name: x[:, lo:hi] for name, lo, hi in self._head_slices}

    def backward(self, output_grads: dict[str, np.ndarray]) -> np.ndarray:
        """Exact gradients of sum(outputs * output_grads) w.r.t. all parameters.

        Heads absent from output_grads contribute zero. Returns a flat vector
        laid out like params.
        """
        return self._backprop(output_grads, squared=False)

    def squared_grad_sum(self, output_grads: dict[str, np.ndarray]) -> np.ndarray:
        """sum_i g_i**2 over the rows i of the cached batch, where g_i is the
        gradient of sum(outputs[i] * output_grads[i]) w.r.t. all parameters.

        Row i's gradient of a weight matrix is the outer product of its
        backpropagated delta_i and its layer input x_i, so the sum of their
        squares is (delta**2).T @ (x**2) (Goodfellow 2015, arXiv 1510.01799),
        and sum_i delta_i**2 for a bias: one backward pass for the whole
        batch. Returns a flat vector laid out like params.
        """
        return self._backprop(output_grads, squared=True)

    def _backprop(self, output_grads: dict[str, np.ndarray], squared: bool) -> np.ndarray:
        if self._cache is None:
            raise NoCachedForward("forward() must run before backward()")
        layer_outs = self._cache
        batch = layer_outs[0].shape[0]
        delta = np.zeros((batch, self.sizes[-1]))
        for name, lo, hi in self._head_slices:
            if name in output_grads:
                g = np.asarray(output_grads[name], dtype=np.float64)
                if g.shape != (batch, hi - lo):
                    raise ShapeMismatch(
                        f"grad for head {name!r} has shape {g.shape}, expected {(batch, hi - lo)}"
                    )
                delta[:, lo:hi] = g

        flat = np.empty_like(self.params)
        d_weights, d_biases = _layer_views(flat, self.sizes)
        for i in range(len(self.weights) - 1, -1, -1):
            # delta holds the gradient w.r.t. layer i's output; make it w.r.t. its preactivation
            a = layer_outs[i + 1]
            if self.activations[i] == "relu":
                delta *= a > 0.0  # relu(z) > 0 exactly where z > 0: subgradient 0 at 0
            elif self.activations[i] == "tanh":
                delta *= 1.0 - a * a
            x = layer_outs[i]
            if squared:
                delta_sq = delta * delta
                _dot(delta_sq.T, x * x, out=d_weights[i])
                np.add.reduce(delta_sq, axis=0, out=d_biases[i])
            else:
                _dot(delta.T, x, out=d_weights[i])
                np.add.reduce(delta, axis=0, out=d_biases[i])
            if i:
                delta = _dot(delta, self.weights[i])
        if not _all_finite(flat):
            raise NonFinite("non-finite gradients in backward pass")
        return flat

    def flatten(self) -> np.ndarray:
        """A copy of params, which later updates leave unchanged."""
        return self.params.copy()

    def unflatten(self, values: np.ndarray) -> None:
        if np.size(values) != self.param_count:
            raise LengthMismatch(f"got {np.size(values)} values for {self.param_count} parameters")
        self.params[...] = values

    def clone(self) -> "Mlp":
        other = Mlp.from_arch(self.arch())
        other.params[...] = self.params
        return other

    def copy_params_from(self, other: "Mlp") -> None:
        self.unflatten(other.params)

    def arch(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "activations": list(self.activations),
            "heads": [[name, width] for name, width in self.heads.items()],
        }

    @staticmethod
    def from_arch(arch: dict) -> "Mlp":
        return Mlp(
            arch["sizes"],
            activations=arch["activations"],
            heads={name: width for name, width in arch["heads"]},
        )


# ---------------------------------------------------------------------------
# Losses. Each returns (scalar loss, gradient w.r.t. its differentiable input).
# ---------------------------------------------------------------------------


def _softmax_parts(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(logits less their row max, softmax(logits), row sums of its exp)."""
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    probs = np.exp(shifted)
    total = np.add.reduce(probs, axis=-1, keepdims=True)
    probs /= total
    return shifted, probs, total


def softmax(logits: np.ndarray) -> np.ndarray:
    return _softmax_parts(logits)[1]


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    return float(np.add.reduce(diff * diff, axis=None) / diff.size), 2.0 * diff / diff.size


def huber_loss(
    pred: np.ndarray, target: np.ndarray, delta: float = 1.0
) -> tuple[float, np.ndarray]:
    """Quadratic inside |r|<=delta, linear outside, mean-reduced."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"pred {pred.shape} vs target {target.shape}")
    r = pred - target
    abs_r = np.abs(r)
    small = abs_r <= delta
    per_elem = np.where(small, 0.5 * r * r, delta * (abs_r - 0.5 * delta))
    grad = np.where(small, r, delta * np.sign(r)) / r.size
    # the add.reduce and division that np.mean performs, without its dispatch
    return float(np.add.reduce(per_elem, axis=None) / r.size), grad


def policy_losses(
    logits: np.ndarray, actions: np.ndarray, advantages: np.ndarray
) -> tuple[tuple[float, np.ndarray], tuple[float, np.ndarray]]:
    """(policy_gradient_loss, entropy_loss) of one batch, from one softmax."""
    logits = np.asarray(logits, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    advantages = np.asarray(advantages, dtype=np.float64)
    n, _ = logits.shape
    if actions.shape != (n,) or advantages.shape != (n,):
        raise ShapeMismatch("actions/advantages must be vectors matching the batch size")
    shifted, probs, total = _softmax_parts(logits)
    rows = np.arange(n)
    picked = shifted[rows, actions] - np.log(total[:, 0])  # log softmax(logits)[action]
    # dH/dz_j = -p_j (log p_j + H); a p of 0 contributes 0 * log(1) = 0
    safe_log = np.log(np.where(probs > 0.0, probs, 1.0))
    row_entropy = -np.add.reduce(probs * safe_log, axis=1)
    entropy_grad = -probs * (safe_log + row_entropy[:, None]) / n
    probs[rows, actions] -= 1.0  # probs - onehot(actions): subtracting 0.0 keeps every other bit
    pg_grad = advantages[:, None] * probs / n
    # each mean as the add.reduce and division that np.mean performs, without its dispatch
    pg_loss, entropy = np.add.reduce(-picked * advantages) / n, np.add.reduce(row_entropy) / n
    return (float(pg_loss), pg_grad), (float(entropy), entropy_grad)


def policy_gradient_loss(
    logits: np.ndarray, actions: np.ndarray, advantages: np.ndarray
) -> tuple[float, np.ndarray]:
    """mean(-log softmax(logits)[action] * advantage); advantages are constants."""
    return policy_losses(logits, actions, advantages)[0]


def entropy_loss(logits: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean per-row entropy of softmax(logits), with its gradient."""
    n = len(logits)  # with advantages of 0, any actions: the policy-gradient half is unused
    return policy_losses(logits, np.zeros(n, dtype=np.int64), np.zeros(n))[1]


# ---------------------------------------------------------------------------
# Optimizers (update a flat parameter vector in place and return it).
# ---------------------------------------------------------------------------


class Sgd:
    def __init__(self, lr: float):
        if finite(lr, "lr") <= 0:
            raise ValueError(f"lr must be > 0, got {lr!r}")
        self.lr = float(lr)

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        if params.size != grads.size:
            raise LengthMismatch(f"params {params.size} vs grads {grads.size}")
        params -= self.lr * grads
        return params


class Adam:
    """Adam over a flat parameter vector. Every FLUSH_PERIOD steps, entries
    of m and v below the smallest normal double are set to 0: where a
    gradient entry stays exactly 0, m decays by beta1 per step into the
    subnormal range and never reaches 0 (0.9 * 5e-324 rounds back to
    5e-324), and subnormal arithmetic is slow on x86. Such an entry moves a
    parameter by at most about lr * 2.2e-308 / eps per step."""

    FLUSH_PERIOD = 64

    def __init__(
        self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8
    ):
        if finite(lr, "lr") <= 0:
            raise ValueError(f"lr must be > 0, got {lr!r}")
        for name, beta in (("beta1", beta1), ("beta2", beta2)):
            if not 0 <= finite(beta, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {beta!r}")
        if finite(eps, "eps") <= 0:
            raise ValueError(f"eps must be > 0, got {eps!r}")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        if params.size != grads.size:
            raise LengthMismatch(f"params {params.size} vs grads {grads.size}")
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
            self._scratch = np.empty((2, params.size))
        if self.t % self.FLUSH_PERIOD == 0:
            for state in (self.m, self.v):
                state[np.abs(state) < _TINY] = 0.0
        self.t += 1
        # params -= lr * m_hat / (sqrt(v_hat) + eps), in the same IEEE operations
        # and order as the plain formula, in two scratch rows (m_hat is m once 1 - beta1**t is 1)
        step, denom = self._scratch
        np.multiply(grads, 1.0 - self.beta1, out=step)
        self.m *= self.beta1
        self.m += step
        np.multiply(grads, 1.0 - self.beta2, out=denom)
        denom *= grads
        self.v *= self.beta2
        self.v += denom
        bias1 = 1.0 - self.beta1**self.t
        m_hat = self.m if bias1 == 1.0 else np.divide(self.m, bias1, out=step)
        np.multiply(m_hat, self.lr, out=step)
        np.divide(self.v, 1.0 - self.beta2**self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        params -= step
        return params
