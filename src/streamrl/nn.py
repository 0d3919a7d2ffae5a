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


class ShapeMismatch(ValueError):
    """Input shapes disagree with the network or with each other."""


class LengthMismatch(ValueError):
    """Flat parameter/gradient vectors have different lengths."""


class NoCachedForward(RuntimeError):
    """backward() called without a preceding forward() on this network."""


class NonFinite(FloatingPointError):
    """A forward or backward pass produced inf or NaN."""


_ACTIVATIONS = ("relu", "tanh", "identity")


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z


def _activation_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(np.float64)  # subgradient 0 at exactly 0
    if name == "tanh":
        return 1.0 - a * a
    return np.ones_like(z)


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
        self.sizes = tuple(int(s) for s in sizes)
        n_layers = len(self.sizes) - 1
        if activations is None:
            activations = ["relu"] * (n_layers - 1) + ["identity"]
        if len(activations) != n_layers:
            raise ValueError(f"need {n_layers} activations, got {len(activations)}")
        for act in activations:
            if act not in _ACTIVATIONS:
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
        self._cache: tuple[list[np.ndarray], list[np.ndarray]] | None = None

    @property
    def param_count(self) -> int:
        return self.params.size

    def forward(self, batch: np.ndarray) -> dict[str, np.ndarray]:
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.sizes[0]:
            raise ShapeMismatch(f"batch inner dim {x.shape[1]} != input size {self.sizes[0]}")
        inputs, preacts = [], []
        for w, b, act in zip(self.weights, self.biases, self.activations):
            inputs.append(x)
            z = x @ w.T + b
            preacts.append(z)
            x = _activate(act, z)
        if not np.all(np.isfinite(x)):
            raise NonFinite("non-finite activations in forward pass")
        self._cache = (inputs, preacts)
        return {name: x[:, lo:hi] for name, lo, hi in self._head_slices}

    def backward(self, output_grads: dict[str, np.ndarray]) -> np.ndarray:
        """Exact gradients of sum(outputs * output_grads) w.r.t. all parameters.

        Heads absent from output_grads contribute zero. Returns a flat vector
        laid out like params.
        """
        if self._cache is None:
            raise NoCachedForward("forward() must run before backward()")
        inputs, preacts = self._cache
        batch = inputs[0].shape[0]
        grad_out = np.zeros((batch, self.sizes[-1]))
        for name, lo, hi in self._head_slices:
            if name in output_grads:
                g = np.asarray(output_grads[name], dtype=np.float64)
                if g.shape != (batch, hi - lo):
                    raise ShapeMismatch(
                        f"grad for head {name!r} has shape {g.shape}, expected {(batch, hi - lo)}"
                    )
                grad_out[:, lo:hi] = g

        flat = np.empty_like(self.params)
        d_weights, d_biases = _layer_views(flat, self.sizes)
        g = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            z = preacts[i]
            a = _activate(self.activations[i], z)
            delta = g * _activation_grad(self.activations[i], z, a)
            d_weights[i][...] = delta.T @ inputs[i]
            d_biases[i][...] = delta.sum(axis=0)
            g = delta @ self.weights[i]
        if not np.all(np.isfinite(flat)):
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


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, 2.0 * diff / diff.size


def huber_loss(
    pred: np.ndarray, target: np.ndarray, delta: float = 1.0
) -> tuple[float, np.ndarray]:
    """Quadratic inside |r|<=delta, linear outside, mean-reduced."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"pred {pred.shape} vs target {target.shape}")
    r = pred - target
    small = np.abs(r) <= delta
    per_elem = np.where(small, 0.5 * r * r, delta * (np.abs(r) - 0.5 * delta))
    grad = np.where(small, r, delta * np.sign(r)) / r.size
    return float(np.mean(per_elem)), grad


def policy_gradient_loss(
    logits: np.ndarray, actions: np.ndarray, advantages: np.ndarray
) -> tuple[float, np.ndarray]:
    """mean(-log softmax(logits)[action] * advantage); advantages are constants."""
    logits = np.asarray(logits, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    advantages = np.asarray(advantages, dtype=np.float64)
    n, _ = logits.shape
    if actions.shape != (n,) or advantages.shape != (n,):
        raise ShapeMismatch("actions/advantages must be vectors matching the batch size")
    probs = softmax(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    picked = log_probs[np.arange(n), actions]
    loss = float(np.mean(-picked * advantages))
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(n), actions] = 1.0
    grad = advantages[:, None] * (probs - one_hot) / n
    return loss, grad


def entropy_loss(logits: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean per-row entropy of softmax(logits), with its gradient."""
    logits = np.asarray(logits, dtype=np.float64)
    n, _ = logits.shape
    probs = softmax(logits)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0.0, probs * np.log(probs), 0.0)
    row_entropy = -plogp.sum(axis=1)
    loss = float(np.mean(row_entropy))
    # dH/dz_j = -p_j (log p_j + H); guard log(0) since p=0 contributes 0
    safe_log = np.where(probs > 0.0, np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
    grad = -probs * (safe_log + row_entropy[:, None]) / n
    return loss, grad


# ---------------------------------------------------------------------------
# Optimizers (update a flat parameter vector in place and return it).
# ---------------------------------------------------------------------------


class Sgd:
    def __init__(self, lr: float):
        if lr <= 0:
            raise ValueError("lr must be > 0")
        self.lr = float(lr)

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        if params.size != grads.size:
            raise LengthMismatch(f"params {params.size} vs grads {grads.size}")
        params -= self.lr * grads
        return params


class Adam:
    def __init__(
        self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8
    ):
        if lr <= 0:
            raise ValueError("lr must be > 0")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        if params.size != grads.size:
            raise LengthMismatch(f"params {params.size} vs grads {grads.size}")
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
