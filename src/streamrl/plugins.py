"""Continual-learning plugins riding on the strategy callback system.

EwcPlugin penalizes drift away from parameters that mattered for previously
trained experiences (one quadratic anchor per past experience); ReplayPlugin
keeps a cross-experience memory of transitions and mixes them into update
batches; NaivePlugin is the do-nothing baseline the other two are measured
against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .checks import count, finite, integer
from .nn import LengthMismatch
from .training.base import StrategyPlugin, Transitions
from .training.dqn import ReplayBuffer

# Rows per Fisher pass. numpy's OpenBLAS (0.3.31) runs a 64x64 layer's GEMM on
# 2 threads from batch 128 up, which EVAL_LANES (96) also stays under. One
# 512-row pass raised the a2c benchmark's peak RSS from 40.2 to 42.0 MiB on a
# 2-vCPU host; 64-row passes keep it at 40.2.
FISHER_CHUNK = 64


@dataclass
class EwcState:
    """One anchor/Fisher pair per finished experience."""

    lam: float
    fisher_sample_count: int
    anchors: list[np.ndarray] = field(default_factory=list)
    fishers: list[np.ndarray] = field(default_factory=list)

    @property
    def n_anchors(self) -> int:
        return len(self.anchors)


def ewc_penalty_and_grad(model, state: EwcState) -> tuple[float, np.ndarray]:
    """penalty = sum_k (lam/2) * sum_i F_k[i] * (theta[i] - theta*_k[i])^2
    and its exact gradient sum_k lam * F_k * (theta - theta*_k)."""
    params = model.params
    grad, diff, term = np.zeros((3, params.size))
    penalty = 0.0
    for anchor, fisher in zip(state.anchors, state.fishers):
        if anchor.size != params.size or fisher.size != params.size:
            raise LengthMismatch(
                f"EWC state sized {anchor.size}/{fisher.size} vs {params.size} params"
            )
        np.subtract(params, anchor, out=diff)
        np.multiply(fisher, diff, out=term)
        term *= diff
        penalty += 0.5 * state.lam * float(term.sum())
        np.multiply(state.lam, fisher, out=term)
        term *= diff
        grad += term
    return penalty, grad


class EwcPlugin(StrategyPlugin):
    """Elastic weight consolidation, separate penalty per past experience.

    The diagonal Fisher is the mean, over the last fisher_sample_count
    transitions of the experience and at the anchor parameters, of the
    summed squared rows of strategy.per_sample_loss_grad. For A2C that is the
    empirical Fisher of the policy, (d log pi(a|s)/dtheta)^2 for the taken
    action. For DQN and DoubleDQN it is the output-space (Gauss-Newton)
    Fisher of the whole q_values head, sum_a (dQ_a(s)/dtheta)^2.

    It is computed without a pass per transition: strategy.fisher_sum gets
    FISHER_CHUNK transitions at a time and sums their squared gradients
    with one forward pass and one backward pass per gradient row (one for
    A2C, one per action for DQN), by the identity sum_i (delta_i x_i^T)^2 =
    (delta^2)^T (x^2) (see Mlp.squared_grad_sum).

    Being diagonal, the penalty only guards parameters that affected the
    outputs on the sampled states. A parameter with zero importance at the
    anchor (say, the weights of a ReLU unit that is off on every sampled
    state) is free to move, and moving it can still change the old task's
    outputs once it switches the unit back on.
    """

    def __init__(self, lam: float = 100.0, fisher_sample_count: int = 512):
        if finite(lam, "lam") < 0:
            raise ValueError(f"lam must be >= 0, got {lam!r}")
        self.state = EwcState(float(lam), count(fisher_sample_count, "fisher_sample_count"))
        self._recent = ReplayBuffer(fisher_sample_count)

    def before_training_exp(self, strategy) -> None:
        self._recent.clear()

    def after_rollout(self, strategy) -> None:
        self._recent.extend(strategy.rollout.steps)

    def before_update(self, strategy) -> None:
        if not self.state.anchors:
            return
        penalty, grad = ewc_penalty_and_grad(strategy.model, self.state)
        strategy.loss += penalty
        strategy.grad_accum += grad

    def after_training_exp(self, strategy) -> None:
        samples = self._recent.oldest_first()
        if len(samples) < self.state.fisher_sample_count:
            warnings.warn(
                f"EWC wanted {self.state.fisher_sample_count} transitions, "
                f"only {len(samples)} available; using all of them",
                stacklevel=2,
            )
        if not samples:
            return
        anchor = strategy.model.flatten()
        acc = np.zeros_like(anchor)
        for lo in range(0, len(samples), FISHER_CHUNK):
            acc += strategy.fisher_sum(samples[lo : lo + FISHER_CHUNK])
        self.state.anchors.append(anchor)
        self.state.fishers.append(acc / len(samples))
        self._recent.clear()

    # -- checkpoint integration -------------------------------------------

    def state_sections(self) -> dict[str, np.ndarray]:
        sections = {
            "ewc/meta": np.array(
                [self.state.lam, self.state.fisher_sample_count, self.state.n_anchors]
            )
        }
        for k, (anchor, fisher) in enumerate(zip(self.state.anchors, self.state.fishers)):
            sections[f"ewc/anchor_{k}"] = anchor
            sections[f"ewc/fisher_{k}"] = fisher
        return sections

    def load_state_sections(self, sections: dict[str, np.ndarray]) -> None:
        meta = sections["ewc/meta"]
        self.state = EwcState(float(meta[0]), int(meta[1]))
        self._recent = ReplayBuffer(self.state.fisher_sample_count)
        for k in range(int(meta[2])):
            self.state.anchors.append(sections[f"ewc/anchor_{k}"])
            self.state.fishers.append(sections[f"ewc/fisher_{k}"])


# checkpoint section name -> Transitions column, in the file's section order
REPLAY_SECTIONS = {"obs": "obs", "next_obs": "next_obs", "actions": "action",
                   "rewards": "reward", "dones": "done", "task_labels": "task_label"}


class ReplayPlugin(StrategyPlugin):
    """Cross-experience replay: remember every gathered transition (FIFO ring
    of `capacity`) and, before each update, replace floor(mix_ratio * B) rows
    of the size-B update batch with memory rows, preferring rows whose task
    label differs from the experience being trained.

    The picks map to memory slots through ReplayBuffer.label_runs, in
    O(runs + batch) rather than a scan of the label column, with the same
    draws and slots as np.flatnonzero(labels != current)[picks].

    Row replacement only applies to flat transition batches (Transitions,
    i.e. the DQN family). Strategies whose update consumes an ordered rollout
    (A2C) keep their batch untouched, since splicing foreign steps into an
    ordered sequence would corrupt the return computation.
    """

    def __init__(self, capacity: int = 10_000, mix_ratio: float = 0.5, seed: int = 0):
        if not 0.0 <= finite(mix_ratio, "mix_ratio") <= 1.0:
            raise ValueError(f"mix_ratio must be in [0, 1], got {mix_ratio!r}")
        self.memory = ReplayBuffer(capacity)
        self.mix_ratio = float(mix_ratio)
        self._rng = np.random.default_rng(integer(seed, "seed", low=0) + 1)

    def after_rollout(self, strategy) -> None:
        self.memory.extend(strategy.rollout.steps)

    def before_update(self, strategy) -> None:
        batch = strategy.update_batch
        if not isinstance(batch, Transitions) or len(batch) == 0 or len(self.memory) == 0:
            return
        n_replace = int(self.mix_ratio * len(batch))
        if n_replace == 0:
            return
        # Candidate slots in slot order: those of other tasks, else all. The
        # k-th candidate is slot k + shifts[i], for the first i with k < ends[i].
        current_label = strategy.experience.task_label if strategy.experience else None
        ends, shifts, n_candidates = [], [], 0
        for first, count, label in self.memory.label_runs():
            if label != current_label:
                shifts.append(first - n_candidates)
                n_candidates += count
                ends.append(n_candidates)
        if n_candidates == 0:
            ends, shifts, n_candidates = [len(self.memory)], [0], len(self.memory)
        rows = self._rng.choice(len(batch), size=n_replace, replace=False)
        slots = self._rng.integers(0, n_candidates, size=n_replace)
        slots += shifts[0] if len(shifts) == 1 else (  # one run: the usual case
            np.array(shifts)[np.array(ends).searchsorted(slots, side="right")])
        batch.put(rows, self.memory.rows(slots))

    # -- checkpoint integration -------------------------------------------

    def state_sections(self) -> dict[str, np.ndarray]:
        n = len(self.memory)
        sections = {"replay/meta": np.array([self.memory.capacity, self.mix_ratio, n])}
        if n:
            items = self.memory.items()
            for section, column in REPLAY_SECTIONS.items():
                sections[f"replay/{section}"] = np.asarray(getattr(items, column), dtype=np.float64)
        return sections

    def load_state_sections(self, sections: dict[str, np.ndarray]) -> None:
        meta = sections["replay/meta"]
        self.memory = ReplayBuffer(int(meta[0]))
        self.mix_ratio = float(meta[1])
        n = int(meta[2])
        if n:  # the ring's int and bool columns take the float64 sections
            self.memory.extend(Transitions(**{
                column: sections[f"replay/{section}"][:n] for section, column in REPLAY_SECTIONS.items()
            }))


class NaivePlugin(StrategyPlugin):
    """Explicit no-op baseline: plain sequential fine-tuning."""
