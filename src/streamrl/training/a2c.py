"""Advantage actor-critic over a shared body with policy and value heads.

Each update consumes the rollout it just gathered (no replay). Per actor,
n-step returns are computed backward with the value head bootstrapping the
tail when the last step did not terminate:

    R_T = 0 if done_T else V(next_obs_T)
    R_t = r_t + gamma * R_{t+1}        (R reset to 0 across episode ends)

The single combined loss is

    mean(-log pi(a|s) * A) + value_coef * MSE(V(s), R) - entropy_coef * H(pi)

with A = R - V(s) treated as a constant, and one backward/optimizer step per
rollout. The policy-gradient and entropy terms share one softmax of the
logits (nn.policy_losses). The model needs "policy_logits" and "value" heads.
"""

from __future__ import annotations

import numpy as np

from ..checks import finite, integer
from ..nn import mse_loss, policy_gradient_loss, policy_losses, softmax
from .base import EmptyRollout, RLBaseStrategy, Rollout, TrainingBudget, Transitions


def _nstep_returns(rewards, dones, tails, gamma: float) -> np.ndarray:
    """The returns of every actor, actor-major: rewards and dones are lists of
    per-actor lists of Python floats and bools, tails the bootstrap values."""
    returns = []
    for actor_rewards, actor_dones, acc in zip(rewards, dones, tails):
        actor_returns = [0.0] * len(actor_rewards)
        for t in range(len(actor_rewards) - 1, -1, -1):
            if actor_dones[t]:
                acc = 0.0
            acc = actor_rewards[t] + gamma * acc
            actor_returns[t] = acc
        returns += actor_returns
    return np.array(returns, dtype=np.float64)


def compute_nstep_returns(rewards, dones, bootstrap_value: float, gamma: float) -> np.ndarray:
    """Discounted returns for one actor's ordered step sequence. The
    bootstrap seeds the recursion and a done at position t cuts the chain so
    nothing leaks across auto-reset episode boundaries."""
    rewards = np.asarray(rewards, dtype=np.float64).tolist()  # Python floats: the same IEEE ops
    return _nstep_returns([rewards], [dones], [float(bootstrap_value)], gamma)


class A2cStrategy(RLBaseStrategy):
    def __init__(
        self,
        model,
        optimizer,
        budget: TrainingBudget,
        gamma: float = 0.99,
        value_coef: float = 0.5,
        entropy_coef: float = 0.01,
        action_seed: int = 0,
        **kwargs,
    ):
        super().__init__(model, optimizer, budget, gamma=gamma, **kwargs)
        for head in ("policy_logits", "value"):
            if head not in model.heads:
                raise ValueError(f"A2C model must expose a {head!r} head")
        if model.heads["value"] != 1:
            raise ValueError("the 'value' head must have width 1")
        self.n_actions = model.heads["policy_logits"]
        self.value_coef = float(finite(value_coef, "value_coef"))
        self.entropy_coef = float(finite(entropy_coef, "entropy_coef"))
        self._action_rng = np.random.default_rng(integer(action_seed, "action_seed", low=0))

    def sample_rollout_action(self, obs_batch: np.ndarray) -> np.ndarray:
        logits = self.model.forward(obs_batch)["policy_logits"]
        # rng.choice(n, p=row) for all rows, draw for draw: random() vs the normalised cdf
        cdf = np.add.accumulate(softmax(logits), axis=1)
        cdf /= cdf[:, -1:]
        u = self._action_rng.random((len(cdf), 1))  # the draws of random(len(cdf)), as a column
        return np.add.reduce(cdf <= u, axis=1)

    def greedy_action(self, obs_batch: np.ndarray) -> np.ndarray:
        logits = self.model.forward(obs_batch)["policy_logits"]
        return np.argmax(logits, axis=1)

    def prepare_update_batch(self, rollout: Rollout) -> Rollout:
        return rollout

    def apply_update(self, rollout: Rollout) -> None:
        if rollout is None or len(rollout) == 0:
            raise EmptyRollout("A2C update needs a non-empty rollout")

        # Bootstrap values for every actor's final step, before the main forward pass
        # (forward() caches activations for backward()). Time-major row t * n + a is
        # actor a's step t, so (T, n) reshapes, transposed, read actor-major.
        steps, n = rollout.steps, rollout.n_actors
        tail_values = self.model.forward(steps.next_obs[-n:])["value"][:, 0]
        rewards, dones = (column.reshape(-1, n).T.tolist() for column in (steps.reward, steps.done))
        returns = _nstep_returns(rewards, dones, tail_values.tolist(), self.gamma)
        obs = steps.obs.reshape(-1, n, *steps.obs.shape[1:]).swapaxes(0, 1).reshape(steps.obs.shape)
        actions = steps.action.reshape(-1, n).T.reshape(-1)

        out = self.model.forward(obs)
        logits = out["policy_logits"]
        values = out["value"][:, 0]
        advantages = returns - values

        (pg_loss, pg_grad), (entropy, entropy_grad) = policy_losses(logits, actions, advantages)
        value_loss, value_grad = mse_loss(values, returns)
        base_loss = pg_loss + self.value_coef * value_loss - self.entropy_coef * entropy

        grads = self.model.backward(
            {
                "policy_logits": pg_grad - self.entropy_coef * entropy_grad,
                "value": (self.value_coef * value_grad)[:, None],
            }
        )
        grads += self.grad_accum
        self.optimizer.step(self.model.params, grads)

        self.loss += base_loss
        self.updates_applied_this_exp += 1
        self.metrics.record_custom("loss", self.loss)
        self.metrics.record_custom("entropy", entropy)

    def per_sample_loss_grad(self, step: Transitions) -> np.ndarray:
        """One row: the gradient of -log pi(a|s) for the taken action
        (policy head only)."""
        logits = self.model.forward(step.obs[None, :])["policy_logits"]
        _, grad = policy_gradient_loss(
            logits, np.array([step.action]), np.array([1.0])
        )
        return self.model.backward({"policy_logits": grad})[None, :]

    def fisher_sum(self, steps: Transitions) -> np.ndarray:
        """One pass: row i's gradient of -log pi(a_i|s_i) w.r.t. the logits
        is softmax(logits_i) - onehot(a_i)."""
        grad = softmax(self.model.forward(steps.obs)["policy_logits"])
        grad[np.arange(len(steps)), steps.action] -= 1.0
        return self.model.squared_grad_sum({"policy_logits": grad})
