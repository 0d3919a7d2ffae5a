"""DQN with a target network, plus the DoubleDQN variant (double=True).

The model needs a "q_values" head. Every iteration the freshly gathered
rollout is inserted into the replay buffer first, then a uniform mini-batch
is drawn and used for a single Huber regression step toward

    y = r + gamma * (1 - done) * max_a Q_target(s', a)            (vanilla)
    y = r + gamma * (1 - done) * Q_target(s', argmax_a Q_online(s', a))
                                                                  (double)

The target network is a hard copy of the online network refreshed every
target_sync_period applied updates. While the buffer holds fewer than
batch_size transitions the update is skipped (the budget iteration is still
consumed, counted in updates_skipped).

Exploration is epsilon-greedy with epsilon annealed linearly from eps_start
to eps_end over the first eps_decay_fraction of the experience's expected
env steps, restarting at every experience. The replay buffer is also cleared
per experience: carrying transitions from a different task would silently
blend tasks, which is exactly the behavior the continual-learning plugins
are meant to control explicitly.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Optional

import numpy as np

from ..benchmarks import RLExperience
from ..checks import count, finite, integer
from ..nn import huber_loss
from .base import InsufficientReplay, RLBaseStrategy, Rollout, TrainingBudget, Transitions


class ReplayBuffer:
    """Fixed-capacity ring of transition columns with FIFO eviction and
    uniform sampling with the caller's generator. The k-th transition stored
    since the last clear() goes to slot k % capacity, so once the ring is full
    each new transition overwrites the oldest one."""

    def __init__(self, capacity: int):
        self.capacity = count(capacity, "capacity")
        self._slots = Transitions.zeros((0,), ())  # allocated by the first extend()
        self._size = 0
        self._next = 0
        # [task label, count] of each run of stored transitions that share a
        # label, in the order they were stored, oldest first; see label_runs()
        self._runs: deque[list] | None = None

    def __len__(self) -> int:
        return self._size

    def extend(self, batch: Transitions) -> None:
        n = len(batch)
        if n > self.capacity:  # only the newest `capacity` rows would survive
            self._next = (self._next + n - self.capacity) % self.capacity
            batch = batch[n - self.capacity :]
            n = self.capacity
        if len(self._slots) != self.capacity:
            self._slots = Transitions.zeros((self.capacity,), batch.obs.shape[1:])
        end = self._next + n
        if end <= self.capacity:
            slots = slice(self._next, end)
        else:
            slots = np.arange(self._next, end) % self.capacity
        self._slots.put(slots, batch)
        self._next = end % self.capacity
        evicted = max(self._size + n - self.capacity, 0)
        self._size += n - evicted
        if self._runs is not None:
            self._index(evicted, self._slots.task_label[slots])

    def _index(self, evicted: int, labels: np.ndarray) -> None:
        """Drops the `evicted` oldest rows from the run index, then adds `labels`."""
        while evicted:
            oldest = self._runs[0]
            if oldest[1] > evicted:
                oldest[1] -= evicted
                break
            evicted -= self._runs.popleft()[1]
        for label, rows in itertools.groupby(labels.tolist()):
            count = len(list(rows))
            if self._runs and self._runs[-1][0] == label:
                self._runs[-1][1] += count
            else:
                self._runs.append([label, count])

    def sample(self, batch_size: int, rng: np.random.Generator) -> Transitions:
        if self._size < batch_size:
            raise InsufficientReplay(
                f"buffer holds {self._size} < batch_size {batch_size}"
            )
        return self.rows(rng.integers(0, self._size, size=batch_size))

    def rows(self, slots: np.ndarray) -> Transitions:
        """Copies of the transitions in the given slots."""
        return self._slots[slots]

    def items(self) -> Transitions:
        """The stored transitions in slot order, as views into the ring."""
        return self._slots[: self._size]

    def label_runs(self) -> list[tuple[int, int, int]]:
        """(first slot, slot count, task label) of runs of consecutive slots
        that hold one task label each, in slot order, covering slots
        0..len-1, from the run index in O(runs). The first call builds the
        index with one scan of the task_label column, and extend() keeps it
        from then on. A run that crosses the end of the ring comes as two."""
        if self._runs is None:  # the labels oldest first: the oldest row is in slot 0 or _next
            self._runs = deque()
            self._index(0, np.roll(self._slots.task_label[: self._size], self._size - self._next))
        runs, stored = [], 0
        oldest = (self._next - self._size) % self.capacity
        for label, count in self._runs:
            first = (oldest + stored) % self.capacity
            head = min(count, self.capacity - first)
            runs.append((first, head, label))
            if count > head:
                runs.append((0, count - head, label))
            stored += count
        runs.sort()  # first slots are distinct
        return runs

    def oldest_first(self) -> Transitions:
        """Copies of the stored transitions in the order they were stored."""
        return self.rows((self._next - self._size + np.arange(self._size)) % self.capacity)

    def clear(self) -> None:
        self._size = 0
        self._next = 0
        self._runs = None


def compute_dqn_targets(
    rewards: np.ndarray,
    dones: np.ndarray,
    q_next_target: np.ndarray,
    gamma: float,
    q_next_online: Optional[np.ndarray] = None,
    double: bool = False,
) -> np.ndarray:
    """Pure target computation, shared by the update and exposed for tests."""
    rewards = np.asarray(rewards, dtype=np.float64)
    not_done = 1.0 - np.asarray(dones, dtype=np.float64)
    if double:
        if q_next_online is None:
            raise ValueError("double targets need q_next_online")
        best = np.argmax(q_next_online, axis=1)
        bootstrap = q_next_target[np.arange(len(rewards)), best]
    else:
        bootstrap = np.maximum.reduce(q_next_target, axis=1)  # ndarray.max without its wrapper
    return rewards + gamma * not_done * bootstrap


class DqnStrategy(RLBaseStrategy):
    def __init__(
        self,
        model,
        optimizer,
        budget: TrainingBudget,
        gamma: float = 0.99,
        batch_size: int = 32,
        replay_capacity: int = 10_000,
        target_sync_period: int = 100,
        double: bool = False,
        eps_start: float = 1.0,
        eps_end: float = 0.05,
        eps_decay_fraction: float = 0.1,
        action_seed: int = 0,
        replay_seed: int = 0,
        **kwargs,
    ):
        super().__init__(model, optimizer, budget, gamma=gamma, **kwargs)
        if "q_values" not in model.heads:
            raise ValueError("DQN model must expose a 'q_values' head")
        self.n_actions = model.heads["q_values"]
        self.batch_size = count(batch_size, "batch_size")
        self.double = double
        self.target_sync_period = count(target_sync_period, "target_sync_period")
        self.eps_start = float(finite(eps_start, "eps_start"))
        self.eps_end = float(finite(eps_end, "eps_end"))
        self.eps_decay_fraction = float(finite(eps_decay_fraction, "eps_decay_fraction"))
        self.replay = ReplayBuffer(replay_capacity)
        self._replay_rng = np.random.default_rng(integer(replay_seed, "replay_seed", low=0))
        self.target_model = model.clone()
        self._action_rng = np.random.default_rng(integer(action_seed, "action_seed", low=0))
        self._updates_since_sync = 0
        self._eps_decay_steps = 1

    # ------------------------------------------------------------------

    def expected_env_steps(self, experience: RLExperience) -> int:
        """Budgeted env steps for one experience. Exact under Steps(n); for
        Episodes(n) it treats each episode as one step, a deliberately crude
        lower bound (the schedule just anneals faster than intended)."""
        return (
            self.budget.updates_per_experience
            * self.budget.rollout_condition.n
            * experience.n_envs
        )

    @property
    def epsilon(self) -> float:
        frac = min(1.0, self.env_steps_this_exp / self._eps_decay_steps)
        return self.eps_start + (self.eps_end - self.eps_start) * frac

    def on_experience_start(self, experience: RLExperience) -> None:
        self.replay.clear()
        self._eps_decay_steps = max(
            1, int(round(self.eps_decay_fraction * self.expected_env_steps(experience)))
        )

    # ------------------------------------------------------------------

    def sample_rollout_action(self, obs_batch: np.ndarray) -> np.ndarray:
        eps, rng = self.epsilon, self._action_rng
        n = len(obs_batch) if np.ndim(obs_batch) > 1 else 1  # a single observation is one actor
        # a random() draw per actor, integers() when exploring; Q values only if some are greedy
        drawn = [rng.integers(self.n_actions) if rng.random() < eps else -1 for _ in range(n)]
        if -1 not in drawn:
            return np.array(drawn)
        actions = self.model.forward(obs_batch)["q_values"].argmax(axis=1)
        for i, action in enumerate(drawn):
            if action != -1:
                actions[i] = action
        return actions

    def greedy_action(self, obs_batch: np.ndarray) -> np.ndarray:
        q = self.model.forward(obs_batch)["q_values"]
        return np.argmax(q, axis=1)

    def prepare_update_batch(self, rollout: Rollout) -> Optional[Transitions]:
        self.replay.extend(rollout.steps)
        if len(self.replay) < self.batch_size:
            return None
        return self.replay.sample(self.batch_size, self._replay_rng)

    def apply_update(self, batch: Optional[Transitions]) -> None:
        if batch is None:
            self.updates_skipped_this_exp += 1
            self.metrics.record_custom("update_skipped", 1.0)
            return
        obs, actions, next_obs = batch.obs, batch.action, batch.next_obs
        rewards, dones = batch.reward, batch.done

        q_next_target = self.target_model.forward(next_obs)["q_values"]
        q_next_online = self.model.forward(next_obs)["q_values"] if self.double else None
        targets = compute_dqn_targets(
            rewards, dones, q_next_target, self.gamma, q_next_online, self.double
        )

        q = self.model.forward(obs)["q_values"]
        rows = np.arange(len(batch))
        base_loss, dloss = huber_loss(q[rows, actions], targets)
        out_grad = np.zeros(q.shape)
        out_grad[rows, actions] = dloss
        grads = self.model.backward({"q_values": out_grad})
        grads += self.grad_accum
        self.optimizer.step(self.model.params, grads)

        self.loss += base_loss
        self.updates_applied_this_exp += 1
        self._updates_since_sync += 1
        if self._updates_since_sync >= self.target_sync_period:
            self.target_model.copy_params_from(self.model)
            self._updates_since_sync = 0
        self.metrics.record_custom("loss", self.loss)
        self.metrics.record_custom("epsilon", self.epsilon)

    def per_sample_loss_grad(self, step: Transitions) -> np.ndarray:
        """One row per action a: dQ_a(s)/dtheta. Their squared sum is the
        Gauss-Newton diagonal of the whole q_values head, the Fisher of a
        unit-variance Gaussian likelihood around each Q value. It needs no
        TD target, so it neither vanishes at convergence nor ignores the
        actions that were not taken."""
        self.model.forward(step.obs[None, :])
        one_hot = np.eye(self.n_actions)
        return np.stack(
            [self.model.backward({"q_values": one_hot[a : a + 1]}) for a in range(self.n_actions)]
        )

    def fisher_sum(self, steps: Transitions) -> np.ndarray:
        """One pass per action a, with output gradient onehot(a) on every row."""
        self.model.forward(steps.obs)
        one_hot = np.eye(self.n_actions)
        total = np.zeros(self.model.param_count)
        for a in range(self.n_actions):
            column = np.broadcast_to(one_hot[a], (len(steps), self.n_actions))
            total += self.model.squared_grad_sum({"q_values": column})
        return total
