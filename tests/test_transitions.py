"""The columnar transition ring against a brute-force list-of-rows reference.

ListRing below is the buffer the ring replaced: a Python list holding one
row per transition, appended one at a time with FIFO eviction. Every test
drives the ring and the reference with the same data and seeds and requires
identical rows, in identical order.
"""

import itertools
from collections import deque

import numpy as np
import pytest

from streamrl.benchmarks import EnvSpec, Explicit, gym_benchmark_generator
from streamrl.checkpoint import load_checkpoint, save_checkpoint
from streamrl.envs import GridScene, GridWorld
from streamrl.nn import Adam, Mlp
from streamrl.plugins import EwcPlugin, ReplayPlugin
from streamrl.training import DqnStrategy, Rollout, Steps, TrainingBudget, Transitions
from streamrl.training.dqn import ReplayBuffer


def by_actor(rollout: Rollout) -> Transitions:
    """The rollout's actor-major columns, of shape [n_actors, T, ...]: a
    fancy-indexed copy of its time-major steps, the reference that A2C's
    reshaped views are checked against."""
    return rollout.steps[np.arange(len(rollout)).reshape(-1, rollout.n_actors).T]


def rollout_of(n_actors: int, rows, task_label: int = 0) -> Rollout:
    """The Rollout that collect_rollout joins from vectorized steps, each an
    (obs, action, reward, done, next_obs) tuple of one row per actor."""
    columns = [np.concatenate(column) for column in zip(*rows)]
    return Rollout(n_actors, Transitions(*columns, np.full(len(rows) * n_actors, task_label)))


FIELDS = ("obs", "action", "reward", "done", "next_obs", "task_label")


class ListRing:
    """Reference: a list of row tuples in slot order, one append per row."""

    def __init__(self, capacity, seed=0):
        self.capacity = capacity
        self.storage = []
        self.next = 0
        self.rng = np.random.default_rng(seed)

    def extend(self, rows):
        for row in rows:
            if len(self.storage) < self.capacity:
                self.storage.append(row)
            else:
                self.storage[self.next] = row
                self.next = (self.next + 1) % self.capacity

    def sample(self, batch_size):
        indices = self.rng.integers(0, len(self.storage), size=batch_size)
        return [self.storage[i] for i in indices]


def random_batch(rng, n, labels=(0,), obs_dim=3):
    obs = rng.normal(size=(n, obs_dim))
    return Transitions(
        obs=obs,
        action=rng.integers(0, 4, size=n),
        reward=rng.normal(size=n),
        done=rng.random(n) < 0.3,
        next_obs=obs + rng.normal(size=(n, obs_dim)),
        task_label=rng.choice(labels, size=n),
    )


def as_rows(batch):
    """The batch as a list of row tuples (arrays copied)."""
    return [tuple(np.copy(getattr(row, f)) for f in FIELDS) for row in batch]


def assert_rows_equal(got, want):
    assert len(got) == len(want)
    for got_row, want_row in zip(as_rows(got) if isinstance(got, Transitions) else got, want):
        for g, w in zip(got_row, want_row):
            assert np.array_equal(g, w)


def filled(capacity, batch_sizes, seed=0):
    """A ring and the reference fed the same random batches, plus every row
    fed, in order."""
    rng = np.random.default_rng(seed)
    ring, reference = ReplayBuffer(capacity), ListRing(capacity, seed=seed)
    stream = []
    for n in batch_sizes:
        batch = random_batch(rng, n)
        ring.extend(batch)
        reference.extend(as_rows(batch))
        stream.extend(as_rows(batch))
    return ring, reference, stream


# ---------------------------------------------------------------------------
# The ring
# ---------------------------------------------------------------------------


def test_fifo_eviction_and_slot_order_after_wrap():
    rng = np.random.default_rng(1)
    ring, reference = ReplayBuffer(7), ListRing(7, seed=0)
    # batches that fill, wrap at every offset, and overrun the whole ring
    for n in (3, 2, 4, 1, 7, 5, 9, 0, 6, 15, 2):
        batch = random_batch(rng, n)
        ring.extend(batch)
        reference.extend(as_rows(batch))
        assert len(ring) == len(reference.storage)
        assert_rows_equal(ring.items(), reference.storage)


def test_sample_matches_reference_rows_for_the_same_seed():
    ring, reference, _ = filled(50, [20, 20, 20, 13], seed=4)
    rng = np.random.default_rng(4)  # the reference's seed
    for batch_size in (1, 32, 50, 7):
        assert_rows_equal(ring.sample(batch_size, rng), reference.sample(batch_size))


@pytest.mark.parametrize("batch_sizes", [[5], [4, 4, 4, 4], [3, 11], [13, 2, 1]])
def test_oldest_first_is_the_last_rows_in_order_after_wrap(batch_sizes):
    ring, _, stream = filled(6, batch_sizes, seed=2)
    assert_rows_equal(ring.oldest_first(), stream[-6:])


def test_clear_restarts_at_slot_zero():
    ring, _, _ = filled(5, [4, 3], seed=0)
    ring.clear()
    batch = random_batch(np.random.default_rng(9), 2)
    ring.extend(batch)
    assert len(ring) == 2
    assert_rows_equal(ring.items(), as_rows(batch))


# ---------------------------------------------------------------------------
# Rollouts
# ---------------------------------------------------------------------------


def test_rollout_time_major_and_actor_major_orders():
    rows = []
    for t in range(4):
        obs = np.array([[10.0 * a + t, 0.0] for a in range(3)])
        rows.append((obs, np.full(3, t), np.arange(3.0), np.zeros(3, dtype=bool), obs + 1))
    rollout = rollout_of(3, rows, task_label=5)
    flat = rollout.steps
    assert flat.obs[:, 0].tolist() == [10.0 * a + t for t in range(4) for a in range(3)]
    assert flat.task_label.tolist() == [5] * 12
    per_actor = by_actor(rollout)
    assert per_actor.obs.shape == (3, 4, 2)
    assert per_actor.obs[:, :, 0].reshape(-1).tolist() == [
        10.0 * a + t for a in range(3) for t in range(4)
    ]
    assert per_actor.reward[2].tolist() == [2.0] * 4


@pytest.mark.parametrize("reward, next_obs, message", [
    (np.array([0.0, np.inf]), np.zeros((2, 3)), "non-finite reward"),
    (np.zeros(2), np.zeros((2, 4)), "next_obs shape"),
])
def test_rollout_rejects_non_finite_reward_and_shape_mismatch(reward, next_obs, message):
    row = (np.zeros((2, 3)), np.zeros(2, dtype=int), reward, np.zeros(2, bool), next_obs)
    with pytest.raises(ValueError, match=message):
        rollout_of(2, [row])


class NanRewardGrid(GridWorld):
    """A grid whose every reward is NaN."""

    def step(self, action):
        result = super().step(action)
        result.reward = float("nan")
        return result


def test_collect_rollout_rejects_a_non_finite_reward_before_booking_it():
    strategy = DqnStrategy(Mlp([25, 4], heads={"q_values": 4}), Adam(1e-3),
                           TrainingBudget(1, Steps(3)), batch_size=1)
    scenario = gym_benchmark_generator(
        [EnvSpec("nan", lambda: NanRewardGrid(GridScene(5, 5)))], 1, Explicit((0,))
    )
    with pytest.raises(ValueError, match="non-finite reward"):
        strategy.train(scenario, [])
    assert strategy._ep_return == [0.0]  # the NaN never entered an episode return


# ---------------------------------------------------------------------------
# Replay mixing, EWC window and checkpoint sections
# ---------------------------------------------------------------------------


class FakeStrategy:
    """The surface the plugins reach for; records each Fisher sample."""

    def __init__(self, batch=None, task_label=0):
        self.model = Mlp([1, 1])  # two parameters
        self.update_batch = batch
        self.experience = type("Exp", (), {"task_label": task_label})()
        self.rollout = None
        self.seen = []

    def fisher_sum(self, steps):
        for i in range(len(steps)):
            self.seen.append(tuple(np.copy(getattr(steps[i], f)) for f in FIELDS))
        return np.zeros(2)


def old_list_mix(memory_rows, batch_rows, current_label, mix_ratio, rng):
    """The replaced ReplayPlugin.before_update, over lists of rows."""
    n_replace = int(mix_ratio * len(batch_rows))
    candidates = [r for r in memory_rows if r[5] != current_label]
    if not candidates:
        candidates = memory_rows
    rows = rng.choice(len(batch_rows), size=n_replace, replace=False)
    picks = rng.integers(0, len(candidates), size=n_replace)
    for row, pick in zip(rows, picks):
        batch_rows[row] = candidates[pick]


# capacity, [(rows, labels drawn per row)] extended one after another, current label
MIXING_CASES = {
    # 67 rows into 40 slots: the ring wraps
    "mixed-labels": (40, [(25, (0, 1, 2)), (30, (0, 1, 2)), (12, (0, 1, 2))], 1),
    "all-same-label-fallback": (40, [(25, (1,)), (30, (1,)), (12, (1,))], 1),
    # rollout-like: one label per extend, a new label every 12 extends, 4 wraps
    "one-label-per-extend": (50, [(5, (k // 12,)) for k in range(40)], 3),
    "capacity-1": (1, [(1, (0,)), (3, (0, 1)), (1, (1,)), (2, (0,)), (1, (1,))], 1),
}


@pytest.mark.parametrize("case", list(MIXING_CASES))
def test_replay_mixing_matches_the_list_rule_on_a_wrapped_memory(case):
    capacity, extends, current = MIXING_CASES[case]
    plugin = ReplayPlugin(capacity=capacity, mix_ratio=0.5, seed=6)
    reference_memory = ListRing(capacity)
    reference_rng = np.random.default_rng(7)  # the plugin's mixing rng is seed + 1
    rng = np.random.default_rng(3)
    for step in range(len(extends) + 5):  # a mix after each extend, then 5 more
        if step < len(extends):
            n, labels = extends[step]
            batch = random_batch(rng, n, labels)
            plugin.memory.extend(batch)
            reference_memory.extend(as_rows(batch))
        batch = random_batch(rng, 32, (current,))
        reference_batch = as_rows(batch)
        plugin.before_update(FakeStrategy(batch, task_label=current))
        old_list_mix(reference_memory.storage, reference_batch, current, 0.5, reference_rng)
        assert_rows_equal(batch, reference_batch)


def test_replay_mixing_after_a_checkpoint_reload_matches_the_list_rule(tmp_path):
    plugin = ReplayPlugin(capacity=30, mix_ratio=0.5, seed=2)
    reference = ListRing(30)
    rng = np.random.default_rng(4)
    for n in (20, 17):  # the ring wraps
        batch = random_batch(rng, n, (0, 1, 3))
        plugin.memory.extend(batch)
        reference.extend(as_rows(batch))
    path = tmp_path / "replay.bin"
    save_checkpoint(path, {}, plugin.state_sections())
    fresh = ReplayPlugin()
    fresh.load_state_sections(load_checkpoint(path)[1])  # one mixed-label extend, slot order
    reloaded = ListRing(30)
    reloaded.extend(reference.storage)
    reference_rng = np.random.default_rng(1)  # ReplayPlugin()'s mixing rng: seed 0 + 1
    for k in range(8):
        batch = random_batch(rng, 4, (k % 3,))
        fresh.memory.extend(batch)
        reloaded.extend(as_rows(batch))
        batch = random_batch(rng, 32, (1,))
        reference_batch = as_rows(batch)
        fresh.before_update(FakeStrategy(batch, task_label=1))
        old_list_mix(reloaded.storage, reference_batch, 1, 0.5, reference_rng)
        assert_rows_equal(batch, reference_batch)


@pytest.mark.parametrize("capacity", [1, 7, 40])
def test_label_runs_tile_the_ring_in_slot_order(capacity):
    """label_runs comes from the index extend keeps, never from the label
    column; it must tile slots 0..len-1 in order, one label per run."""
    rng = np.random.default_rng(capacity)
    ring = ReplayBuffer(capacity)
    for k in range(80):
        if k == 40:
            ring.clear()
        labels = (k % 3,) if k % 2 else (0, 1, 2)
        ring.extend(random_batch(rng, int(rng.integers(0, 2 * capacity + 2)), labels))
        column = ring.items().task_label
        runs = ring.label_runs()
        firsts = [first for first, _, _ in runs]
        assert firsts == np.cumsum([0] + [count for _, count, _ in runs])[:-1].tolist()
        assert sum(count for _, count, _ in runs) == len(ring)
        for first, count, label in runs:
            assert count > 0 and (column[first : first + count] == label).all()


class EagerRunIndex:
    """The label-run index as ReplayBuffer.extend kept it on every ring, from
    the first row stored, before the index was built on demand."""

    def __init__(self, capacity):
        self.capacity, self.size, self.next, self.runs = capacity, 0, 0, deque()

    def extend(self, labels):
        labels = list(labels)
        n = len(labels)
        if n > self.capacity:
            self.next = (self.next + n - self.capacity) % self.capacity
            labels, n = labels[n - self.capacity :], self.capacity
        self.next = (self.next + n) % self.capacity
        evicted = max(self.size + n - self.capacity, 0)
        self.size += n - evicted
        while evicted:
            oldest = self.runs[0]
            if oldest[1] > evicted:
                oldest[1] -= evicted
                break
            evicted -= self.runs.popleft()[1]
        for label, rows in itertools.groupby(labels):
            count = len(list(rows))
            if self.runs and self.runs[-1][0] == label:
                self.runs[-1][1] += count
            else:
                self.runs.append([label, count])

    def clear(self):
        self.size, self.next = 0, 0
        self.runs.clear()

    def label_runs(self):
        runs, stored = [], 0
        oldest = (self.next - self.size) % self.capacity
        for label, count in self.runs:
            first = (oldest + stored) % self.capacity
            head = min(count, self.capacity - first)
            runs.append((first, head, label))
            if count > head:
                runs.append((0, count - head, label))
            stored += count
        runs.sort()
        return runs


@pytest.mark.parametrize("capacity", [1, 7, 40])
@pytest.mark.parametrize("first_ask", [0, 3, 25, 50])  # 50: built after clear()
def test_run_index_built_on_demand_equals_the_eager_index(capacity, first_ask):
    """The first label_runs call scans the ring; from then on extend keeps
    the index. Either way the runs are those of the index that extend kept
    from the start, including after clear()."""
    rng = np.random.default_rng(capacity * 100 + first_ask)
    ring, eager = ReplayBuffer(capacity), EagerRunIndex(capacity)
    for k in range(60):
        if k == 45:
            ring.clear()
            eager.clear()
        labels = (k % 3,) if k % 2 else (0, 1, 2)
        batch = random_batch(rng, int(rng.integers(0, 2 * capacity + 2)), labels)
        ring.extend(batch)
        eager.extend(batch.task_label.tolist())
        if k >= first_ask and (k == first_ask or rng.random() < 0.5):
            assert ring.label_runs() == eager.label_runs()


def test_run_index_after_a_checkpoint_reload_equals_the_eager_index(tmp_path):
    plugin = ReplayPlugin(capacity=30)
    eager = EagerRunIndex(30)
    rng = np.random.default_rng(12)
    for n in (20, 17):  # the ring wraps
        batch = random_batch(rng, n, (0, 1, 3))
        plugin.memory.extend(batch)
        eager.extend(batch.task_label.tolist())
    assert plugin.memory.label_runs() == eager.label_runs()
    path = tmp_path / "replay.bin"
    save_checkpoint(path, {}, plugin.state_sections())
    fresh = ReplayPlugin()
    fresh.load_state_sections(load_checkpoint(path)[1])
    reloaded = EagerRunIndex(30)
    reloaded.extend(plugin.memory.items().task_label.tolist())  # the reload's one extend
    for k in range(12):
        if k % 4 == 1:
            assert fresh.memory.label_runs() == reloaded.label_runs()
        batch = random_batch(rng, int(rng.integers(1, 9)), (k % 3,))
        fresh.memory.extend(batch)
        reloaded.extend(batch.task_label.tolist())
    assert fresh.memory.label_runs() == reloaded.label_runs()


def test_ewc_window_is_the_last_k_rows_oldest_first_after_wrap():
    plugin = EwcPlugin(lam=1.0, fisher_sample_count=8)
    strategy = FakeStrategy()
    plugin.before_training_exp(strategy)
    rng = np.random.default_rng(8)
    stream = []
    for n_steps in (3, 4, 2, 5):  # 14 vectorized steps x 2 actors into 8 rows
        rows = []
        for _ in range(n_steps):
            step = random_batch(rng, 2)
            rows.append((step.obs, step.action, step.reward, step.done, step.next_obs))
        strategy.rollout = rollout = rollout_of(2, rows)
        plugin.after_rollout(strategy)
        stream.extend(as_rows(rollout.steps))
    plugin.after_training_exp(strategy)
    assert_rows_equal(strategy.seen, stream[-8:])


def old_replay_sections(rows):
    """The replaced ReplayPlugin.state_sections layout, from a list of rows."""
    return {
        "replay/obs": np.stack([r[0] for r in rows]),
        "replay/next_obs": np.stack([r[4] for r in rows]),
        "replay/actions": np.array([r[1] for r in rows], dtype=np.float64),
        "replay/rewards": np.array([r[2] for r in rows]),
        "replay/dones": np.array([float(r[3]) for r in rows]),
        "replay/task_labels": np.array([r[5] for r in rows], dtype=np.float64),
    }


def test_replay_sections_byte_equal_to_the_stacked_layout_and_round_trip(tmp_path):
    plugin = ReplayPlugin(capacity=30, mix_ratio=0.25, seed=0)
    reference = ListRing(30)
    rng = np.random.default_rng(5)
    for n in (20, 17):
        batch = random_batch(rng, n, (0, 3))
        plugin.memory.extend(batch)
        reference.extend(as_rows(batch))
    sections = plugin.state_sections()
    want = {"replay/meta": np.array([30, 0.25, 30])} | old_replay_sections(reference.storage)
    assert list(sections) == list(want)
    for name, array in want.items():
        assert sections[name].dtype == array.dtype and sections[name].shape == array.shape
        assert sections[name].tobytes() == array.tobytes(), name

    path = tmp_path / "replay.bin"
    save_checkpoint(path, {}, sections)
    _, loaded = load_checkpoint(path)
    fresh = ReplayPlugin()
    fresh.load_state_sections(loaded)
    assert fresh.memory.capacity == 30 and fresh.mix_ratio == 0.25
    assert_rows_equal(fresh.memory.items(), reference.storage)
    assert fresh.memory.items().action.dtype == np.int64
    assert fresh.memory.items().done.dtype == bool
