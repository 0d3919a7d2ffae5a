"""Span tracing of streamrl from outside the package, and the per-layer
metrics derived from the spans.

The child process of a traced run calls `instrument()`, which replaces public
functions of each streamrl module with wrappers that record a span (id,
parent id, name, start ns, end ns) per call. Spans stay in memory and are
written out once, after the run. `layer_metrics()` turns a written span file
into the per-layer metrics listed in BENCHMARK.json.

In parallel mode the env steps run inside forked worker processes, whose spans
are never written, so parallel env work is seen only as time inside
`vec_env.step`; `envs.step.*` and `core_env.terminal_obs.*` then count only
the serial eval envs.
"""

from __future__ import annotations

import functools
import json
import math
import time


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counters: dict[str, int] = {}
        self._stack: list[tuple[int, str, int]] = []
        self._next_id = 0

    def begin(self, name: str) -> None:
        sid = self._next_id
        self._next_id += 1
        self._stack.append((sid, name, time.perf_counter_ns()))

    def end(self) -> None:
        end = time.perf_counter_ns()
        sid, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((sid, parent, name, start, end))

    def current(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr (a function or method) by a span-recording wrapper."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        setattr(owner, attr, traced)

    def write(self, path) -> None:
        names = sorted({span[2] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[sid, parent, index[name], start, end] for sid, parent, name, start, end in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows, "counters": self.counters}, fh)


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every measured streamrl module."""
    from streamrl import cli, envs, evaluation, nn, plugins, vec_env
    from streamrl.training import a2c, base, dqn

    targets = [
        (cli, "load_config", "cli.load_config"),
        (envs.CartPole, "step", "envs.step"),
        (envs.GridWorld, "step", "envs.step"),
        # serialize/deserialize are looked up in the modules that call them
        (vec_env, "serialize_obs", "core_env.terminal_obs"),
        (base, "deserialize_obs", "core_env.terminal_obs"),
        (vec_env.VectorizedEnv, "step", "vec_env.step"),
        (vec_env.VectorizedEnv, "__init__", "vec_env.lifecycle"),
        (vec_env.VectorizedEnv, "reset", "vec_env.lifecycle"),
        (vec_env.VectorizedEnv, "close", "vec_env.lifecycle"),
        (nn.Mlp, "forward", "nn.forward"),
        (nn.Mlp, "backward", "nn.backward"),
        (nn.Adam, "step", "nn.adam"),
        (nn.Mlp, "flatten", "nn.param_copy"),
        (nn.Mlp, "unflatten", "nn.param_copy"),
        (nn.Mlp, "copy_params_from", "nn.param_copy"),
        (base.RLBaseStrategy, "evaluate", "training.evaluate"),
        (base.RLBaseStrategy, "collect_rollout", "training.rollout"),
        (plugins.ReplayPlugin, "after_rollout", "plugins.replay.after_rollout"),
        (plugins.EwcPlugin, "after_rollout", "plugins.ewc.after_rollout"),
        (plugins.EwcPlugin, "before_update", "plugins.ewc.before_update"),
        (plugins.EwcPlugin, "after_training_exp", "plugins.ewc.fisher"),
        (evaluation.MetricsCollector, "record_episode", "evaluation.emit"),
        (evaluation.MetricsCollector, "record_custom", "evaluation.emit"),
        (evaluation.JsonlLogger, "emit", "evaluation.jsonl"),
        (plugins.ReplayPlugin, "state_sections", "checkpoint.sections"),
        (plugins.EwcPlugin, "state_sections", "checkpoint.sections"),
        (cli, "save_model", "checkpoint.save"),
    ]
    for cls in (dqn.DqnStrategy, a2c.A2cStrategy):
        targets += [
            (cls, "sample_rollout_action", "training.sample_action"),
            (cls, "prepare_update_batch", "training.prepare_batch"),
            (cls, "apply_update", "training.apply_update"),
            (cls, "per_sample_loss_grad", "training.per_sample_grad"),
        ]
    for owner, attr, name in targets:
        tracer.wrap(owner, attr, name)
    _count_replay_scans(tracer, dqn.ReplayBuffer, plugins.ReplayPlugin)
    _mark_iterations(tracer, base.RLBaseStrategy, base.StrategyPlugin)


def _count_replay_scans(tracer: Tracer, buffer_cls, plugin_cls) -> None:
    """Count memory items the replay plugin scans per update, and the batch
    rows it actually replaces (rows whose transition object changed)."""
    items = buffer_cls.items

    def counted_items(buffer):
        result = items(buffer)
        if tracer.current() == "plugins.replay.before_update":
            tracer.count("replay.scanned", len(result))
        return result

    buffer_cls.items = counted_items
    tracer.wrap(plugin_cls, "before_update", "plugins.replay.before_update")
    before_update = plugin_cls.before_update

    def counted_before_update(plugin, strategy):
        batch = strategy.update_batch
        old = list(batch) if isinstance(batch, list) else None
        before_update(plugin, strategy)
        if old is not None:
            tracer.count("replay.replaced", sum(a is not b for a, b in zip(old, batch)))

    plugin_cls.before_update = counted_before_update


def _mark_iterations(tracer: Tracer, strategy_cls, plugin_cls) -> None:
    """A `training.iter` span per budget iteration, from the first
    before_rollout hook to the last after_update hook, via two marker
    plugins put around the run's own plugin list."""

    class IterBegin(plugin_cls):
        def before_rollout(self, strategy) -> None:
            tracer.begin("training.iter")

    class IterEnd(plugin_cls):
        def after_update(self, strategy) -> None:
            tracer.end()

    train = strategy_cls.train

    def marked_train(strategy, scenario, plugins=None, *args, **kwargs):
        own = list(plugins) if plugins is not None else list(strategy.plugins)
        return train(strategy, scenario, [IterBegin(), *own, IterEnd()], *args, **kwargs)

    strategy_cls.train = marked_train


# ---------------------------------------------------------------------------
# Derivation, run by the benchmark runner on a written span file.
# ---------------------------------------------------------------------------

_MS, _COUNT, _RATIO, _BYTES = "ms", "count", "ratio", "B"
PER_LAYER = {  # name -> unit, in the order of the README's prediction table
    "cli.import_ms": _MS,
    "cli.load_config_ms": _MS,
    "envs.step.calls": _COUNT,
    "envs.step.ms": _MS,
    "core_env.terminal_obs.calls": _COUNT,
    "core_env.terminal_obs.ms": _MS,
    "vec_env.step.calls": _COUNT,
    "vec_env.step.self_ms": _MS,
    "vec_env.lifecycle_ms": _MS,
    "nn.forward.act.calls": _COUNT,
    "nn.forward.act.ms": _MS,
    "nn.forward.learn.calls": _COUNT,
    "nn.forward.learn.ms": _MS,
    "nn.forward.eval.calls": _COUNT,
    "nn.forward.eval.ms": _MS,
    "nn.backward.calls": _COUNT,
    "nn.backward.ms": _MS,
    "nn.adam.ms": _MS,
    "nn.param_copy.calls": _COUNT,
    "nn.param_copy.ms": _MS,
    "training.iter.count": _COUNT,
    "training.iter.p50_ms": _MS,
    "training.iter.p99_ms": _MS,
    "training.rollout.self_ms": _MS,
    "training.sample_action.self_ms": _MS,
    "training.prepare_batch.self_ms": _MS,
    "training.apply_update.self_ms": _MS,
    "training.evaluate.self_ms": _MS,
    "training.updates.applied_frac": _RATIO,
    "plugins.replay.after_rollout.ms": _MS,
    "plugins.replay.before_update.ms": _MS,
    "plugins.replay.rows_per_scanned": _RATIO,
    "plugins.ewc.after_rollout.ms": _MS,
    "plugins.ewc.before_update.ms": _MS,
    "plugins.ewc.fisher.ms": _MS,
    "plugins.ewc.fisher.samples": _COUNT,
    "evaluation.records": _COUNT,
    "evaluation.emit.ms": _MS,
    "evaluation.jsonl_bytes": _BYTES,
    "checkpoint.save.ms": _MS,
    "checkpoint.bytes": _BYTES,
    "trace.overhead_frac": _RATIO,  # computed by the runner from run_norm_s
}

PARAM_COPY = "nn.param_copy"
FORWARD_PHASE = {
    "training.sample_action": "act",
    "training.apply_update": "learn",
    "training.evaluate": "eval",
}
NS_PER_MS = 1e6


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * q / 100))
    return float(sorted_values[rank - 1])


def layer_metrics(span_file, run: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run. `run` is the child's result
    (for the update counts and artifact sizes the spans do not carry)."""
    with open(span_file) as fh:
        data = json.load(fh)
    names = data["names"]
    spans = sorted(data["spans"])  # by id, i.e. begin order: parents first
    name_of, phase_of = {}, {}
    covered: dict[int, int] = {}
    for sid, parent, name_idx, start, end in spans:
        name = names[name_idx]
        name_of[sid] = name
        phase_of[sid] = FORWARD_PHASE.get(name) or phase_of.get(parent)
        covered[parent] = covered.get(parent, 0) + (end - start)

    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    iters = []
    fisher_samples = 0
    for sid, parent, name_idx, start, end in spans:
        name = name_of[sid]
        dur = end - start
        if name == PARAM_COPY and name_of.get(parent) == PARAM_COPY:
            continue  # copy_params_from calls flatten/unflatten itself
        if name == "nn.forward":
            name = f"nn.forward.{phase_of[sid] or 'other'}"
        if name == "training.iter":
            iters.append(dur)
        if name == "training.per_sample_grad" and name_of.get(parent) == "plugins.ewc.fisher":
            fisher_samples += 1
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + dur - covered.get(sid, 0)
    iters.sort()

    def ms(table, name):
        return table.get(name, 0) / NS_PER_MS

    counters = data["counters"]
    scanned = counters.get("replay.scanned", 0)
    budget = sum(e["updates_applied"] + e["updates_skipped"] for e in run["experiences"])
    applied = sum(e["updates_applied"] for e in run["experiences"])
    metrics = {
        "cli.import_ms": ms(total, "cli.import"),
        "cli.load_config_ms": ms(total, "cli.load_config"),
        "envs.step.calls": calls.get("envs.step", 0),
        "envs.step.ms": ms(total, "envs.step"),
        "core_env.terminal_obs.calls": calls.get("core_env.terminal_obs", 0),
        "core_env.terminal_obs.ms": ms(total, "core_env.terminal_obs"),
        "vec_env.step.calls": calls.get("vec_env.step", 0),
        "vec_env.step.self_ms": ms(self_ns, "vec_env.step"),
        "vec_env.lifecycle_ms": ms(total, "vec_env.lifecycle"),
    }
    for phase in ("act", "learn", "eval"):
        metrics[f"nn.forward.{phase}.calls"] = calls.get(f"nn.forward.{phase}", 0)
        metrics[f"nn.forward.{phase}.ms"] = ms(total, f"nn.forward.{phase}")
    metrics.update({
        "nn.backward.calls": calls.get("nn.backward", 0),
        "nn.backward.ms": ms(total, "nn.backward"),
        "nn.adam.ms": ms(total, "nn.adam"),
        "nn.param_copy.calls": calls.get(PARAM_COPY, 0),
        "nn.param_copy.ms": ms(total, PARAM_COPY),
        "training.iter.count": len(iters),
        "training.iter.p50_ms": percentile(iters, 50) / NS_PER_MS,
        "training.iter.p99_ms": percentile(iters, 99) / NS_PER_MS,
        "training.rollout.self_ms": ms(self_ns, "training.rollout"),
        "training.sample_action.self_ms": ms(self_ns, "training.sample_action"),
        "training.prepare_batch.self_ms": ms(self_ns, "training.prepare_batch"),
        "training.apply_update.self_ms": ms(self_ns, "training.apply_update"),
        "training.evaluate.self_ms": ms(self_ns, "training.evaluate"),
        "training.updates.applied_frac": applied / budget if budget else 0.0,
        "plugins.replay.after_rollout.ms": ms(total, "plugins.replay.after_rollout"),
        "plugins.replay.before_update.ms": ms(total, "plugins.replay.before_update"),
        "plugins.replay.rows_per_scanned": (
            counters.get("replay.replaced", 0) / scanned if scanned else 0.0
        ),
        "plugins.ewc.after_rollout.ms": ms(total, "plugins.ewc.after_rollout"),
        "plugins.ewc.before_update.ms": ms(total, "plugins.ewc.before_update"),
        "plugins.ewc.fisher.ms": ms(total, "plugins.ewc.fisher"),
        "plugins.ewc.fisher.samples": fisher_samples,
        "evaluation.records": calls.get("evaluation.jsonl", 0),
        "evaluation.emit.ms": ms(total, "evaluation.emit"),
        "evaluation.jsonl_bytes": run.get("jsonl_bytes", 0),
        "checkpoint.save.ms": ms(total, "checkpoint.sections") + ms(total, "checkpoint.save"),
        "checkpoint.bytes": run.get("checkpoint_bytes", 0),
    })
    return metrics
