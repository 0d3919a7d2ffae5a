"""One end-to-end run of a workload, in a fresh process.

    python3 perfbench/child.py <spec.json>

The spec (written by run.py) holds the generated workload input, whether to
trace, and where to write the result; the child runs `streamrl run` on the
generated config. The working directory is the run's own directory, which
holds the program's output directory. The clocks start
before streamrl is imported. An untraced run wraps `RLBaseStrategy.train`,
`.evaluate` and `._fire` and the strategies' `greedy_action`, to time the
training and eval phases on the CPU clock and to run the yardstick chunks
between pieces of the program's work; a traced run also records spans (see
spans.py).
"""

import time

T0 = time.perf_counter_ns()
T0_CPU = time.process_time_ns()

import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


# A yardstick chunk runs before every REF_EVERY_ITERATIONS-th budget iteration
# and every REF_EVERY_EVAL_STEPS-th greedy eval action: every 7 to 16 ms of
# the program's own work, so a run holds hundreds of chunks. Set-up gets
# SETUP_CHUNKS chunks right after it ends, at the first train() call.
REF_EVERY_ITERATIONS = 8
REF_EVERY_EVAL_STEPS = 150
SETUP_CHUNKS = 20


class Yardstick:
    """A fixed piece of CPU work in the program's style (small float64
    matrix products through numpy, and Python tuples, lists and floats), run
    between pieces of the program's work. The shared host's speed drifts by
    tens of percent within seconds; the yardstick's CPU time, taken at the
    same moments, drifts with it, and the runner divides it out."""

    def __init__(self, numpy):
        self.w = numpy.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
        self.x = numpy.linspace(-1.0, 1.0, 32 * 64).reshape(32, 64)
        self.tanh = numpy.tanh
        self.cpu_ns = {"setup": 0, "train": 0, "eval": 0}
        self.chunks = {"setup": 0, "train": 0, "eval": 0}

    def run(self, phase: str) -> None:
        """Runs one chunk and adds its CPU time to the phase's."""
        start = time.process_time_ns()
        acc = 0.0
        for i in range(60):
            acc += float(self.tanh(self.x @ self.w)[i % 32, 0])
            acc += sum(b for _, b in [(j, j * 0.5) for j in range(8)]) * 1e-9
        self.cpu_ns[phase] += time.process_time_ns() - start
        self.chunks[phase] += 1


class PhaseClock:
    """Times train() and the evaluate() calls made inside it on this
    process's CPU clock, and runs the yardstick chunks inside them. The CPU
    times it reports leave the chunks out."""

    def __init__(self, strategy_cls, acting_classes, yardstick: Yardstick):
        self.first_train_ns = self.setup_cpu_ns = None
        self.train_cpu_ns = self.eval_cpu_ns = 0
        self.eval_steps = 0
        self.report = None
        self.iterations = self.eval_actions = 0
        train, evaluate, fire = strategy_cls.train, strategy_cls.evaluate, strategy_cls._fire

        def timed_train(strategy, *args, **kwargs):
            if self.first_train_ns is None:
                self.first_train_ns = time.perf_counter_ns()
                self.setup_cpu_ns = time.process_time_ns() - T0_CPU
                for _ in range(SETUP_CHUNKS):
                    yardstick.run("setup")
            start_cpu = time.process_time_ns()
            ref_before = sum(yardstick.cpu_ns.values())
            self.report = train(strategy, *args, **kwargs)
            self.train_cpu_ns += (time.process_time_ns() - start_cpu
                                  - (sum(yardstick.cpu_ns.values()) - ref_before))
            return self.report

        def timed_evaluate(strategy, eval_stream, n_episodes):
            start_cpu = time.process_time_ns()
            ref_before = yardstick.cpu_ns["eval"]
            results = evaluate(strategy, eval_stream, n_episodes)
            self.eval_cpu_ns += (time.process_time_ns() - start_cpu
                                 - (yardstick.cpu_ns["eval"] - ref_before))
            self.eval_steps += round(sum(r.mean_length for r in results) * n_episodes)
            return results

        def measured_fire(strategy, hook):
            if hook == "before_rollout":
                if self.iterations % REF_EVERY_ITERATIONS == 0:
                    yardstick.run("train")
                self.iterations += 1
            return fire(strategy, hook)

        def measured_greedy(greedy):
            def greedy_action(strategy, obs_batch):
                if strategy.eval_experience is not None:
                    if self.eval_actions % REF_EVERY_EVAL_STEPS == 0:
                        yardstick.run("eval")
                    self.eval_actions += 1
                return greedy(strategy, obs_batch)

            return greedy_action

        strategy_cls.train = timed_train
        strategy_cls.evaluate = timed_evaluate
        strategy_cls._fire = measured_fire
        for cls in acting_classes:
            cls.greedy_action = measured_greedy(cls.greedy_action)


def peak_rss_mib() -> float:
    """High-water resident set of this process."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    tracer = None
    if spec["trace"]:
        import spans
        import workloads

        tracer = spans.Tracer()
        tracer.begin("cli.import")
    import numpy
    import yaml
    from streamrl import cli
    from streamrl.training import RLBaseStrategy, a2c, dqn

    if tracer is not None:
        tracer.end()
        spans.instrument(tracer)
        # a span of its own, so no layer's self time includes a chunk
        tracer.wrap(Yardstick, "run", "yardstick")
    yardstick = Yardstick(numpy)
    clock = PhaseClock(RLBaseStrategy, (dqn.DqnStrategy, a2c.A2cStrategy), yardstick)

    rc = cli.main(["run", spec["config_file"]])
    end_ns, end_cpu_ns = time.perf_counter_ns(), time.process_time_ns()

    report = clock.report
    result = {
        "rc": rc,
        "setup_wall_s": (clock.first_train_ns - T0) / 1e9 if clock.first_train_ns else None,
        "setup_cpu_s": clock.setup_cpu_ns / 1e9 if clock.setup_cpu_ns else None,
        "run_s": (end_ns - T0) / 1e9,
        "run_cpu_s": (end_cpu_ns - T0_CPU - sum(yardstick.cpu_ns.values())) / 1e9,
        "train_cpu_s": clock.train_cpu_ns / 1e9,
        "eval_cpu_s": clock.eval_cpu_ns / 1e9,
        "yardstick_cpu_ns": yardstick.cpu_ns,
        "yardstick_chunks": yardstick.chunks,
        "eval_env_steps": clock.eval_steps,
        "peak_rss_mib": peak_rss_mib(),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "pyyaml": yaml.__version__},
    }
    if report is not None:
        result["train_env_steps"] = report.total_env_steps
        result["experiences"] = [
            {"env_steps": e.env_steps, "updates_applied": e.updates_applied,
             "updates_skipped": e.updates_skipped, "episodes": e.episodes_completed}
            for e in report.experiences
        ]
        result["eval_returns"] = [
            [r.mean_return if math.isfinite(r.mean_return) else repr(r.mean_return) for r in row]
            for row in report.evals
        ]
    if tracer is not None:
        out = Path(workloads.OUTPUT_DIR)
        for key, name in (("jsonl_bytes", "metrics.jsonl"), ("checkpoint_bytes", "checkpoint.bin")):
            result[key] = (out / name).stat().st_size if (out / name).exists() else 0
        tracer.write(spec["span_file"])
    Path(spec["result_file"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
