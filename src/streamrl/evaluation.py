"""Metrics collection and pluggable loggers.

Every recorded value becomes a MetricRecord; loggers render records as
human-readable stdout lines, JSONL (one object per line, exact field names),
or RFC-4180 CSV. Episode returns and lengths additionally flow through
window averages. The ForgettingMatrix accumulates per-task eval returns row
by row as training proceeds.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from collections import deque
from dataclasses import dataclass

from .checks import count

CSV_HEADER = ["global_step", "experience_index", "phase", "metric_name", "value"]


class NonFiniteValue(ValueError):
    """A metric value was NaN or infinite."""


class MalformedMetrics(ValueError):
    """A metrics.jsonl line is not one JSON record of the MetricRecord fields."""


@dataclass(frozen=True, init=False)
class MetricRecord:
    global_step: int
    experience_index: int
    phase: str  # "train" | "eval"
    metric_name: str
    value: float

    def __init__(self, global_step, experience_index, phase, metric_name, value):
        # one dict update, not the frozen dataclass's object.__setattr__ per field
        self.__dict__.update(global_step=global_step, experience_index=experience_index,
                             phase=phase, metric_name=metric_name, value=value)


class WindowedScalar:
    """Arithmetic mean over the last `window` pushed values."""

    def __init__(self, window: int = 10):
        self.window = count(window, "window")
        self._values: deque[float] = deque(maxlen=int(window))

    def push(self, value: float) -> None:
        self._values.append(float(value))

    @property
    def mean(self) -> float:
        if not self._values:
            return 0.0
        return sum(self._values) / len(self._values)

    def __len__(self) -> int:
        return len(self._values)


class ForgettingMatrix:
    """R[j][i] = mean eval return on task i after training experience j."""

    def __init__(self, n_eval_tasks: int):
        self.n_eval_tasks = count(n_eval_tasks, "n_eval_tasks")
        self.rows: list[list[float]] = []

    def add_row(self, returns) -> None:
        row = [float(r) for r in returns]
        if len(row) != self.n_eval_tasks:
            raise ValueError(f"row has {len(row)} entries, expected {self.n_eval_tasks}")
        self.rows.append(row)

    def value(self, after_experience: int, task: int) -> float:
        return self.rows[after_experience][task]

    def forgetting(self, task: int, after_experience: int) -> float:
        """max over j' <= j of R[j'][task] minus R[j][task]."""
        best = max(row[task] for row in self.rows[: after_experience + 1])
        return best - self.rows[after_experience][task]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["after_experience"] + [f"task_{i}" for i in range(self.n_eval_tasks)]
            )
            for j, row in enumerate(self.rows):
                writer.writerow([j] + [repr(v) for v in row])


# ---------------------------------------------------------------------------
# Loggers
# ---------------------------------------------------------------------------


class StdoutLogger:
    def __init__(self, stream=None):
        self._stream = stream or sys.stdout

    def emit(self, record: MetricRecord) -> None:
        print(
            f"[{record.phase} exp {record.experience_index} step {record.global_step}] "
            f"{record.metric_name} = {record.value:.4f}",
            file=self._stream,
        )

    def close(self) -> None:
        pass


class JsonlLogger:
    def __init__(self, path):
        self._fh = open(path, "w")
        # (phase, metric_name) -> the JSON text between the position fields and the value
        self._middles: dict[tuple, str] = {}

    def emit(self, record: MetricRecord) -> None:
        """One line, byte for byte json.dumps(vars(record)): vars() is the
        record's field dict in field order, and json.dumps writes an int with
        int.__repr__ and a finite float with float.__repr__, which round-trips
        exactly. Anything else (NaN, inf, bool, numpy scalars, names that are
        not str) goes through json.dumps itself."""
        step, exp, value = record.global_step, record.experience_index, record.value
        key = (record.phase, record.metric_name)
        if (type(value) is float and math.isfinite(value) and type(step) is int
                and type(exp) is int and type(key[0]) is str and type(key[1]) is str):
            middle = self._middles.get(key)
            if middle is None:
                middle = self._middles[key] = (
                    f', "phase": {json.dumps(key[0])}, "metric_name": {json.dumps(key[1])}, "value": '
                )
            self._fh.write(f'{{"global_step": {step}, "experience_index": {exp}{middle}{value!r}}}\n')
        else:
            self._fh.write(json.dumps(vars(record)) + "\n")

    def close(self) -> None:
        self._fh.close()


class CsvLogger:
    def __init__(self, path):
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(CSV_HEADER)

    def emit(self, record: MetricRecord) -> None:
        self._writer.writerow(
            [
                record.global_step,
                record.experience_index,
                record.phase,
                record.metric_name,
                repr(record.value),
            ]
        )

    def close(self) -> None:
        self._fh.close()


# the JSON types of each field as JsonlLogger writes it (a bool is no int)
JSONL_FIELD_TYPES = {"global_step": (int,), "experience_index": (int,), "phase": (str,),
                     "metric_name": (str,), "value": (float, int)}


def read_metrics_jsonl(path) -> list[MetricRecord]:
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.read().split("\n")  # the lines iterating fh gives, whole file decoded first
        except UnicodeDecodeError as err:
            raise MalformedMetrics(f"{path}: not UTF-8 text: {err}") from err
    records = []
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                record = MetricRecord(**json.loads(line))
                for name, types in JSONL_FIELD_TYPES.items():
                    if type(getattr(record, name)) not in types:
                        raise TypeError(f"{name} {getattr(record, name)!r} is no {types[0].__name__}")
            except (ValueError, TypeError) as err:  # not JSON, not a record's fields or types
                raise MalformedMetrics(f"{path}: line {number} is no metric record: {err}") from err
            records.append(record)
    return records


def read_metrics_csv(path) -> list[MetricRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            records.append(
                MetricRecord(
                    global_step=int(row["global_step"]),
                    experience_index=int(row["experience_index"]),
                    phase=row["phase"],
                    metric_name=row["metric_name"],
                    value=float(row["value"]),
                )
            )
    return records


class MetricsCollector:
    """Tracks position in the run (step/experience/phase) and fans records out.

    record_episode pushes raw and windowed episode return/length; the windows
    are kept per phase, and the eval windows restart whenever a new eval
    experience begins so returns from different tasks don't mix.
    """

    def __init__(self, window: int = 10, loggers=()):
        self.window = count(window, "window")
        self.loggers = list(loggers)
        self.global_step = 0
        self.experience_index = 0
        self.phase = "train"
        self._windows: dict[tuple[str, str], WindowedScalar] = {}

    def _window(self, name: str) -> WindowedScalar:
        key = (self.phase, name)
        if key not in self._windows:
            self._windows[key] = WindowedScalar(self.window)
        return self._windows[key]

    def reset_phase_windows(self, phase: str) -> None:
        for key in [k for k in self._windows if k[0] == phase]:
            del self._windows[key]

    def _emit(self, name: str, value: float) -> None:
        record = MetricRecord(
            self.global_step, self.experience_index, self.phase, name, float(value)
        )
        for logger in self.loggers:
            logger.emit(record)

    def record_episode(self, episode_return: float, length: int) -> None:
        ret_window = self._window("ep_return")
        len_window = self._window("ep_length")
        ret_window.push(episode_return)
        len_window.push(length)
        self._emit("ep_return", episode_return)
        self._emit("ep_return_windowed", ret_window.mean)
        self._emit("ep_length", length)
        self._emit("ep_length_windowed", len_window.mean)

    def record_custom(self, name: str, value: float) -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        if not math.isfinite(value):
            raise NonFiniteValue(f"metric {name!r} got non-finite value {value!r}")
        self._emit(name, value)

    def windowed_mean(self, name: str, phase: str | None = None) -> float:
        key = (phase or self.phase, name)
        window = self._windows.get(key)
        return window.mean if window else 0.0

    def close(self) -> None:
        for logger in self.loggers:
            logger.close()
