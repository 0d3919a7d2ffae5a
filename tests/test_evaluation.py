"""Metric records, windowed means, loggers, and the forgetting matrix."""

import io
import json
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest

from streamrl.evaluation import (
    CSV_HEADER,
    CsvLogger,
    ForgettingMatrix,
    JsonlLogger,
    MetricRecord,
    MetricsCollector,
    NonFiniteValue,
    StdoutLogger,
    WindowedScalar,
    read_metrics_csv,
    read_metrics_jsonl,
)


class CaptureLogger:
    def __init__(self):
        self.records = []
        self.closed = False

    def emit(self, record):
        self.records.append(record)

    def close(self):
        self.closed = True


# ---------------------------------------------------------------------------
# WindowedScalar
# ---------------------------------------------------------------------------


def test_windowed_mean_sequence():
    w = WindowedScalar(window=3)
    means = []
    for v in (1.0, 2.0, 3.0, 4.0):
        w.push(v)
        means.append(w.mean)
    assert means == [1.0, 1.5, 2.0, 3.0]


def test_windowed_empty_is_zero():
    assert WindowedScalar(window=5).mean == 0.0


def test_windowed_single_value():
    w = WindowedScalar(window=10)
    w.push(7.5)
    assert w.mean == 7.5
    assert len(w) == 1


def test_windowed_rejects_bad_window():
    with pytest.raises(ValueError):
        WindowedScalar(window=0)


def test_windowed_brute_force():
    rng = np.random.default_rng(0)
    values = rng.normal(size=10_000)
    window = 17
    w = WindowedScalar(window=window)
    for i, v in enumerate(values):
        w.push(v)
        tail = values[max(0, i + 1 - window) : i + 1]
        assert abs(w.mean - tail.mean()) < 1e-9


# ---------------------------------------------------------------------------
# Loggers and serialization
# ---------------------------------------------------------------------------


def test_metric_record_is_an_immutable_field_named_dataclass():
    record = MetricRecord(5, 1, "eval", "ep_return", 0.25)
    names = ["global_step", "experience_index", "phase", "metric_name", "value"]
    assert [f.name for f in fields(MetricRecord)] == names
    assert list(vars(record)) == names
    assert record == MetricRecord(global_step=5, experience_index=1, phase="eval",
                                  metric_name="ep_return", value=0.25)
    assert hash(record) == hash(MetricRecord(5, 1, "eval", "ep_return", 0.25))
    assert repr(record) == ("MetricRecord(global_step=5, experience_index=1, phase='eval', "
                            "metric_name='ep_return', value=0.25)")
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, 0)
    assert replace(record, value=0.5).value == 0.5 and record.value == 0.25
    with pytest.raises(TypeError):
        MetricRecord(5, 1, "eval", "ep_return")


def test_stdout_logger_format():
    stream = io.StringIO()
    StdoutLogger(stream).emit(MetricRecord(5, 0, "train", "loss", 0.25))
    assert stream.getvalue() == "[train exp 0 step 5] loss = 0.2500\n"


def test_jsonl_line_schema(tmp_path):
    path = tmp_path / "m.jsonl"
    logger = JsonlLogger(path)
    logger.emit(MetricRecord(5, 0, "train", "loss", 0.25))
    logger.close()
    line = path.read_text().rstrip("\n")
    assert line == (
        '{"global_step": 5, "experience_index": 0, "phase": "train", '
        '"metric_name": "loss", "value": 0.25}'
    )
    assert json.loads(line) == {
        "global_step": 5,
        "experience_index": 0,
        "phase": "train",
        "metric_name": "loss",
        "value": 0.25,
    }


def test_jsonl_lines_equal_asdict_dumps(tmp_path):
    path = tmp_path / "m.jsonl"
    records = [
        MetricRecord(0, 0, "train", "loss", -0.0),
        MetricRecord(1, 2, "eval", "eval_return", 5e-324),
        MetricRecord(7, 1, "train", "epsilon", 0.1 + 0.2),
        MetricRecord(2**62 + 1, 3, "train", "ep_return", -1.5e300),
    ]
    logger = JsonlLogger(path)
    for record in records:
        logger.emit(record)
    logger.close()
    expected = "".join(json.dumps(asdict(record)) + "\n" for record in records)
    assert path.read_bytes() == expected.encode()


JSONL_NAMES = ["loss", 'say "hi"', "back\\slash", "\u00fcber-\u03bb", "tab\there", "nul\x00",
               "line\u2028sep", "\U0001f600", ""]


def jsonl_reference(record):
    """The line JsonlLogger.emit wrote before it formatted lines itself."""
    return json.dumps(vars(record)) + "\n"


def test_jsonl_lines_equal_json_dumps_of_vars_for_every_value_and_name(tmp_path):
    values = [0.25, -0.0, 0.0, 5e-324, 1e16, 1.7976931348623157e308, 0.1 + 0.2, -1.5e-7,
              float("nan"), float("inf"), float("-inf"), 3, True, np.float64(2.5)]
    positions = [(0, 0), (2**70, 3), (-1, -2), (True, 0), (5, False)]
    records = [
        MetricRecord(step, exp, phase, name, value)
        for step, exp in positions
        for phase in ("train", "eval", 'tr"ain')
        for name in JSONL_NAMES
        for value in values
    ]
    path = tmp_path / "m.jsonl"
    logger = JsonlLogger(path)
    for record in records:
        logger.emit(record)
    logger.close()
    assert path.read_bytes() == "".join(map(jsonl_reference, records)).encode()


@pytest.mark.parametrize("record", [
    MetricRecord(np.int64(5), 0, "train", "loss", 0.5),
    MetricRecord(5, np.int64(0), "train", "loss", 0.5),
    MetricRecord(5, 0, "train", "loss", np.float32(0.5)),
    MetricRecord(5, 0, "train", "loss", None),
    MetricRecord(5, 0, ["train"], "loss", 0.5),
    MetricRecord(5, 0, "train", b"loss", 0.5),
], ids=["int64-step", "int64-experience", "float32-value", "none-value", "list-phase",
        "bytes-name"])
def test_jsonl_emit_gives_the_same_bytes_or_the_same_exception(tmp_path, record):
    try:
        want = jsonl_reference(record)
    except TypeError as err:
        want = err
    path = tmp_path / "m.jsonl"
    logger = JsonlLogger(path)
    if isinstance(want, TypeError):
        with pytest.raises(TypeError) as raised:
            logger.emit(record)
        assert str(raised.value) == str(want)
    else:
        logger.emit(record)
    logger.close()
    assert path.read_text() == ("" if isinstance(want, TypeError) else want)


def test_csv_header_and_value_repr(tmp_path):
    path = tmp_path / "m.csv"
    logger = CsvLogger(path)
    logger.emit(MetricRecord(1, 0, "eval", "ep_return", 1 / 3))
    logger.close()
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1] == f"1,0,eval,ep_return,{1 / 3!r}"


def sample_records(n, seed=0):
    rng = np.random.default_rng(seed)
    phases = ("train", "eval")
    return [
        MetricRecord(
            global_step=int(rng.integers(0, 10**6)),
            experience_index=int(rng.integers(0, 20)),
            phase=phases[int(rng.integers(0, 2))],
            metric_name=f"metric_{int(rng.integers(0, 5))}",
            value=float(rng.normal() * 10 ** int(rng.integers(-8, 9))),
        )
        for _ in range(n)
    ]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_round_trip_exact_floats(tmp_path, fmt):
    # values whose decimal forms need all 17 significant digits
    awkward = [0.1 + 0.2, 1 / 3, np.pi, 1e-300, -7.234512345123451e17]
    records = [MetricRecord(i, 0, "train", "x", v) for i, v in enumerate(awkward)]
    path = tmp_path / f"m.{fmt}"
    logger = JsonlLogger(path) if fmt == "jsonl" else CsvLogger(path)
    for r in records:
        logger.emit(r)
    logger.close()
    reader = read_metrics_jsonl if fmt == "jsonl" else read_metrics_csv
    assert reader(path) == records


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_round_trip_bulk(tmp_path, fmt):
    records = sample_records(100_000)
    path = tmp_path / f"bulk.{fmt}"
    logger = JsonlLogger(path) if fmt == "jsonl" else CsvLogger(path)
    for r in records:
        logger.emit(r)
    logger.close()
    reader = read_metrics_jsonl if fmt == "jsonl" else read_metrics_csv
    got = reader(path)
    assert len(got) == 100_000
    assert got == records


def test_jsonl_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "m.jsonl"
    record = MetricRecord(1, 2, "eval", "x", 3.0)
    path.write_text(json.dumps(record.__dict__) + "\n\n")
    assert read_metrics_jsonl(path) == [record]


# ---------------------------------------------------------------------------
# Forgetting matrix
# ---------------------------------------------------------------------------


def test_forgetting_definition():
    fm = ForgettingMatrix(2)
    fm.add_row([1.0, 0.0])
    fm.add_row([0.5, 0.8])
    assert fm.value(1, 0) == 0.5
    assert fm.forgetting(task=0, after_experience=0) == 0.0
    assert fm.forgetting(task=0, after_experience=1) == 0.5
    assert fm.forgetting(task=1, after_experience=1) == 0.0


def test_forgetting_tracks_running_peak():
    fm = ForgettingMatrix(1)
    for r in (1.0, 0.2, 0.7):
        fm.add_row([r])
    # peak so far is 1.0, so recovery to 0.7 still counts 0.3 forgetting
    assert abs(fm.forgetting(0, 2) - 0.3) < 1e-15


def test_forgetting_row_length_validated():
    fm = ForgettingMatrix(3)
    with pytest.raises(ValueError):
        fm.add_row([1.0, 2.0])


def test_forgetting_csv_round_trip(tmp_path):
    fm = ForgettingMatrix(2)
    fm.add_row([1 / 3, 0.0])
    fm.add_row([0.1, 0.93])
    path = tmp_path / "forgetting.csv"
    fm.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "after_experience,task_0,task_1"
    assert len(lines) == 3
    for j, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == str(j)
        assert [float(c) for c in cells[1:]] == fm.rows[j]


# ---------------------------------------------------------------------------
# MetricsCollector
# ---------------------------------------------------------------------------


def test_record_episode_emits_four_records():
    cap = CaptureLogger()
    mc = MetricsCollector(window=10, loggers=[cap])
    mc.global_step = 42
    mc.record_episode(2.0, 7)
    names = [r.metric_name for r in cap.records]
    assert names == ["ep_return", "ep_return_windowed", "ep_length", "ep_length_windowed"]
    assert all(r.global_step == 42 and r.phase == "train" for r in cap.records)
    assert cap.records[0].value == 2.0
    assert cap.records[2].value == 7.0


def test_collector_windowed_sequence_matches_example():
    cap = CaptureLogger()
    mc = MetricsCollector(window=3, loggers=[cap])
    for v in (1.0, 2.0, 3.0, 4.0):
        mc.record_episode(v, 1)
    windowed = [r.value for r in cap.records if r.metric_name == "ep_return_windowed"]
    assert windowed == [1.0, 1.5, 2.0, 3.0]


def test_phases_keep_separate_windows():
    mc = MetricsCollector(window=10)
    mc.record_episode(1.0, 1)
    mc.phase = "eval"
    mc.record_episode(5.0, 1)
    assert mc.windowed_mean("ep_return", phase="train") == 1.0
    assert mc.windowed_mean("ep_return", phase="eval") == 5.0


def test_reset_phase_windows_scoped_to_phase():
    mc = MetricsCollector(window=10)
    mc.record_episode(1.0, 1)
    mc.phase = "eval"
    mc.record_episode(5.0, 1)
    mc.reset_phase_windows("eval")
    assert mc.windowed_mean("ep_return", phase="eval") == 0.0
    assert mc.windowed_mean("ep_return", phase="train") == 1.0


def test_record_custom_validation():
    mc = MetricsCollector()
    with pytest.raises(NonFiniteValue):
        mc.record_custom("loss", float("nan"))
    with pytest.raises(NonFiniteValue):
        mc.record_custom("loss", float("inf"))
    with pytest.raises(ValueError):
        mc.record_custom("", 1.0)


def test_record_custom_stamps_position():
    cap = CaptureLogger()
    mc = MetricsCollector(loggers=[cap])
    mc.global_step = 9
    mc.experience_index = 3
    mc.phase = "eval"
    mc.record_custom("loss", 0.5)
    assert cap.records == [MetricRecord(9, 3, "eval", "loss", 0.5)]


def test_close_fans_out():
    caps = [CaptureLogger(), CaptureLogger()]
    mc = MetricsCollector(loggers=caps)
    mc.close()
    assert all(c.closed for c in caps)
