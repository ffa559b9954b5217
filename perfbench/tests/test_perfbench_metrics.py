"""Tests for the benchmark's percentile, step-gap and span helpers.

Standard library only; run with ``python -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from bench_metrics import StubEvent, Tracer, percentile, step_gaps, tail  # noqa: E402
from bench_report import PER_LAYER  # noqa: E402


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))  # 1..100
    t = tail(values)
    assert (t.percentile, t.value, t.beyond, t.n) == (90.0, 90.0, 10, 100)
    assert sum(v > t.value for v in values) == 10


def test_tail_ignores_input_order_and_counts_ranks():
    values = [5.0] * 15 + [1.0] * 5  # 20 samples, ties at the top
    t = tail(list(reversed(values)))
    assert t.n == 20 and t.beyond == 10
    assert t.percentile == 50.0
    assert t.value == 5.0


def test_tail_with_too_few_samples_reports_the_max():
    t = tail([3.0, 1.0, 2.0])
    assert (t.percentile, t.value, t.beyond) == (100.0, 3.0, 0)
    t = tail([float(v) for v in range(10)])
    assert t.beyond == 0 and t.value == 9.0
    t = tail([float(v) for v in range(11)])
    assert (t.value, t.beyond) == (0.0, 10)


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile([], 99) == 0.0


def ev(episode, step, arrival, reply, status=200, phase="p"):
    return StubEvent(phase, episode, step, arrival, reply, status)


def test_step_gap_pairs_reply_with_next_arrival_and_skips_first_step():
    events = [ev("e", 0, 0.0, 1.0), ev("e", 1, 1.5, 2.0), ev("e", 2, 2.25, 3.0)]
    assert step_gaps(events) == [0.5, 0.25]


def test_step_gap_uses_first_attempt_and_successful_reply():
    events = [
        ev("e", 0, 0.0, 1.0),
        ev("e", 1, 1.5, 1.6, status=503),  # first attempt of step 1 fails
        ev("e", 1, 2.5, 3.0),              # retry succeeds
        ev("e", 2, 3.25, 4.0),
    ]
    assert step_gaps(events) == [0.5, 0.25]


def test_step_gap_keeps_interleaved_episodes_apart():
    events = sorted([
        ev("a", 0, 0.0, 1.0), ev("b", 0, 0.1, 1.1),
        ev("a", 1, 1.2, 2.0), ev("b", 1, 1.6, 2.2),
        ev("b", 2, 2.3, 3.0), ev("a", 2, 2.9, 3.5),
    ], key=lambda e: e.arrival)
    gaps = sorted(round(g, 6) for g in step_gaps(events))
    assert gaps == [0.1, 0.2, 0.5, 0.9]


def test_step_gap_keeps_phases_apart():
    events = [ev("e", 0, 0.0, 1.0, phase="eval"), ev("e", 1, 5.0, 6.0, phase="soeval")]
    assert step_gaps(events) == []


def test_tracer_records_parent_and_trace_id(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", "k"):
        with tracer.span("inner", "k"):
            pass
    inner, outer = tracer.spans
    assert inner.parent == outer.id and outer.parent is None
    assert inner.trace == outer.trace == "k"
    assert outer.start <= inner.start <= inner.end <= outer.end
    tracer.dump(tmp_path / "spans.json")
    assert [s["name"] for s in json.loads((tmp_path / "spans.json").read_text())] == \
        ["inner", "outer"]


def test_benchmark_json_lists_the_reported_per_layer_metrics():
    doc = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER.items())


def test_span_summary_pairs_gateway_calls():
    from bench_report import summarize_spans

    spans = [
        {"id": 2, "parent": 1, "trace": "e/0", "name": "gateway.backend", "start": 1.0, "end": 1.5},
        {"id": 1, "parent": None, "trace": "e/0", "name": "gateway.generate",
         "start": 0.9, "end": 1.6},
        {"id": 3, "parent": None, "trace": "e/1", "name": "gateway.backend", "start": 2.0, "end": 3.0},
    ]
    events = [ev("e", 0, 1.1, 1.4), ev("e", 1, 2.1, 2.2, status=503), ev("e", 1, 2.6, 2.9)]
    summary = summarize_spans(spans, events)
    assert [round(a, 6) for a in summary["admission"]] == [0.2]
    # The retried call is left out; the other loses the 0.3 s the stub spent on it.
    assert [round(o, 6) for o in summary["client_overhead"]] == [0.2]
    assert summary["durations"]["gateway.backend"] == [0.5, 1.0]
