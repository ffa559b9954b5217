"""Turns rounds and traced children into the reported metrics."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict

from bench_metrics import median, percentile, tail

#: Per-layer metrics and their units; BENCHMARK.json lists the same names.
PER_LAYER = {
    # workload-level figures from the untraced CLI round of a --trace 1 run
    "steps_per_s": "steps/s",
    "rollout_samples_per_s": "samples/s",
    "cluster_cells_per_s": "cells/s",
    "sweep_steps_per_s": "steps/s",
    "stability_mismatch_cells": "count",
    "failed_ops_ratio": "ratio",
    # cli
    "cli.import_s": "s",
    "stats.import_s": "s",
    # gateway; the counts are the endpoint's, per round
    "gateway.prepare_input_us": "us",
    "gateway.generate_ms.p50": "ms",
    "gateway.generate_ms.p99": "ms",
    "gateway.backend_ms": "ms",
    "gateway.client_overhead_ms": "ms",
    "gateway.admission_wait_ms": "ms",
    "gateway.calls": "count",
    "gateway.retries": "count",
    "gateway.connections_per_call": "ratio",
    "gateway.request_bytes_per_call": "bytes",
    "gateway.max_in_flight_seen": "count",
    "gateway.max_open_connections": "count",
    "gateway.stub_cpu_share": "ratio",
    # store
    "store.append_us": "us",
    "store.load_episodes_ms": "ms",
    "store.writer_open_ms": "ms",
    "store.load_run_ms": "ms",
    "store.record_bytes_per_step": "bytes",
    # dialects
    "dialects.parse_us.xml-toolcall": "us",
    "dialects.parse_us.thought-action": "us",
    "dialects.parse_us.plain-json": "us",
    "dialects.render_history_us": "us",
    # evaluate
    "evaluate.evaluate_parsed_us": "us",
    "evaluate.aggregate_ms": "ms",
    # semionline
    "semionline.build_sweep_grid_s": "s",
    "semionline.mixed_history_us": "us",
    "semionline.sweep_setting_ms": "ms",
    "semionline.pool_load_ms": "ms",
    # decisions
    "decisions.build_distribution_ms.spatial": "ms",
    "decisions.build_distribution_ms.text": "ms",
    "decisions.build_distribution_ms.categorical": "ms",
    "decisions.cells": "count",
    # rewards, judging, stats
    "rewards.group_advantages_us": "us",
    "judging.judge_case_ms": "ms",
    "stats.correlation_report_ms": "ms",
    # synth
    "synth.make_benchmark_file_s": "s",
    # tracing
    "trace.overhead_ratio": "ratio",
}

#: per-layer metric -> (span name, scale) for medians of span durations
SPAN_METRICS = {
    "gateway.prepare_input_us": ("gateway.prepare_input", 1e6),
    "gateway.backend_ms": ("gateway.backend", 1e3),
    "store.append_us": ("store.append", 1e6),
    "store.load_episodes_ms": ("store.load_episodes", 1e3),
    "store.writer_open_ms": ("store.writer_open", 1e3),
    "store.load_run_ms": ("store.load_run", 1e3),
    "dialects.parse_us.xml-toolcall": ("dialects.parse.xml-toolcall", 1e6),
    "dialects.parse_us.thought-action": ("dialects.parse.thought-action", 1e6),
    "dialects.parse_us.plain-json": ("dialects.parse.plain-json", 1e6),
    "dialects.render_history_us": ("dialects.render_history.probe", 1e6),
    "evaluate.evaluate_parsed_us": ("evaluate.evaluate_parsed.probe", 1e6),
    "evaluate.aggregate_ms": ("evaluate.aggregate", 1e3),
    "semionline.build_sweep_grid_s": ("semionline.build_sweep_grid", 1.0),
    "semionline.mixed_history_us": ("semionline.mixed_history", 1e6),
    "semionline.sweep_setting_ms": ("semionline.sweep_setting", 1e3),
    "semionline.pool_load_ms": ("semionline.pool_load", 1e3),
    "decisions.build_distribution_ms.spatial": ("decisions.build_distribution.spatial", 1e3),
    "decisions.build_distribution_ms.text": ("decisions.build_distribution.text", 1e3),
    "decisions.build_distribution_ms.categorical":
        ("decisions.build_distribution.categorical", 1e3),
    "judging.judge_case_ms": ("judging.judge_case", 1e3),
    "stats.correlation_report_ms": ("stats.correlation_report", 1e3),
}


def summarize_spans(spans: list[dict], events: list) -> dict:
    """Durations per span name, plus the two gateway differences per call.

    Admission wait is a generate span minus the backend spans inside it.
    Client overhead is a backend span minus the model side's service time:
    the mock responder's span inside it, or else the service time of the one
    request the stub saw during it, for calls answered on the first attempt
    (both sides read the same monotonic clock).
    """
    durations: dict[str, list[float]] = defaultdict(list)
    backend_in: dict[int, float] = defaultdict(float)
    service_in: dict[int, float] = {}
    generate, backend = [], []
    for s in spans:
        seconds = s["end"] - s["start"]
        durations[s["name"]].append(seconds)
        if s["name"] == "gateway.backend":
            backend.append((s["id"], s["start"], s["end"]))
            if s["parent"] is not None:
                backend_in[s["parent"]] += seconds
        elif s["name"] == "gateway.generate":
            generate.append((s["id"], seconds))
        elif s["name"] == "gateway.service":
            service_in[s["parent"]] = service_in.get(s["parent"], 0.0) + seconds
    requests = sorted((e.arrival, e.reply, e.status) for e in events)
    arrivals = [r[0] for r in requests]
    overhead = []
    for span_id, start, end in backend:
        if span_id in service_in:
            overhead.append(end - start - service_in[span_id])
            continue
        inside = requests[bisect_left(arrivals, start):bisect_right(arrivals, end)]
        if len(inside) == 1 and inside[0][2] == 200:
            overhead.append((end - start) - (inside[0][1] - inside[0][0]))
    return {"durations": dict(durations),
            "admission": [d - backend_in[i] for i, d in generate],
            "client_overhead": overhead}


def _cmds(m) -> list:
    return [c for r in m.rounds for c in r["cmds"]]


def _round_median(m, key: str) -> float:
    return median([r[key] for r in m.rounds if key in r])


def workload_figures(m) -> dict[str, float]:
    """Workload-level figures, medians over rounds; zero where the workload has none."""
    gaps = [g for r in m.rounds for g in r.get("gaps", [])]
    steps_per_s = [r["steps"] / r["wall_s"] for r in m.rounds if "steps" in r]
    return {
        "steps_per_s": median(steps_per_s),
        "step_gap_p50_ms": median(gaps) * 1e3,
        "step_gap_p99_ms": percentile(gaps, 99) * 1e3,
        "step_gap_samples": float(len(gaps)),
        "rollout_samples_per_s": _round_median(m, "rollout_samples_per_s"),
        "cluster_cells_per_s": _round_median(m, "cluster_cells_per_s"),
        "sweep_steps_per_s": _round_median(m, "sweep_steps_per_s"),
        "stability_mismatch_cells": _round_median(m, "stability_mismatch_cells"),
    }


def endpoint_counts(m) -> dict[str, float]:
    calls = _round_median(m, "calls")
    per_call = (lambda key: _round_median(m, key) / calls if calls else 0.0)
    return {
        "gateway.calls": calls,
        "gateway.retries": _round_median(m, "retries"),
        "gateway.connections_per_call": per_call("connections"),
        "gateway.request_bytes_per_call": per_call("request_bytes"),
        "gateway.max_in_flight_seen": max([r.get("max_in_flight", 0) for r in m.rounds]),
        "gateway.max_open_connections": max(
            [r.get("max_open_connections", 0) for r in m.rounds]),
        "gateway.stub_busy_cpu_s": _round_median(m, "stub_cpu_s"),
        "gateway.stub_cpu_share": median([r["stub_cpu_s"] / r["wall_s"] for r in m.rounds
                                          if "stub_cpu_s" in r]),
    }


def end_to_end(m):
    cmd_walls = [c.wall_s for c in _cmds(m)]
    t = tail(cmd_walls)
    metrics = {
        "setup_s": (median(m.setup_s), "s"),
        "wall_s": (_round_median(m, "wall_s"), "s"),
        "cmd_p50_s": (median(cmd_walls), "s"),
        "peak_rss_mb": (max(c.rss_mb for c in _cmds(m)), "MB"),
    }
    notes = {k: round(v, 6) for k, v in {**workload_figures(m), **endpoint_counts(m)}.items()}
    # Reported, not gated: with tens of commands per run the rule's percentile
    # is at or below the median, or undefined.
    notes["cmd_tail_s"] = (f"{t.value:.6g} s, p{t.percentile:.0f} of {t.n} commands "
                           f"with {t.beyond} beyond" if t.beyond else
                           f"{t.value:.6g} s, max of {t.n} commands (too few for 10 beyond)")
    notes["round_walls_s"] = [round(r["wall_s"], 3) for r in m.rounds]
    notes["samples"] = {"setups": len(m.setup_s), "rounds": len(m.rounds),
                        "commands": len(cmd_walls),
                        "step_gaps": int(notes["step_gap_samples"])}
    return metrics, notes


def per_layer(m):
    durations: dict[str, list[float]] = defaultdict(list)
    admission, overhead, ratios = [], [], []
    for c in m.children:
        for name, values in c["durations"].items():
            durations[name].extend(values)
        admission += c["admission"]
        overhead += c["client_overhead"]
        ratios += [t / p - 1 for p, t in zip(c["plain_s"], c["traced_s"])]

    values = {**workload_figures(m), **endpoint_counts(m)}
    values["failed_ops_ratio"] = 0.0  # filled in by the caller's ledger
    for metric, (span, scale) in SPAN_METRICS.items():
        values[metric] = median(durations.get(span, [])) * scale
    generate = durations.get("gateway.generate", [])
    values["gateway.generate_ms.p50"] = median(generate) * 1e3
    values["gateway.generate_ms.p99"] = percentile(generate, 99) * 1e3
    values["gateway.admission_wait_ms"] = median(admission) * 1e3
    values["gateway.client_overhead_ms"] = median(overhead) * 1e3
    values["store.record_bytes_per_step"] = _round_median(m, "record_bytes_per_step")
    values["decisions.cells"] = _round_median(m, "cells")
    pipeline_adv = durations.get("rewards.group_advantages")
    values["rewards.group_advantages_us"] = median(
        pipeline_adv or durations.get("rewards.group_advantages.probe", [])) * 1e6
    values["cli.import_s"] = median(m.imports["cli"])
    values["stats.import_s"] = median(m.imports["stats"])
    values["synth.make_benchmark_file_s"] = median(m.make_fixture_s)
    values["trace.overhead_ratio"] = median(ratios)

    metrics = {name: (float(values[name]), unit) for name, unit in PER_LAYER.items()}
    notes = {k: round(v, 6) for k, v in values.items() if k not in PER_LAYER}
    notes["samples"] = {
        "setups": len(m.setup_s), "cli_rounds": len(m.rounds),
        "traced_pairs": len(ratios), "spans": sum(len(v) for v in durations.values()),
        "backend_calls": len(durations.get("gateway.backend", [])),
        "client_overhead_calls": len(overhead),
    }
    return metrics, notes
