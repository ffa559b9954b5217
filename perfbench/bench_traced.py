"""In-process re-enactment of a workload's CLI commands, with or without spans.

Run as a child process: ``python3 bench_traced.py <job.json> <result.json>``.
It calls trajkit's public functions in the order the CLI does and passes
pass-through wrappers as their arguments: a timing proxy for the backend
given to ``ModelGateway``, a timed gateway, a timed ``RunWriter`` and a
timed dialect. The package itself is not patched. Without a tracer
the same code runs on the bare objects, which gives the untraced wall time
the tracing overhead is measured against; the two alternate in one process.
Spans stay in memory and are written to ``spans.json`` in the job's
directory once the run has finished.

The child also times a fixed set of direct calls ("probes") into public
functions that the pipelines only reach from inside the package.
"""

from __future__ import annotations

import json
import random
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
from bench_metrics import Tracer

from trajkit import synth
from trajkit.actions import Action, ActionKind
from trajkit.cli import make_noisy_responder
from trajkit.decisions import (CATEGORICAL_KINDS, SPATIAL_KINDS, TEXT_KINDS, ExecutionSample,
                               build_distribution, diversity, stability)
from trajkit.dialects import ReferenceEntry, get_dialect
from trajkit.evaluate import (DEFAULT_POLICY, aggregate, aggregate_by_benchmark,
                              evaluate_benchmark_offline, evaluate_parsed)
from trajkit.gateway import (DEFAULT_SEEDS, EndpointConfig, HttpBackend, MockBackend,
                             ModelGateway, SamplingConfig, prepare_input)
from trajkit.judging import ConsistencyCase, judge_case, load_cases
from trajkit.rewards import group_advantages
from trajkit.semionline import (ArtifactPool, OnPolicyArtifact, SweepConfig, build_sweep_grid,
                                mixed_history, pooled_benchmark, run_sweep_setting,
                                soeval_benchmark)
from trajkit.stats import (Contingency2x2, contingency_stats, correlation_report,
                           multi_seed_summary, wilson_interval)
from trajkit.store import RunRecord, RunWriter, load_episodes, load_run, prediction_fields, step_key


class Layers:
    """Hands out bare objects, or timing wrappers around them when tracing."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer

    def span(self, name: str, trace: str | None = None):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, trace)

    def backend(self, inner):
        return inner if self.tracer is None else TimedBackend(inner, self.tracer)

    def gateway(self, inner):
        return inner if self.tracer is None else TimedGateway(inner, self.tracer)

    def writer(self, inner):
        return inner if self.tracer is None else TimedWriter(inner, self.tracer)

    def dialect(self, inner):
        return inner if self.tracer is None else TimedDialect(inner, self.tracer)

    def responder(self, inner):
        """A mock backend's responder, timed as the model side's service time."""
        if self.tracer is None:
            return inner
        tracer = self.tracer

        def timed(request, seed, n):
            with tracer.span("gateway.service", request.tag):
                return inner(request, seed, n)
        return timed


class TimedBackend:
    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner, self.tracer = inner, tracer

    def complete(self, request, cfg):
        with self.tracer.span("gateway.backend", request.tag):
            return self.inner.complete(request, cfg)


class _Delegate:
    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner, self.tracer = inner, tracer

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TimedGateway(_Delegate):
    def generate(self, request, *args, **kwargs):
        with self.tracer.span("gateway.generate", request.tag):
            return self.inner.generate(request, *args, **kwargs)


class TimedWriter(_Delegate):
    def append(self, record):
        with self.tracer.span("store.append", record.key):
            return self.inner.append(record)


class TimedDialect(_Delegate):
    def parse_response(self, *args, **kwargs):
        with self.tracer.span("dialects.parse"):
            return self.inner.parse_response(*args, **kwargs)

    def render_history_entry(self, entry):
        with self.tracer.span("dialects.render_history"):
            return self.inner.render_history_entry(entry)


def judge_responder(dialect):
    """The CLI's scripted judge: echo the action named in the reasoning trace."""
    def respond(request, seed, n):
        action = dialect.parse_response(request.fixed_thought or "").action \
            or Action(ActionKind.PRESS, button="BACK")
        return [dialect.render_response(action, thought="echo", conclusion="echo")] * n
    return respond


def _episodes(job: dict, lay: Layers):
    with lay.span("store.load_episodes"):
        return load_episodes(job["fixture"]).episodes


# --- pipelines: one per workload, each mirroring that workload's CLI commands --


def replay_remote(job: dict, lay: Layers) -> None:
    """eval, soeval --mode live, soeval --mode pool over HTTP, as the CLI runs them."""
    base = get_dialect(job["dialect"])
    dialect = lay.dialect(base)
    out = Path(job["out"])
    seeds = list(DEFAULT_SEEDS)
    cfg = EndpointConfig(base_url=job["url"], model_name="mock",
                         sampling=SamplingConfig(seed=seeds[0]), max_in_flight=job["nproc"])
    for mode in ("offline", "live", "pool"):
        episodes = _episodes(job, lay)
        gateway = lay.gateway(ModelGateway(lay.backend(HttpBackend()), cfg, base.id,
                                           flags={"mode": mode, "thinking": True}))
        with lay.span("store.writer_open"):
            writer = lay.writer(RunWriter(out / mode, {"mode": mode, "dialect": base.id}))
        if mode == "offline":
            records, metrics = evaluate_benchmark_offline(
                gateway, episodes, dialect, writer=writer, seed=seeds[0], concurrency=1)
        elif mode == "live":
            records, metrics = soeval_benchmark(gateway, episodes, dialect, writer=writer,
                                                seed=seeds[0])
            ArtifactPool.from_records(records).save(out / "pool.jsonl")
        else:
            with lay.span("semionline.pool_load"):
                pool = ArtifactPool.load(out / "pool.jsonl")
            records, metrics = pooled_benchmark(gateway, episodes, dialect, pool,
                                                writer=writer, seed=seeds[0],
                                                global_seed=seeds[0])
        with lay.span("evaluate.aggregate"):
            aggregate_by_benchmark(records, episodes, DEFAULT_POLICY, metrics)
        writer.write_manifest({"mode": mode})


def _cell_class(kind) -> str:
    if kind in SPATIAL_KINDS:
        return "spatial"
    if kind in TEXT_KINDS:
        return "text"
    if kind in CATEGORICAL_KINDS:
        return "categorical"
    return "trivial"


def analytics_local(job: dict, lay: Layers) -> None:
    """rollout, cluster, sweep and stats correlation, as the CLI runs them."""
    base = get_dialect(job["dialect"])
    dialect = lay.dialect(base)
    size = job["size"]
    out = Path(job["out"])
    out.mkdir(parents=True, exist_ok=True)

    episodes = _episodes(job, lay)
    backend = MockBackend(lay.responder(make_noisy_responder(episodes, base)))
    rollouts = out / "rollouts.jsonl"
    with rollouts.open("w", encoding="utf-8") as fh:
        for round_idx, seed in enumerate(job["seed_list"]):
            cfg = EndpointConfig(sampling=SamplingConfig(n=size["samples"], seed=seed))
            gateway = lay.gateway(ModelGateway(lay.backend(backend), cfg, base.id,
                                               flags={"mode": "rollout"}))
            for ep in episodes:
                history = []
                for i, step in enumerate(ep.steps):
                    request = prepare_input(step, history, dialect)
                    raws = gateway.generate(request, round_idx=round_idx, seed=seed)
                    for j, raw in enumerate(raws):
                        parsed = dialect.parse_response(raw, step.observation.dims)
                        with lay.span("evaluate.evaluate_parsed"):
                            evaluation = evaluate_parsed(parsed, step, base)
                        rec = RunRecord(
                            key=step_key(ep.id, i, round_idx, j), episode_id=ep.id,
                            step_index=i, episode_length=len(ep), raw_response=raw,
                            **prediction_fields(parsed.action), thought=parsed.thought,
                            conclusion=parsed.conclusion, failure_reason=parsed.failure,
                            evaluation=evaluation.to_dict(), seed=seed, round=round_idx,
                            sample=j, benchmark=ep.source_benchmark)
                        with lay.span("store.record_write"):
                            fh.write(rec.to_json() + "\n")
                    history.append(ReferenceEntry(index=i, action=step.gt_action,
                                                  observation=step.observation))

    # cluster: re-parses the raw responses without screen dims, as the CLI does.
    cells: dict[str, list] = {}
    with rollouts.open(encoding="utf-8") as fh:
        for line in fh:
            r = RunRecord.from_json(line)
            sample = ExecutionSample.from_parsed(dialect.parse_response(r.raw_response),
                                                 r.seed, r.round)
            cells.setdefault(f"{r.episode_id}/{r.step_index}", []).append(sample)
    gt = {s.key: s for ep in _episodes(job, lay) for s in ep.steps}
    for key in sorted(cells):
        step = gt[key]
        with lay.span(f"decisions.build_distribution.{_cell_class(step.gt_action.kind)}"):
            dist = build_distribution(cells[key])
        diversity(dist)
        stability(dist, step.gt_action, step.gt_bbox)

    # sweep
    gateway = lay.gateway(ModelGateway(
        lay.backend(MockBackend(lay.responder(synth.make_responder(
            episodes, base, synth.history_echo_policy)))),
        EndpointConfig(), base.id, flags={"mode": "sweep"}))
    with lay.span("semionline.pool_load"):
        pool = ArtifactPool.load(job["pool"])
    sweep_cfg = SweepConfig(kappa=16.0, grid=size["grid"],
                            samples_per_pair=size["samples_per_pair"], global_seed=job["seed"])
    with lay.span("semionline.build_sweep_grid"):
        settings = build_sweep_grid(sweep_cfg)
    results = []
    for setting in settings:
        with lay.span("semionline.sweep_setting"):
            results.append(run_sweep_setting(setting, gateway, episodes, dialect, pool,
                                             DEFAULT_POLICY, sweep_cfg.global_seed))

    # stats correlation on the sweep's non-constant columns
    online = [r.exact_match for r in results]
    for name, values in (("target_mean", [r.setting.target_mean for r in results]),
                         ("realized_osr", [r.realized_osr for r in results])):
        with lay.span("stats.correlation_report"):
            correlation_report(name, values, online)


def resume_and_report(job: dict, lay: Layers) -> None:
    """eval and soeval re-invoked on complete run dirs, then the short commands."""
    base = get_dialect(job["dialect"])
    dialect = lay.dialect(base)
    cfg = EndpointConfig(base_url=job["url"], model_name="mock", max_in_flight=job["nproc"])
    runs = job["run_dirs"]
    for mode, run in (("offline", runs["eval"]), ("live", runs["soeval"])):
        episodes = _episodes(job, lay)
        gateway = lay.gateway(ModelGateway(lay.backend(HttpBackend()), cfg, base.id))
        # Opened without a config, so this does not depend on the CLI's run-config fields.
        with lay.span("store.writer_open"):
            writer = lay.writer(RunWriter(run))
        if mode == "offline":
            records, metrics = evaluate_benchmark_offline(gateway, episodes, dialect,
                                                          writer=writer, concurrency=1)
        else:
            records, metrics = soeval_benchmark(gateway, episodes, dialect, writer=writer)
        with lay.span("evaluate.aggregate"):
            aggregate_by_benchmark(records, episodes, DEFAULT_POLICY, metrics)

    # report
    with lay.span("store.load_run"):
        records, _, _ = load_run(runs["eval"])
    episodes = _episodes(job, lay)
    with lay.span("evaluate.aggregate"):
        aggregate(records, episodes, DEFAULT_POLICY, None)
    # ingest
    _episodes(job, lay)
    # reward --groups
    for line in Path(job["groups"]).read_text(encoding="utf-8").splitlines():
        rewards = json.loads(line)["rewards"]
        with lay.span("rewards.group_advantages"):
            group_advantages(rewards)
    judges = [(f"judge{j}", lay.gateway(ModelGateway(
        lay.backend(MockBackend(lay.responder(judge_responder(base)))),
        EndpointConfig(sampling=SamplingConfig(n=job["size"]["judge_rollouts"])), base.id)),
        dialect) for j in range(job["size"]["judges"])]
    for case in load_cases(job["cases"]):
        with lay.span("judging.judge_case"):
            judge_case(judges, case, n=job["size"]["judge_rollouts"])
    a = job["stat_args"]
    with lay.span("stats.wilson"):
        wilson_interval(*a["wilson"])
    with lay.span("stats.contingency"):
        contingency_stats(Contingency2x2(*a["contingency"]))
    with lay.span("stats.seeds"):
        multi_seed_summary(a["seeds"])


PIPELINES = {"replay-remote": replay_remote, "analytics-local": analytics_local,
             "resume-and-report": resume_and_report}


# --- probes ------------------------------------------------------------------


def probes(job: dict, tracer: Tracer) -> None:
    """Direct calls into public functions, over every step of the workload's fixture."""
    episodes = load_episodes(job["fixture"]).episodes
    xml = get_dialect("xml-toolcall")
    pool = ArtifactPool()
    for d_id in ("xml-toolcall", "thought-action", "plain-json"):
        d = get_dialect(d_id)
        for ep in episodes:
            for step in ep.steps:
                text = d.render_response(step.gt_action, thought="probe",
                                         conclusion=f"did-{step.step_index}",
                                         dims=step.observation.dims)
                with tracer.span(f"dialects.parse.{d_id}"):
                    parsed = d.parse_response(text, step.observation.dims)
                with tracer.span("evaluate.evaluate_parsed.probe"):
                    evaluate_parsed(parsed, step, d)
                if d is xml:
                    pool.add(OnPolicyArtifact(step.key, parsed.action, parsed.thought,
                                              parsed.conclusion, text))
    for ep in episodes:
        history = []
        for i, step in enumerate(ep.steps):
            with tracer.span("gateway.prepare_input"):
                prepare_input(step, history, xml)
            entry = ReferenceEntry(index=i, action=step.gt_action,
                                   observation=step.observation)
            with tracer.span("dialects.render_history.probe"):
                xml.render_history_entry(entry)
            history.append(entry)
    rng = np.random.default_rng(job["seed"])
    for ep in episodes:
        for upto in range(1, len(ep.steps)):
            with tracer.span("semionline.mixed_history"):
                mixed_history(ep, upto, [True] * upto, pool, rng)
    r = random.Random(job["seed"])
    for _ in range(500):
        rewards = [float(r.random() < 0.5) for _ in range(8)]
        with tracer.span("rewards.group_advantages.probe"):
            group_advantages(rewards)


def fallback_probes(job: dict, tracer: Tracer) -> None:
    """Time, by direct calls on this fixture, each layer function the pipeline did not reach.

    Every per-layer time is then measured on every workload. Calls whose span
    the pipeline already recorded still run, untimed, to keep the code linear.
    """
    seen = {s.name for s in tracer.spans}

    def span(name: str):
        return nullcontext() if name in seen else tracer.span(name)

    xml = get_dialect("xml-toolcall")
    episodes = load_episodes(job["fixture"]).episodes
    run = Path(job["out"]) / "probe_run"
    writer = RunWriter(run)
    if "store.append" not in seen:
        writer = TimedWriter(writer, tracer)
    oracle = ModelGateway(MockBackend(synth.make_responder(episodes, xml, synth.oracle_policy)),
                          EndpointConfig(), xml.id)
    records, metrics = evaluate_benchmark_offline(oracle, episodes, xml, writer=writer)
    with span("store.writer_open"):
        RunWriter(run)
    with span("store.load_run"):
        load_run(run)
    with span("evaluate.aggregate"):
        aggregate(records, episodes, DEFAULT_POLICY, metrics)
    ArtifactPool.from_records(records).save(run / "pool.jsonl")
    with span("semionline.pool_load"):
        pool = ArtifactPool.load(run / "pool.jsonl")
    sweep_cfg = SweepConfig(grid=2, samples_per_pair=1, global_seed=job["seed"])
    with span("semionline.build_sweep_grid"):
        settings = build_sweep_grid(sweep_cfg)
    echo = ModelGateway(MockBackend(synth.make_responder(episodes, xml,
                                                         synth.history_echo_policy)),
                        EndpointConfig(), xml.id)
    with span("semionline.sweep_setting"):
        run_sweep_setting(settings[1], echo, episodes, xml, pool, DEFAULT_POLICY,
                          sweep_cfg.global_seed)
    noisy = make_noisy_responder(episodes, xml)
    steps = [step for ep in episodes for step in ep.steps]
    for step in steps:
        raws = noisy(prepare_input(step, [], xml), job["seed"], 8)
        samples = [ExecutionSample.from_parsed(xml.parse_response(raw, step.observation.dims))
                   for raw in raws]
        with span(f"decisions.build_distribution.{_cell_class(step.gt_action.kind)}"):
            build_distribution(samples)
    judges = [(f"judge{j}", ModelGateway(MockBackend(judge_responder(xml)),
                                         EndpointConfig(sampling=SamplingConfig(n=8)), xml.id),
               xml) for j in range(3)]
    for step in steps[:6]:
        case = ConsistencyCase(step.key, step.instruction_high, step.observation,
                               xml.render_response(step.gt_action), step.gt_action)
        with span("judging.judge_case"):
            judge_case(judges, case, n=8)
    r = random.Random(job["seed"])
    for _ in range(5):
        xs = [r.random() for _ in range(18)]
        with span("stats.correlation_report"):
            correlation_report("probe", xs, [x + r.random() for x in xs])


def main(job_path: str, result_path: str) -> int:
    """Alternate untraced and traced repetitions while another pair fits the budget.

    Pairs swap their order each time, and each repetition writes to its own
    directory. Spans come from the traced repetitions and the probes.
    """
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    out = Path(job["out"])
    tracer = Tracer()
    walls: dict[str, list[float]] = {"plain_s": [], "traced_s": []}
    deadline = time.perf_counter() + job["budget_s"]
    rep, pair_s = 0, 0.0
    while rep == 0 or time.perf_counter() + pair_s <= deadline:
        started = time.perf_counter()
        for traced in ((False, True) if rep % 4 == 0 else (True, False)):
            lay = Layers(tracer if traced else None)
            t0 = time.perf_counter()
            PIPELINES[job["workload"]](dict(job, out=str(out / f"rep{rep}")), lay)
            walls["traced_s" if traced else "plain_s"].append(time.perf_counter() - t0)
            rep += 1
        pair_s = time.perf_counter() - started
    probes(job, tracer)
    fallback_probes(job, tracer)
    tracer.dump(out / "spans.json")
    Path(result_path).write_text(json.dumps(walls), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
