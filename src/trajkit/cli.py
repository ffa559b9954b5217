"""Command-line surface.

Subcommands: ingest, make-fixture, eval, soeval, rollout, cluster, judge,
sweep, reward, report, stats. Every command takes --config (YAML); a flag
given on the command line wins over the config (see ``SETTINGS``). The mock
backend plus a scripted policy makes every command runnable offline and
byte-reproducibly.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import ConfigMismatchError, CorruptRecordsError, EmptyReportError, InputError

if TYPE_CHECKING:
    from .evaluate import EvalPolicy
    from .gateway import EndpointConfig

#: ``dialects.dialect_ids()``, written out so that the parser loads no
#: engine module; a test pins it to its source.
DIALECT_IDS = ("plain-json", "thought-action", "xml-toolcall")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _seed_list(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.replace(",", " ").split()]
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"must be integers separated by commas, got {text!r}")
    return seeds


def _gt_kinds(text: str) -> frozenset:
    from .actions import ActionKind

    try:
        return frozenset(ActionKind(k.strip()) for k in text.split(",") if k.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _dialect_id(text: str) -> str:
    if text not in DIALECT_IDS:
        raise argparse.ArgumentTypeError(
            f"unknown dialect {text!r}; known: {', '.join(DIALECT_IDS)}")
    return text


#: Every setting a ``--config`` file can hold: argparse dest -> (section, or
#: None at top level; key; converter; default). A flag given on the command
#: line wins; ``main`` fills every other dest the command declares from the
#: config, else the default. A config value is converted as its flag's text
#: (a list joined with commas). A None default (all but ``dialect``'s) leaves
#: the value to the engine's own default, or for ``report`` to the run's
#: manifest. An endpoint key is a field of ``EndpointConfig`` or ``SamplingConfig``.
SETTINGS = {
    "benchmark": (None, "benchmark", str, None),
    "dialect": (None, "dialect", _dialect_id, "xml-toolcall"),
    "seed_list": (None, "seed_list", _seed_list, None),
    "endpoint_url": ("endpoint", "base_url", str, None),
    "model": ("endpoint", "model_name", str, None),
    "concurrency": ("endpoint", "max_in_flight", _positive_int, None),
    "timeout": ("endpoint", "timeout", _finite_float, None),
    "max_retries": ("endpoint", "max_retries", int, None),
    "temperature": ("endpoint", "temperature", _finite_float, None),
    "top_p": ("endpoint", "top_p", _finite_float, None),
    "top_k": ("endpoint", "top_k", int, None),
    "repetition_penalty": ("endpoint", "repetition_penalty", _finite_float, None),
    "presence_penalty": ("endpoint", "presence_penalty", _finite_float, None),
    "max_tokens": ("endpoint", "max_tokens", int, None),
    "min_comparable": ("policy", "min_comparable", _finite_float, None),
    "exclude_gt_kinds": ("policy", "exclude_gt_kinds", _gt_kinds, None),
    "kappa": ("schedule", "kappa", float, None),
    "grid": ("schedule", "grid", int, None),
    "samples_per_pair": ("schedule", "samples_per_pair", int, None),
}


def _dests(section: str) -> list[str]:
    return [dest for dest, row in SETTINGS.items() if row[0] == section]


def _setting_value(dest: str, value, source) -> object:
    """``value`` of ``dest`` read from ``source`` (a config file or a
    manifest), converted as the flag's text would be."""
    section, key, convert, _ = SETTINGS[dest]
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    try:
        return convert(text)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise InputError(f"{source}: {key if section is None else f'{section}.{key}'}: "
                         f"{exc}") from None


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    import yaml

    try:
        with open(path, encoding="utf-8") as fh:
            config = yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise InputError(f"{path}: {exc}") from None
    if not isinstance(config, dict):
        raise InputError(f"{path}: not a mapping of settings")
    return config


def _resolve_settings(args) -> None:
    """Fill each setting the command declares and the command line left
    unset: from ``--config``, else from its default."""
    config = _load_config(args.config)
    for dest, (section, key, _, default) in SETTINGS.items():
        if getattr(args, dest, False) is not None:
            continue
        block = config if section is None else config.get(section) or {}
        if not isinstance(block, dict):
            raise InputError(f"{args.config}: {section}: not a mapping of settings")
        value = block.get(key)
        setattr(args, dest, default if value is None else
                _setting_value(dest, value, args.config))


def _given(args, section: str) -> dict:
    """The settings of ``section`` that the command line or the config set,
    by config key; the engine's defaults fill in the rest."""
    return {key: getattr(args, dest) for dest, (sec, key, _, _) in SETTINGS.items()
            if sec == section and getattr(args, dest) is not None}


def _endpoint_config(args, n: int = 1, seed: Optional[int] = None) -> EndpointConfig:
    from dataclasses import fields

    from .gateway import EndpointConfig, SamplingConfig

    given = _given(args, "endpoint")
    sampling = {f.name: given.pop(f.name) for f in fields(SamplingConfig) if f.name in given}
    try:
        return EndpointConfig(sampling=SamplingConfig(**sampling, n=n, seed=seed), **given)
    except ValueError as exc:
        raise InputError(f"endpoint: {exc}") from None


def _episode_concurrency(args, cfg: EndpointConfig) -> int:
    """Episodes ``eval`` and ``soeval`` replay at once: the request cap over
    HTTP, where each step waits on the network; one with an in-process mock,
    which threads would only slow down, and whose steps the run's
    ``RunWriter`` persists in this process."""
    return cfg.max_in_flight if args.backend == "http" else 1


def _executor(args, cfg: EndpointConfig) -> tuple[int, bool]:
    """How ``rollout`` and ``sweep`` run their independent jobs, as
    (workers, processes) for ``map_in_order``. Over HTTP each job waits on
    the network: up to the request cap run on threads. With an in-process
    model a job is pure CPU work: it runs on worker processes,
    ``--concurrency`` of them if the flag or the config sets it, else one
    per CPU this process may run on. ``map_in_order`` caps the count at the
    number of jobs."""
    if args.backend == "http":
        return cfg.max_in_flight, False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return args.concurrency or cpus or 1, True


def _policy(args) -> EvalPolicy:
    """The evaluation policy; a setting left None keeps ``EvalPolicy``'s default."""
    from .evaluate import EvalPolicy

    return EvalPolicy(**_given(args, "policy"))


def _benchmark(args) -> str:
    if not args.benchmark:
        raise InputError("no benchmark given (flag --benchmark or config key)")
    return args.benchmark


def _episodes(args, check_screenshots: bool = True):
    from .store import load_episodes

    report = load_episodes(_benchmark(args), check_screenshots=check_screenshots)
    if report.rejections:
        print(f"warning: {len(report.rejections)} rejected records", file=sys.stderr)
    return report.episodes


def _load_pool(path: str):
    from .semionline import ArtifactPool

    try:
        return ArtifactPool.load(path)
    except FileNotFoundError as exc:
        raise InputError(str(exc)) from None


def _replay_inputs(args):
    """The dialect, episodes and model backend a replay command runs on."""
    from .dialects import get_dialect

    dialect = get_dialect(args.dialect)
    episodes = _episodes(args)[:args.limit_episodes or None]
    return dialect, episodes, _backend(args, episodes, dialect)


def _backend(args, episodes, dialect):
    from .gateway import HttpBackend, MockBackend

    if args.backend == "http":
        return HttpBackend()
    from . import synth

    if args.mock_policy == "noisy-oracle":
        return MockBackend(make_noisy_responder(episodes, dialect))
    try:
        policy = synth.POLICIES[args.mock_policy]
    except KeyError:
        raise InputError(f"unknown mock policy {args.mock_policy!r}; "
                         f"known: {sorted(synth.POLICIES)} + ['noisy-oracle']") from None
    return MockBackend(synth.make_responder(episodes, dialect, policy))


def make_noisy_responder(episodes, dialect):
    """Oracle with seeded spatial jitter (a standard deviation of 25
    per-mille) and a wrong answer one time in five."""
    import hashlib
    import random
    from dataclasses import replace

    from . import synth
    from .actions import Point

    steps = {step.key: step for ep in episodes for step in ep.steps}

    def responder(request, seed, n):
        step = steps[request.tag]
        out = []
        for j in range(n):
            digest = hashlib.sha256(f"{request.tag}|{seed}|{j}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            action = step.gt_action
            if rng.random() < 0.2:
                action = synth.wrong_action_for(action)
            elif action.point is not None:
                x, y = (min(max(int(v + rng.gauss(0, 25.0)), 0), 1000)
                        for v in (action.point.x, action.point.y))
                action = replace(action, point=Point(x, y))
            out.append(dialect.render_response(
                action, thought=f"sample {j}", conclusion=f"did-{step.step_index}",
                dims=step.observation.dims))
        return out if n > 1 else out[0]

    return responder


# --- subcommands ---------------------------------------------------------------


def cmd_ingest(args) -> int:
    import json

    from .reporting import write_rejection_report
    from .store import load_episodes

    report = load_episodes(_benchmark(args), check_screenshots=not args.no_check_screenshots)
    print(f"episodes: {len(report.episodes)}  rejections: {len(report.rejections)}")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_rejection_report(out / "rejections.csv", report.rejections)
        summary = {"episodes": {ep.id: len(ep) for ep in report.episodes},
                   "rejections": len(report.rejections)}
        (out / "ingest.json").write_text(json.dumps(summary, indent=1, sort_keys=True),
                                         encoding="utf-8")
    for r in report.rejections:
        print(f"  line {r.line_no} ({r.episode_id}): {r.reason}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_make_fixture(args) -> int:
    from . import synth

    print(synth.make_benchmark_file(args.out_dir, n_episodes=args.episodes,
                                    steps_per_episode=args.steps, seed=args.seed))
    return 0


def _report_run(out_dir, records, episodes, policy: EvalPolicy, mode: str):
    """Write ``report.csv``/``report.md`` (a row per source benchmark) and
    ``horizon.csv`` from the records of complete episodes, print the replay's
    summary lines, and return the report over all benchmarks."""
    from .evaluate import (
        aggregate,
        aggregate_by_benchmark,
        complete_records,
        stratify_by_horizon,
    )
    from .reporting import HORIZON_COLUMNS, horizon_rows, write_aggregate_report, write_csv

    records = complete_records(records)
    if not records:
        raise EmptyReportError(f"{out_dir}: no complete episode to report")
    reports = aggregate_by_benchmark(records, episodes, policy)
    write_aggregate_report(out_dir, {(name, mode): rep for name, rep in reports.items()})
    write_csv(Path(out_dir) / "horizon.csv", HORIZON_COLUMNS,
              horizon_rows(stratify_by_horizon(records)))
    if mode != "offline":
        from .semionline import compute_osr

        try:
            osr = f"OSR: {compute_osr(records):.4f}"
            if mode == "pool":
                osr += f"  (eligible-only {compute_osr(records, eligible_only=True):.4f})"
            print(osr)
        except ValueError:
            pass
    overall = aggregate(records, episodes, policy)
    print(f"steps: {len(records)}  exact: {overall.exact_match}  "
          f"progress: {overall.progress}")
    return overall


def cmd_replay(args) -> int:
    """``eval`` (mode ``offline``) and ``soeval`` (``live`` or ``pool``)."""
    from .evaluate import evaluate_benchmark_offline
    from .gateway import DEFAULT_SEEDS, ModelGateway
    from .store import RunWriter

    if not args.out_dir:
        raise InputError("--out-dir is required")
    mode = args.mode
    if mode != "offline":
        from .semionline import ArtifactPool, pool_sha256, pooled_benchmark, soeval_benchmark
    dialect, episodes, backend = _replay_inputs(args)
    policy = _policy(args)
    seeds = args.seed_list or list(DEFAULT_SEEDS)
    seed = seeds[0]
    cfg = _endpoint_config(args, seed=seed)
    gateway = ModelGateway(backend, cfg)

    # The run's configuration: its hash decides whether a run dir resumes,
    # and the manifest holds it from the first step on.
    run_config = {
        "mode": mode,
        "dialect": dialect.id,
        "model": cfg.model_name,
        "seed_list": seeds,
        "enable_thinking": args.enable_thinking,
        "min_comparable": policy.min_comparable,
        "exclude_gt_kinds": sorted(k.value for k in policy.exclude_gt_kinds),
    }
    if mode == "pool":
        if not args.pool:
            raise InputError("soeval --mode pool requires --pool <file>")
        pool = _load_pool(args.pool)
        # The pool's bytes, not its path, decide whether a run dir resumes.
        run_config["pool_sha256"] = pool_sha256(args.pool)
    out_dir = Path(args.out_dir)
    writer = RunWriter(out_dir, run_config)
    writer.write_manifest({"benchmark": str(args.benchmark)})
    for w in writer.warnings:
        print(f"warning: {w}", file=sys.stderr)

    common = dict(writer=writer, seed=seed, enable_thinking=args.enable_thinking,
                  continue_on_error=args.continue_on_error,
                  concurrency=_episode_concurrency(args, cfg))
    try:
        if mode == "offline":
            records, _ = evaluate_benchmark_offline(gateway, episodes, dialect, policy, **common)
        elif mode == "pool":
            records, _ = pooled_benchmark(gateway, episodes, dialect, pool, policy,
                                          global_seed=seed, **common)
        else:
            records, _ = soeval_benchmark(gateway, episodes, dialect, policy, **common)
    finally:
        # Episodes in parallel append in completion order; a serial run's
        # order is restored even when the replay was cut short.
        writer.canonicalize([ep.id for ep in episodes])
    if mode == "live":
        ArtifactPool.from_records(records).save(out_dir / "pool.jsonl")
    _report_run(out_dir, records, episodes, policy, mode)
    return 0


def cmd_rollout(args) -> int:
    if not args.out_dir:
        raise InputError("--out-dir is required")
    dialect, episodes, backend = _replay_inputs(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    from .evaluate import map_in_order, reference_history, replay_episode
    from .gateway import DEFAULT_SEEDS, ModelGateway
    from .semionline import ArtifactPool, write_pool

    seeds = (args.seed_list or list(DEFAULT_SEEDS))[: args.rounds]
    cfg = _endpoint_config(args, n=args.samples)
    gateway = ModelGateway(backend, cfg)

    # A job encodes its own records and pool, so that worker processes do
    # that work and this process only writes them out, in job order.
    def replay(job):
        round_idx, seed, ep = job
        records = replay_episode(
            gateway, ep, dialect, reference_history(ep, record_sources=False),
            enable_thinking=args.enable_thinking, round_idx=round_idx, seed=seed)
        return (len(records), "".join(rec.to_json() + "\n" for rec in records),
                ArtifactPool.from_records(records).encode())

    jobs = [(round_idx, seed, ep) for round_idx, seed in enumerate(seeds) for ep in episodes]
    n_records, pool_parts = 0, []
    with (out_dir / "rollouts.jsonl").open("w", encoding="utf-8") as fh:
        for n, lines, pool_part in map_in_order(replay, jobs, *_executor(args, cfg)):
            fh.write(lines)
            n_records += n
            pool_parts.append(pool_part)
    n_pooled = write_pool(out_dir / "pool.jsonl", pool_parts)
    print(f"rollouts: {n_records}  pooled artifacts: {n_pooled}")
    return 0


def _load_cells(path) -> dict[str, list]:
    """Samples per cell, from each record's structured prediction.

    Raw responses are not parsed again: pixel coordinates need the step's
    screen dimensions, which the rollout parse already applied.
    """
    from .decisions import ExecutionSample
    from .store import RunRecord, decode_prediction, read_jsonl, step_key

    def cell_sample(raw: dict):
        r = RunRecord(**raw)
        action = decode_prediction(r)
        return step_key(r.episode_id, r.step_index), ExecutionSample(
            action=action, thought=r.thought, seed=r.seed, round=r.round,
            parse_ok=action is not None, failure_reason=r.failure_reason)

    cells: dict[str, list] = {}
    for key, sample in read_jsonl(path, cell_sample):
        cells.setdefault(key, []).append(sample)
    return cells


def cmd_cluster(args) -> int:
    from .decisions import (
        build_distribution,
        diversity,
        diversity_shift,
        effective_support,
        stability,
        stability_level,
        stability_shift,
    )
    from .reporting import write_csv

    cells = _load_cells(args.rollouts)
    compare_cells = _load_cells(args.compare) if args.compare else None

    episodes = _episodes(args, check_screenshots=False) if args.benchmark else []
    gt_by_key = {s.key: s for ep in episodes for s in ep.steps}

    def distribution(samples):
        return build_distribution(samples, epsilon=args.epsilon, min_pts=args.min_pts)

    rows = []
    for key in sorted(cells):
        dist = distribution(cells[key])
        h = diversity(dist)
        step = gt_by_key.get(key)
        theta = None if step is None else stability(dist, step.gt_action, step.gt_bbox)
        row = [key, dist.n, dist.support_size, h, effective_support(h), theta,
               None if step is None else stability_level(theta)]
        if compare_cells is not None:
            row += [None] * 4
            if key in compare_cells:
                other = distribution(compare_cells[key])
                shift = diversity_shift(h, diversity(other))
                row[7:9] = [shift.delta_exp, shift.category]
                if step is not None:
                    theta_after = stability(other, step.gt_action, step.gt_bbox)
                    row[9:] = [theta_after - theta, stability_shift(theta, theta_after)]
        rows.append(row)

    header = ["cell", "n", "support", "diversity", "effective_support",
              "stability", "stability_level"]
    if compare_cells is not None:
        header += ["delta_exp_div", "diversity_shift", "delta_stability",
                   "stability_shift"]
    write_csv(args.out, header, rows)
    print(f"cells: {len(rows)} -> {args.out}")
    return 0


def cmd_judge(args) -> int:
    from .actions import Action, ActionKind
    from .dialects import get_dialect
    from .gateway import EndpointConfig, MockBackend, ModelGateway, SamplingConfig
    from .judging import detector_validation, judge_case, load_cases
    from .reporting import write_csv

    dialect = get_dialect(args.dialect)
    cases = load_cases(args.cases)

    # Scripted judges: each judge echoes the action named in the reasoning
    # trace when it can parse one, so labeled fixtures validate the pipeline.
    def judge_responder(request, seed, n):
        action = dialect.parse_response(request.fixed_thought or "").action
        if action is None:
            action = Action(ActionKind.PRESS, button="BACK")
        return [dialect.render_response(action, thought="echo", conclusion="echo")] * n

    # The scripted judges answer the same whatever the endpoint settings.
    cfg = EndpointConfig(sampling=SamplingConfig(n=args.rollouts))
    gateways = [(f"judge{j}", ModelGateway(MockBackend(judge_responder), cfg), dialect)
                for j in range(args.judges)]

    rows, labels, preds = [], [], []
    for case in cases:
        verdict = judge_case(gateways, case, n=args.rollouts)
        per_judge = [f"{m.judge_id}:{m.decision.encode() if m.decision else 'abstain'}"
                     for m in verdict.per_judge]
        rows.append([
            case.case_id,
            verdict.consensus.encode() if verdict.consensus else "-",
            case.executed_action.encode() if case.executed_action else "-",
            verdict.consistent,
            verdict.failure or "-",
            " | ".join(per_judge),
        ])
        if case.human_label is not None:
            labels.append(case.human_label)
            preds.append(verdict.consistent)
    write_csv(args.out, ("case", "consensus", "executed", "consistent",
                         "failure", "per_judge"), rows)
    if labels:
        validation = detector_validation(labels, preds)
        print(f"acc={_defined(validation.accuracy.value, '.4f')} "
              f"tpr={_defined(validation.tpr.value, '.4f')} "
              f"tnr={_defined(validation.tnr.value, '.4f')}")
    print(f"cases: {len(rows)} -> {args.out}")
    return 0


def cmd_sweep(args) -> int:
    from .gateway import ModelGateway
    from .reporting import SWEEP_COLUMNS, sweep_rows, write_csv
    from .semionline import SweepConfig, run_sweep

    dialect, episodes, backend = _replay_inputs(args)
    pool = _load_pool(args.pool)
    cfg = _endpoint_config(args)
    sweep_cfg = SweepConfig(**_given(args, "schedule"), global_seed=args.global_seed)
    workers, processes = _executor(args, cfg)
    results = run_sweep(ModelGateway(backend, cfg), episodes, dialect, pool, sweep_cfg,
                        concurrency=workers, processes=processes,
                        enable_thinking=args.enable_thinking)
    write_csv(args.out, SWEEP_COLUMNS, sweep_rows(results))
    print(f"settings: {len(results)} -> {args.out}")
    return 0


def cmd_reward(args) -> int:
    import json

    from .reporting import write_csv
    from .rewards import group_advantages, reward_binary, reward_gaussian_click
    from .store import decode_action, decode_bbox, read_jsonl

    if args.groups:
        def group_row(rec: dict):
            result = group_advantages(rec["rewards"])
            return rec, [json.dumps(rec["rewards"]),
                         json.dumps([round(a, 6) for a in result.advantages]),
                         result.zero_variance]

        rows = [[rec.get("group_id", i), *cols]
                for i, (rec, cols) in enumerate(read_jsonl(args.groups, group_row))]
        write_csv(args.out, ("group_id", "rewards", "advantages", "zero_variance"), rows)
    elif args.steps:
        def step_row(rec: dict):
            gt = decode_action(rec["gt_kind"], rec.get("gt_params") or {})
            pred = None
            if rec.get("pred_kind"):
                pred = decode_action(rec["pred_kind"], rec.get("pred_params") or {})
            bbox = decode_bbox(rec["gt_bbox"]) if rec.get("gt_bbox") else None
            breakdown = reward_binary(pred, gt, bbox)
            total = breakdown.total
            if (args.mode == "gaussian" and breakdown.r_type == 1.0
                    and pred is not None and pred.kind.value in ("CLICK",)
                    and bbox is not None):
                total = breakdown.r_type + reward_gaussian_click(pred.point, bbox)
            return rec, [breakdown.r_type, breakdown.r_params, total]

        rows = [[rec.get("id", i), *cols]
                for i, (rec, cols) in enumerate(read_jsonl(args.steps, step_row))]
        write_csv(args.out, ("id", "r_type", "r_params", "total"), rows)
    else:
        raise InputError("reward needs --groups or --steps")
    print(f"rows: {len(rows)} -> {args.out}")
    return 0


def cmd_report(args) -> int:
    from .reporting import markdown_table
    from .store import MANIFEST_FILENAME, load_run

    records, manifest, warnings = load_run(args.run_dir)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    manifest = manifest or {}
    # A policy setting that the config leaves unset is the run's own.
    for dest in _dests("policy"):
        if getattr(args, dest) is None and dest in manifest:
            setattr(args, dest, _setting_value(
                dest, manifest[dest], Path(args.run_dir) / MANIFEST_FILENAME))
    episodes = _episodes(args, check_screenshots=False) if args.benchmark else None
    mode = manifest.get("mode", "offline")
    report = _report_run(args.run_dir, records, episodes, _policy(args), mode)
    print(markdown_table(
        ("steps", "scored", "type", "exact"),
        [[report.n_steps, report.n_steps_scored, report.type_match, report.exact_match]],
    ))
    return 0


def cmd_stats(args) -> int:
    from .stats import (
        Contingency2x2,
        contingency_stats,
        correlation_report,
        multi_seed_summary,
        wilson_interval,
    )

    # A value the statistic is undefined for is one error line.
    try:
        if args.stat == "correlation":
            import csv

            from .reporting import write_correlation_report

            with open(args.csv, "r", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                if args.online_col not in (reader.fieldnames or ()):
                    raise InputError(f"{args.csv} has no column {args.online_col!r}")
                rows = [{name: _finite_or_none(cell) for name, cell in row.items()}
                        for row in reader]
                metrics = [name for name in reader.fieldnames if name != args.online_col]
            reports = []
            for name in metrics:
                # A row counts only when both of its cells are finite numbers,
                # so the two series stay paired row by row.
                pairs = [(row[name], row[args.online_col]) for row in rows
                         if row[name] is not None and row[args.online_col] is not None]
                if len(pairs) < len(rows):
                    print(f"warning: {name}: {len(rows) - len(pairs)} of {len(rows)} rows "
                          f"dropped (a cell of {name} or {args.online_col} is not a "
                          f"finite number)", file=sys.stderr)
                values, online = zip(*pairs) if pairs else ((), ())
                try:
                    reports.append(correlation_report(name, values, online))
                except ValueError as exc:
                    print(f"warning: {name}: skipped ({exc})", file=sys.stderr)
            if not reports:
                raise InputError(f"{args.csv}: no column could be correlated with "
                                 f"{args.online_col!r}")
            write_correlation_report(args.out, reports)
            for r in reports:
                print(f"{r.metric}: rho={r.spearman_rho:.4f} "
                      f"legendre_r2={r.legendre_r2:.4f} "
                      f"(transposed {r.legendre_r2_transposed:.4f}) "
                      f"linear_r2={r.linear_r2:.4f}")
        elif args.stat == "contingency":
            s = contingency_stats(Contingency2x2(args.a, args.b, args.c, args.d))
            print(f"match ratios: {_defined(s.match_ratio_first, '.2f')} / "
                  f"{_defined(s.match_ratio_second, '.2f')}")
            print(f"relative risk: {_defined(s.relative_risk, '.4f')}  "
                  f"odds ratio: {_defined(s.odds_ratio, '.4f')}")
            print(f"chi2: {s.chi2:.2f}  phi: {s.phi:.4f}")
        elif args.stat == "wilson":
            lo, hi = wilson_interval(args.successes, args.n)
            print(f"[{lo:.4f}, {hi:.4f}]")
        elif args.stat == "seeds":
            summary = multi_seed_summary(args.values)
            if summary.ci:
                print(f"mean {summary.mean:.4f}  CI [{summary.ci[0]:.4f}, {summary.ci[1]:.4f}]")
            else:
                print(f"mean {summary.mean:.4f}")
    except ValueError as exc:
        raise InputError(f"{args.stat}: {exc}") from None
    return 0


def _defined(value: Optional[float], spec: str) -> str:
    """``value`` formatted by ``spec``, or ``undefined`` for a ratio over zero."""
    return "undefined" if value is None else format(value, spec)


def _finite_or_none(cell: Optional[str]) -> Optional[float]:
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


# --- argument parsing -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A flag matches by its full name only (``--mode`` is not ``--model``),
    and a token that parses as a float (``-1e-3``, ``-inf``) is a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _setting_flag(p: argparse.ArgumentParser, flag: str, **kwargs) -> None:
    """A flag for a setting of ``SETTINGS``, with the setting's converter."""
    p.add_argument(flag, type=SETTINGS[flag[2:].replace("-", "_")][2], **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trajkit", description="GUI-agent trajectory evaluation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags that several subcommands share, each declared once.
    def shared(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    config = shared()
    config.add_argument("--config", help="YAML config file; a flag wins over it")
    dialect = shared()
    _setting_flag(dialect, "--dialect", choices=DIALECT_IDS)
    benchmark = shared()
    _setting_flag(benchmark, "--benchmark", help="episode file (JSONL)")
    out_dir = shared()
    out_dir.add_argument("--out-dir", help="output directory")
    # Commands that replay can cut the file to its first N episodes; all but
    # sweep take a seed list.
    episodes = shared(benchmark, out_dir)
    episodes.add_argument("--limit-episodes", type=int)
    replay = shared(episodes)
    _setting_flag(replay, "--seed-list", help="comma-separated seeds, one per round")
    model = shared(dialect)
    # The endpoint settings; those without a flag are set by the config only.
    model.set_defaults(**dict.fromkeys(_dests("endpoint")))
    model.add_argument("--backend", choices=["mock", "http"], default="mock")
    model.add_argument("--mock-policy", default="oracle",
                       help="oracle | wrong | alternating | history-echo | noisy-oracle")
    _setting_flag(model, "--endpoint-url")
    _setting_flag(model, "--model")
    _setting_flag(model, "--concurrency",
                  help="requests in flight; over HTTP also episodes or sweep settings run "
                       "at once on threads; with the mock, the worker processes of rollout "
                       "and sweep (default: one per usable CPU)")
    model.add_argument("--enable-thinking", dest="enable_thinking", action="store_true",
                       default=True)
    model.add_argument("--no-thinking", dest="enable_thinking", action="store_false")
    # Flags of the commands that score a replay into a run dir.
    policy = shared()
    policy.add_argument("--continue-on-error", action="store_true",
                        help="leave failing episodes incomplete instead of aborting")
    _setting_flag(policy, "--exclude-gt-kinds", help="comma-separated action kinds")
    _setting_flag(policy, "--min-comparable")

    p = sub.add_parser("ingest", help="validate an episode file",
                       parents=[config, benchmark, out_dir])
    p.add_argument("--no-check-screenshots", action="store_true")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("make-fixture", help="generate a synthetic benchmark",
                       parents=[config])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--episodes", type=int, default=4)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_make_fixture)

    p = sub.add_parser("eval", help="offline trajectory replay",
                       parents=[config, replay, model, policy])
    p.set_defaults(func=cmd_replay, mode="offline")

    p = sub.add_parser("soeval", help="semi-online replay",
                       parents=[config, replay, model, policy])
    p.add_argument("--mode", choices=["live", "pool"], default="live")
    p.add_argument("--pool", help="artifact pool file (pool mode)")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("rollout", help="n-sample collection for decision analytics",
                       parents=[config, replay, model])
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=cmd_rollout)

    # --dialect is accepted and unused: samples come from each record's
    # structured prediction.
    p = sub.add_parser("cluster", help="decision distributions from rollout logs",
                       parents=[config, benchmark, dialect])
    p.add_argument("--rollouts", required=True)
    p.add_argument("--compare", help="second rollout log; emit shift columns")
    # decisions.DBSCAN_EPSILON and DBSCAN_MIN_PTS, written out so that
    # building the parser does not import the clustering code.
    p.add_argument("--epsilon", type=float, default=70.0,
                   help="DBSCAN radius, per-mille (default: %(default)s)")
    p.add_argument("--min-pts", type=int, default=3,
                   help="DBSCAN core-point count (default: %(default)s)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("judge", help="reasoning-execution consistency judging",
                       parents=[config, dialect])
    p.add_argument("--cases", required=True)
    p.add_argument("--judges", type=int, default=3)
    p.add_argument("--rollouts", type=int, default=32)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_judge)

    p = sub.add_parser("sweep", help="history-mixing regime sweep",
                       parents=[config, episodes, model])
    p.add_argument("--pool", required=True)
    _setting_flag(p, "--kappa")
    _setting_flag(p, "--grid")
    _setting_flag(p, "--samples-per-pair")
    p.add_argument("--global-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reward", help="batch reward / advantage scoring", parents=[config])
    p.add_argument("--groups", help="JSONL of {group_id, rewards}")
    p.add_argument("--steps", help="JSONL of {pred_kind, pred_params, gt_kind, gt_params, gt_bbox}")
    p.add_argument("--mode", choices=["binary", "gaussian"], default="binary")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("report", help="re-emit reports from a run directory",
                       parents=[config, benchmark])
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=cmd_report, **dict.fromkeys(_dests("policy")))

    p = sub.add_parser("stats", help="statistical utilities")
    stat_sub = p.add_subparsers(dest="stat", required=True)
    q = stat_sub.add_parser("correlation", parents=[config])
    q.add_argument("--csv", required=True)
    q.add_argument("--online-col", default="online")
    q.add_argument("--out", default="correlation.csv")
    q = stat_sub.add_parser("contingency", parents=[config])
    for name in "abcd":
        q.add_argument(name, type=int)
    q = stat_sub.add_parser("wilson", parents=[config])
    q.add_argument("successes", type=int)
    q.add_argument("n", type=int)
    q = stat_sub.add_parser("seeds", parents=[config])
    q.add_argument("values", type=_finite_float, nargs="+")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve_settings(args)
        return args.func(args)
    except (ConfigMismatchError, CorruptRecordsError, EmptyReportError, InputError) as exc:
        print(f"trajkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
