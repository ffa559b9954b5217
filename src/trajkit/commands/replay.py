"""``trajkit eval``, ``soeval``, ``rollout``, ``sweep`` and ``report``: the
commands that replay a benchmark through a model, or report on a replay."""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .. import settings
from ..errors import EmptyReportError, InputError

if TYPE_CHECKING:
    from ..evaluate import EvalPolicy
    from ..gateway import EndpointConfig


def _endpoint_config(args, n: int = 1, seed: Optional[int] = None) -> EndpointConfig:
    from dataclasses import fields

    from ..gateway import EndpointConfig, SamplingConfig

    given = settings.given(args, "endpoint")
    sampling = {f.name: given.pop(f.name) for f in fields(SamplingConfig) if f.name in given}
    try:
        return EndpointConfig(sampling=SamplingConfig(**sampling, n=n, seed=seed), **given)
    except ValueError as exc:
        raise InputError(f"endpoint: {exc}") from None


def _executor(args, cfg: EndpointConfig, persists_steps: bool = False) -> tuple[int, bool]:
    """How a replay command runs its independent jobs (episodes, or
    settings of a sweep), as (workers, processes) for ``map_in_order``.

    Over HTTP each job waits on the network: one more job than the
    gateway's N request slots runs on threads, so a slot that a request
    backing off between retries frees, or that a job leaves while it
    prepares, parses and persists a step, goes to the spare job. With an
    in-process model a job is pure CPU work. Jobs that ``persists_steps``
    to the run's ``RunWriter`` (``eval``, ``soeval``) then run one at a time
    in this process, which threads would only slow down; the others run on
    worker processes, ``--concurrency`` of them if the flag or the config
    sets it, else one per CPU this process may run on. ``map_in_order``
    caps the count at the number of jobs."""
    if args.backend == "http":
        return cfg.max_in_flight + 1, False
    if persists_steps:
        return 1, False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return args.concurrency or cpus or 1, True


def _policy(args) -> EvalPolicy:
    """The evaluation policy; a setting left None keeps ``EvalPolicy``'s default."""
    from ..evaluate import EvalPolicy

    return EvalPolicy(**settings.given(args, "policy"))


def _load_pool(path: str):
    from ..semionline import ArtifactPool

    try:
        return ArtifactPool.load(path)
    except FileNotFoundError as exc:
        raise InputError(str(exc)) from None


def _replay_inputs(args):
    """The dialect, episodes and model backend a replay command runs on."""
    from ..dialects import get_dialect

    dialect = get_dialect(args.dialect)
    episodes = settings.episodes(args)[:args.limit_episodes or None]
    return dialect, episodes, _backend(args, episodes, dialect)


def _backend(args, episodes, dialect):
    from ..gateway import HttpBackend, MockBackend

    if args.backend == "http":
        return HttpBackend()
    from .. import synth

    if args.mock_policy == "noisy-oracle":
        return MockBackend(synth.make_noisy_responder(episodes, dialect))
    try:
        policy = synth.POLICIES[args.mock_policy]
    except KeyError:
        raise InputError(f"unknown mock policy {args.mock_policy!r}; "
                         f"known: {sorted(synth.POLICIES)} + ['noisy-oracle']") from None
    return MockBackend(synth.make_responder(episodes, dialect, policy))


def _osr(records, eligible_only: bool = False) -> str:
    """``compute_osr`` to 4 places, or ``undefined`` with no position to count."""
    from ..semionline import OsrUndefinedError, compute_osr

    try:
        return f"{compute_osr(records, eligible_only):.4f}"
    except OsrUndefinedError:
        return "undefined"


def _report_run(out_dir, records, episodes, policy: EvalPolicy, mode: str):
    """Write ``report.csv``/``report.md`` (a row per source benchmark) and
    ``horizon.csv`` from the records of complete episodes, print the replay's
    summary lines, and return the report over all benchmarks."""
    from ..evaluate import aggregate, aggregate_by_benchmark, complete_records, stratify_by_horizon
    from ..reporting import HORIZON_COLUMNS, horizon_rows, write_aggregate_report, write_csv

    records = complete_records(records)
    if not records:
        raise EmptyReportError(f"{out_dir}: no complete episode to report")
    reports = aggregate_by_benchmark(records, episodes, policy)
    write_aggregate_report(out_dir, {(name, mode): rep for name, rep in reports.items()})
    write_csv(Path(out_dir) / "horizon.csv", HORIZON_COLUMNS,
              horizon_rows(stratify_by_horizon(records)))
    if mode != "offline" and (osr := _osr(records)) != "undefined":
        if mode == "pool":
            # Undefined when no history position had a pooled artifact.
            osr += f"  (eligible-only {_osr(records, eligible_only=True)})"
        print(f"OSR: {osr}")
    overall = aggregate(records, episodes, policy)
    print(f"steps: {len(records)}  exact: {overall.exact_match}  "
          f"progress: {overall.progress}")
    return overall


def cmd_replay(args) -> int:
    """``eval`` (mode ``offline``) and ``soeval`` (``live`` or ``pool``)."""
    from ..evaluate import reference_history, replay_benchmark
    from ..gateway import DEFAULT_SEEDS, ModelGateway
    from ..store import RunWriter

    if not args.out_dir:
        raise InputError("--out-dir is required")
    mode = args.mode
    if mode != "offline":
        from ..semionline import ArtifactPool, on_policy_history, pool_sha256, pooled_histories
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
    # The protocol: which history each step of an episode sees.
    if mode == "offline":
        histories = lambda _, ep: reference_history(ep)  # noqa: E731
    elif mode == "live":
        histories = lambda _, ep: on_policy_history(ep)  # noqa: E731
    else:
        if not args.pool:
            raise InputError("soeval --mode pool requires --pool <file>")
        histories = pooled_histories(_load_pool(args.pool), global_seed=seed)
        # The pool's bytes, not its path, decide whether a run dir resumes.
        run_config["pool_sha256"] = pool_sha256(args.pool)
    out_dir = Path(args.out_dir)
    writer = RunWriter(out_dir, run_config)
    writer.write_manifest({"benchmark": str(args.benchmark)})
    for w in writer.warnings:
        print(f"warning: {w}", file=sys.stderr)

    try:
        records, _ = replay_benchmark(
            gateway, episodes, dialect, histories, policy, args.enable_thinking, writer, seed,
            _executor(args, cfg, persists_steps=True)[0], args.continue_on_error)
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
    from ..evaluate import map_in_order, reference_history, replay_episode
    from ..gateway import DEFAULT_SEEDS, ModelGateway
    from ..semionline import ArtifactPool, write_pool

    seeds = (args.seed_list or list(DEFAULT_SEEDS))[:args.rounds]
    if len(seeds) < args.rounds:
        raise InputError(f"--rounds {args.rounds} exceeds the seed list's length, {len(seeds)}")
    dialect, episodes, backend = _replay_inputs(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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


def cmd_sweep(args) -> int:
    from ..gateway import ModelGateway
    from ..reporting import SWEEP_COLUMNS, sweep_rows, write_csv
    from ..semionline import SweepConfig, run_sweep

    dialect, episodes, backend = _replay_inputs(args)
    pool = _load_pool(args.pool)
    cfg = _endpoint_config(args)
    sweep_cfg = SweepConfig(**settings.given(args, "schedule"), global_seed=args.global_seed)
    workers, processes = _executor(args, cfg)
    results = run_sweep(ModelGateway(backend, cfg), episodes, dialect, pool, sweep_cfg,
                        concurrency=workers, processes=processes,
                        enable_thinking=args.enable_thinking)
    write_csv(args.out, SWEEP_COLUMNS, sweep_rows(results))
    print(f"settings: {len(results)} -> {args.out}")
    return 0


def cmd_report(args) -> int:
    from ..reporting import markdown_table
    from ..store import MANIFEST_FILENAME, RECORDS_FILENAME, load_run

    run_dir = Path(args.run_dir)
    if not any((run_dir / name).exists() for name in (MANIFEST_FILENAME, RECORDS_FILENAME)):
        raise InputError(f"{args.run_dir}: not a run dir")
    records, manifest, warnings = load_run(run_dir)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    manifest = manifest or {}
    # A policy setting that the config leaves unset is the run's own.
    for dest in settings.dests("policy"):
        if getattr(args, dest) is None and dest in manifest:
            setattr(args, dest, settings.setting_value(
                dest, manifest[dest], run_dir / MANIFEST_FILENAME))
    # Records do not carry their ground-truth kind: only the episodes say
    # which steps an exclusion drops.
    if args.exclude_gt_kinds and not args.benchmark:
        kinds = ",".join(sorted(k.value for k in args.exclude_gt_kinds))
        raise InputError(f"excluding ground-truth kinds {kinds} needs the episodes: "
                         "give --benchmark (flag or config key)")
    episodes = settings.episodes(args, check_screenshots=False) if args.benchmark else None
    mode = manifest.get("mode", "offline")
    report = _report_run(args.run_dir, records, episodes, _policy(args), mode)
    print(markdown_table(
        ("steps", "scored", "type", "exact"),
        [[report.n_steps, report.n_steps_scored, report.type_match, report.exact_match]],
    ))
    return 0

