"""Command-line surface.

Subcommands: ingest, make-fixture, eval, soeval, rollout, cluster, judge,
sweep, reward, report, stats. Global flags: --config (YAML), --seed-list,
--out-dir. The mock backend plus a scripted policy makes every command
runnable offline and byte-reproducibly.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import random
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from .actions import ActionKind, Point
from .dialects import get_dialect
from .evaluate import (
    DEFAULT_POLICY,
    EvalPolicy,
    aggregate,
    aggregate_by_benchmark,
    complete_records,
    evaluate_benchmark_offline,
    stratify_by_horizon,
)
from .gateway import (
    DEFAULT_SEEDS,
    EndpointConfig,
    HttpBackend,
    MockBackend,
    ModelGateway,
    SamplingConfig,
)
from .store import (
    ConfigMismatchError,
    CorruptRecordsError,
    RunWriter,
    decode_action,
    load_episodes,
    load_run,
)


class InputError(Exception):
    """An input named on the command line cannot be used; reported in one line."""


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    import yaml

    with open(path, "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh) or {}


def _parse_seed_list(text: Optional[str], config: dict) -> list[int]:
    if text:
        return [int(s) for s in text.replace(",", " ").split()]
    if config.get("seed_list"):
        return [int(s) for s in config["seed_list"]]
    return list(DEFAULT_SEEDS)


def _endpoint_config(args, config: dict, n: int = 1, seed: Optional[int] = None) -> EndpointConfig:
    section = dict(config.get("endpoint") or {})
    sampling_keys = ("temperature", "top_p", "top_k", "repetition_penalty",
                     "presence_penalty", "max_tokens")
    sampling = SamplingConfig(
        **{k: section[k] for k in sampling_keys if k in section},
        n=n, seed=seed,
    )
    return EndpointConfig(
        base_url=getattr(args, "endpoint_url", None) or section.get("base_url", ""),
        model_name=getattr(args, "model", None) or section.get("model_name", "mock"),
        sampling=sampling,
        timeout=float(section.get("timeout", 120.0)),
        max_retries=int(section.get("max_retries", 3)),
        max_in_flight=int(getattr(args, "concurrency", None)
                          or section.get("max_in_flight", 4)),
    )


#: The policy a run dir's manifest keeps for ``report`` (older manifests lack it).
_POLICY_KEYS = ("min_comparable", "exclude_gt_kinds")


def _policy(args, config: dict) -> EvalPolicy:
    section = dict(config.get("policy") or {})
    exclude = getattr(args, "exclude_gt_kinds", None)
    if exclude is None:
        exclude = section.get("exclude_gt_kinds", [])
    elif isinstance(exclude, str):
        exclude = exclude.split(",")
    min_comparable = getattr(args, "min_comparable", None)
    if min_comparable is None:
        min_comparable = section.get("min_comparable", DEFAULT_POLICY.min_comparable)
    return EvalPolicy(
        min_comparable=float(min_comparable),
        exclude_gt_kinds=frozenset(ActionKind(k.strip()) for k in exclude if k),
    )


def _resolve_benchmark(args, config: dict) -> str:
    benchmark = getattr(args, "benchmark", None) or config.get("benchmark")
    if not benchmark:
        raise SystemExit("no benchmark given (flag --benchmark or config key)")
    args.benchmark = benchmark
    return benchmark


def _episodes(args, check_screenshots: bool = True):
    report = load_episodes(args.benchmark, check_screenshots=check_screenshots)
    if report.rejections:
        print(f"warning: {len(report.rejections)} rejected records", file=sys.stderr)
    episodes = report.episodes
    limit = getattr(args, "limit_episodes", None)
    if limit:
        episodes = episodes[:limit]
    return episodes, report


def _load_pool(path: str):
    from .semionline import ArtifactPool

    try:
        return ArtifactPool.load(path)
    except FileNotFoundError as exc:
        raise InputError(str(exc)) from None


def _replay_inputs(args, config: dict):
    """The dialect, episodes and model backend a replay command runs on."""
    _resolve_benchmark(args, config)
    dialect = get_dialect(args.dialect or config.get("dialect", "xml-toolcall"))
    episodes, _ = _episodes(args)
    return dialect, episodes, _backend(args, episodes, dialect)


def _backend(args, episodes, dialect):
    from . import synth

    if args.backend == "http":
        return HttpBackend()
    policy_name = getattr(args, "mock_policy", "oracle") or "oracle"
    if policy_name == "noisy-oracle":
        return MockBackend(make_noisy_responder(episodes, dialect))
    try:
        policy = synth.POLICIES[policy_name]
    except KeyError:
        raise SystemExit(f"unknown mock policy {policy_name!r}; "
                         f"known: {sorted(synth.POLICIES)} + ['noisy-oracle']")
    return MockBackend(synth.make_responder(episodes, dialect, policy))


def make_noisy_responder(episodes, dialect, jitter: float = 25.0, wrong_rate: float = 0.2):
    """Oracle with seeded spatial jitter and occasional wrong answers."""
    from . import synth

    steps = {step.key: step for ep in episodes for step in ep.steps}

    def responder(request, seed, n):
        step = steps[request.tag]
        out = []
        for j in range(n):
            digest = hashlib.sha256(f"{request.tag}|{seed}|{j}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            action = step.gt_action
            if rng.random() < wrong_rate:
                action = synth.wrong_action_for(action)
            elif action.point is not None:
                jittered = Point(
                    min(max(int(action.point.x + rng.gauss(0, jitter)), 0), 1000),
                    min(max(int(action.point.y + rng.gauss(0, jitter)), 0), 1000),
                )
                action = replace(action, point=jittered)
            out.append(dialect.render_response(
                action, thought=f"sample {j}", conclusion=f"did-{step.step_index}",
                dims=step.observation.dims))
        return out if n > 1 else out[0]

    return responder


# --- subcommands ---------------------------------------------------------------


def cmd_ingest(args, config: dict) -> int:
    from .reporting import write_rejection_report

    _resolve_benchmark(args, config)
    report = load_episodes(args.benchmark, check_screenshots=not args.no_check_screenshots)
    print(f"episodes: {len(report.episodes)}  rejections: {len(report.rejections)}")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_rejection_report(out / "rejections.csv", report.rejections)
        counts = {ep.id: len(ep) for ep in report.episodes}
        (out / "ingest.json").write_text(
            json.dumps({"episodes": counts,
                        "rejections": len(report.rejections)}, indent=1, sort_keys=True),
            encoding="utf-8")
    for r in report.rejections:
        print(f"  line {r.line_no} ({r.episode_id}): {r.reason}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_make_fixture(args, config: dict) -> int:
    from . import synth

    path = synth.make_benchmark_file(
        args.out_dir, n_episodes=args.episodes,
        steps_per_episode=args.steps, seed=args.seed,
    )
    print(path)
    return 0


def _report_run(out_dir, records, episodes, policy: EvalPolicy, mode: str):
    """Write ``report.csv``/``report.md`` (a row per source benchmark) and
    ``horizon.csv`` from the records of complete episodes, print the replay's
    summary lines, and return the report over all benchmarks."""
    from .reporting import HORIZON_COLUMNS, horizon_rows, write_aggregate_report, write_csv

    records = complete_records(records)
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


def _run_eval(args, config: dict, mode: str) -> int:
    from .semionline import ArtifactPool, pool_sha256, pooled_benchmark, soeval_benchmark

    if not args.out_dir:
        raise SystemExit("--out-dir is required")
    dialect, episodes, backend = _replay_inputs(args, config)
    policy = _policy(args, config)
    seeds = _parse_seed_list(args.seed_list, config)
    cfg = _endpoint_config(args, config, seed=seeds[0])
    gateway = ModelGateway(backend, cfg)

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
        if not getattr(args, "pool", None):
            raise SystemExit("soeval --mode pool requires --pool <file>")
        pool = _load_pool(args.pool)
        # The pool's bytes, not its path, decide whether a run dir resumes.
        run_config["pool_sha256"] = pool_sha256(args.pool)
    out_dir = Path(args.out_dir)
    writer = RunWriter(out_dir, run_config)
    for w in writer.warnings:
        print(f"warning: {w}", file=sys.stderr)

    if mode == "offline":
        records, _ = evaluate_benchmark_offline(
            gateway, episodes, dialect, policy,
            enable_thinking=args.enable_thinking, writer=writer,
            seed=seeds[0], concurrency=1,
            continue_on_error=args.continue_on_error,
        )
    elif mode == "pool":
        records, _ = pooled_benchmark(
            gateway, episodes, dialect, pool, policy, writer=writer,
            seed=seeds[0], global_seed=seeds[0], enable_thinking=args.enable_thinking,
            continue_on_error=args.continue_on_error,
        )
    else:
        records, _ = soeval_benchmark(
            gateway, episodes, dialect, policy,
            enable_thinking=args.enable_thinking, writer=writer, seed=seeds[0],
            continue_on_error=args.continue_on_error,
        )
        ArtifactPool.from_records(records).save(out_dir / "pool.jsonl")

    _report_run(out_dir, records, episodes, policy, mode)
    writer.write_manifest({"mode": mode, "benchmark": str(args.benchmark),
                           **{k: run_config[k] for k in _POLICY_KEYS}})
    return 0


def cmd_eval(args, config: dict) -> int:
    return _run_eval(args, config, "offline")


def cmd_soeval(args, config: dict) -> int:
    return _run_eval(args, config, args.mode)


def cmd_rollout(args, config: dict) -> int:
    if not args.out_dir:
        raise SystemExit("--out-dir is required")
    dialect, episodes, backend = _replay_inputs(args, config)
    seeds = _parse_seed_list(args.seed_list, config)[: args.rounds]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    from .evaluate import reference_history, replay_episode
    from .semionline import ArtifactPool

    gateway = ModelGateway(backend, _endpoint_config(args, config, n=args.samples))
    rows = []
    with (out_dir / "rollouts.jsonl").open("w", encoding="utf-8") as fh:
        for round_idx, seed in enumerate(seeds):
            for ep in episodes:
                records, _ = replay_episode(
                    gateway, ep, dialect, reference_history(ep, record_sources=False),
                    enable_thinking=args.enable_thinking, round_idx=round_idx, seed=seed)
                fh.writelines(rec.to_json() + "\n" for rec in records)
                rows += records
    pool = ArtifactPool.from_records(rows)
    pool.save(out_dir / "pool.jsonl")
    print(f"rollouts: {len(rows)}  pooled artifacts: {len(pool)}")
    return 0


def _load_cells(path) -> dict[str, list]:
    """Samples per cell, from each record's structured prediction.

    Raw responses are not parsed again: pixel coordinates need the step's
    screen dimensions, which the rollout parse already applied.
    """
    from .decisions import ExecutionSample
    from .store import RunRecord, decode_prediction

    cells: dict[str, list] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            r = RunRecord.from_json(line)
            action = decode_prediction(r)
            sample = ExecutionSample(action=action, thought=r.thought, seed=r.seed,
                                     round=r.round, parse_ok=action is not None,
                                     failure_reason=r.failure_reason)
            cells.setdefault(f"{r.episode_id}/{r.step_index}", []).append(sample)
    return cells


def cmd_cluster(args, config: dict) -> int:
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

    gt_by_key = {}
    if args.benchmark:
        episodes, _ = _episodes(args, check_screenshots=False)
        gt_by_key = {s.key: s for ep in episodes for s in ep.steps}

    rows = []
    for key in sorted(cells):
        dist = build_distribution(cells[key], epsilon=args.epsilon,
                                  min_pts=args.min_pts)
        h = diversity(dist)
        theta = None
        level = None
        if key in gt_by_key:
            step = gt_by_key[key]
            theta = stability(dist, step.gt_action, step.gt_bbox)
            level = stability_level(theta)
        row = [key, dist.n, dist.support_size, h, effective_support(h),
               theta, level]
        if compare_cells is not None and key in compare_cells:
            other = build_distribution(compare_cells[key], epsilon=args.epsilon,
                                       min_pts=args.min_pts)
            shift = diversity_shift(h, diversity(other))
            row += [shift.delta_exp, shift.category]
            if key in gt_by_key:
                step = gt_by_key[key]
                theta_after = stability(other, step.gt_action, step.gt_bbox)
                row += [theta_after - theta, stability_shift(theta, theta_after)]
            else:
                row += [None, None]
        elif compare_cells is not None:
            row += [None, None, None, None]
        rows.append(row)

    header = ["cell", "n", "support", "diversity", "effective_support",
              "stability", "stability_level"]
    if compare_cells is not None:
        header += ["delta_exp_div", "diversity_shift", "delta_stability",
                   "stability_shift"]
    write_csv(args.out, header, rows)
    print(f"cells: {len(rows)} -> {args.out}")
    return 0


def cmd_judge(args, config: dict) -> int:
    from .judging import detector_validation, judge_case, load_cases
    from .reporting import write_csv

    dialect = get_dialect(args.dialect or config.get("dialect", "xml-toolcall"))
    cases = load_cases(args.cases)
    if args.backend != "mock":
        raise SystemExit("judge currently supports the mock backend only")

    # Scripted judges: each judge echoes the action named in the reasoning
    # trace when it can parse one, so labeled fixtures validate the pipeline.
    def judge_responder(request, seed, n):
        text = request.fixed_thought or ""
        parsed = dialect.parse_response(text)
        action = parsed.action
        if action is None:
            from .actions import Action

            action = Action(ActionKind.PRESS, button="BACK")
        rendered = dialect.render_response(action, thought="echo", conclusion="echo")
        return [rendered] * n

    gateways = []
    for j in range(args.judges):
        cfg = _endpoint_config(args, config, n=args.rollouts)
        gateways.append((f"judge{j}", ModelGateway(MockBackend(judge_responder), cfg),
                         dialect))

    rows = []
    labels = []
    preds = []
    for case in cases:
        verdict = judge_case(gateways, case, n=args.rollouts)
        per_judge = [
            f"{m.judge_id}:{m.decision.encode() if m.decision else 'abstain'}"
            for m in verdict.per_judge
        ]
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
        print(f"acc={validation.accuracy.value:.4f} "
              f"tpr={validation.tpr.value:.4f} tnr={validation.tnr.value:.4f}")
    print(f"cases: {len(rows)} -> {args.out}")
    return 0


def cmd_sweep(args, config: dict) -> int:
    from .reporting import SWEEP_COLUMNS, sweep_rows, write_csv
    from .semionline import SweepConfig, run_sweep

    dialect, episodes, backend = _replay_inputs(args, config)
    pool = _load_pool(args.pool)
    gateway = ModelGateway(backend, _endpoint_config(args, config))
    schedule_cfg = dict(config.get("schedule") or {})
    sweep_cfg = SweepConfig(
        kappa=args.kappa if args.kappa is not None
        else float(schedule_cfg.get("kappa", 16.0)),
        grid=args.grid if args.grid is not None
        else int(schedule_cfg.get("grid", 4)),
        samples_per_pair=args.samples_per_pair if args.samples_per_pair is not None
        else int(schedule_cfg.get("samples_per_pair", 50)),
        global_seed=args.global_seed,
    )
    results = run_sweep(gateway, episodes, dialect, pool, sweep_cfg,
                        concurrency=args.concurrency or 1,
                        enable_thinking=args.enable_thinking)
    write_csv(args.out, SWEEP_COLUMNS, sweep_rows(results))
    print(f"settings: {len(results)} -> {args.out}")
    return 0


def cmd_reward(args, config: dict) -> int:
    from .reporting import write_csv
    from .rewards import group_advantages, reward_binary, reward_gaussian_click

    rows = []
    if args.groups:
        with open(args.groups, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                rec = json.loads(line)
                result = group_advantages(rec["rewards"])
                rows.append([rec.get("group_id", len(rows)),
                             json.dumps(rec["rewards"]),
                             json.dumps([round(a, 6) for a in result.advantages]),
                             result.zero_variance])
        write_csv(args.out, ("group_id", "rewards", "advantages", "zero_variance"), rows)
    elif args.steps:
        with open(args.steps, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                rec = json.loads(line)
                gt = decode_action(rec["gt_kind"], rec.get("gt_params") or {})
                pred = None
                if rec.get("pred_kind"):
                    pred = decode_action(rec["pred_kind"], rec.get("pred_params") or {})
                bbox = None
                if rec.get("gt_bbox"):
                    from .actions import BBox

                    bb = rec["gt_bbox"]
                    bbox = BBox(bb["x1"], bb["y1"], bb["x2"], bb["y2"])
                breakdown = reward_binary(pred, gt, bbox)
                total = breakdown.total
                if (args.mode == "gaussian" and breakdown.r_type == 1.0
                        and pred is not None and pred.kind.value in ("CLICK",)
                        and bbox is not None):
                    total = breakdown.r_type + reward_gaussian_click(pred.point, bbox)
                rows.append([rec.get("id", len(rows)), breakdown.r_type,
                             breakdown.r_params, total])
        write_csv(args.out, ("id", "r_type", "r_params", "total"), rows)
    else:
        raise SystemExit("reward needs --groups or --steps")
    print(f"rows: {len(rows)} -> {args.out}")
    return 0


def cmd_report(args, config: dict) -> int:
    from .reporting import markdown_table

    records, manifest, warnings = load_run(args.run_dir)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not records:
        raise SystemExit("run directory holds no records")
    manifest = manifest or {}
    if not config.get("policy"):
        config = {**config, "policy": {k: manifest[k] for k in _POLICY_KEYS if k in manifest}}
    episodes = _episodes(args, check_screenshots=False)[0] if args.benchmark else None
    mode = manifest.get("mode", "offline")
    report = _report_run(args.run_dir, records, episodes, _policy(args, config), mode)
    print(markdown_table(
        ("steps", "scored", "type", "exact"),
        [[report.n_steps, report.n_steps_scored, report.type_match, report.exact_match]],
    ))
    return 0


def cmd_stats(args, config: dict) -> int:
    from .stats import (
        Contingency2x2,
        contingency_stats,
        correlation_report,
        multi_seed_summary,
        wilson_interval,
    )

    if args.stat == "correlation":
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
        t = Contingency2x2(args.a, args.b, args.c, args.d)
        s = contingency_stats(t)
        print(f"match ratios: {s.match_ratio_first:.2f} / {s.match_ratio_second:.2f}")
        print(f"relative risk: {s.relative_risk:.4f}  odds ratio: {s.odds_ratio:.4f}")
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
    return 0


def _finite_or_none(cell: Optional[str]) -> Optional[float]:
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


# --- argument parsing -------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, benchmark: bool = True) -> None:
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--seed-list", help="comma-separated seeds, one per round")
    p.add_argument("--out-dir", help="output directory")
    if benchmark:
        p.add_argument("--benchmark", help="episode file (JSONL); config fallback")
        p.add_argument("--limit-episodes", type=int)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dialect", choices=["xml-toolcall", "thought-action", "plain-json"])
    p.add_argument("--backend", choices=["mock", "http"], default="mock")
    p.add_argument("--mock-policy", default="oracle",
                   help="oracle | wrong | alternating | history-echo | noisy-oracle")
    p.add_argument("--endpoint-url")
    p.add_argument("--model")
    p.add_argument("--concurrency", type=int)
    p.add_argument("--enable-thinking", dest="enable_thinking", action="store_true",
                   default=True)
    p.add_argument("--no-thinking", dest="enable_thinking", action="store_false")
    p.add_argument("--continue-on-error", action="store_true",
                   help="leave failing episodes incomplete instead of aborting")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trajkit",
                                     description="GUI-agent trajectory evaluation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate an episode file")
    _add_common(p)
    p.add_argument("--no-check-screenshots", action="store_true")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("make-fixture", help="generate a synthetic benchmark")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--episodes", type=int, default=4)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.set_defaults(func=cmd_make_fixture)

    p = sub.add_parser("eval", help="offline trajectory replay")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--mode", choices=["offline"], default="offline")
    p.add_argument("--exclude-gt-kinds")
    p.add_argument("--min-comparable", type=float)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("soeval", help="semi-online replay")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--mode", choices=["live", "pool"], default="live")
    p.add_argument("--pool", help="artifact pool file (pool mode)")
    p.add_argument("--exclude-gt-kinds")
    p.add_argument("--min-comparable", type=float)
    p.set_defaults(func=cmd_soeval)

    p = sub.add_parser("rollout", help="n-sample collection for decision analytics")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("cluster", help="decision distributions from rollout logs")
    p.add_argument("--rollouts", required=True)
    p.add_argument("--compare", help="second rollout log; emit shift columns")
    p.add_argument("--benchmark")
    p.add_argument("--limit-episodes", type=int)
    p.add_argument("--dialect", choices=["xml-toolcall", "thought-action", "plain-json"],
                   help="unused: samples come from each record's structured prediction")
    # decisions.DBSCAN_EPSILON and DBSCAN_MIN_PTS, written out so that
    # building the parser does not import the clustering code.
    p.add_argument("--epsilon", type=float, default=70.0,
                   help="DBSCAN radius, per-mille (default: %(default)s)")
    p.add_argument("--min-pts", type=int, default=3,
                   help="DBSCAN core-point count (default: %(default)s)")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("judge", help="reasoning-execution consistency judging")
    p.add_argument("--cases", required=True)
    p.add_argument("--judges", type=int, default=3)
    p.add_argument("--rollouts", type=int, default=32)
    p.add_argument("--dialect", choices=["xml-toolcall", "thought-action", "plain-json"])
    p.add_argument("--backend", choices=["mock", "http"], default="mock")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_judge)

    p = sub.add_parser("sweep", help="history-mixing regime sweep")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--pool", required=True)
    p.add_argument("--kappa", type=float)
    p.add_argument("--grid", type=int)
    p.add_argument("--samples-per-pair", type=int)
    p.add_argument("--global-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reward", help="batch reward / advantage scoring")
    p.add_argument("--groups", help="JSONL of {group_id, rewards}")
    p.add_argument("--steps", help="JSONL of {pred_kind, pred_params, gt_kind, gt_params, gt_bbox}")
    p.add_argument("--mode", choices=["binary", "gaussian"], default="binary")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("report", help="re-emit reports from a run directory")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--benchmark")
    p.add_argument("--limit-episodes", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("stats", help="statistical utilities")
    stat_sub = p.add_subparsers(dest="stat", required=True)
    q = stat_sub.add_parser("correlation")
    q.add_argument("--csv", required=True)
    q.add_argument("--online-col", default="online")
    q.add_argument("--out", default="correlation.csv")
    q.add_argument("--config")
    q.set_defaults(func=cmd_stats)
    q = stat_sub.add_parser("contingency")
    q.add_argument("a", type=int)
    q.add_argument("b", type=int)
    q.add_argument("c", type=int)
    q.add_argument("d", type=int)
    q.add_argument("--config")
    q.set_defaults(func=cmd_stats)
    q = stat_sub.add_parser("wilson")
    q.add_argument("successes", type=int)
    q.add_argument("n", type=int)
    q.add_argument("--config")
    q.set_defaults(func=cmd_stats)
    q = stat_sub.add_parser("seeds")
    q.add_argument("values", type=float, nargs="+")
    q.add_argument("--config")
    q.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _load_config(getattr(args, "config", None))
    try:
        return args.func(args, config)
    except (ConfigMismatchError, CorruptRecordsError, InputError) as exc:
        print(f"trajkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
