"""trajkit benchmark: three workloads driven through the CLI, plus a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay-remote --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: it repeats the workload's
command sequence until ``--seconds`` have passed, building the inputs
afresh (several times, timed; the median is ``setup_s``) before each
round, and reports medians.
``--trace 1`` runs the sequence once untraced through the CLI for the
workload-level figures and endpoint counts, times fresh imports, and then
spends the rest of ``--seconds`` in one child process (``bench_traced.py``)
that alternates untraced and traced in-process re-enactments, for the
per-layer times and the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The lines before it say
what was measured, on how many samples, in what context, and which
correctness checks failed. See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Before each round the inputs are built afresh, repeating (at most 8 times)
#: while the batch has taken under 0.6 s, so set-up samples spread over the
#: whole run like the rounds do. The first batch has at least 2 builds.
SETUP_BATCH_S = 0.6
SETUP_BATCH_MAX = 8
IMPORT_REPEATS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["replay-remote", "analytics-local", "resume-and-report"])
    p.add_argument("--seed", type=int, required=True,
                   help="inputs are generated from this seed")
    p.add_argument("--second-seed", type=int,
                   help="also measure on inputs from this seed; metrics pool both")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def checkout_root() -> Path:
    """The directory the benchmark runs from; it must hold trajkit's sources."""
    root = Path.cwd().resolve()
    if not (root / "src" / "trajkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no trajkit sources under {root / 'src'}; "
                         "run from the root of a trajkit checkout")
    sys.path.insert(0, str(root / "src"))
    import trajkit

    if not Path(trajkit.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"perfbench: trajkit imported from {trajkit.__file__}, "
                         f"not from {root / 'src'}")
    return root


def context(args, nproc: int) -> dict:
    import numpy
    import scipy

    return {"seed": args.seed, "second_seed": args.second_seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


class Measurement:
    """Set-up, rounds and per-layer samples collected over one or two seeds."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.make_fixture_s: list[float] = []
        self.rounds: list[dict] = []
        self.children: list[dict] = []
        self.imports: dict[str, list[float]] = {"cli": [], "stats": []}


def discard(bw, kept) -> None:
    inp, stub = kept
    if stub is not None:
        stub.stop()
    bw.remove(inp.root)


def set_up(bw, wl, work: Path, m: Measurement, least: int):
    """Build the inputs ``least`` times or more, timing each build; keep the last."""
    kept, spent, k = None, 0.0, 0
    while k < least or (spent < SETUP_BATCH_S and k < SETUP_BATCH_MAX):
        if kept is not None:
            discard(bw, kept)
        t0 = time.perf_counter()
        kept = wl.setup(work / f"setup{len(m.setup_s)}")
        m.setup_s.append(time.perf_counter() - t0)
        m.make_fixture_s.append(kept[0].make_fixture_s)
        spent += m.setup_s[-1]
        k += 1
    return kept


def import_time(ctx, module: str) -> float:
    code = ("import time, sys; t = time.perf_counter(); import " + module +
            "; sys.stdout.write(repr(time.perf_counter() - t))")
    out = subprocess.run([sys.executable, "-c", code], env=ctx.env, cwd=ctx.root,
                         capture_output=True, text=True, timeout=120)
    ctx.ledger.check(out.returncode == 0, f"import {module}: exit code {out.returncode}")
    return float(out.stdout) if out.returncode == 0 else 0.0


def child_job(wl_name: str, inp, stub, out: Path, budget_s: float, nproc: int) -> dict:
    job = {"workload": wl_name, "budget_s": budget_s, "fixture": str(inp.fixture),
           "dialect": "xml-toolcall", "seed": inp.seed, "size": inp.size,
           "nproc": nproc, "out": str(out), "url": stub.url if stub else "",
           "pool": str(inp.pool) if inp.pool else "", "seed_list": inp.seed_list,
           "groups": str(inp.groups) if inp.groups else "",
           "cases": str(inp.cases) if inp.cases else "", "stat_args": inp.stat_args,
           "run_dirs": {}}
    for mode, run_dir in inp.run_dirs.items():
        copy = out / f"{mode}_run"
        shutil.copytree(run_dir, copy)
        job["run_dirs"][mode] = str(copy)
    return job


def run_child(bw, report, ctx, wl_name, inp, stub, budget_s: float, nproc: int):
    """One bench_traced.py process; returns its span summary, or None if it failed."""
    out = inp.root / "traced"
    out.mkdir(parents=True)
    job_path, result_path = out / "job.json", out / "result.json"
    job_path.write_text(json.dumps(child_job(wl_name, inp, stub, out, budget_s, nproc)))
    if stub is not None:
        stub.reset("traced")
    with (out / "err.txt").open("wb") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "bench_traced.py"), str(job_path),
                                 str(result_path)], env=ctx.env, cwd=ctx.root,
                                stdout=subprocess.DEVNULL, stderr=err)
    rc, _ = bw._wait(proc, bw.COMMAND_TIMEOUT_S)
    events = stub.reset("idle").events if stub is not None else []
    if not ctx.ledger.check(rc == 0, f"traced child: exit code {rc}"):
        ctx.ledger.problems.append((out / "err.txt").read_text()[-500:])
        return None
    result = json.loads(result_path.read_text())
    result.update(report.summarize_spans(json.loads((out / "spans.json").read_text()), events))
    return result


def measure_seed(bw, report, args, root: Path, seed: int, seconds: float, work: Path,
                 ledger, m: Measurement, nproc: int) -> None:
    ctx = bw.Context(root, seed, ledger)
    wl = bw.WORKLOADS[args.workload](ctx)
    if args.trace == 0:
        measured = 0.0
        while measured < seconds:
            kept = set_up(bw, wl, work, m, least=1 if m.rounds else 2)
            try:
                t0 = time.perf_counter()
                m.rounds.append(wl.round(*kept, len(m.rounds)))
                measured += time.perf_counter() - t0
            finally:
                discard(bw, kept)
        return
    kept = set_up(bw, wl, work, m, least=3)
    inp, stub = kept
    try:
        t0 = time.perf_counter()
        m.rounds.append(wl.round(inp, stub, len(m.rounds)))
        for _ in range(IMPORT_REPEATS):
            m.imports["cli"].append(import_time(ctx, "trajkit.cli"))
            m.imports["stats"].append(import_time(ctx, "trajkit.stats"))
        budget = max(0.0, seconds - (time.perf_counter() - t0))
        child = run_child(bw, report, ctx, args.workload, inp, stub, budget, nproc)
        if child is not None:
            m.children.append(child)
    finally:
        discard(bw, kept)


def main(argv=None) -> int:
    # SIGTERM unwinds like Ctrl-C, so children are killed and the work dir removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    root = checkout_root()
    sys.path.insert(0, str(HERE))
    import bench_report
    import bench_workloads as bw

    seeds = [args.seed] + ([args.second_seed] if args.second_seed is not None else [])
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    ledger = bw.Ledger()
    m = Measurement()
    try:
        for i, seed in enumerate(seeds):
            measure_seed(bw, bench_report, args, root, seed, args.seconds / len(seeds),
                         work / f"seed{i}", ledger, m, bw.NPROC)
    finally:
        bw.remove(work)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    ctx = context(args, bw.NPROC)
    if args.trace == 0:
        metrics, notes = bench_report.end_to_end(m)
    else:
        metrics, notes = bench_report.per_layer(m)
    failed_ratio = ledger.failed / max(ledger.attempted, 1)
    if "failed_ops_ratio" in metrics:
        metrics["failed_ops_ratio"] = (failed_ratio, "ratio")
    notes["failed_ops_ratio"] = f"{failed_ratio:.6g} ({ledger.failed} of {ledger.attempted})"
    ctx["samples"] = notes.pop("samples")
    print("context: " + json.dumps(ctx, sort_keys=True))
    for name, value in notes.items():
        print(f"note: {name} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"metric: {name} = {value:.6g} {unit}")
    print(f"checks: {ledger.checks} run, {len(ledger.problems)} problems")
    for problem in ledger.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
