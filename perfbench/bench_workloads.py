"""The three workloads: set-up, one timed round of CLI commands, and its checks.

Each round drives the ``trajkit`` CLI as child processes, one at a time,
so the figures include interpreter start and import, as a user pays them.
Checks compare outputs with values derived here from the generated inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import bench_inputs as bi
from bench_metrics import step_gaps
from bench_stub import StubServer

COMMAND_TIMEOUT_S = 120.0
#: Episode concurrency and connection ceiling: the machine's processor count.
NPROC = len(os.sched_getaffinity(0))


class Ledger:
    """Operations attempted and failed: steps, commands and correctness checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checks = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        self.checks += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def steps(self, expected: set[str], got: list[str], what: str) -> None:
        """Each expected step is one operation; missing, extra or repeated keys fail."""
        missing = len(expected - set(got))
        extra = len(got) - (len(expected) - missing)
        self.attempted += len(expected)
        if missing or extra:
            self.failed += missing + extra
            self.problems.append(f"{what}: {missing} missing, {extra} extra records")


@dataclass
class Cmd:
    name: str
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str


@dataclass
class Context:
    root: Path  # checkout root; trajkit is imported from root/src
    seed: int
    ledger: Ledger = field(default_factory=Ledger)

    @property
    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env


def _wait(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Reap ``proc`` and return (exit code, peak RSS in MB); kill it past ``timeout``.

    If the wait is interrupted, the child is killed and reaped before the
    exception propagates, so no process outlives the benchmark.
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def start_cli(ctx: Context, name: str, args: list[str], log_dir: Path):
    log_dir.mkdir(parents=True, exist_ok=True)
    with (log_dir / f"{name}.out").open("wb") as out, \
            (log_dir / f"{name}.err").open("wb") as err:
        return subprocess.Popen([sys.executable, "-m", "trajkit.cli", *args],
                                stdout=out, stderr=err, env=ctx.env, cwd=ctx.root)


def finish_cli(ctx: Context, name: str, proc, t0: float, log_dir: Path) -> Cmd:
    rc, rss = _wait(proc, COMMAND_TIMEOUT_S)
    wall = time.perf_counter() - t0
    stdout = (log_dir / f"{name}.out").read_text(encoding="utf-8", errors="replace")
    if not ctx.ledger.check(rc == 0, f"{name}: exit code {rc}"):
        err = (log_dir / f"{name}.err").read_text(encoding="utf-8", errors="replace")
        ctx.ledger.problems.append(err.strip().splitlines()[-1] if err.strip() else "")
    return Cmd(name, rc, wall, rss, stdout)


def run_cli(ctx: Context, name: str, args: list[str], log_dir: Path) -> Cmd:
    t0 = time.perf_counter()
    return finish_cli(ctx, name, start_cli(ctx, name, args, log_dir), t0, log_dir)


def read_records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def read_csv(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def printed(pattern: str, text: str) -> Optional[float]:
    m = re.search(pattern, text)
    if m is None or m.group(1) == "None":
        return None
    return float(m.group(1))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""


# --- expected values, derived from the answer table ---------------------------


def expected_scores(inp: bi.Inputs) -> dict:
    """Exact match, progress and OSR implied by which answers are right."""
    right = inp.correct
    eps = inp.episodes()
    n = len(inp.steps)
    progress = []
    on_policy = positions = 0
    for steps in eps.values():
        prefix = 0
        for s in steps:
            if not right[s.key]:
                break
            prefix += 1
        progress.append(prefix / len(steps))
        for s in steps:
            positions += s.index
            on_policy += sum(right[t.key] for t in steps[:s.index])
    return {
        "exact": sum(right[s.key] for s in inp.steps) / n,
        "progress": sum(progress) / len(progress),
        "osr": on_policy / positions if positions else math.nan,
    }


def check_replay_records(ctx: Context, inp: bi.Inputs, run_dir: Path, mode: str) -> int:
    """Record count, per-step exact match and history sources; returns records kept."""
    records = read_records(run_dir / "records.jsonl")
    keys = [r.get("key") for r in records]
    ctx.ledger.steps({s.key for s in inp.steps}, keys, f"{mode} records")
    by_key = {s.key: s for s in inp.steps}
    episodes = inp.episodes()
    bad_match = bad_history = 0
    for r in records:
        step = by_key.get(r.get("key"))
        if step is None:
            continue
        if bool((r.get("evaluation") or {}).get("exact_match")) != inp.correct[step.key]:
            bad_match += 1
        prior = episodes[step.episode][:step.index]
        want = [False] * step.index if mode == "offline" else [inp.correct[t.key] for t in prior]
        if (r.get("history_sources") or []) != want:
            bad_history += 1
    ctx.ledger.check(bad_match == 0, f"{mode}: {bad_match} records disagree with the answer table")
    ctx.ledger.check(bad_history == 0, f"{mode}: {bad_history} records with wrong history sources")
    return len(records)


def check_printed_scores(ctx: Context, text: str, want: dict, mode: str,
                         osr: bool) -> None:
    exact = printed(r"exact: (\S+)", text)
    progress = printed(r"progress: (\S+)", text)
    ctx.ledger.check(exact is not None and abs(exact - want["exact"]) < 1e-9,
                     f"{mode}: printed exact {exact} != {want['exact']}")
    ctx.ledger.check(progress is not None and abs(progress - want["progress"]) < 1e-9,
                     f"{mode}: printed progress {progress} != {want['progress']}")
    if osr:
        value = printed(r"OSR: (\S+)", text)
        ctx.ledger.check(value is not None and abs(value - want["osr"]) < 5.1e-5,
                         f"{mode}: printed OSR {value} != {want['osr']:.6f}")


# --- replay-remote ------------------------------------------------------------


class ReplayRemote:
    name = "replay-remote"
    PHASES = ("eval", "soeval", "pool")

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self, root: Path) -> tuple[bi.Inputs, StubServer]:
        rng = random.Random(f"{self.ctx.seed}/replay")
        inp = bi.make_fixture(self.name, self.ctx.seed, root)
        bi.write_screenshots(inp, rng)
        bi.make_answer_table(inp, rng)
        inp.fail_first = set(rng.sample(sorted(inp.correct), inp.size["fail_first"]))
        stub = StubServer(inp.answers, inp.fail_first).start()
        return inp, stub

    def commands(self, url: str, out: Path, inp: bi.Inputs) -> list[tuple[str, list[str]]]:
        common = ["--benchmark", str(inp.fixture), "--dialect", bi.DIALECT,
                  "--backend", "http", "--endpoint-url", url, "--concurrency", str(NPROC)]
        return [
            ("eval", ["eval", *common, "--out-dir", str(out / "eval")]),
            ("soeval", ["soeval", *common, "--mode", "live", "--out-dir", str(out / "soeval")]),
            ("pool", ["soeval", *common, "--mode", "pool", "--pool",
                      str(out / "soeval" / "pool.jsonl"), "--out-dir", str(out / "pool")]),
        ]

    def round(self, inp: bi.Inputs, stub: StubServer, r: int) -> dict:
        ctx = self.ctx
        out = inp.root / f"round{r}"
        cmds, phase_stats = [], {}
        t0 = time.perf_counter()
        for phase, args in self.commands(stub.url, out, inp):
            stub.reset(f"r{r}-{phase}")
            cmds.append(run_cli(ctx, phase, args, out / "logs"))
            phase_stats[phase] = stub.reset("idle")
        wall = time.perf_counter() - t0

        want = expected_scores(inp)
        steps = 0
        gaps: list[float] = []
        for cmd, (phase, st) in zip(cmds, phase_stats.items()):
            mode = {"eval": "offline", "soeval": "live", "pool": "pool"}[phase]
            steps += check_replay_records(ctx, inp, out / phase, mode)
            check_printed_scores(ctx, cmd.stdout, want, phase, osr=phase != "eval")
            self.check_stub(inp, st, phase)
            gaps += step_gaps(st.events)
        stats = list(phase_stats.values())
        calls = sum(s.requests for s in stats)
        record_bytes = sum((out / p / "records.jsonl").stat().st_size
                           for p in self.PHASES if (out / p / "records.jsonl").exists())
        return {
            "wall_s": wall, "cmds": cmds, "steps": steps, "gaps": gaps,
            "record_bytes_per_step": record_bytes / steps if steps else 0.0,
            "calls": calls, "retries": sum(s.injected_503 for s in stats),
            "connections": sum(s.connections for s in stats),
            "request_bytes": sum(s.request_bytes for s in stats),
            "max_in_flight": max(s.max_in_flight for s in stats),
            "max_open_connections": max(s.max_open_connections for s in stats),
            "stub_cpu_s": sum(s.busy_cpu_s for s in stats),
        }

    def check_stub(self, inp: bi.Inputs, st, phase: str) -> None:
        ok_keys = [f"{e.episode}/{e.step}" for e in st.events if e.status == 200]
        led = self.ctx.ledger
        led.check(sorted(ok_keys) == sorted(s.key for s in inp.steps),
                  f"{phase}: stub answered {len(ok_keys)} steps, want one per step")
        led.check(st.injected_503 == len(inp.fail_first),
                  f"{phase}: {st.injected_503} injected 503s, want {len(inp.fail_first)}")
        failed_5xx = {f"{e.episode}/{e.step}" for e in st.events if e.status >= 500}
        led.check(failed_5xx <= set(ok_keys), f"{phase}: 5xx left after retries")
        led.check(st.unknown == 0, f"{phase}: {st.unknown} requests for unknown steps")
        led.check(st.max_in_flight <= NPROC and st.max_open_connections <= NPROC,
                  f"{phase}: {st.max_in_flight} in flight, {st.max_open_connections} "
                  f"connections open, limit {NPROC}")


# --- analytics-local ----------------------------------------------------------


def exact_match(kind: str, params: dict, step: bi.GtStep) -> bool:
    """Per-kind matching rules, written out here so the audit does not reuse trajkit's."""
    if kind != step.kind:
        return False
    if kind in ("CLICK", "LONG_PRESS"):
        x, y = params["point"]
        if step.bbox:
            b = step.bbox
            return b["x1"] <= x <= b["x2"] and b["y1"] <= y <= b["y2"]
        gx, gy = step.params["point"]
        return math.hypot(x - gx, y - gy) <= 70.0
    if kind == "SCROLL":
        return params.get("to") == step.params.get("to")
    if kind == "TYPE":
        return str(params.get("input", "")).strip() == str(step.params.get("input", "")).strip()
    if kind == "OPEN":
        return str(params.get("app", "")).strip() == str(step.params.get("app", "")).strip()
    if kind == "PRESS":
        return params.get("press") == step.params.get("press")
    return True


def stability_mismatches(inp: bi.Inputs, rollouts: list[dict], cells: list[dict]) -> int:
    """Cells whose reported stability is more than 0.3 from their samples' exact-match rate."""
    by_key = {s.key: s for s in inp.steps}
    hits: dict[str, list[bool]] = {}
    for r in rollouts:
        key = f"{r['episode_id']}/{r['step_index']}"
        ok = r.get("pred_kind") is not None and exact_match(
            r["pred_kind"], r.get("pred_params") or {}, by_key[key])
        hits.setdefault(key, []).append(ok)
    count = 0
    for row in cells:
        samples = hits.get(row["cell"])
        if samples and row["stability"] not in ("", None):
            if abs(float(row["stability"]) - sum(samples) / len(samples)) > 0.3:
                count += 1
    return count


class AnalyticsLocal:
    name = "analytics-local"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self, root: Path) -> tuple[bi.Inputs, None]:
        rng = random.Random(f"{self.ctx.seed}/analytics")
        inp = bi.make_fixture(self.name, self.ctx.seed, root)
        bi.make_answer_table(inp, rng)
        bi.build_pool(inp)
        inp.seed_list = [rng.randrange(1, 10**7) for _ in range(inp.size["rounds"])]
        return inp, None

    def round(self, inp: bi.Inputs, stub: None, r: int) -> dict:
        ctx, size = self.ctx, inp.size
        out = inp.root / f"round{r}"
        logs = out / "logs"
        fx = str(inp.fixture)
        t0 = time.perf_counter()
        rollout = run_cli(ctx, "rollout", [
            "rollout", "--benchmark", fx, "--dialect", bi.DIALECT, "--backend", "mock",
            "--mock-policy", "noisy-oracle", "--rounds", str(size["rounds"]),
            "--samples", str(size["samples"]),
            "--seed-list", ",".join(map(str, inp.seed_list)),
            "--out-dir", str(out / "rollout")], logs)
        cluster = run_cli(ctx, "cluster", [
            "cluster", "--rollouts", str(out / "rollout" / "rollouts.jsonl"),
            "--benchmark", fx, "--dialect", bi.DIALECT, "--out", str(out / "cells.csv")], logs)
        sweep = run_cli(ctx, "sweep", [
            "sweep", "--benchmark", fx, "--dialect", bi.DIALECT, "--backend", "mock",
            "--mock-policy", "history-echo", "--pool", str(inp.pool), "--kappa", "16",
            "--grid", str(size["grid"]), "--samples-per-pair", str(size["samples_per_pair"]),
            "--global-seed", str(ctx.seed), "--out", str(out / "sweep.csv")], logs)
        sweep_rows = read_csv(out / "sweep.csv")
        corr_in = out / "osr_vs_exact.csv"
        with corr_in.open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["target_mean", "realized_osr", "exact_match"])
            w.writerows([row["target_mean"], row["realized_osr"], row["exact_match"]]
                         for row in sweep_rows)
        stats = run_cli(ctx, "stats-correlation", [
            "stats", "correlation", "--csv", str(corr_in), "--online-col", "exact_match",
            "--out", str(out / "correlation.csv")], logs)
        wall = time.perf_counter() - t0

        led = ctx.ledger
        keys = {s.key for s in inp.steps}
        rollouts = read_records(out / "rollout" / "rollouts.jsonl")
        per_cell = size["rounds"] * size["samples"]
        n_samples = len(keys) * per_cell
        got = [f"{r['episode_id']}/{r['step_index']}/{r.get('round', 0)}/{r.get('sample', 0)}"
               for r in rollouts]
        want = {f"{k}/{i}/{j}" for k in keys
                for i in range(size["rounds"]) for j in range(size["samples"])}
        led.steps(want, got, "rollout samples")
        cells = read_csv(out / "cells.csv")
        led.check(sorted(c["cell"] for c in cells) == sorted(keys),
                  f"cluster: {len(cells)} cells, want {len(keys)}")
        led.check(all(c["n"] == str(per_cell) for c in cells),
                  f"cluster: a cell without {per_cell} samples")
        n_settings = size["grid"] ** 2 * size["samples_per_pair"]
        led.check(len(sweep_rows) == n_settings,
                  f"sweep: {len(sweep_rows)} settings, want {n_settings}")
        positions = sum(s.index for s in inp.steps)
        led.check(all(row["positions"] == str(positions) for row in sweep_rows),
                  f"sweep: a setting without {positions} history positions")
        led.check(len(read_csv(out / "correlation.csv")) == 2,
                  "stats correlation: want one row per metric column")
        return {
            "wall_s": wall, "cmds": [rollout, cluster, sweep, stats],
            "rollout_samples_per_s": n_samples / rollout.wall_s,
            "cluster_cells_per_s": len(keys) / cluster.wall_s,
            "sweep_steps_per_s": n_settings * len(keys) / sweep.wall_s,
            "stability_mismatch_cells": stability_mismatches(inp, rollouts, cells),
            "cells": len(cells),
            "record_bytes_per_step": (out / "rollout" / "rollouts.jsonl").stat().st_size
            / len(rollouts) if rollouts else 0.0,
        }


# --- resume-and-report --------------------------------------------------------


class ResumeAndReport:
    name = "resume-and-report"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self, root: Path) -> tuple[bi.Inputs, StubServer]:
        rng = random.Random(f"{self.ctx.seed}/resume")
        inp = bi.make_fixture(self.name, self.ctx.seed, root)
        # The run directories are made by the CLI's own alternating mock policy.
        inp.correct = {s.key: s.index % 2 == 0 for s in inp.steps}
        logs = root / "logs"
        procs = []
        t0 = time.perf_counter()
        for mode in ("eval", "soeval"):
            run_dir = root / f"{mode}_run"
            inp.run_dirs[mode] = run_dir
            procs.append((mode, start_cli(self.ctx, f"setup-{mode}", [
                mode, "--benchmark", str(inp.fixture), "--dialect", bi.DIALECT,
                "--backend", "mock", "--mock-policy", "alternating",
                "--out-dir", str(run_dir)], logs)))
        for mode, proc in procs:
            finish_cli(self.ctx, f"setup-{mode}", proc, t0, logs)
        bi.write_groups(inp, rng)
        bi.write_cases(inp, rng)
        inp.stat_args = bi.stat_arguments(rng)
        stub = StubServer({}, set()).start()
        return inp, stub

    def commands(self, inp: bi.Inputs, url: str, out: Path) -> list[tuple[str, list[str]]]:
        fx = str(inp.fixture)
        http = ["--benchmark", fx, "--dialect", bi.DIALECT, "--backend", "http",
                "--endpoint-url", url, "--concurrency", str(NPROC)]
        a = inp.stat_args
        return [
            ("eval", ["eval", *http, "--out-dir", str(inp.run_dirs["eval"])]),
            ("soeval", ["soeval", *http, "--out-dir", str(inp.run_dirs["soeval"])]),
            ("report", ["report", "--run-dir", str(inp.run_dirs["eval"]), "--benchmark", fx]),
            ("ingest", ["ingest", "--benchmark", fx, "--out-dir", str(out / "ingest")]),
            ("reward", ["reward", "--groups", str(inp.groups), "--out", str(out / "adv.csv")]),
            ("judge", ["judge", "--cases", str(inp.cases), "--dialect", bi.DIALECT,
                       "--judges", str(inp.size["judges"]),
                       "--rollouts", str(inp.size["judge_rollouts"]),
                       "--out", str(out / "verdicts.csv")]),
            ("stats-wilson", ["stats", "wilson", *map(str, a["wilson"])]),
            ("stats-contingency", ["stats", "contingency", *map(str, a["contingency"])]),
            ("stats-seeds", ["stats", "seeds", *map(str, a["seeds"])]),
        ]

    def round(self, inp: bi.Inputs, stub: StubServer, r: int) -> dict:
        ctx = self.ctx
        out = inp.root / f"round{r}"
        before = {m: sha256(d / "records.jsonl") for m, d in inp.run_dirs.items()}
        stub.reset(f"r{r}")
        cmds = []
        t0 = time.perf_counter()
        for name, args in self.commands(inp, stub.url, out):
            cmds.append(run_cli(ctx, name, args, out / "logs"))
        wall = time.perf_counter() - t0
        st = stub.reset("idle")
        self.check(inp, out, {c.name: c for c in cmds}, before, st)
        records = inp.run_dirs["eval"] / "records.jsonl"
        return {"wall_s": wall, "cmds": cmds, "calls": st.requests,
                "connections": st.connections,
                "record_bytes_per_step": records.stat().st_size / len(inp.steps)
                if records.exists() else 0.0}

    def check(self, inp: bi.Inputs, out: Path, cmds: dict, before: dict, st) -> None:
        led = self.ctx.ledger
        want = expected_scores(inp)
        n = len(inp.steps)
        for mode in ("eval", "soeval"):
            text = cmds[mode].stdout
            led.check(printed(r"steps: (\d+)", text) == n, f"{mode} resume: step count")
            check_printed_scores(self.ctx, text, want, f"{mode} resume", osr=mode == "soeval")
            led.check(sha256(inp.run_dirs[mode] / "records.jsonl") == before[mode],
                      f"{mode} resume: records.jsonl changed")
        led.check(st.requests == 0, f"resume: endpoint saw {st.requests} calls, want 0")
        row = f"| {n} | {n} | {want['exact']:.4f} | {want['exact']:.4f} |"
        led.check(row in cmds["report"].stdout, f"report: no row {row!r}")
        led.check(f"episodes: {len(inp.episodes())}  rejections: 0" in cmds["ingest"].stdout,
                  "ingest: episode or rejection count")
        self.check_rewards(inp, read_csv(out / "adv.csv"))
        verdicts = {v["case"]: v["consistent"] == "True" for v in read_csv(out / "verdicts.csv")}
        led.check(verdicts == inp.case_labels, f"judge: verdicts {verdicts}")
        self.check_stats(inp.stat_args, cmds)

    def check_rewards(self, inp: bi.Inputs, rows: list[dict]) -> None:
        groups = [json.loads(line) for line in inp.groups.read_text().splitlines()]
        bad = len(groups) != len(rows)
        for g, row in zip(groups, rows):
            r = g["rewards"]
            mean = sum(r) / len(r)
            std = math.sqrt(sum((x - mean) ** 2 for x in r) / len(r))
            adv = [round((x - mean) / std, 6) if std else 0.0 for x in r]
            bad |= row["group_id"] != g["group_id"] or json.loads(row["advantages"]) != adv
        self.ctx.ledger.check(not bad, "reward: advantages differ from the group z-scores")

    def check_stats(self, a: dict, cmds: dict) -> None:
        from scipy.stats import t as student_t

        led = self.ctx.ledger
        s, n = a["wilson"]
        z, p = 1.96, s / n
        centre = (p + z * z / (2 * n)) / (1 + z * z / n)
        half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
        want = f"[{centre - half:.4f}, {centre + half:.4f}]"
        led.check(want in cmds["stats-wilson"].stdout, f"stats wilson: want {want}")

        ca, cb, cc, cd = a["contingency"]
        r1, r2 = 100 * ca / (ca + cc), 100 * cb / (cb + cd)
        chi2 = (ca + cb + cc + cd) * (ca * cd - cb * cc) ** 2 / (
            (ca + cb) * (cc + cd) * (ca + cc) * (cb + cd))
        text = cmds["stats-contingency"].stdout
        for want in (f"match ratios: {r1:.2f} / {r2:.2f}",
                     f"relative risk: {r1 / r2:.4f}  odds ratio: {ca * cd / (cb * cc):.4f}",
                     f"chi2: {chi2:.2f}  phi: {math.sqrt(chi2 / (ca + cb + cc + cd)):.4f}"):
            led.check(want in text, f"stats contingency: want {want!r}")

        v = a["seeds"]
        k = len(v)
        mean = sum(v) / k
        half = float(student_t.ppf(0.975, k - 1)) * math.sqrt(
            sum((x - mean) ** 2 for x in v) / (k - 1)) / math.sqrt(k)
        want = f"mean {mean:.4f}  CI [{mean - half:.4f}, {mean + half:.4f}]"
        led.check(want in cmds["stats-seeds"].stdout, f"stats seeds: want {want!r}")


WORKLOADS = {w.name: w for w in (ReplayRemote, AnalyticsLocal, ResumeAndReport)}


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
