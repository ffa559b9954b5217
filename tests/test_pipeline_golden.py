"""Byte anchors for the fixture pipeline.

A 4x5 fixture runs in-process through eval -> live soeval -> pool ->
rollout -> cluster -> sweep, and the SHA-256 of each path-free output is
compared with ``tests/golden/pipeline.sha256``: the records and pools, the
cluster and sweep tables, and each replay's ``report.csv``, ``report.md``
and ``horizon.csv``. A refactor of the replay or report code must leave
every digest as it is.
"""

import hashlib
import time
from pathlib import Path

from trajkit import synth
from trajkit.cli import main

DIGESTS = Path(__file__).parent / "golden" / "pipeline.sha256"


def run_pipeline(root: Path) -> dict[str, Path]:
    """Run the fixture pipeline under ``root``; returns output name -> file."""
    bench = synth.make_benchmark_file(root / "bench", n_episodes=4, steps_per_episode=5,
                                      seed=11)
    common = ["--benchmark", str(bench), "--backend", "mock"]
    steps = [
        ["eval", *common, "--mock-policy", "noisy-oracle", "--out-dir", str(root / "eval")],
        ["soeval", "--mode", "live", *common, "--mock-policy", "alternating",
         "--out-dir", str(root / "live")],
        ["soeval", "--mode", "pool", *common, "--mock-policy", "history-echo",
         "--pool", str(root / "live" / "pool.jsonl"), "--out-dir", str(root / "pool")],
        ["rollout", *common, "--mock-policy", "noisy-oracle", "--rounds", "2",
         "--samples", "4", "--out-dir", str(root / "rollout")],
        ["cluster", "--rollouts", str(root / "rollout" / "rollouts.jsonl"),
         "--benchmark", str(bench), "--out", str(root / "cells.csv")],
        ["sweep", *common, "--mock-policy", "history-echo",
         "--pool", str(root / "live" / "pool.jsonl"), "--grid", "3",
         "--samples-per-pair", "2", "--global-seed", "4", "--out", str(root / "sweep.csv")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    outputs = {
        "eval/records.jsonl": root / "eval" / "records.jsonl",
        "live/records.jsonl": root / "live" / "records.jsonl",
        "live/pool.jsonl": root / "live" / "pool.jsonl",
        "pool/records.jsonl": root / "pool" / "records.jsonl",
        "rollout/rollouts.jsonl": root / "rollout" / "rollouts.jsonl",
        "rollout/pool.jsonl": root / "rollout" / "pool.jsonl",
        "cells.csv": root / "cells.csv",
        "sweep.csv": root / "sweep.csv",
    }
    outputs.update({f"{run}/{name}": root / run / name
                    for run in ("eval", "live", "pool")
                    for name in ("report.csv", "report.md", "horizon.csv")})
    return outputs


def digest_lines(outputs: dict[str, Path]) -> list[str]:
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}"
            for name, path in outputs.items()]


def test_fixture_pipeline_outputs_match_digests(tmp_path):
    t0 = time.perf_counter()
    got = digest_lines(run_pipeline(tmp_path))
    elapsed = time.perf_counter() - t0
    want = DIGESTS.read_text(encoding="utf-8").splitlines()
    assert got == want
    assert elapsed < 5.0, f"pipeline took {elapsed:.2f} s"
