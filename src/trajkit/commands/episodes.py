"""``trajkit make-fixture`` and ``trajkit ingest``: write and check an episode file."""

import json
import sys
from pathlib import Path

from ..settings import benchmark


def cmd_ingest(args) -> int:
    from ..reporting import write_rejection_report
    from ..store import load_episodes

    report = load_episodes(benchmark(args), check_screenshots=not args.no_check_screenshots)
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
    from .. import synth

    path = synth.make_benchmark_file(args.out_dir, n_episodes=args.episodes,
                                     steps_per_episode=args.steps, seed=args.seed)
    print(path)
    return 0
