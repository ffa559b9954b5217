"""Command-line surface.

Subcommands: ingest, make-fixture, eval, soeval, rollout, cluster, judge,
sweep, reward, report, stats. Every command takes --config (YAML); a flag
given on the command line wins over the config (see ``settings.SETTINGS``).
The mock backend plus a scripted policy makes every command runnable
offline and byte-reproducibly. Each command's body lives in a module of
``trajkit.commands``, which ``main`` imports once the command line parses.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import Optional, Sequence

from .errors import (ConfigMismatchError, CorruptRecordsError, EmptyReportError,
                     EndpointUnavailableError, InputError, UnresolvableObservationError,
                     WorkerDiedError)
from .settings import (DIALECT_IDS, SETTINGS, _non_negative_float, _non_negative_int, dests,
                       finite_float, positive_int, resolve_settings)


def make_noisy_responder(episodes, dialect):
    """``synth.make_noisy_responder``, by its old import path."""
    from .synth import make_noisy_responder

    return make_noisy_responder(episodes, dialect)


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


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand. When ``command`` names one, every name
    is still registered, but only that command's arguments are built; its
    help, usage and errors read as the full parser's."""
    parser = _Parser(prog="trajkit", description="GUI-agent trajectory evaluation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    # Registers a command; if it is to be built, adds its groups' flags and
    # ``func``, the ``module:function`` of ``trajkit.commands`` that runs it.
    def build(name: str, help_text: str, func: str, *groups):
        p = sub.add_parser(name, help=help_text)
        if command not in (None, name):
            return None
        for add_group in groups:
            add_group(p)
        p.set_defaults(func=func)
        return p

    # Flags that several subcommands share, each declared once.
    def config(p):
        p.add_argument("--config", help="YAML config file; a flag wins over it")
        return p

    def dialect(p):
        _setting_flag(p, "--dialect", choices=DIALECT_IDS)

    def benchmark(p):
        _setting_flag(p, "--benchmark", help="episode file (JSONL)")

    def out_dir(p):
        p.add_argument("--out-dir", help="output directory")

    # Commands that replay can cut the file to its first N episodes; all but
    # sweep, which writes one CSV, take an output dir and a seed list.
    def episodes(p):
        benchmark(p)
        p.add_argument("--limit-episodes", type=positive_int)

    def replay(p):
        episodes(p)
        out_dir(p)
        _setting_flag(p, "--seed-list", help="comma-separated seeds, one per round")

    def model(p):
        dialect(p)
        # The endpoint settings; those without a flag are set by the config only.
        p.set_defaults(**dict.fromkeys(dests("endpoint")))
        p.add_argument("--backend", choices=["mock", "http"], default="mock")
        p.add_argument("--mock-policy", default="oracle",
                       help="oracle | wrong | alternating | history-echo | noisy-oracle")
        _setting_flag(p, "--endpoint-url")
        _setting_flag(p, "--model")
        _setting_flag(p, "--concurrency",
                      help="requests in flight; over HTTP also episodes or sweep settings "
                           "run at once on threads; with the mock, the worker processes of "
                           "rollout and sweep (default: one per usable CPU)")
        p.add_argument("--enable-thinking", dest="enable_thinking", action="store_true",
                       default=True)
        p.add_argument("--no-thinking", dest="enable_thinking", action="store_false")

    # Flags of the commands that score a replay into a run dir.
    def policy(p):
        p.add_argument("--continue-on-error", action="store_true",
                       help="leave failing episodes incomplete instead of aborting")
        _setting_flag(p, "--exclude-gt-kinds", help="comma-separated action kinds")
        _setting_flag(p, "--min-comparable")

    if p := build("ingest", "validate an episode file", "episodes:cmd_ingest",
                  config, benchmark, out_dir):
        p.add_argument("--no-check-screenshots", action="store_true")

    if p := build("make-fixture", "generate a synthetic benchmark",
                  "episodes:cmd_make_fixture", config):
        p.add_argument("--out-dir", required=True)
        p.add_argument("--episodes", type=positive_int, default=4)
        p.add_argument("--steps", type=positive_int, default=5)
        p.add_argument("--seed", type=int, default=0)

    if p := build("eval", "offline trajectory replay", "replay:cmd_replay",
                  config, replay, model, policy):
        p.set_defaults(mode="offline")

    if p := build("soeval", "semi-online replay", "replay:cmd_replay",
                  config, replay, model, policy):
        p.add_argument("--mode", choices=["live", "pool"], default="live")
        p.add_argument("--pool", help="artifact pool file (pool mode)")

    if p := build("rollout", "n-sample collection for decision analytics",
                  "replay:cmd_rollout", config, replay, model):
        p.add_argument("--rounds", type=positive_int, default=8)
        p.add_argument("--samples", type=positive_int, default=64)

    # --dialect is accepted and unused: samples come from each record's
    # structured prediction.
    if p := build("cluster", "decision distributions from rollout logs",
                  "cluster:cmd_cluster", config, benchmark, dialect):
        p.add_argument("--rollouts", required=True)
        p.add_argument("--compare", help="second rollout log; emit shift columns")
        # decisions.DBSCAN_EPSILON and DBSCAN_MIN_PTS, written out so that
        # building the parser does not import the clustering code.
        p.add_argument("--epsilon", type=_non_negative_float, default=70.0,
                       help="DBSCAN radius, per-mille (default: %(default)s)")
        p.add_argument("--min-pts", type=positive_int, default=3,
                       help="DBSCAN core-point count (default: %(default)s)")
        p.add_argument("--out", required=True)

    if p := build("judge", "reasoning-execution consistency judging", "judge:cmd_judge",
                  config, dialect):
        p.add_argument("--cases", required=True)
        p.add_argument("--judges", type=positive_int, default=3)
        p.add_argument("--rollouts", type=positive_int, default=32)
        p.add_argument("--out", required=True)

    if p := build("sweep", "history-mixing regime sweep", "replay:cmd_sweep",
                  config, episodes, model):
        p.add_argument("--pool", required=True)
        _setting_flag(p, "--kappa")
        _setting_flag(p, "--grid")
        _setting_flag(p, "--samples-per-pair")
        p.add_argument("--global-seed", type=_non_negative_int, default=0)
        p.add_argument("--out", required=True)

    if p := build("reward", "batch reward / advantage scoring", "reward:cmd_reward", config):
        p.add_argument("--groups", help="JSONL of {group_id, rewards}")
        p.add_argument("--steps",
                       help="JSONL of {pred_kind, pred_params, gt_kind, gt_params, gt_bbox}")
        p.add_argument("--mode", choices=["binary", "gaussian"], default="binary")
        p.add_argument("--out", required=True)

    if p := build("report", "re-emit reports from a run directory", "replay:cmd_report",
                  config, benchmark):
        p.add_argument("--run-dir", required=True)
        p.set_defaults(**dict.fromkeys(dests("policy")))

    if p := build("stats", "statistical utilities", "stats:cmd_stats"):
        stat_sub = p.add_subparsers(dest="stat", required=True)
        q = config(stat_sub.add_parser("correlation"))
        q.add_argument("--csv", required=True)
        q.add_argument("--online-col", default="online")
        q.add_argument("--out", default="correlation.csv")
        q = config(stat_sub.add_parser("contingency"))
        for name in "abcd":
            q.add_argument(name, type=int)
        q = config(stat_sub.add_parser("wilson"))
        q.add_argument("successes", type=int)
        q.add_argument("n", type=int)
        q = config(stat_sub.add_parser("seeds"))
        q.add_argument("values", type=finite_float, nargs="+")

    # A first word that names no command (none, -h, a typo, a flag) gets the
    # full parser: argparse may still reach any command after it.
    return parser if command is None or command in sub.choices else build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        resolve_settings(args)
        module, func = args.func.split(":")
        return getattr(import_module(f"trajkit.commands.{module}"), func)(args)
    except (ConfigMismatchError, CorruptRecordsError, EmptyReportError,
            EndpointUnavailableError, InputError, UnresolvableObservationError,
            WorkerDiedError) as exc:
        print(f"trajkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
