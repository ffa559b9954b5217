"""``trajkit stats``: correlation, contingency, Wilson and multi-seed statistics."""

import math
import sys
from typing import Optional

from ..errors import InputError
from ..stats import (Contingency2x2, contingency_stats, correlation_report, defined,
                     multi_seed_summary, wilson_interval)


def cmd_stats(args) -> int:
    # A value the statistic is undefined for is one error line.
    try:
        if args.stat == "correlation":
            import csv
            import io

            from ..reporting import write_correlation_report

            # Universal newlines, as a file read in text mode has them.
            reader = csv.DictReader(io.StringIO(_read_text(args.csv), newline=None))
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
            print(f"match ratios: {defined(s.match_ratio_first, '.2f')} / "
                  f"{defined(s.match_ratio_second, '.2f')}")
            print(f"relative risk: {defined(s.relative_risk, '.4f')}  "
                  f"odds ratio: {defined(s.odds_ratio, '.4f')}")
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


def _read_text(path) -> str:
    """The text of the UTF-8 file at ``path``; a file that is not UTF-8 is an
    ``InputError`` naming it and the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:{line_no}: 'utf-8' codec can't decode byte "
                         f"0x{data[exc.start]:02x}: {exc.reason}") from None


def _finite_or_none(cell: Optional[str]) -> Optional[float]:
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None
