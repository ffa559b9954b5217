"""CSV and markdown report emission. The core stays headless: anything that
wants plots consumes these CSVs downstream."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import InputError

if TYPE_CHECKING:
    from .evaluate import AggregateReport
    from .semionline import SweepResult
    from .stats import CorrelationReport


def write_csv(path: str | Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write ``header`` and ``rows`` to ``path``, creating its directory. A
    path that cannot be written raises ``InputError`` naming it."""
    out = Path(path)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def markdown_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join(["---"] * len(header)) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
    return "\n".join(lines) + "\n"


AGGREGATE_COLUMNS = (
    "benchmark", "mode", "episodes", "episodes_kept", "steps", "steps_scored",
    "type_match", "exact_match", "type_match_gt_supported",
    "exact_match_gt_supported", "progress", "success_rate",
)


def aggregate_rows(reports: dict[tuple[str, str], AggregateReport]) -> list[list]:
    rows = []
    for (benchmark, mode), rep in sorted(reports.items()):
        rows.append([
            benchmark, mode, rep.n_episodes, rep.n_episodes_kept,
            rep.n_steps, rep.n_steps_scored,
            rep.type_match, rep.exact_match,
            rep.type_match_gt_supported, rep.exact_match_gt_supported,
            rep.progress, rep.success_rate,
        ])
    return rows


def write_aggregate_report(out_dir: str | Path,
                           reports: dict[tuple[str, str], AggregateReport]) -> None:
    out_dir = Path(out_dir)
    rows = aggregate_rows(reports)
    write_csv(out_dir / "report.csv", AGGREGATE_COLUMNS, rows)
    md = "# Evaluation report\n\n" + markdown_table(AGGREGATE_COLUMNS, rows)
    (out_dir / "report.md").write_text(md, encoding="utf-8")


HORIZON_COLUMNS = ("table", "key", "exact_match", "n")


def horizon_rows(strat: dict) -> list[list]:
    rows = []
    for idx, cell in strat["by_step_index"].items():
        rows.append(["step_index", idx, cell["exact_match"], cell["n"]])
    for bucket, cell in strat["by_step_ratio"].items():
        rows.append(["step_ratio", bucket, cell["exact_match"], cell["n"]])
    return rows


SWEEP_COLUMNS = ("setting", "regime", "p_start", "p_end", "target_mean",
                 "realized_osr", "exact_match", "positions")


def sweep_rows(results: Sequence[SweepResult]) -> list[list]:
    return [
        [r.setting.index, r.setting.regime, r.setting.p_start, r.setting.p_end,
         r.setting.target_mean, r.realized_osr, r.exact_match, r.positions]
        for r in results
    ]


CORRELATION_COLUMNS = ("metric", "spearman_rho", "legendre_r2",
                       "legendre_r2_transposed", "linear_r2")


def correlation_rows(reports: Sequence[CorrelationReport]) -> list[list]:
    return [
        [r.metric, r.spearman_rho, r.legendre_r2, r.legendre_r2_transposed, r.linear_r2]
        for r in reports
    ]


def write_correlation_report(path: str | Path,
                             reports: Sequence[CorrelationReport]) -> None:
    write_csv(path, CORRELATION_COLUMNS, correlation_rows(reports))


def rejection_rows(rejections) -> list[list]:
    return [[r.line_no, r.episode_id or "-", r.reason] for r in rejections]


def write_rejection_report(path: str | Path, rejections) -> None:
    write_csv(path, ("line", "episode_id", "reason"), rejection_rows(rejections))

