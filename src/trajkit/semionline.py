"""Semi-online evaluation: on-policy history selection and mixing schedules.

Semi-online history is the pooled protocol over the model's own matched
steps; both fill history through ``evaluate.mixed_history``. Controlled
mixing experiments drive the substitution decision from a normalized
logistic schedule over the relative position inside the history sequence.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, TextIO

from .actions import Action
from .dialects import Dialect
from .evaluate import (
    DEFAULT_POLICY,
    EvalPolicy,
    HistoryFactory,
    HistoryFn,
    map_in_order,
    mixed_history,
    replay_benchmark,
    replay_episode,
    step_ratio,
)
from .store import (
    Episode,
    RunRecord,
    decode_action,
    decode_prediction,
    encode_gt_params,
    read_jsonl,
    step_key,
)

if TYPE_CHECKING:
    import numpy as np

    from .gateway import ModelGateway

logger = logging.getLogger(__name__)

QUADRATURE_POINTS = 1024
MU_EPS = 1e-9
#: How close ``solve_mu``'s quadrature mean must come to its target.
MU_TOL = 1e-6


class InvalidShapeError(ValueError):
    """Raised for non-positive logistic sharpness."""


class OsrUndefinedError(ValueError):
    """Raised when OSR is requested over zero history positions."""


class TargetOutOfRangeError(ValueError):
    """Raised when a schedule mean target is not attainable."""


@dataclass(frozen=True)
class OnPolicyArtifact:
    """A recorded correct model step, reusable as history context."""

    key: str
    action: Action
    thought: Optional[str]
    conclusion: Optional[str]
    raw_response: str

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "action": self.action.encode(),
            "kind": self.action.kind.value,
            "params": encode_gt_params(self.action),
            "thought": self.thought,
            "conclusion": self.conclusion,
            "raw_response": self.raw_response,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "OnPolicyArtifact":
        return cls(
            key=raw["key"],
            action=decode_action(raw["kind"], raw.get("params") or {}),
            thought=raw.get("thought"),
            conclusion=raw.get("conclusion"),
            raw_response=raw.get("raw_response", ""),
        )


@dataclass(frozen=True)
class Schedule:
    """Normalized-logistic substitution schedule p(t) over a history sequence."""

    p_lb: float
    gap: float
    kappa: float = 16.0
    mu: float = 0.5
    direction: str = "increasing"

    def __post_init__(self) -> None:
        # p_lb = 1 is admitted for the degenerate always-substitute schedule,
        # which the stationary (1, 1) grid configuration requires.
        if not 0.0 <= self.p_lb <= 1.0 + 1e-12:
            raise ValueError(f"p_lb {self.p_lb} outside [0, 1]")
        if self.gap < -1e-12 or self.p_lb + self.gap > 1.0 + 1e-9:
            raise ValueError(f"gap {self.gap} outside [0, 1 - p_lb]")
        if self.kappa <= 0:
            raise InvalidShapeError(f"kappa must be positive, got {self.kappa}")
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu {self.mu} outside (0, 1)")
        if self.direction not in ("increasing", "decreasing"):
            raise ValueError(f"direction {self.direction!r}")


def _sigma(x):
    import numpy as np

    return 1.0 / (1.0 + np.exp(-x))


def nlogi(x, kappa: float, mu: float, sign: str = "+"):
    """Normalized logistic on [0, 1] with exact endpoints 0 and 1.

    ``sign='+'`` is the increasing branch; ``'-'`` is its complement.
    Accepts scalars or arrays.
    """
    if kappa <= 0:
        raise InvalidShapeError(f"kappa must be positive, got {kappa}")
    import numpy as np

    x = np.asarray(x, dtype=float)
    lo = _sigma(-kappa * mu)
    hi = _sigma(kappa * (1.0 - mu))
    value = (_sigma(kappa * (x - mu)) - lo) / (hi - lo)
    if sign == "-":
        value = 1.0 - value
    elif sign != "+":
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return float(value) if value.ndim == 0 else value


def schedule_probability(t: int, total: int, sched: Schedule) -> float:
    """Substitution probability for history position ``t`` of ``total``."""
    if total <= 0:
        raise ValueError("empty schedule: history length must be positive")
    if not 0 <= t < total:
        raise ValueError(f"position {t} outside [0, {total})")
    if sched.gap == 0:
        return sched.p_lb
    sign = "+" if sched.direction == "increasing" else "-"
    return sched.p_lb + sched.gap * nlogi(step_ratio(t, total), sched.kappa, sched.mu, sign)


def schedule_probabilities(total: int, sched: Schedule) -> list[float]:
    if total == 0:
        return []
    return [schedule_probability(t, total, sched) for t in range(total)]


def schedule_mean(p_lb: float, gap: float, kappa: float, mu: float,
                  direction: str = "increasing") -> float:
    """Expected p over sr in [0, 1], by trapezoid quadrature."""
    import numpy as np

    xs = np.linspace(0.0, 1.0, QUADRATURE_POINTS + 1)
    sign = "+" if direction == "increasing" else "-"
    ys = nlogi(xs, kappa, mu, sign)
    return p_lb + gap * float(np.trapezoid(ys, xs))


def admissible_mean_range(p_lb: float, gap: float, kappa: float,
                          direction: str = "increasing") -> tuple[float, float]:
    """Attainable schedule means over mu in (0, 1) for this endpoint pair."""
    if gap == 0:
        return p_lb, p_lb
    a = schedule_mean(p_lb, gap, kappa, MU_EPS, direction)
    b = schedule_mean(p_lb, gap, kappa, 1.0 - MU_EPS, direction)
    return (min(a, b), max(a, b))


def solve_mu(p_lb: float, gap: float, kappa: float, direction: str,
             target_mean: float) -> float:
    """Bisect mu so the quadrature mean of p(t) hits ``target_mean``.

    The mean is monotone in mu (decreasing for the increasing branch), so
    plain bisection over (0, 1) converges.
    """
    if gap == 0:
        if abs(target_mean - p_lb) > MU_TOL:
            raise TargetOutOfRangeError(
                f"degenerate gap: target {target_mean} != p_lb {p_lb}")
        return 0.5
    lo_mean, hi_mean = admissible_mean_range(p_lb, gap, kappa, direction)
    if not lo_mean - MU_TOL <= target_mean <= hi_mean + MU_TOL:
        raise TargetOutOfRangeError(
            f"target {target_mean} outside admissible range ({lo_mean:.6f}, {hi_mean:.6f})")

    lo, hi = MU_EPS, 1.0 - MU_EPS
    increasing_branch = direction == "increasing"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        mean = schedule_mean(p_lb, gap, kappa, mid, direction)
        if abs(mean - target_mean) <= MU_TOL:
            return mid
        too_high = mean > target_mean
        # For the increasing branch, the mean decreases with mu.
        if too_high == increasing_branch:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- live semi-online evaluation ---------------------------------------------


def on_policy_history(episode: Episode) -> HistoryFn:
    """The semi-online protocol: every position marked, over a pool of the
    model's own steps so far (of each step, its last sample's record)."""
    pool = ArtifactPool()

    def history(i: int, records: Sequence[RunRecord]):
        if i:
            pool.add_record(records[-1])
        entries, sources, _ = mixed_history(episode, i, [True] * i, pool, None)
        return entries, sources, None

    return history


def soeval_benchmark(gateway: ModelGateway, episodes: Sequence[Episode], dialect: Dialect,
                     **options):
    """``replay_benchmark`` under the live semi-online protocol, with its
    keyword ``options``. Kept for the scripts under ``perfbench/``; no
    command calls it."""
    return replay_benchmark(gateway, episodes, dialect, lambda _, ep: on_policy_history(ep),
                            **options)


# --- OSR ----------------------------------------------------------------------


def compute_osr(records: Sequence[RunRecord], eligible_only: bool = False) -> float:
    """Fraction of history positions filled with on-policy artifacts.

    ``eligible_only`` restricts the denominator to positions where an
    artifact was actually available (pooled records carry that mask as
    ``evaluation["eligible_positions"]`` beside ``history_sources``).
    """
    substituted = 0
    total = 0
    for r in records:
        mask = r.history_sources or []
        if eligible_only and r.evaluation and "eligible_positions" in r.evaluation:
            eligible = r.evaluation["eligible_positions"]
            total += sum(1 for e in eligible if e)
            substituted += sum(1 for s, e in zip(mask, eligible) if s and e)
        else:
            total += len(mask)
            substituted += sum(1 for s in mask if s)
    if total == 0:
        raise OsrUndefinedError("no history positions")
    return substituted / total


# --- artifact pool and controlled mixing ---------------------------------------


def write_pool(fh: TextIO, parts: Iterable[dict[str, list[str]]]) -> int:
    """Replace what the open pool file ``fh`` holds with the pool of every
    part's artifacts, in the order of ``parts`` (each an ``ArtifactPool.encode``),
    and return its number of artifacts. Keys are written in sorted order."""
    lines: dict[str, list[str]] = {}
    for part in parts:
        for key, part_lines in part.items():
            lines.setdefault(key, []).extend(part_lines)
    fh.truncate(0)
    for key in sorted(lines):
        fh.writelines(lines[key])
    return sum(map(len, lines.values()))


class ArtifactPool:
    """On-policy artifacts keyed by their exact originating step key."""

    def __init__(self) -> None:
        self._items: dict[str, list[OnPolicyArtifact]] = {}

    def add(self, artifact: OnPolicyArtifact) -> None:
        self._items.setdefault(artifact.key, []).append(artifact)

    def get(self, key: str) -> list[OnPolicyArtifact]:
        return self._items.get(key, [])

    def __len__(self) -> int:
        return sum(len(v) for v in self._items.values())

    def keys(self) -> list[str]:
        return sorted(self._items)

    def encode(self) -> dict[str, list[str]]:
        """The pool file's lines for each key, in the order they were added."""
        return {key: [json.dumps(art.to_dict(), ensure_ascii=False, sort_keys=True) + "\n"
                      for art in artifacts] for key, artifacts in self._items.items()}

    def save(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            write_pool(fh, [self.encode()])

    @classmethod
    def load(cls, path: str | Path) -> "ArtifactPool":
        """Read one pool file, or merge every ``*.jsonl`` in a directory."""
        pool = cls()
        for file in _pool_files(path):
            for artifact in read_jsonl(file, OnPolicyArtifact.from_dict):
                pool.add(artifact)
        return pool

    def add_record(self, record: RunRecord) -> None:
        """Add ``record``'s prediction as an artifact if it exact-matched the
        reference: the one rule that makes a record an artifact."""
        matched = record.evaluation and record.evaluation.get("exact_match")
        action = decode_prediction(record) if matched else None
        if action is not None:
            self.add(OnPolicyArtifact(step_key(record.episode_id, record.step_index), action,
                                      record.thought, record.conclusion, record.raw_response))

    @classmethod
    def from_records(cls, records: Sequence[RunRecord]) -> "ArtifactPool":
        """Collect artifacts from exact-matched records of prior rollouts."""
        pool = cls()
        for r in records:
            pool.add_record(r)
        return pool


def _pool_files(path: str | Path) -> list[Path]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no pool file or directory at {path}")
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    if not files:
        raise FileNotFoundError(f"no pool files under {path}")
    return files


def pool_sha256(path: str | Path) -> str:
    """SHA-256 of the bytes ``ArtifactPool.load`` reads, in its file order."""
    digest = hashlib.sha256()
    for file in _pool_files(path):
        digest.update(file.read_bytes())
    return digest.hexdigest()


def sample_history_mask(total: int, sched: Schedule, rng: np.random.Generator,
                        probabilities: Optional[dict[int, list[float]]] = None
                        ) -> list[bool]:
    """Bernoulli substitution indicators for a history sequence.

    p(t) depends only on the history length, so a caller drawing many masks
    under one schedule passes a ``probabilities`` dict that keeps each
    length's vector.
    """
    if probabilities is None:
        probabilities = {}
    ps = probabilities.get(total)
    if ps is None:
        ps = probabilities[total] = schedule_probabilities(total, sched)
    return [bool(rng.random() < p) for p in ps]


def pooled_history(episode: Episode, pool: ArtifactPool, rng: np.random.Generator,
                   schedule: Optional[Schedule] = None,
                   probabilities: Optional[dict[int, list[float]]] = None) -> HistoryFn:
    """The pooled protocol: history drawn from a pre-collected artifact pool.

    Without a schedule, every position that has a pooled artifact is
    substituted; with one, positions are sampled per its probabilities
    (``probabilities`` as in ``sample_history_mask``).
    """
    def history(i: int, records: Sequence[RunRecord]):
        mask = (sample_history_mask(i, schedule, rng, probabilities)
                if schedule and i else [True] * i)
        return mixed_history(episode, i, mask, pool, rng)

    return history


def pooled_histories(pool: ArtifactPool, global_seed: int = 0) -> HistoryFactory:
    """The pooled protocol over many episodes: every position that has a
    pooled artifact is substituted, and episode ``idx`` draws its candidates
    from its own generator, seeded with (``idx``, ``global_seed``), so the
    draws do not depend on the order the episodes run in. Mixing schedules
    belong to the sweep (``pooled_history``)."""
    return lambda idx, ep: pooled_history(ep, pool, _FirstDrawGenerator((idx, global_seed)))


def pooled_benchmark(gateway: ModelGateway, episodes: Sequence[Episode], dialect: Dialect,
                     pool: ArtifactPool, global_seed: int = 0, **options):
    """``replay_benchmark`` under ``pooled_histories(pool, global_seed)``, with
    its keyword ``options``. Kept for the scripts under ``perfbench/``; no
    command calls it."""
    return replay_benchmark(gateway, episodes, dialect, pooled_histories(pool, global_seed),
                            **options)


class _FirstDrawGenerator:
    """``np.random.default_rng(seed)``, made at its first draw: a pooled
    replay over a pool with one artifact per key never draws, and then
    imports no numpy."""

    _rng = None

    def __init__(self, seed) -> None:
        self._seed = seed

    def __getattr__(self, name: str):
        # Reached for the generator's methods only: ``_rng`` is found on the class.
        if self._rng is None:
            import numpy as np

            self._rng = np.random.default_rng(self._seed)
        return getattr(self._rng, name)


# --- regime sweep ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    kappa: float = 16.0
    grid: int = 4
    samples_per_pair: int = 50
    global_seed: int = 0


@dataclass
class SweepSetting:
    index: int
    regime: str
    p_start: float
    p_end: float
    target_mean: float
    schedule: Schedule


@dataclass
class SweepResult:
    setting: SweepSetting
    realized_osr: float
    exact_match: float
    positions: int


def build_sweep_grid(cfg: SweepConfig) -> list[SweepSetting]:
    """All ordered endpoint pairs on an evenly spaced grid, with sampled means.

    A 4-value grid yields 16 configurations: 6 increasing, 6 decreasing, and
    4 stationary; 50 mean targets per pair give 800 settings.
    """
    import numpy as np

    rng = np.random.default_rng(cfg.global_seed)
    endpoints = np.linspace(0.0, 1.0, cfg.grid)
    settings: list[SweepSetting] = []
    index = 0
    for p_start in endpoints:
        for p_end in endpoints:
            if p_start < p_end:
                regime, direction = "increasing", "increasing"
            elif p_start > p_end:
                regime, direction = "decreasing", "decreasing"
            else:
                regime, direction = "stationary", "increasing"
            p_lb = float(min(p_start, p_end))
            gap = float(abs(p_end - p_start))
            if gap == 0:
                targets = [p_lb] * cfg.samples_per_pair
            else:
                lo, hi = admissible_mean_range(p_lb, gap, cfg.kappa, direction)
                targets = sorted(rng.uniform(lo, hi, size=cfg.samples_per_pair).tolist())
            for target in targets:
                if gap == 0:
                    sched = Schedule(p_lb=p_lb, gap=0.0, kappa=cfg.kappa,
                                     mu=0.5, direction=direction)
                else:
                    mu = solve_mu(p_lb, gap, cfg.kappa, direction, target)
                    sched = Schedule(p_lb=p_lb, gap=gap, kappa=cfg.kappa,
                                     mu=mu, direction=direction)
                settings.append(SweepSetting(
                    index=index,
                    regime=regime,
                    p_start=float(p_start),
                    p_end=float(p_end),
                    target_mean=float(target),
                    schedule=sched,
                ))
                index += 1
    return settings


def run_sweep_setting(
    setting: SweepSetting,
    gateway: ModelGateway,
    episodes: Sequence[Episode],
    dialect: Dialect,
    pool: ArtifactPool,
    policy: EvalPolicy = DEFAULT_POLICY,
    global_seed: int = 0,
    enable_thinking: bool = True,
) -> SweepResult:
    """Measure (realized OSR, exact match) under one mixing schedule, summed
    over the records of every episode's replay."""
    import numpy as np

    rng = np.random.default_rng((setting.index, global_seed))
    probabilities: dict[int, list[float]] = {}
    substituted = positions = exact = scored = 0
    for ep in episodes:
        for r in replay_episode(gateway, ep, dialect,
                                pooled_history(ep, pool, rng, setting.schedule, probabilities),
                                policy, enable_thinking):
            substituted += sum(r.history_sources)
            positions += len(r.history_sources)
            exact += r.evaluation["exact_match"]
            scored += 1
    return SweepResult(
        setting=setting,
        realized_osr=substituted / positions if positions else math.nan,
        exact_match=exact / scored if scored else math.nan,
        positions=positions,
    )


def run_sweep(
    gateway: ModelGateway,
    episodes: Sequence[Episode],
    dialect: Dialect,
    pool: ArtifactPool,
    cfg: SweepConfig = SweepConfig(),
    concurrency: int = 1,
    enable_thinking: bool = True,
    processes: bool = False,
) -> list[SweepResult]:
    """Run the full grid, in setting order. Settings are independent: up to
    ``concurrency`` run at once, on threads or with ``processes`` on worker
    processes (``map_in_order``)."""
    settings = build_sweep_grid(cfg)

    def run(setting: SweepSetting) -> SweepResult:
        return run_sweep_setting(setting, gateway, episodes, dialect, pool,
                                 global_seed=cfg.global_seed, enable_thinking=enable_thinking)

    return list(map_in_order(run, settings, concurrency, processes))
