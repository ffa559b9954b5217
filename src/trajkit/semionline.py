"""Semi-online evaluation: on-policy history selection and mixing schedules.

The history selector substitutes a past step's entry with the model's own
recorded artifacts exactly when that step's prediction matched the
reference; otherwise it falls back to the reference entry. Controlled
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
from typing import TYPE_CHECKING, Optional, Sequence

from .actions import Action
from .dialects import ArtifactEntry, Dialect, HistoryEntry
from .evaluate import (
    DEFAULT_POLICY,
    EvalPolicy,
    EpisodeMetrics,
    HistoryFn,
    Tally,
    reference_entry,
    replay_benchmark,
    replay_episode,
    step_ratio,
)
from .gateway import ModelGateway
from .store import Episode, RunRecord, RunWriter, decode_action, decode_prediction

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

QUADRATURE_POINTS = 1024
MU_EPS = 1e-9


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
        from .store import encode_gt_params

        return {
            "key": self.key,
            "action": self.action.encode(),
            "kind": self.action.kind.value,
            "params": encode_gt_params(self.action),
            "thought": self.thought,
            "conclusion": self.conclusion,
            "raw_response": self.raw_response,
        }


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
             target_mean: float, tol: float = 1e-6) -> float:
    """Bisect mu so the quadrature mean of p(t) hits ``target_mean``.

    The mean is monotone in mu (decreasing for the increasing branch), so
    plain bisection over (0, 1) converges.
    """
    if gap == 0:
        if abs(target_mean - p_lb) > tol:
            raise TargetOutOfRangeError(
                f"degenerate gap: target {target_mean} != p_lb {p_lb}")
        return 0.5
    lo_mean, hi_mean = admissible_mean_range(p_lb, gap, kappa, direction)
    if not lo_mean - tol <= target_mean <= hi_mean + tol:
        raise TargetOutOfRangeError(
            f"target {target_mean} outside admissible range ({lo_mean:.6f}, {hi_mean:.6f})")

    lo, hi = MU_EPS, 1.0 - MU_EPS
    increasing_branch = direction == "increasing"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        mean = schedule_mean(p_lb, gap, kappa, mid, direction)
        if abs(mean - target_mean) <= tol:
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
    """The semi-online protocol: entry ``t`` is the model's own step ``t``
    exactly when that step's prediction exact-matched the reference."""
    entries: list[HistoryEntry] = []
    sources: list[bool] = []

    def history(i: int, records: Sequence[RunRecord]):
        if i:
            record, step = records[-1], episode.steps[i - 1]
            matched = bool(record.evaluation and record.evaluation.get("exact_match"))
            action = decode_prediction(record) if matched else None
            entries.append(reference_entry(step) if action is None else ArtifactEntry(
                index=step.step_index, action=action, thought=record.thought,
                conclusion=record.conclusion, observation=step.observation))
            sources.append(action is not None)
        return entries, list(sources), None

    return history


def soeval_episode(
    gateway: ModelGateway,
    episode: Episode,
    dialect: Dialect,
    policy: EvalPolicy = DEFAULT_POLICY,
    enable_thinking: bool = True,
    writer: Optional[RunWriter] = None,
    round_idx: int = 0,
    seed: Optional[int] = None,
) -> tuple[list[RunRecord], EpisodeMetrics]:
    """Replay an episode where matched steps feed their own artifacts forward."""
    return replay_episode(gateway, episode, dialect, on_policy_history(episode), policy,
                          enable_thinking, writer, round_idx, seed)


def soeval_benchmark(
    gateway: ModelGateway,
    episodes: Sequence[Episode],
    dialect: Dialect,
    policy: EvalPolicy = DEFAULT_POLICY,
    enable_thinking: bool = True,
    writer: Optional[RunWriter] = None,
    seed: Optional[int] = None,
    continue_on_error: bool = False,
) -> tuple[list[RunRecord], dict[str, EpisodeMetrics]]:
    return replay_benchmark(
        episodes,
        lambda _, ep: soeval_episode(gateway, ep, dialect, policy, enable_thinking, writer,
                                     seed=seed),
        writer, continue_on_error=continue_on_error)


# --- OSR ----------------------------------------------------------------------


def compute_osr(records: Sequence[RunRecord], eligible_only: bool = False) -> float:
    """Fraction of history positions filled with on-policy artifacts.

    ``eligible_only`` restricts the denominator to positions where an
    artifact was actually available (records carry that mask as
    ``history_sources`` plus an optional ``eligible`` list in evaluation).
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

    def save(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            for key in sorted(self._items):
                for art in self._items[key]:
                    fh.write(json.dumps(art.to_dict(), ensure_ascii=False, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ArtifactPool":
        """Read one pool file, or merge every ``*.jsonl`` in a directory."""
        pool = cls()
        for file in _pool_files(path):
            with file.open("r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    raw = json.loads(line)
                    pool.add(OnPolicyArtifact(
                        key=raw["key"],
                        action=decode_action(raw["kind"], raw.get("params") or {}),
                        thought=raw.get("thought"),
                        conclusion=raw.get("conclusion"),
                        raw_response=raw.get("raw_response", ""),
                    ))
        return pool

    @classmethod
    def from_records(cls, records: Sequence[RunRecord]) -> "ArtifactPool":
        """Collect artifacts from exact-matched records of prior rollouts."""
        pool = cls()
        for r in records:
            if not (r.evaluation and r.evaluation.get("exact_match")):
                continue
            action = decode_prediction(r)
            if action is None:
                continue
            base_key = f"{r.episode_id}/{r.step_index}"
            pool.add(OnPolicyArtifact(
                key=base_key,
                action=action,
                thought=r.thought,
                conclusion=r.conclusion,
                raw_response=r.raw_response,
            ))
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


def mixed_history(
    episode: Episode,
    upto: int,
    mask: Sequence[bool],
    pool: ArtifactPool,
    rng: np.random.Generator,
) -> tuple[list[HistoryEntry], list[bool], list[bool]]:
    """Build a pool-substituted history for step ``upto``.

    Returns (entries, realized substitution mask, eligibility mask). A
    position sampled for substitution but lacking any pooled artifact falls
    back to the reference entry.
    """
    entries: list[HistoryEntry] = []
    realized: list[bool] = []
    eligible: list[bool] = []
    for t in range(upto):
        step = episode.steps[t]
        base_key = f"{episode.id}/{step.step_index}"
        candidates = pool.get(base_key)
        eligible.append(bool(candidates))
        if mask[t] and candidates:
            pick = candidates[int(rng.integers(len(candidates)))] if len(candidates) > 1 \
                else candidates[0]
            entries.append(ArtifactEntry(
                index=t,
                action=pick.action,
                thought=pick.thought,
                conclusion=pick.conclusion,
                observation=step.observation,
            ))
            realized.append(True)
        else:
            entries.append(reference_entry(step))
            realized.append(False)
    return entries, realized, eligible


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


def pooled_episode(
    gateway: ModelGateway,
    episode: Episode,
    dialect: Dialect,
    pool: ArtifactPool,
    rng: np.random.Generator,
    schedule: Optional[Schedule] = None,
    policy: EvalPolicy = DEFAULT_POLICY,
    writer: Optional[RunWriter] = None,
    round_idx: int = 0,
    seed: Optional[int] = None,
    probabilities: Optional[dict[int, list[float]]] = None,
    enable_thinking: bool = True,
) -> tuple[list[RunRecord], EpisodeMetrics]:
    """Replay with history drawn from a pre-collected artifact pool.

    Records keep both the realized substitution mask and the eligibility
    mask, so the eligible-only OSR variant stays computable.
    """
    return replay_episode(gateway, episode, dialect,
                          pooled_history(episode, pool, rng, schedule, probabilities),
                          policy, enable_thinking, writer, round_idx, seed)


def pooled_benchmark(
    gateway: ModelGateway,
    episodes: Sequence[Episode],
    dialect: Dialect,
    pool: ArtifactPool,
    policy: EvalPolicy = DEFAULT_POLICY,
    schedule: Optional[Schedule] = None,
    writer: Optional[RunWriter] = None,
    seed: Optional[int] = None,
    global_seed: int = 0,
    enable_thinking: bool = True,
    continue_on_error: bool = False,
) -> tuple[list[RunRecord], dict[str, EpisodeMetrics]]:
    """Pooled replay of many episodes; episode ``idx`` draws from its own
    generator, seeded with (``idx``, ``global_seed``)."""
    import numpy as np

    probabilities: dict[int, list[float]] = {}
    return replay_benchmark(
        episodes,
        lambda idx, ep: pooled_episode(gateway, ep, dialect, pool,
                                       np.random.default_rng((idx, global_seed)), schedule,
                                       policy, writer, seed=seed,
                                       probabilities=probabilities,
                                       enable_thinking=enable_thinking),
        writer, continue_on_error=continue_on_error)


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


def build_sweep_grid(cfg: SweepConfig, rng: Optional[np.random.Generator] = None
                     ) -> list[SweepSetting]:
    """All ordered endpoint pairs on an evenly spaced grid, with sampled means.

    A 4-value grid yields 16 configurations: 6 increasing, 6 decreasing, and
    4 stationary; 50 mean targets per pair give 800 settings.
    """
    import numpy as np

    rng = rng or np.random.default_rng(cfg.global_seed)
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
    """Measure (realized OSR, exact match) under one mixing schedule."""
    import numpy as np

    rng = np.random.default_rng((setting.index, global_seed))
    probabilities: dict[int, list[float]] = {}
    tally = Tally()
    for ep in episodes:
        replay_episode(gateway, ep, dialect,
                       pooled_history(ep, pool, rng, setting.schedule, probabilities),
                       policy, enable_thinking, tally=tally)
    return SweepResult(
        setting=setting,
        realized_osr=tally.substituted / tally.positions if tally.positions else math.nan,
        exact_match=tally.exact / tally.scored if tally.scored else math.nan,
        positions=tally.positions,
    )


def run_sweep(
    gateway: ModelGateway,
    episodes: Sequence[Episode],
    dialect: Dialect,
    pool: ArtifactPool,
    cfg: SweepConfig = SweepConfig(),
    policy: EvalPolicy = DEFAULT_POLICY,
    concurrency: int = 1,
    enable_thinking: bool = True,
) -> list[SweepResult]:
    """Run the full grid; settings are independent and parallelize freely."""
    settings = build_sweep_grid(cfg)

    def run(setting: SweepSetting) -> SweepResult:
        return run_sweep_setting(setting, gateway, episodes, dialect, pool,
                                 policy, cfg.global_seed, enable_thinking)

    if concurrency <= 1:
        return [run(s) for s in settings]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=concurrency) as executor:
        return list(executor.map(run, settings))
