"""Trajectory replay and offline evaluation.

Every replay protocol runs through one engine, ``replay_episode``; a
protocol only chooses what the model sees at each history position (its
``HistoryFn``). Step scoring follows per-kind matching rules; episode
progress is the longest exactly-matched prefix fraction, and success means
every step matched. Aggregation applies the 95% comparability rule per task and the
benchmark-level ground-truth exclusions before any averaging.
"""

from __future__ import annotations

import logging
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .actions import Action, ActionKind, ALL_KINDS, BBox, spatial_distance
from .dialects import Dialect, HistoryEntry, ParsedResponse, ReferenceEntry
from .gateway import ModelGateway, prepare_input
from .store import Episode, RunRecord, RunWriter, StepTask, prediction_fields, step_key

logger = logging.getLogger(__name__)

#: Fallback click radius (per-mille, L2) when the ground truth has no bbox.
#: Matches the spatial clustering neighborhood so the evaluator and the
#: decision abstraction agree on what counts as "the same target".
CLICK_RADIUS = 70.0


class EmptyReportError(ValueError):
    """Raised when aggregation is asked to summarize zero records."""


@dataclass(frozen=True)
class StepEvaluation:
    type_match: bool
    exact_match: bool
    comparable: bool
    gt_supported: bool
    failure_reason: Optional[str] = None

    def __post_init__(self) -> None:
        if self.exact_match and not self.type_match:
            raise ValueError("exact_match implies type_match")

    def to_dict(self) -> dict:
        out = {
            "type_match": self.type_match,
            "exact_match": self.exact_match,
            "comparable": self.comparable,
            "gt_supported": self.gt_supported,
        }
        if self.failure_reason:
            out["failure_reason"] = self.failure_reason
        return out


@dataclass(frozen=True)
class EpisodeMetrics:
    progress: float
    success: bool
    truncated: bool = False

    def __post_init__(self) -> None:
        if self.success and self.progress != 1.0:
            raise ValueError("success implies progress == 1")


@dataclass(frozen=True)
class EvalPolicy:
    """Knobs for scoring and aggregation."""

    benchmark_space: frozenset = ALL_KINDS
    min_comparable: float = 0.95
    exclude_gt_kinds: frozenset = frozenset()
    click_radius: float = CLICK_RADIUS


DEFAULT_POLICY = EvalPolicy()


def canonical_text(value: str) -> str:
    # Trim surrounding whitespace only; case is significant.
    return value.strip()


def params_match(pred: Action, gt: Action, gt_bbox: Optional[BBox],
                 click_radius: float = CLICK_RADIUS) -> bool:
    """Kind-specific parameter matching; assumes the kinds are equal."""
    k = gt.kind
    if k in (ActionKind.CLICK, ActionKind.LONG_PRESS):
        if gt_bbox is not None:
            return gt_bbox.contains(pred.point)
        return spatial_distance(pred.point, gt.point, "l2") <= click_radius
    if k is ActionKind.SCROLL:
        return pred.direction == gt.direction
    if k in (ActionKind.TYPE,):
        return canonical_text(pred.text) == canonical_text(gt.text)
    if k is ActionKind.OPEN:
        return canonical_text(pred.app) == canonical_text(gt.app)
    if k is ActionKind.PRESS:
        return pred.button == gt.button
    # WAIT / STOP carry no compared parameters.
    return True


def evaluate_step(
    pred: Optional[Action],
    gt: Action,
    gt_bbox: Optional[BBox] = None,
    model_space: frozenset = ALL_KINDS,
    benchmark_space: frozenset = ALL_KINDS,
    failure_reason: Optional[str] = None,
    parse_recognized: bool = False,
    click_radius: float = CLICK_RADIUS,
) -> StepEvaluation:
    """Score one prediction against the reference action.

    A parse failure scores both matches false; it stays comparable only when
    the action name was recognized (malformed parameters), since an
    unrecognized name counts as outside the model's action space.
    """
    gt_supported = gt.kind in model_space
    if pred is None:
        return StepEvaluation(
            type_match=False,
            exact_match=False,
            comparable=bool(parse_recognized),
            gt_supported=gt_supported,
            failure_reason=failure_reason or "no prediction",
        )
    type_match = pred.kind == gt.kind
    exact = type_match and params_match(pred, gt, gt_bbox, click_radius)
    comparable = pred.kind in benchmark_space and pred.kind in model_space
    return StepEvaluation(
        type_match=type_match,
        exact_match=exact,
        comparable=comparable,
        gt_supported=gt_supported,
    )


def evaluate_parsed(parsed: ParsedResponse, step: StepTask, dialect: Dialect,
                    policy: EvalPolicy = DEFAULT_POLICY) -> StepEvaluation:
    return evaluate_step(
        parsed.action,
        step.gt_action,
        step.gt_bbox,
        model_space=dialect.action_support,
        benchmark_space=policy.benchmark_space,
        failure_reason=parsed.failure,
        parse_recognized=parsed.recognized,
        click_radius=policy.click_radius,
    )


def episode_metrics(records: Sequence[RunRecord],
                    episode: Optional[Episode] = None) -> EpisodeMetrics:
    """Progress and success from one episode's records, in step order.
    Without ``episode`` it is not known to end in STOP, so it counts as
    truncated: it enters progress but not success."""
    exact = [bool(r.evaluation and r.evaluation.get("exact_match")) for r in records]
    prefix = 0
    for ok in exact:
        if not ok:
            break
        prefix += 1
    total = len(episode) if episode is not None else records[0].episode_length
    truncated = episode is None or episode.truncated
    progress = prefix / total
    success = (not truncated) and prefix == total and len(exact) == total
    return EpisodeMetrics(progress=progress, success=success, truncated=truncated)


# --- the replay engine -------------------------------------------------------

#: Step ``i``'s history, from the records of the steps before it: the
#: entries shown to the model, which of them are on-policy, and which
#: positions had an on-policy entry to offer. A protocol that does not
#: record the last two returns None for them.
HistoryFn = Callable[[int, Sequence[RunRecord]],
                     tuple[Sequence[HistoryEntry], Optional[list[bool]], Optional[list[bool]]]]


@dataclass
class Tally:
    """What a replay that keeps no records counts: history positions shown
    on-policy and in all, and exact-matched and scored samples."""

    substituted: int = 0
    positions: int = 0
    exact: int = 0
    scored: int = 0

    def add(self, sources: Sequence[bool], evaluation: StepEvaluation) -> None:
        self.substituted += sum(sources)
        self.positions += len(sources)
        self.exact += evaluation.exact_match
        self.scored += 1


def build_record(episode: Episode, step: StepTask, raw: str, parsed: ParsedResponse,
                 evaluation: StepEvaluation, sources: Optional[list[bool]],
                 eligible: Optional[list[bool]], round_idx: int = 0,
                 seed: Optional[int] = None, sample: int = 0) -> RunRecord:
    evaluation_fields = evaluation.to_dict()
    if eligible is not None:
        evaluation_fields["eligible_positions"] = eligible
    return RunRecord(
        key=step_key(episode.id, step.step_index, round_idx, sample),
        episode_id=episode.id,
        step_index=step.step_index,
        episode_length=len(episode),
        raw_response=raw,
        **prediction_fields(parsed.action),
        thought=parsed.thought,
        conclusion=parsed.conclusion,
        failure_reason=parsed.failure,
        evaluation=evaluation_fields,
        history_sources=sources,
        seed=seed,
        round=round_idx,
        sample=sample,
        benchmark=episode.source_benchmark,
    )


def replay_episode(
    gateway: ModelGateway,
    episode: Episode,
    dialect: Dialect,
    history: HistoryFn,
    policy: EvalPolicy = DEFAULT_POLICY,
    enable_thinking: bool = True,
    writer: Optional[RunWriter] = None,
    round_idx: int = 0,
    seed: Optional[int] = None,
    tally: Optional[Tally] = None,
) -> tuple[list[RunRecord], EpisodeMetrics]:
    """Replay one episode step by step; every replay protocol runs here.

    The protocols differ only in ``history``. Each step yields one record
    per completion the gateway returns (its sampling ``n``). Step ``i``'s
    history is taken before ``writer`` is asked whether the step is already
    persisted, so a resumed step makes the same random draws as a fresh
    one; a persisted step is read back from its first sample's record and
    never re-queried. With a ``tally``, samples are counted into it and no
    records are built.
    """
    records: list[RunRecord] = []
    for i, step in enumerate(episode.steps):
        entries, sources, eligible = history(i, records)
        key = step_key(episode.id, step.step_index, round_idx)
        if writer is not None and writer.has(key):
            records.append(writer.get(key))
            continue
        request = prepare_input(step, entries, dialect, enable_thinking=enable_thinking)
        raws = gateway.generate(request, seed=seed)
        for j, raw in enumerate(raws):
            parsed = dialect.parse_response(raw, step.observation.dims)
            evaluation = evaluate_parsed(parsed, step, dialect, policy)
            if tally is not None:
                tally.add(sources, evaluation)
                continue
            record = build_record(episode, step, raw, parsed, evaluation, sources, eligible,
                                  round_idx, seed, j)
            if writer is not None:
                writer.append(record)
            records.append(record)
    return records, episode_metrics(records, episode)


def replay_benchmark(
    episodes: Sequence[Episode],
    replay: Callable[[int, Episode], tuple[list[RunRecord], EpisodeMetrics]],
    writer: Optional[RunWriter] = None,
    concurrency: int = 1,
    continue_on_error: bool = False,
) -> tuple[list[RunRecord], dict[str, EpisodeMetrics]]:
    """Run ``replay(index, episode)`` over many episodes, in order.

    Steps within an episode stay sequential; ``concurrency`` episodes run at
    once. With ``continue_on_error`` a failing episode is logged and left
    incomplete (its persisted steps remain resumable) instead of aborting
    the whole run; incomplete episodes carry no entry in the metrics map.
    """
    all_records: list[RunRecord] = []
    metrics: dict[str, EpisodeMetrics] = {}

    def run(indexed: tuple[int, Episode]):
        idx, ep = indexed
        try:
            return ep.id, replay(idx, ep)
        except Exception:
            if not continue_on_error:
                raise
            logger.exception("episode %s left incomplete", ep.id)
            return ep.id, None

    if concurrency <= 1:
        outcomes = list(map(run, enumerate(episodes)))
    else:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            outcomes = list(pool.map(run, enumerate(episodes)))
    for ep_id, outcome in outcomes:
        if outcome is not None:
            all_records += outcome[0]
            metrics[ep_id] = outcome[1]
    if writer is not None:
        writer.write_manifest()
    return all_records, metrics


def reference_entry(step: StepTask) -> ReferenceEntry:
    return ReferenceEntry(index=step.step_index, action=step.gt_action,
                          observation=step.observation)


def reference_history(episode: Episode, record_sources: bool = True) -> HistoryFn:
    """The offline protocol: reference entries only.

    ``record_sources=False`` leaves the records without ``history_sources``,
    as rollouts are written.
    """
    entries: list[HistoryEntry] = []

    def history(i: int, records: Sequence[RunRecord]):
        if i:
            entries.append(reference_entry(episode.steps[i - 1]))
        return entries, [False] * i if record_sources else None, None

    return history


def evaluate_episode_offline(
    gateway: ModelGateway,
    episode: Episode,
    dialect: Dialect,
    policy: EvalPolicy = DEFAULT_POLICY,
    enable_thinking: bool = True,
    writer: Optional[RunWriter] = None,
    round_idx: int = 0,
    seed: Optional[int] = None,
) -> tuple[list[RunRecord], EpisodeMetrics]:
    """Replay one episode against reconstructed reference history.

    At step ``i`` the model sees only reference entries for steps before
    ``i``. Completed step keys found in ``writer`` are reused, never
    re-queried.
    """
    return replay_episode(gateway, episode, dialect, reference_history(episode), policy,
                          enable_thinking, writer, round_idx, seed)


def evaluate_benchmark_offline(
    gateway: ModelGateway,
    episodes: Sequence[Episode],
    dialect: Dialect,
    policy: EvalPolicy = DEFAULT_POLICY,
    enable_thinking: bool = True,
    writer: Optional[RunWriter] = None,
    seed: Optional[int] = None,
    concurrency: int = 1,
    continue_on_error: bool = False,
) -> tuple[list[RunRecord], dict[str, EpisodeMetrics]]:
    """Evaluate many episodes offline (see ``replay_benchmark``)."""
    return replay_benchmark(
        episodes,
        lambda _, ep: evaluate_episode_offline(gateway, ep, dialect, policy, enable_thinking,
                                               writer, seed=seed),
        writer, concurrency, continue_on_error)


# --- aggregation -------------------------------------------------------------


@dataclass
class AggregateReport:
    """Means over comparable steps, plus the gt-supported-only variant."""

    n_episodes: int
    n_episodes_kept: int
    n_steps: int
    n_steps_scored: int
    type_match: Optional[float]
    exact_match: Optional[float]
    type_match_gt_supported: Optional[float]
    exact_match_gt_supported: Optional[float]
    progress: Optional[float] = None
    success_rate: Optional[float] = None
    dropped_episodes: list[str] = field(default_factory=list)


def _mean_matches(records: Sequence[RunRecord]) -> tuple[Optional[float], Optional[float]]:
    if not records:
        return None, None
    t = sum(1 for r in records if r.evaluation.get("type_match")) / len(records)
    e = sum(1 for r in records if r.evaluation.get("exact_match")) / len(records)
    return t, e


def complete_records(records: Sequence[RunRecord]) -> list[RunRecord]:
    """``records`` without the episodes that hold fewer records than their
    ``episode_length`` (left so by ``continue_on_error``): they enter no number."""
    counts = Counter(r.episode_id for r in records)
    return [r for r in records if counts[r.episode_id] >= r.episode_length]


def aggregate(
    records: Sequence[RunRecord],
    episodes: Optional[Sequence[Episode]] = None,
    policy: EvalPolicy = DEFAULT_POLICY,
    metrics: Optional[dict[str, EpisodeMetrics]] = None,
) -> AggregateReport:
    """Fold the records of complete episodes into benchmark-level metrics.

    Progress and success come from each episode's records, before any
    exclusion. Then: drop excluded ground-truth kinds, drop tasks whose
    comparable-step fraction falls below the threshold, then average type
    and exact match over the surviving comparable steps. The gt-supported
    variant additionally removes steps whose reference action is outside the
    model's space. ``metrics`` is accepted for older callers and not used.
    """
    records = complete_records(records)
    if not records:
        raise EmptyReportError("no records to aggregate")

    episode_by_id = {ep.id: ep for ep in episodes or ()}
    gt_kind_by_key = {st.key: st.gt_action.kind
                      for ep in episode_by_id.values() for st in ep.steps}
    all_by_episode: dict[str, list[RunRecord]] = {}
    for r in sorted(records, key=lambda r: r.step_index):
        all_by_episode.setdefault(r.episode_id, []).append(r)
    outcomes = [episode_metrics(recs, episode_by_id.get(ep_id))
                for ep_id, recs in sorted(all_by_episode.items())]
    progress = sum(m.progress for m in outcomes) / len(outcomes)
    terminal = [m for m in outcomes if not m.truncated]
    success = sum(1 for m in terminal if m.success) / len(terminal) if terminal else None

    kept = [r for r in records if gt_kind_by_key.get(r.key) not in policy.exclude_gt_kinds]

    by_episode: dict[str, list[RunRecord]] = {}
    for r in kept:
        by_episode.setdefault(r.episode_id, []).append(r)

    dropped: list[str] = []
    scored: list[RunRecord] = []
    for ep_id, recs in sorted(by_episode.items()):
        comparable = sum(1 for r in recs if r.evaluation.get("comparable"))
        if len(recs) and comparable / len(recs) >= policy.min_comparable:
            scored.extend(r for r in recs if r.evaluation.get("comparable"))
        else:
            dropped.append(ep_id)

    type_mean, exact_mean = _mean_matches(scored)
    supported = [r for r in scored if r.evaluation.get("gt_supported")]
    type_sup, exact_sup = _mean_matches(supported)

    if dropped:
        logger.info("dropped %d episode(s) below the comparability threshold: %s",
                    len(dropped), ", ".join(dropped))
    return AggregateReport(
        n_episodes=len(by_episode),
        n_episodes_kept=len(by_episode) - len(dropped),
        n_steps=len(kept),
        n_steps_scored=len(scored),
        type_match=type_mean,
        exact_match=exact_mean,
        type_match_gt_supported=type_sup,
        exact_match_gt_supported=exact_sup,
        progress=progress,
        success_rate=success,
        dropped_episodes=dropped,
    )


def aggregate_by_benchmark(
    records: Sequence[RunRecord],
    episodes: Optional[Sequence[Episode]] = None,
    policy: EvalPolicy = DEFAULT_POLICY,
    metrics: Optional[dict[str, EpisodeMetrics]] = None,
) -> dict[str, AggregateReport]:
    """One report per source benchmark (episode files may mix several).
    ``metrics`` is accepted for older callers and not used."""
    by_benchmark: dict[str, list[RunRecord]] = {}
    for r in records:
        by_benchmark.setdefault(r.benchmark or "benchmark", []).append(r)
    return {name: aggregate(recs, episodes, policy)
            for name, recs in sorted(by_benchmark.items())}


# --- horizon stratification --------------------------------------------------

RATIO_BUCKETS = ("0-20%", "20-40%", "40-60%", "60-80%", "80-100%")


def step_ratio(step_index: int, episode_length: int) -> float:
    return (step_index + 1) / episode_length


def ratio_bucket(sr: float) -> int:
    """Right-closed 20% buckets over (0, 1]."""
    for i in range(5):
        if sr <= 0.2 * (i + 1):
            return i
    return 4


def stratify_by_horizon(records: Sequence[RunRecord]) -> dict:
    """Exact-match means keyed by absolute step index and by step-ratio bucket."""
    by_index: dict[int, list[bool]] = {}
    by_bucket: dict[int, list[bool]] = {}
    for r in records:
        exact = bool(r.evaluation and r.evaluation.get("exact_match"))
        by_index.setdefault(r.step_index, []).append(exact)
        bucket = ratio_bucket(step_ratio(r.step_index, r.episode_length))
        by_bucket.setdefault(bucket, []).append(exact)
    return {
        "by_step_index": {
            idx: {"exact_match": sum(v) / len(v), "n": len(v)}
            for idx, v in sorted(by_index.items())
        },
        "by_step_ratio": {
            RATIO_BUCKETS[b]: {"exact_match": sum(v) / len(v), "n": len(v)}
            for b, v in sorted(by_bucket.items())
        },
    }
