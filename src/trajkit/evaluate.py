"""Trajectory replay and offline evaluation.

Every replay protocol runs through one engine, ``replay_episode``; a
protocol only chooses what the model sees at each history position (its
``HistoryFn``, which its ``HistoryFactory`` makes for each episode). Step scoring follows per-kind matching rules; episode
progress is the longest exactly-matched prefix fraction, and success means
every step matched. Aggregation applies the 95% comparability rule per task and the
benchmark-level ground-truth exclusions before any averaging.
"""

from __future__ import annotations

import logging
import math
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .actions import ALL_KINDS, Action, BBox, actions_match
from .dialects import Dialect, HistoryEntry, ParsedResponse, ReferenceEntry
from .errors import EmptyReportError, WorkerDiedError
from .store import Episode, RunRecord, RunWriter, StepTask, prediction_fields, step_key

if TYPE_CHECKING:
    from .gateway import ModelGateway

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

class ReplayStopped(Exception):
    """Raised at a step boundary in a ``map_in_order`` worker whose consumer
    has stopped: Ctrl-C, an error, or an early exit."""


# In a ``map_in_order`` worker: ``job``, its function and items, and ``stop``,
# the Event set once the consumer has stopped (None in a worker process).
_worker = threading.local()


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
    """``prefix``: the steps exactly matched before the first miss, of
    ``length``."""

    prefix: int
    length: int
    success: bool
    truncated: bool = False

    def __post_init__(self) -> None:
        if self.success and self.prefix != self.length:
            raise ValueError("success implies progress == 1")

    @property
    def progress(self) -> float:
        return self.prefix / self.length


@dataclass(frozen=True)
class EvalPolicy:
    """Knobs for scoring and aggregation."""

    benchmark_space: frozenset = ALL_KINDS
    min_comparable: float = 0.95
    exclude_gt_kinds: frozenset = frozenset()


DEFAULT_POLICY = EvalPolicy()


def evaluate_step(
    pred: Optional[Action],
    gt: Action,
    gt_bbox: Optional[BBox] = None,
    model_space: frozenset = ALL_KINDS,
    benchmark_space: frozenset = ALL_KINDS,
    failure_reason: Optional[str] = None,
    parse_recognized: bool = False,
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
    exact = actions_match(pred, gt, gt_bbox)
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
    success = (not truncated) and prefix == total and len(exact) == total
    return EpisodeMetrics(prefix=prefix, length=total, success=success, truncated=truncated)


def _mean_progress(outcomes: Sequence[EpisodeMetrics]) -> float:
    """The mean of the episodes' progress fractions, rounded once: the
    prefixes are summed exactly over the lengths' least common multiple, and
    the one int/int division rounds correctly."""
    prefixes_by_length = Counter()
    for m in outcomes:
        prefixes_by_length[m.length] += m.prefix
    common = math.lcm(*prefixes_by_length)
    total = sum(prefix * (common // length) for length, prefix in prefixes_by_length.items())
    return total / (common * len(outcomes))


# --- the replay engine -------------------------------------------------------

#: Step ``i``'s history, from the records of the steps before it: the
#: entries shown to the model, which of them are on-policy, and which
#: positions had an on-policy entry to offer. A protocol that does not
#: record the last two returns None for them.
HistoryFn = Callable[[int, Sequence[RunRecord]],
                     tuple[Sequence[HistoryEntry], Optional[list[bool]], Optional[list[bool]]]]


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
) -> list[RunRecord]:
    """Replay one episode step by step; every replay protocol runs here.

    The protocols differ only in ``history``. Each step yields one record
    per completion the gateway returns (its sampling ``n``). Step ``i``'s
    history is taken before ``writer`` is asked for the step's persisted
    record, so a resumed step makes the same random draws as a fresh one; a
    persisted step is read back from its first sample's record and never
    re-queried. Screenshots are not checked here: ``load_episodes``
    checks them once, and a backend that reads one raises
    ``UnresolvableObservationError`` if it has gone since. An episode's
    outcome is ``episode_metrics`` of the records returned. Under a
    ``map_in_order`` whose consumer has stopped, the next step raises
    ``ReplayStopped``; the steps persisted so far stay resumable.
    """
    from .gateway import prepare_input

    records: list[RunRecord] = []
    stop = getattr(_worker, "stop", None)
    for i, step in enumerate(episode.steps):
        if stop is not None and stop.is_set():
            raise ReplayStopped(episode.id)
        entries, sources, eligible = history(i, records)
        persisted = (writer.get(step_key(episode.id, step.step_index, round_idx))
                     if writer is not None else None)
        if persisted is not None:
            records.append(persisted)
            continue
        request = prepare_input(step, entries, dialect, enable_thinking=enable_thinking)
        raws = gateway.generate(request, seed=seed)
        for j, raw in enumerate(raws):
            parsed = dialect.parse_response(raw, step.observation.dims)
            evaluation = evaluate_parsed(parsed, step, dialect, policy)
            record = build_record(episode, step, raw, parsed, evaluation, sources, eligible,
                                  round_idx, seed, j)
            if writer is not None:
                writer.append(record)
            records.append(record)
    return records


def map_in_order(fn: Callable[[T], R], items: Iterable[T], concurrency: int = 1,
                 processes: bool = False) -> Iterator[R]:
    """``map(fn, items)`` with up to ``concurrency`` calls at once, never more
    than there are items, yielding results in the order of ``items``. One
    call at a time runs in this thread; more run on a thread pool or, with
    ``processes``, on worker processes forked from this one (without the
    ``fork`` start method, in this thread). A call that raises raises here; a
    dead worker process raises ``WorkerDiedError``. If the consumer stops
    early, a call raises or Ctrl-C arrives, pending calls are cancelled and
    running replays stop at their next step (``replay_episode`` checks the
    stop flag), or their workers are killed, before this returns."""
    items = list(items)
    if processes:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            concurrency = 1
    concurrency = min(concurrency, len(items))
    if concurrency <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import BrokenExecutor

    stop = threading.Event()
    if processes:
        from concurrent.futures import ProcessPoolExecutor

        # A forked child has only the forking thread, and a lock that another
        # thread held stays held in it; under ``fork`` the executor forks
        # every worker at the first submit, before it starts its own thread.
        pool = ProcessPoolExecutor(concurrency, multiprocessing.get_context("fork"),
                                   _init_worker, (fn, items, None))
    else:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(concurrency, initializer=_init_worker,
                                  initargs=(fn, items, stop))
    futures = []
    try:
        # A worker may die, or Ctrl-C arrive, before every call is submitted.
        for i in range(len(items)):
            futures.append(pool.submit(_call, i))
        for future in futures:
            yield future.result()
    except BrokenExecutor:
        # The executor cannot tell which call ran on the dead worker.
        finished = sum(f.done() and not f.cancelled() and f.exception() is None
                       for f in futures)
        raise WorkerDiedError(f"a worker process died after {finished} of {len(items)} "
                              f"jobs had finished") from None
    finally:
        stop.set()
        # Idle once every result is in; killed when no more are wanted.
        # ``ProcessPoolExecutor`` has no public way to kill its workers.
        for worker in (getattr(pool, "_processes", None) or {}).values():
            worker.kill()
        pool.shutdown(wait=True, cancel_futures=True)


def _init_worker(fn: Callable, items: list, stop: Optional[threading.Event]) -> None:
    """Starts a ``map_in_order`` worker: a thread, with the stop flag, or a
    worker process, which is killed instead. Workers get ``fn`` and ``items``
    here, so only indices and results are pickled."""
    _worker.job, _worker.stop = (fn, items), stop
    if stop is None:
        import signal

        # Ctrl-C reaches every process of the group; the parent alone handles it.
        signal.signal(signal.SIGINT, signal.SIG_IGN)


def _call(index: int):
    fn, items = _worker.job
    return fn(items[index])


#: A replay protocol: (episode index, episode) -> that episode's ``HistoryFn``.
#: The offline, live and pooled protocols differ in this alone.
HistoryFactory = Callable[[int, Episode], HistoryFn]


def replay_benchmark(
    gateway: ModelGateway,
    episodes: Sequence[Episode],
    dialect: Dialect,
    histories: HistoryFactory,
    policy: EvalPolicy = DEFAULT_POLICY,
    enable_thinking: bool = True,
    writer: Optional[RunWriter] = None,
    seed: Optional[int] = None,
    concurrency: int = 1,
    continue_on_error: bool = False,
) -> tuple[list[RunRecord], dict[str, EpisodeMetrics]]:
    """Replay many episodes under one protocol, in order: episode ``idx``
    runs ``replay_episode`` with the history ``histories(idx, episode)``.

    Steps within an episode stay sequential; ``concurrency`` episodes run at
    once, on threads, and the records come back in episode order whatever
    order the episodes finish in (a writer's appends do not: see
    ``RunWriter.canonicalize``). The gateway, not ``concurrency``, caps the
    requests in flight: over HTTP the CLI runs one episode more than the
    gateway has request slots, so that a slot freed while a request backs
    off, or while an episode works between requests, is used. With
    ``continue_on_error`` a failing episode is logged and left incomplete
    (its persisted steps remain resumable) instead of aborting the whole
    run; incomplete episodes carry no entry in the metrics map.
    """
    def run(indexed: tuple[int, Episode]) -> Optional[list[RunRecord]]:
        idx, ep = indexed
        try:
            return replay_episode(gateway, ep, dialect, histories(idx, ep), policy,
                                  enable_thinking, writer, seed=seed)
        except ReplayStopped:
            raise
        except Exception:
            if not continue_on_error:
                raise
            logger.exception("episode %s left incomplete", ep.id)
            return None

    outcomes = list(map_in_order(run, enumerate(episodes), concurrency))
    done = [(ep, records) for ep, records in zip(episodes, outcomes) if records is not None]
    return ([r for _, records in done for r in records],
            {ep.id: episode_metrics(records, ep) for ep, records in done})


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


def evaluate_benchmark_offline(gateway: ModelGateway, episodes: Sequence[Episode],
                               dialect: Dialect, **options):
    """``replay_benchmark`` under the offline protocol, with its keyword
    ``options``. Kept for the scripts under ``perfbench/``; no command calls it."""
    return replay_benchmark(gateway, episodes, dialect, lambda _, ep: reference_history(ep),
                            **options)


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
    progress = _mean_progress(outcomes)
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
