"""Reasoning-execution consistency: two-stage majority voting and validation.

Each judge replays a case with the reasoning trace pinned via fixed-thought
prompting and votes with its modal decision over n rollouts; the cross-judge
plurality is then compared to the actually executed action. Inconsistent
cases are classified into a three-way failure taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .actions import Action, ActionKind, actions_match, finite_float
from .decisions import ExecutionSample, build_distribution
from .dialects import Dialect
from .gateway import ModelGateway, prepare_input
from .stats import wilson_interval
from .store import Observation, StepTask, decode_action, read_jsonl


class UndecidableError(RuntimeError):
    """Every judge abstained; no verdict can be formed."""


FAILURE_TYPE_MISMATCH = "action-type-mismatch"
FAILURE_TARGET_MISMATCH = "action-target-mismatch"
FAILURE_INVALID = "invalid-action"


@dataclass(frozen=True)
class ConsistencyCase:
    case_id: str
    instruction: str
    observation: Observation
    reasoning_trace: str
    executed_action: Optional[Action]
    human_label: Optional[bool] = None  # True means consistent

    def __post_init__(self) -> None:
        if not self.reasoning_trace:
            raise ValueError("reasoning trace must be nonempty")

    def as_step(self) -> StepTask:
        # Input-side adapter only; the placeholder ground truth is never read.
        return StepTask(
            episode_id=self.case_id,
            step_index=0,
            instruction_high=self.instruction,
            observation=self.observation,
            gt_action=Action(ActionKind.STOP),
        )


@dataclass(frozen=True)
class JudgeMajority:
    judge_id: str
    decision: Optional[Action]
    mass: float = 0.0
    tied: bool = False

    @property
    def abstained(self) -> bool:
        return self.decision is None


@dataclass(frozen=True)
class JudgeVerdict:
    per_judge: tuple[JudgeMajority, ...]
    consensus: Optional[Action]
    consistent: bool
    tied: bool = False
    failure: Optional[str] = None


def judge_majority(
    gateway: ModelGateway,
    case: ConsistencyCase,
    dialect: Dialect,
    n: int = 32,
    judge_id: str = "judge",
) -> JudgeMajority:
    """One judge's modal decision over n fixed-thought rollouts."""
    request = prepare_input(
        case.as_step(), history=[], dialect=dialect,
        fixed_thought=case.reasoning_trace,
    )
    raws = gateway.generate(request, n=n)
    samples = [
        ExecutionSample.from_parsed(dialect.parse_response(raw, case.observation.dims))
        for raw in raws
    ]
    if not any(s.parse_ok for s in samples):
        return JudgeMajority(judge_id=judge_id, decision=None)
    dist = build_distribution(samples)
    top = dist.top()
    if top.representative is None:
        # The invalid pool won the plurality; treat as abstention.
        return JudgeMajority(judge_id=judge_id, decision=None, mass=top.mass)
    return JudgeMajority(judge_id=judge_id, decision=top.representative,
                         mass=top.mass, tied=dist.tied_top)


def two_stage_verdict(majorities: Sequence[JudgeMajority],
                      executed: Optional[Action]) -> JudgeVerdict:
    """Aggregate judge majorities into a consensus and compare to execution.

    Judges' decisions are grouped by decision-level equivalence (scanned in
    canonical order for determinism); the plurality group wins. A tied
    plurality resolves conservatively to inconsistent.
    """
    voting = [m for m in majorities if not m.abstained]
    if not voting:
        raise UndecidableError("all judges abstained")

    ordered = sorted((m.decision for m in voting), key=lambda a: a.encode())
    groups: list[list[Action]] = []
    for decision in ordered:
        for group in groups:
            if actions_match(decision, group[0]):
                group.append(decision)
                break
        else:
            groups.append([decision])
    groups.sort(key=lambda g: (-len(g), g[0].encode()))
    tied = len(groups) > 1 and len(groups[0]) == len(groups[1])
    consensus = groups[0][0]

    if tied:
        verdict_consistent = False
    else:
        verdict_consistent = executed is not None and actions_match(executed, consensus)

    failure = None
    if not verdict_consistent:
        failure = classify_failure(consensus, executed)
    return JudgeVerdict(
        per_judge=tuple(majorities),
        consensus=consensus,
        consistent=verdict_consistent,
        tied=tied,
        failure=failure,
    )


def classify_failure(consensus: Action, executed: Optional[Action]) -> str:
    """Taxonomy over inconsistent cases; total and mutually exclusive."""
    if executed is None:
        return FAILURE_INVALID
    if executed.kind != consensus.kind:
        return FAILURE_TYPE_MISMATCH
    return FAILURE_TARGET_MISMATCH


def judge_case(
    gateways: Sequence[tuple[str, ModelGateway, Dialect]],
    case: ConsistencyCase,
    n: int = 32,
) -> JudgeVerdict:
    """Run every judge on one case and fold their votes into a verdict."""
    majorities = [
        judge_majority(gw, case, dialect, n=n, judge_id=name)
        for name, gw, dialect in gateways
    ]
    return two_stage_verdict(majorities, case.executed_action)


# --- detector validation --------------------------------------------------------


@dataclass
class RateWithCI:
    value: Optional[float]
    ci: Optional[tuple[float, float]]
    successes: int
    n: int


@dataclass
class DetectorValidation:
    accuracy: RateWithCI
    tpr: RateWithCI
    tnr: RateWithCI
    confusion: dict[str, int] = field(default_factory=dict)


def _rate(successes: int, n: int) -> RateWithCI:
    if n == 0:
        return RateWithCI(value=None, ci=None, successes=successes, n=0)
    return RateWithCI(
        value=successes / n,
        ci=wilson_interval(successes, n),
        successes=successes,
        n=n,
    )


def detector_validation(labels: Sequence[bool], predictions: Sequence[bool]) -> DetectorValidation:
    """Accuracy/TPR/TNR with 95% Wilson intervals; positive class is consistent."""
    if len(labels) != len(predictions):
        raise ValueError("labels and predictions differ in length")
    tp = sum(1 for l, p in zip(labels, predictions) if l and p)
    fn = sum(1 for l, p in zip(labels, predictions) if l and not p)
    fp = sum(1 for l, p in zip(labels, predictions) if not l and p)
    tn = sum(1 for l, p in zip(labels, predictions) if not l and not p)
    return DetectorValidation(
        accuracy=_rate(tp + tn, tp + fn + fp + tn),
        tpr=_rate(tp, tp + fn),
        tnr=_rate(tn, tn + fp),
        confusion={"tp": tp, "fn": fn, "fp": fp, "tn": tn},
    )


# --- case files -------------------------------------------------------------------


def load_cases(path: str | Path) -> list[ConsistencyCase]:
    """Read line-delimited consistency cases (see docs for the schema)."""
    return read_jsonl(path, _decode_case)


def _decode_case(raw: dict) -> ConsistencyCase:
    executed = None
    if raw.get("executed_kind"):
        executed = decode_action(raw["executed_kind"], raw.get("executed_params") or {})
    label = raw.get("human_label")
    return ConsistencyCase(
        case_id=str(raw["case_id"]),
        instruction=str(raw["instruction"]),
        observation=Observation(
            screenshot_ref=str(raw.get("screenshot_path", "")),
            dims=(finite_float(raw.get("img_w", 1000)),
                  finite_float(raw.get("img_h", 1000))),
            text_desc=raw.get("screen_desc"),
        ),
        reasoning_trace=str(raw["reasoning_trace"]),
        executed_action=executed,
        human_label=None if label is None else bool(label),
    )
