"""``trajkit judge``: reasoning-execution consistency under scripted judges."""

from ..actions import Action, ActionKind
from ..dialects import get_dialect
from ..gateway import EndpointConfig, MockBackend, ModelGateway, SamplingConfig
from ..judging import detector_validation, judge_case, load_cases
from ..reporting import write_csv
from ..stats import defined


def cmd_judge(args) -> int:
    dialect = get_dialect(args.dialect)
    cases = load_cases(args.cases)

    # Scripted judges: each judge echoes the action named in the reasoning
    # trace when it can parse one, so labeled fixtures validate the pipeline.
    def judge_responder(request, seed, n):
        action = dialect.parse_response(request.fixed_thought or "").action
        if action is None:
            action = Action(ActionKind.PRESS, button="BACK")
        return [dialect.render_response(action, thought="echo", conclusion="echo")] * n

    # The scripted judges answer the same whatever the endpoint settings.
    cfg = EndpointConfig(sampling=SamplingConfig(n=args.rollouts))
    gateways = [(f"judge{j}", ModelGateway(MockBackend(judge_responder), cfg), dialect)
                for j in range(args.judges)]

    rows, labels, preds = [], [], []
    for case in cases:
        verdict = judge_case(gateways, case, n=args.rollouts)
        per_judge = [f"{m.judge_id}:{m.decision.encode() if m.decision else 'abstain'}"
                     for m in verdict.per_judge]
        rows.append([
            case.case_id,
            verdict.consensus.encode() if verdict.consensus else "-",
            case.executed_action.encode() if case.executed_action else "-",
            verdict.consistent,
            verdict.failure or "-",
            " | ".join(per_judge),
        ])
        if case.human_label is not None:
            labels.append(case.human_label)
            preds.append(verdict.consistent)
    write_csv(args.out, ("case", "consensus", "executed", "consistent",
                         "failure", "per_judge"), rows)
    if labels:
        validation = detector_validation(labels, preds)
        print(f"acc={defined(validation.accuracy.value, '.4f')} "
              f"tpr={defined(validation.tpr.value, '.4f')} "
              f"tnr={defined(validation.tnr.value, '.4f')}")
    print(f"cases: {len(rows)} -> {args.out}")
    return 0
