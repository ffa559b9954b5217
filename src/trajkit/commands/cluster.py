"""``trajkit cluster``: decision distributions per cell from rollout logs."""

from ..decisions import (ExecutionSample, build_distribution, diversity, diversity_shift,
                         effective_support, stability, stability_level, stability_shift)
from ..reporting import write_csv
from ..settings import episodes
from ..store import RunRecord, decode_prediction, read_jsonl, step_key


def _load_cells(path) -> dict[str, list]:
    """Samples per cell, from each record's structured prediction.

    Raw responses are not parsed again: pixel coordinates need the step's
    screen dimensions, which the rollout parse already applied.
    """
    def cell_sample(raw: dict):
        r = RunRecord(**raw)
        action = decode_prediction(r)
        return step_key(r.episode_id, r.step_index), ExecutionSample(
            action=action, thought=r.thought, seed=r.seed, round=r.round,
            parse_ok=action is not None, failure_reason=r.failure_reason)

    cells: dict[str, list] = {}
    for key, sample in read_jsonl(path, cell_sample):
        cells.setdefault(key, []).append(sample)
    return cells


def cmd_cluster(args) -> int:
    cells = _load_cells(args.rollouts)
    compare_cells = _load_cells(args.compare) if args.compare else None

    reference = episodes(args, check_screenshots=False) if args.benchmark else []
    gt_by_key = {s.key: s for ep in reference for s in ep.steps}

    def distribution(samples):
        return build_distribution(samples, epsilon=args.epsilon, min_pts=args.min_pts)

    rows = []
    for key in sorted(cells):
        dist = distribution(cells[key])
        h = diversity(dist)
        step = gt_by_key.get(key)
        theta = None if step is None else stability(dist, step.gt_action, step.gt_bbox)
        row = [key, dist.n, dist.support_size, h, effective_support(h), theta,
               None if step is None else stability_level(theta)]
        if compare_cells is not None:
            row += [None] * 4
            if key in compare_cells:
                other = distribution(compare_cells[key])
                shift = diversity_shift(h, diversity(other))
                row[7:9] = [shift.delta_exp, shift.category]
                if step is not None:
                    theta_after = stability(other, step.gt_action, step.gt_bbox)
                    row[9:] = [theta_after - theta, stability_shift(theta, theta_after)]
        rows.append(row)

    header = ["cell", "n", "support", "diversity", "effective_support",
              "stability", "stability_level"]
    if compare_cells is not None:
        header += ["delta_exp_div", "diversity_shift", "delta_stability",
                   "stability_shift"]
    write_csv(args.out, header, rows)
    print(f"cells: {len(rows)} -> {args.out}")
    return 0
