"""``trajkit reward``: rewards of scored steps and advantages of reward groups."""

import json

from ..errors import InputError
from ..reporting import write_csv
from ..rewards import group_advantages, reward_binary, reward_gaussian_click
from ..store import decode_action, decode_bbox, read_jsonl


def cmd_reward(args) -> int:
    if args.groups:
        def group_row(rec: dict):
            result = group_advantages(rec["rewards"])
            return rec, [json.dumps(rec["rewards"]),
                         json.dumps([round(a, 6) for a in result.advantages]),
                         result.zero_variance]

        rows = [[rec.get("group_id", i), *cols]
                for i, (rec, cols) in enumerate(read_jsonl(args.groups, group_row))]
        write_csv(args.out, ("group_id", "rewards", "advantages", "zero_variance"), rows)
    elif args.steps:
        def step_row(rec: dict):
            gt = decode_action(rec["gt_kind"], rec.get("gt_params") or {})
            pred = None
            if rec.get("pred_kind"):
                pred = decode_action(rec["pred_kind"], rec.get("pred_params") or {})
            bbox = decode_bbox(rec["gt_bbox"]) if rec.get("gt_bbox") else None
            breakdown = reward_binary(pred, gt, bbox)
            total = breakdown.total
            if (args.mode == "gaussian" and breakdown.r_type == 1.0
                    and pred is not None and pred.kind.value in ("CLICK",)
                    and bbox is not None):
                total = breakdown.r_type + reward_gaussian_click(pred.point, bbox)
            return rec, [breakdown.r_type, breakdown.r_params, total]

        rows = [[rec.get("id", i), *cols]
                for i, (rec, cols) in enumerate(read_jsonl(args.steps, step_row))]
        write_csv(args.out, ("id", "r_type", "r_params", "total"), rows)
    else:
        raise InputError("reward needs --groups or --steps")
    print(f"rows: {len(rows)} -> {args.out}")
    return 0
