"""Reward computation and group-relative advantage math for external trainers.

The per-response reward decomposes into a binary action-type term and a
parameter term evaluated only when the type is correct; the total is their
sum. Advantages are group-normalized with the population standard
deviation, and the surrogate term uses an asymmetric clip window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .actions import Action, ActionKind, BBox, params_match


@dataclass(frozen=True)
class RewardBreakdown:
    r_type: float
    r_params: float
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.r_type not in (0.0, 1.0):
            raise ValueError("r_type is binary")
        if not 0.0 <= self.r_params <= 1.0:
            raise ValueError("r_params outside [0, 1]")
        if self.r_params > 0 and self.r_type == 0:
            raise ValueError("r_params requires a correct action type")

    @property
    def total(self) -> float:
        return self.r_type + self.r_params


@dataclass(frozen=True)
class AdvantageConfig:
    group_size: int = 16
    eps_low: float = 0.2
    eps_high: float = 0.3

    def __post_init__(self) -> None:
        if not 0 < self.eps_low <= self.eps_high:
            raise ValueError("need 0 < eps_low <= eps_high")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")


DEFAULT_ADVANTAGE_CONFIG = AdvantageConfig()


def reward_binary(pred: Optional[Action], gt: Action,
                  gt_bbox: Optional[BBox] = None) -> RewardBreakdown:
    """Binary type + parameter reward; parse failures earn zero."""
    if pred is None:
        return RewardBreakdown(0.0, 0.0, ("parse-failure",))
    if pred.kind != gt.kind:
        return RewardBreakdown(0.0, 0.0)
    # A click without an annotated box is scored by the evaluator's radius
    # rule. WAIT / STOP carry no parameters; a correct type earns the full
    # reward so totals stay comparable across kinds.
    fallback = gt.kind in (ActionKind.CLICK, ActionKind.LONG_PRESS) and gt_bbox is None
    r_params = 1.0 if params_match(pred, gt, gt_bbox) else 0.0
    return RewardBreakdown(1.0, r_params, ("bbox-missing-radius-fallback",) if fallback else ())


def reward_gaussian_click(pred_point, gt_bbox: BBox) -> float:
    """Dense spatial reward for click-coordinate prediction.

    ``exp(-(dx^2/(2 sx^2) + dy^2/(2 sy^2)))`` with the offset taken from the
    box center and sigma set to a quarter extent per axis, so the box edge
    sits near two sigma. Degenerate boxes fall back to exact equality.
    """
    px = pred_point.x if hasattr(pred_point, "x") else float(pred_point[0])
    py = pred_point.y if hasattr(pred_point, "y") else float(pred_point[1])
    cx, cy = gt_bbox.center
    if gt_bbox.degenerate:
        return 1.0 if (px, py) == (cx, cy) else 0.0
    sx = gt_bbox.width / 4.0
    sy = gt_bbox.height / 4.0
    dx = px - cx
    dy = py - cy
    return math.exp(-(dx * dx / (2 * sx * sx) + dy * dy / (2 * sy * sy)))


@dataclass(frozen=True)
class GroupAdvantages:
    advantages: tuple[float, ...]
    zero_variance: bool
    mean: float
    std: float


def group_advantages(rewards: Sequence[float],
                     cfg: Optional[AdvantageConfig] = None) -> GroupAdvantages:
    """Normalize one group's rewards to zero mean and unit population std.

    An all-equal group yields zero advantages with the zero-variance flag
    raised, the hook used by dynamic-sampling replacement.
    """
    if cfg is not None and len(rewards) != cfg.group_size:
        raise ValueError(f"expected {cfg.group_size} rewards, got {len(rewards)}")
    if len(rewards) < 2:
        raise ValueError("a group needs at least two rewards")
    mean = sum(rewards) / len(rewards)
    var = sum((r - mean) ** 2 for r in rewards) / len(rewards)
    std = math.sqrt(var)
    if std == 0.0:
        return GroupAdvantages(
            advantages=tuple(0.0 for _ in rewards),
            zero_variance=True, mean=mean, std=0.0,
        )
    return GroupAdvantages(
        advantages=tuple((r - mean) / std for r in rewards),
        zero_variance=False, mean=mean, std=std,
    )


def clipped_term(ratio: float, advantage: float,
                 cfg: AdvantageConfig = DEFAULT_ADVANTAGE_CONFIG) -> float:
    """Asymmetrically clipped surrogate: min(r*A, clip(r, 1-el, 1+eh)*A)."""
    if ratio <= 0:
        raise ValueError("probability ratio must be positive")
    clipped = min(max(ratio, 1.0 - cfg.eps_low), 1.0 + cfg.eps_high)
    return min(ratio * advantage, clipped * advantage)
