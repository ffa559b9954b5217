"""Unified action space, normalized screen geometry, and comparison primitives.

All spatial coordinates live in per-mille screen space: integers in
``[0, 1000]`` for both axes, independent of device resolution. Everything
downstream (matching, clustering, rewards) operates in this space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

PERMILLE_MAX = 1000

SCROLL_DIRECTIONS = ("up", "down", "left", "right")
PRESS_BUTTONS = ("HOME", "BACK", "ENTER")


class InvalidDimensionsError(ValueError):
    """Raised when an image dimension is zero or negative."""


class AmbiguousGestureError(ValueError):
    """Raised when a swipe has identical start and end points."""


class ActionKind(str, Enum):
    CLICK = "CLICK"
    LONG_PRESS = "LONG_PRESS"
    SCROLL = "SCROLL"
    TYPE = "TYPE"
    OPEN = "OPEN"
    PRESS = "PRESS"
    WAIT = "WAIT"
    STOP = "STOP"


#: Kinds whose ground truth may carry a bounding box.
CLICKABLE_KINDS = frozenset({ActionKind.CLICK, ActionKind.LONG_PRESS})

ALL_KINDS = frozenset(ActionKind)


@dataclass(frozen=True, order=True)
class Point:
    """A screen location in per-mille coordinates."""

    x: int
    y: int

    def __post_init__(self) -> None:
        for name, v in (("x", self.x), ("y", self.y)):
            if not isinstance(v, int):
                raise TypeError(f"Point.{name} must be int, got {type(v).__name__}")
            if not 0 <= v <= PERMILLE_MAX:
                raise ValueError(f"Point.{name}={v} outside [0, {PERMILLE_MAX}]")

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in per-mille coordinates, corners inclusive."""

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self) -> None:
        Point(self.x1, self.y1)
        Point(self.x2, self.y2)
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(f"inverted bbox ({self.x1},{self.y1},{self.x2},{self.y2})")

    @property
    def degenerate(self) -> bool:
        # Zero-area boxes are legal but flagged; containment then means equality
        # on the collapsed axis.
        return self.x1 == self.x2 or self.y1 == self.y2

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    @property
    def width(self) -> int:
        return self.x2 - self.x1

    @property
    def height(self) -> int:
        return self.y2 - self.y1

    def contains(self, p: Point) -> bool:
        return self.x1 <= p.x <= self.x2 and self.y1 <= p.y <= self.y2


@dataclass(frozen=True)
class Action:
    """One action in the unified space.

    ``params`` presence matches the kind: CLICK needs ``point``; LONG_PRESS
    ``point`` (+ optional ``duration``); SCROLL ``point`` + ``direction``;
    TYPE ``text`` (+ ``submit`` marker); OPEN ``app``; PRESS ``button``;
    WAIT optional ``duration``; STOP ``status``.
    """

    kind: ActionKind
    point: Optional[Point] = None
    direction: Optional[str] = None
    text: Optional[str] = None
    app: Optional[str] = None
    button: Optional[str] = None
    duration: Optional[float] = None
    status: str = "finish"
    # Submit marker for TYPE (trailing newline in some grammars); carried as a
    # flag, never part of text comparison.
    submit: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        k = self.kind
        if k in (ActionKind.CLICK, ActionKind.LONG_PRESS, ActionKind.SCROLL):
            if self.point is None:
                raise ValueError(f"{k.value} requires a point")
        if k is ActionKind.SCROLL:
            if self.direction not in SCROLL_DIRECTIONS:
                raise ValueError(f"SCROLL direction must be one of {SCROLL_DIRECTIONS}")
        elif self.direction is not None:
            raise ValueError(f"{k.value} does not take a direction")
        if k is ActionKind.TYPE and self.text is None:
            raise ValueError("TYPE requires text")
        if k is ActionKind.OPEN and not self.app:
            raise ValueError("OPEN requires an app name")
        if k is ActionKind.PRESS and self.button not in PRESS_BUTTONS:
            raise ValueError(f"PRESS button must be one of {PRESS_BUTTONS}")
        if k not in (ActionKind.CLICK, ActionKind.LONG_PRESS, ActionKind.SCROLL):
            if self.point is not None:
                raise ValueError(f"{k.value} does not take a point")

    def encode(self) -> str:
        """Canonical textual form, stable across logs, reports, and tests."""
        k = self.kind
        if k is ActionKind.CLICK:
            return f"CLICK(point={self.point})"
        if k is ActionKind.LONG_PRESS:
            if self.duration is not None:
                return f"LONG_PRESS(point={self.point},duration={_num(self.duration)})"
            return f"LONG_PRESS(point={self.point})"
        if k is ActionKind.SCROLL:
            return f"SCROLL(point={self.point},to={self.direction})"
        if k is ActionKind.TYPE:
            return f"TYPE(input={self.text})"
        if k is ActionKind.OPEN:
            return f"OPEN(app={self.app})"
        if k is ActionKind.PRESS:
            return f"PRESS(press={self.button})"
        if k is ActionKind.WAIT:
            if self.duration is not None:
                return f"WAIT(duration={_num(self.duration)})"
            return "WAIT()"
        return f"STOP(status={self.status})"

    def __str__(self) -> str:
        return self.encode()


def _num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else str(v)


def finite_float(value: object) -> float:
    """``float(value)``, rejecting NaN, infinities and numbers beyond a float.

    Every rejection is a ``ValueError``, never an ``OverflowError``, so the
    decoders that turn ``ValueError`` into a parse failure or an ingest
    rejection stay total.
    """
    try:
        number = float(value)
    except OverflowError:
        raise ValueError("number too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"number is not finite: {number}")
    return number


def normalize_point(
    raw: tuple[float, float],
    dims: tuple[float, float],
    warnings: Optional[list[str]] = None,
) -> Point:
    """Map a pixel-space point onto the per-mille grid.

    Each axis maps by ``round(raw/dim * 1000)`` and clamps to ``[0, 1000]``.
    Out-of-frame inputs are clamped, with a note appended to ``warnings``
    when a list is supplied. A coordinate that is not finite, or scales
    beyond a float, raises ``ValueError``. Idempotent on dims of 1000x1000.
    """
    w, h = dims
    if w <= 0 or h <= 0:
        raise InvalidDimensionsError(f"image dims must be positive, got {dims}")
    out = []
    clamped = False
    for v, d in ((raw[0], w), (raw[1], h)):
        scaled = round(finite_float(finite_float(v) / d * PERMILLE_MAX))
        if scaled < 0 or scaled > PERMILLE_MAX:
            clamped = True
            scaled = min(max(scaled, 0), PERMILLE_MAX)
        out.append(int(scaled))
    if clamped and warnings is not None:
        warnings.append(f"point {raw} outside frame {dims}; clamped")
    return Point(out[0], out[1])


def derive_scroll_direction(start: Point, end: Point) -> str:
    """Direction of the dominant displacement axis, oriented by finger motion.

    Ties on |dx| == |dy| resolve to the vertical axis (GUI scrolling is
    predominantly vertical).
    """
    dx = end.x - start.x
    dy = end.y - start.y
    if dx == 0 and dy == 0:
        raise AmbiguousGestureError(f"swipe start equals end at {start}")
    if abs(dx) > abs(dy):
        return "right" if dx > 0 else "left"
    return "down" if dy > 0 else "up"


def spatial_distance(a: Point, b: Point, metric: str = "l2") -> float:
    """L1 or L2 distance between two per-mille points."""
    m = metric.lower()
    dx = a.x - b.x
    dy = a.y - b.y
    if m == "l2":
        return math.hypot(dx, dy)
    if m == "l1":
        return float(abs(dx) + abs(dy))
    raise ValueError(f"unknown metric {metric!r}; expected 'l1' or 'l2'")


# --- matching -------------------------------------------------------------------

#: Fallback click radius (per-mille, L2) when the ground truth has no bbox.
#: Matches the spatial clustering neighborhood so the evaluator and the
#: decision abstraction agree on what counts as "the same target".
CLICK_RADIUS = 70.0


def canonical_text(value: str) -> str:
    # Trim surrounding whitespace only; case is significant.
    return value.strip()


def params_match(pred: Action, gt: Action, gt_bbox: Optional[BBox]) -> bool:
    """Kind-specific parameter matching; assumes the kinds are equal."""
    k = gt.kind
    if k in (ActionKind.CLICK, ActionKind.LONG_PRESS):
        if gt_bbox is not None:
            return gt_bbox.contains(pred.point)
        return spatial_distance(pred.point, gt.point, "l2") <= CLICK_RADIUS
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


def actions_match(pred: Action, gt: Action, gt_bbox: Optional[BBox] = None) -> bool:
    """Exact match: the same kind and matching parameters."""
    return pred.kind == gt.kind and params_match(pred, gt, gt_bbox)
