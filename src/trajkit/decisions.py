"""Decision-level analytics over repeated execution samples.

Execution samples for one step are clustered per action kind (density-based
for spatial actions, two-stage incremental matching for text, literal
grouping for categorical, trivial for control kinds); each cluster is one
decision carrying probability mass. Diversity is the entropy of that
distribution, stability the mass of the decision matching the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Optional, Sequence

from .actions import Action, ActionKind, BBox, Point, actions_match

if TYPE_CHECKING:
    import numpy as np

    from .dialects import ParsedResponse

SPATIAL_KINDS = (ActionKind.CLICK, ActionKind.LONG_PRESS)
TEXT_KINDS = (ActionKind.TYPE, ActionKind.OPEN)
CATEGORICAL_KINDS = (ActionKind.SCROLL, ActionKind.PRESS)
TRIVIAL_KINDS = (ActionKind.WAIT, ActionKind.STOP)

INVALID_KIND = "INVALID"

DBSCAN_EPSILON = 70.0
DBSCAN_MIN_PTS = 3
TAU_LOOSE = 0.3
TAU_STRICT = 0.1

#: Diameter of the per-mille screen square; normalizes transport distances.
DOMAIN_DIAMETER = 1000.0 * math.sqrt(2.0)

class EmptyDistributionError(ValueError):
    pass


class InvalidMeasureError(ValueError):
    pass


@dataclass(frozen=True)
class ExecutionSample:
    """One rollout outcome; unparsed samples keep their failure reason."""

    action: Optional[Action]
    thought: Optional[str] = None
    seed: Optional[int] = None
    round: int = 0
    parse_ok: bool = True
    failure_reason: Optional[str] = None

    def __post_init__(self) -> None:
        if self.parse_ok and self.action is None:
            raise ValueError("parse_ok samples need an action")

    @classmethod
    def from_parsed(cls, parsed: ParsedResponse, seed: Optional[int] = None,
                    round_idx: int = 0) -> "ExecutionSample":
        return cls(
            action=parsed.action,
            thought=parsed.thought,
            seed=seed,
            round=round_idx,
            parse_ok=parsed.ok,
            failure_reason=parsed.failure,
        )


# --- spatial clustering -------------------------------------------------------


def cluster_spatial(
    points: Sequence[tuple[float, float]] | Sequence[Point],
    epsilon: float = DBSCAN_EPSILON,
    metric: str = "l2",
    min_pts: int = DBSCAN_MIN_PTS,
) -> np.ndarray:
    """Density-based cluster labels; noise is labeled -1.

    Semantics: a point is core when its closed epsilon-neighborhood
    (including itself) holds at least ``min_pts`` points; core points
    connect when within epsilon; border points attach to the nearest core
    (ties to the lowest core index), which makes labels independent of
    input order. Labels are numbered by first-member order.
    """
    import numpy as np

    return np.array(_cluster_spatial(points, epsilon, metric, min_pts)[0], dtype=int)


def _cluster_spatial(points: Sequence[tuple[float, float]] | Sequence[Point], epsilon: float,
                     metric: str, min_pts: int) -> tuple[list[int], list[list[float]]]:
    """``cluster_spatial``'s labels and the pairwise distance matrix behind
    them, in plain lists: each distance is the float that numpy's
    ``sqrt((diff ** 2).sum(-1))`` or ``abs(diff).sum(-1)`` gives."""
    n = len(points)
    if n == 0:
        return [], []
    coords = [(float(p.x), float(p.y)) if isinstance(p, Point) else (float(p[0]), float(p[1]))
              for p in points]
    if metric.lower() == "l2":
        dist = [[math.sqrt((xa - xb) * (xa - xb) + (ya - yb) * (ya - yb)) for xb, yb in coords]
                for xa, ya in coords]
    elif metric.lower() == "l1":
        dist = [[abs(xa - xb) + abs(ya - yb) for xb, yb in coords] for xa, ya in coords]
    else:
        raise ValueError(f"unknown metric {metric!r}")
    within = [[j for j, d in enumerate(row) if d <= epsilon] for row in dist]
    core = [len(w) >= min_pts for w in within]

    labels = [-1] * n
    next_label = 0
    for i in range(n):
        if not core[i] or labels[i] >= 0:
            continue
        # Flood-fill the core component reachable from i.
        stack = [i]
        labels[i] = next_label
        while stack:
            for k in within[stack.pop()]:
                if core[k] and labels[k] < 0:
                    labels[k] = next_label
                    stack.append(k)
        next_label += 1

    # A border point joins its nearest core; min keeps the first of equals.
    for i in range(n):
        reachable = [k for k in within[i] if core[k]]
        if not core[i] and reachable:
            labels[i] = labels[min(reachable, key=dist[i].__getitem__)]
    return labels, dist


# --- text clustering ------------------------------------------------------------


def levenshtein(a: str, b: str) -> int:
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def normalized_edit_distance(a: str, b: str) -> float:
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest


def _collapse(s: str) -> str:
    return " ".join(s.split()).casefold()


def text_contains(x: str, prototype: str) -> bool:
    cx, cp = _collapse(x), _collapse(prototype)
    return cx in cp or cp in cx


@dataclass
class TextCluster:
    prototype: str
    member_indices: list[int] = field(default_factory=list)


def cluster_text(strings: Sequence[str]) -> list[TextCluster]:
    """Two-stage incremental assignment with prototypes.

    Stage one joins the first prototype that both contains/is contained by
    the string and sits within the loose edit-distance budget; stage two
    joins the nearest prototype within the strict budget; otherwise the
    string founds a new cluster and becomes its prototype.
    """
    clusters: list[TextCluster] = []
    for i, x in enumerate(strings):
        if not clusters:
            clusters.append(TextCluster(prototype=x, member_indices=[i]))
            continue
        joined = False
        for c in clusters:
            if text_contains(x, c.prototype) and \
                    normalized_edit_distance(x, c.prototype) <= TAU_LOOSE:
                c.member_indices.append(i)
                joined = True
                break
        if joined:
            continue
        candidates = [(normalized_edit_distance(x, c.prototype), j)
                      for j, c in enumerate(clusters)]
        candidates = [(d, j) for d, j in candidates if d <= TAU_STRICT]
        if candidates:
            _, j = min(candidates)
            clusters[j].member_indices.append(i)
        else:
            clusters.append(TextCluster(prototype=x, member_indices=[i]))
    return clusters


# --- decision distributions ------------------------------------------------------


@dataclass(frozen=True)
class DecisionCluster:
    kind: str
    member_indices: tuple[int, ...]
    representative: Optional[Action]
    mass: float

    def sort_key(self) -> tuple:
        encoded = self.representative.encode() if self.representative else "~invalid"
        return (-self.mass, encoded)


@dataclass
class DecisionDistribution:
    clusters: list[DecisionCluster]
    n: int

    def masses(self) -> list[float]:
        return [c.mass for c in self.clusters]

    @property
    def support_size(self) -> int:
        return len(self.clusters)

    def top(self) -> DecisionCluster:
        return self.clusters[0]

    @property
    def tied_top(self) -> bool:
        return len(self.clusters) > 1 and \
            math.isclose(self.clusters[0].mass, self.clusters[1].mass)


def _medoid_index(members: list[int], dist: list[list[float]]) -> int:
    """The member with the least summed distance to the others (ties to the
    first), from ``dist``, the cell's distance matrix. For per-mille integer
    points each entry equals ``spatial_distance``. Each cost adds left to
    right, as ``cumsum`` does; ``sum`` would not, since Python 3.12."""
    best = 0
    best_cost = math.inf
    for i, m in enumerate(members):
        cost = reduce(add, map(dist[m].__getitem__, members))
        if cost < best_cost - 1e-12:
            best, best_cost = i, cost
    return members[best]


def build_distribution(
    samples: Sequence[ExecutionSample],
    epsilon: float = DBSCAN_EPSILON,
    metric: str = "l2",
    min_pts: int = DBSCAN_MIN_PTS,
) -> DecisionDistribution:
    """Cluster one cell's samples into a decision distribution.

    Unparsed samples pool into a reserved invalid decision so masses always
    sum to one; each spatial noise point is a decision of its own.
    """
    n = len(samples)
    if n == 0:
        raise EmptyDistributionError("no samples")

    by_kind: dict[ActionKind, list[int]] = {}
    invalid: list[int] = []
    for i, s in enumerate(samples):
        if s.parse_ok:
            by_kind.setdefault(s.action.kind, []).append(i)
        else:
            invalid.append(i)

    raw: list[tuple[str, list[int], Optional[Action]]] = []
    for kind in sorted(by_kind, key=lambda k: k.value):
        idxs = by_kind[kind]
        actions = [samples[i].action for i in idxs]
        if kind in SPATIAL_KINDS:
            coords = [(a.point.x, a.point.y) for a in actions]
            labels, dist = _cluster_spatial(coords, epsilon, metric, min_pts)
            groups: dict[int, list[int]] = {}
            noise: list[int] = []
            for local, lab in enumerate(labels):
                if lab < 0:
                    noise.append(local)
                else:
                    groups.setdefault(lab, []).append(local)
            for lab in sorted(groups):
                members = groups[lab]
                medoid_local = _medoid_index(members, dist)
                raw.append((kind.value, [idxs[m] for m in members],
                            actions[medoid_local]))
            for local in noise:
                raw.append((kind.value, [idxs[local]], actions[local]))
        elif kind in TEXT_KINDS:
            texts = [a.text if kind is ActionKind.TYPE else a.app for a in actions]
            for cluster in cluster_text(texts):
                proto_local = cluster.member_indices[0]
                raw.append((kind.value, [idxs[m] for m in cluster.member_indices],
                            actions[proto_local]))
        elif kind in CATEGORICAL_KINDS:
            literals = [a.direction if kind is ActionKind.SCROLL else a.button
                        for a in actions]
            seen: dict[str, list[int]] = {}
            for local, lit in enumerate(literals):
                seen.setdefault(lit, []).append(local)
            for lit in seen:
                members = seen[lit]
                raw.append((kind.value, [idxs[m] for m in members], actions[members[0]]))
        else:
            raw.append((kind.value, list(idxs), actions[0]))

    if invalid:
        raw.append((INVALID_KIND, list(invalid), None))

    clusters = [
        DecisionCluster(kind=k, member_indices=tuple(members),
                        representative=rep, mass=len(members) / n)
        for k, members, rep in raw
    ]
    clusters.sort(key=DecisionCluster.sort_key)
    return DecisionDistribution(clusters=clusters, n=n)


def diversity(dist: DecisionDistribution) -> float:
    """Entropy (natural log) of the decision distribution."""
    if not dist.clusters:
        raise EmptyDistributionError("empty distribution")
    return float(-sum(p * math.log(p) for p in dist.masses() if p > 0))


def effective_support(dist_or_entropy) -> float:
    h = dist_or_entropy if isinstance(dist_or_entropy, float) else diversity(dist_or_entropy)
    return math.exp(h)


def stability(dist: DecisionDistribution, gt: Action, gt_bbox: Optional[BBox] = None) -> float:
    """Mass of decisions whose representative exact-matches the ground truth."""
    total = 0.0
    for c in dist.clusters:
        rep = c.representative
        if rep is not None and actions_match(rep, gt, gt_bbox):
            total += c.mass
    return total


def member_stability(samples: Sequence[ExecutionSample], gt: Action,
                     gt_bbox: Optional[BBox] = None) -> float:
    """Per-sample exact-match mean; the audit counterpart of ``stability``."""
    if not samples:
        raise EmptyDistributionError("no samples")
    return _exact_hits(samples, gt, gt_bbox) / len(samples)


def _exact_hits(samples: Sequence[ExecutionSample], gt: Action, gt_bbox: Optional[BBox]) -> int:
    return sum(1 for s in samples
               if s.parse_ok and actions_match(s.action, gt, gt_bbox))


# --- discretizations ---------------------------------------------------------------

DIVERSITY_SHIFT_THRESHOLD = 0.1
STABILITY_LOW = 0.4
STABILITY_HIGH = 0.8


@dataclass(frozen=True)
class DiversityShift:
    delta_exp: float
    category: str


def diversity_shift(div_before: float, div_after: float) -> DiversityShift:
    """Shift of effective support size, discretized at +/-0.1."""
    delta = math.exp(div_after) - math.exp(div_before)
    if abs(delta) <= DIVERSITY_SHIFT_THRESHOLD:
        category = "negligible"
    elif delta > 0:
        category = "increasing"
    else:
        category = "decreasing"
    return DiversityShift(delta_exp=delta, category=category)


def stability_level(theta: float) -> str:
    if theta <= STABILITY_LOW:
        return "low"
    if theta > STABILITY_HIGH:
        return "high"
    return "medium"


def stability_shift(theta_before: float, theta_after: float) -> str:
    delta = theta_after - theta_before
    if delta == 0:
        return "negligible"
    return "increasing" if delta > 0 else "decreasing"


# --- pass@n ----------------------------------------------------------------------


def pass_at_n(samples: Sequence[ExecutionSample], n: int, gt: Action,
              gt_bbox: Optional[BBox] = None) -> float:
    """Unbiased estimator 1 - C(N-c, n)/C(N, n) over N samples with c correct."""
    total = len(samples)
    if n < 1 or n > total:
        raise ValueError(f"n={n} outside [1, {total}]")
    c = _exact_hits(samples, gt, gt_bbox)
    return 1.0 - math.comb(total - c, n) / math.comb(total, n)


# --- optimal transport --------------------------------------------------------------

MAX_OT_SUPPORT = 256


def _spatial_atoms(dist: DecisionDistribution, kind: ActionKind
                   ) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    pts = []
    masses = []
    for c in dist.clusters:
        if c.kind == kind.value and c.representative is not None:
            pts.append((c.representative.point.x, c.representative.point.y))
            masses.append(c.mass)
    if not pts:
        raise InvalidMeasureError(f"no {kind.value} mass in distribution")
    masses_arr = np.asarray(masses, dtype=float)
    return np.asarray(pts, dtype=float), masses_arr / masses_arr.sum()


def discrete_w1(points_a: np.ndarray, weights_a: np.ndarray,
                points_b: np.ndarray, weights_b: np.ndarray) -> float:
    """Exact 1-Wasserstein distance between small discrete measures."""
    import numpy as np

    if abs(weights_a.sum() - weights_b.sum()) > 1e-9:
        raise InvalidMeasureError("measures carry unequal total mass")
    m, n = len(weights_a), len(weights_b)
    if m > MAX_OT_SUPPORT or n > MAX_OT_SUPPORT:
        raise InvalidMeasureError(f"support exceeds {MAX_OT_SUPPORT}")
    if not m or not n:
        raise InvalidMeasureError("empty measure")
    diff = points_a[:, None, :] - points_b[None, :, :]
    cost = np.sqrt((diff ** 2).sum(axis=-1))
    plan = _transport_plan(cost, weights_a.tolist(), weights_b.tolist())
    return math.fsum(cost[i, j] * x for (i, j), x in plan.items())


def _transport_plan(cost: np.ndarray, supply: list[float], demand: list[float]
                    ) -> dict[tuple[int, int], float]:
    """An optimal plan of the transportation problem, by network simplex.

    Rows 0..m-1 and columns m..m+n-1 are the nodes of a bipartite graph,
    and a basis is a spanning tree of m+n-1 cells. Each pivot takes the
    potentials u, v from the tree, prices every cell at once as
    c_ij - u_i - v_j, enters the most negative, and pushes flow round the
    cycle it closes. The leaving cell is the last blocking one met going
    round the cycle from its apex, along the entering cell (Cunningham's
    rule against cycling on degenerate pivots; it is a proof only from a
    strongly feasible first tree, which this one need not be, so the
    pivots are also capped).
    """
    import numpy as np

    m, n = cost.shape
    flow = _least_cost_basis(cost, supply, demand)
    adj: list[set[int]] = [set() for _ in range(m + n)]
    for i, j in flow:
        adj[i].add(m + j)
        adj[m + j].add(i)
    c = cost.tolist()
    tol = 1e-12 * float(cost.max())
    for _ in range((m + n) ** 2):
        # The tree rooted at row 0: potentials (u_0 = 0, u_i + v_j = c_ij on
        # tree cells), parents and depths.
        pot = [0.0] * (m + n)
        parent = [-1] * (m + n)
        depth = [0] * (m + n)
        order = [0]
        for a in order:
            for b in adj[a]:
                if b != parent[a]:
                    parent[b] = a
                    depth[b] = depth[a] + 1
                    pot[b] = (c[a][b - m] if a < m else c[b][a - m]) - pot[a]
                    order.append(b)
        reduced = cost - np.array(pot[:m])[:, None] - np.array(pot[m:])
        k = int(reduced.argmin())
        if reduced.flat[k] >= -tol:
            return flow
        i, j = divmod(k, n)
        # Climb from both ends of the entering cell to the apex. Going
        # round the cycle, flow falls on every other cell, starting with
        # the tree cell next to each end.
        side_i, side_j = [], []
        a, b = i, m + j
        while a != b:
            if depth[a] >= depth[b]:
                side_i.append(a)
                a = parent[a]
            else:
                side_j.append(b)
                b = parent[b]
        cells = {node: _cell(node, parent[node], m) for node in side_i + side_j}
        falling = side_i[::2][::-1] + side_j[::2]
        leaving = min(reversed(falling), key=lambda node: flow[cells[node]])
        theta = max(flow[cells[leaving]], 0.0)
        for side in (side_i, side_j):
            for pos, node in enumerate(side):
                flow[cells[node]] += theta if pos % 2 else -theta
        del flow[cells[leaving]]
        adj[leaving].discard(parent[leaving])
        adj[parent[leaving]].discard(leaving)
        flow[(i, j)] = theta
        adj[i].add(m + j)
        adj[m + j].add(i)
    raise RuntimeError(f"transport solve failed: no optimum after {(m + n) ** 2} pivots")


def _cell(a: int, b: int, m: int) -> tuple[int, int]:
    """The (row, column) of the tree edge between nodes ``a`` and ``b``."""
    return (a, b - m) if a < m else (b, a - m)


def _least_cost_basis(cost: np.ndarray, supply: list[float], demand: list[float]
                      ) -> dict[tuple[int, int], float]:
    """A first basis: cells in increasing cost, each shipping what its row
    or column has left and closing that one line (so the m+n-1 cells form a
    spanning tree; the last row or column is closed only with the other)."""
    import numpy as np

    m, n = cost.shape
    s, d = list(supply), list(demand)
    row_open, col_open = [True] * m, [True] * n
    rows, cols = m, n
    flow = {}
    for k in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(k, n)
        if not (row_open[i] and col_open[j]):
            continue
        if rows == 1 and cols == 1:
            flow[(i, j)] = max(0.0, min(s[i], d[j]))
            return flow
        if cols == 1 or (rows > 1 and s[i] <= d[j]):
            x = s[i]
            row_open[i] = False
            rows -= 1
        else:
            x = d[j]
            col_open[j] = False
            cols -= 1
        x = max(0.0, x)
        s[i] -= x
        d[j] -= x
        flow[(i, j)] = x
    raise AssertionError("unreachable: every line closes")


def wasserstein_norm(dist_a: DecisionDistribution, dist_b: DecisionDistribution,
                     kind: ActionKind = ActionKind.CLICK) -> float:
    """Normalized W1 between two distributions restricted to one spatial kind."""
    if kind not in SPATIAL_KINDS:
        raise ValueError(f"{kind.value} is not a spatial kind")
    pa, wa = _spatial_atoms(dist_a, kind)
    pb, wb = _spatial_atoms(dist_b, kind)
    return discrete_w1(pa, wa, pb, wb) / DOMAIN_DIAMETER
