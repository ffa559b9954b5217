"""Independent reference implementations used only to cross-check results.

These stay deliberately naive (union-find, exhaustive enumeration, exact
fractions) and share no code with the library paths they verify.
"""

import itertools
import math
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import numpy as np


def oracle_dbscan(points, epsilon, metric, min_pts):
    """Union-find over the epsilon-graph with core-point rules.

    Cores connect when within epsilon; border points attach to the nearest
    core (ties to the lowest core index); everything else is noise (-1).
    """
    n = len(points)

    def dist(i, j):
        dx = points[i][0] - points[j][0]
        dy = points[i][1] - points[j][1]
        if metric == "l1":
            return abs(dx) + abs(dy)
        return math.hypot(dx, dy)

    neighbors = [[j for j in range(n) if dist(i, j) <= epsilon] for i in range(n)]
    core = [len(neighbors[i]) >= min_pts for i in range(n)]

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for i in range(n):
        if not core[i]:
            continue
        for j in neighbors[i]:
            if core[j]:
                union(i, j)

    labels = [-1] * n
    next_label = 0
    roots = {}
    for i in range(n):
        if core[i]:
            root = find(i)
            if root not in roots:
                roots[root] = next_label
                next_label += 1
            labels[i] = roots[root]
    for i in range(n):
        if core[i]:
            continue
        best = None
        best_d = None
        for j in range(n):
            if core[j]:
                d = dist(i, j)
                if d <= epsilon and (best_d is None or d < best_d):
                    best, best_d = j, d
        if best is not None:
            labels[i] = labels[best]
    return labels


def canonical_labels(labels):
    """Relabel cluster ids by first occurrence; noise stays -1."""
    mapping = {}
    out = []
    for lab in labels:
        if lab == -1:
            out.append(-1)
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out.append(mapping[lab])
    return out


def oracle_w1(points_a, weights_a, points_b, weights_b):
    """Exhaustive minimum over vertex transport plans (tiny instances only).

    Vertices of the transportation polytope use at most m+n-1 cells forming
    no cycle; enumerate all cell subsets of that size, solve the resulting
    linear system, and keep feasible plans.
    """
    m, n = len(weights_a), len(weights_b)
    cells = list(itertools.product(range(m), range(n)))
    cost = {
        (i, j): math.hypot(points_a[i][0] - points_b[j][0],
                           points_a[i][1] - points_b[j][1])
        for i, j in cells
    }
    best = None
    for subset in itertools.combinations(cells, m + n - 1):
        a_mat = np.zeros((m + n, len(subset)))
        for k, (i, j) in enumerate(subset):
            a_mat[i, k] = 1.0
            a_mat[m + j, k] = 1.0
        b_vec = np.concatenate([weights_a, weights_b])
        flows, _, _, _ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
        if np.any(flows < -1e-9):
            continue
        if not np.allclose(a_mat @ flows, b_vec, atol=1e-9):
            continue
        value = sum(cost[c] * f for c, f in zip(subset, flows))
        if best is None or value < best:
            best = value
    return best


def wilson_oracle(successes, n, z=1.96):
    """Wilson bounds as the two roots of the score-test quadratic.

    The bounds are the p with (k/n - p)^2 = z^2 p (1 - p) / n, that is
    (n + z^2) p^2 - (2k + z^2) p + k^2 / n = 0, solved by the quadratic
    formula rather than the usual center-plus-half-width form.
    """
    a = n + z * z
    b = 2 * successes + z * z
    c = successes * successes / n
    root = math.sqrt(b * b - 4 * a * c)
    return ((b - root) / (2 * a), (b + root) / (2 * a))


def reference_round(x):
    """Round the way the reference Wilson table was rounded.

    The table was rounded twice, half-up each time: first to 4 places (the
    figure ``trajkit stats wilson`` prints), then that 4-place decimal to 3.
    Both steps run in exact decimal arithmetic, so no binary-float
    representation of an intermediate value decides a tie.
    """
    four_places = Decimal(x).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP)
    return float(four_places.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def match_ratios(a, b, c, d):
    """Exact success percentages of the two columns of a 2x2 table."""
    return (100 * Fraction(a, a + c), 100 * Fraction(b, b + d))


def numpy_cluster_spatial(points, epsilon, metric, min_pts):
    """The numpy DBSCAN ``decisions._cluster_spatial`` replaced, kept as the
    reference its standard-library version must equal exactly: labels as an
    int array and the float distance matrix."""
    n = len(points)
    if n == 0:
        return np.empty(0, dtype=int), np.empty((0, 0))
    coords = np.asarray([(p[0], p[1]) for p in points], dtype=float)
    diff = coords[:, None, :] - coords[None, :, :]
    if metric.lower() == "l2":
        dist = np.sqrt((diff ** 2).sum(axis=-1))
    elif metric.lower() == "l1":
        dist = np.abs(diff).sum(axis=-1)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    within = dist <= epsilon
    core = within.sum(axis=1) >= min_pts

    labels = np.full(n, -1, dtype=int)
    next_label = 0
    for i in range(n):
        if not core[i] or labels[i] >= 0:
            continue
        stack = [i]
        labels[i] = next_label
        while stack:
            j = stack.pop()
            neighbors = np.where(within[j] & core & (labels < 0))[0]
            labels[neighbors] = next_label
            stack.extend(neighbors.tolist())
        next_label += 1

    core_idx = np.where(core)[0]
    for i in range(n):
        if core[i] or not core_idx.size:
            continue
        reachable = core_idx[within[i, core_idx]]
        if reachable.size:
            labels[i] = labels[reachable[np.argmin(dist[i, reachable])]]
    return labels, dist


def numpy_medoid_index(members, dist):
    """The numpy medoid ``decisions._medoid_index`` replaced: each member's
    summed distance by ``cumsum``, the least winning (ties within 1e-12 to
    the first)."""
    costs = dist[members][:, members].cumsum(axis=1)[:, -1].tolist()
    best, best_cost = 0, math.inf
    for i, cost in enumerate(costs):
        if cost < best_cost - 1e-12:
            best, best_cost = i, cost
    return members[best]
