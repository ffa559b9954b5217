import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trajkit import decisions
from trajkit.actions import Action, ActionKind, BBox, Point, spatial_distance
from trajkit.decisions import (
    _cluster_spatial,
    _medoid_index,
    EmptyDistributionError,
    ExecutionSample,
    InvalidMeasureError,
    build_distribution,
    cluster_spatial,
    cluster_text,
    discrete_w1,
    diversity,
    diversity_shift,
    effective_support,
    levenshtein,
    member_stability,
    normalized_edit_distance,
    pass_at_n,
    stability,
    stability_level,
    stability_shift,
    wasserstein_norm,
)


from oracles import (
    canonical_labels,
    numpy_cluster_spatial,
    numpy_medoid_index,
    oracle_dbscan,
    oracle_w1,
)


# --- spatial clustering -----------------------------------------------------------


class TestClusterSpatial:
    def test_sub_epsilon_pair_plus_anchor(self):
        # three points pairwise within epsilon=70 form one cluster at min_pts=3
        pts = [(100, 100), (150, 100), (125, 140)]
        labels = cluster_spatial(pts, epsilon=70, min_pts=3)
        assert list(labels) == [0, 0, 0]

    def test_two_blobs_far_apart(self):
        blob_a = [(100 + dx, 100 + dy) for dx in (0, 10, 20) for dy in (0, 10)]
        blob_b = [(700 + dx, 700 + dy) for dx in (0, 10, 20) for dy in (0, 10)]
        labels = cluster_spatial(blob_a + blob_b, epsilon=70)
        assert len(set(labels)) == 2
        assert set(labels[: len(blob_a)]) != set(labels[len(blob_a):])

    def test_isolated_points_are_noise(self):
        pts = [(0, 0), (500, 500), (999, 999)]
        labels = cluster_spatial(pts, epsilon=70, min_pts=3)
        assert list(labels) == [-1, -1, -1]

    def test_pair_below_min_pts_is_noise(self):
        labels = cluster_spatial([(0, 0), (10, 0)], epsilon=70, min_pts=3)
        assert list(labels) == [-1, -1]

    def test_empty_input(self):
        assert cluster_spatial([], epsilon=70).size == 0

    def test_accepts_point_objects(self):
        labels = cluster_spatial([Point(1, 1), Point(2, 2), Point(3, 3)], epsilon=70)
        assert len(set(labels)) == 1

    @pytest.mark.parametrize("metric", ["l2", "l1"])
    @pytest.mark.parametrize("epsilon", [30, 70, 90, 140])
    def test_matches_bruteforce_oracle(self, metric, epsilon):
        rng = random.Random(epsilon * 7 + (metric == "l1"))
        for _ in range(25):
            pts = [(rng.randrange(0, 1001), rng.randrange(0, 1001))
                   for _ in range(200)]
            ours = canonical_labels(cluster_spatial(pts, epsilon, metric, 3))
            ref = canonical_labels(oracle_dbscan(pts, epsilon, metric, 3))
            assert ours == ref

    def test_order_independence(self):
        rng = random.Random(42)
        pts = [(rng.randrange(0, 1001), rng.randrange(0, 1001)) for _ in range(80)]
        base = canonical_labels(cluster_spatial(pts, 70))
        perm = list(range(len(pts)))
        rng.shuffle(perm)
        shuffled = cluster_spatial([pts[i] for i in perm], 70)
        # mapped back, the partition is identical
        partition_base = {}
        for idx, lab in enumerate(base):
            partition_base.setdefault(lab if lab >= 0 else f"n{idx}", set()).add(idx)
        partition_shuf = {}
        for pos, lab in enumerate(canonical_labels(shuffled)):
            orig = perm[pos]
            partition_shuf.setdefault(lab if lab >= 0 else f"n{orig}", set()).add(orig)
        assert set(map(frozenset, partition_base.values())) == \
            set(map(frozenset, partition_shuf.values()))


@st.composite
def dbscan_cases(draw, coords=None):
    """(points, epsilon, metric, min_pts) with repeated points, often mirror
    images, and a pair exactly epsilon apart: a 3-4-5 triangle under L2, an
    L-shaped step of equal length under L1, or the distance of two drawn
    points."""
    metric = draw(st.sampled_from(["l2", "l1"]))
    if coords is None:
        coords = draw(st.sampled_from([
            st.integers(0, 1000),
            st.floats(0, 1000, allow_nan=False, allow_infinity=False)]))
    points = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 4))):
        points.insert(draw(st.integers(0, len(points))), draw(st.sampled_from(points)))
    k = draw(st.integers(1, 40))
    x, y = draw(st.integers(0, 1000 - 5 * k)), draw(st.integers(0, 1000 - 5 * k))
    a = 3 * k if metric == "l2" else draw(st.integers(0, 5 * k))
    b = 4 * k if metric == "l2" else 5 * k - a
    points[draw(st.integers(0, len(points))):0] = [(x, y), (x + a, y + b)]
    if draw(st.booleans()):
        # Mirror images across x = cx: points equidistant from two others.
        cx = draw(st.integers(0, 1000))
        points += [(2 * cx - px, py) for px, py in points if 0 <= 2 * cx - px <= 1000]
    i, j = draw(st.integers(0, len(points) - 1)), draw(st.integers(0, len(points) - 1))
    epsilon = draw(st.one_of(
        st.just(5.0 * k), st.just(numpy_cluster_spatial(points, 0.0, metric, 1)[1][i, j]),
        st.sampled_from([0.0, 30.0, 70.0, 140.0]), st.floats(0, 400)))
    return points, epsilon, metric, draw(st.integers(1, 5))


class TestStdlibClusteringEqualsNumpy:
    """The standard-library DBSCAN and medoid give exactly what the numpy
    versions they replaced gave (``oracles.numpy_*``)."""

    @settings(max_examples=400, deadline=None)
    @given(case=dbscan_cases())
    # A border point at (500, 500) lies exactly epsilon from a core of each
    # of two clusters; it joins the one with the lower index.
    @example(case=([(450, 500), (445, 500), (440, 500), (435, 500), (500, 500),
                    (550, 500), (555, 500), (560, 500), (565, 500)], 50.0, "l2", 4))
    def test_labels_distances_and_medoids(self, case):
        points, epsilon, metric, min_pts = case
        labels, dist = _cluster_spatial(points, epsilon, metric, min_pts)
        ref_labels, ref_dist = numpy_cluster_spatial(points, epsilon, metric, min_pts)
        assert labels == ref_labels.tolist()
        assert dist == ref_dist.tolist()
        groups = [[i for i, lab in enumerate(labels) if lab == c] for c in set(labels) - {-1}]
        for members in [*groups, list(range(len(points)))]:
            assert _medoid_index(members, dist) == numpy_medoid_index(members, ref_dist)
        assert cluster_spatial(points, epsilon, metric, min_pts).tolist() == labels

    @settings(max_examples=200, deadline=None)
    @given(case=dbscan_cases(coords=st.integers(0, 1000)),
           kinds=st.lists(st.sampled_from([ActionKind.CLICK, ActionKind.LONG_PRESS]),
                          min_size=16, max_size=16))
    def test_build_distribution(self, case, kinds):
        points, epsilon, metric, min_pts = case
        samples = [ExecutionSample(action=Action(kinds[i % 16], point=Point(x, y)))
                   for i, (x, y) in enumerate(points)]

        def clusters():
            try:
                dist = build_distribution(samples, epsilon, metric, min_pts)
            except EmptyDistributionError:
                return None
            return dist.n, [(c.kind, c.member_indices, c.representative, c.mass)
                            for c in dist.clusters]

        with mock.patch.object(decisions, "_cluster_spatial", numpy_cluster_spatial), \
                mock.patch.object(decisions, "_medoid_index", numpy_medoid_index):
            want = clusters()
        assert clusters() == want


class TestClusterText:
    def test_containment_with_loose_ed(self):
        clusters = cluster_text(["abc", "abcd"])
        assert len(clusters) == 1
        assert clusters[0].prototype == "abc"
        # hand-checked: levenshtein 1 / max-length 4 = 0.25 <= 0.3
        assert normalized_edit_distance("abc", "abcd") == pytest.approx(0.25)

    def test_happy_today_variants_split(self):
        a = "m so happy today"
        b = "m so happy today because my family came together"
        clusters = cluster_text([a, b])
        assert len(clusters) == 2
        assert {c.prototype for c in clusters} == {a, b}
        # contained but far beyond both thresholds
        assert text_distance_exceeds(a, b)

    def test_identical_strings_merge(self):
        clusters = cluster_text(["same", "same", "same"])
        assert len(clusters) == 1
        assert clusters[0].member_indices == [0, 1, 2]

    def test_strict_stage_picks_nearest(self):
        # "abcdefghij" vs prototypes differing in one char: joins the nearest
        clusters = cluster_text(["abcdefghij", "zbcdefghij", "abcdefghix"])
        assert len(clusters) == 1

    def test_case_and_whitespace_in_containment(self):
        clusters = cluster_text(["Send  Mail", "send mail now please it is long"])
        # containment holds after collapsing, but ED is too large -> two clusters
        assert len(clusters) == 2

    def test_levenshtein_basics(self):
        assert levenshtein("", "") == 0
        assert levenshtein("a", "") == 1
        assert levenshtein("kitten", "sitting") == 3
        assert normalized_edit_distance("", "") == 0.0

    def test_incremental_assignment_is_order_sensitive_but_total(self):
        strings = ["pay bill", "pay bills", "pay the bill later tonight", "x"]
        clusters = cluster_text(strings)
        assert sum(len(c.member_indices) for c in clusters) == len(strings)


def text_distance_exceeds(a, b, tau=0.3):
    return normalized_edit_distance(a, b) > tau


# --- distributions ------------------------------------------------------------------


def click_sample(x, y, **kw):
    return ExecutionSample(action=Action(ActionKind.CLICK, point=Point(x, y)), **kw)


def scroll_sample(direction):
    return ExecutionSample(action=Action(ActionKind.SCROLL, point=Point(500, 500),
                                         direction=direction))


def bad_sample(reason="no-action"):
    return ExecutionSample(action=None, parse_ok=False, failure_reason=reason)


class TestBuildDistribution:
    def test_identical_clicks_single_cluster(self):
        dist = build_distribution([click_sample(100, 100) for _ in range(10)])
        assert dist.support_size == 1
        assert dist.clusters[0].mass == 1.0

    def test_kind_partition(self):
        samples = [click_sample(100, 100) for _ in range(5)] + \
            [scroll_sample("up") for _ in range(5)]
        dist = build_distribution(samples)
        assert dist.support_size == 2
        assert sorted(c.mass for c in dist.clusters) == [0.5, 0.5]

    def test_mass_conservation_with_invalid(self):
        samples = [click_sample(100, 100)] * 6 + [bad_sample()] * 2 + \
            [scroll_sample("down")] * 4
        dist = build_distribution(samples)
        assert sum(dist.masses()) == pytest.approx(1.0, abs=1e-12)
        invalid = [c for c in dist.clusters if c.kind == "INVALID"]
        assert len(invalid) == 1
        assert invalid[0].mass == pytest.approx(2 / 12)

    def test_composed_oracle_512(self):
        rng = random.Random(9)
        samples = []
        for _ in range(512):
            roll = rng.random()
            if roll < 0.4:
                cx, cy = rng.choice([(100, 100), (700, 700)])
                samples.append(click_sample(cx + rng.randrange(-20, 21),
                                            cy + rng.randrange(-20, 21)))
            elif roll < 0.6:
                samples.append(scroll_sample(rng.choice(["up", "down"])))
            elif roll < 0.8:
                samples.append(ExecutionSample(
                    action=Action(ActionKind.TYPE,
                                  text=rng.choice(["hello", "goodbye"]))))
            elif roll < 0.9:
                samples.append(ExecutionSample(action=Action(ActionKind.STOP)))
            else:
                samples.append(bad_sample())
        dist = build_distribution(samples)
        assert sum(dist.masses()) == pytest.approx(1.0, abs=1e-12)

        # compose the three per-kind oracles + trivial + invalid
        clicks = [s for s in samples if s.parse_ok and s.action.kind is ActionKind.CLICK]
        click_points = [(s.action.point.x, s.action.point.y) for s in clicks]
        labels = oracle_dbscan(click_points, 70, "l2", 3)
        n_click_clusters = len({l for l in labels if l >= 0}) + \
            sum(1 for l in labels if l == -1)
        scrolls = [s.action.direction for s in samples
                   if s.parse_ok and s.action.kind is ActionKind.SCROLL]
        types = [s.action.text for s in samples
                 if s.parse_ok and s.action.kind is ActionKind.TYPE]
        expected = n_click_clusters + len(set(scrolls)) + \
            len(cluster_text(types)) + 1 + 1  # STOP cluster + invalid
        assert dist.support_size == expected

    def test_empty_rejected(self):
        with pytest.raises(EmptyDistributionError):
            build_distribution([])

    def test_deterministic_ordering(self):
        samples = [click_sample(100, 100)] * 3 + [click_sample(700, 700)] * 3
        d1 = build_distribution(samples)
        d2 = build_distribution(list(reversed(samples)))
        assert [c.representative.encode() for c in d1.clusters] == \
            [c.representative.encode() for c in d2.clusters]

    def test_medoid_representative(self):
        samples = [click_sample(100, 100), click_sample(110, 100),
                   click_sample(160, 100)]
        dist = build_distribution(samples, epsilon=70, min_pts=3)
        # medoid minimizes summed distance: the middle point
        assert dist.clusters[0].representative.point == Point(110, 100)

    @settings(max_examples=200, deadline=None)
    @given(centre=st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
           offsets=st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                            min_size=1, max_size=40),
           metric=st.sampled_from(["l2", "l1"]))
    def test_medoid_matches_summed_spatial_distance(self, centre, offsets, metric):
        """The medoid is the first member whose ``spatial_distance`` to the
        members, summed left to right, is least by the 1e-12 rule."""
        points = [Point(min(max(centre[0] + dx, 0), 1000), min(max(centre[1] + dy, 0), 1000))
                  for dx, dy in offsets]
        samples = [click_sample(p.x, p.y) for p in points]
        dist = build_distribution(samples, metric=metric, min_pts=2)
        for cluster in dist.clusters:
            members = [points[i] for i in cluster.member_indices]
            best, best_cost = 0, math.inf
            for i, p in enumerate(members):
                cost = 0.0
                for q in members:
                    cost += spatial_distance(p, q, metric)
                if cost < best_cost - 1e-12:
                    best, best_cost = i, cost
            assert cluster.representative.point == members[best]


class TestDiversityStability:
    def test_single_cluster_zero_entropy(self):
        dist = build_distribution([click_sample(5, 5)] * 4)
        assert diversity(dist) == 0.0
        assert effective_support(dist) == 1.0

    def test_uniform_entropy_ln_m(self):
        for m, directions in [(2, ["up", "down"]), (4, ["up", "down", "left", "right"])]:
            samples = [scroll_sample(d) for d in directions for _ in range(8)]
            dist = build_distribution(samples)
            assert diversity(dist) == pytest.approx(math.log(m), abs=1e-12)
            assert effective_support(dist) == pytest.approx(m, abs=1e-9)

    def test_mixed_masses_closed_form(self):
        samples = [scroll_sample("up")] * 2 + [scroll_sample("down")] + \
            [scroll_sample("left")]
        dist = build_distribution(samples)
        expected = 1.5 * math.log(2)
        assert diversity(dist) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.0397, abs=1e-4)

    def test_entropy_bounds(self):
        rng = random.Random(0)
        samples = [click_sample(rng.randrange(1001), rng.randrange(1001))
                   for _ in range(64)]
        dist = build_distribution(samples)
        h = diversity(dist)
        assert 0.0 <= h <= math.log(dist.support_size) + 1e-12

    def test_stability_all_correct(self):
        gt = Action(ActionKind.CLICK, point=Point(100, 100))
        bbox = BBox(80, 80, 120, 120)
        dist = build_distribution([click_sample(100, 100)] * 8)
        assert stability(dist, gt, bbox) == 1.0

    def test_stability_no_correct(self):
        gt = Action(ActionKind.CLICK, point=Point(900, 900))
        dist = build_distribution([click_sample(100, 100)] * 8)
        assert stability(dist, gt) == 0.0

    def test_stability_mass_sum_oracle(self):
        # Three distinct correct clusters (all inside the gt bbox) with
        # masses .4/.1/.05; stability sums exactly those masses.
        gt = Action(ActionKind.CLICK, point=Point(200, 200))
        bbox = BBox(0, 0, 400, 400)
        samples = [click_sample(100, 100)] * 80    # mass 0.40
        samples += [click_sample(300, 300)] * 20   # mass 0.10
        samples += [click_sample(200, 380)] * 10   # mass 0.05
        samples += [click_sample(800, 800)] * 90   # outside: mass 0.45
        dist = build_distribution(samples)
        correct = [c for c in dist.clusters
                   if c.representative and bbox.contains(c.representative.point)]
        assert len(correct) == 3
        assert stability(dist, gt, bbox) == pytest.approx(0.55, abs=1e-9)

    def test_member_vs_representative_consistency_with_bbox(self):
        # With a bbox covering the whole cluster, the representative-level and
        # member-level stabilities agree exactly.
        gt = Action(ActionKind.CLICK, point=Point(100, 100))
        bbox = BBox(60, 60, 140, 140)
        samples = [click_sample(100 + dx, 100 + dy)
                   for dx in (-20, 0, 20) for dy in (-20, 0, 20)]
        dist = build_distribution(samples)
        assert stability(dist, gt, bbox) == \
            pytest.approx(member_stability(samples, gt, bbox))

    def test_invalid_cluster_never_matches(self):
        gt = Action(ActionKind.STOP)
        samples = [bad_sample()] * 4
        dist = build_distribution(samples)
        assert stability(dist, gt) == 0.0

    def test_noise_singleton_entropy_bound(self):
        # removing one singleton from an n=512 distribution moves H by less
        # than (1/512) ln 512 + 1/512
        rng = random.Random(4)
        base = [click_sample(100 + rng.randrange(-15, 16),
                             100 + rng.randrange(-15, 16)) for _ in range(511)]
        outlier = click_sample(950, 950)
        h_with = diversity(build_distribution(base + [outlier]))
        h_without = diversity(build_distribution(base))
        bound = (1 / 512) * math.log(512) + 1 / 512
        assert abs(h_with - h_without) < bound


class TestDiscretizations:
    def test_equal_entropies_negligible(self):
        shift = diversity_shift(0.7, 0.7)
        assert shift.delta_exp == 0.0
        assert shift.category == "negligible"

    def test_support_two_to_three(self):
        shift = diversity_shift(math.log(2), math.log(3))
        assert shift.delta_exp == pytest.approx(1.0, abs=1e-12)
        assert shift.category == "increasing"

    def test_decreasing_example(self):
        shift = diversity_shift(1.0, 0.95)
        assert shift.delta_exp == pytest.approx(-0.13257, abs=1e-4)
        assert shift.category == "decreasing"

    def test_stability_levels(self):
        assert stability_level(0.4) == "low"          # boundary inclusive
        assert stability_level(0.81) == "high"
        assert stability_level(0.8) == "medium"       # strict > 0.8
        assert stability_level(0.0) == "low"
        assert stability_level(0.5) == "medium"

    def test_stability_shift_sign(self):
        assert stability_shift(0.5, 0.5) == "negligible"
        assert stability_shift(0.2, 0.3) == "increasing"
        assert stability_shift(0.3, 0.2) == "decreasing"


class TestPassAtN:
    def gt(self):
        return Action(ActionKind.CLICK, point=Point(100, 100))

    def samples(self, n_correct, n_total):
        out = [click_sample(100, 100) for _ in range(n_correct)]
        out += [click_sample(900, 900) for _ in range(n_total - n_correct)]
        return out

    def test_all_correct(self):
        s = self.samples(8, 8)
        for n in range(1, 9):
            assert pass_at_n(s, n, self.gt()) == 1.0

    def test_none_correct(self):
        s = self.samples(0, 8)
        for n in range(1, 9):
            assert pass_at_n(s, n, self.gt()) == 0.0

    def test_binomial_case(self):
        s = self.samples(2, 8)
        assert pass_at_n(s, 4, self.gt()) == pytest.approx(1 - 15 / 70)
        assert pass_at_n(s, 4, self.gt()) == pytest.approx(0.7857, abs=1e-4)

    def test_monotone_in_n(self):
        s = self.samples(3, 12)
        values = [pass_at_n(s, n, self.gt()) for n in range(1, 13)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_invalid_n(self):
        s = self.samples(1, 4)
        with pytest.raises(ValueError):
            pass_at_n(s, 5, self.gt())
        with pytest.raises(ValueError):
            pass_at_n(s, 0, self.gt())

    def test_parse_failures_count_in_denominator(self):
        s = self.samples(2, 4) + [bad_sample()] * 4
        # c=2, N=8
        assert pass_at_n(s, 4, self.gt()) == pytest.approx(1 - 15 / 70)


class TestWasserstein:
    def dist_of(self, weighted_points):
        samples = []
        for (x, y), count in weighted_points:
            samples.extend([click_sample(x, y)] * count)
        return build_distribution(samples)

    def test_identical_distributions_zero(self):
        d = self.dist_of([((100, 100), 4), ((700, 700), 4)])
        assert wasserstein_norm(d, d) == pytest.approx(0.0, abs=1e-9)

    def test_diameter_case(self):
        a = self.dist_of([((0, 0), 4)])
        b = self.dist_of([((1000, 1000), 4)])
        assert wasserstein_norm(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_three_atom_oracle(self):
        rng = random.Random(17)
        for _ in range(10):
            pa = [(rng.randrange(1001), rng.randrange(1001)) for _ in range(3)]
            pb = [(rng.randrange(1001), rng.randrange(1001)) for _ in range(3)]
            wa = np.array([3, 1, 2], dtype=float)
            wb = np.array([2, 2, 2], dtype=float)
            wa /= wa.sum()
            wb /= wb.sum()
            ours = discrete_w1(np.array(pa, float), wa, np.array(pb, float), wb)
            ref = oracle_w1(pa, wa, pb, wb)
            assert ours == pytest.approx(ref, abs=1e-6)

    def test_symmetry_and_triangle(self):
        rng = random.Random(23)
        for _ in range(5):
            dists = []
            for _ in range(3):
                pts = [((rng.randrange(1001), rng.randrange(1001)),
                        rng.randrange(1, 5)) for _ in range(3)]
                dists.append(self.dist_of(pts))
            a, b, c = dists
            ab = wasserstein_norm(a, b)
            ba = wasserstein_norm(b, a)
            assert ab == pytest.approx(ba, abs=1e-9)
            ac = wasserstein_norm(a, c)
            cb = wasserstein_norm(c, b)
            assert ab <= ac + cb + 1e-9

    def test_kind_mismatch_rejected(self):
        d = self.dist_of([((100, 100), 4)])
        scrolls = build_distribution([scroll_sample("up")] * 4)
        with pytest.raises(InvalidMeasureError):
            wasserstein_norm(d, scrolls)

    @pytest.mark.parametrize("uniform", [False, True])
    def test_translate_of_largest_measure_moves_by_its_offset(self, uniform):
        # Moving every atom by v is an optimal plan, so W1 is |v|: the
        # 1-Lipschitz f(x) = <x, v/|v|> bounds it from below.
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 900, (256, 2))
        w = np.full(256, 1 / 256) if uniform else rng.dirichlet(np.ones(256))
        v = np.array([37.0, -21.5])
        assert discrete_w1(pts, w, pts + v, w) == pytest.approx(math.hypot(*v), abs=1e-9)

    def test_support_mass_and_empty_checks(self):
        one = (np.zeros((1, 2)), np.ones(1))
        big = (np.zeros((257, 2)), np.full(257, 1 / 257))
        with pytest.raises(InvalidMeasureError, match="support exceeds"):
            discrete_w1(*big, *one)
        with pytest.raises(InvalidMeasureError, match="unequal total mass"):
            discrete_w1(*one, np.zeros((1, 2)), np.array([0.5]))
        with pytest.raises(InvalidMeasureError, match="empty"):
            discrete_w1(np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)), np.zeros(0))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_linprog(self, data):
        pa, wa, pb, wb = data.draw(measure_pair(32))
        assert discrete_w1(pa, wa, pb, wb) == pytest.approx(
            linprog_w1(pa, wa, pb, wb), abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_vertex_enumeration(self, data):
        pa, wa, pb, wb = data.draw(measure_pair(3))
        assert discrete_w1(pa, wa, pb, wb) == pytest.approx(
            oracle_w1(pa.tolist(), wa, pb.tolist(), wb), abs=1e-9)


@st.composite
def measure_pair(draw, max_atoms):
    """Two probability measures of 1..max_atoms atoms on the per-mille
    square. Draws favour degenerate plans: integer grids with repeated
    costs, atoms the measures share, equal weights and zero weights."""
    def measure(shared=None):
        k = draw(st.integers(1, max_atoms))
        if draw(st.booleans()):
            coord = st.integers(0, draw(st.sampled_from((3, 1000)))).map(float)
        else:
            coord = st.floats(0.0, 1000.0)
        pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=k, max_size=k)))
        if shared is not None and draw(st.booleans()):
            n = min(k, len(shared))
            pts[:n] = shared[:n]
        if draw(st.booleans()):
            w = np.ones(k)
        else:
            w = np.array(draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)), float)
            w[draw(st.integers(0, k - 1))] += 1.0
        return pts, w / w.sum()

    pa, wa = measure()
    pb, wb = measure(shared=pa)
    return pa, wa, pb, wb


def linprog_w1(pa, wa, pb, wb):
    """W1 as the transport linear program, solved by HiGHS. Its default
    1e-7 feasibility tolerances can miss 1e-7 cost differences, so they are
    tightened to 1e-10."""
    from scipy.optimize import linprog

    m, n = len(wa), len(wb)
    cost = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=-1)).reshape(-1)
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    res = linprog(cost, A_eq=a_eq, b_eq=np.concatenate([wa, wb]), bounds=(0, None),
                  method="highs", options={"dual_feasibility_tolerance": 1e-10,
                                           "primal_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return res.fun
