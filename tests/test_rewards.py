import math

import pytest

from conftest import make_gateway
from trajkit import synth
from trajkit.actions import Action, ActionKind, BBox, Point
from trajkit.evaluate import reference_history, replay_episode
from trajkit.rewards import (
    AdvantageConfig,
    RewardBreakdown,
    clipped_term,
    group_advantages,
    reward_binary,
    reward_gaussian_click,
)


def click(x, y):
    return Action(ActionKind.CLICK, point=Point(x, y))


class TestRewardBinary:
    def test_correct_click_inside_bbox(self):
        box = BBox(100, 100, 200, 200)
        r = reward_binary(click(150, 150), click(150, 150), box)
        assert r.total == 2.0

    def test_correct_kind_outside_bbox(self):
        box = BBox(100, 100, 200, 200)
        r = reward_binary(click(500, 500), click(150, 150), box)
        assert r.r_type == 1.0 and r.r_params == 0.0 and r.total == 1.0

    def test_wrong_kind_zero_even_if_text_matches(self):
        pred = Action(ActionKind.OPEN, app="maps")
        gt = Action(ActionKind.TYPE, text="maps")
        r = reward_binary(pred, gt)
        assert r.total == 0.0

    def test_scroll_direction(self):
        gt = Action(ActionKind.SCROLL, point=Point(1, 1), direction="up")
        good = Action(ActionKind.SCROLL, point=Point(900, 900), direction="up")
        bad = Action(ActionKind.SCROLL, point=Point(1, 1), direction="down")
        assert reward_binary(good, gt).total == 2.0
        assert reward_binary(bad, gt).total == 1.0

    def test_text_exact(self):
        gt = Action(ActionKind.TYPE, text="hello")
        assert reward_binary(Action(ActionKind.TYPE, text=" hello "), gt).total == 2.0
        assert reward_binary(Action(ActionKind.TYPE, text="Hello"), gt).total == 1.0

    def test_press_requires_button(self):
        gt = Action(ActionKind.PRESS, button="ENTER")
        assert reward_binary(Action(ActionKind.PRESS, button="ENTER"), gt).total == 2.0
        assert reward_binary(Action(ActionKind.PRESS, button="BACK"), gt).total == 1.0

    def test_parse_failure_zero(self):
        r = reward_binary(None, click(1, 1))
        assert r.total == 0.0
        assert "parse-failure" in r.flags

    def test_missing_bbox_radius_fallback_flagged(self):
        r = reward_binary(click(140, 100), click(100, 100))
        assert r.total == 2.0
        assert "bbox-missing-radius-fallback" in r.flags
        far = reward_binary(click(300, 300), click(100, 100))
        assert far.total == 1.0

    def test_breakdown_invariants(self):
        with pytest.raises(ValueError):
            RewardBreakdown(r_type=0.0, r_params=1.0)
        with pytest.raises(ValueError):
            RewardBreakdown(r_type=0.5, r_params=0.0)

    def test_agreement_with_evaluator_on_fixture(self, xml_dialect):
        """Reward totals equal 2*exact + 1*(type and not exact) everywhere."""
        episodes = synth.make_episodes(4, 6, seed=21)
        for policy_name in ("oracle", "alternating", "wrong"):
            gateway, _ = make_gateway(episodes, xml_dialect, policy_name)
            for ep in episodes:
                records = replay_episode(gateway, ep, xml_dialect, reference_history(ep))
                for rec, step in zip(records, ep.steps):
                    from trajkit.store import decode_prediction
                    pred = decode_prediction(rec)
                    r = reward_binary(pred, step.gt_action, step.gt_bbox)
                    ev = rec.evaluation
                    expected = 2.0 * ev["exact_match"] + \
                        1.0 * (ev["type_match"] and not ev["exact_match"])
                    assert r.total == expected, (rec.key, r, ev)


class TestGaussianClick:
    def test_center_is_one(self):
        box = BBox(100, 100, 300, 200)
        cx, cy = box.center
        assert reward_gaussian_click(Point(int(cx), int(cy)), box) == pytest.approx(1.0)

    def test_one_sigma_closed_form(self):
        box = BBox(100, 100, 300, 200)  # width 200 -> sigma_x 50
        cx, cy = box.center
        r = reward_gaussian_click(Point(int(cx + 50), int(cy)), box)
        assert r == pytest.approx(math.exp(-0.5), abs=1e-9)

    def test_far_point_tiny_but_positive(self):
        box = BBox(400, 400, 600, 600)  # sigma 50 per axis
        r = reward_gaussian_click(Point(0, 500), box)
        assert 0.0 < r < 1e-6

    def test_extreme_distance_decays_to_zero(self):
        box = BBox(480, 480, 520, 520)
        assert reward_gaussian_click(Point(0, 0), box) == pytest.approx(0.0, abs=1e-30)

    def test_strictly_decreasing_per_axis(self):
        box = BBox(100, 100, 300, 200)
        cx, cy = (int(v) for v in box.center)
        xs = [reward_gaussian_click(Point(cx + dx, cy), box) for dx in range(0, 90, 10)]
        assert all(a > b for a, b in zip(xs, xs[1:]))
        ys = [reward_gaussian_click(Point(cx, cy + dy), box) for dy in range(0, 45, 5)]
        assert all(a > b for a, b in zip(ys, ys[1:]))

    def test_degenerate_bbox_exact_fallback(self):
        line = BBox(100, 100, 100, 200)
        assert reward_gaussian_click(Point(100, 150), line) == 1.0
        assert reward_gaussian_click(Point(101, 150), line) == 0.0

    def test_edge_near_two_sigma(self):
        box = BBox(100, 100, 300, 200)
        cy = int(box.center[1])
        edge = reward_gaussian_click(Point(300, cy), box)
        assert edge == pytest.approx(math.exp(-2.0), abs=1e-9)


class TestGroupAdvantages:
    def test_zero_variance_flag(self):
        result = group_advantages([2.0] * 16, AdvantageConfig())
        assert result.zero_variance
        assert result.advantages == tuple([0.0] * 16)

    def test_two_point_normalization(self):
        result = group_advantages([0.0, 2.0])
        assert result.advantages == pytest.approx((-1.0, 1.0))

    def test_population_std_case(self):
        result = group_advantages([0.0, 1.0, 1.0, 2.0])
        assert result.advantages == pytest.approx(
            (-1.414, 0.0, 0.0, 1.414), abs=1e-3)

    def test_zero_mean_unit_std(self):
        import random
        rng = random.Random(8)
        for _ in range(20):
            rewards = [rng.choice([0.0, 1.0, 2.0]) for _ in range(16)]
            if len(set(rewards)) == 1:
                continue
            result = group_advantages(rewards)
            assert sum(result.advantages) == pytest.approx(0.0, abs=1e-9)
            mean_sq = sum(a * a for a in result.advantages) / len(result.advantages)
            assert math.sqrt(mean_sq) == pytest.approx(1.0, abs=1e-9)

    def test_group_size_enforced(self):
        with pytest.raises(ValueError):
            group_advantages([1.0, 2.0], AdvantageConfig(group_size=16))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdvantageConfig(eps_low=0.4, eps_high=0.2)
        with pytest.raises(ValueError):
            AdvantageConfig(group_size=1)


class TestClippedTerm:
    CASES = {
        (0.5, -1.0): -0.8,
        (0.5, 1.0): 0.5,
        (1.0, -1.0): -1.0,
        (1.0, 1.0): 1.0,
        (2.0, -1.0): -2.0,
        (2.0, 1.0): 1.3,
    }

    @pytest.mark.parametrize("ratio,adv", sorted(CASES))
    def test_hand_computed_grid(self, ratio, adv):
        assert clipped_term(ratio, adv) == pytest.approx(self.CASES[(ratio, adv)])

    def test_identity_ratio_passthrough(self):
        for adv in (-2.5, -1.0, 0.0, 1.0, 3.0):
            assert clipped_term(1.0, adv) == adv

    def test_asymmetric_bounds(self):
        cfg = AdvantageConfig()
        # positive advantage clips at 1 + eps_high
        assert clipped_term(5.0, 1.0, cfg) == pytest.approx(1.3)
        # negative advantage clips at 1 - eps_low
        assert clipped_term(0.01, -1.0, cfg) == pytest.approx(-0.8)

    def test_ratio_must_be_positive(self):
        with pytest.raises(ValueError):
            clipped_term(0.0, 1.0)

    def test_clipping_adjustment_shrinks_with_window_width(self):
        # The correction |r*A - clipped_term| never grows as the window widens.
        narrow = AdvantageConfig(eps_low=0.1, eps_high=0.1)
        wide = AdvantageConfig(eps_low=0.3, eps_high=0.5)
        for ratio in (0.4, 2.2):
            for adv in (-1.0, 1.0):
                raw = ratio * adv
                adj_narrow = abs(raw - clipped_term(ratio, adv, narrow))
                adj_wide = abs(raw - clipped_term(ratio, adv, wide))
                assert adj_wide <= adj_narrow + 1e-12
