import numpy as np
import pytest

from conftest import make_gateway
from trajkit import synth
from trajkit.actions import Action, ActionKind, Point
from trajkit.evaluate import episode_metrics, reference_history, replay_episode
from trajkit.gateway import EndpointConfig, MockBackend, ModelGateway
from trajkit.semionline import (
    ArtifactPool,
    InvalidShapeError,
    OnPolicyArtifact,
    OsrUndefinedError,
    Schedule,
    SweepConfig,
    TargetOutOfRangeError,
    admissible_mean_range,
    build_sweep_grid,
    compute_osr,
    mixed_history,
    nlogi,
    on_policy_history,
    pooled_history,
    run_sweep,
    sample_history_mask,
    schedule_mean,
    schedule_probabilities,
    schedule_probability,
    solve_mu,
)
from trajkit.store import RunRecord


class TestNlogi:
    def test_endpoints_exact(self):
        for kappa in (0.5, 4.0, 16.0, 64.0):
            for mu in (0.1, 0.5, 0.9):
                assert abs(nlogi(0.0, kappa, mu)) < 1e-12
                assert abs(nlogi(1.0, kappa, mu) - 1.0) < 1e-12

    def test_complement_identity(self):
        xs = np.linspace(0, 1, 101)
        total = nlogi(xs, 16.0, 0.3, "+") + nlogi(xs, 16.0, 0.3, "-")
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_midpoint_symmetry(self):
        assert nlogi(0.5, 16.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_strictly_increasing(self):
        xs = np.linspace(0, 1, 513)
        for kappa in (1.0, 16.0, 50.0):
            ys = nlogi(xs, kappa, 0.5)
            assert np.all(np.diff(ys) > 0)

    def test_invalid_kappa(self):
        with pytest.raises(InvalidShapeError):
            nlogi(0.5, 0.0, 0.5)
        with pytest.raises(InvalidShapeError):
            nlogi(0.5, -2.0, 0.5)


class TestSchedule:
    def test_increasing_endpoint(self):
        sched = Schedule(p_lb=0.0, gap=1.0, kappa=16.0, mu=0.5)
        assert schedule_probability(9, 10, sched) == pytest.approx(1.0)

    def test_stationary(self):
        sched = Schedule(p_lb=0.2, gap=0.0)
        assert schedule_probabilities(7, sched) == [0.2] * 7

    def test_midpoint_value(self):
        sched = Schedule(p_lb=0.0, gap=1.0, kappa=16.0, mu=0.5)
        # sr(4) = 0.5 for T=10
        assert schedule_probability(4, 10, sched) == pytest.approx(0.5, abs=1e-12)

    def test_lb_plus_half_gap(self):
        sched = Schedule(p_lb=0.2, gap=0.6, kappa=16.0, mu=0.5)
        assert schedule_probability(4, 10, sched) == pytest.approx(0.5, abs=1e-9)

    def test_empty_schedule(self):
        sched = Schedule(p_lb=0.2, gap=0.0)
        assert schedule_probabilities(0, sched) == []
        with pytest.raises(ValueError):
            schedule_probability(0, 0, sched)

    def test_probabilities_within_band(self):
        sched = Schedule(p_lb=0.1, gap=0.5, kappa=16.0, mu=0.7,
                         direction="decreasing")
        ps = schedule_probabilities(20, sched)
        assert all(0.1 - 1e-12 <= p <= 0.6 + 1e-12 for p in ps)


class TestSolveMu:
    def test_midpoint_target_symmetric(self):
        mu = solve_mu(0.0, 1.0, 16.0, "increasing", 0.5)
        assert mu == pytest.approx(0.5, abs=1e-4)

    def test_quadrature_oracle(self):
        # independent check: trapezoid of the solved schedule equals target
        for target in (0.2, 0.35, 0.6, 0.8):
            mu = solve_mu(0.0, 1.0, 16.0, "increasing", target)
            xs = np.linspace(0, 1, 20001)
            mean = float(np.trapezoid(nlogi(xs, 16.0, mu), xs))
            assert mean == pytest.approx(target, abs=1e-4)

    def test_low_target_pushes_mu_high(self):
        lo, hi = admissible_mean_range(0.0, 1.0, 16.0, "increasing")
        mu = solve_mu(0.0, 1.0, 16.0, "increasing", lo + 0.01)
        assert mu > 0.8

    def test_degenerate_gap(self):
        assert solve_mu(0.3, 0.0, 16.0, "increasing", 0.3) == 0.5
        with pytest.raises(TargetOutOfRangeError):
            solve_mu(0.3, 0.0, 16.0, "increasing", 0.4)

    def test_out_of_range_target(self):
        with pytest.raises(TargetOutOfRangeError):
            solve_mu(0.0, 1.0, 16.0, "increasing", 0.01)

    def test_decreasing_direction(self):
        mu = solve_mu(0.2, 0.5, 16.0, "decreasing", 0.45)
        mean = schedule_mean(0.2, 0.5, 16.0, mu, "decreasing")
        assert mean == pytest.approx(0.45, abs=1e-5)


def click(x, y):
    return Action(ActionKind.CLICK, point=Point(x, y))


class TestPsiOperator:
    def test_always_correct_fully_on_policy(self, episodes, xml_dialect):
        gateway, _ = make_gateway(episodes, xml_dialect, "oracle")
        records = replay_episode(gateway, episodes[0], xml_dialect,
                                 on_policy_history(episodes[0]))
        assert episode_metrics(records, episodes[0]).success
        for i, r in enumerate(records):
            assert r.history_sources == [True] * i

    def test_always_wrong_identical_to_offline(self, episodes, xml_dialect):
        gateway, _ = make_gateway(episodes, xml_dialect, "wrong")
        records = replay_episode(gateway, episodes[0], xml_dialect,
                                 on_policy_history(episodes[0]))
        for i, r in enumerate(records):
            assert r.history_sources == [False] * i

    def test_alternating_matches_hand_simulation(self, xml_dialect):
        episodes = synth.make_episodes(1, 4, seed=13)
        gateway, _ = make_gateway(episodes, xml_dialect, "alternating")
        records = replay_episode(gateway, episodes[0], xml_dialect,
                                 on_policy_history(episodes[0]))
        # Hand-simulated psi trace: step parity decides the match, history at
        # step i mirrors the matches of steps < i.
        # step0 correct, step1 wrong, step2 correct, step3 (STOP) correct.
        assert records[0].history_sources == []
        assert records[1].history_sources == [True]
        assert records[2].history_sources == [True, False]
        assert records[3].history_sources == [True, False, True]

    def test_artifact_entries_render_model_phrasing(self, episodes, xml_dialect):
        # When on-policy, the history text carries the scripted conclusion
        # markers instead of canonical encodings.
        gateway, backend = make_gateway(episodes, xml_dialect, "oracle")
        texts = []
        original = backend.responder

        def spy(request, seed, n):
            texts.append(request.joined_text())
            return original(request, seed, n)

        backend.responder = spy
        replay_episode(gateway, episodes[0], xml_dialect, on_policy_history(episodes[0]))
        assert "did-0" in texts[1]
        assert "did-0" in texts[-1] and "did-3" in texts[-1]


class TestOsr:
    def test_all_substituted(self):
        records = [RunRecord(key=f"e/{i}", episode_id="e", step_index=i,
                             episode_length=4, raw_response="",
                             history_sources=[True] * i)
                   for i in range(4)]
        assert compute_osr(records) == 1.0

    def test_none_substituted(self):
        records = [RunRecord(key=f"e/{i}", episode_id="e", step_index=i,
                             episode_length=4, raw_response="",
                             history_sources=[False] * i)
                   for i in range(4)]
        assert compute_osr(records) == 0.0

    def test_counting_oracle(self):
        rng = np.random.default_rng(3)
        records = []
        expected_num = 0
        expected_den = 0
        for i in range(40):
            mask = [bool(b) for b in rng.integers(0, 2, size=5)]
            expected_num += sum(mask)
            expected_den += len(mask)
            records.append(RunRecord(key=f"e/{i}", episode_id="e", step_index=i,
                                     episode_length=41, raw_response="",
                                     history_sources=mask))
        assert compute_osr(records) == pytest.approx(expected_num / expected_den)

    def test_37_of_100(self):
        mask = [True] * 37 + [False] * 63
        records = [RunRecord(key="e/1", episode_id="e", step_index=1,
                             episode_length=2, raw_response="",
                             history_sources=mask)]
        assert compute_osr(records) == pytest.approx(0.37)

    def test_undefined_without_positions(self):
        records = [RunRecord(key="e/0", episode_id="e", step_index=0,
                             episode_length=1, raw_response="",
                             history_sources=[])]
        with pytest.raises(OsrUndefinedError):
            compute_osr(records)


class TestSweepGrid:
    def test_regime_counts(self):
        settings = build_sweep_grid(SweepConfig())
        pairs = {(s.p_start, s.p_end) for s in settings}
        assert len(pairs) == 16
        regimes = {}
        for s in settings:
            regimes.setdefault(s.regime, set()).add((s.p_start, s.p_end))
        assert len(regimes["increasing"]) == 6
        assert len(regimes["decreasing"]) == 6
        assert len(regimes["stationary"]) == 4

    def test_800_settings(self):
        settings = build_sweep_grid(SweepConfig())
        assert len(settings) == 800

    def test_targets_within_admissible_range(self):
        settings = build_sweep_grid(SweepConfig(samples_per_pair=5))
        for s in settings:
            if s.schedule.gap == 0:
                assert s.target_mean == pytest.approx(s.schedule.p_lb)
                continue
            lo, hi = admissible_mean_range(s.schedule.p_lb, s.schedule.gap,
                                           s.schedule.kappa, s.schedule.direction)
            assert lo - 1e-9 <= s.target_mean <= hi + 1e-9

    def test_deterministic_given_seed(self):
        a = build_sweep_grid(SweepConfig(global_seed=5, samples_per_pair=3))
        b = build_sweep_grid(SweepConfig(global_seed=5, samples_per_pair=3))
        assert [(s.target_mean, s.schedule.mu) for s in a] == \
            [(s.target_mean, s.schedule.mu) for s in b]


class TestOsrConvergence:
    """Realized OSR tracks the solved schedule mean over many positions."""

    @pytest.mark.parametrize("p_lb,gap,direction,target", [
        (0.0, 1.0, "increasing", 0.5),
        (0.0, 1.0, "increasing", 0.3),
        (0.0, 1.0, "decreasing", 0.7),
        (1 / 3, 1 / 3, "increasing", 0.5),
        (0.2, 0.0, "increasing", 0.2),
    ])
    def test_mask_mean_converges(self, p_lb, gap, direction, target):
        if gap == 0:
            sched = Schedule(p_lb=p_lb, gap=0.0)
        else:
            mu = solve_mu(p_lb, gap, 16.0, direction, target)
            sched = Schedule(p_lb=p_lb, gap=gap, kappa=16.0, mu=mu,
                             direction=direction)
        rng = np.random.default_rng(11)
        total = 0
        hits = 0
        # 120 history sequences of length 100 -> 12000 positions
        for _ in range(120):
            mask = sample_history_mask(100, sched, rng)
            hits += sum(mask)
            total += len(mask)
        assert total >= 10_000
        assert abs(hits / total - target) < 0.02

    def test_mirrored_substitution_frequencies(self):
        # Increasing vs decreasing with the same mean flip the first/last gap.
        mu_inc = solve_mu(0.0, 1.0, 16.0, "increasing", 0.5)
        mu_dec = solve_mu(0.0, 1.0, 16.0, "decreasing", 0.5)
        inc = Schedule(0.0, 1.0, 16.0, mu_inc, "increasing")
        dec = Schedule(0.0, 1.0, 16.0, mu_dec, "decreasing")
        ps_inc = schedule_probabilities(50, inc)
        ps_dec = schedule_probabilities(50, dec)
        gap_inc = ps_inc[-1] - ps_inc[0]
        gap_dec = ps_dec[-1] - ps_dec[0]
        assert gap_inc > 0 > gap_dec
        assert gap_inc == pytest.approx(-gap_dec, abs=1e-6)


def build_pool(episodes, dialect):
    pool = ArtifactPool()
    for ep in episodes:
        for step in ep.steps:
            raw = dialect.render_response(step.gt_action, thought="pooled",
                                          conclusion=f"did-{step.step_index}",
                                          dims=step.observation.dims)
            pool.add(OnPolicyArtifact(
                key=f"{ep.id}/{step.step_index}",
                action=step.gt_action,
                thought="pooled",
                conclusion=f"did-{step.step_index}",
                raw_response=raw,
            ))
    return pool


class TestMixedHistory:
    def test_substitution_follows_mask(self, episodes, xml_dialect):
        pool = build_pool(episodes, xml_dialect)
        rng = np.random.default_rng(0)
        ep = episodes[0]
        entries, realized, eligible = mixed_history(
            ep, 4, [True, False, True, False], pool, rng)
        assert realized == [True, False, True, False]
        assert all(eligible)
        from trajkit.dialects import ArtifactEntry, ReferenceEntry
        assert isinstance(entries[0], ArtifactEntry)
        assert isinstance(entries[1], ReferenceEntry)

    def test_empty_pool_falls_back(self, episodes, xml_dialect):
        pool = ArtifactPool()
        rng = np.random.default_rng(0)
        entries, realized, eligible = mixed_history(
            episodes[0], 3, [True, True, True], pool, rng)
        assert realized == [False, False, False]
        assert eligible == [False, False, False]

    def test_pool_roundtrip(self, episodes, xml_dialect, tmp_path):
        pool = build_pool(episodes, xml_dialect)
        pool.save(tmp_path / "pool.jsonl")
        loaded = ArtifactPool.load(tmp_path / "pool.jsonl")
        assert len(loaded) == len(pool)
        assert loaded.keys() == pool.keys()


class TestSweepExecution:
    def test_small_sweep_runs_and_reports(self, xml_dialect):
        episodes = synth.make_episodes(1, 5, seed=2)
        pool = build_pool(episodes, xml_dialect)
        backend = MockBackend(synth.make_responder(episodes, xml_dialect,
                                                   synth.oracle_policy))
        gateway = ModelGateway(backend, EndpointConfig(), xml_dialect.id)
        cfg = SweepConfig(grid=2, samples_per_pair=2, global_seed=1)
        results = run_sweep(gateway, episodes, xml_dialect, pool, cfg)
        # grid=2 -> endpoints {0,1} -> 4 pairs x 2 samples
        assert len(results) == 8
        for r in results:
            assert 0.0 <= r.realized_osr <= 1.0 or r.positions == 0
            # oracle pool + oracle agent: substitution is a no-op
            assert r.exact_match == 1.0

    def test_oracle_pool_osr_invariance(self, xml_dialect):
        # With artifacts identical to references, exact match is flat in OSR.
        episodes = synth.make_episodes(2, 4, seed=6)
        pool = build_pool(episodes, xml_dialect)
        backend = MockBackend(synth.make_responder(episodes, xml_dialect,
                                                   synth.oracle_policy))
        gateway = ModelGateway(backend, EndpointConfig(), xml_dialect.id)
        results = run_sweep(gateway, episodes, xml_dialect, pool,
                            SweepConfig(grid=2, samples_per_pair=3))
        assert {r.exact_match for r in results} == {1.0}

    def test_history_sensitive_agent_responds_to_osr(self, xml_dialect):
        # The history-echo agent is correct iff the latest entry is on-policy,
        # so full substitution beats zero substitution.
        episodes = synth.make_episodes(2, 6, seed=9)
        pool = build_pool(episodes, xml_dialect)
        backend = MockBackend(synth.make_responder(episodes, xml_dialect,
                                                   synth.history_echo_policy))
        gateway = ModelGateway(backend, EndpointConfig(), xml_dialect.id)
        results = run_sweep(gateway, episodes, xml_dialect, pool,
                            SweepConfig(grid=2, samples_per_pair=2, global_seed=3))
        zero = [r for r in results if r.setting.p_start == r.setting.p_end == 0.0]
        full = [r for r in results if r.setting.p_start == r.setting.p_end == 1.0]
        assert all(r.realized_osr == 0.0 for r in zero)
        assert all(r.realized_osr == 1.0 for r in full)
        assert min(r.exact_match for r in full) > max(r.exact_match for r in zero)


class TestPooledMode:
    def test_full_pool_substitutes_everywhere(self, episodes, xml_dialect):
        import numpy as np

        pool = build_pool(episodes, xml_dialect)
        backend = MockBackend(synth.make_responder(episodes, xml_dialect,
                                                   synth.oracle_policy))
        gateway = ModelGateway(backend, EndpointConfig(), xml_dialect.id)
        rng = np.random.default_rng(0)
        records = replay_episode(gateway, episodes[0], xml_dialect,
                                 pooled_history(episodes[0], pool, rng))
        assert episode_metrics(records, episodes[0]).success
        for i, rec in enumerate(records):
            assert rec.history_sources == [True] * i
            assert rec.evaluation["eligible_positions"] == [True] * i
        assert compute_osr(records) == 1.0
        assert compute_osr(records, eligible_only=True) == 1.0

    def test_partial_pool_eligible_only_variant(self, episodes, xml_dialect):
        import numpy as np

        ep = episodes[0]
        pool = ArtifactPool()
        # pool covers even step indices only
        for step in ep.steps:
            if step.step_index % 2 == 0:
                pool.add(OnPolicyArtifact(
                    key=f"{ep.id}/{step.step_index}",
                    action=step.gt_action,
                    thought=None, conclusion=None, raw_response=""))
        backend = MockBackend(synth.make_responder(episodes, xml_dialect,
                                                   synth.oracle_policy))
        gateway = ModelGateway(backend, EndpointConfig(), xml_dialect.id)
        rng = np.random.default_rng(0)
        records = replay_episode(gateway, ep, xml_dialect, pooled_history(ep, pool, rng))
        # all-positions OSR counts reference fallbacks; eligible-only is 1
        assert compute_osr(records) < 1.0
        assert compute_osr(records, eligible_only=True) == 1.0


    def test_schedule_probabilities_computed_once_per_length(self, episodes, xml_dialect,
                                                             monkeypatch):
        """A sweep setting shares each length's probabilities across its
        episodes (only the sweep replays the pool under a schedule)."""
        from types import SimpleNamespace

        import trajkit.semionline as so

        pool = build_pool(episodes, xml_dialect)
        sched = Schedule(0.2, 0.6, 16.0, 0.4, "increasing")
        setting = so.SweepSetting(index=5, regime="increasing", p_start=0.2, p_end=0.8,
                                  target_mean=0.4, schedule=sched)

        # Each episode drawing its masks step by step, with no shared vectors.
        gateway, _ = make_gateway(episodes, xml_dialect, "alternating")
        rng = np.random.default_rng((5, 3))
        records = [r for ep in episodes for r in replay_episode(
            gateway, ep, xml_dialect, so.pooled_history(ep, pool, rng, sched))]
        want = SimpleNamespace(substituted=sum(sum(r.history_sources) for r in records),
                               positions=sum(len(r.history_sources) for r in records),
                               exact=sum(r.evaluation["exact_match"] for r in records),
                               scored=len(records))

        lengths = []
        real = so.schedule_probabilities
        monkeypatch.setattr(so, "schedule_probabilities",
                            lambda total, s: lengths.append(total) or real(total, s))
        gateway, _ = make_gateway(episodes, xml_dialect, "alternating")
        got = so.run_sweep_setting(setting, gateway, episodes, xml_dialect, pool, global_seed=3)
        assert 0 < want.substituted < want.positions
        assert (got.realized_osr, got.exact_match, got.positions) == (
            want.substituted / want.positions, want.exact / want.scored, want.positions)
        assert sorted(lengths) == list(range(1, max(len(ep) for ep in episodes)))


class TestGatewayFailureResume:
    def test_partial_episode_is_resumable(self, episodes, xml_dialect, tmp_path):
        from trajkit.store import RunWriter, load_run

        calls = {"n": 0}
        oracle = synth.make_responder(episodes, xml_dialect, synth.oracle_policy)

        def flaky(request, seed, n):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("endpoint fell over")
            return oracle(request, seed, n)

        writer = RunWriter(tmp_path, {"seed_list": [1]})
        gateway = ModelGateway(MockBackend(flaky), EndpointConfig(), xml_dialect.id)
        with pytest.raises(RuntimeError):
            replay_episode(gateway, episodes[0], xml_dialect,
                           reference_history(episodes[0]), writer=writer)
        records, _, _ = load_run(tmp_path)
        assert len(records) == 2  # steps before the failure are durable

        resumed = RunWriter(tmp_path, {"seed_list": [1]})
        gateway2, backend2 = make_gateway(episodes, xml_dialect, "oracle")
        recs = replay_episode(gateway2, episodes[0], xml_dialect,
                              reference_history(episodes[0]), writer=resumed)
        assert episode_metrics(recs, episodes[0]).success
        assert backend2.calls == len(episodes[0]) - 2


class TestFullSweepIntegration:
    """The complete 800-setting sweep, end to end against a mock agent."""

    def test_regime_ordering_at_matched_osr(self, xml_dialect):
        # A recency-sensitive agent (correct iff the latest history entry is
        # on-policy) must benefit more from late substitution than from
        # early substitution at the same realized OSR: increasing regimes
        # beat decreasing ones bucket by bucket.
        episodes = synth.make_episodes(4, 6, seed=0)
        pool = build_pool(episodes, xml_dialect)
        backend = MockBackend(synth.make_responder(episodes, xml_dialect,
                                                   synth.history_echo_policy))
        gateway = ModelGateway(backend, EndpointConfig(), xml_dialect.id)
        results = run_sweep(gateway, episodes, xml_dialect, pool,
                            SweepConfig(global_seed=7), concurrency=4)
        assert len(results) == 800

        buckets: dict[tuple, list[float]] = {}
        for r in results:
            key = (round(r.realized_osr * 5) / 5, r.setting.regime)
            buckets.setdefault(key, []).append(r.exact_match)

        compared = 0
        for osr in sorted({k[0] for k in buckets}):
            inc = buckets.get((osr, "increasing"))
            dec = buckets.get((osr, "decreasing"))
            if inc and dec and len(inc) >= 5 and len(dec) >= 5:
                assert sum(inc) / len(inc) > sum(dec) / len(dec), osr
                compared += 1
        assert compared >= 3

        # overall, exact match rises with realized OSR
        from scipy import stats as sps
        osr = [r.realized_osr for r in results]
        em = [r.exact_match for r in results]
        assert sps.spearmanr(osr, em).statistic > 0.5


def test_pool_loads_from_directory(episodes, xml_dialect, tmp_path):
    pool = build_pool(episodes[:1], xml_dialect)
    other = build_pool(episodes[1:2], xml_dialect)
    pool.save(tmp_path / "a.jsonl")
    other.save(tmp_path / "b.jsonl")
    merged = ArtifactPool.load(tmp_path)
    assert len(merged) == len(pool) + len(other)
    with pytest.raises(FileNotFoundError):
        ArtifactPool.load(tmp_path / "empty_dir_nope")
