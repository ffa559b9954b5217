import random
import zlib
from fractions import Fraction

import pytest

from conftest import make_gateway
from trajkit import synth
from trajkit.actions import Action, ActionKind, BBox, Point
from trajkit.evaluate import (
    EmptyReportError,
    EvalPolicy,
    StepEvaluation,
    aggregate,
    episode_metrics,
    evaluate_benchmark_offline,
    evaluate_step,
    ratio_bucket,
    reference_history,
    replay_benchmark,
    replay_episode,
    stratify_by_horizon,
)
from trajkit.gateway import EndpointConfig, MockBackend, ModelGateway
from trajkit.semionline import (
    ArtifactPool,
    OnPolicyArtifact,
    on_policy_history,
    pooled_benchmark,
    pooled_histories,
    soeval_benchmark,
)
from trajkit.store import RunRecord, RunWriter


def click(x, y):
    return Action(ActionKind.CLICK, point=Point(x, y))


def scroll(direction, x=500, y=500):
    return Action(ActionKind.SCROLL, point=Point(x, y), direction=direction)


class TestEvaluateStep:
    def test_kind_mismatch_rollout_example(self):
        ev = evaluate_step(click(616, 685), scroll("up"))
        assert not ev.type_match and not ev.exact_match

    def test_scroll_match_rollout_example(self):
        ev = evaluate_step(scroll("up", 616, 685), scroll("up", 259, 499))
        assert ev.type_match and ev.exact_match

    def test_click_inside_bbox(self):
        box = BBox(100, 100, 200, 200)
        ev = evaluate_step(click(150, 150), click(150, 150), box)
        assert ev.exact_match

    def test_click_outside_bbox_not_exact(self):
        box = BBox(100, 100, 200, 200)
        ev = evaluate_step(click(250, 150), click(150, 150), box)
        assert ev.type_match and not ev.exact_match

    def test_click_radius_fallback(self):
        # No bbox: within 70 per-mille L2 of the reference point.
        assert evaluate_step(click(140, 140), click(100, 100)).exact_match
        assert not evaluate_step(click(150, 150), click(100, 100)).exact_match

    def test_click_radius_boundary(self):
        # exactly 70 away matches; 71 does not
        assert evaluate_step(click(170, 100), click(100, 100)).exact_match
        assert not evaluate_step(click(171, 100), click(100, 100)).exact_match

    def test_click_at_gt_point_always_exact(self):
        assert evaluate_step(click(42, 42), click(42, 42)).exact_match

    def test_type_canonicalization(self):
        gt = Action(ActionKind.TYPE, text="hello world")
        assert evaluate_step(Action(ActionKind.TYPE, text="  hello world\n"), gt).exact_match
        assert not evaluate_step(Action(ActionKind.TYPE, text="Hello world"), gt).exact_match

    def test_open_app_equality(self):
        gt = Action(ActionKind.OPEN, app="maps")
        assert evaluate_step(Action(ActionKind.OPEN, app="maps"), gt).exact_match
        assert not evaluate_step(Action(ActionKind.OPEN, app="mail"), gt).exact_match

    def test_press_button_equality(self):
        gt = Action(ActionKind.PRESS, button="ENTER")
        assert evaluate_step(Action(ActionKind.PRESS, button="ENTER"), gt).exact_match
        ev = evaluate_step(Action(ActionKind.PRESS, button="BACK"), gt)
        assert ev.type_match and not ev.exact_match

    def test_wait_stop_type_only(self):
        assert evaluate_step(Action(ActionKind.STOP), Action(ActionKind.STOP)).exact_match
        assert evaluate_step(Action(ActionKind.WAIT), Action(ActionKind.WAIT, duration=9)).exact_match

    def test_parse_failure_scoring(self):
        ev = evaluate_step(None, click(1, 1), failure_reason="bad-params",
                           parse_recognized=True)
        assert not ev.type_match and not ev.exact_match and ev.comparable
        ev2 = evaluate_step(None, click(1, 1), failure_reason="unsupported",
                            parse_recognized=False)
        assert not ev2.comparable

    def test_comparable_requires_both_spaces(self):
        no_wait = frozenset(ActionKind) - {ActionKind.WAIT}
        ev = evaluate_step(Action(ActionKind.WAIT), Action(ActionKind.WAIT),
                           model_space=no_wait)
        assert not ev.comparable
        ev2 = evaluate_step(Action(ActionKind.WAIT), Action(ActionKind.WAIT),
                            benchmark_space=no_wait)
        assert not ev2.comparable

    def test_gt_supported_flag(self):
        no_open = frozenset(ActionKind) - {ActionKind.OPEN}
        ev = evaluate_step(click(1, 1), Action(ActionKind.OPEN, app="x"),
                           model_space=no_open)
        assert not ev.gt_supported

    def test_exact_implies_type_enforced(self):
        with pytest.raises(ValueError):
            StepEvaluation(type_match=False, exact_match=True,
                           comparable=True, gt_supported=True)


class TestEpisodeReplay:
    def test_oracle_agent_full_progress(self, episodes, xml_dialect):
        gateway, _ = make_gateway(episodes, xml_dialect, "oracle")
        records = replay_episode(gateway, episodes[0], xml_dialect,
                                 reference_history(episodes[0]))
        metrics = episode_metrics(records, episodes[0])
        assert metrics.progress == 1.0
        assert metrics.success
        assert all(r.evaluation["exact_match"] for r in records)

    def test_wrong_at_step0_zero_progress(self, episodes, xml_dialect):
        policy = synth.wrong_at_policy({0})
        from trajkit.gateway import MockBackend, EndpointConfig
        backend = MockBackend(synth.make_responder(episodes, xml_dialect, policy))
        from trajkit.gateway import ModelGateway
        gateway = ModelGateway(backend, EndpointConfig(), xml_dialect.id)
        metrics = episode_metrics(replay_episode(gateway, episodes[0], xml_dialect,
                                                 reference_history(episodes[0])), episodes[0])
        assert metrics.progress == 0.0
        assert not metrics.success

    def test_wrong_at_step3_prefix_progress(self, xml_dialect):
        episodes = synth.make_episodes(1, 5, seed=3)
        policy = synth.wrong_at_policy({3})
        from trajkit.gateway import MockBackend, EndpointConfig, ModelGateway
        backend = MockBackend(synth.make_responder(episodes, xml_dialect, policy))
        gateway = ModelGateway(backend, EndpointConfig(), xml_dialect.id)
        metrics = episode_metrics(replay_episode(gateway, episodes[0], xml_dialect,
                                                 reference_history(episodes[0])), episodes[0])
        assert metrics.progress == pytest.approx(0.6)

    def test_history_is_reference_only(self, episodes, xml_dialect):
        gateway, _ = make_gateway(episodes, xml_dialect, "oracle")
        records = replay_episode(gateway, episodes[0], xml_dialect,
                                 reference_history(episodes[0]))
        for i, r in enumerate(records):
            assert r.history_sources == [False] * i

    def test_progress_is_prefix_fraction(self, episodes, xml_dialect):
        gateway, _ = make_gateway(episodes, xml_dialect, "alternating")
        metrics = episode_metrics(replay_episode(gateway, episodes[0], xml_dialect,
                                                 reference_history(episodes[0])), episodes[0])
        # alternating: correct on even steps -> wrong at step 1 -> prefix 1/5
        assert metrics.progress == pytest.approx(0.2)


def fake_record(ep, i, n, exact, type_=None, comparable=True, gt_supported=True,
                key=None):
    return RunRecord(
        key=key or f"{ep}/{i}",
        episode_id=ep,
        step_index=i,
        episode_length=n,
        raw_response="",
        evaluation={
            "type_match": exact if type_ is None else type_,
            "exact_match": exact,
            "comparable": comparable,
            "gt_supported": gt_supported,
        },
    )


class TestAggregate:
    def test_simple_mean(self):
        records = [fake_record("e1", i, 10, exact=i < 8) for i in range(10)]
        report = aggregate(records)
        assert report.exact_match == pytest.approx(0.8)

    def test_comparability_threshold_edge(self):
        # 16-step episode with 15 comparable steps = 93.75% -> dropped at 0.95
        records = [fake_record("e1", i, 16, exact=True, comparable=i > 0)
                   for i in range(16)]
        report = aggregate(records)
        assert report.dropped_episodes == ["e1"]
        assert report.n_steps_scored == 0
        # at exactly 95% the task stays
        records20 = [fake_record("e2", i, 20, exact=True, comparable=i > 0)
                     for i in range(20)]
        report2 = aggregate(records20)
        assert report2.dropped_episodes == []
        assert report2.n_steps_scored == 19

    def test_gt_exclusion_shrinks_denominator(self):
        # 12-step fixture: 4 OPEN gt steps excluded; of the remaining 8,
        # 6 exact -> 0.75 (hand-computed)
        episodes = synth.make_episodes(1, 12, seed=99)
        from dataclasses import replace
        steps = []
        for i, step in enumerate(episodes[0].steps):
            if i < 4:
                gt = Action(ActionKind.OPEN, app="x")
            elif i < 11:
                gt = Action(ActionKind.PRESS, button="HOME")
            else:
                gt = Action(ActionKind.STOP)
            steps.append(replace(step, gt_action=gt, gt_bbox=None))
        episodes = [replace(episodes[0], steps=tuple(steps))]
        records = []
        for i in range(12):
            exact = i in (4, 5, 6, 7, 8, 9)
            records.append(fake_record("ep000", i, 12, exact=exact))
        policy = EvalPolicy(exclude_gt_kinds=frozenset({ActionKind.OPEN}))
        report = aggregate(records, episodes, policy)
        assert report.n_steps == 8
        assert report.exact_match == pytest.approx(6 / 8)

    def test_gt_supported_variant(self):
        records = [fake_record("e1", i, 4, exact=True, gt_supported=i != 0)
                   for i in range(4)]
        report = aggregate(records)
        assert report.n_steps_scored == 4
        assert report.exact_match_gt_supported == pytest.approx(1.0)

    def test_empty_error(self):
        with pytest.raises(EmptyReportError):
            aggregate([])

    def test_order_invariance(self):
        records = [fake_record("e1", i, 6, exact=i % 2 == 0) for i in range(6)]
        a = aggregate(records)
        b = aggregate(list(reversed(records)))
        assert a.exact_match == b.exact_match
        assert a.type_match == b.type_match

    def test_progress_is_the_exact_mean_rounded_once(self):
        # Ten 10-step episodes, each right at step 0 only: a float sum of
        # the ten 1/10 fractions gives 0.9999999999999999 / 10.
        records = [fake_record(f"e{ep}", i, 10, exact=i == 0)
                   for ep in range(10) for i in range(10)]
        assert aggregate(records).progress == 0.1

    @pytest.mark.parametrize("seed", range(5))
    def test_progress_equals_the_fraction_mean_in_any_order(self, seed):
        rng = random.Random(seed)
        lengths = [rng.randint(1, 12) for _ in range(37)]
        prefixes = [rng.randint(0, n) for n in lengths]
        records = [fake_record(f"e{ep}", i, n, exact=i < p)
                   for ep, (n, p) in enumerate(zip(lengths, prefixes)) for i in range(n)]
        exact = sum(Fraction(p, n) for n, p in zip(lengths, prefixes)) / len(lengths)
        rng.shuffle(records)
        assert aggregate(records).progress == float(exact)


class TestHorizon:
    def test_bucket_edges(self):
        assert ratio_bucket(0.2) == 0
        assert ratio_bucket(0.2000001) == 1
        assert ratio_bucket(1.0) == 4

    def test_flat_signal(self):
        records = []
        for e in range(4):
            for i in range(10):
                records.append(fake_record(f"e{e}", i, 10, exact=(e + i) % 2 == 0))
        strat = stratify_by_horizon(records)
        for cell in strat["by_step_index"].values():
            assert cell["exact_match"] == pytest.approx(0.5)

    def test_step_function(self):
        records = [fake_record("e1", i, 10, exact=(i + 1) / 10 <= 0.4)
                   for i in range(10)]
        strat = stratify_by_horizon(records)
        buckets = strat["by_step_ratio"]
        assert buckets["0-20%"]["exact_match"] == 1.0
        assert buckets["20-40%"]["exact_match"] == 1.0
        assert buckets["40-60%"]["exact_match"] == 0.0
        assert buckets["80-100%"]["exact_match"] == 0.0

    def test_matches_brute_force_group_by(self):
        import random
        rng = random.Random(5)
        records = []
        for e in range(7):
            length = rng.randrange(3, 12)
            for i in range(length):
                records.append(fake_record(f"e{e}", i, length,
                                           exact=rng.random() < 0.5))
        strat = stratify_by_horizon(records)

        # independent group-by oracle
        groups = {}
        for r in records:
            sr = (r.step_index + 1) / r.episode_length
            b = min(4, int((sr - 1e-12) // 0.2))
            groups.setdefault(b, []).append(r.evaluation["exact_match"])
        for b, values in groups.items():
            name = ["0-20%", "20-40%", "40-60%", "60-80%", "80-100%"][b]
            assert strat["by_step_ratio"][name]["exact_match"] == \
                pytest.approx(sum(values) / len(values))


def hashing_gateway(episodes, dialect):
    """A mock that answers right or wrong by a hash of the request text, so
    a step shown another history (another pooled candidate) answers otherwise."""
    steps = {step.key: step for ep in episodes for step in ep.steps}

    def respond(request, seed, n):
        step = steps[request.tag]
        digest = zlib.crc32(request.joined_text().encode("utf-8"))
        action = step.gt_action if digest % 3 else synth.wrong_action_for(step.gt_action)
        return dialect.render_response(action, thought=f"request {digest}",
                                       conclusion=f"did-{step.step_index} {digest}",
                                       dims=step.observation.dims)

    return ModelGateway(MockBackend(respond), EndpointConfig())


def candidate_pool(episodes):
    """Three candidates for every step, told apart by their conclusions."""
    pool = ArtifactPool()
    for step in (step for ep in episodes for step in ep.steps):
        for c in range(3):
            pool.add(OnPolicyArtifact(key=step.key, action=step.gt_action,
                                      thought=f"candidate {c}",
                                      conclusion=f"candidate {c} of {step.key}",
                                      raw_response=""))
    return pool


class TestBenchmarkRunner:
    def test_parallel_equals_sequential(self, episodes, xml_dialect):
        """Under each protocol's history factory, episodes run four at a time
        return the serial run's records and metrics."""
        factories = {"offline": lambda _, ep: reference_history(ep),
                     "live": lambda _, ep: on_policy_history(ep),
                     "pooled": pooled_histories(candidate_pool(episodes), global_seed=3)}
        for protocol, histories in factories.items():
            (seq, seq_metrics), (par, par_metrics) = [
                replay_benchmark(hashing_gateway(episodes, xml_dialect), episodes, xml_dialect,
                                 histories, concurrency=concurrency)
                for concurrency in (1, 4)]
            assert [r.to_json() for r in par] == [r.to_json() for r in seq], protocol
            assert par_metrics == seq_metrics, protocol
            assert len(seq) == sum(len(ep) for ep in episodes), protocol

    def test_forwards_equal_replay_benchmark(self, episodes, xml_dialect, tmp_path):
        """The three ``*_benchmark`` forwards, called with the keywords the
        benchmark scripts pass, write what ``replay_benchmark`` writes under
        the matching history factory."""
        def run(replay, run_dir, *args, **kwargs):
            writer = RunWriter(run_dir, {})
            records, metrics = replay(hashing_gateway(episodes, xml_dialect), episodes,
                                      xml_dialect, *args, writer=writer, seed=11,
                                      concurrency=2, **kwargs)
            writer.canonicalize([ep.id for ep in episodes])
            return ([r.to_json() for r in records], metrics,
                    (run_dir / "records.jsonl").read_bytes())

        pool = candidate_pool(episodes)
        cases = [(evaluate_benchmark_offline, (), {}, lambda _, ep: reference_history(ep)),
                 (soeval_benchmark, (), {}, lambda _, ep: on_policy_history(ep)),
                 (pooled_benchmark, (pool,), {"global_seed": 7},
                  pooled_histories(pool, global_seed=7))]
        for forward, args, keywords, histories in cases:
            name = forward.__name__
            forwarded = run(forward, tmp_path / name, *args, **keywords)
            assert forwarded[2], name
            assert forwarded == run(replay_benchmark, tmp_path / f"{name}-direct", histories), name


class TestAggregateByBenchmark:
    def test_groups_mixed_records(self):
        from trajkit.evaluate import aggregate_by_benchmark
        records = []
        for bench, quality in (("alpha", True), ("beta", False)):
            for e in range(2):
                for i in range(4):
                    rec = fake_record(f"{bench}-e{e}", i, 4, exact=quality)
                    rec.benchmark = bench
                    records.append(rec)
        reports = aggregate_by_benchmark(records)
        assert set(reports) == {"alpha", "beta"}
        assert reports["alpha"].exact_match == 1.0
        assert reports["beta"].exact_match == 0.0
        assert reports["alpha"].n_steps == 8


class TestContinueOnError:
    def test_failed_episode_skipped_and_resumable(self, episodes, xml_dialect,
                                                  tmp_path):
        from trajkit.gateway import EndpointConfig, MockBackend, ModelGateway
        from trajkit.store import RunWriter, load_run

        oracle = synth.make_responder(episodes, xml_dialect, synth.oracle_policy)
        failing_episode = episodes[1].id

        def flaky(request, seed, n):
            if request.tag.startswith(f"{failing_episode}/2"):
                raise RuntimeError("transient outage")
            return oracle(request, seed, n)

        writer = RunWriter(tmp_path, {"seed_list": [1]})
        gateway = ModelGateway(MockBackend(flaky), EndpointConfig(), xml_dialect.id)
        records, metrics = evaluate_benchmark_offline(
            gateway, episodes, xml_dialect, writer=writer, continue_on_error=True)

        assert failing_episode not in metrics
        assert len(metrics) == len(episodes) - 1
        persisted, _, _ = load_run(tmp_path)
        done_for_failed = [r for r in persisted if r.episode_id == failing_episode]
        assert len(done_for_failed) == 2  # steps before the outage are durable

        # a later run completes just the missing steps
        resumed = RunWriter(tmp_path, {"seed_list": [1]})
        gateway2, backend2 = make_gateway(episodes, xml_dialect, "oracle")
        _, metrics2 = evaluate_benchmark_offline(
            gateway2, episodes, xml_dialect, writer=resumed)
        assert backend2.calls == len(episodes[1]) - 2
        assert metrics2[failing_episode].success
