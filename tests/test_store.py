import json
import sys
import threading

import pytest

from trajkit import synth
from trajkit.actions import ActionKind, BBox
from trajkit.store import (
    ConfigMismatchError,
    CorruptRecordsError,
    Episode,
    RunRecord,
    RunWriter,
    load_episodes,
    load_run,
    write_episodes,
)


def write_lines(path, lines):
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n", encoding="utf-8")


def base_record(tmp_path, **overrides):
    shot = tmp_path / "s.png"
    shot.write_bytes(synth.PLACEHOLDER_PNG)
    rec = {
        "episode_id": "e1",
        "step_index": 0,
        "app": "notes",
        "device": "phone",
        "benchmark": "synthetic",
        "split": "test",
        "instruction_high": "do the thing",
        "screenshot_path": "s.png",
        "img_w": 1080,
        "img_h": 2400,
        "gt_kind": "STOP",
        "gt_params": {"status": "finish"},
    }
    rec.update(overrides)
    return rec


class TestLoadEpisodes:
    def test_well_formed_fixture(self, benchmark_dir):
        report = load_episodes(benchmark_dir / "episodes.jsonl")
        assert len(report.episodes) == 4
        assert report.rejections == []
        for ep in report.episodes:
            assert len(ep) == 5
            assert not ep.truncated

    @pytest.mark.parametrize("params, bbox", [
        ({"point": [616.7, 211]}, None),
        ({"point": ["616", True]}, None),
        ({"point": [616, 211]}, {"x1": 600, "y1": 200.5, "x2": 630, "y2": 220}),
        ({"point": [616, 211]}, {"x1": 600, "y1": False, "x2": 630, "y2": 220}),
    ])
    def test_inexact_coordinates_rejected_not_truncated(self, tmp_path, params, bbox):
        extra = {"gt_bbox": bbox} if bbox else {}
        rec = base_record(tmp_path, gt_kind="CLICK", gt_params=params, **extra)
        write_lines(tmp_path / "b.jsonl", [rec, base_record(tmp_path, step_index=1)])
        report = load_episodes(tmp_path / "b.jsonl")
        assert report.episodes == []
        assert report.rejections[0].line_no == 1
        assert "coordinate" in report.rejections[0].reason

    def test_integral_float_coordinates_accepted(self, tmp_path):
        rec = base_record(tmp_path, gt_kind="CLICK", gt_params={"point": [616.0, "211"]},
                          gt_bbox={"x1": 600.0, "y1": 200, "x2": 630, "y2": 220.0})
        write_lines(tmp_path / "b.jsonl", [rec, base_record(tmp_path, step_index=1)])
        report = load_episodes(tmp_path / "b.jsonl")
        assert report.ok
        step = report.episodes[0].steps[0]
        assert (step.gt_action.point.x, step.gt_action.point.y) == (616, 211)
        assert step.gt_bbox == BBox(600, 200, 630, 220)

    def test_click_without_bbox_is_legal(self, tmp_path):
        rec = base_record(tmp_path, gt_kind="CLICK", gt_params={"point": [5, 5]})
        stop = base_record(tmp_path, step_index=1)
        write_lines(tmp_path / "b.jsonl", [rec, stop])
        report = load_episodes(tmp_path / "b.jsonl")
        assert report.ok
        assert report.episodes[0].steps[0].gt_bbox is None

    def test_step_index_gap_rejected(self, tmp_path):
        recs = [base_record(tmp_path), base_record(tmp_path, step_index=2)]
        write_lines(tmp_path / "b.jsonl", recs)
        report = load_episodes(tmp_path / "b.jsonl")
        assert report.episodes == []
        assert any("non-contiguous" in r.reason for r in report.rejections)

    def test_missing_screenshot_rejected(self, tmp_path):
        rec = base_record(tmp_path, screenshot_path="nope.png")
        write_lines(tmp_path / "b.jsonl", [rec])
        report = load_episodes(tmp_path / "b.jsonl")
        assert not report.ok
        assert "not resolvable" in report.rejections[0].reason

    def test_bad_json_reported_with_line_number(self, tmp_path):
        good = base_record(tmp_path)
        path = tmp_path / "b.jsonl"
        path.write_text(json.dumps(good) + "\n{broken\n", encoding="utf-8")
        report = load_episodes(path)
        assert len(report.episodes) == 1
        assert report.rejections[0].line_no == 2

    @pytest.mark.parametrize("overrides, number", [
        ({"step_index": "N"}, "1e999"),
        ({"img_w": "N"}, "1e999"),
        ({"img_w": "N"}, "1" + "0" * 400),
        ({"gt_kind": "CLICK", "gt_params": {"point": [5, 5]},
          "gt_bbox": {"x1": "N", "y1": 0, "x2": 10, "y2": 10}}, "-1e999"),
        ({"gt_kind": "WAIT", "gt_params": {"duration": "N"}}, "NaN"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, overrides, number):
        line = json.dumps(base_record(tmp_path, **overrides)).replace('"N"', number)
        (tmp_path / "b.jsonl").write_text(line + "\n", encoding="utf-8")
        report = load_episodes(tmp_path / "b.jsonl")
        assert report.episodes == [] and len(report.rejections) == 1

    def test_bbox_on_nonclickable_rejected(self, tmp_path):
        rec = base_record(
            tmp_path, gt_kind="TYPE", gt_params={"input": "hi"},
            gt_bbox={"x1": 0, "y1": 0, "x2": 10, "y2": 10})
        write_lines(tmp_path / "b.jsonl", [rec])
        report = load_episodes(tmp_path / "b.jsonl")
        assert not report.ok

    def test_sibling_rejection_poisons_episode(self, tmp_path):
        good = base_record(tmp_path, step_index=0, gt_kind="TYPE",
                           gt_params={"input": "x"})
        bad = base_record(tmp_path, step_index=1, gt_kind="ZAP", gt_params={})
        write_lines(tmp_path / "b.jsonl", [good, bad])
        report = load_episodes(tmp_path / "b.jsonl")
        assert report.episodes == []

    def test_unknown_fields_preserved(self, tmp_path):
        rec = base_record(tmp_path, os_version="14")
        write_lines(tmp_path / "b.jsonl", [rec])
        report = load_episodes(tmp_path / "b.jsonl")
        assert report.episodes[0].extra == {"os_version": "14"}

    def test_truncated_episode_flagged(self, tmp_path):
        rec = base_record(tmp_path, gt_kind="TYPE", gt_params={"input": "x"})
        write_lines(tmp_path / "b.jsonl", [rec])
        report = load_episodes(tmp_path / "b.jsonl")
        assert report.episodes[0].truncated


class TestRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        episodes = synth.make_episodes(3, 6, seed=11,
                                       screenshot_dir=tmp_path / "screens")
        path = tmp_path / "episodes.jsonl"
        write_episodes(episodes, path)
        report = load_episodes(path)
        assert report.ok
        assert report.episodes == episodes

    def test_fixture_counts_match_generator(self, tmp_path):
        synth.make_benchmark_file(tmp_path, n_episodes=6, steps_per_episode=4, seed=3)
        report = load_episodes(tmp_path / "episodes.jsonl")
        assert {len(ep) for ep in report.episodes} == {4}
        assert len(report.episodes) == 6


def make_record(i, **overrides):
    rec = dict(
        key=f"e1/{i}",
        episode_id="e1",
        step_index=i,
        episode_length=10,
        raw_response=f"resp-{i}",
        prediction=None,
        evaluation={"type_match": False, "exact_match": False,
                    "comparable": True, "gt_supported": True},
    )
    rec.update(overrides)
    return RunRecord(**rec)


class TestRunWriter:
    def test_append_and_reload(self, tmp_path):
        writer = RunWriter(tmp_path, {"seed_list": [1]})
        for i in range(10):
            assert writer.append(make_record(i))
        writer.write_manifest()

        records, manifest, warnings = load_run(tmp_path)
        assert len(records) == 10
        assert warnings == []
        assert len({r.key for r in records}) == 10
        assert "completed" not in manifest

    def test_duplicate_key_is_noop(self, tmp_path):
        writer = RunWriter(tmp_path)
        assert writer.append(make_record(0))
        assert not writer.append(make_record(0, raw_response="other"))
        records, _, _ = load_run(tmp_path)
        assert len(records) == 1
        assert records[0].raw_response == "resp-0"

    def test_resume_skips_completed(self, tmp_path):
        writer = RunWriter(tmp_path, {"seed_list": [1]})
        for i in range(5):
            writer.append(make_record(i))
        del writer

        resumed = RunWriter(tmp_path, {"seed_list": [1]})
        assert resumed.completed_keys == {f"e1/{i}" for i in range(5)}
        assert resumed.get("e1/3") is not None
        assert not resumed.append(make_record(3))

    def test_config_mismatch_refused(self, tmp_path):
        writer = RunWriter(tmp_path, {"seed_list": [1]})
        writer.append(make_record(0))
        writer.write_manifest()
        with pytest.raises(ValueError, match="different"):
            RunWriter(tmp_path, {"seed_list": [2]})

    def test_interrupted_run_config_mismatch_refused(self, tmp_path):
        writer = RunWriter(tmp_path, {"seed_list": [1]})
        writer.append(make_record(0))
        # Interrupted: the run never reached write_manifest().
        with pytest.raises(ConfigMismatchError, match="different"):
            RunWriter(tmp_path, {"seed_list": [2]})
        resumed = RunWriter(tmp_path, {"seed_list": [1]})
        assert resumed.completed_keys == {"e1/0"}

    def test_existing_manifest_not_rewritten_on_open(self, tmp_path):
        writer = RunWriter(tmp_path, {"seed_list": [1]})
        writer.append(make_record(0))
        writer.write_manifest({"mode": "offline"})
        manifest = (tmp_path / "manifest.json").read_bytes()
        assert RunWriter(tmp_path, {"seed_list": [1]}).append(make_record(1))
        assert (tmp_path / "manifest.json").read_bytes() == manifest

    def test_torn_write_recovery(self, tmp_path):
        writer = RunWriter(tmp_path)
        for i in range(3):
            writer.append(make_record(i))
        # Simulate a torn final write.
        path = tmp_path / "records.jsonl"
        with path.open("ab") as fh:
            fh.write(b'{"key": "e1/3", "episode_id": "e1", "step_in')

        resumed = RunWriter(tmp_path)
        assert any("truncated" in w for w in resumed.warnings)
        assert resumed.completed_keys == {"e1/0", "e1/1", "e1/2"}
        # The torn tail is gone; appends land on a clean boundary.
        assert resumed.append(make_record(3))
        records, _, warnings = load_run(tmp_path)
        assert len(records) == 4
        assert warnings == []

    def test_mid_file_corruption_refused_and_file_untouched(self, tmp_path):
        writer = RunWriter(tmp_path)
        for i in range(20):
            writer.append(make_record(i))
        path = tmp_path / "records.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[4] = b'{"key": "e1/4", "episode_id": \n'
        corrupted = b"".join(lines)
        path.write_bytes(corrupted)

        with pytest.raises(CorruptRecordsError, match=r"records\.jsonl.* line 5 "):
            RunWriter(tmp_path)
        assert path.read_bytes() == corrupted
        with pytest.raises(CorruptRecordsError):
            load_run(tmp_path)

    @staticmethod
    def record(episode, step, round_=0, sample=0):
        return make_record(step, key=f"{episode}/{step}/r{round_}/s{sample}",
                           episode_id=episode, round=round_, sample=sample)

    def test_canonicalize_orders_by_episode_round_step_sample(self, tmp_path):
        canonical = [self.record("b", 0), self.record("b", 1), self.record("a", 0),
                     self.record("a", 1, sample=0), self.record("a", 1, sample=1),
                     self.record("a", 0, round_=1), self.record("x", 0)]
        shuffled = [canonical[i] for i in (6, 4, 2, 1, 5, 0, 3)]
        writer = RunWriter(tmp_path / "run")
        for rec in shuffled:
            writer.append(rec)
        lines = (tmp_path / "run" / "records.jsonl").read_bytes().splitlines(keepends=True)
        # Episodes in the given order; one that is not given goes last.
        assert writer.canonicalize(["b", "a"])
        want = [lines[shuffled.index(rec)] for rec in canonical]
        assert (tmp_path / "run" / "records.jsonl").read_bytes() == b"".join(want)
        assert not (tmp_path / "run" / "records.jsonl.tmp").exists()

    def test_canonicalize_moves_lines_without_reserializing(self, tmp_path):
        path = tmp_path / "records.jsonl"
        # A persisted line in a layout ``to_json`` would not write.
        odd = json.dumps(json.loads(self.record("e1", 1).to_json()), indent=None,
                         separators=(" , ", " : ")).encode() + b"\n"
        path.write_bytes(odd)
        writer = RunWriter(tmp_path)
        writer.append(self.record("e1", 0))
        assert writer.canonicalize(["e1"])
        assert path.read_bytes().endswith(odd)
        # The writer follows its own rewrite when more records come.
        writer.append(self.record("e1", 2))
        assert not writer.canonicalize(["e1"])
        assert [r.step_index for r in load_run(tmp_path)[0]] == [0, 1, 2]

    def test_parallel_appends_then_canonicalize(self, tmp_path):
        """Eight threads append 40 records each with frequent thread switches;
        none is lost, and the rewrite orders every line."""
        episodes = [f"e{i}" for i in range(8)]
        writer = RunWriter(tmp_path)

        def work(episode):
            for step in range(40):
                writer.append(self.record(episode, step))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(e,)) for e in reversed(episodes)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        writer.canonicalize(episodes)
        records, _, warnings = load_run(tmp_path)
        assert warnings == []
        assert [(r.episode_id, r.step_index) for r in records] == \
            [(e, step) for e in episodes for step in range(40)]

    def test_canonical_file_left_untouched(self, tmp_path):
        writer = RunWriter(tmp_path)
        for i in range(3):
            writer.append(make_record(i))
        path = tmp_path / "records.jsonl"
        before = path.stat()
        assert not writer.canonicalize(["e1"])
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_record_json_roundtrip(self):
        rec = make_record(2, history_sources=[True, False], seed=9, round=1)
        assert RunRecord.from_json(rec.to_json()) == rec


class TestEpisodeModel:
    def test_empty_episode_rejected(self):
        with pytest.raises(ValueError):
            Episode(id="e", steps=())

    def test_stop_kind_detection(self, episodes):
        for ep in episodes:
            assert ep.steps[-1].gt_action.kind is ActionKind.STOP
