import csv
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from trajkit import synth
from trajkit.cli import main


@pytest.fixture
def bench(tmp_path):
    bench_dir = tmp_path / "bench"
    synth.make_benchmark_file(bench_dir, n_episodes=3, steps_per_episode=4, seed=1)
    return bench_dir / "episodes.jsonl"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestIngest:
    def test_clean_file(self, bench, tmp_path, capsys):
        rc = main(["ingest", "--benchmark", str(bench),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "episodes: 3" in out
        assert (tmp_path / "out" / "rejections.csv").exists()

    def test_bad_record_nonzero_exit(self, bench, tmp_path):
        with open(bench, "a", encoding="utf-8") as fh:
            fh.write('{"episode_id": "broken"}\n')
        rc = main(["ingest", "--benchmark", str(bench),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        rows = read_csv(tmp_path / "out" / "rejections.csv")
        assert len(rows) == 1
        assert rows[0]["episode_id"] == "broken"

    def test_infinite_point_rejected_with_its_line(self, bench, tmp_path):
        lines = bench.read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[0])
        rec.pop("gt_bbox", None)
        rec.update(episode_id="far", gt_kind="CLICK", gt_params={"point": ["x", 5]})
        with open(bench, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec).replace('"x"', "1e999") + "\n")
        rc = main(["ingest", "--benchmark", str(bench), "--no-check-screenshots",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        rows = read_csv(tmp_path / "out" / "rejections.csv")
        assert [(r["line"], r["episode_id"]) for r in rows] == [(str(len(lines) + 1), "far")]
        assert "finite" in rows[0]["reason"]

    @pytest.mark.parametrize("point, reason", [
        ([616.7, 211], "coordinate 616.7 is not an integer"),
        (["616", True], "coordinate True is a boolean"),
    ])
    def test_inexact_point_rejected_with_its_line(self, bench, tmp_path, capsys,
                                                  point, reason):
        lines = bench.read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[0])
        rec.pop("gt_bbox", None)
        rec.update(episode_id="odd", gt_kind="CLICK", gt_params={"point": point})
        with open(bench, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
        rc = main(["ingest", "--benchmark", str(bench), "--no-check-screenshots",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        rows = read_csv(tmp_path / "out" / "rejections.csv")
        assert [(r["line"], r["episode_id"], r["reason"]) for r in rows] == [
            (str(len(lines) + 1), "odd", reason)]
        assert f"line {len(lines) + 1} (odd): {reason}" in capsys.readouterr().err

    def test_non_numeric_duration_rejected_with_its_line(self, bench, tmp_path, capsys):
        lines = bench.read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[0])
        rec.pop("gt_bbox", None)
        rec.update(episode_id="late", gt_kind="WAIT", gt_params={"duration": "soon"})
        with open(bench, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
        rc = main(["ingest", "--benchmark", str(bench), "--no-check-screenshots",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        rows = read_csv(tmp_path / "out" / "rejections.csv")
        assert [(r["line"], r["episode_id"]) for r in rows] == [(str(len(lines) + 1), "late")]
        assert "soon" in rows[0]["reason"]
        assert f"line {len(lines) + 1} (late): " in capsys.readouterr().err

    @pytest.mark.parametrize("kind, params, reason", [
        ("CLICK", {}, "CLICK gt_params requires point=[x,y]"),
        ("SCROLL", {"point": [5, 5], "to": "sideways"}, "SCROLL gt_params requires to in"),
        ("TYPE", {"submit": True}, "TYPE gt_params requires input"),
        ("OPEN", {"app": ""}, "OPEN gt_params requires app"),
        ("PRESS", {"press": "POWER"}, "PRESS gt_params requires press in"),
    ])
    def test_kind_without_its_parameters_rejected_with_its_line(self, bench, tmp_path, capsys,
                                                                 kind, params, reason):
        lines = bench.read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[0])
        rec.pop("gt_bbox", None)
        rec.update(episode_id="bare", gt_kind=kind, gt_params=params)
        with open(bench, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
        rc = main(["ingest", "--benchmark", str(bench), "--no-check-screenshots",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        rows = read_csv(tmp_path / "out" / "rejections.csv")
        assert [(r["line"], r["episode_id"]) for r in rows] == [(str(len(lines) + 1), "bare")]
        assert rows[0]["reason"].startswith(reason), rows[0]["reason"]
        assert f"line {len(lines) + 1} (bare): {reason}" in capsys.readouterr().err

    def test_undecodable_line_rejected_with_its_line(self, bench, tmp_path, capsys):
        lines = bench.read_bytes().splitlines()
        with open(bench, "ab") as fh:
            fh.write(b"\xff\xfe not utf-8\n")
        rc = main(["ingest", "--benchmark", str(bench), "--no-check-screenshots",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        rows = read_csv(tmp_path / "out" / "rejections.csv")
        assert [(r["line"], r["episode_id"]) for r in rows] == [(str(len(lines) + 1), "-")]
        assert "can't decode byte 0xff" in rows[0]["reason"]
        assert "episodes: 3" in capsys.readouterr().out


class TestMakeFixture:
    def test_generates_loadable_benchmark(self, tmp_path):
        rc = main(["make-fixture", "--out-dir", str(tmp_path / "fx"),
                   "--episodes", "2", "--steps", "3", "--seed", "0"])
        assert rc == 0
        from trajkit.store import load_episodes
        report = load_episodes(tmp_path / "fx" / "episodes.jsonl")
        assert len(report.episodes) == 2 and report.ok


class TestEvalCommands:
    def test_offline_oracle_run(self, bench, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["eval", "--benchmark", str(bench), "--dialect", "xml-toolcall",
                   "--backend", "mock", "--mock-policy", "oracle",
                   "--out-dir", str(out)])
        assert rc == 0
        rows = read_csv(out / "report.csv")
        assert rows[0]["exact_match"] == "1.0"
        assert rows[0]["success_rate"] == "1.0"
        lines = (out / "records.jsonl").read_text().splitlines()
        assert len({json.loads(line)["key"] for line in lines}) == 12
        assert "completed" not in json.loads((out / "manifest.json").read_text())

    def test_exclusion_flag(self, bench, tmp_path):
        out = tmp_path / "run"
        rc = main(["eval", "--benchmark", str(bench), "--backend", "mock",
                   "--mock-policy", "oracle", "--exclude-gt-kinds", "OPEN",
                   "--min-comparable", "0.9", "--out-dir", str(out)])
        assert rc == 0

    def test_soeval_emits_pool_and_osr(self, bench, tmp_path, capsys):
        out = tmp_path / "so"
        rc = main(["soeval", "--benchmark", str(bench), "--backend", "mock",
                   "--mock-policy", "alternating", "--out-dir", str(out)])
        assert rc == 0
        assert (out / "pool.jsonl").exists()
        assert "OSR:" in capsys.readouterr().out

    def test_thought_action_dialect_run(self, bench, tmp_path):
        out = tmp_path / "ta"
        rc = main(["eval", "--benchmark", str(bench), "--dialect",
                   "thought-action", "--backend", "mock", "--mock-policy",
                   "oracle", "--out-dir", str(out)])
        assert rc == 0
        rows = read_csv(out / "report.csv")
        # WAIT ground truths are unsupported in this dialect but the oracle
        # answers every representable step exactly
        assert float(rows[0]["exact_match_gt_supported"]) == 1.0

    def test_no_thinking_flag(self, bench, tmp_path):
        rc = main(["eval", "--benchmark", str(bench), "--backend", "mock",
                   "--mock-policy", "oracle", "--no-thinking",
                   "--out-dir", str(tmp_path / "nt")])
        assert rc == 0


class TestRolloutClusterJudge:
    def test_rollout_then_cluster(self, bench, tmp_path, capsys):
        run = tmp_path / "ro"
        rc = main(["rollout", "--benchmark", str(bench), "--backend", "mock",
                   "--mock-policy", "noisy-oracle", "--rounds", "2",
                   "--samples", "8", "--out-dir", str(run)])
        assert rc == 0
        assert (run / "rollouts.jsonl").exists()
        assert (run / "pool.jsonl").exists()

        out_csv = tmp_path / "cells.csv"
        rc = main(["cluster", "--rollouts", str(run / "rollouts.jsonl"),
                   "--benchmark", str(bench), "--epsilon", "70",
                   "--out", str(out_csv)])
        assert rc == 0
        rows = read_csv(out_csv)
        assert len(rows) == 12  # 3 episodes x 4 steps
        for row in rows:
            assert int(row["n"]) == 16  # 2 rounds x 8 samples
            assert float(row["diversity"]) >= 0.0
            assert row["stability_level"] in ("low", "medium", "high")

    @pytest.mark.parametrize("flags, error", [
        (["--rounds", "-1"], "trajkit rollout: error: argument --rounds: "
                             "must be an integer >= 1, got '-1'"),
        (["--rounds", "0"], "trajkit rollout: error: argument --rounds: "
                            "must be an integer >= 1, got '0'"),
        (["--rounds", "x"], "trajkit rollout: error: argument --rounds: "
                            "must be an integer >= 1, got 'x'"),
        (["--rounds", "3", "--seed-list", "5"],
         "trajkit: error: --rounds 3 exceeds the seed list's length, 1"),
        (["--rounds", "9"], "trajkit: error: --rounds 9 exceeds the seed list's length, 8"),
    ], ids=["-1", "0", "x", "3-of-1", "9-of-default-8"])
    def test_rounds_beyond_the_seed_list_are_one_error(self, bench, tmp_path, capsys,
                                                       flags, error):
        run = tmp_path / "ro"
        try:
            rc = main(["rollout", "--benchmark", str(bench), *flags, "--out-dir", str(run)])
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        assert [line for line in capsys.readouterr().err.splitlines()
                if "error:" in line] == [error]
        assert not run.exists()

    @pytest.mark.parametrize("policy", ["oracle", "alternating"])
    def test_cluster_stability_matches_rollout_rate(self, bench, tmp_path, policy):
        from trajkit.store import load_episodes

        # Pixel coordinates on a screen that is not 1000 x 1000 must not be
        # read as per-mille when the rollouts are clustered.
        steps = [s for ep in load_episodes(bench).episodes for s in ep.steps]
        assert {s.observation.dims for s in steps} == {(1080.0, 2400.0)}
        run = tmp_path / "ro"
        assert main(["rollout", "--benchmark", str(bench), "--dialect", "xml-toolcall",
                     "--backend", "mock", "--mock-policy", policy, "--rounds", "2",
                     "--samples", "3", "--out-dir", str(run)]) == 0
        hits = {}
        for line in (run / "rollouts.jsonl").read_text(encoding="utf-8").splitlines():
            r = json.loads(line)
            hits.setdefault(f"{r['episode_id']}/{r['step_index']}", []).append(
                r["evaluation"]["exact_match"])
        out_csv = tmp_path / "cells.csv"
        assert main(["cluster", "--rollouts", str(run / "rollouts.jsonl"),
                     "--benchmark", str(bench), "--dialect", "xml-toolcall",
                     "--out", str(out_csv)]) == 0
        rows = read_csv(out_csv)
        assert sorted(r["cell"] for r in rows) == sorted(hits)
        assert any(s.gt_action.point is not None for s in steps)
        for row in rows:
            rate = sum(hits[row["cell"]]) / len(hits[row["cell"]])
            assert float(row["stability"]) == pytest.approx(rate), row["cell"]

    def test_judge_scripted(self, tmp_path, xml_dialect):
        from trajkit.actions import Action, ActionKind, Point
        cases_path = tmp_path / "cases.jsonl"
        lines = []
        # consistent: the trace names the executed action
        action = Action(ActionKind.CLICK, point=Point(200, 300))
        trace = xml_dialect.render_response(action)
        lines.append({
            "case_id": "consistent-1", "instruction": "tap it",
            "reasoning_trace": trace,
            "executed_kind": "CLICK", "executed_params": {"point": [200, 300]},
            "human_label": True,
        })
        # inconsistent: executed far from the trace's action
        lines.append({
            "case_id": "inconsistent-1", "instruction": "tap it",
            "reasoning_trace": trace,
            "executed_kind": "CLICK", "executed_params": {"point": [900, 900]},
            "human_label": False,
        })
        cases_path.write_text(
            "\n".join(json.dumps(l) for l in lines) + "\n", encoding="utf-8")
        out_csv = tmp_path / "verdicts.csv"
        rc = main(["judge", "--cases", str(cases_path), "--judges", "3",
                   "--rollouts", "8", "--out", str(out_csv)])
        assert rc == 0
        rows = read_csv(out_csv)
        verdicts = {r["case"]: r for r in rows}
        assert verdicts["consistent-1"]["consistent"] == "True"
        assert verdicts["inconsistent-1"]["consistent"] == "False"
        assert verdicts["inconsistent-1"]["failure"] == "action-target-mismatch"

    def test_judge_with_one_label_prints_undefined_rate(self, tmp_path, capsys, xml_dialect):
        from trajkit.actions import Action, ActionKind, Point
        trace = xml_dialect.render_response(Action(ActionKind.CLICK, point=Point(200, 300)))
        cases_path = tmp_path / "cases.jsonl"
        cases_path.write_text(json.dumps({
            "case_id": "c0", "instruction": "tap it", "reasoning_trace": trace,
            "executed_kind": "CLICK", "executed_params": {"point": [200, 300]},
            "human_label": True}) + "\n", encoding="utf-8")
        assert main(["judge", "--cases", str(cases_path), "--rollouts", "2",
                     "--out", str(tmp_path / "verdicts.csv")]) == 0
        # No case is labelled inconsistent, so the true negative rate is 0/0.
        assert capsys.readouterr().out.splitlines()[0] == \
            "acc=1.0000 tpr=1.0000 tnr=undefined"


class TestSweepCommand:
    def test_small_grid(self, bench, tmp_path):
        run = tmp_path / "so"
        assert main(["soeval", "--benchmark", str(bench), "--backend", "mock",
                     "--mock-policy", "oracle", "--out-dir", str(run)]) == 0
        out_csv = tmp_path / "sweep.csv"
        rc = main(["sweep", "--benchmark", str(bench), "--backend", "mock",
                   "--mock-policy", "history-echo", "--pool",
                   str(run / "pool.jsonl"), "--grid", "2",
                   "--samples-per-pair", "2", "--out", str(out_csv)])
        assert rc == 0
        rows = read_csv(out_csv)
        assert len(rows) == 8
        assert {r["regime"] for r in rows} == \
            {"increasing", "decreasing", "stationary"}


class TestRewardCommand:
    def test_groups_mode(self, tmp_path):
        groups = tmp_path / "groups.jsonl"
        groups.write_text(
            json.dumps({"group_id": "g0", "rewards": [0.0, 1.0, 1.0, 2.0]}) + "\n" +
            json.dumps({"group_id": "g1", "rewards": [2.0, 2.0]}) + "\n",
            encoding="utf-8")
        out = tmp_path / "adv.csv"
        assert main(["reward", "--groups", str(groups), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[1]["zero_variance"] == "True"
        advantages = json.loads(rows[0]["advantages"])
        assert advantages[0] == pytest.approx(-1.414214, abs=1e-4)

    def test_steps_mode_binary_and_gaussian(self, tmp_path):
        steps = tmp_path / "steps.jsonl"
        rec = {
            "id": "s0",
            "pred_kind": "CLICK", "pred_params": {"point": [150, 150]},
            "gt_kind": "CLICK", "gt_params": {"point": [150, 150]},
            "gt_bbox": {"x1": 100, "y1": 100, "x2": 300, "y2": 200},
        }
        steps.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        out_b = tmp_path / "binary.csv"
        assert main(["reward", "--steps", str(steps), "--mode", "binary",
                     "--out", str(out_b)]) == 0
        assert float(read_csv(out_b)[0]["total"]) == 2.0
        out_g = tmp_path / "gauss.csv"
        assert main(["reward", "--steps", str(steps), "--mode", "gaussian",
                     "--out", str(out_g)]) == 0
        total = float(read_csv(out_g)[0]["total"])
        # off-center (150,150) in a 200x100 box centered at (200,150)
        assert 1.0 < total < 2.0

    def test_steps_gt_bbox_coerced_like_ingest(self, tmp_path, capsys):
        """Integral float box corners read as ints and fractional ones are
        rejected, as ``ingest`` reads them."""
        rec = {"pred_kind": "CLICK", "pred_params": {"point": [150, 150]},
               "gt_kind": "CLICK", "gt_params": {"point": [150, 150]}}
        steps = tmp_path / "steps.jsonl"
        out = tmp_path / "gauss.csv"
        totals = []
        for bbox in ({"x1": 100, "y1": 100, "x2": 300, "y2": 200},
                     {"x1": 100.0, "y1": 100.0, "x2": 300.0, "y2": 200.0}):
            steps.write_text(json.dumps({**rec, "gt_bbox": bbox}) + "\n", encoding="utf-8")
            assert main(["reward", "--steps", str(steps), "--mode", "gaussian",
                         "--out", str(out)]) == 0
            totals.append(read_csv(out)[0]["total"])
        assert totals[0] == totals[1]

        capsys.readouterr()
        bbox = {"x1": 100.5, "y1": 100.9, "x2": 300.2, "y2": 200.7}
        steps.write_text(json.dumps({**rec, "gt_bbox": bbox}) + "\n", encoding="utf-8")
        assert main(["reward", "--steps", str(steps), "--mode", "gaussian",
                     "--out", str(out)]) == 2
        assert "coordinate 100.5 is not an integer" in capsys.readouterr().err


class TestReportCommand:
    def test_reemit_from_run_dir(self, bench, tmp_path, capsys):
        out = tmp_path / "run"
        main(["eval", "--benchmark", str(bench), "--backend", "mock",
              "--mock-policy", "alternating", "--out-dir", str(out)])
        (out / "report.csv").unlink()
        rc = main(["report", "--run-dir", str(out), "--benchmark", str(bench)])
        assert rc == 0
        assert (out / "report.csv").exists()
        assert (out / "horizon.csv").exists()


class TestStatsCommand:
    def test_correlation(self, tmp_path, capsys):
        table = tmp_path / "corr.csv"
        with open(table, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["online", "soeval_em"])
            for online, em in zip([13.0, 47.6, 52.0, 65.9, 66.4, 67.0],
                                  [55.93, 62.84, 57.66, 76.16, 67.37, 71.66]):
                writer.writerow([online, em])
        out = tmp_path / "corr_out.csv"
        rc = main(["stats", "correlation", "--csv", str(table), "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "rho=0.7714" in printed
        assert "linear_r2=0.6241" in printed

    def test_contingency(self, capsys):
        rc = main(["stats", "contingency", "5531", "456", "1976", "2037"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "odds ratio: 12.50" in printed
        assert "chi2: 2389.58" in printed

    def test_wilson(self, capsys):
        rc = main(["stats", "wilson", "273", "324"])
        assert rc == 0
        assert "[0.7990, 0.8782]" in capsys.readouterr().out

    def test_seeds(self, capsys):
        values = ["0.1892", "0.1932", "0.1858", "0.1916",
                  "0.1868", "0.1968", "0.1898", "0.1883"]
        rc = main(["stats", "seeds", *values])
        assert rc == 0
        assert "CI [0.1872, 0.1932]" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, reason", [
        (["wilson", "5", "0"], "wilson: n must be positive"),
        (["wilson", "7", "5"], "wilson: successes 7 outside [0, 5]"),
        (["contingency", "0", "0", "0", "0"], "contingency: empty table"),
        (["contingency", "5", "-1", "3", "0"], "contingency: counts must be nonnegative"),
        (["seeds", "1e200", "3e200"],
         "seeds: the mean or variance of the values is not a finite float"),
        (["seeds", "1.7e308", "1.7e308"],
         "seeds: the mean or variance of the values is not a finite float"),
    ])
    def test_invalid_input_ends_in_one_error_line(self, capsys, argv, reason):
        assert main(["stats", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"trajkit: error: {reason}\n"

    def test_undefined_ratios_print_as_undefined(self, capsys):
        # The second column is empty: its match ratio, the relative risk and
        # the odds ratio divide by zero.
        assert main(["stats", "contingency", "5", "0", "3", "0"]) == 0
        assert capsys.readouterr().out == (
            "match ratios: 62.50 / undefined\n"
            "relative risk: undefined  odds ratio: undefined\n"
            "chi2: 0.00  phi: 0.0000\n")

    @pytest.mark.parametrize("values", [["0.5", "-1e-3"], ["1.5", "-2e-1", "3"],
                                        ["-.5E+1", "-2"]])
    def test_seeds_takes_negative_exponents_without_a_separator(self, capsys, values):
        assert main(["stats", "seeds", "--", *values]) == 0
        separated = capsys.readouterr().out
        assert main(["stats", "seeds", *values]) == 0
        assert capsys.readouterr().out == separated

    @pytest.mark.parametrize("values", [["nan", "0.5", "0.6"], ["inf", "0.5"],
                                        ["--", "0.5", "-inf"], ["0.5", "-inf"],
                                        ["0.5", "-nan"], ["1e999", "0.5"]])
    def test_seeds_rejects_non_finite_values(self, capsys, values):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "seeds", *values])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be a finite number" in captured.err


class TestConfigFile:
    def test_yaml_config_drives_run(self, bench, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            "dialect: plain-json\n"
            "endpoint:\n"
            "  model_name: cfg-model\n"
            "  temperature: 0.5\n"
            "policy:\n"
            "  min_comparable: 0.8\n"
            "seed_list: [11, 22]\n",
            encoding="utf-8")
        out = tmp_path / "cfg_run"
        rc = main(["eval", "--benchmark", str(bench), "--backend", "mock",
                   "--mock-policy", "oracle", "--config", str(config),
                   "--out-dir", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed_list"] == [11, 22]


class TestSoevalPoolMode:
    def test_pool_replay(self, bench, tmp_path, capsys):
        live = tmp_path / "live"
        assert main(["soeval", "--benchmark", str(bench), "--backend", "mock",
                     "--mock-policy", "oracle", "--out-dir", str(live)]) == 0
        pooled = tmp_path / "pooled"
        rc = main(["soeval", "--benchmark", str(bench), "--mode", "pool",
                   "--pool", str(live / "pool.jsonl"), "--backend", "mock",
                   "--mock-policy", "oracle", "--out-dir", str(pooled)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "eligible-only" in printed
        rows = read_csv(pooled / "report.csv")
        assert rows[0]["exact_match"] == "1.0"

    @pytest.mark.parametrize("policy", ["alternating", "noisy-oracle", "history-echo"])
    def test_live_replay_is_the_pool_replay_over_its_own_steps(self, tmp_path, capsys, policy):
        """Live history is pooled history over the run's own exact-matched
        steps: replayed over the live run's pool, the records are the live
        run's, apart from the eligibility mask, and the OSR is the same."""
        synth.make_benchmark_file(tmp_path / "bench", n_episodes=6, steps_per_episode=5,
                                  seed=3)
        common = ["--benchmark", str(tmp_path / "bench" / "episodes.jsonl"),
                  "--mock-policy", policy]
        live, pooled = tmp_path / "live", tmp_path / "pooled"
        printed = {}
        for out, extra in ((live, []), (pooled, ["--mode", "pool",
                                                 "--pool", str(live / "pool.jsonl")])):
            capsys.readouterr()
            assert main(["soeval", *common, *extra, "--out-dir", str(out)]) == 0
            printed[out] = capsys.readouterr().out.splitlines()
        records = {}
        for out in (live, pooled):
            records[out] = [json.loads(line) for line in
                            (out / "records.jsonl").read_text(encoding="utf-8").splitlines()]
        assert len(records[live]) == 30
        for record in records[pooled]:
            del record["evaluation"]["eligible_positions"]
        assert records[pooled] == records[live]
        osr = {out: lines[0].split()[:2] for out, lines in printed.items()}
        assert osr[live][0] == "OSR:" and osr[pooled] == osr[live], printed

    def test_osr_line_over_an_empty_pool(self, bench, tmp_path, capsys):
        """No history position has a pooled artifact: OSR is 0 and the
        eligible-only OSR is undefined, and the line is still printed."""
        live = tmp_path / "live"
        assert main(["soeval", "--benchmark", str(bench), "--backend", "mock",
                     "--mock-policy", "wrong", "--out-dir", str(live)]) == 0
        assert (live / "pool.jsonl").read_bytes() == b""
        capsys.readouterr()
        assert main(["soeval", "--benchmark", str(bench), "--mode", "pool",
                     "--pool", str(live / "pool.jsonl"), "--backend", "mock",
                     "--mock-policy", "wrong", "--out-dir", str(tmp_path / "pooled")]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "OSR: 0.0000  (eligible-only undefined)", printed

    def test_pool_mode_requires_pool(self, bench, tmp_path, capsys):
        assert main(["soeval", "--benchmark", str(bench), "--mode", "pool",
                     "--backend", "mock", "--out-dir", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "trajkit: error: soeval --mode pool requires --pool <file>"]


class TestClusterCompare:
    def test_shift_columns(self, bench, tmp_path):
        runs = {}
        for name, policy in (("a", "noisy-oracle"), ("b", "oracle")):
            run = tmp_path / name
            assert main(["rollout", "--benchmark", str(bench), "--backend",
                         "mock", "--mock-policy", policy, "--rounds", "1",
                         "--samples", "8", "--out-dir", str(run)]) == 0
            runs[name] = run / "rollouts.jsonl"
        out = tmp_path / "shifts.csv"
        rc = main(["cluster", "--rollouts", str(runs["a"]), "--compare",
                   str(runs["b"]), "--benchmark", str(bench),
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert "diversity_shift" in rows[0]
        assert all(r["diversity_shift"] in
                   ("increasing", "decreasing", "negligible", "-") for r in rows)
        assert all(r["stability_shift"] in
                   ("increasing", "decreasing", "negligible", "-") for r in rows)


class TestJudgeCsvColumns:
    def test_per_judge_column_populated(self, tmp_path, xml_dialect):
        from trajkit.actions import Action, ActionKind, Point
        action = Action(ActionKind.PRESS, button="ENTER")
        trace = xml_dialect.render_response(action)
        case = {"case_id": "c0", "instruction": "submit",
                "reasoning_trace": trace,
                "executed_kind": "PRESS", "executed_params": {"press": "ENTER"}}
        cases = tmp_path / "cases.jsonl"
        cases.write_text(json.dumps(case) + "\n", encoding="utf-8")
        out = tmp_path / "v.csv"
        assert main(["judge", "--cases", str(cases), "--judges", "2",
                     "--rollouts", "4", "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert "judge0:PRESS(press=ENTER)" in row["per_judge"]
        assert "judge1:" in row["per_judge"]


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args):
    """``python -m trajkit.cli`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "trajkit.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def assert_one_line_error(proc, match):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("trajkit: error: "), proc.stderr
    assert match in lines[0]


class Interrupted(Exception):
    pass


class TestRunDirErrors:
    def test_interrupted_run_resumed_under_other_config(self, bench, tmp_path, monkeypatch):
        import trajkit.commands.replay as replay_cmds

        real_backend = replay_cmds._backend

        def interrupting_backend(args, episodes, dialect):
            backend = real_backend(args, episodes, dialect)
            respond = backend.responder

            def responder(request, seed, n):
                if backend.calls > 3:
                    raise Interrupted()
                return respond(request, seed, n)

            backend.responder = responder
            return backend

        out = tmp_path / "run"
        monkeypatch.setattr(replay_cmds, "_backend", interrupting_backend)
        with pytest.raises(Interrupted):
            main(["eval", "--benchmark", str(bench), "--dialect", "xml-toolcall",
                  "--backend", "mock", "--mock-policy", "wrong", "--out-dir", str(out)])
        records = (out / "records.jsonl").read_bytes()
        assert len(records.splitlines()) == 3

        proc = run_cli(["eval", "--benchmark", str(bench), "--dialect", "plain-json",
                        "--backend", "mock", "--mock-policy", "oracle",
                        "--out-dir", str(out)])
        assert_one_line_error(proc, "different configuration")
        assert (out / "records.jsonl").read_bytes() == records

    def test_corrupt_records_reported_in_one_line(self, bench, tmp_path):
        out = tmp_path / "run"
        args = ["eval", "--benchmark", str(bench), "--backend", "mock",
                "--mock-policy", "oracle", "--out-dir", str(out)]
        assert main(args) == 0
        path = out / "records.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[4] = b"{not json\n"
        path.write_bytes(b"".join(lines))

        proc = run_cli(args)
        assert_one_line_error(proc, "corrupt record at line 5")
        assert path.read_bytes() == b"".join(lines)

    @pytest.mark.parametrize("lines, reason", [
        ([{}], "no complete episode to report"),
        ([{}, {"evaluation": {"exact_match": True}}], "corrupt record at line 1"),
        ([{"evaluation": None}], "no complete episode to report"),
    ], ids=["last-line", "middle-line", "evaluation-null"])
    def test_record_without_evaluation_is_a_bad_line(self, tmp_path, capsys, lines, reason):
        run = tmp_path / "run"
        run.mkdir()
        base = {"key": "e/0", "episode_id": "e", "step_index": 0, "episode_length": 1,
                "raw_response": "x"}
        (run / "records.jsonl").write_text(
            "".join(json.dumps({**base, **line}) + "\n" for line in lines), encoding="utf-8")
        assert main(["report", "--run-dir", str(run)]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if not line.startswith("warning: ")]
        assert len(errors) == 1 and errors[0].startswith("trajkit: error: "), err
        assert reason in errors[0]
        assert "Traceback" not in err

    def test_pool_run_resumed_under_other_pool(self, bench, tmp_path):
        pools = {}
        for policy in ("oracle", "alternating"):
            live = tmp_path / policy
            assert main(["soeval", "--benchmark", str(bench), "--backend", "mock",
                         "--mock-policy", policy, "--out-dir", str(live)]) == 0
            pools[policy] = live / "pool.jsonl"
        assert pools["oracle"].read_bytes() != pools["alternating"].read_bytes()
        out = tmp_path / "pooled"
        args = ["soeval", "--benchmark", str(bench), "--mode", "pool", "--backend", "mock",
                "--mock-policy", "history-echo", "--out-dir", str(out)]
        assert main([*args, "--pool", str(pools["oracle"])]) == 0
        records = (out / "records.jsonl").read_bytes()

        # The same pool at another path resumes.
        moved = tmp_path / "moved.jsonl"
        moved.write_bytes(pools["oracle"].read_bytes())
        assert main([*args, "--pool", str(moved)]) == 0
        assert (out / "records.jsonl").read_bytes() == records

        proc = run_cli([*args, "--pool", str(pools["alternating"])])
        assert_one_line_error(proc, "different configuration")
        assert (out / "records.jsonl").read_bytes() == records

    @pytest.mark.parametrize("pool", ["nope.jsonl", "empty_dir"])
    def test_missing_or_empty_pool_reported_in_one_line(self, bench, tmp_path, pool):
        (tmp_path / "empty_dir").mkdir()
        path = tmp_path / pool
        out = tmp_path / "pooled"
        proc = run_cli(["soeval", "--benchmark", str(bench), "--mode", "pool",
                        "--backend", "mock", "--pool", str(path), "--out-dir", str(out)])
        assert_one_line_error(proc, str(path))
        assert not out.exists()
        proc = run_cli(["sweep", "--benchmark", str(bench), "--pool", str(path),
                        "--backend", "mock", "--out", str(tmp_path / "sweep.csv")])
        assert_one_line_error(proc, str(path))
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("manifest, reason", [
        ("{", "not valid JSON"), ("[1, 2]", "not a JSON object")])
    @pytest.mark.parametrize("command", ["report", "eval"])
    def test_corrupt_manifest_reported_in_one_line(self, bench, tmp_path, capsys,
                                                   manifest, reason, command):
        out = tmp_path / "run"
        assert main(["eval", "--benchmark", str(bench), "--backend", "mock",
                     "--mock-policy", "oracle", "--out-dir", str(out)]) == 0
        (out / "manifest.json").write_text(manifest, encoding="utf-8")
        files = {path: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()

        argv = (["report", "--run-dir", str(out), "--benchmark", str(bench)]
                if command == "report" else
                ["eval", "--benchmark", str(bench), "--out-dir", str(out)])
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"trajkit: error: {out / 'manifest.json'}: {reason}"), err
        assert {path: path.read_bytes() for path in out.iterdir()} == files


class TestCorrelationPairing:
    """``stats correlation`` keeps a row only when both of its cells are finite
    numbers, so each metric stays paired with the online value of its row."""

    def run(self, tmp_path, capsys, rows):
        table = tmp_path / "corr.csv"
        with open(table, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "online"])
            writer.writerows(rows)
        out = tmp_path / "corr_out.csv"
        rc = main(["stats", "correlation", "--csv", str(table), "--out", str(out)])
        assert rc == 0
        return capsys.readouterr(), read_csv(out)

    def test_skipped_cells_do_not_shift_the_columns(self, tmp_path, capsys):
        m = ["1", "2", "3", "-", "5", "6"]
        online = ["-", "0.2", "0.3", "0.4", "0.5", "0.6"]
        printed, report = self.run(tmp_path, capsys, zip(m, online))
        # the four complete rows lie on a line: online = m / 10
        assert "rho=1.0000 legendre_r2=1.0000" in printed.out
        assert float(report[0]["linear_r2"]) == pytest.approx(1.0, abs=1e-12)
        assert printed.err == ("warning: m: 2 of 6 rows dropped (a cell of m or "
                               "online is not a finite number)\n")

    def test_nan_and_inf_cells_are_dropped(self, tmp_path, capsys):
        # sweep writes nan as realized_osr for a setting without history
        m = ["nan", "0.1", "0.2", "inf", "0.35", "0.5", "0.6"]
        online = ["0.3", "0.2", "0.4", "0.1", "0.5", "0.55", "0.7"]
        printed, report = self.run(tmp_path, capsys, zip(m, online))
        kept_m = [0.1, 0.2, 0.35, 0.5, 0.6]
        kept_online = [0.2, 0.4, 0.5, 0.55, 0.7]
        from trajkit.stats import correlation_report

        want = correlation_report("m", kept_m, kept_online)
        assert report == [{"metric": "m",
                           "spearman_rho": repr(want.spearman_rho),
                           "legendre_r2": repr(want.legendre_r2),
                           "legendre_r2_transposed": repr(want.legendre_r2_transposed),
                           "linear_r2": repr(want.linear_r2)}]
        assert "m: 2 of 7 rows dropped" in printed.err

    def test_complete_rows_print_no_warning(self, tmp_path, capsys):
        printed, report = self.run(tmp_path, capsys,
                                   zip([1, 2, 4, 3], [0.1, 0.3, 0.2, 0.5]))
        assert printed.err == ""
        assert len(report) == 1

    def test_missing_online_column_reported_in_one_line(self, tmp_path):
        table = tmp_path / "corr.csv"
        table.write_text("m,exact\n1,2\n", encoding="utf-8")
        proc = run_cli(["stats", "correlation", "--csv", str(table),
                        "--out", str(tmp_path / "out.csv")])
        assert_one_line_error(proc, "no column 'online'")


class TestNoThinkingEveryMode:
    """``--no-thinking`` reaches every request: the synth mock then writes
    no ``considering step`` thought."""

    def records(self, path):
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]

    def test_pool_mode(self, bench, tmp_path):
        live = tmp_path / "live"
        assert main(["soeval", "--benchmark", str(bench), "--backend", "mock",
                     "--mock-policy", "oracle", "--out-dir", str(live)]) == 0
        out = tmp_path / "pooled"
        assert main(["soeval", "--benchmark", str(bench), "--mode", "pool",
                     "--pool", str(live / "pool.jsonl"), "--backend", "mock",
                     "--mock-policy", "oracle", "--no-thinking",
                     "--out-dir", str(out)]) == 0
        records = self.records(out / "records.jsonl")
        assert len(records) == 12
        assert not [r for r in records if "considering step" in r["raw_response"]]

    def test_rollout(self, bench, tmp_path):
        out = tmp_path / "ro"
        assert main(["rollout", "--benchmark", str(bench), "--backend", "mock",
                     "--mock-policy", "oracle", "--rounds", "2", "--samples", "3",
                     "--no-thinking", "--out-dir", str(out)]) == 0
        records = self.records(out / "rollouts.jsonl")
        assert len(records) == 72
        assert not [r for r in records if "considering step" in r["raw_response"]]

    def test_sweep(self, tmp_path, monkeypatch):
        import trajkit.commands.replay as replay_cmds

        bench = synth.make_benchmark_file(tmp_path / "bench", n_episodes=2,
                                          steps_per_episode=3, seed=1)
        live = tmp_path / "live"
        assert main(["soeval", "--benchmark", str(bench), "--backend", "mock",
                     "--mock-policy", "oracle", "--out-dir", str(live)]) == 0
        real_backend = replay_cmds._backend
        # The settings run on worker processes: each request is appended to
        # a file, which every worker shares.
        thinking = tmp_path / "thinking.txt"

        def spying_backend(args, episodes, dialect):
            backend = real_backend(args, episodes, dialect)
            respond = backend.responder

            def responder(request, seed, n):
                with thinking.open("a", encoding="utf-8") as fh:
                    fh.write(f"{request.enable_thinking}\n")
                return respond(request, seed, n)

            backend.responder = responder
            return backend

        monkeypatch.setattr(replay_cmds, "_backend", spying_backend)
        assert main(["sweep", "--benchmark", str(bench), "--backend", "mock",
                     "--mock-policy", "history-echo", "--pool", str(live / "pool.jsonl"),
                     "--grid", "2", "--samples-per-pair", "1", "--no-thinking",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert thinking.read_text(encoding="utf-8").splitlines() == ["False"] * 24


class TestConcurrencyFlag:
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_below_one_is_a_usage_error(self, bench, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--benchmark", str(bench), "--concurrency", value,
                  "--out-dir", str(tmp_path / "run")])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"trajkit eval: error: argument --concurrency: "
                          f"must be an integer >= 1, got '{value}'"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("backend, flag, concurrency", [
        ("mock", [], "cpus"), ("mock", ["--concurrency", "3"], 3),
        ("http", [], 4), ("http", ["--concurrency", "3"], 3)])
    def test_sweep_runs_settings_in_parallel_over_http_only(
            self, bench, tmp_path, monkeypatch, backend, flag, concurrency):
        """Over HTTP, settings run on one thread more than the
        ``--concurrency`` request slots (4 by default); with the mock, on
        ``--concurrency`` worker processes, by default one per CPU this
        process may run on."""
        import os

        import trajkit.semionline as semionline

        live = tmp_path / "live"
        assert main(["soeval", "--benchmark", str(bench), "--backend", "mock",
                     "--mock-policy", "oracle", "--out-dir", str(live)]) == 0
        seen = []

        def run_sweep(gateway, episodes, dialect, pool, config, concurrency, processes,
                      **kwargs):
            seen.append((concurrency, processes))
            return []

        monkeypatch.setattr(semionline, "run_sweep", run_sweep)
        assert main(["sweep", "--benchmark", str(bench), "--backend", backend, *flag,
                     "--pool", str(live / "pool.jsonl"),
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        if concurrency == "cpus":
            concurrency = len(os.sched_getaffinity(0))
        settings_at_once = concurrency + 1 if backend == "http" else concurrency
        assert seen == [(settings_at_once, backend == "mock")]


REPLAY = ["--benchmark", "{bench}", "--out-dir", "{tmp}/run"]
SWEEP = ["sweep", "--benchmark", "{bench}", "--pool", "p.jsonl", "--out", "{tmp}/s.csv"]
CLUSTER = ["cluster", "--rollouts", "r.jsonl", "--out", "{tmp}/c.csv"]
JUDGE = ["judge", "--cases", "c.jsonl", "--out", "{tmp}/j.csv"]
FIXTURE = ["make-fixture", "--out-dir", "{tmp}/fx"]

#: (argv, flag, value, what the flag wants)
OUT_OF_RANGE = [
    *[([command, *REPLAY], "--limit-episodes", value, "an integer >= 1")
      for command in ("eval", "soeval", "rollout") for value in ("-1", "0")],
    (SWEEP, "--limit-episodes", "0", "an integer >= 1"),
    (SWEEP, "--global-seed", "-1", "an integer >= 0"),
    (["rollout", *REPLAY], "--samples", "0", "an integer >= 1"),
    (CLUSTER, "--epsilon", "-5", "a finite number >= 0"),
    (CLUSTER, "--epsilon", "nan", "a finite number >= 0"),
    (CLUSTER, "--min-pts", "0", "an integer >= 1"),
    (JUDGE, "--judges", "0", "an integer >= 1"),
    (JUDGE, "--rollouts", "0", "an integer >= 1"),
    (FIXTURE, "--steps", "0", "an integer >= 1"),
    (FIXTURE, "--episodes", "0", "an integer >= 1"),
]


@pytest.mark.parametrize("argv, flag, value, wanted", OUT_OF_RANGE,
                         ids=[f"{row[0][0]}{row[1]}={row[2]}" for row in OUT_OF_RANGE])
def test_out_of_range_count_is_a_usage_error(bench, tmp_path, capsys, argv, flag, value,
                                             wanted):
    """A count, seed or radius out of range is a usage error naming the flag,
    before the command reads or writes anything."""
    argv = [a.format(tmp=tmp_path, bench=bench) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"trajkit {argv[0]}: error: argument {flag}: "
                      f"must be {wanted}, got '{value}'"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench"]


class TestRemovedOptions:
    @pytest.mark.parametrize("argv, removed", [
        (["eval", "--benchmark", "b.jsonl", "--out-dir", "run"], ["--mode", "offline"]),
        (["judge", "--cases", "c.jsonl", "--out", "out.csv"], ["--backend", "mock"]),
        # Episode limits and seed lists only where a replay reads them.
        (["ingest", "--benchmark", "b.jsonl"], ["--limit-episodes", "1"]),
        (["ingest", "--benchmark", "b.jsonl"], ["--seed-list", "5"]),
        (["report", "--run-dir", "run"], ["--limit-episodes", "1"]),
        (["cluster", "--rollouts", "r.jsonl", "--out", "c.csv"], ["--limit-episodes", "1"]),
        (["sweep", "--pool", "p.jsonl", "--out", "s.csv"], ["--seed-list", "5"]),
        # Only eval and soeval leave a failing episode incomplete.
        (["rollout", "--benchmark", "b.jsonl", "--out-dir", "run"], ["--continue-on-error"]),
        (["sweep", "--pool", "p.jsonl", "--out", "s.csv"], ["--continue-on-error"]),
        # sweep writes only its --out CSV.
        (["sweep", "--pool", "p.jsonl", "--out", "s.csv"], ["--out-dir", "zz"])])
    def test_is_a_usage_error(self, capsys, argv, removed):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *removed])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err


class TestOutPath:
    """Each command that writes ``--out`` creates its directory; a path that
    cannot be written is one error line and exit code 2."""

    COMMANDS = ["reward", "cluster", "judge", "sweep", "correlation"]

    def argv(self, command, bench, tmp_path):
        """The command's arguments but ``--out``, with its inputs written."""
        if command == "reward":
            groups = tmp_path / "groups.jsonl"
            groups.write_text(json.dumps({"group_id": "g0", "rewards": [0.0, 1.0]}) + "\n",
                              encoding="utf-8")
            return ["reward", "--groups", str(groups)]
        if command == "cluster":
            assert main(["rollout", "--benchmark", str(bench), "--rounds", "1",
                         "--samples", "2", "--out-dir", str(tmp_path / "ro")]) == 0
            return ["cluster", "--rollouts", str(tmp_path / "ro" / "rollouts.jsonl")]
        if command == "judge":
            cases = tmp_path / "cases.jsonl"
            cases.write_text(json.dumps(TestJsonlInputErrors.CASE) + "\n", encoding="utf-8")
            return ["judge", "--cases", str(cases), "--rollouts", "2"]
        if command == "sweep":
            assert main(["soeval", "--benchmark", str(bench), "--mock-policy", "oracle",
                         "--out-dir", str(tmp_path / "live")]) == 0
            return ["sweep", "--benchmark", str(bench), "--mock-policy", "history-echo",
                    "--pool", str(tmp_path / "live" / "pool.jsonl"), "--grid", "2",
                    "--samples-per-pair", "1"]
        table = tmp_path / "corr.csv"
        table.write_text("online,em\n1,2\n2,1\n3,4\n4,3\n", encoding="utf-8")
        return ["stats", "correlation", "--csv", str(table)]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_directory_is_created(self, bench, tmp_path, command):
        out = tmp_path / "new" / "dir" / "out.csv"
        assert main([*self.argv(command, bench, tmp_path), "--out", str(out)]) == 0
        assert len(read_csv(out)) >= 1

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unwritable_path_is_one_error_line(self, bench, tmp_path, capsys, command):
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "out.csv"
        argv = self.argv(command, bench, tmp_path)
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"trajkit: error: {out}: "), err


class TestUsageErrors:
    """A command that lacks an input, or names an unknown mock policy, ends in
    one error line and exit code 2."""

    @pytest.mark.parametrize("argv, message", [
        (["eval"], "--out-dir is required"),
        (["rollout"], "--out-dir is required"),
        (["eval", "--out-dir", "{tmp}/run"], "no benchmark given (flag --benchmark or config key)"),
        (["eval", "--benchmark", "{bench}", "--mock-policy", "psychic", "--out-dir", "{tmp}/run"],
         "unknown mock policy 'psychic'; known: "),
        (["reward", "--out", "{tmp}/out.csv"], "reward needs --groups or --steps"),
    ], ids=["eval-out-dir", "rollout-out-dir", "benchmark", "mock-policy", "reward"])
    def test_is_one_error_line(self, bench, tmp_path, capsys, argv, message):
        argv = [a.format(tmp=tmp_path, bench=bench) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"trajkit: error: {message}"), err


class TestEndpointErrors:
    """An endpoint that gives no usable reply, or a screenshot gone since the
    episodes were loaded, ends a replay in one error line and exit code 2."""

    def test_refused_endpoint(self, bench, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        config = tmp_path / "no-retry.yaml"
        config.write_text("endpoint:\n  max_retries: 0\n", encoding="utf-8")
        assert main(["eval", "--benchmark", str(bench), "--backend", "http",
                     "--endpoint-url", f"http://127.0.0.1:{port}/v1", "--config", str(config),
                     "--out-dir", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("trajkit: error: "), err
        assert "refused" in err[0]

    def test_screenshot_gone_after_load(self, bench, tmp_path, capsys, chat_server,
                                        monkeypatch):
        from trajkit import settings

        load, gone = settings.episodes, []

        def load_then_remove(args, **kwargs):
            episodes = load(args, **kwargs)
            gone.append(episodes[0].steps[0].observation.screenshot_ref)
            os.remove(gone[0])
            return episodes

        monkeypatch.setattr(settings, "episodes", load_then_remove)
        assert main(["eval", "--benchmark", str(bench), "--backend", "http",
                     "--endpoint-url", chat_server.url, "--out-dir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"trajkit: error: screenshot not found: {gone[0]}"]
        assert chat_server.seen == []


class TestBadInputs:
    """A bad path, an endpoint that refuses, or a screenshot gone since the
    load ends in exit code 2 and one error line that names it, without a
    traceback."""

    # (argv, the words the error line holds). {missing} names no file, {file}
    # is a file, {dir} an empty directory, {run} a run dir holding a manifest,
    # {out} the directory of BLOCKED, and each key of CONFIGS a config file.
    INPUTS = {
        **{f"missing-benchmark-{command}": (argv, "{missing}: No such file or directory")
           for command, argv in {
               "eval": ["eval", "--benchmark", "{missing}", "--out-dir", "{tmp}/out"],
               "soeval": ["soeval", "--benchmark", "{missing}", "--out-dir", "{tmp}/out"],
               "rollout": ["rollout", "--benchmark", "{missing}", "--out-dir", "{tmp}/out"],
               "sweep": ["sweep", "--benchmark", "{missing}", "--pool", "{file}",
                         "--out", "{tmp}/sweep.csv"],
               "report": ["report", "--run-dir", "{run}", "--benchmark", "{missing}"],
               "ingest": ["ingest", "--benchmark", "{missing}"],
               "cluster": ["cluster", "--rollouts", "{file}", "--benchmark", "{missing}",
                           "--out", "{tmp}/cells.csv"],
           }.items()},
        "benchmark-is-a-dir": (["eval", "--benchmark", "{dir}", "--out-dir", "{tmp}/out"],
                               "{dir}: Is a directory"),
        "fixture-out-dir-is-a-file": (["make-fixture", "--out-dir", "{file}"],
                                      "{file}: File exists"),
        "run-dir-is-a-file": (["report", "--run-dir", "{file}"], "{file}: not a run dir"),
        "run-dir-missing": (["report", "--run-dir", "{missing}"], "{missing}: not a run dir"),
        "run-dir-empty": (["report", "--run-dir", "{dir}"], "{dir}: not a run dir"),
        "refused-endpoint": (["eval", "--benchmark", "{bench}", "--backend", "http",
                              "--endpoint-url", "{refused}", "--config", "{no_retry}",
                              "--out-dir", "{tmp}/out"],
                             "refused (POST {refused}/chat/completions)"),
        "screenshot-gone": (["eval", "--benchmark", "{bench}", "--backend", "http",
                             "--endpoint-url", "{served}", "--out-dir", "{tmp}/out"],
                            "screenshot not found: {gone}"),
        "out-dir-under-a-file": (["eval", "--benchmark", "{bench}", "--out-dir", "{file}/run"],
                                 "{file}/run: Not a directory"),
        **{f"out-dir-is-a-file-{command}": (
            [command, "--benchmark", "{bench}", "--out-dir", "{file}", *extra],
            "{file}: File exists")
           for command, extra in {"eval": [], "soeval": [], "ingest": [],
                                  "rollout": ["--rounds", "1", "--samples", "2"]}.items()},
        "records-is-a-dir-eval": (["eval", "--benchmark", "{bench}", "--out-dir", "{out}"],
                                  "{out}/records.jsonl: Is a directory"),
        "records-is-a-dir-report": (["report", "--run-dir", "{out}"],
                                    "{out}/records.jsonl: Is a directory"),
        "report-md-is-a-dir": (["report", "--run-dir", "{out}"],
                               "{out}/report.md: Is a directory"),
        "rollouts-is-a-dir": (["rollout", "--benchmark", "{bench}", "--out-dir", "{out}",
                               "--rounds", "1", "--samples", "2"],
                              "{out}/rollouts.jsonl: Is a directory"),
        "pool-is-a-dir-rollout": (["rollout", "--benchmark", "{bench}", "--out-dir", "{out}",
                                   "--rounds", "1", "--samples", "2"],
                                  "{out}/pool.jsonl: Is a directory"),
        "pool-is-a-dir-soeval": (["soeval", "--benchmark", "{bench}", "--out-dir", "{out}"],
                                 "{out}/pool.jsonl: Is a directory"),
        "ingest-json-is-a-dir": (["ingest", "--benchmark", "{bench}", "--out-dir", "{out}"],
                                 "{out}/ingest.json: Is a directory"),
        "config-missing": (["eval", "--benchmark", "{bench}", "--config", "{missing}",
                            "--out-dir", "{tmp}/out"], "{missing}: No such file or directory"),
        "config-a-list": (["eval", "--benchmark", "{bench}", "--config", "{a_list}",
                           "--out-dir", "{tmp}/out"], "{a_list}: not a mapping of settings"),
        "config-endpoint-a-number": (["eval", "--benchmark", "{bench}", "--config",
                                      "{endpoint_3}", "--out-dir", "{tmp}/out"],
                                     "{endpoint_3}: endpoint: not a mapping of settings"),
        "config-temperature-out-of-range": (["eval", "--benchmark", "{bench}", "--config",
                                             "{hot}", "--out-dir", "{tmp}/out"],
                                            "endpoint: temperature 3.0 outside [0, 2]"),
        "config-top-p-zero": (["eval", "--benchmark", "{bench}", "--config", "{no_mass}",
                               "--out-dir", "{tmp}/out"], "endpoint: top_p 0.0 outside (0, 1]"),
        "config-retries-negative": (["eval", "--benchmark", "{bench}", "--config",
                                     "{retries_below_0}", "--out-dir", "{tmp}/out"],
                                    "endpoint: max_retries must be >= 0"),
    }
    CONFIGS = {"no_retry": "endpoint:\n  max_retries: 0\n", "a_list": "- eval\n",
               "endpoint_3": "endpoint: 3\n", "hot": "endpoint: {temperature: 3}\n",
               "no_mass": "endpoint: {top_p: 0}\n",
               "retries_below_0": "endpoint: {max_retries: -1}\n"}
    # Cases whose {out} holds a directory where the command writes the named
    # file; when the flag is set, {out} is first a complete eval run dir.
    BLOCKED = {
        "records-is-a-dir-eval": (True, "records.jsonl"),
        "records-is-a-dir-report": (True, "records.jsonl"),
        "report-md-is-a-dir": (True, "report.md"),
        "rollouts-is-a-dir": (False, "rollouts.jsonl"),
        "pool-is-a-dir-rollout": (False, "pool.jsonl"),
        "pool-is-a-dir-soeval": (False, "pool.jsonl"),
        "ingest-json-is-a-dir": (False, "ingest.json"),
    }

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_is_one_error_line(self, bench, tmp_path, capsys, monkeypatch, request, name):
        from trajkit import settings

        argv, words = self.INPUTS[name]
        (tmp_path / "file").write_text("", encoding="utf-8")
        (tmp_path / "dir").mkdir()
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "manifest.json").write_text("{}", encoding="utf-8")
        out = tmp_path / "out"
        if name in self.BLOCKED:
            replayed, blocked = self.BLOCKED[name]
            if replayed:
                assert main(["eval", "--benchmark", str(bench), "--out-dir", str(out)]) == 0
                (out / blocked).unlink()
            (out / blocked).mkdir(parents=True)
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            refused = f"http://127.0.0.1:{sock.getsockname()[1]}/v1"
        names = {"tmp": tmp_path, "bench": bench, "missing": tmp_path / "missing",
                 "file": tmp_path / "file", "dir": tmp_path / "dir", "run": tmp_path / "run",
                 "out": out, "refused": refused,
                 "gone": bench.parent / "screens" / "screen_0.png"}
        for key, text in self.CONFIGS.items():
            names[key] = tmp_path / f"{key}.yaml"
            names[key].write_text(text, encoding="utf-8")
        if name == "screenshot-gone":
            names["served"] = request.getfixturevalue("chat_server").url
            load = settings.episodes

            def load_then_remove(args, **kwargs):
                episodes = load(args, **kwargs)
                os.remove(episodes[0].steps[0].observation.screenshot_ref)
                return episodes

            monkeypatch.setattr(settings, "episodes", load_then_remove)
        capsys.readouterr()
        assert main([a.format(**names) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.splitlines()[0]], err
        assert err.startswith("trajkit: error: ") and words.format(**names) in err, err
        assert "Traceback" not in err
        if name.startswith("pool-is-a-dir"):
            # Refused before the first request: no record was written.
            assert not (out / "records.jsonl").exists()
            rollouts = out / "rollouts.jsonl"
            assert not rollouts.exists() or rollouts.read_bytes() == b""

    @pytest.mark.parametrize("command", ["soeval", "rollout"])
    def test_failed_replay_leaves_the_pool_file_as_it_was(self, bench, tmp_path, capsys,
                                                           monkeypatch, command):
        out = tmp_path / "out"
        out.mkdir()
        (out / "pool.jsonl").write_bytes(b"an earlier pool\n")
        config = tmp_path / "no_retry.yaml"
        config.write_text(self.CONFIGS["no_retry"], encoding="utf-8")
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            refused = f"http://127.0.0.1:{sock.getsockname()[1]}/v1"
        assert main([command, "--benchmark", str(bench), "--backend", "http",
                     "--endpoint-url", refused, "--config", str(config),
                     "--out-dir", str(out)]) == 2
        assert "refused" in capsys.readouterr().err
        assert (out / "pool.jsonl").read_bytes() == b"an earlier pool\n"


class TestPoolContinueOnError:
    def test_failing_episode_left_resumable(self, bench, tmp_path, monkeypatch):
        import trajkit.commands.replay as replay_cmds

        live = tmp_path / "live"
        assert main(["soeval", "--benchmark", str(bench), "--backend", "mock",
                     "--mock-policy", "oracle", "--out-dir", str(live)]) == 0

        real_backend = replay_cmds._backend

        def failing_backend(args, episodes, dialect):
            backend = real_backend(args, episodes, dialect)
            respond = backend.responder

            def responder(request, seed, n):
                if request.tag == "ep001/2":
                    raise RuntimeError("endpoint fell over")
                return respond(request, seed, n)

            backend.responder = responder
            return backend

        out = tmp_path / "pooled"
        args = ["soeval", "--benchmark", str(bench), "--mode", "pool",
                "--pool", str(live / "pool.jsonl"), "--backend", "mock",
                "--mock-policy", "oracle", "--out-dir", str(out)]
        monkeypatch.setattr(replay_cmds, "_backend", failing_backend)
        assert main([*args, "--continue-on-error"]) == 0
        keys = [json.loads(line)["key"]
                for line in (out / "records.jsonl").read_text(encoding="utf-8").splitlines()]
        assert keys == [f"ep000/{i}" for i in range(4)] + ["ep001/0", "ep001/1"] + \
            [f"ep002/{i}" for i in range(4)]

        monkeypatch.setattr(replay_cmds, "_backend", real_backend)
        assert main(args) == 0
        resumed = [json.loads(line)["key"]
                   for line in (out / "records.jsonl").read_text(encoding="utf-8").splitlines()]
        # The resumed steps are appended last, then the file is put in
        # canonical order: episode, round, step, sample.
        assert resumed == [f"ep{e:03d}/{i}" for e in range(3) for i in range(4)]


class TestEmptyReport:
    """A replay or run dir with no complete episode ends in one error line."""

    @pytest.fixture
    def failing_at(self, monkeypatch):
        """Make every mock backend raise from the given step index on."""
        import trajkit.commands.replay as replay_cmds

        real_backend = replay_cmds._backend

        def install(first_failing_step):
            def failing_backend(args, episodes, dialect):
                backend = real_backend(args, episodes, dialect)
                respond = backend.responder

                def responder(request, seed, n):
                    if int(request.tag.split("/")[1]) >= first_failing_step:
                        raise RuntimeError("endpoint fell over")
                    return respond(request, seed, n)

                backend.responder = responder
                return backend

            monkeypatch.setattr(replay_cmds, "_backend", failing_backend)

        return install

    @staticmethod
    def assert_one_error_line(err, match):
        errors = [line for line in err.splitlines() if line.startswith("trajkit: error: ")]
        assert len(errors) == 1 and match in errors[0], err
        assert "EmptyReportError" not in err

    @pytest.mark.parametrize("command", ["eval", "soeval"])
    def test_every_episode_failing(self, tmp_path, capsys, failing_at, command):
        synth.make_benchmark_file(tmp_path / "bench", n_episodes=2, steps_per_episode=3)
        out = tmp_path / "run"
        args = [command, "--benchmark", str(tmp_path / "bench" / "episodes.jsonl"),
                "--backend", "mock", "--mock-policy", "oracle", "--out-dir", str(out)]
        failing_at(0)
        assert main([*args, "--continue-on-error"]) == 2
        self.assert_one_error_line(capsys.readouterr().err, "no complete episode")
        assert not (out / "records.jsonl").exists()
        assert json.loads((out / "manifest.json").read_text())["mode"] == \
            ("offline" if command == "eval" else "live")
        assert main(["report", "--run-dir", str(out)]) == 2
        self.assert_one_error_line(capsys.readouterr().err, "no complete episode")

        failing_at(99)
        assert main(args) == 0
        assert len((out / "records.jsonl").read_bytes().splitlines()) == 6

    def test_report_without_complete_episode(self, tmp_path, capsys, failing_at):
        synth.make_benchmark_file(tmp_path / "bench", n_episodes=2, steps_per_episode=3)
        bench = str(tmp_path / "bench" / "episodes.jsonl")
        out = tmp_path / "run"
        args = ["eval", "--benchmark", bench, "--backend", "mock",
                "--mock-policy", "oracle", "--out-dir", str(out)]
        failing_at(2)
        assert main([*args, "--continue-on-error"]) == 2
        capsys.readouterr()
        records = (out / "records.jsonl").read_bytes()
        assert len(records.splitlines()) == 4

        assert main(["report", "--run-dir", str(out), "--benchmark", bench]) == 2
        self.assert_one_error_line(capsys.readouterr().err, "no complete episode")
        assert (out / "records.jsonl").read_bytes() == records

        failing_at(99)
        assert main(args) == 0
        # Each episode's third step is appended on resume; the file ends in
        # canonical order, as an uninterrupted run writes it.
        fresh = tmp_path / "fresh"
        assert main([*args[:-1], str(fresh)]) == 0
        assert (out / "records.jsonl").read_bytes() == (fresh / "records.jsonl").read_bytes()


class TestCorrelationUnusableColumn:
    def write(self, tmp_path, header, rows):
        table = tmp_path / "corr.csv"
        with open(table, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return table

    def test_constant_and_short_columns_are_skipped(self, tmp_path, capsys):
        rows = [[1, 5, 0.1, 0.2], [2, 5, "-", 0.1], [3, 5, "-", 0.4], [4, 5, 0.4, 0.3]]
        table = self.write(tmp_path, ["m", "positions", "short", "online"], rows)
        out = tmp_path / "out.csv"
        assert main(["stats", "correlation", "--csv", str(table), "--out", str(out)]) == 0
        printed = capsys.readouterr()
        assert [r["metric"] for r in read_csv(out)] == ["m"]
        assert printed.out.startswith("m: rho=")
        err = printed.err.splitlines()
        assert "warning: positions: skipped (constant series)" in err
        assert "warning: short: skipped (need at least 3 points)" in err

    def test_no_usable_column_is_one_line_error(self, tmp_path):
        table = self.write(tmp_path, ["positions", "online"],
                           [[5, 0.1], [5, 0.2], [5, 0.4], [5, 0.3]])
        out = tmp_path / "out.csv"
        proc = run_cli(["stats", "correlation", "--csv", str(table), "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert lines[-1].startswith("trajkit: error: ")
        assert "no column" in lines[-1]
        assert not out.exists()


class TestCorrelationUnreadableCsv:
    @pytest.mark.parametrize("content, reason", [
        (b"\x80\xff" * 150, ":1: 'utf-8' codec can't decode byte 0x80: invalid start byte"),
        (b"m,online\n1,2\n3,\xff4\n", ":3: 'utf-8' codec can't decode byte 0xff: "
                                        "invalid start byte"),
        (None, ": No such file or directory"),
    ], ids=["binary", "third-line", "missing"])
    def test_is_one_error_line_naming_the_file(self, tmp_path, capsys, content, reason):
        table = tmp_path / "corr.csv"
        if content is not None:
            table.write_bytes(content)
        out = tmp_path / "out.csv"
        assert main(["stats", "correlation", "--csv", str(table), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"trajkit: error: {table}{reason}"]
        assert not out.exists()


class TestJsonlInputErrors:
    """A bad line in a JSONL input is one error line naming the file and line."""

    CASE = {"case_id": "c0", "instruction": "tap it", "reasoning_trace": "tap it",
            "executed_kind": "CLICK", "executed_params": {"point": [200, 300]}}
    STEP = {"gt_kind": "CLICK", "gt_params": {"point": [150, 150]}}

    # (command, file flag, a good line, the bad line, words of the reason)
    INPUTS = {
        "pool": (["soeval", "--mode", "pool"], "--pool",
                 {"key": "ep000/0", "kind": "STOP", "params": {}}, "{not json", "Expecting"),
        "rollouts": (["cluster"], "--rollouts", None, "[1, 2]", "not a JSON object"),
        "cases": (["judge", "--rollouts", "2"], "--cases", CASE,
                  {"case_id": "c1", "reasoning_trace": "x"}, "missing field 'instruction'"),
        "case-dims": (["judge", "--rollouts", "2"], "--cases", CASE,
                      {**CASE, "case_id": "c1", "img_w": "nan"}, "not finite"),
        "groups": (["reward"], "--groups", {"group_id": "g0", "rewards": [0.0, 1.0]},
                   {"group_id": "g1"}, "missing field 'rewards'"),
        "steps": (["reward"], "--steps", STEP, {**STEP, "gt_bbox": {"x1": 1}},
                  "malformed gt_bbox"),
        # 300 bytes that are not UTF-8 and hold no line break.
        "binary": (["reward"], "--groups", {"group_id": "g0", "rewards": [0.0, 1.0]},
                   b"\x80\xff" * 150, "can't decode byte 0x80"),
    }

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_bad_line_is_one_error_line(self, bench, tmp_path, capsys, name):
        command, flag, good, bad, reason = self.INPUTS[name]
        path = tmp_path / f"{name}.jsonl"
        lines = [b"" if good is None else json.dumps(good).encode(), b"",
                 bad if isinstance(bad, bytes) else
                 (bad if isinstance(bad, str) else json.dumps(bad)).encode()]
        path.write_bytes(b"\n".join(lines) + b"\n")
        args = [*command, flag, str(path)]
        if name == "pool":
            args += ["--benchmark", str(bench), "--out-dir", str(tmp_path / "run")]
        else:
            args += ["--out", str(tmp_path / "out.csv")]
        assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [err[0]] and err[0].startswith(f"trajkit: error: {path}:3: "), err
        assert reason in err[0]
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command, flag", [
        (["judge"], "--cases"), (["reward"], "--groups"), (["reward"], "--steps"),
        (["cluster"], "--rollouts")], ids=["cases", "groups", "steps", "rollouts"])
    def test_missing_file_is_one_error_line(self, tmp_path, capsys, command, flag):
        path = tmp_path / "nope.jsonl"
        assert main([*command, flag, str(path), "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"trajkit: error: {path}: No such file or directory"]
        assert not (tmp_path / "out.csv").exists()
