import csv
import json
import os
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
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["completed"]) == 12

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

    def test_pool_mode_requires_pool(self, bench, tmp_path):
        with pytest.raises(SystemExit):
            main(["soeval", "--benchmark", str(bench), "--mode", "pool",
                  "--backend", "mock", "--out-dir", str(tmp_path / "x")])


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
        import trajkit.cli as cli

        real_backend = cli._backend

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
        monkeypatch.setattr(cli, "_backend", interrupting_backend)
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
        import trajkit.cli as cli

        bench = synth.make_benchmark_file(tmp_path / "bench", n_episodes=2,
                                          steps_per_episode=3, seed=1)
        live = tmp_path / "live"
        assert main(["soeval", "--benchmark", str(bench), "--backend", "mock",
                     "--mock-policy", "oracle", "--out-dir", str(live)]) == 0
        real_backend = cli._backend
        thinking = []

        def spying_backend(args, episodes, dialect):
            backend = real_backend(args, episodes, dialect)
            respond = backend.responder

            def responder(request, seed, n):
                thinking.append(request.enable_thinking)
                return respond(request, seed, n)

            backend.responder = responder
            return backend

        monkeypatch.setattr(cli, "_backend", spying_backend)
        assert main(["sweep", "--benchmark", str(bench), "--backend", "mock",
                     "--mock-policy", "history-echo", "--pool", str(live / "pool.jsonl"),
                     "--grid", "2", "--samples-per-pair", "1", "--no-thinking",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert len(thinking) == 24
        assert not any(thinking)


class TestPoolContinueOnError:
    def test_failing_episode_left_resumable(self, bench, tmp_path, monkeypatch):
        import trajkit.cli as cli

        live = tmp_path / "live"
        assert main(["soeval", "--benchmark", str(bench), "--backend", "mock",
                     "--mock-policy", "oracle", "--out-dir", str(live)]) == 0

        real_backend = cli._backend

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
        monkeypatch.setattr(cli, "_backend", failing_backend)
        assert main([*args, "--continue-on-error"]) == 0
        keys = [json.loads(line)["key"]
                for line in (out / "records.jsonl").read_text(encoding="utf-8").splitlines()]
        assert keys == [f"ep000/{i}" for i in range(4)] + ["ep001/0", "ep001/1"] + \
            [f"ep002/{i}" for i in range(4)]

        monkeypatch.setattr(cli, "_backend", real_backend)
        assert main(args) == 0
        resumed = [json.loads(line)["key"]
                   for line in (out / "records.jsonl").read_text(encoding="utf-8").splitlines()]
        assert resumed == keys + ["ep001/2", "ep001/3"]


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
