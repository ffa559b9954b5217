"""``trajkit report`` re-derives a run's report from its records.

After each replay (offline, live, pool, a file that mixes two source
benchmarks, a ``--continue-on-error`` run with an incomplete episode, a run
under ground-truth exclusions), ``report --benchmark`` must leave the run
dir's ``report.csv``, ``report.md`` and ``horizon.csv`` byte-identical and
print the lines the replay printed.
"""

import csv
import json

import pytest

import trajkit.commands.replay as replay_cmds
from trajkit import synth
from trajkit.cli import main

REPORT_FILES = ("report.csv", "report.md", "horizon.csv")


@pytest.fixture
def bench(tmp_path):
    return synth.make_benchmark_file(tmp_path / "bench", n_episodes=6, steps_per_episode=5,
                                     seed=2)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def replay_then_report(capsys, bench, out, argv):
    """Run the replay, then ``report``; returns the replay's printed lines."""
    assert main([*argv, "--benchmark", str(bench), "--backend", "mock",
                 "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    written = {name: (out / name).read_bytes() for name in REPORT_FILES}
    assert main(["report", "--run-dir", str(out), "--benchmark", str(bench)]) == 0
    reported = capsys.readouterr().out.splitlines()
    assert {name: (out / name).read_bytes() for name in REPORT_FILES} == written
    assert reported[:len(printed)] == printed
    assert reported[len(printed)] == "| steps | scored | type | exact |"
    return printed


@pytest.mark.parametrize("mode", ["offline", "live", "pool"])
def test_report_reproduces_each_replay_mode(bench, tmp_path, capsys, mode):
    argv = ["eval", "--mock-policy", "alternating"]
    if mode == "live":
        argv = ["soeval", "--mode", "live", "--mock-policy", "alternating"]
    elif mode == "pool":
        live = tmp_path / "live"
        assert main(["soeval", "--benchmark", str(bench), "--backend", "mock",
                     "--mock-policy", "alternating", "--out-dir", str(live)]) == 0
        capsys.readouterr()
        argv = ["soeval", "--mode", "pool", "--pool", str(live / "pool.jsonl"),
                "--mock-policy", "history-echo"]
    printed = replay_then_report(capsys, bench, tmp_path / "run", argv)
    assert printed[-1].startswith("steps: 30  exact: ")
    assert "progress: None" not in printed[-1]
    assert [line.startswith("OSR: ") for line in printed[:-1]] == \
        ([] if mode == "offline" else [True])
    row, = read_rows(tmp_path / "run" / "report.csv")
    assert row["progress"] and row["success_rate"]


def test_report_keeps_one_row_per_source_benchmark(bench, tmp_path, capsys):
    lines = bench.read_text(encoding="utf-8").splitlines()
    mixed = []
    for line in lines:
        rec = json.loads(line)
        if rec["episode_id"] < "ep003":
            rec["benchmark"] = "other"
        mixed.append(json.dumps(rec))
    bench.write_text("\n".join(mixed) + "\n", encoding="utf-8")
    replay_then_report(capsys, bench, tmp_path / "run",
                       ["eval", "--mock-policy", "alternating"])
    rows = read_rows(tmp_path / "run" / "report.csv")
    assert [(r["benchmark"], r["episodes"]) for r in rows] == \
        [("other", "3"), ("synthetic", "3")]


def test_report_leaves_out_an_incomplete_episode(bench, tmp_path, capsys, monkeypatch):
    real_backend = replay_cmds._backend

    def failing_backend(args, episodes, dialect):
        backend = real_backend(args, episodes, dialect)
        respond = backend.responder

        def responder(request, seed, n):
            if request.tag == "ep001/3":
                raise RuntimeError("endpoint fell over")
            return respond(request, seed, n)

        backend.responder = responder
        return backend

    monkeypatch.setattr(replay_cmds, "_backend", failing_backend)
    out = tmp_path / "run"
    printed = replay_then_report(capsys, bench, out,
                                 ["eval", "--mock-policy", "alternating",
                                  "--continue-on-error"])
    assert len((out / "records.jsonl").read_text(encoding="utf-8").splitlines()) == 28
    assert printed[-1].startswith("steps: 25  ")
    row, = read_rows(out / "report.csv")
    assert (row["episodes"], row["steps"]) == ("5", "25")
    horizon = read_rows(out / "horizon.csv")
    assert sum(int(r["n"]) for r in horizon if r["table"] == "step_index") == 25


def test_report_scores_under_the_runs_policy(bench, tmp_path, capsys):
    out = tmp_path / "run"
    replay_then_report(capsys, bench, out,
                       ["eval", "--mock-policy", "alternating",
                        "--exclude-gt-kinds", "OPEN,CLICK", "--min-comparable", "0.5"])
    row, = read_rows(out / "report.csv")
    assert int(row["steps"]) < 30
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert (manifest["exclude_gt_kinds"], manifest["min_comparable"]) == \
        (["CLICK", "OPEN"], 0.5)


def test_report_config_policy_overrides_the_manifest(bench, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["eval", "--benchmark", str(bench), "--backend", "mock",
                 "--mock-policy", "alternating", "--exclude-gt-kinds", "OPEN,CLICK",
                 "--out-dir", str(out)]) == 0
    config = tmp_path / "policy.yaml"
    config.write_text("policy:\n  exclude_gt_kinds: []\n", encoding="utf-8")
    assert main(["report", "--run-dir", str(out), "--benchmark", str(bench),
                 "--config", str(config)]) == 0
    row, = read_rows(out / "report.csv")
    assert row["steps"] == "30"


def test_report_on_a_manifest_without_policy_uses_the_default(bench, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["eval", "--benchmark", str(bench), "--backend", "mock",
                 "--mock-policy", "alternating", "--exclude-gt-kinds", "OPEN,CLICK",
                 "--out-dir", str(out)]) == 0
    path = out / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["exclude_gt_kinds"], manifest["min_comparable"]
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["report", "--run-dir", str(out), "--benchmark", str(bench)]) == 0
    row, = read_rows(out / "report.csv")
    assert row["steps"] == "30"


def test_report_without_benchmark_prints_progress_but_no_success(bench, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["eval", "--benchmark", str(bench), "--backend", "mock",
                 "--mock-policy", "alternating", "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert main(["report", "--run-dir", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == printed[-1]
    row, = read_rows(out / "report.csv")
    assert row["progress"] and not row["success_rate"]


def test_report_takes_no_episode_limit(bench, tmp_path, capsys):
    """``report`` scores every record, so it reads every episode's ground
    truth; an episode limit left the other episodes' excluded kinds in."""
    out = tmp_path / "run"
    replay_then_report(capsys, bench, out,
                       ["eval", "--mock-policy", "alternating", "--exclude-gt-kinds", "CLICK"])
    written = (out / "report.csv").read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["report", "--run-dir", str(out), "--benchmark", str(bench),
              "--limit-episodes", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --limit-episodes 1" in capsys.readouterr().err
    assert (out / "report.csv").read_bytes() == written
