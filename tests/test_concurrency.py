"""Episodes replayed in parallel over HTTP leave what a serial replay leaves.

Every command runs against ``StepServer``, which answers each step after a
jittered delay, so parallel episodes finish in a different order each run.
"""

import json
import signal
import threading

import pytest

from conftest import StepServer
from trajkit import synth
from trajkit.cli import main
from trajkit.gateway import EndpointUnavailableError

COMMANDS = ("eval", "live", "pool", "rollout")


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    synth.make_benchmark_file(root, n_episodes=8, steps_per_episode=4, seed=5)
    return root / "episodes.jsonl"


def args_for(command, bench, server, k, out):
    """The CLI arguments of one replay command, writing into ``out/command``."""
    common = ["--benchmark", str(bench), "--backend", "http", "--endpoint-url", server.url,
              "--concurrency", str(k), "--out-dir", str(out / command)]
    return {
        "eval": ["eval", *common],
        "live": ["soeval", *common, "--mode", "live"],
        # Every pooled run draws from the same pool, the serial live run's.
        "pool": ["soeval", *common, "--mode", "pool",
                 "--pool", str(out.parent / "serial" / "live" / "pool.jsonl")],
        "rollout": ["rollout", *common, "--rounds", "2", "--samples", "3"],
    }[command]


def run_files(run_dir):
    return {path.name: path.read_bytes() for path in sorted(run_dir.iterdir())}


def keys(run_dir):
    return [json.loads(line)["key"]
            for line in (run_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()]


def canonical(run_keys):
    def rank(key):
        episode, step = key.split("/")[:2]
        return episode, int(step)

    return sorted(run_keys, key=rank)


@pytest.fixture(scope="module")
def serial(bench, tmp_path_factory):
    """Each command's files from a serial replay, and the server it ran against."""
    out = tmp_path_factory.mktemp("runs") / "serial"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("no_proxy", "127.0.0.1")
        server = StepServer(bench, "xml-toolcall")
        try:
            files = {}
            for command in COMMANDS:
                assert main(args_for(command, bench, server, 1, out)) == 0
                files[command] = run_files(out / command)
            yield files, server, out.parent
        finally:
            server.close()


def test_serial_run_is_a_real_test(serial):
    """The fixture mixes right and wrong answers, so live history differs
    from the reference, and the records, reports and pools exist."""
    files, _, _ = serial
    assert set(files["eval"]) >= {"records.jsonl", "report.csv", "report.md",
                                  "horizon.csv", "manifest.json"}
    assert "pool.jsonl" in files["live"] and "rollouts.jsonl" in files["rollout"]
    assert files["eval"]["records.jsonl"] != files["live"]["records.jsonl"]
    exact = [json.loads(line)["evaluation"]["exact_match"]
             for line in files["eval"]["records.jsonl"].splitlines()]
    assert 0 < sum(exact) < len(exact)


@pytest.mark.parametrize("k", [2, 8])
def test_parallel_replays_are_byte_identical(serial, bench, k):
    files, server, runs = serial
    out = runs / f"k{k}"
    for command in COMMANDS:
        assert main(args_for(command, bench, server, k, out)) == 0
        assert run_files(out / command) == files[command], command


@pytest.mark.parametrize("command", ["eval", "live", "pool"])
def test_interrupted_parallel_replay_resumes_byte_identical(serial, bench, monkeypatch,
                                                            command):
    files, server, runs = serial
    out = runs / "cut-k8"
    args = args_for(command, bench, server, 8, out)
    monkeypatch.setattr(server, "fail", {"ep001/2", "ep005/1"})
    with pytest.raises(EndpointUnavailableError, match="step refused"):
        main(args)
    cut = keys(out / command)
    assert 0 < len(cut) < 32
    assert cut == canonical(cut)

    server.fail = set()
    assert main(args) == 0
    assert run_files(out / command) == files[command]


def test_ctrl_c_stops_parallel_replay_at_the_next_step(serial, bench, monkeypatch):
    """SIGINT while ep000's second step is on the wire: the episodes in
    flight stop after the step they are in, instead of running to their
    end, and the run resumes to a serial run's bytes."""
    files, server, runs = serial
    out = runs / "ctrl-c-k2"
    args = args_for("eval", bench, server, 2, out)
    reply = server.reply
    main_thread = threading.main_thread().ident

    def interrupt_once(handler, body):
        if b"step 1 of task 0" in body and not interrupted:
            interrupted.append(True)
            signal.pthread_kill(main_thread, signal.SIGINT)
        return reply(handler, body)

    interrupted = []
    monkeypatch.setattr(server, "reply", interrupt_once)
    with pytest.raises(KeyboardInterrupt):
        main(args)
    cut = keys(out / "eval")
    # ep000 and ep001 were in flight; run to their end they leave 8 records.
    assert [k.split("/")[1] for k in cut if k.startswith("ep000/")] == ["0", "1"]
    assert len(cut) < 8
    assert cut == canonical(cut)

    interrupted.append(True)
    assert main(args) == 0
    assert run_files(out / "eval") == files["eval"]


@pytest.mark.parametrize("k", [2, 3])
def test_open_connections_never_exceed_episodes_in_flight(bench, tmp_path, step_server, k):
    server = step_server(bench)
    assert main(args_for("eval", bench, server, k, tmp_path)) == 0
    assert server.requests == 32
    assert server.max_in_flight == k
    assert server.max_open_connections <= k


def test_mock_backend_replays_serially(bench, tmp_path, monkeypatch):
    import trajkit.commands.replay as replay_cmds

    backends = []
    real_backend = replay_cmds._backend

    def recorded(*args):
        backends.append(real_backend(*args))
        return backends[-1]

    monkeypatch.setattr(replay_cmds, "_backend", recorded)
    assert main(["eval", "--benchmark", str(bench), "--concurrency", "8",
                 "--out-dir", str(tmp_path / "run")]) == 0
    assert backends[0].calls == 32 and backends[0].max_in_flight_seen == 1
