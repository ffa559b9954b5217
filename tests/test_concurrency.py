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
def test_interrupted_parallel_replay_resumes_byte_identical(serial, bench, monkeypatch, capsys,
                                                            command):
    files, server, runs = serial
    out = runs / "cut-k8"
    args = args_for(command, bench, server, 8, out)
    monkeypatch.setattr(server, "fail", {"ep001/2", "ep005/1"})
    assert main(args) == 2
    assert "trajkit: error: HTTP 400: step refused" in capsys.readouterr().err
    cut = keys(out / command)
    assert 0 < len(cut) < 32
    assert cut == canonical(cut)

    server.fail = set()
    assert main(args) == 0
    assert run_files(out / command) == files[command]


def test_ctrl_c_stops_parallel_replay_at_the_next_step(serial, bench, monkeypatch):
    """SIGINT while ep000's second step is on the wire: the episodes in
    flight stop after the step they are in, instead of running to their
    end, and the run resumes to a serial run's bytes. At ``--concurrency 2``
    three episodes are in flight, one more than the request slots."""
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
    # ep000, ep001 and ep002 were in flight. Each stops after the step it is
    # in, so together they leave fewer than two episodes run to their end (8).
    assert [k.split("/")[1] for k in cut if k.startswith("ep000/")] == ["0", "1"]
    assert len(cut) < 8
    assert cut == canonical(cut)

    interrupted.append(True)
    assert main(args) == 0
    assert run_files(out / "eval") == files["eval"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_open_connections_never_exceed_request_slots(serial, bench, step_server, k):
    """k + 1 episodes (or rollout jobs) run under k request slots, and two
    steps' first requests get a 503: while a request backs off, another
    step's request goes out; the server never sees more than k requests or
    connections at once; and the files are a serial run's."""
    files, _, runs = serial
    out = runs / f"busy-k{k}"
    for command in COMMANDS:
        server = step_server(bench)
        server.busy = {"ep001/2", "ep004/0"}
        assert main(args_for(command, bench, server, k, out)) == 0
        rounds = 2 if command == "rollout" else 1
        assert server.busy_replies == 2 * rounds, command
        assert server.requests == (32 + 2) * rounds, command
        for asked in set(server.arrivals):
            if asked[0] in server.busy:
                busy, retry = [i for i, a in enumerate(server.arrivals) if a == asked]
                assert retry > busy + 1, (command, asked)
        assert server.max_in_flight == k, command
        assert server.max_open_connections <= k, command
        assert run_files(out / command) == files[command], command


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
