"""``rollout`` and ``sweep`` under the in-process mock run their jobs on
worker processes, and leave what a serial run leaves; over HTTP they stay
on threads. ``map_in_order``'s process path keeps item order, reports a
failing call, and reaps its workers however it ends.
"""

import multiprocessing
import os
import signal
import time

import pytest

from trajkit import synth
from trajkit.cli import main
from trajkit.evaluate import map_in_order


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    synth.make_benchmark_file(root, n_episodes=8, steps_per_episode=4, seed=5)
    return root / "episodes.jsonl"


def job_args(command, bench, pool, out, backend="mock"):
    """A ``sweep`` or ``rollout`` writing into ``out``; its mock policy is
    ignored over HTTP."""
    common = ["--benchmark", str(bench), "--backend", backend]
    return {
        "sweep": ["sweep", *common, "--mock-policy", "history-echo", "--pool", str(pool),
                  "--grid", "2", "--samples-per-pair", "2", "--out", str(out / "sweep.csv")],
        "rollout": ["rollout", *common, "--mock-policy", "noisy-oracle", "--rounds", "2",
                    "--samples", "3", "--out-dir", str(out / "rollout")],
    }[command]


def mock_files(out):
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def mock_serial(bench, tmp_path_factory):
    """The pool a mock live replay left, and the files a serial sweep and
    rollout wrote from it."""
    root = tmp_path_factory.mktemp("mock")
    assert main(["soeval", "--benchmark", str(bench), "--mock-policy", "alternating",
                 "--out-dir", str(root / "live")]) == 0
    pool = root / "live" / "pool.jsonl"
    out = root / "serial"
    for command in ("sweep", "rollout"):
        assert main([*job_args(command, bench, pool, out), "--concurrency", "1"]) == 0
    return pool, mock_files(out)


@pytest.fixture
def pids(monkeypatch, tmp_path):
    """Pops the ids of the processes that answered the mock's requests
    since the last pop, from a file that every worker process appends to."""
    import trajkit.commands.replay as replay_cmds

    log = tmp_path / "pids.txt"
    real_backend = replay_cmds._backend

    def logging_backend(*args):
        backend = real_backend(*args)
        respond = backend.responder

        def responder(request, seed, n):
            with log.open("a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return respond(request, seed, n)

        backend.responder = responder
        return backend

    def pop():
        seen = set(log.read_text(encoding="utf-8").split())
        log.unlink()
        return seen

    monkeypatch.setattr(replay_cmds, "_backend", logging_backend)
    return pop


def test_mock_serial_run_is_a_real_test(mock_serial):
    _, files = mock_serial
    assert set(files) == {"sweep.csv", "rollout/rollouts.jsonl", "rollout/pool.jsonl"}
    assert len(files["sweep.csv"].splitlines()) == 9
    assert len(set(files["sweep.csv"].splitlines()[1:])) == 8
    assert files["rollout/pool.jsonl"]


@pytest.mark.parametrize("flag", [["--concurrency", "2"], ["--concurrency", "4"], []],
                         ids=["2", "4", "unset"])
def test_worker_processes_write_the_serial_bytes(mock_serial, bench, tmp_path, pids, flag):
    pool, files = mock_serial
    workers = int(flag[1]) if flag else len(os.sched_getaffinity(0))
    for command in ("sweep", "rollout"):
        assert main([*job_args(command, bench, pool, tmp_path / "out"), *flag]) == 0
        answered = pids()
        assert 1 <= len(answered) <= workers
        if workers > 1:
            assert os.getpid() not in answered
    assert mock_files(tmp_path / "out") == files


@pytest.mark.parametrize("command", ["sweep", "rollout"])
def test_a_failing_job_fails_as_in_a_serial_run(mock_serial, bench, tmp_path, monkeypatch,
                                                command):
    """One sweep setting, or one rollout step, raises: the command ends in the
    serial run's error, and no worker process is left."""
    import trajkit.commands.replay as replay_cmds
    import trajkit.semionline as semionline

    run_setting = semionline.run_sweep_setting

    def failing_setting(setting, *args, **kwargs):
        if setting.index == 5:
            raise ValueError("setting 5 failed")
        return run_setting(setting, *args, **kwargs)

    real_backend = replay_cmds._backend

    def failing_backend(*args):
        backend = real_backend(*args)
        respond = backend.responder

        def responder(request, seed, n):
            if request.tag == "ep006/2":
                raise KeyError(f"no answer for {request.tag}")
            return respond(request, seed, n)

        backend.responder = responder
        return backend

    if command == "sweep":
        monkeypatch.setattr(semionline, "run_sweep_setting", failing_setting)
    else:
        monkeypatch.setattr(replay_cmds, "_backend", failing_backend)
    pool, _ = mock_serial
    errors = []
    for k in ("1", "2", "4"):
        with pytest.raises((ValueError, KeyError)) as exc:
            main([*job_args(command, bench, pool, tmp_path / k), "--concurrency", k])
        errors.append((exc.type, str(exc.value)))
        assert multiprocessing.active_children() == []
    assert errors == [errors[0]] * 3
    assert errors[0] == ((ValueError, "setting 5 failed") if command == "sweep" else
                         (KeyError, "'no answer for ep006/2'"))


@pytest.mark.parametrize("command", ["sweep", "rollout"])
def test_http_jobs_run_on_threads(mock_serial, bench, tmp_path, step_server, monkeypatch,
                                  command):
    """Over HTTP each job waits on the network: up to ``--concurrency`` of
    them run on threads of this process, never on worker processes."""
    from trajkit.gateway import HttpBackend

    pool, _ = mock_serial
    server = step_server(bench)
    callers = []
    complete = HttpBackend.complete

    def recorded(self, request, cfg):
        callers.append(os.getpid())
        return complete(self, request, cfg)

    monkeypatch.setattr(HttpBackend, "complete", recorded)
    assert main([*job_args(command, bench, pool, tmp_path, backend="http"),
                 "--endpoint-url", server.url, "--concurrency", "3"]) == 0
    assert callers == [os.getpid()] * server.requests
    assert server.max_in_flight == 3
    assert server.max_open_connections <= 3


def square_after(item):
    """``item`` squared, after a sleep that makes later items finish first."""
    time.sleep(0.01 * (8 - item))
    return item * item


def test_process_results_come_back_in_item_order():
    assert list(map_in_order(square_after, range(8), 4, processes=True)) == [
        i * i for i in range(8)]


def sigint_handler(_):
    return signal.getsignal(signal.SIGINT)


def test_workers_leave_ctrl_c_to_the_parent():
    assert list(map_in_order(sigint_handler, range(2), 2, processes=True)) == [
        signal.SIG_IGN] * 2


def test_early_stop_kills_the_workers():
    results = map_in_order(time.sleep, [0.0, 30.0, 30.0, 30.0], 3, processes=True)
    started = time.monotonic()
    assert next(results) is None
    results.close()
    assert multiprocessing.active_children() == []
    assert time.monotonic() - started < 10


def interrupt_the_parent_then_sleep(item):
    if item == 0:
        os.kill(os.getppid(), signal.SIGINT)
    time.sleep(30)


def test_ctrl_c_kills_the_workers():
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        list(map_in_order(interrupt_the_parent_then_sleep, range(2), 2, processes=True))
    assert multiprocessing.active_children() == []
    assert time.monotonic() - started < 10


def test_without_fork_the_jobs_run_in_this_process(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert list(map_in_order(lambda _: os.getpid(), range(3), 2, processes=True)) == [
        os.getpid()] * 3
