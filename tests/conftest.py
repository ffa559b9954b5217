import json
import multiprocessing
import random
import re
import socket
import struct
import threading
import time

import pytest

from trajkit import synth
from trajkit.dialects import get_dialect
from trajkit.gateway import EndpointConfig, MockBackend, ModelGateway, SamplingConfig


@pytest.fixture(autouse=True)
def no_leaked_processes():
    """A worker process that outlives the test that started it fails that test."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def xml_dialect():
    return get_dialect("xml-toolcall")


@pytest.fixture(scope="session")
def ta_dialect():
    return get_dialect("thought-action")


@pytest.fixture(scope="session")
def json_dialect():
    return get_dialect("plain-json")


@pytest.fixture
def benchmark_dir(tmp_path):
    """A small synthetic benchmark written to disk (episodes + screenshots)."""
    synth.make_benchmark_file(tmp_path, n_episodes=4, steps_per_episode=5, seed=7)
    return tmp_path


@pytest.fixture
def episodes():
    """In-memory synthetic episodes; screenshot refs are abstract."""
    return synth.make_episodes(n_episodes=4, steps_per_episode=5, seed=7)


def make_gateway(episodes, dialect, policy_name="oracle", n=1, seed=None,
                 max_in_flight=4):
    policy = synth.POLICIES[policy_name]
    backend = MockBackend(synth.make_responder(episodes, dialect, policy))
    cfg = EndpointConfig(
        model_name=f"mock-{policy_name}",
        sampling=SamplingConfig(n=n, seed=seed),
        max_in_flight=max_in_flight,
    )
    return ModelGateway(backend, cfg, dialect.id), backend


CHOICES_OK = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()


class LoopbackServer:
    """A threaded HTTP/1.1 server on 127.0.0.1 that hands each POST body to
    ``reply(handler, body)``.

    It counts open connections, each until its handler finishes, and
    requests in flight, and keeps the highest of each count.
    """

    def __init__(self):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        loopback = self
        self._lock = threading.Lock()
        self.open_connections = self.max_open_connections = 0
        self.in_flight = self.max_in_flight = 0

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                loopback._count("open_connections", 1)

            def finish(self):
                try:
                    super().finish()
                finally:
                    loopback._count("open_connections", -1)

            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
                loopback._count("in_flight", 1)
                try:
                    loopback.reply(self, body)
                finally:
                    loopback._count("in_flight", -1)

            def log_message(self, *args):
                pass

        class Server(ThreadingHTTPServer):
            daemon_threads = True

            def handle_error(self, request, client_address):
                pass  # a client that timed out has closed its end

        self._server = Server(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()

    def _count(self, name, delta):
        with self._lock:
            value = getattr(self, name) + delta
            setattr(self, name, value)
            setattr(self, f"max_{name}", max(getattr(self, f"max_{name}"), value))

    def reply(self, handler, body):
        raise NotImplementedError

    @staticmethod
    def send(handler, status, payload):
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(payload)))
        handler.end_headers()
        handler.wfile.write(payload)

    @property
    def port(self):
        return self._server.server_address[1]

    @property
    def url(self):
        return f"http://127.0.0.1:{self.port}/v1"

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


class ChatServer(LoopbackServer):
    """A loopback chat-completions endpoint on a real socket.

    Every request is recorded in ``seen`` as (request line, headers, body).
    Replies come from ``replies`` in order, the last one repeating; each is
    ``(status, body)`` or ``(status, body, delay_s)``, and a status of
    ``None`` closes the connection without an answer. With
    ``reset_after_reply``, the server waits for the client to close its
    side after a reply and then resets the connection.
    """

    def __init__(self):
        self.seen = []
        self.replies = [(200, CHOICES_OK)]
        self.reset_after_reply = False
        super().__init__()

    def reply(self, handler, body):
        with self._lock:
            self.seen.append((handler.requestline, handler.headers, body))
            reply = self.replies[min(len(self.seen), len(self.replies)) - 1]
        status, payload, delay = (*reply, 0.0)[:3]
        time.sleep(delay)
        handler.close_connection = True
        if status is None:
            return
        self.send(handler, status, payload)
        if self.reset_after_reply:
            sock = handler.connection
            while sock.recv(4096):
                pass
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()

    def bodies(self):
        return [body for _, _, body in self.seen]


class StepServer(LoopbackServer):
    """A loopback chat endpoint that answers every step of a benchmark file.

    It finds the step a request is for by its sub-goal text ("step <i> of
    task <e>"), as ``perfbench/bench_stub.py`` does, and answers with
    ``synth.make_noisy_responder`` for the body's seed and ``n``, after a delay
    of 0-10 ms drawn from the step, the seed and how often the step was
    asked. Requests for a step key in ``fail`` get HTTP 400, which the
    client does not retry. The first request for a step key in ``busy``
    under each seed gets HTTP 503, which the client retries. ``requests``
    counts every request, ``busy_replies`` the 503s, and ``arrivals`` lists
    each request's (step key, seed) in the order they came in.
    """

    STEP_RE = re.compile(rb"step (\d+) of task (\d+)")

    def __init__(self, benchmark, dialect_id):
        from types import SimpleNamespace

        from trajkit.synth import make_noisy_responder
        from trajkit.store import load_episodes

        episodes = load_episodes(benchmark).episodes
        respond = make_noisy_responder(episodes, get_dialect(dialect_id))
        self._respond = lambda key, seed, n: respond(SimpleNamespace(tag=key), seed, n)
        self.fail = set()
        self.busy = set()
        self.requests = self.busy_replies = 0
        self.arrivals = []
        self._asked = {}
        super().__init__()

    def reply(self, handler, body):
        task = self.STEP_RE.search(body)
        key = f"ep{int(task.group(2)):03d}/{int(task.group(1))}"
        request = json.loads(body)
        seed, n = request.get("seed"), request["n"]
        with self._lock:
            self.requests += 1
            self.arrivals.append((key, seed))
            asked = self._asked[key, seed] = self._asked.get((key, seed), 0) + 1
            busy = key in self.busy and asked == 1
            self.busy_replies += busy
        time.sleep(random.Random(f"{key}/{seed}/{asked}").uniform(0.0, 0.010))
        handler.close_connection = True
        if key in self.fail:
            self.send(handler, 400, b"step refused")
            return
        if busy:
            self.send(handler, 503, b"busy")
            return
        contents = self._respond(key, seed, n)
        contents = [contents] if isinstance(contents, str) else contents
        self.send(handler, 200, json.dumps(
            {"choices": [{"message": {"content": c}} for c in contents]}).encode())


@pytest.fixture
def chat_server(monkeypatch):
    """A ``ChatServer``; loopback requests bypass any proxy the environment names."""
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    server = ChatServer()
    yield server
    server.close()


@pytest.fixture
def step_server(monkeypatch):
    """Starts a ``StepServer`` per call, ``step_server(benchmark, dialect_id)``;
    loopback requests bypass any proxy the environment names."""
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    servers = []

    def start(benchmark, dialect_id="xml-toolcall"):
        servers.append(StepServer(benchmark, dialect_id))
        return servers[-1]

    yield start
    for server in servers:
        server.close()
