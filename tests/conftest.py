import json
import threading
import time

import pytest

from trajkit import synth
from trajkit.dialects import get_dialect
from trajkit.gateway import EndpointConfig, MockBackend, ModelGateway, SamplingConfig


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


class ChatServer:
    """A loopback chat-completions endpoint on a real socket.

    Every request is recorded in ``seen`` as (request line, headers, body).
    Replies come from ``replies`` in order, the last one repeating; each is
    ``(status, body)`` or ``(status, body, delay_s)``, and a status of
    ``None`` closes the connection without an answer.
    """

    def __init__(self):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        chat = self
        self.seen = []
        self.replies = [(200, CHOICES_OK)]
        self._lock = threading.Lock()

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
                with chat._lock:
                    chat.seen.append((self.requestline, self.headers, body))
                    reply = chat.replies[min(len(chat.seen), len(chat.replies)) - 1]
                status, payload, delay = (*reply, 0.0)[:3]
                time.sleep(delay)
                if status is None:
                    self.close_connection = True
                    return
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

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

    @property
    def port(self):
        return self._server.server_address[1]

    @property
    def url(self):
        return f"http://127.0.0.1:{self.port}/v1"

    def bodies(self):
        return [body for _, _, body in self.seen]

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


@pytest.fixture
def chat_server(monkeypatch):
    """A ``ChatServer``; loopback requests bypass any proxy the environment names."""
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    server = ChatServer()
    yield server
    server.close()
