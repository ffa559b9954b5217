"""Loopback chat-completions endpoint with precomputed answers.

The stub keeps its own cost per request small and constant: it finds the
step a request is for by scanning the body for the step's sub-goal text
("step <i> of task <e>", which base64 image data cannot contain), never
decodes the JSON or the images, and replies with response bytes built at
set-up. Every call waits a fixed service delay. A chosen set of step keys
gets HTTP 503 on its first attempt in each phase, so the client's retry
path runs.

It accounts for itself: requests, new connections, request bytes, the
highest number of concurrent requests and open connections, injected 503s,
and the CPU time its handler threads spent (sleeping excluded).
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from bench_metrics import StubEvent

STEP_RE = re.compile(rb"step (\d+) of task (\d+)")


def completion_body(content: str) -> bytes:
    return json.dumps({
        "object": "chat.completion",
        "model": "stub",
        "choices": [{"index": 0, "finish_reason": "stop",
                     "message": {"role": "assistant", "content": content}}],
    }).encode("utf-8")


class StubStats:
    def __init__(self) -> None:
        self.requests = 0
        self.connections = 0
        self.request_bytes = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.open_connections = 0
        self.max_open_connections = 0
        self.injected_503 = 0
        self.unknown = 0
        self.busy_cpu_s = 0.0
        self.events: list[StubEvent] = []


class StubServer:
    """Threaded HTTP/1.1 server on 127.0.0.1; start() binds, stop() joins."""

    def __init__(self, answers: dict[str, str], fail_first: set[str],
                 delay_s: float = 0.020) -> None:
        self.bodies = {key: completion_body(text) for key, text in answers.items()}
        self.fail_first = set(fail_first)
        self.delay_s = delay_s
        self.stats = StubStats()
        self.phase = "setup"
        self._seen: set[tuple[str, str]] = set()
        self._lock = threading.Lock()
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1"

    def reset(self, phase: str) -> StubStats:
        """Start a new phase; returns the statistics of the one that ended."""
        with self._lock:
            old, self.stats = self.stats, StubStats()
            self.phase = phase
            self._seen = set()
        return old

    def start(self) -> "StubServer":
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self) -> None:
                super().setup()
                with stub._lock:
                    st = stub.stats
                    st.connections += 1
                    st.open_connections += 1
                    st.max_open_connections = max(st.max_open_connections,
                                                  st.open_connections)
                self._stats = st

            def finish(self) -> None:
                try:
                    super().finish()
                finally:
                    with stub._lock:
                        self._stats.open_connections -= 1

            def log_message(self, *args) -> None:
                pass

            def do_POST(self) -> None:
                stub._handle(self)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join(timeout=10)
            self._server = None

    def _handle(self, h: BaseHTTPRequestHandler) -> None:
        arrival = time.perf_counter()
        cpu0 = time.thread_time()
        length = int(h.headers.get("Content-Length") or 0)
        body = h.rfile.read(length)
        match = STEP_RE.search(body)
        key = f"ep{int(match.group(2)):03d}/{int(match.group(1))}" if match else None
        with self._lock:
            st, phase = self.stats, self.phase
            st.requests += 1
            st.request_bytes += length
            st.in_flight += 1
            st.max_in_flight = max(st.max_in_flight, st.in_flight)
            if key is None or key not in self.bodies:
                status = 400
                st.unknown += 1
            elif key in self.fail_first and (phase, key) not in self._seen:
                status = 503
                st.injected_503 += 1
            else:
                status = 200
            if key is not None:
                self._seen.add((phase, key))
        payload = self.bodies[key] if status == 200 else b'{"error": "unavailable"}'
        time.sleep(self.delay_s)  # costs the thread no CPU time
        h.send_response(status)
        h.send_header("Content-Type", "application/json")
        h.send_header("Content-Length", str(len(payload)))
        h.end_headers()
        h.wfile.write(payload)
        h.wfile.flush()
        reply = time.perf_counter()
        cpu = time.thread_time() - cpu0
        with self._lock:
            st.in_flight -= 1
            st.busy_cpu_s += cpu
            if key is not None:
                ep, step = key.split("/")
                st.events.append(StubEvent(phase, ep, int(step), arrival, reply, status))
