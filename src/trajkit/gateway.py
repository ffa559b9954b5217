"""Uniform generation interface: remote chat endpoint or deterministic mock.

The wire protocol is the de-facto chat-completions shape (role-tagged
messages whose content is a list of text and image parts). The mock backend
implements the same shape in-process, which is what makes entire runs
byte-reproducible under a fixed seed list.
"""

from __future__ import annotations

import base64
import json
import os
import re
import secrets
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from . import __version__
from .dialects import Dialect, HistoryEntry
from .errors import EndpointUnavailableError, UnresolvableObservationError
from .store import StepTask

#: Seed list applied round-by-round when the run config does not override it.
DEFAULT_SEEDS = (7278727, 7779397, 7771087, 7867747, 7977857, 5113051, 9581717, 20000303)

#: History screenshots older than this degrade to text-only renderings.
DEFAULT_IMAGE_BUDGET = 4


class RetryableEndpointError(RuntimeError):
    """One attempt failed in a way a later attempt may not: no complete
    response, or a retryable status. ``ModelGateway`` backs off and retries."""


@dataclass(frozen=True)
class SamplingConfig:
    temperature: float = 0.1
    top_p: float = 1.0
    top_k: int = -1
    repetition_penalty: float = 1.0
    presence_penalty: float = 0.0
    max_tokens: int = 2048
    n: int = 1
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature {self.temperature} outside [0, 2]")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p {self.top_p} outside (0, 1]")
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str = ""
    model_name: str = "mock"
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    timeout: float = 120.0
    max_retries: int = 3
    max_in_flight: int = 4

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass(frozen=True)
class TextPart:
    text: str


@dataclass(frozen=True)
class ImagePart:
    path: str


Part = Union[TextPart, ImagePart]


@dataclass(frozen=True)
class Message:
    role: str
    parts: tuple[Part, ...]


@dataclass(frozen=True)
class GenerationRequest:
    messages: tuple[Message, ...]
    enable_thinking: bool = True
    fixed_thought: Optional[str] = None
    # Opaque routing tag (step key / round); scripted backends key off it.
    tag: str = ""

    def __post_init__(self) -> None:
        if not any(m.role == "user" for m in self.messages):
            raise ValueError("request needs at least one user message")

    def joined_text(self) -> str:
        return "\n".join(
            p.text for m in self.messages for p in m.parts if isinstance(p, TextPart)
        )


def prepare_input(
    step: StepTask,
    history: Sequence[HistoryEntry],
    dialect: Dialect,
    enable_thinking: bool = True,
    fixed_thought: Optional[str] = None,
    image_budget: int = DEFAULT_IMAGE_BUDGET,
) -> GenerationRequest:
    """Assemble the chat request for one step.

    History text is always rendered in full; history screenshots are capped
    at ``image_budget`` most recent (older entries degrade to text only).
    The current screenshot is always attached. No screenshot is read or
    checked here: ``load_episodes`` checks them, and ``HttpBackend`` raises
    ``UnresolvableObservationError`` for one gone since.
    """
    entries = [dialect.render_history_entry(e) for e in history]
    history_text = " ".join(entries)

    parts: list[Part] = []
    with_images = [e for e in history if e.observation is not None][-image_budget:]
    for entry in with_images:
        parts.append(ImagePart(entry.observation.screenshot_ref))

    body = dialect.user_text(
        step.instruction_high, step.instruction_low, history_text, enable_thinking
    )
    parts.append(TextPart(body))
    parts.append(ImagePart(step.observation.screenshot_ref))
    if step.observation.text_desc:
        parts.append(TextPart(f"Screen description: {step.observation.text_desc}"))

    messages = (
        Message("system", (TextPart(dialect.system_text()),)),
        Message("user", tuple(parts)),
    )
    prefix = dialect.render_fixed_thought(fixed_thought) if fixed_thought is not None else None
    return GenerationRequest(
        messages=messages,
        enable_thinking=enable_thinking,
        fixed_thought=prefix,
        tag=step.key,
    )


# --- backends ---------------------------------------------------------------


class MockBackend:
    """Deterministic in-process backend driven by a responder function.

    ``responder(request, seed, n)`` returns one string or a list of ``n``
    strings. The backend tracks concurrency so tests can assert the
    admission limit, and counts calls so resume tests can assert zero
    re-generation.
    """

    def __init__(self, responder: Callable[[GenerationRequest, Optional[int], int],
                                           Union[str, list[str]]]):
        self.responder = responder
        self.calls = 0
        self.in_flight = 0
        self.max_in_flight_seen = 0
        self._lock = threading.Lock()

    def complete(self, request: GenerationRequest, cfg: EndpointConfig) -> list[str]:
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.max_in_flight_seen = max(self.max_in_flight_seen, self.in_flight)
        try:
            out = self.responder(request, cfg.sampling.seed, cfg.sampling.n)
        finally:
            with self._lock:
                self.in_flight -= 1
        if isinstance(out, str):
            return [out] * cfg.sampling.n if cfg.sampling.n > 1 else [out]
        if len(out) != cfg.sampling.n:
            raise ValueError(f"responder returned {len(out)} strings for n={cfg.sampling.n}")
        return list(out)


def _file_base64(path: str) -> bytes:
    return base64.b64encode(Path(path).read_bytes())


def _post(url: str, body: Sequence[bytes], headers: dict[str, str],
          timeout: float) -> tuple[int, bytes]:
    """POST the ``body`` pieces on a new connection; the status and the response body.

    The pieces go out one by one under an explicit ``Content-Length``, so the
    body is never joined in memory. The request says ``Connection: close``;
    once the response is read, the client half-closes its end and waits,
    for at most ``timeout``, until the server has closed first. So the
    connection is gone when this returns, and a caller that holds a request
    slot from connect to return (``ModelGateway``) keeps a server's count of
    open connections at most its number of slots. Errors in that wait are
    ignored: the response is complete.

    Proxies come from ``http_proxy``/``https_proxy``/``no_proxy``, with a
    ``CONNECT`` tunnel for HTTPS; HTTPS is verified against the system trust
    store (``ssl.create_default_context()``). A URL that is not http or
    https, or names no host, raises ``ValueError``.
    """
    import http.client
    import urllib.parse
    import urllib.request

    target = urllib.parse.urlsplit(url)
    if target.scheme not in ("http", "https") or not target.hostname:
        raise ValueError(f"unusable endpoint URL {url!r}")
    headers = {**headers, "Connection": "close",
               "Content-Length": str(sum(len(piece) for piece in body))}
    proxy = urllib.request.getproxies().get(target.scheme)
    proxy_headers = {}
    if proxy and not urllib.request.proxy_bypass(target.netloc):
        proxy = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        if proxy.username and proxy.password:
            credentials = urllib.parse.unquote(f"{proxy.username}:{proxy.password}")
            proxy_headers["Proxy-Authorization"] = \
                "Basic " + base64.b64encode(credentials.encode()).decode("ascii")
        host, port = proxy.hostname, proxy.port
    else:
        proxy = None
        host, port = target.hostname, target.port
    path = urllib.parse.urlunsplit(("", "", target.path or "/", target.query, ""))
    if target.scheme == "https":
        import ssl

        conn = http.client.HTTPSConnection(host, port, timeout=timeout,
                                           context=ssl.create_default_context())
        if proxy:
            conn.set_tunnel(target.hostname, target.port, headers=proxy_headers)
    else:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        if proxy:
            # Through a plain HTTP proxy the request line carries the absolute URL.
            path = url
            headers.update(proxy_headers)
    try:
        conn.request("POST", path, body=body, headers=headers)
        # The response is read off the socket here, not by getresponse,
        # which would close the socket as soon as the body is in.
        response = http.client.HTTPResponse(conn.sock, method="POST")
        try:
            response.begin()
            status, payload = response.status, response.read()
        finally:
            response.close()
        _await_close(conn.sock, timeout)
        return status, payload
    finally:
        conn.close()


def _await_close(sock, timeout: float) -> None:
    """Half-close ``sock`` and read until the peer closes, for at most ``timeout``."""
    import socket

    deadline = time.monotonic() + timeout
    try:
        sock.shutdown(socket.SHUT_WR)
        while (left := deadline - time.monotonic()) > 0:
            sock.settimeout(left)
            if not sock.recv(4096):
                break
    except OSError:
        pass


#: The ``user:password@`` of a URL's authority, left out of error messages.
_CREDENTIALS_RE = re.compile(r"(?<=://)[^/?#]*@")


class HttpBackend:
    """Chat-completions client; ``complete`` makes one attempt, and errors
    surface verbatim, followed by ``(POST <url>)`` without any credentials
    in the URL.

    An attempt that may succeed when repeated (no complete response, or a
    status in ``RETRYABLE_STATUS``) raises ``RetryableEndpointError``, and
    ``ModelGateway`` backs off and retries it; any other status, or a 200
    reply without exactly ``n`` string completions, raises
    ``EndpointUnavailableError``. The body goes out as a list of byte pieces
    (the JSON between images and each image's base64) that is never joined
    into one buffer. Screenshots are base64-encoded once and kept for the
    next request of the same thread, which in a replay shares all history
    screenshots but the newest; a retry reads none of them again. Every
    attempt opens a new connection (``_post``), closed before ``complete``
    returns. Safe for concurrent callers.
    """

    RETRYABLE_STATUS = (408, 409, 429, 500, 502, 503, 504)

    def __init__(self):
        # Per thread: path -> ((st_size, st_mtime_ns), base64 bytes) of the
        # screenshots in that thread's previous request.
        self._local = threading.local()

    def complete(self, request: GenerationRequest, cfg: EndpointConfig) -> list[str]:
        import http.client

        url = cfg.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json",
                   "User-Agent": f"trajkit/{__version__}"}
        api_key = os.environ.get("TRAJKIT_API_KEY")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        body = self._body_pieces(request, cfg)
        where = f" (POST {_CREDENTIALS_RE.sub('', url, count=1)})"
        try:
            status, payload = _post(url, body, headers, cfg.timeout)
        # OSError: refused, reset, timed out; HTTPException:
        # a malformed or cut-off response; ValueError: an unusable URL.
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise RetryableEndpointError(f"{exc}{where}") from None
        if status == 200:
            return self._contents(payload, cfg.sampling.n, where)
        error = f"HTTP {status}: {payload.decode('utf-8', 'replace')}{where}"
        if status in self.RETRYABLE_STATUS:
            raise RetryableEndpointError(error)
        raise EndpointUnavailableError(error)

    @staticmethod
    def _contents(payload: bytes, n: int, where: str) -> list[str]:
        """The ``n`` completions of a 200 reply; any other reply raises
        ``EndpointUnavailableError``, its message ending in ``where``."""
        try:
            contents = [c["message"]["content"] for c in json.loads(payload)["choices"]]
        except (ValueError, TypeError, KeyError) as exc:
            raise EndpointUnavailableError(
                f"HTTP 200 reply without a choices list ({type(exc).__name__}: {exc}): "
                f"{payload[:200].decode('utf-8', 'replace')}{where}") from None
        strings = sum(isinstance(c, str) for c in contents)
        if len(contents) != n or strings != n:
            raise EndpointUnavailableError(f"HTTP 200 reply holds {len(contents)} choices, "
                                           f"{strings} of them strings, for n={n}{where}")
        return contents

    def _body_pieces(self, request: GenerationRequest, cfg: EndpointConfig) -> list[bytes]:
        """``json.dumps(_encode_body(request, cfg), allow_nan=False)`` as UTF-8
        bytes, in pieces whose concatenation is the body.

        The JSON is dumped with a marker in place of each image's base64,
        and the base64 bytes are spliced in at the markers: base64 uses no
        character that JSON escapes, so the result is byte-identical.
        """
        marker = f"trajkit-image-{secrets.token_hex(16)}"
        paths: list[str] = []

        def mark(path: str) -> str:
            paths.append(path)
            return marker

        pieces = json.dumps(self._encode_body(request, cfg, mark), allow_nan=False).split(marker)
        if len(pieces) != len(paths) + 1:
            raise ValueError(f"request body holds {len(pieces) - 1} image markers "
                             f"for {len(paths)} images")
        images = self._screenshots(paths)
        chunks = [pieces[0].encode("utf-8")]
        for path, piece in zip(paths, pieces[1:]):
            chunks += (images[path][1], piece.encode("utf-8"))
        return chunks

    def _screenshots(self, paths: Sequence[str]) -> dict[str, tuple[tuple[int, int], bytes]]:
        """Stamp and base64 of each path; a file whose size and mtime match
        this thread's previous request is not read again."""
        previous = getattr(self._local, "images", {})
        current = {}
        for path in paths:
            if path in current:
                continue
            try:
                st = os.stat(path)
            except FileNotFoundError:
                raise UnresolvableObservationError(path) from None
            stamp = (st.st_size, st.st_mtime_ns)
            entry = previous.get(path)
            if entry is None or entry[0] != stamp:
                entry = (stamp, _file_base64(path))
            current[path] = entry
        self._local.images = current
        return current

    @staticmethod
    def _encode_body(request: GenerationRequest, cfg: EndpointConfig,
                     image_data: Optional[Callable[[str], str]] = None) -> dict:
        """The chat-completions body.

        ``image_data(path)`` gives the base64 text put in each image's data
        URL; by default the file is read and encoded.
        """
        if image_data is None:
            image_data = lambda path: _file_base64(path).decode("ascii")  # noqa: E731
        messages = []
        for msg in request.messages:
            content = []
            for part in msg.parts:
                if isinstance(part, TextPart):
                    content.append({"type": "text", "text": part.text})
                else:
                    content.append({
                        "type": "image_url",
                        "image_url": {"url": f"data:image/png;base64,{image_data(part.path)}"},
                    })
            messages.append({"role": msg.role, "content": content})
        if request.fixed_thought is not None:
            messages.append({"role": "assistant", "content": request.fixed_thought,
                             "partial": True})
        sampling = cfg.sampling
        body = {
            "model": cfg.model_name,
            "messages": messages,
            "temperature": sampling.temperature,
            "top_p": sampling.top_p,
            "max_tokens": sampling.max_tokens,
            "n": sampling.n,
        }
        if sampling.top_k > 0:
            body["top_k"] = sampling.top_k
        if sampling.repetition_penalty != 1.0:
            body["repetition_penalty"] = sampling.repetition_penalty
        if sampling.presence_penalty != 0.0:
            body["presence_penalty"] = sampling.presence_penalty
        if sampling.seed is not None:
            body["seed"] = sampling.seed
        if not request.enable_thinking:
            body["chat_template_kwargs"] = {"enable_thinking": False}
        return body


class ModelGateway:
    """Backend plus a global admission limit and the retry loop.

    ``generate`` is safe for concurrent callers. Each attempt is one
    ``backend.complete(request, cfg)`` call, and it holds one of
    ``max_in_flight`` request slots while it runs: at most that many
    attempts are in the backend at any time. An attempt that raises
    ``RetryableEndpointError`` is retried up to ``max_retries`` times after
    a backoff of ``backoff_base``, then twice that, and so on, spent in
    ``sleep`` without a slot, so another caller's request can go out
    meanwhile. Every call reaches the backend. ``dialect_id`` and ``flags``
    are accepted for older callers and not used.
    """

    def __init__(self, backend, cfg: EndpointConfig, dialect_id: str = "",
                 flags: Optional[dict] = None, *, backoff_base: float = 0.5,
                 sleep: Callable[[float], None] = time.sleep):
        self.backend = backend
        self.cfg = cfg
        self._gate = threading.Semaphore(cfg.max_in_flight)
        self._backoff_base = backoff_base
        self._sleep = sleep

    def generate(self, request: GenerationRequest, round_idx: int = 0,
                 seed: Optional[int] = None, n: Optional[int] = None) -> list[str]:
        """``n`` completions of ``request``; ``seed`` and ``n`` override the
        sampling config. ``round_idx`` is accepted for callers that tag
        requests by round and does not change the request."""
        cfg = self.cfg
        if seed is not None or n is not None:
            sampling = replace(cfg.sampling,
                               seed=seed if seed is not None else cfg.sampling.seed,
                               n=n if n is not None else cfg.sampling.n)
            cfg = replace(cfg, sampling=sampling)
        for attempt in range(cfg.max_retries + 1):
            if attempt:
                self._sleep(self._backoff_base * 2 ** (attempt - 1))
            try:
                with self._gate:
                    return self.backend.complete(request, cfg)
            except RetryableEndpointError as exc:
                last_error = str(exc)
        raise EndpointUnavailableError(last_error or "endpoint unreachable")
