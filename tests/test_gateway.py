import base64
import json
import os
import re
import socket
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import CHOICES_OK, make_gateway
from trajkit import synth
from trajkit.dialects import ReferenceEntry
from trajkit.gateway import (
    EndpointConfig,
    EndpointUnavailableError,
    GenerationRequest,
    HttpBackend,
    ImagePart,
    Message,
    MockBackend,
    ModelGateway,
    RetryableEndpointError,
    SamplingConfig,
    TextPart,
    UnresolvableObservationError,
    prepare_input,
)


def simple_request(tag="e/0"):
    return GenerationRequest(
        messages=(Message("user", (TextPart("hi"),)),), tag=tag)


def http_gateway(cfg, **retry):
    """A gateway over a fresh ``HttpBackend``; ``retry`` sets its backoff or sleep."""
    return ModelGateway(HttpBackend(), cfg, **retry)


class TestPrepareInput:
    def test_composition(self, episodes, xml_dialect):
        ep = episodes[0]
        history = [ReferenceEntry(index=i, action=ep.steps[i].gt_action,
                                  observation=ep.steps[i].observation)
                   for i in range(2)]
        req = prepare_input(ep.steps[2], history, xml_dialect)
        assert req.messages[0].role == "system"
        assert req.messages[1].role == "user"
        text = req.joined_text()
        assert "Step 1:" in text and "Step 2:" in text
        assert ep.steps[2].instruction_high in text
        # history screenshots + current screenshot
        from trajkit.gateway import ImagePart
        images = [p for p in req.messages[1].parts if isinstance(p, ImagePart)]
        assert len(images) == 3
        assert images[-1].path == ep.steps[2].observation.screenshot_ref

    def test_image_budget_truncates_oldest(self, episodes, xml_dialect):
        from trajkit.gateway import ImagePart
        ep = episodes[0]
        history = [ReferenceEntry(index=i, action=ep.steps[0].gt_action,
                                  observation=ep.steps[0].observation)
                   for i in range(8)]
        req = prepare_input(ep.steps[0], history, xml_dialect, image_budget=2)
        images = [p for p in req.messages[1].parts if isinstance(p, ImagePart)]
        assert len(images) == 3  # 2 history + current
        text = req.joined_text()
        assert "Step 1:" in text  # text survives even when the image is dropped

    def test_thinking_flag_threaded(self, episodes, xml_dialect):
        req = prepare_input(episodes[0].steps[0], [], xml_dialect,
                            enable_thinking=False)
        assert not req.enable_thinking
        assert "<thinking>" not in req.joined_text()
        req2 = prepare_input(episodes[0].steps[0], [], xml_dialect,
                             enable_thinking=True)
        assert "<thinking>" in req2.joined_text()

    def test_fixed_thought_prefix(self, episodes, ta_dialect):
        req = prepare_input(episodes[0].steps[0], [], ta_dialect,
                            fixed_thought="already decided")
        assert req.fixed_thought == "Thought: already decided\nAction:"

    def test_deterministic_for_fixed_inputs(self, episodes, xml_dialect):
        a = prepare_input(episodes[0].steps[1], [], xml_dialect)
        b = prepare_input(episodes[0].steps[1], [], xml_dialect)
        assert a == b


class TestMockBackend:
    def test_scripted_contract(self, episodes, xml_dialect):
        gateway, backend = make_gateway(episodes, xml_dialect, "oracle")
        step = episodes[0].steps[0]
        from trajkit.gateway import prepare_input as prep
        req = prep(step, [], xml_dialect)
        out = gateway.generate(req)
        assert len(out) == 1
        parsed = xml_dialect.parse_response(out[0], step.observation.dims)
        assert parsed.action == step.gt_action

    def test_n_completions_in_order(self):
        def responder(request, seed, n):
            return [f"completion-{i}" for i in range(n)]

        backend = MockBackend(responder)
        cfg = EndpointConfig(sampling=SamplingConfig(n=64))
        gateway = ModelGateway(backend, cfg)
        out = gateway.generate(simple_request())
        assert out == [f"completion-{i}" for i in range(64)]

    def test_reproducible_run(self, episodes, xml_dialect):
        outs = []
        for _ in range(2):
            gateway, _ = make_gateway(episodes, xml_dialect, "alternating", seed=7)
            step = episodes[1].steps[2]
            req = prepare_input(step, [], xml_dialect)
            outs.append(gateway.generate(req, seed=7))
        assert outs[0] == outs[1]


class TestConcurrencyLimit:
    def test_in_flight_never_exceeds_limit(self):
        def slow_responder(request, seed, n):
            time.sleep(0.005)
            return "ok"

        backend = MockBackend(slow_responder)
        cfg = EndpointConfig(max_in_flight=3)
        gateway = ModelGateway(backend, cfg)

        threads = [
            threading.Thread(target=lambda i=i: gateway.generate(simple_request(f"t/{i}")))
            for i in range(24)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert backend.calls == 24
        assert backend.max_in_flight_seen <= 3

    def test_backing_off_request_holds_no_slot(self):
        """With one slot, a request that waits out its backoff lets another
        caller's request go out and complete."""
        class BusyOnce:
            def __init__(self):
                self.calls = []

            def complete(self, request, cfg):
                self.calls.append(request.tag)
                if self.calls.count(request.tag) == 1 and request.tag == "first":
                    raise RetryableEndpointError("HTTP 503: busy")
                return [request.tag]

        sleeping, release = threading.Event(), threading.Event()

        def blocking_sleep(seconds):
            sleeping.set()
            assert release.wait(timeout=10)

        backend = BusyOnce()
        gateway = ModelGateway(backend, EndpointConfig(max_in_flight=1), sleep=blocking_sleep)
        results = {}
        first = threading.Thread(
            target=lambda: results.update(first=gateway.generate(simple_request("first"))))
        first.start()
        try:
            assert sleeping.wait(timeout=10)
            second = threading.Thread(
                target=lambda: results.update(second=gateway.generate(simple_request("second"))))
            second.start()
            second.join(timeout=10)
            assert not second.is_alive()
            assert results == {"second": ["second"]}
        finally:
            release.set()
            first.join(timeout=10)
        assert not first.is_alive()
        assert results == {"first": ["first"], "second": ["second"]}
        assert backend.calls == ["first", "second", "first"]


def assert_simple_body(data, n=1):
    """The posted bytes are the JSON body of ``simple_request()``."""
    assert isinstance(data, bytes)
    body = json.loads(data)
    assert body["model"] == "mock" and body["n"] == n
    assert body["messages"] == [{"role": "user",
                                 "content": [{"type": "text", "text": "hi"}]}]


def refused_url():
    """A loopback URL on a port nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/v1"


class TestHttpRetry:
    def test_retries_then_typed_failure(self, chat_server):
        chat_server.replies = [(None, b"")]  # every connection dropped unanswered
        cfg = EndpointConfig(base_url=chat_server.url, max_retries=3)
        with pytest.raises(EndpointUnavailableError):
            http_gateway(cfg, backoff_base=0.0).generate(simple_request())
        for data in chat_server.bodies():
            assert_simple_body(data)
        assert len(chat_server.seen) == cfg.max_retries + 1

    def test_error_body_surfaced(self, chat_server):
        chat_server.replies = [(400, b"bad schema: missing field x")]
        sleeps = []
        cfg = EndpointConfig(base_url=chat_server.url, max_retries=3)
        with pytest.raises(EndpointUnavailableError, match="bad schema"):
            http_gateway(cfg, sleep=sleeps.append).generate(simple_request())
        assert_simple_body(chat_server.bodies()[0])
        # A 400 is not retried.
        assert len(chat_server.seen) == 1 and sleeps == []

    def test_error_names_the_url_without_credentials(self, chat_server, monkeypatch):
        for proxy in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
            monkeypatch.delenv(proxy, raising=False)
        chat_server.replies = [(400, b"step refused")]
        cfg = EndpointConfig(base_url=chat_server.url.replace("://", "://user:secret@"),
                             max_retries=0)
        with pytest.raises(EndpointUnavailableError) as excinfo:
            http_gateway(cfg).generate(simple_request())
        assert str(excinfo.value) == \
            f"HTTP 400: step refused (POST {chat_server.url}/chat/completions)"

    def test_success_extracts_choices(self, chat_server):
        payload = {"choices": [{"message": {"content": "a"}},
                               {"message": {"content": "b"}}]}
        chat_server.replies = [(200, json.dumps(payload).encode())]
        cfg = EndpointConfig(base_url=chat_server.url, sampling=SamplingConfig(n=2))
        assert HttpBackend().complete(simple_request(), cfg) == ["a", "b"]
        (_, headers, data), = chat_server.seen
        assert_simple_body(data, n=2)
        assert headers["Content-Type"] == "application/json"

    def test_request_line_and_headers(self, chat_server, monkeypatch):
        from trajkit import __version__

        monkeypatch.delenv("TRAJKIT_API_KEY", raising=False)
        cfg = EndpointConfig(base_url=chat_server.url + "/")
        assert HttpBackend().complete(simple_request(), cfg) == ["ok"]
        monkeypatch.setenv("TRAJKIT_API_KEY", "sk-test")
        assert HttpBackend().complete(simple_request(), cfg) == ["ok"]
        (line, anonymous, data), (_, keyed, _) = chat_server.seen
        assert line == "POST /v1/chat/completions HTTP/1.1"
        for headers in (anonymous, keyed):
            assert headers["Content-Type"] == "application/json"
            assert headers["Content-Length"] == str(len(data))
            assert headers["User-Agent"] == f"trajkit/{__version__}"
        assert "Authorization" not in anonymous
        assert keyed["Authorization"] == "Bearer sk-test"

    def test_retryable_status_backs_off(self, chat_server):
        chat_server.replies = [(503, b"busy"), (503, b"busy"), (200, CHOICES_OK)]
        sleeps = []
        cfg = EndpointConfig(base_url=chat_server.url, max_retries=3)
        assert http_gateway(cfg, sleep=sleeps.append).generate(simple_request()) == ["ok"]
        assert len(chat_server.seen) == 3
        assert sleeps == [0.5, 1.0]

    def test_one_attempt_per_complete(self, chat_server):
        """The backend makes one attempt; a retryable status raises for the gateway to retry."""
        chat_server.replies = [(503, b"busy"), (200, CHOICES_OK)]
        cfg = EndpointConfig(base_url=chat_server.url, max_retries=3)
        backend = HttpBackend()
        with pytest.raises(RetryableEndpointError, match="HTTP 503: busy"):
            backend.complete(simple_request(), cfg)
        assert backend.complete(simple_request(), cfg) == ["ok"]
        assert len(chat_server.seen) == 2

    @pytest.mark.parametrize("url", ["refused", "", "nope://host/v1", "http:///v1"])
    def test_unusable_endpoint_retried_then_typed_failure(self, monkeypatch, url):
        import trajkit.gateway as gw

        attempts = []
        real_post = gw._post

        def counted(*args):
            attempts.append(args[0])
            return real_post(*args)

        monkeypatch.setattr(gw, "_post", counted)
        cfg = EndpointConfig(base_url=refused_url() if url == "refused" else url,
                             max_retries=3)
        with pytest.raises(EndpointUnavailableError):
            http_gateway(cfg, backoff_base=0.0).generate(simple_request())
        assert len(attempts) == cfg.max_retries + 1

    def test_timeout_retried(self, chat_server):
        chat_server.replies = [(200, CHOICES_OK, 1.0), (200, CHOICES_OK)]
        sleeps = []
        cfg = EndpointConfig(base_url=chat_server.url, timeout=0.2, max_retries=1)
        assert http_gateway(cfg, sleep=sleeps.append).generate(simple_request()) == ["ok"]
        assert len(chat_server.seen) == 2 and sleeps == [0.5]

    def test_reset_after_reply_is_not_retried(self, chat_server):
        chat_server.reset_after_reply = True
        cfg = EndpointConfig(base_url=chat_server.url, max_retries=3)
        assert http_gateway(cfg, backoff_base=0.0).generate(simple_request()) == ["ok"]
        assert len(chat_server.seen) == 1

    def test_https_proxy_tunnel(self, monkeypatch):
        """An HTTPS endpoint behind ``https_proxy`` is reached through a
        CONNECT tunnel that carries the proxy's credentials."""
        seen = []
        with socket.socket() as proxy:
            proxy.bind(("127.0.0.1", 0))
            proxy.listen(1)

            def refuse_tunnel():
                conn, _ = proxy.accept()
                with conn:
                    head = b""
                    while b"\r\n\r\n" not in head:
                        head += conn.recv(4096)
                    seen.append(head.decode("latin-1"))
                    conn.sendall(b"HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\n\r\n")

            worker = threading.Thread(target=refuse_tunnel, daemon=True)
            worker.start()
            monkeypatch.setenv("https_proxy",
                               f"http://us%40r:pw@127.0.0.1:{proxy.getsockname()[1]}")
            monkeypatch.delenv("no_proxy", raising=False)
            monkeypatch.delenv("NO_PROXY", raising=False)
            cfg = EndpointConfig(base_url="https://chat.invalid/v1", max_retries=0)
            with pytest.raises(EndpointUnavailableError, match="502"):
                http_gateway(cfg).generate(simple_request())
            worker.join(timeout=10)
        request_line, *header_lines = seen[0].split("\r\n")
        assert request_line.startswith("CONNECT chat.invalid:443 HTTP/")
        credentials = base64.b64encode(b"us@r:pw").decode()
        assert f"Proxy-Authorization: Basic {credentials}" in header_lines

    def test_proxy_from_environment(self, chat_server, monkeypatch):
        # The upstream is a port nothing listens on: only the proxy can answer.
        upstream = refused_url()
        monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{chat_server.port}")
        monkeypatch.delenv("no_proxy")
        monkeypatch.delenv("NO_PROXY", raising=False)
        cfg = EndpointConfig(base_url=upstream, max_retries=0)
        assert HttpBackend().complete(simple_request(), cfg) == ["ok"]
        (line, _, data), = chat_server.seen
        assert line == f"POST {upstream}/chat/completions HTTP/1.1"
        assert_simple_body(data)


def choices(*contents):
    return json.dumps({"choices": [{"message": {"content": c}} for c in contents]}).encode()


class TestMalformedReply:
    """A 200 reply without exactly ``n`` string completions fails the step
    at once, with an error naming what it holds."""

    @pytest.mark.parametrize("payload, n, error", [
        (choices(), 1, "0 choices, 0 of them strings, for n=1"),
        (choices("a"), 4, "1 choices, 1 of them strings, for n=4"),
        (choices("a", "b", "c"), 2, "3 choices, 3 of them strings, for n=2"),
        (choices("a", None), 2, "2 choices, 1 of them strings, for n=2"),
        (b"<html>busy</html>", 1, "without a choices list .*JSONDecodeError"),
        (b"{}", 1, "without a choices list .*KeyError"),
        (b"[]", 1, "without a choices list .*TypeError"),
        (b'{"choices": [{"text": "a"}]}', 1, "without a choices list .*KeyError"),
    ], ids=["empty", "short", "long", "null-content", "not-json", "no-choices", "list",
            "no-message"])
    def test_fails_without_retry(self, chat_server, payload, n, error):
        chat_server.replies = [(200, payload)]
        sleeps = []
        cfg = EndpointConfig(base_url=chat_server.url, sampling=SamplingConfig(n=n))
        with pytest.raises(EndpointUnavailableError, match=error):
            http_gateway(cfg, sleep=sleeps.append).generate(simple_request())
        assert len(chat_server.seen) == 1 and sleeps == []

    @pytest.mark.parametrize("command, payload, error", [
        (["eval"], choices(), "0 choices, 0 of them strings, for n=1"),
        (["eval"], b"not json", "without a choices list"),
        (["soeval", "--mode", "live"], choices(), "0 choices, 0 of them strings, for n=1"),
        (["rollout", "--samples", "4", "--rounds", "1"], choices("a"),
         "1 choices, 1 of them strings, for n=4"),
    ], ids=["eval-empty", "eval-not-json", "soeval-empty", "rollout-short"])
    def test_command_fails_and_writes_no_record(self, tmp_path, chat_server, capsys, command,
                                                payload, error):
        from trajkit.cli import main

        synth.make_benchmark_file(tmp_path / "fx", n_episodes=2, steps_per_episode=3, seed=0)
        chat_server.replies = [(200, payload)]
        out = tmp_path / "run"
        code = main([*command, "--benchmark", str(tmp_path / "fx" / "episodes.jsonl"),
                     "--backend", "http", "--endpoint-url", chat_server.url,
                     "--concurrency", "1", "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert re.fullmatch(f"trajkit: error: .*{error}.*\n", err)
        written = [p for p in out.glob("*.jsonl") if p.read_bytes()]
        assert written == []


class TestHttpBodyEncoding:
    def test_images_and_fixed_thought(self, tmp_path):
        from trajkit import synth
        shot = tmp_path / "s.png"
        shot.write_bytes(synth.PLACEHOLDER_PNG)
        from trajkit.gateway import ImagePart
        req = GenerationRequest(
            messages=(
                Message("system", (TextPart("sys"),)),
                Message("user", (TextPart("look"), ImagePart(str(shot)))),
            ),
            enable_thinking=False,
            fixed_thought="Thought: pinned\nAction:",
        )
        cfg = EndpointConfig(model_name="m", sampling=SamplingConfig(n=2, seed=7))
        body = HttpBackend._encode_body(req, cfg)
        assert body["model"] == "m"
        assert body["n"] == 2 and body["seed"] == 7
        assert body["chat_template_kwargs"] == {"enable_thinking": False}
        user_parts = body["messages"][1]["content"]
        assert user_parts[0] == {"type": "text", "text": "look"}
        assert user_parts[1]["image_url"]["url"].startswith("data:image/png;base64,")
        tail = body["messages"][-1]
        assert tail["role"] == "assistant" and tail["partial"]
        assert tail["content"].startswith("Thought: pinned")


def expected_bytes(request, cfg):
    """The body bytes: ``json.dumps`` of ``_encode_body`` as UTF-8, reading
    each screenshot here rather than through ``gateway._file_base64``."""
    def image_data(path):
        return base64.b64encode(Path(path).read_bytes()).decode("ascii")

    body = HttpBackend._encode_body(request, cfg, image_data)
    return json.dumps(body, allow_nan=False).encode("utf-8")


def body_bytes(backend, request, cfg):
    """The body ``backend`` posts for ``request``: its pieces, joined."""
    return b"".join(backend._body_pieces(request, cfg))


def image_request(paths, text="look"):
    return GenerationRequest(messages=(
        Message("system", (TextPart("sys"),)),
        Message("user", (*(ImagePart(str(p)) for p in paths), TextPart(text))),
    ))


@pytest.fixture
def count_reads(monkeypatch):
    """Counts screenshot reads by path."""
    import trajkit.gateway as gw

    reads = {}
    real = gw._file_base64

    def counted(path):
        reads[path] = reads.get(path, 0) + 1
        return real(path)

    monkeypatch.setattr(gw, "_file_base64", counted)
    return reads


# Text with quotes, backslashes, control characters, non-ASCII and astral characters.
TEXT = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\n\t\r\x00\x1f\x7f\u2028é€😀 a'),
    st.characters(codec="utf-8")), max_size=40)


class TestHttpBodyBytes:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_bytes_equal_json_dumps_of_encode_body(self, tmp_path, chat_server, data):
        shots = []
        for i in range(3):
            shot = tmp_path / f"s{i}.png"
            if not shot.exists():
                shot.write_bytes(bytes(range(256)) * (i + 1) + b"\xff" * i)
            shots.append(str(shot))
        parts = data.draw(st.lists(st.one_of(
            TEXT.map(TextPart), st.sampled_from(shots).map(ImagePart)), max_size=10))
        images = [p for p in parts if isinstance(p, ImagePart)][:6]
        parts = [p for p in parts if isinstance(p, TextPart)] + images
        parts = data.draw(st.permutations(parts)) if parts else [TextPart("")]
        request = GenerationRequest(
            messages=(Message("system", (TextPart(data.draw(TEXT)),)),
                      Message("user", tuple(parts))),
            enable_thinking=data.draw(st.booleans()),
            fixed_thought=data.draw(st.none() | TEXT),
        )
        sampling = SamplingConfig(
            temperature=data.draw(st.floats(0.0, 2.0)),
            top_k=data.draw(st.sampled_from([-1, 0, 5])),
            repetition_penalty=data.draw(st.sampled_from([1.0, 1.05])),
            presence_penalty=data.draw(st.sampled_from([0.0, -0.5, 1.5])),
            seed=data.draw(st.none() | st.integers(0, 2**31)),
        )
        cfg = EndpointConfig(base_url=chat_server.url, model_name=data.draw(TEXT),
                             sampling=sampling)
        backend = HttpBackend()
        want = json.dumps(HttpBackend._encode_body(request, cfg), allow_nan=False).encode("utf-8")
        assert body_bytes(backend, request, cfg) == want
        # Again, with this request's screenshots now cached, and on the wire.
        assert backend.complete(request, cfg) == ["ok"]
        assert chat_server.bodies()[-1] == want

    def test_rewritten_screenshot_is_encoded_again(self, tmp_path, count_reads):
        shot = tmp_path / "s.png"
        shot.write_bytes(b"first")
        request = image_request([shot])
        cfg = EndpointConfig()
        backend = HttpBackend()
        assert body_bytes(backend, request, cfg) == expected_bytes(request, cfg)
        assert body_bytes(backend, request, cfg) == expected_bytes(request, cfg)
        assert count_reads == {str(shot): 1}
        # Same size, later mtime.
        shot.write_bytes(b"secnd")
        st_ = shot.stat()
        os.utime(shot, ns=(st_.st_atime_ns, st_.st_mtime_ns + 1_000_000))
        assert body_bytes(backend, request, cfg) == expected_bytes(request, cfg)
        # Other size, same mtime.
        mtime = shot.stat().st_mtime_ns
        shot.write_bytes(b"third!")
        os.utime(shot, ns=(mtime, mtime))
        assert body_bytes(backend, request, cfg) == expected_bytes(request, cfg)
        assert count_reads == {str(shot): 3}

    def test_cache_holds_only_last_request_images(self, tmp_path, count_reads):
        a, b, c = (tmp_path / f"{n}.png" for n in "abc")
        for n, shot in enumerate((a, b, c)):
            shot.write_bytes(bytes([n]) * 10)
        backend = HttpBackend()
        cfg = EndpointConfig()
        for paths in ([a, b], [b, c, c], [a]):
            request = image_request(paths)
            assert body_bytes(backend, request, cfg) == expected_bytes(request, cfg)
            assert set(backend._local.images) == {str(p) for p in paths}
        # b is reused once; a was dropped by the second request and read again.
        assert count_reads == {str(a): 2, str(b): 1, str(c): 1}

    def test_cache_is_per_thread(self, tmp_path, count_reads):
        shot = tmp_path / "s.png"
        shot.write_bytes(b"png")
        backend = HttpBackend()
        request = image_request([shot])
        backend._body_pieces(request, EndpointConfig())
        worker = threading.Thread(target=backend._body_pieces,
                                  args=(request, EndpointConfig()))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert count_reads == {str(shot): 2}

    def test_marker_count_mismatch_raises(self, tmp_path, monkeypatch):
        import trajkit.gateway as gw

        shot = tmp_path / "s.png"
        shot.write_bytes(b"png")
        monkeypatch.setattr(gw.secrets, "token_hex", lambda n: "0" * (2 * n))
        request = image_request([shot], text="trajkit-image-" + "0" * 32)
        with pytest.raises(ValueError, match="2 image markers for 1 images"):
            HttpBackend()._body_pieces(request, EndpointConfig())

    def test_retry_posts_equal_bytes_and_reads_once(self, tmp_path, chat_server, count_reads):
        shots = [tmp_path / f"{n}.png" for n in range(3)]
        for n, shot in enumerate(shots):
            shot.write_bytes(bytes([n]) * 1000)
        request = image_request(shots + shots[:1])
        cfg = EndpointConfig(base_url=chat_server.url, max_retries=3)
        chat_server.replies = [(503, b"busy"), (503, b"busy"), (200, CHOICES_OK)]
        assert http_gateway(cfg, backoff_base=0.0).generate(request) == ["ok"]
        posted = chat_server.bodies()
        assert len(posted) == 3
        assert posted == [expected_bytes(request, cfg)] * 3
        assert count_reads == {str(s): 1 for s in shots}


def test_gateway_reused_across_replays_answers_each_request(episodes, xml_dialect):
    """Every request reaches the backend: a second replay through the same
    gateway gets answers to its own histories, not the first replay's."""
    from trajkit.evaluate import evaluate_benchmark_offline
    from trajkit.semionline import soeval_benchmark

    gateway, backend = make_gateway(episodes, xml_dialect, "history-echo")
    evaluate_benchmark_offline(gateway, episodes, xml_dialect)
    reused, _ = soeval_benchmark(gateway, episodes, xml_dialect)
    fresh_gateway, _ = make_gateway(episodes, xml_dialect, "history-echo")
    fresh, _ = soeval_benchmark(fresh_gateway, episodes, xml_dialect)
    assert [r.to_json() for r in reused] == [r.to_json() for r in fresh]
    assert all(r.evaluation["exact_match"] for r in reused)
    assert backend.calls == 2 * sum(len(ep) for ep in episodes)


class TestScreenshotsCheckedAtLoad:
    @pytest.fixture
    def loaded(self, tmp_path):
        from trajkit.store import load_episodes

        synth.make_benchmark_file(tmp_path, n_episodes=2, steps_per_episode=5, seed=3)
        report = load_episodes(tmp_path / "episodes.jsonl", check_screenshots=True)
        assert len(report.episodes) == 2
        return report.episodes

    def test_replay_stats_no_screenshot(self, loaded, xml_dialect, monkeypatch):
        from trajkit.evaluate import evaluate_benchmark_offline
        from trajkit.semionline import soeval_benchmark

        shots = {step.observation.screenshot_ref for ep in loaded for step in ep.steps}
        stats = []
        real_stat = os.stat

        def counted(path, *args, **kwargs):
            if os.fspath(path) in shots:
                stats.append(path)
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counted)
        gateway, backend = make_gateway(loaded, xml_dialect, "oracle")
        records, _ = evaluate_benchmark_offline(gateway, loaded, xml_dialect)
        live, _ = soeval_benchmark(gateway, loaded, xml_dialect)
        assert len(records) == len(live) == 10 and backend.calls == 20
        assert stats == []

    def test_screenshot_gone_after_load(self, loaded, xml_dialect, chat_server):
        from trajkit.evaluate import evaluate_benchmark_offline

        gone = loaded[0].steps[0].observation.screenshot_ref
        os.remove(gone)
        gateway = http_gateway(EndpointConfig(base_url=chat_server.url), backoff_base=0.0)
        with pytest.raises(UnresolvableObservationError) as excinfo:
            evaluate_benchmark_offline(gateway, loaded, xml_dialect)
        assert excinfo.value.args == (gone,)
        assert chat_server.seen == []
