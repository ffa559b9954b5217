"""Resume determinism in every replay mode.

A run cut after any ``k`` persisted records and resumed must write the same
``records.jsonl`` bytes as an uninterrupted run. The mock answers with a
hash of the request text, so a resumed step that showed the model another
history (another pooled candidate, another mask) changes the bytes.
"""

import hashlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trajkit import synth
from trajkit.dialects import get_dialect
from trajkit.evaluate import reference_history, replay_benchmark
from trajkit.gateway import EndpointConfig, MockBackend, ModelGateway
from trajkit.semionline import ArtifactPool, OnPolicyArtifact, on_policy_history, pooled_histories
from trajkit.store import RunWriter

DIALECT = get_dialect("xml-toolcall")
EPISODES = synth.make_episodes(n_episodes=6, steps_per_episode=6, seed=5)
N_STEPS = sum(len(ep) for ep in EPISODES)
CONFIG = {"seed_list": [3]}
STEPS = {step.key: step for ep in EPISODES for step in ep.steps}


def hashing_responder(request, seed, n):
    """Right or wrong by a hash of the request text, which the answer carries."""
    step = STEPS[request.tag]
    digest = hashlib.sha256(request.joined_text().encode("utf-8")).hexdigest()[:12]
    right = int(digest, 16) % 3 != 0
    action = step.gt_action if right else synth.wrong_action_for(step.gt_action)
    return DIALECT.render_response(action, thought=f"request {digest}",
                                   conclusion=f"did-{step.step_index} {digest}",
                                   dims=step.observation.dims)


def build_pool() -> ArtifactPool:
    """Three candidates per step, told apart by their conclusions; every
    fourth step has none, so some positions fall back to the reference."""
    pool = ArtifactPool()
    for ep in EPISODES:
        for step in ep.steps:
            if step.step_index % 4 == 3:
                continue
            for c in range(3):
                pool.add(OnPolicyArtifact(key=step.key, action=step.gt_action,
                                          thought=f"candidate {c}",
                                          conclusion=f"candidate {c} of {step.key}",
                                          raw_response=""))
    return pool


POOL = build_pool()

#: The history factory of each replay protocol.
MODES = {
    "offline": lambda _, ep: reference_history(ep),
    "live": lambda _, ep: on_policy_history(ep),
    "pooled": pooled_histories(POOL, global_seed=8),
}


def run(mode: str, run_dir: Path) -> bytes:
    gateway = ModelGateway(MockBackend(hashing_responder), EndpointConfig())
    replay_benchmark(gateway, EPISODES, DIALECT, MODES[mode], writer=RunWriter(run_dir, CONFIG),
                     seed=3)
    return (run_dir / "records.jsonl").read_bytes()


_uninterrupted: dict[str, bytes] = {}


def uninterrupted(mode: str) -> bytes:
    if mode not in _uninterrupted:
        with tempfile.TemporaryDirectory() as d:
            _uninterrupted[mode] = run(mode, Path(d))
    return _uninterrupted[mode]


def check_cut_and_resume(mode: str, k: int) -> None:
    whole = uninterrupted(mode)
    lines = whole.splitlines(keepends=True)
    assert len(lines) == N_STEPS
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "records.jsonl").write_bytes(b"".join(lines[:k]))
        assert run(mode, Path(d)) == whole


@settings(max_examples=15, deadline=None)
@given(k=st.integers(0, N_STEPS))
def test_offline_resume_is_byte_identical(k):
    check_cut_and_resume("offline", k)


@settings(max_examples=15, deadline=None)
@given(k=st.integers(0, N_STEPS))
def test_live_resume_is_byte_identical(k):
    check_cut_and_resume("live", k)


@settings(max_examples=15, deadline=None)
@given(k=st.integers(0, N_STEPS))
def test_pooled_resume_is_byte_identical(k):
    check_cut_and_resume("pooled", k)


def test_fixture_exercises_the_draws():
    """The pooled run mixes reference and pooled entries, and the drawn
    candidates reach the answers: another global seed changes the bytes."""
    import json

    records = [json.loads(line) for line in uninterrupted("pooled").splitlines()]
    assert any(0 < sum(r["history_sources"]) < len(r["history_sources"]) for r in records)
    with tempfile.TemporaryDirectory() as d:
        gateway = ModelGateway(MockBackend(hashing_responder), EndpointConfig())
        replay_benchmark(gateway, EPISODES, DIALECT, pooled_histories(POOL, global_seed=9),
                         writer=RunWriter(d, CONFIG), seed=3)
        assert (Path(d) / "records.jsonl").read_bytes() != uninterrupted("pooled")


@pytest.mark.parametrize("mode", ["offline", "live"])
def test_second_replay_through_one_writer_reads_back(mode, tmp_path):
    """A second replay through the writer that persisted the first returns
    the persisted records and makes no backend call."""
    episodes = synth.make_episodes(n_episodes=2, steps_per_episode=3, seed=5)
    backend = MockBackend(synth.make_responder(episodes, DIALECT, synth.oracle_policy))
    gateway = ModelGateway(backend, EndpointConfig(), DIALECT.id)
    writer = RunWriter(tmp_path, CONFIG)
    first, _ = replay_benchmark(gateway, episodes, DIALECT, MODES[mode], writer=writer)
    assert backend.calls == 6
    second, metrics = replay_benchmark(gateway, episodes, DIALECT, MODES[mode], writer=writer)
    assert backend.calls == 6
    assert len(second) == 6
    assert [r.to_json() for r in second] == [r.to_json() for r in first]
    assert sorted(metrics) == sorted(ep.id for ep in episodes)
    assert all(m.success for m in metrics.values())
