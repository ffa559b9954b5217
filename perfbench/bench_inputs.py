"""Inputs generated from the workload seed: fixtures, screenshots, answers, case files.

Nothing here reads anything the seed did not produce. The expected values
the correctness gate uses come from the answer table built here, not from
trajkit's own scoring.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from trajkit import synth
from trajkit.actions import Action, ActionKind, Point
from trajkit.dialects import get_dialect
from trajkit.gateway import EndpointConfig, MockBackend, ModelGateway
from trajkit.semionline import ArtifactPool, soeval_benchmark
from trajkit.store import load_episodes

DIALECT = "xml-toolcall"

#: Fixed sizes per workload; only the content varies with the seed.
SIZES = {
    "replay-remote": {"episodes": 6, "steps": 8, "shot_bytes": 256 * 1024,
                      "p_correct": 0.7, "fail_first": 1},
    "analytics-local": {"episodes": 60, "steps": 10, "rounds": 2, "samples": 8,
                        "grid": 3, "samples_per_pair": 2, "p_correct": 0.6},
    "resume-and-report": {"episodes": 40, "steps": 10, "groups": 200, "group_size": 8,
                          "cases": 6, "judges": 3, "judge_rollouts": 8},
}

PNG_MAGIC = bytes.fromhex("89504e470d0a1a0a")


@dataclass
class GtStep:
    """Reference step as the episode file states it, read with plain json."""

    key: str
    episode: str
    index: int
    length: int
    kind: str
    params: dict
    bbox: Optional[dict]


@dataclass
class Inputs:
    workload: str
    seed: int
    root: Path
    fixture: Path
    steps: list[GtStep]
    correct: dict[str, bool] = field(default_factory=dict)  # answer table: key -> right?
    answers: dict[str, str] = field(default_factory=dict)   # key -> response text
    fail_first: set[str] = field(default_factory=set)
    pool: Optional[Path] = None
    run_dirs: dict[str, Path] = field(default_factory=dict)
    groups: Optional[Path] = None
    cases: Optional[Path] = None
    case_labels: dict[str, bool] = field(default_factory=dict)
    stat_args: dict[str, list] = field(default_factory=dict)
    seed_list: list[int] = field(default_factory=list)
    make_fixture_s: float = 0.0

    @property
    def size(self) -> dict:
        return SIZES[self.workload]

    def episodes(self) -> dict[str, list[GtStep]]:
        out: dict[str, list[GtStep]] = {}
        for s in self.steps:
            out.setdefault(s.episode, []).append(s)
        return out


def read_gt_steps(fixture: Path) -> list[GtStep]:
    rows = [json.loads(line) for line in fixture.read_text(encoding="utf-8").splitlines()
            if line.strip()]
    lengths: dict[str, int] = {}
    for r in rows:
        lengths[r["episode_id"]] = lengths.get(r["episode_id"], 0) + 1
    return [GtStep(f"{r['episode_id']}/{r['step_index']}", r["episode_id"], r["step_index"],
                   lengths[r["episode_id"]], r["gt_kind"], r["gt_params"], r.get("gt_bbox"))
            for r in rows]


def make_fixture(workload: str, seed: int, root: Path) -> Inputs:
    size = SIZES[workload]
    root.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    fixture = synth.make_benchmark_file(root / "fixture", n_episodes=size["episodes"],
                                        steps_per_episode=size["steps"], seed=seed)
    made = time.perf_counter() - t0
    return Inputs(workload, seed, root, fixture, read_gt_steps(fixture), make_fixture_s=made)


def write_screenshots(inp: Inputs, rng: random.Random) -> None:
    """Give every step its own incompressible screenshot of a fixed size."""
    shots = inp.fixture.parent / "shots"
    shots.mkdir(exist_ok=True)
    n = inp.size["shot_bytes"] - len(PNG_MAGIC)
    lines = []
    for line in inp.fixture.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        name = f"{rec['episode_id']}_{rec['step_index']}.png"
        (shots / name).write_bytes(PNG_MAGIC + rng.randbytes(n))
        rec["screenshot_path"] = f"shots/{name}"
        lines.append(json.dumps(rec, ensure_ascii=False, sort_keys=True))
    inp.fixture.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_answer_table(inp: Inputs, rng: random.Random) -> None:
    """A seeded mix of right and wrong answers, one per step, in the replay dialect."""
    dialect = get_dialect(DIALECT)
    report = load_episodes(inp.fixture, check_screenshots=False)
    for ep in report.episodes:
        for step in ep.steps:
            right = rng.random() < inp.size["p_correct"]
            action = step.gt_action if right else synth.wrong_action_for(step.gt_action)
            inp.correct[step.key] = right
            inp.answers[step.key] = dialect.render_response(
                action, thought=f"considering step {step.step_index}",
                conclusion=f"did-{step.step_index}", dims=step.observation.dims)


def build_pool(inp: Inputs) -> None:
    """The soeval pool the sweep reads, from an in-process semi-online run."""
    dialect = get_dialect(DIALECT)
    episodes = load_episodes(inp.fixture).episodes
    correct = inp.correct

    def policy(step, request):
        return step.gt_action if correct[step.key] else synth.wrong_action_for(step.gt_action)

    gateway = ModelGateway(MockBackend(synth.make_responder(episodes, dialect, policy)),
                           EndpointConfig(), dialect.id)
    records, _ = soeval_benchmark(gateway, episodes, dialect)
    inp.pool = inp.root / "soeval_pool.jsonl"
    ArtifactPool.from_records(records).save(inp.pool)


def write_groups(inp: Inputs, rng: random.Random) -> None:
    size = inp.size
    inp.groups = inp.root / "groups.jsonl"
    with inp.groups.open("w", encoding="utf-8") as fh:
        for g in range(size["groups"]):
            rewards = [float(rng.random() < 0.5) + round(rng.random(), 3)
                       for _ in range(size["group_size"])]
            fh.write(json.dumps({"group_id": f"g{g}", "rewards": rewards}) + "\n")


def write_cases(inp: Inputs, rng: random.Random) -> None:
    """Consistency cases whose verdict is known: executed at or far from the traced action."""
    dialect = get_dialect(DIALECT)
    inp.cases = inp.root / "cases.jsonl"
    with inp.cases.open("w", encoding="utf-8") as fh:
        for c in range(inp.size["cases"]):
            x, y = rng.randrange(100, 400), rng.randrange(100, 400)
            consistent = c % 2 == 0
            ex, ey = (x, y) if consistent else (x + 500, y + 500)
            case_id = f"case{c}"
            inp.case_labels[case_id] = consistent
            fh.write(json.dumps({
                "case_id": case_id, "instruction": f"tap target {c}",
                "reasoning_trace": dialect.render_response(Action(ActionKind.CLICK,
                                                                  point=Point(x, y))),
                "executed_kind": "CLICK", "executed_params": {"point": [ex, ey]},
                "human_label": consistent,
            }) + "\n")


def stat_arguments(rng: random.Random) -> dict[str, list]:
    n = rng.randrange(200, 900)
    return {
        "wilson": [rng.randrange(1, n), n],
        "contingency": [rng.randrange(100, 6000) for _ in range(4)],
        "seeds": [round(0.15 + 0.05 * rng.random(), 4) for _ in range(8)],
    }
