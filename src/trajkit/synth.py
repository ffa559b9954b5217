"""Synthetic fixture benchmarks and scripted agents.

Real benchmark data cannot ship with the repo, so tests, demos, and the CLI
mock mode run against deterministic synthetic episodes plus scripted
responders that speak each dialect. Everything here is seeded; two calls
with the same arguments produce identical bytes.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .actions import Action, ActionKind, BBox, Point
from .store import Episode, Observation, StepTask, write_episodes

if TYPE_CHECKING:
    from .dialects import Dialect
    from .gateway import GenerationRequest

# Minimal valid 1x1 grayscale PNG; stands in for screenshots.
PLACEHOLDER_PNG = bytes.fromhex(
    "89504e470d0a1a0a0000000d49484452000000010000000108000000003a7e9b55"
    "0000000a49444154789c63600000000200015e27d8db0000000049454e44ae426082"
)

APPS = ("notes", "mail", "maps", "shop", "music")
TEXTS = ("hello world", "coffee shops nearby", "meeting at noon", "pay bill")


def _gt_for(step_idx: int, rng: random.Random) -> tuple[Action, Optional[BBox]]:
    """Deterministic rotation through the action kinds, clicks carry boxes."""
    roll = (step_idx + rng.randrange(3)) % 7
    if roll in (0, 1):
        cx, cy = rng.randrange(80, 920), rng.randrange(80, 920)
        half_w, half_h = rng.randrange(20, 60), rng.randrange(15, 45)
        bbox = BBox(cx - half_w, cy - half_h, cx + half_w, cy + half_h)
        return Action(ActionKind.CLICK, point=Point(cx, cy)), bbox
    if roll == 2:
        pt = Point(rng.randrange(200, 800), rng.randrange(300, 700))
        direction = rng.choice(("up", "down", "left", "right"))
        return Action(ActionKind.SCROLL, point=pt, direction=direction), None
    if roll == 3:
        return Action(ActionKind.TYPE, text=rng.choice(TEXTS)), None
    if roll == 4:
        return Action(ActionKind.OPEN, app=rng.choice(APPS)), None
    if roll == 5:
        return Action(ActionKind.PRESS, button=rng.choice(("HOME", "BACK", "ENTER"))), None
    # Click without a box exercises the radius fallback.
    pt = Point(rng.randrange(100, 900), rng.randrange(100, 900))
    return Action(ActionKind.CLICK, point=pt), None


def make_episodes(
    n_episodes: int = 4,
    steps_per_episode: int = 5,
    seed: int = 0,
    screenshot_dir: Optional[Path] = None,
    benchmark: str = "synthetic",
    dims: tuple[float, float] = (1080.0, 2400.0),
) -> list[Episode]:
    """Build deterministic episodes ending in STOP.

    When ``screenshot_dir`` is given, placeholder screenshots are written
    there and referenced; otherwise references stay abstract (tests that
    never touch disk pass ``check_screenshot=False`` downstream).
    """
    rng = random.Random(seed)
    shots: list[str] = []
    if screenshot_dir is not None:
        screenshot_dir = Path(screenshot_dir)
        screenshot_dir.mkdir(parents=True, exist_ok=True)
        for i in range(3):
            p = screenshot_dir / f"screen_{i}.png"
            p.write_bytes(PLACEHOLDER_PNG)
            shots.append(str(p))
    episodes = []
    for e in range(n_episodes):
        eid = f"ep{e:03d}"
        app = APPS[e % len(APPS)]
        steps = []
        for i in range(steps_per_episode):
            if i == steps_per_episode - 1:
                gt, bbox = Action(ActionKind.STOP), None
            else:
                gt, bbox = _gt_for(i, rng)
            ref = shots[i % len(shots)] if shots else f"mem://{eid}/{i}.png"
            steps.append(StepTask(
                episode_id=eid,
                step_index=i,
                instruction_high=f"Use the {app} app to finish task {e}",
                instruction_low=f"step {i} of task {e}",
                observation=Observation(screenshot_ref=ref, dims=dims,
                                        text_desc=f"screen {i}"),
                gt_action=gt,
                gt_bbox=bbox,
            ))
        episodes.append(Episode(
            id=eid, steps=tuple(steps), app=app, device="phone-sim",
            source_benchmark=benchmark, split="test",
        ))
    return episodes


def make_benchmark_file(
    out_dir: str | Path,
    n_episodes: int = 4,
    steps_per_episode: int = 5,
    seed: int = 0,
    benchmark: str = "synthetic",
) -> Path:
    """Write a complete synthetic benchmark (episodes + screenshots) to disk.

    Screenshot references are stored relative to the episode file, keeping
    the benchmark directory relocatable.
    """
    import os
    from dataclasses import replace

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    episodes = make_episodes(
        n_episodes, steps_per_episode, seed,
        screenshot_dir=out_dir / "screens", benchmark=benchmark,
    )
    relocated = []
    for ep in episodes:
        steps = tuple(
            replace(st, observation=replace(
                st.observation,
                screenshot_ref=os.path.relpath(st.observation.screenshot_ref, out_dir),
            ))
            for st in ep.steps
        )
        relocated.append(replace(ep, steps=steps))
    path = out_dir / "episodes.jsonl"
    write_episodes(relocated, path)
    return path


# --- scripted responders -----------------------------------------------------


def wrong_action_for(gt: Action) -> Action:
    """An action guaranteed to type-mismatch the reference."""
    if gt.kind is ActionKind.SCROLL:
        return Action(ActionKind.CLICK, point=Point(500, 500))
    return Action(ActionKind.SCROLL, point=Point(500, 500), direction="up")


def _index_steps(episodes: Sequence[Episode]) -> dict[str, StepTask]:
    return {step.key: step for ep in episodes for step in ep.steps}


Policy = Callable[[StepTask, "GenerationRequest"], Action]


def make_responder(episodes: Sequence[Episode], dialect: Dialect, policy: Policy):
    """Wrap a step-level policy as a gateway responder in this dialect."""
    steps = _index_steps(episodes)

    def responder(request: GenerationRequest, seed: Optional[int], n: int):
        step = steps[request.tag]
        action = policy(step, request)
        text = dialect.render_response(
            action,
            thought=f"considering step {step.step_index}" if request.enable_thinking
                     and dialect.supports_thought else None,
            conclusion=f"did-{step.step_index}" if dialect.supports_thought else None,
            dims=step.observation.dims,
        )
        return [text] * n if n > 1 else text

    return responder


def make_noisy_responder(episodes: Sequence[Episode], dialect: Dialect):
    """Oracle with seeded spatial jitter (a standard deviation of 25
    per-mille) and a wrong answer one time in five."""
    import hashlib
    from dataclasses import replace

    steps = _index_steps(episodes)

    def responder(request: GenerationRequest, seed: Optional[int], n: int):
        step = steps[request.tag]
        out = []
        for j in range(n):
            digest = hashlib.sha256(f"{request.tag}|{seed}|{j}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            action = step.gt_action
            if rng.random() < 0.2:
                action = wrong_action_for(action)
            elif action.point is not None:
                x, y = (min(max(int(v + rng.gauss(0, 25.0)), 0), 1000)
                        for v in (action.point.x, action.point.y))
                action = replace(action, point=Point(x, y))
            out.append(dialect.render_response(
                action, thought=f"sample {j}", conclusion=f"did-{step.step_index}",
                dims=step.observation.dims))
        return out if n > 1 else out[0]

    return responder


def oracle_policy(step: StepTask, request: GenerationRequest) -> Action:
    return step.gt_action


def always_wrong_policy(step: StepTask, request: GenerationRequest) -> Action:
    return wrong_action_for(step.gt_action)


def alternating_policy(step: StepTask, request: GenerationRequest) -> Action:
    """Correct on even step indices, wrong on odd ones."""
    if step.step_index % 2 == 0:
        return step.gt_action
    return wrong_action_for(step.gt_action)


def wrong_at_policy(wrong_steps: set[int]) -> Policy:
    def policy(step: StepTask, request: GenerationRequest) -> Action:
        if step.step_index in wrong_steps:
            return wrong_action_for(step.gt_action)
        return step.gt_action
    return policy


def history_echo_policy(step: StepTask, request: GenerationRequest) -> Action:
    """Correct exactly when the most recent history entry is on-policy.

    Artifact history entries embed the scripted conclusion marker ``did-``;
    reference entries never do. Steps with no history answer correctly.
    """
    text = request.joined_text()
    marker = f"Step {step.step_index}:"
    if step.step_index == 0:
        return step.gt_action
    tail = text.rsplit(marker, maxsplit=1)
    last_entry = tail[-1] if len(tail) > 1 else ""
    first_line = last_entry.split(";", 1)[0]
    if "did-" in first_line:
        return step.gt_action
    return wrong_action_for(step.gt_action)


POLICIES: dict[str, Policy] = {
    "oracle": oracle_policy,
    "wrong": always_wrong_policy,
    "alternating": alternating_policy,
    "history-echo": history_echo_policy,
}
