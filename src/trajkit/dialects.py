"""Prompt-dialect codecs: decode model responses into actions, render history.

Three dialects are supported (see ``docs/dialects.md`` for grammar sketches):

* ``xml-toolcall``   -- reasoning in ``<thinking>`` tags, a JSON tool call in
  ``<tool_call>`` tags, a summary in ``<conclusion>`` tags. Coordinates are
  native image pixels and get rescaled to per-mille on decode.
* ``thought-action`` -- ``Thought: ...`` / ``Action: name(arg='v')`` lines
  with box-token coordinates already in per-mille space.
* ``plain-json``     -- a bare JSON object in canonical action form; no
  reasoning channel.

Parsing is total: any input yields either an action or a typed failure
(``no-action``, ``bad-params``, ``unsupported``); nothing escapes the step.
``Dialect.parse_response`` is the one place a failure is assigned; each
dialect only decodes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional, Union

from .actions import (
    Action,
    ActionKind,
    Point,
    SCROLL_DIRECTIONS,
    derive_scroll_direction,
    finite_float,
    normalize_point,
)
from .store import Observation, decode_action, decode_duration, encode_gt_params

FAILURE_NO_ACTION = "no-action"
FAILURE_BAD_PARAMS = "bad-params"
FAILURE_UNSUPPORTED = "unsupported"

PERMILLE_DIMS = (1000.0, 1000.0)


class UnrepresentableActionError(ValueError):
    """The dialect has no encoding for this action kind."""


class UnsupportedFeatureError(ValueError):
    """The dialect does not implement the requested feature."""


class _NoAction(Exception):
    """The response holds no decodable call; the args are warnings."""


@dataclass
class ParsedResponse:
    """Decoded model output: optional reasoning fields plus action-or-failure."""

    raw: str
    action: Optional[Action] = None
    failure: Optional[str] = None
    thought: Optional[str] = None
    conclusion: Optional[str] = None
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.action is not None

    @property
    def recognized(self) -> bool:
        # A recognized action name keeps the step comparable under the 95%
        # rule even when its parameters were malformed.
        return self.ok or self.failure == FAILURE_BAD_PARAMS


@dataclass(frozen=True)
class ReferenceEntry:
    """Ground-truth history entry: the reference action at a past step."""

    index: int
    action: Action
    observation: Optional[Observation] = None


@dataclass(frozen=True)
class ArtifactEntry:
    """On-policy history entry: the model's own matched step artifacts."""

    index: int
    action: Action
    thought: Optional[str] = None
    conclusion: Optional[str] = None
    observation: Optional[Observation] = None


HistoryEntry = Union[ReferenceEntry, ArtifactEntry]


def _escape_single(value: str) -> str:
    return value.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n")


def _unescape(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "t": "\t", "'": "'", '"': '"', "\\": "\\"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _to_pair(value: object) -> tuple[float, float]:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError(f"expected [x, y], got {value!r}")
    return finite_float(value[0]), finite_float(value[1])


class Dialect:
    """Base dialect: identity, action support, and codec entry points."""

    id: str = ""
    action_support: frozenset[ActionKind] = frozenset()
    supports_thought: bool = False

    # -- decoding ------------------------------------------------------------

    def parse_response(self, text: str, dims: tuple[float, float] = PERMILLE_DIMS) -> ParsedResponse:
        """``text`` decoded into an action, or into the failure that stopped
        ``_decode``: ``_NoAction`` is ``no-action``, a call name outside the
        unified space (``UnrepresentableActionError``) is ``unsupported``, and
        any other ValueError (``AmbiguousGestureError``, a number that is not
        finite), TypeError or KeyError is ``bad-params``."""
        resp = ParsedResponse(raw=text)
        try:
            resp.action = self._decode(text, dims, resp)
        except _NoAction as exc:
            resp.failure = FAILURE_NO_ACTION
            resp.warnings.extend(exc.args)
        except UnrepresentableActionError as exc:
            resp.failure = FAILURE_UNSUPPORTED
            resp.warnings.append(f"unknown action name {exc.args[0]!r}")
        except (ValueError, TypeError, KeyError) as exc:
            resp.failure = FAILURE_BAD_PARAMS
            resp.warnings.append(str(exc))
        return resp

    def _decode(self, text: str, dims: tuple[float, float], resp: ParsedResponse) -> Action:
        """The action of ``text``; sets ``resp``'s thought and conclusion and
        appends its warnings."""
        raise NotImplementedError

    # -- encoding ------------------------------------------------------------

    def render_response(self, action: Action, thought: Optional[str] = None,
                        conclusion: Optional[str] = None,
                        dims: tuple[float, float] = PERMILLE_DIMS) -> str:
        raise NotImplementedError

    def render_history_entry(self, entry: HistoryEntry) -> str:
        raise NotImplementedError

    def render_fixed_thought(self, thought: str) -> str:
        raise NotImplementedError

    def _check_supported(self, action: Action) -> None:
        if action.kind not in self.action_support:
            raise UnrepresentableActionError(
                f"dialect {self.id} cannot represent {action.kind.value}"
            )

    # -- prompting -----------------------------------------------------------

    def system_text(self) -> str:
        return "You are a helpful assistant."

    def user_text(self, instruction_high: str, instruction_low: Optional[str],
                  history_text: str, enable_thinking: bool) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# xml-toolcall
# ---------------------------------------------------------------------------

_THINKING_RE = re.compile(r"<thinking>(.*?)</thinking>", re.DOTALL)
_TOOLCALL_RE = re.compile(r"<tool_call>(.*?)</tool_call>", re.DOTALL)
_CONCLUSION_RE = re.compile(r"<conclusion>(.*?)</conclusion>", re.DOTALL)
_BARE_JSON_RE = re.compile(r"\{.*\}", re.DOTALL)

_BUTTON_ALIASES = {
    "enter": "ENTER",
    "back": "BACK",
    "home": "HOME",
}


class XmlToolcallDialect(Dialect):
    """Tagged-XML responses carrying one JSON tool call, pixel coordinates."""

    id = "xml-toolcall"
    action_support = frozenset(ActionKind)
    supports_thought = True

    TOOL_NAME = "mobile_use"

    def _decode(self, text: str, dims: tuple[float, float], resp: ParsedResponse) -> Action:
        m = _THINKING_RE.search(text)
        if m:
            resp.thought = m.group(1).strip()
        m = _CONCLUSION_RE.search(text)
        if m:
            resp.conclusion = m.group(1).strip()

        blocks = _TOOLCALL_RE.findall(text)
        if len(blocks) > 1:
            resp.warnings.append(f"{len(blocks)} tool_call blocks; using the first")
        if blocks:
            payload = blocks[0]
        else:
            # Tag-less fallback: some responses emit the bare call JSON.
            m = _BARE_JSON_RE.search(_strip_tagged(text))
            if not m:
                raise _NoAction()
            payload = m.group(0)
            resp.warnings.append("tool call accepted without <tool_call> tags")

        try:
            obj = json.loads(payload)
        except json.JSONDecodeError:
            raise _NoAction("tool call payload is not valid JSON") from None
        args = obj.get("arguments", obj) if isinstance(obj, dict) else None
        if not isinstance(args, dict) or "action" not in args:
            raise _NoAction()
        return self._decode_call(str(args["action"]), args, dims, resp.warnings)

    def _decode_call(self, name: str, args: dict, dims: tuple[float, float],
                     warnings: list[str]) -> Action:
        if name == "click":
            return Action(ActionKind.CLICK,
                          point=normalize_point(_to_pair(args.get("coordinate")), dims, warnings))
        if name == "long_press":
            return Action(ActionKind.LONG_PRESS,
                          point=normalize_point(_to_pair(args.get("coordinate")), dims, warnings),
                          duration=decode_duration(args.get("time")))
        if name == "swipe":
            start = normalize_point(_to_pair(args.get("coordinate")), dims, warnings)
            end = normalize_point(_to_pair(args.get("coordinate2")), dims, warnings)
            return Action(ActionKind.SCROLL, point=start,
                          direction=derive_scroll_direction(start, end))
        if name == "type":
            if "text" not in args:
                raise ValueError("type requires text")
            return Action(ActionKind.TYPE, text=str(args["text"]))
        if name == "open":
            app = args.get("text") or args.get("app")
            if not app:
                raise ValueError("open requires an app name")
            return Action(ActionKind.OPEN, app=str(app))
        if name == "system_button":
            button = _BUTTON_ALIASES.get(str(args.get("button", "")).lower())
            if button is None:
                raise ValueError(f"unknown system button {args.get('button')!r}")
            return Action(ActionKind.PRESS, button=button)
        if name == "wait":
            return Action(ActionKind.WAIT, duration=decode_duration(args.get("time")))
        if name == "terminate":
            return Action(ActionKind.STOP, status=str(args.get("status", "finish")))
        raise UnrepresentableActionError(name)

    def _encode_call(self, action: Action, dims: tuple[float, float]) -> dict:
        k = action.kind
        if k is ActionKind.CLICK:
            return {"action": "click", "coordinate": _to_pixels(action.point, dims)}
        if k is ActionKind.LONG_PRESS:
            call: dict = {"action": "long_press", "coordinate": _to_pixels(action.point, dims)}
            if action.duration is not None:
                call["time"] = action.duration
            return call
        if k is ActionKind.SCROLL:
            # Re-synthesize a swipe pair: end point displaced along the
            # direction by a fixed per-mille stride, clamped to the frame.
            start = action.point
            stride = 250
            dx, dy = {"up": (0, -stride), "down": (0, stride),
                      "left": (-stride, 0), "right": (stride, 0)}[action.direction]
            ex = min(max(start.x + dx, 0), 1000)
            ey = min(max(start.y + dy, 0), 1000)
            if (ex, ey) == (start.x, start.y):
                # Start sits on the frame edge with the gesture pointing
                # off-frame; no swipe pair can express it.
                raise ValueError(
                    f"scroll {action.direction} from {start} points off-frame"
                )
            return {"action": "swipe",
                    "coordinate": _to_pixels(start, dims),
                    "coordinate2": _to_pixels(Point(ex, ey), dims)}
        if k is ActionKind.TYPE:
            return {"action": "type", "text": action.text}
        if k is ActionKind.OPEN:
            return {"action": "open", "text": action.app}
        if k is ActionKind.PRESS:
            return {"action": "system_button", "button": action.button.capitalize()}
        if k is ActionKind.WAIT:
            call = {"action": "wait"}
            if action.duration is not None:
                call["time"] = action.duration
            return call
        return {"action": "terminate", "status": action.status}

    def render_response(self, action: Action, thought: Optional[str] = None,
                        conclusion: Optional[str] = None,
                        dims: tuple[float, float] = PERMILLE_DIMS) -> str:
        self._check_supported(action)
        call = {"name": self.TOOL_NAME, "arguments": self._encode_call(action, dims)}
        parts = []
        if thought is not None:
            parts.append(f"<thinking>\n{thought}\n</thinking>")
        parts.append(f"<tool_call>\n{json.dumps(call, ensure_ascii=False)}\n</tool_call>")
        if conclusion is not None:
            parts.append(f"<conclusion>\n{conclusion}\n</conclusion>")
        return "\n".join(parts)

    def render_history_entry(self, entry: HistoryEntry) -> str:
        self._check_supported(entry.action)
        if isinstance(entry, ArtifactEntry) and entry.conclusion:
            body = entry.conclusion
        else:
            body = entry.action.encode()
        return f"Step {entry.index + 1}: {body};"

    def render_fixed_thought(self, thought: str) -> str:
        return f"<thinking>\n{thought}\n</thinking>\n"

    def user_text(self, instruction_high: str, instruction_low: Optional[str],
                  history_text: str, enable_thinking: bool) -> str:
        lines = [f"The user query: \n{instruction_high}"]
        if instruction_low:
            lines.append(f"Current sub-goal: {instruction_low}")
        lines.append(
            "Task progress (You have done the following operation on the "
            f"current device): {history_text}"
        )
        if enable_thinking:
            lines.append(
                "Before answering, explain your reasoning step-by-step in "
                "<thinking></thinking> tags, and insert them before the "
                "<tool_call></tool_call> XML tags."
            )
            lines.append(
                "After answering, summarize your action in "
                "<conclusion></conclusion> tags, and insert them after the "
                "<tool_call></tool_call> XML tags."
            )
        return "\n".join(lines)


def _strip_tagged(text: str) -> str:
    text = _THINKING_RE.sub(" ", text)
    return _CONCLUSION_RE.sub(" ", text)


def _to_pixels(point: Point, dims: tuple[float, float]) -> list[int]:
    w, h = dims
    return [round(point.x / 1000 * w), round(point.y / 1000 * h)]


# ---------------------------------------------------------------------------
# thought-action
# ---------------------------------------------------------------------------

_ACTION_LINE_RE = re.compile(r"^[ \t]*Action:[ \t]*", re.MULTILINE)
_CALL_RE = re.compile(r"\s*(\w+)\((.*)\)\s*$", re.DOTALL)
_ARG_RE = re.compile(r"(\w+)\s*=\s*'((?:\\.|[^'\\])*)'")
_BOX_RE = re.compile(r"\(?\s*(-?\d+(?:\.\d+)?)\s*,\s*(-?\d+(?:\.\d+)?)\s*\)?")

# Call names in the grammar but outside the unified action space.
_FOREIGN_CALLS = frozenset({"drag"})


class ThoughtActionDialect(Dialect):
    """``Thought:``/``Action:`` line grammar with quoted keyword arguments."""

    id = "thought-action"
    action_support = frozenset(ActionKind) - {ActionKind.WAIT}
    supports_thought = True

    def _decode(self, text: str, dims: tuple[float, float], resp: ParsedResponse) -> Action:
        matches = list(_ACTION_LINE_RE.finditer(text))
        if not matches:
            raise _NoAction()
        # A reasoning trace may itself contain "Action:"; pick the first
        # occurrence whose body looks like a call, else fall back to the first.
        chosen = next((m for m in matches if _CALL_RE.match(text[m.end():])), matches[0])

        head = text[: chosen.start()]
        tm = re.search(r"Thought:\s*", head)
        if tm:
            resp.thought = head[tm.end():].strip() or None

        call = _CALL_RE.match(text[chosen.end():])
        if not call:
            raise ValueError("Action line does not contain a call")
        args = {m.group(1): _unescape(m.group(2)) for m in _ARG_RE.finditer(call.group(2))}
        action = self._decode_call(call.group(1), args, resp.warnings)
        if action.kind is ActionKind.STOP:
            # finished(content=...) carries the model's conclusion.
            resp.conclusion = args.get("content") or None
        return action

    def _parse_box(self, value: str, warnings: list[str]) -> Point:
        cleaned = value.replace("<|box_start|>", "").replace("<|box_end|>", "")
        m = _BOX_RE.search(cleaned)
        if not m:
            raise ValueError(f"cannot parse coordinates from {value!r}")
        return normalize_point((float(m.group(1)), float(m.group(2))), PERMILLE_DIMS, warnings)

    def _decode_call(self, name: str, args: dict[str, str], warnings: list[str]) -> Action:
        if name in _FOREIGN_CALLS:
            raise UnrepresentableActionError(name)
        if name == "click":
            return Action(ActionKind.CLICK, point=self._parse_box(args["start_box"], warnings))
        if name == "long_press":
            return Action(ActionKind.LONG_PRESS,
                          point=self._parse_box(args["start_box"], warnings))
        if name == "scroll":
            direction = args.get("direction")
            if direction not in SCROLL_DIRECTIONS:
                raise ValueError(f"scroll direction must be one of {SCROLL_DIRECTIONS}")
            return Action(ActionKind.SCROLL, point=self._parse_box(args["start_box"], warnings),
                          direction=direction)
        if name == "type":
            content = args.get("content")
            if content is None:
                raise ValueError("type requires content")
            submit = content.endswith("\n")
            # The trailing newline is the submit marker, not typed text.
            return Action(ActionKind.TYPE, text=content.rstrip("\n"), submit=submit)
        if name == "open_app":
            app = args.get("app_name")
            if not app:
                raise ValueError("open_app requires app_name")
            return Action(ActionKind.OPEN, app=app)
        if name == "press_home":
            return Action(ActionKind.PRESS, button="HOME")
        if name == "press_back":
            return Action(ActionKind.PRESS, button="BACK")
        if name == "press_enter":
            return Action(ActionKind.PRESS, button="ENTER")
        if name == "finished":
            return Action(ActionKind.STOP, status="finish")
        raise UnrepresentableActionError(name)

    def _encode_call(self, action: Action, conclusion: Optional[str] = None) -> str:
        k = action.kind
        if k in (ActionKind.CLICK, ActionKind.LONG_PRESS):
            name = "click" if k is ActionKind.CLICK else "long_press"
            return (f"{name}(start_box='<|box_start|>({action.point.x},{action.point.y})"
                    f"<|box_end|>')")
        if k is ActionKind.SCROLL:
            return (f"scroll(start_box='<|box_start|>({action.point.x},{action.point.y})"
                    f"<|box_end|>', direction='{action.direction}')")
        if k is ActionKind.TYPE:
            content = action.text + ("\n" if action.submit else "")
            return f"type(content='{_escape_single(content)}')"
        if k is ActionKind.OPEN:
            return f"open_app(app_name='{_escape_single(action.app)}')"
        if k is ActionKind.PRESS:
            return {"HOME": "press_home()", "BACK": "press_back()",
                    "ENTER": "press_enter()"}[action.button]
        if k is ActionKind.STOP:
            if conclusion:
                return f"finished(content='{_escape_single(conclusion)}')"
            return "finished(content='')"
        raise UnrepresentableActionError(f"dialect {self.id} cannot represent {k.value}")

    def render_response(self, action: Action, thought: Optional[str] = None,
                        conclusion: Optional[str] = None,
                        dims: tuple[float, float] = PERMILLE_DIMS) -> str:
        self._check_supported(action)
        call = self._encode_call(action, conclusion)
        if thought is not None:
            return f"Thought: {thought}\nAction: {call}"
        return f"Action: {call}"

    def render_history_entry(self, entry: HistoryEntry) -> str:
        self._check_supported(entry.action)
        call = self._encode_call(
            entry.action, entry.conclusion if isinstance(entry, ArtifactEntry) else None
        )
        if isinstance(entry, ArtifactEntry) and entry.thought:
            return f"Step {entry.index + 1}:\nThought: {entry.thought}\nAction: {call}"
        return f"Step {entry.index + 1}:\nAction: {call}"

    def render_fixed_thought(self, thought: str) -> str:
        return f"Thought: {thought}\nAction:"

    def user_text(self, instruction_high: str, instruction_low: Optional[str],
                  history_text: str, enable_thinking: bool) -> str:
        if enable_thinking:
            output_format = "Thought: ...\nAction: ..."
            note = ("Write a small plan and finally summarize your next action "
                    "(with its target element) in one sentence in `Thought` part.")
        else:
            output_format = "Action: ..."
            note = "Output the action line only."
        sections = [
            "You are a GUI agent. You are given a task and your action history, "
            "with screenshots. You need to perform the next action to complete "
            "the task.",
            f"## Output Format\n```\n{output_format}\n```",
            "## Action Space\n"
            "click(start_box='<|box_start|>(x1,y1)<|box_end|>')\n"
            "long_press(start_box='<|box_start|>(x1,y1)<|box_end|>')\n"
            "type(content='') #If you want to submit your input, use \"\\n\" at "
            "the end of `content`.\n"
            "scroll(start_box='<|box_start|>(x1,y1)<|box_end|>', direction='down "
            "or up or right or left')\n"
            "open_app(app_name='')\n"
            "press_home()\n"
            "press_back()\n"
            "press_enter()\n"
            "finished(content='xxx') # Use escape characters \\', \\\", and \\n "
            "in content part to ensure we can parse the content in normal "
            "python string format.",
            f"## Note\n- {note}",
        ]
        if history_text:
            sections.append(f"## History\n{history_text}")
        sections.append(f"## User Instruction\n{instruction_high}")
        if instruction_low:
            sections.append(f"## Current Sub-goal\n{instruction_low}")
        return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# plain-json
# ---------------------------------------------------------------------------

_KIND_NAMES = frozenset(k.value for k in ActionKind)


class PlainJsonDialect(Dialect):
    """Bare canonical-JSON actions; no reasoning channel."""

    id = "plain-json"
    action_support = frozenset(ActionKind)
    supports_thought = False

    def _decode(self, text: str, dims: tuple[float, float], resp: ParsedResponse) -> Action:
        m = _BARE_JSON_RE.search(text)
        try:
            obj = json.loads(m.group(0)) if m else None
        except json.JSONDecodeError:
            obj = None
        if not isinstance(obj, dict) or "action" not in obj:
            raise _NoAction()
        name = str(obj["action"])
        if name not in _KIND_NAMES:
            raise UnrepresentableActionError(name)

        # The params are the episode-file grammar; only model points are
        # rounded and clamped instead of rejected.
        def point(pair) -> Point:
            return normalize_point(_to_pair(pair), PERMILLE_DIMS, resp.warnings)

        return decode_action(name, obj, point=point)

    def render_response(self, action: Action, thought: Optional[str] = None,
                        conclusion: Optional[str] = None,
                        dims: tuple[float, float] = PERMILLE_DIMS) -> str:
        return json.dumps({"action": action.kind.value, **encode_gt_params(action)},
                          ensure_ascii=False, sort_keys=True)

    def render_history_entry(self, entry: HistoryEntry) -> str:
        self._check_supported(entry.action)
        return f"Step {entry.index + 1}: {entry.action.encode()};"

    def render_fixed_thought(self, thought: str) -> str:
        raise UnsupportedFeatureError("plain-json has no reasoning channel")

    def user_text(self, instruction_high: str, instruction_low: Optional[str],
                  history_text: str, enable_thinking: bool) -> str:
        lines = [
            "Respond with a single JSON object describing the next action, "
            'e.g. {"action": "CLICK", "point": [500, 500]}.',
            f"Task: {instruction_high}",
        ]
        if instruction_low:
            lines.append(f"Sub-goal: {instruction_low}")
        if history_text:
            lines.append(f"Previous steps: {history_text}")
        return "\n".join(lines)


_DIALECTS: dict[str, Dialect] = {
    d.id: d for d in (XmlToolcallDialect(), ThoughtActionDialect(), PlainJsonDialect())
}


def get_dialect(dialect_id: str) -> Dialect:
    try:
        return _DIALECTS[dialect_id]
    except KeyError:
        raise ValueError(f"unknown dialect {dialect_id!r}; known: {sorted(_DIALECTS)}")


def dialect_ids() -> list[str]:
    return sorted(_DIALECTS)
