"""Benchmark data model: episodes, steps, run records, and resumable persistence.

Episode files are line-delimited JSON, one step per line (see
``load_episodes``). Run artifacts are an append-only ``records.jsonl``, the
only list of completed steps, plus a ``manifest.json`` holding the run's
configuration and its hash; re-appending an existing key is a no-op, which
is what makes interrupted runs resumable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar

from .actions import (
    Action,
    ActionKind,
    BBox,
    CLICKABLE_KINDS,
    Point,
    PRESS_BUTTONS,
    SCROLL_DIRECTIONS,
    finite_float,
)
from .errors import ConfigMismatchError, CorruptRecordsError, InputError

RECORDS_FILENAME = "records.jsonl"
MANIFEST_FILENAME = "manifest.json"


@dataclass(frozen=True)
class Observation:
    screenshot_ref: str
    dims: tuple[float, float]
    text_desc: Optional[str] = None

    def __post_init__(self) -> None:
        w, h = self.dims
        if w <= 0 or h <= 0:
            raise ValueError(f"observation dims must be positive, got {self.dims}")


@dataclass(frozen=True)
class StepTask:
    episode_id: str
    step_index: int
    instruction_high: str
    observation: Observation
    gt_action: Action
    instruction_low: Optional[str] = None
    gt_bbox: Optional[BBox] = None

    @property
    def key(self) -> str:
        return step_key(self.episode_id, self.step_index)


@dataclass(frozen=True)
class Episode:
    id: str
    steps: tuple[StepTask, ...]
    app: str = ""
    device: str = ""
    source_benchmark: str = ""
    split: str = ""
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError(f"episode {self.id} has no steps")

    @property
    def truncated(self) -> bool:
        # Episodes without a terminal STOP are legal for step metrics but
        # excluded from episode success.
        return self.steps[-1].gt_action.kind is not ActionKind.STOP

    def __len__(self) -> int:
        return len(self.steps)


def step_key(episode_id: str, step_index: int, round_idx: int = 0, sample: int = 0) -> str:
    if round_idx == 0 and sample == 0:
        return f"{episode_id}/{step_index}"
    return f"{episode_id}/{step_index}/r{round_idx}s{sample}"


@dataclass(frozen=True)
class Rejection:
    line_no: int
    episode_id: Optional[str]
    reason: str


@dataclass
class LoadReport:
    episodes: list[Episode]
    rejections: list[Rejection]

    @property
    def ok(self) -> bool:
        return not self.rejections


# --- episode file decoding -------------------------------------------------

_REQUIRED_FIELDS = (
    "episode_id",
    "step_index",
    "app",
    "device",
    "benchmark",
    "split",
    "instruction_high",
    "screenshot_path",
    "img_w",
    "img_h",
    "gt_kind",
    "gt_params",
)

_KNOWN_FIELDS = set(_REQUIRED_FIELDS) | {"instruction_low", "screen_desc", "gt_bbox"}


def _exact_int(value: object) -> int:
    """A coordinate as written: an int, an integral float or an integer
    string. A fraction or a boolean is a ``ValueError``, not truncated."""
    if isinstance(value, bool):
        raise ValueError(f"coordinate {value!r} is a boolean")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"coordinate {value!r} is not finite")
        if not value.is_integer():
            raise ValueError(f"coordinate {value!r} is not an integer")
    return int(value)


def _exact_point(pair: Sequence) -> Point:
    return Point(_exact_int(pair[0]), _exact_int(pair[1]))


def decode_action(kind_name: str, params: dict,
                  point: Callable[[Sequence], Point] = _exact_point) -> Action:
    """An action from its kind name and parameter dict, the episode-file grammar.

    ``point`` turns the ``[x, y]`` pair into a Point. The default takes each
    coordinate as an exact integer and lets the Point reject it when out of range;
    a dialect decoding model output passes a rule that rounds and clamps.
    """
    try:
        kind = ActionKind(kind_name)
    except ValueError:
        raise ValueError(f"unknown gt_kind {kind_name!r}")
    if kind in (ActionKind.CLICK, ActionKind.LONG_PRESS, ActionKind.SCROLL):
        pair = params.get("point")
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValueError(f"{kind.value} gt_params requires point=[x,y]")
        pt = point(pair)
        if kind is ActionKind.SCROLL:
            direction = params.get("to")
            if direction not in SCROLL_DIRECTIONS:
                raise ValueError(f"SCROLL gt_params requires to in {SCROLL_DIRECTIONS}")
            return Action(kind, point=pt, direction=direction)
        return Action(kind, point=pt, duration=decode_duration(params.get("duration")))
    if kind is ActionKind.TYPE:
        if "input" not in params:
            raise ValueError("TYPE gt_params requires input")
        return Action(kind, text=str(params["input"]), submit=bool(params.get("submit", False)))
    if kind is ActionKind.OPEN:
        if not params.get("app"):
            raise ValueError("OPEN gt_params requires app")
        return Action(kind, app=str(params["app"]))
    if kind is ActionKind.PRESS:
        button = params.get("press")
        if button not in PRESS_BUTTONS:
            raise ValueError(f"PRESS gt_params requires press in {PRESS_BUTTONS}")
        return Action(kind, button=button)
    if kind is ActionKind.WAIT:
        return Action(kind, duration=decode_duration(params.get("duration")))
    return Action(kind, status=str(params.get("status", "finish")))


def decode_duration(value: object) -> Optional[float]:
    """An optional duration, as a finite float."""
    return None if value is None else finite_float(value)


def decode_bbox(raw: dict) -> BBox:
    """A ``gt_bbox`` object; coordinates are read like ``point``'s."""
    try:
        return BBox(*(_exact_int(raw[k]) for k in ("x1", "y1", "x2", "y2")))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed gt_bbox: {exc}")


def encode_gt_params(action: Action) -> dict:
    """Inverse of ``decode_action``; used when writing episode files."""
    k = action.kind
    if k in (ActionKind.CLICK, ActionKind.LONG_PRESS):
        params: dict[str, Any] = {"point": [action.point.x, action.point.y]}
        if action.duration is not None:
            params["duration"] = action.duration
        return params
    if k is ActionKind.SCROLL:
        return {"point": [action.point.x, action.point.y], "to": action.direction}
    if k is ActionKind.TYPE:
        params = {"input": action.text}
        if action.submit:
            params["submit"] = True
        return params
    if k is ActionKind.OPEN:
        return {"app": action.app}
    if k is ActionKind.PRESS:
        return {"press": action.button}
    if k is ActionKind.WAIT:
        return {"duration": action.duration} if action.duration is not None else {}
    return {"status": action.status}


def _decode_step(rec: dict, base_dir: Path, check_screenshots: bool) -> StepTask:
    missing = [f for f in _REQUIRED_FIELDS if f not in rec]
    if missing:
        raise ValueError(f"missing fields: {', '.join(missing)}")

    screenshot = str(rec["screenshot_path"])
    resolved = Path(screenshot)
    if not resolved.is_absolute():
        resolved = base_dir / resolved
    if check_screenshots and not resolved.exists():
        raise ValueError(f"screenshot not resolvable: {screenshot}")

    gt_action = decode_action(str(rec["gt_kind"]), rec.get("gt_params") or {})

    gt_bbox = None
    if rec.get("gt_bbox") is not None:
        gt_bbox = decode_bbox(rec["gt_bbox"])
        if gt_action.kind not in CLICKABLE_KINDS:
            raise ValueError(f"gt_bbox present for non-clickable kind {gt_action.kind.value}")

    return StepTask(
        episode_id=str(rec["episode_id"]),
        step_index=int(rec["step_index"]),
        instruction_high=str(rec["instruction_high"]),
        instruction_low=rec.get("instruction_low"),
        observation=Observation(
            screenshot_ref=str(resolved),
            dims=(finite_float(rec["img_w"]), finite_float(rec["img_h"])),
            text_desc=rec.get("screen_desc"),
        ),
        gt_action=gt_action,
        gt_bbox=gt_bbox,
    )


def load_episodes(path: str | Path, check_screenshots: bool = True) -> LoadReport:
    """Load and validate a line-delimited episode file.

    Invalid records are collected into the rejection report with their line
    numbers, never silently dropped. An episode is rejected as a whole when
    any of its step records is invalid or its step indices are not
    contiguous from zero. A file that cannot be opened raises
    ``InputError`` naming it.
    """
    path = Path(path)
    base_dir = path.parent

    steps_by_episode: dict[str, list[StepTask]] = {}
    meta_by_episode: dict[str, dict] = {}
    rejections: list[Rejection] = []
    poisoned: set[str] = set()

    try:
        fh = path.open("rb")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    with fh:
        for line_no, line in enumerate(fh, start=1):
            episode_id: Optional[str] = None
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("record is not an object")
                episode_id = rec.get("episode_id")
                step = _decode_step(rec, base_dir, check_screenshots)
            except (json.JSONDecodeError, ValueError, TypeError, KeyError,
                    OverflowError) as exc:
                rejections.append(Rejection(line_no, episode_id, str(exc)))
                if episode_id is not None:
                    poisoned.add(str(episode_id))
                continue
            steps_by_episode.setdefault(step.episode_id, []).append(step)
            meta_by_episode.setdefault(
                step.episode_id,
                {
                    "app": str(rec["app"]),
                    "device": str(rec["device"]),
                    "benchmark": str(rec["benchmark"]),
                    "split": str(rec["split"]),
                    # Unknown fields are preserved opaquely.
                    "extra": {k: v for k, v in rec.items() if k not in _KNOWN_FIELDS},
                },
            )

    episodes: list[Episode] = []
    for eid, steps in steps_by_episode.items():
        if eid in poisoned:
            rejections.append(Rejection(0, eid, "episode dropped: sibling step rejected"))
            continue
        steps.sort(key=lambda s: s.step_index)
        indices = [s.step_index for s in steps]
        if indices != list(range(len(steps))):
            rejections.append(Rejection(0, eid, f"non-contiguous steps: {indices}"))
            continue
        meta = meta_by_episode[eid]
        episodes.append(
            Episode(
                id=eid,
                steps=tuple(steps),
                app=meta["app"],
                device=meta["device"],
                source_benchmark=meta["benchmark"],
                split=meta["split"],
                extra=meta["extra"],
            )
        )
    episodes.sort(key=lambda e: e.id)
    return LoadReport(episodes=episodes, rejections=rejections)


def write_episodes(episodes: Iterable[Episode], path: str | Path) -> None:
    """Serialize episodes back to the canonical line-delimited form."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for ep in episodes:
            for st in ep.steps:
                rec: dict[str, Any] = {
                    "episode_id": ep.id,
                    "step_index": st.step_index,
                    "app": ep.app,
                    "device": ep.device,
                    "benchmark": ep.source_benchmark,
                    "split": ep.split,
                    "instruction_high": st.instruction_high,
                    "screenshot_path": st.observation.screenshot_ref,
                    "img_w": st.observation.dims[0],
                    "img_h": st.observation.dims[1],
                    "gt_kind": st.gt_action.kind.value,
                    "gt_params": encode_gt_params(st.gt_action),
                }
                if st.instruction_low is not None:
                    rec["instruction_low"] = st.instruction_low
                if st.observation.text_desc is not None:
                    rec["screen_desc"] = st.observation.text_desc
                if st.gt_bbox is not None:
                    rec["gt_bbox"] = asdict(st.gt_bbox)
                rec.update(ep.extra)
                fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


T = TypeVar("T")


def read_jsonl(path: str | Path, decode: Callable[[dict], T]) -> list[T]:
    """``decode`` applied to each object of a JSONL file, skipping blank lines.

    A file that cannot be opened raises ``InputError`` naming it; a line that
    is not UTF-8, is not a JSON object, or that ``decode`` rejects with a
    ValueError, TypeError or KeyError, raises ``InputError`` naming the file
    and line.
    """
    out: list[T] = []
    try:
        fh = Path(path).open("rb")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    with fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8")
                if not line.strip():
                    continue
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("line is not a JSON object")
                out.append(decode(obj))
            except KeyError as exc:
                raise InputError(f"{path}:{line_no}: missing field {exc}") from None
            except (ValueError, TypeError) as exc:
                raise InputError(f"{path}:{line_no}: {exc}") from None
    return out


# --- run records -----------------------------------------------------------


@dataclass
class RunRecord:
    """Per-step prediction, evaluation, and provenance.

    ``prediction`` is the canonical action encoding on success, or None with
    ``failure_reason`` set. ``history_sources`` marks, per history position,
    whether the entry shown to the model was on-policy (True) or reference.
    """

    key: str
    episode_id: str
    step_index: int
    episode_length: int
    raw_response: str
    prediction: Optional[str] = None
    # Structured mirror of `prediction`, decodable without dialect context.
    pred_kind: Optional[str] = None
    pred_params: Optional[dict] = None
    thought: Optional[str] = None
    conclusion: Optional[str] = None
    failure_reason: Optional[str] = None
    evaluation: Optional[dict] = None
    history_sources: Optional[list[bool]] = None
    seed: Optional[int] = None
    round: int = 0
    sample: int = 0
    benchmark: str = ""

    def to_json(self) -> str:
        payload = {k: v for k, v in self.__dict__.items() if v is not None}
        return json.dumps(payload, ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_json(cls, data: str) -> "RunRecord":
        raw = json.loads(data)
        return cls(**raw)


def prediction_fields(action: Optional[Action]) -> dict:
    """Record fields for a parsed prediction (or a parse failure)."""
    if action is None:
        return {"prediction": None, "pred_kind": None, "pred_params": None}
    return {
        "prediction": action.encode(),
        "pred_kind": action.kind.value,
        "pred_params": encode_gt_params(action),
    }


def decode_prediction(record: "RunRecord") -> Optional[Action]:
    if record.pred_kind is None:
        return None
    return decode_action(record.pred_kind, record.pred_params or {})


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class RunWriter:
    """Append-only, resume-safe record sink for one run directory.

    Appends are serialized through a lock so episode workers may be
    concurrent; each step's records are appended as soon as they exist, in
    completion order, so an interrupted run resumes step by step. When a
    replay ends, ``canonicalize`` puts the file in canonical order, which
    makes it byte-identical to a serial run's. ``records.jsonl`` is the only
    list of completed steps; the manifest names none. Appending a key that
    is already persisted is a no-op. A corrupted trailing line (torn write)
    is detected on open; the file is truncated back to the last valid
    record and a warning is kept.
    A bad line with valid records after it is not a torn write: opening
    raises ``CorruptRecordsError`` naming the file and line, and the file
    is left untouched.

    Opened with a config, the writer writes a new manifest right away,
    ``{"config_hash": ..., **config}``, so an interrupted run resumed under
    another configuration raises ``ConfigMismatchError`` instead of reusing
    records, and one whose manifest is not a JSON object raises ``InputError``.
    """

    def __init__(self, run_dir: str | Path, config: Optional[dict] = None):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.records_path = self.run_dir / RECORDS_FILENAME
        self.manifest_path = self.run_dir / MANIFEST_FILENAME
        self.warnings: list[str] = []
        self._lock = threading.Lock()
        self._config = config or {}
        self._config_hash = config_hash(config) if config is not None else None

        # The manifest is checked first, so that a run dir refused for it
        # keeps its records as they are.
        resumed = self._config_hash is not None and self.manifest_path.exists()
        if resumed:
            stored = _read_manifest(self.manifest_path).get("config_hash")
            if stored is not None and stored != self._config_hash:
                raise ConfigMismatchError(
                    f"run dir {self.run_dir} was produced under a different "
                    f"configuration (hash {stored} != {self._config_hash})"
                )
        existing = self._load_existing()
        self._by_key = {r.key: r for r in existing}
        # The key on each line of the file, in file order.
        self._lines = [r.key for r in existing]
        if self._config_hash is not None and not resumed:
            self.write_manifest()

    def _load_existing(self) -> list[RunRecord]:
        if not self.records_path.exists():
            return []
        records, valid_bytes, warning = _read_records(self.records_path)
        if warning:
            self.warnings.append(warning)
            # Truncate the torn tail so subsequent appends produce valid JSONL.
            with self.records_path.open("r+b") as fh:
                fh.truncate(valid_bytes)
        return records

    @property
    def completed_keys(self) -> frozenset[str]:
        return frozenset(self._by_key)

    def get(self, key: str) -> Optional[RunRecord]:
        """A previously persisted record, or None for unseen keys."""
        return self._by_key.get(key)

    def append(self, record: RunRecord) -> bool:
        """Persist a record; returns False when the key was already stored."""
        with self._lock:
            if record.key in self._by_key:
                return False
            with self.records_path.open("a", encoding="utf-8") as fh:
                fh.write(record.to_json() + "\n")
            self._by_key[record.key] = record
            self._lines.append(record.key)
        return True

    def canonicalize(self, episode_ids: Sequence[str]) -> bool:
        """Put ``records.jsonl`` in canonical order; True if it was rewritten.

        The order is by episode, as in ``episode_ids`` (records of other
        episodes follow, in file order), then round, step and sample. A file
        already in that order is left untouched. Otherwise its lines are
        moved, not re-serialized, into a temporary file that replaces it
        atomically.
        """
        position = {episode_id: i for i, episode_id in enumerate(episode_ids)}

        def rank(key: str) -> tuple[int, int, int, int]:
            r = self._by_key[key]
            return position.get(r.episode_id, len(position)), r.round, r.step_index, r.sample

        with self._lock:
            ranks = [rank(key) for key in self._lines]
            if all(a <= b for a, b in zip(ranks, ranks[1:])):
                return False
            order = sorted(range(len(ranks)), key=ranks.__getitem__)
            with self.records_path.open("rb") as fh:
                lines = fh.readlines()
            if len(lines) != len(order):
                raise CorruptRecordsError(f"{self.records_path} changed while it was open")
            tmp = self.records_path.with_name(self.records_path.name + ".tmp")
            with tmp.open("wb") as fh:
                fh.writelines(lines[i] for i in order)
            os.replace(tmp, self.records_path)
            self._lines = [self._lines[i] for i in order]
        return True

    def write_manifest(self, extra: Optional[dict] = None) -> None:
        manifest = {"config_hash": self._config_hash, **self._config, **(extra or {})}
        tmp = self.manifest_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=1),
                       encoding="utf-8")
        tmp.replace(self.manifest_path)


def _read_records(path: Path) -> tuple[list[RunRecord], int, Optional[str]]:
    """(records, bytes up to the first bad line, warning about a torn tail).

    Bad lines are tolerated only as the file's tail, where a torn write
    leaves them; a bad line followed by a valid record raises
    ``CorruptRecordsError``.
    """
    records: list[RunRecord] = []
    valid_bytes = 0
    bad_line_no = None
    with path.open("rb") as fh:
        for line_no, raw_line in enumerate(fh, start=1):
            try:
                text = raw_line.decode("utf-8")
                if not text.endswith("\n"):
                    raise ValueError("unterminated line")
                record = RunRecord.from_json(text)
            except (UnicodeDecodeError, ValueError, TypeError, KeyError):
                if bad_line_no is None:
                    bad_line_no = line_no
                continue
            if bad_line_no is not None:
                raise CorruptRecordsError(
                    f"{path}: corrupt record at line {bad_line_no} is followed "
                    f"by a valid record at line {line_no}; not a torn write, "
                    f"so the file is left as it is"
                )
            records.append(record)
            valid_bytes += len(raw_line)
    warning = None
    if bad_line_no is not None:
        warning = f"truncated corrupt record at line {bad_line_no} of {path.name}"
    return records, valid_bytes, warning


def load_run(run_dir: str | Path) -> tuple[list[RunRecord], Optional[dict], list[str]]:
    """Read back a run directory: (records, manifest, warnings)."""
    run_dir = Path(run_dir)
    warnings: list[str] = []
    records_path = run_dir / RECORDS_FILENAME
    records: list[RunRecord] = []
    if records_path.exists():
        records, _, warning = _read_records(records_path)
        if warning:
            warnings.append(warning)
    manifest_path = run_dir / MANIFEST_FILENAME
    manifest = _read_manifest(manifest_path) if manifest_path.exists() else None
    return records, manifest, warnings


def _read_manifest(path: Path) -> dict:
    """A run dir's manifest; one that is not a JSON object raises ``InputError``."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise InputError(f"{path}: not a JSON object")
    return manifest
