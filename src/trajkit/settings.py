"""The settings a command reads from its flags and its ``--config`` file, for
``trajkit.cli`` and the command modules (which import this, not ``cli``: under
``python -m trajkit.cli`` that would compile ``cli`` a second time)."""

import argparse
import math
import sys
from typing import Optional

from .errors import InputError

#: ``dialects.dialect_ids()``, written out so that the parser loads no
#: engine module; a test pins it to its source.
DIALECT_IDS = ("plain-json", "thought-action", "xml-toolcall")


def _checked(convert, accept, wanted: str):
    """An argparse type: ``convert(text)``, refused unless ``accept`` holds."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value

    return parse


positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_non_negative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
finite_float = _checked(float, math.isfinite, "a finite number")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_non_negative_float = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                               "a finite number >= 0")
_seed_list = _checked(lambda text: [int(s) for s in text.replace(",", " ").split()], bool,
                      "integers separated by commas")


def _gt_kinds(text: str) -> frozenset:
    from .actions import ActionKind

    try:
        return frozenset(ActionKind(k.strip()) for k in text.split(",") if k.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _dialect_id(text: str) -> str:
    if text not in DIALECT_IDS:
        raise argparse.ArgumentTypeError(
            f"unknown dialect {text!r}; known: {', '.join(DIALECT_IDS)}")
    return text


#: Every setting a ``--config`` file can hold: argparse dest -> (section, or
#: None at top level; key; converter; default). A flag given on the command
#: line wins; ``main`` fills every other dest the command declares from the
#: config, else the default. A config value is converted as its flag's text
#: (a list joined with commas). A None default (all but ``dialect``'s) leaves
#: the value to the engine's own default, or for ``report`` to the run's
#: manifest. An endpoint key is a field of ``EndpointConfig`` or ``SamplingConfig``.
SETTINGS = {
    "benchmark": (None, "benchmark", str, None),
    "dialect": (None, "dialect", _dialect_id, "xml-toolcall"),
    "seed_list": (None, "seed_list", _seed_list, None),
    "endpoint_url": ("endpoint", "base_url", str, None),
    "model": ("endpoint", "model_name", str, None),
    "concurrency": ("endpoint", "max_in_flight", positive_int, None),
    "timeout": ("endpoint", "timeout", finite_float, None),
    "max_retries": ("endpoint", "max_retries", int, None),
    "temperature": ("endpoint", "temperature", finite_float, None),
    "top_p": ("endpoint", "top_p", finite_float, None),
    "top_k": ("endpoint", "top_k", int, None),
    "repetition_penalty": ("endpoint", "repetition_penalty", finite_float, None),
    "presence_penalty": ("endpoint", "presence_penalty", finite_float, None),
    "max_tokens": ("endpoint", "max_tokens", int, None),
    "min_comparable": ("policy", "min_comparable", finite_float, None),
    "exclude_gt_kinds": ("policy", "exclude_gt_kinds", _gt_kinds, None),
    "kappa": ("schedule", "kappa", _positive_float, None),
    "grid": ("schedule", "grid", positive_int, None),
    "samples_per_pair": ("schedule", "samples_per_pair", positive_int, None),
}


def dests(section: str) -> list[str]:
    return [dest for dest, row in SETTINGS.items() if row[0] == section]


def setting_value(dest: str, value, source) -> object:
    """``value`` of ``dest`` read from ``source`` (a config file or a
    manifest), converted as the flag's text would be."""
    section, key, convert, _ = SETTINGS[dest]
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    try:
        return convert(text)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise InputError(f"{source}: {key if section is None else f'{section}.{key}'}: "
                         f"{exc}") from None


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    import yaml

    try:
        with open(path, encoding="utf-8") as fh:
            config = yaml.safe_load(fh) or {}
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from None
    except yaml.YAMLError as exc:
        # yaml's message spans lines: one line keeps the problem and its place.
        mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
        where = f"line {mark.line + 1}, column {mark.column + 1}: " if mark else ""
        raise InputError(f"{path}: {where}{problem or ' '.join(str(exc).split())}") from None
    if not isinstance(config, dict):
        raise InputError(f"{path}: not a mapping of settings")
    return config


def resolve_settings(args) -> None:
    """Fill each setting the command declares and the command line left
    unset: from ``--config``, else from its default."""
    config = _load_config(args.config)
    for dest, (section, key, _, default) in SETTINGS.items():
        if getattr(args, dest, False) is not None:
            continue
        block = config if section is None else config.get(section) or {}
        if not isinstance(block, dict):
            raise InputError(f"{args.config}: {section}: not a mapping of settings")
        value = block.get(key)
        setattr(args, dest, default if value is None else
                setting_value(dest, value, args.config))


def given(args, section: str) -> dict:
    """The settings of ``section`` that the command line or the config set,
    by config key; the engine's defaults fill in the rest."""
    return {key: getattr(args, dest) for dest, (sec, key, _, _) in SETTINGS.items()
            if sec == section and getattr(args, dest) is not None}


def benchmark(args) -> str:
    if not args.benchmark:
        raise InputError("no benchmark given (flag --benchmark or config key)")
    return args.benchmark


def episodes(args, check_screenshots: bool = True):
    from .store import load_episodes

    report = load_episodes(benchmark(args), check_screenshots=check_screenshots)
    if report.rejections:
        print(f"warning: {len(report.rejections)} rejected records", file=sys.stderr)
    return report.episodes
