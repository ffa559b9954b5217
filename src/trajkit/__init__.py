"""trajkit: replay-based evaluation harness for GUI agents."""

__version__ = "0.1.0"

# Each public name is loaded from its module on first access (PEP 562), so
# ``import trajkit`` and the CLI's start load no engine module.
_MODULE_OF = {
    **dict.fromkeys(("Action", "ActionKind", "BBox", "Point", "normalize_point",
                     "derive_scroll_direction", "spatial_distance"), "actions"),
    **dict.fromkeys(("ParsedResponse", "get_dialect", "dialect_ids"), "dialects"),
    **dict.fromkeys(("StepEvaluation", "EvalPolicy", "evaluate_step", "aggregate",
                     "stratify_by_horizon"), "evaluate"),
    **dict.fromkeys(("Episode", "StepTask", "RunRecord", "RunWriter", "LoadReport",
                     "load_episodes"), "store"),
}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
