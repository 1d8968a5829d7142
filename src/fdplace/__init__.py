"""Lexicographically optimal replica placement on failure-domain trees.

The package root exposes solving, evaluation and parsing. Internals
such as the labeling and selection helpers, the merge kernel and the
lemma helpers stay importable from their own modules.

Apart from the exception types, each name loads its module on first
use (PEP 562), so `import fdplace` and the CLI import only what they
run.
"""

from __future__ import annotations

from .errors import GuardLimitError, InfeasibleError, ModelError, SkewOverrideError

__version__ = "0.1.0"

# The module that defines each name __getattr__ loads.
_HOMES = {
    "random_model": "generate",
    "FailureAggregate": "metrics",
    "MultiPlacement": "metrics",
    "Placement": "metrics",
    "failure_aggregate": "metrics",
    "multi_aggregate": "metrics",
    "parse_multi_placement": "metrics",
    "parse_placement": "metrics",
    "FailureModel": "model",
    "parse_model": "model",
    "render_model": "model",
    "solve_multi": "multi",
    "check_balanced": "oracle",
    "oracle_multi": "oracle",
    "oracle_single": "oracle",
    "solve_basic": "single",
    "solve_fast": "single",
    "solve_greedy": "single",
}

__all__ = sorted(
    [*_HOMES, "GuardLimitError", "InfeasibleError", "ModelError", "SkewOverrideError"]
)


def __getattr__(name: str) -> object:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
