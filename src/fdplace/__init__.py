"""Lexicographically optimal replica placement on failure-domain trees.

The package root exposes solving, evaluation and parsing. Internals
such as the labeling and selection helpers, the plan nodes, the merge
kernel and the lemma helpers stay importable from their own modules.
"""

from __future__ import annotations

from .errors import GuardLimitError, InfeasibleError, ModelError, SkewOverrideError
from .generate import random_model
from .metrics import (
    FailureAggregate,
    MultiPlacement,
    Placement,
    failure_aggregate,
    multi_aggregate,
    parse_multi_placement,
    parse_placement,
)
from .model import FailureModel, parse_model, render_model
from .multi import solve_multi
from .oracle import check_balanced, oracle_multi, oracle_single
from .single import solve_basic, solve_fast, solve_greedy

__version__ = "0.1.0"

__all__ = [
    "FailureAggregate",
    "FailureModel",
    "GuardLimitError",
    "InfeasibleError",
    "ModelError",
    "MultiPlacement",
    "Placement",
    "SkewOverrideError",
    "check_balanced",
    "failure_aggregate",
    "multi_aggregate",
    "oracle_multi",
    "oracle_single",
    "parse_model",
    "parse_multi_placement",
    "parse_placement",
    "random_model",
    "render_model",
    "solve_basic",
    "solve_fast",
    "solve_greedy",
    "solve_multi",
]
