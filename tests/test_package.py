"""The package root's API, and the bindings the benchmark tracer wraps."""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import fdplace

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_package_root_exposes_the_solving_api():
    assert sorted(fdplace.__all__) == sorted(
        [
            "solve_basic",
            "solve_fast",
            "solve_greedy",
            "solve_multi",
            "oracle_single",
            "oracle_multi",
            "check_balanced",
            "failure_aggregate",
            "multi_aggregate",
            "parse_model",
            "render_model",
            "parse_placement",
            "parse_multi_placement",
            "random_model",
            "FailureModel",
            "FailureAggregate",
            "Placement",
            "MultiPlacement",
            "GuardLimitError",
            "InfeasibleError",
            "ModelError",
            "SkewOverrideError",
        ]
    )
    for name in fdplace.__all__:
        assert getattr(fdplace, name) is not None, name


def test_traced_bindings_resolve():
    # bench/tracer.py replaces each (module, attribute) binding with
    # getattr/setattr, so a binding that disappears breaks traced runs.
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pairs = [(mod, attr) for mod, attr, _name, _count in tracer.REQUEST_WRAPS]
    for module_name, attr in pairs:
        if module_name.split(".")[0] != "fdplace":
            continue
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)
