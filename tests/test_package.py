"""The package root's API, what importing it loads, the bindings the
benchmark tracer wraps, and the helpers that moved out of the package."""

from __future__ import annotations

import fnmatch
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import fdplace

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"

# Run without site (-S), so the interpreter has loaded next to nothing
# before the imports measured. The star import comes last: it loads
# every module.
FOOTPRINT = """
import json, sys
before = set(sys.modules)
import fdplace
root = set(sys.modules) - before
import fdplace.cli
cli = set(sys.modules) - before
lazy = [name for name in fdplace.__all__ if name not in vars(fdplace)]
star = {}
exec("from fdplace import *", star)
print(json.dumps({
    "root": sorted(root), "cli": sorted(cli), "lazy": lazy,
    "dir": dir(fdplace), "star": sorted(name for name in star if name != "__builtins__"),
}))
"""


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


def test_lemma_helpers_live_with_the_tests(request, pytestconfig):
    # The paper's lemma helpers live in tests/lemmas.py: the package
    # defines none of them, and pytest does not collect that module.
    moved = {
        "fdplace.metrics": [
            "lex_cmp",
            "_entries_of",
            "failure_number",
            "failure_numbers",
            "sub_signature",
            "sig_stats",
            "index_extent",
            "shift",
            "path_aggregate",
        ],
        "fdplace.multi": ["band_cell_count"],
    }
    for module_name, names in moved.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert not hasattr(module, name), (module_name, name)
    lemmas = ROOT / "tests" / "lemmas.py"
    assert lemmas.is_file()
    patterns = pytestconfig.getini("python_files")
    assert not any(fnmatch.fnmatch(lemmas.name, pattern) for pattern in patterns)
    assert all(pathlib.Path(item.path).name != lemmas.name for item in request.session.items)


def test_import_footprint():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT], env=env, capture_output=True, text=True, check=True
    ).stdout
    got = json.loads(out)
    # A bare import loads no solver module, and the CLI neither the
    # oracles, the generator nor dataclasses.
    assert {m for m in got["root"] if m.startswith("fdplace")} == {"fdplace", "fdplace.errors"}
    for module in ("dataclasses", "fdplace.oracle", "fdplace.generate"):
        assert module not in got["cli"], module
    # Every name but the exception types loads on first use, and both
    # dir() and a star import see them all.
    errors = {"GuardLimitError", "InfeasibleError", "ModelError", "SkewOverrideError"}
    assert set(got["lazy"]) == set(fdplace.__all__) - errors
    assert set(fdplace.__all__) <= set(got["dir"])
    assert set(got["star"]) == set(fdplace.__all__)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'solve_fastest'"):
        fdplace.solve_fastest
