"""The package root's API, what importing it and each command loads,
the bindings the benchmark tracer wraps, the helpers that moved out of
the package, and the accessors that no caller used."""

from __future__ import annotations

import fnmatch
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import fdplace
from fdplace.model import FailureModel, Node, Tree, postorder
from fdplace.multi import MergeKernel

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
import fdplace.oracle
oracle = set(sys.modules) - before
lazy = [name for name in fdplace.__all__ if name not in vars(fdplace)]
star = {}
exec("from fdplace import *", star)
print(json.dumps({
    "root": sorted(root), "cli": sorted(cli), "oracle": sorted(oracle), "lazy": lazy,
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
            "Signature",
            "signature_of_sizes",
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
    # A bare import loads no solver module, and the CLI neither a
    # solver, the oracles, the generator nor dataclasses. The oracle
    # module loads no solver either: check_balanced needs none.
    assert {m for m in got["root"] if m.startswith("fdplace")} == {"fdplace", "fdplace.errors"}
    for module in ("dataclasses", "fdplace.single", "fdplace.multi", "fdplace.oracle", "fdplace.generate"):
        assert module not in got["cli"], module
    for module in ("fdplace.single", "fdplace.multi"):
        assert module not in got["oracle"], module
    # Every name but the exception types loads on first use, and both
    # dir() and a star import see them all.
    errors = {"GuardLimitError", "InfeasibleError", "ModelError", "SkewOverrideError"}
    assert set(got["lazy"]) == set(fdplace.__all__) - errors
    assert set(fdplace.__all__) <= set(got["dir"])
    assert set(got["star"]) == set(fdplace.__all__)


# Runs one command through cli.main, then prints its exit code and the
# solver modules loaded on the last line.
COMMAND = """
import json, sys
from fdplace import cli
code = cli.main(sys.argv[1:])
solvers = [m for m in ("fdplace.single", "fdplace.multi", "fdplace.oracle") if m in sys.modules]
print(json.dumps([code, solvers]))
"""

FIXTURES = ROOT / "fixtures"
TWO_ROWS, SHARED = str(FIXTURES / "two_rows.json"), str(FIXTURES / "shared_tree.json")


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["eval", TWO_ROWS, "--placement", str(FIXTURES / "two_rows_spread.json")], []),
        (["eval", SHARED, "--blocks", str(FIXTURES / "shared_tree_blocks.json")], []),
        (["check", TWO_ROWS, "--placement", str(FIXTURES / "two_rows_spread.json")], ["fdplace.oracle"]),
        (["solve-single", TWO_ROWS, "--rho", "3"], ["fdplace.single"]),
        (["solve-single", TWO_ROWS, "--rho", "3", "--algorithm", "basic"], ["fdplace.single"]),
        (["solve-single", TWO_ROWS, "--rho", "3", "--algorithm", "greedy"], ["fdplace.single"]),
        (["solve-multi", SHARED, "--sizes", "3,3,2"], ["fdplace.multi"]),
    ],
)
def test_each_command_loads_only_the_solver_it_runs(argv, loaded):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", COMMAND, *argv], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out.splitlines()[-1]) == [0, loaded]


def test_tracer_wraps_the_solvers_the_commands_call():
    # The tracer resolves cli's solver bindings with getattr, which
    # loads their modules, and installs its wrappers with setattr; the
    # solve commands call whatever cli binds, so the spans are recorded.
    import fdplace.cli
    import fdplace.single

    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = tracer.Tracer()
    with traced.installed(tracer.REQUEST_WRAPS):
        assert fdplace.cli.main(["solve-single", TWO_ROWS, "--rho", "3"]) == 0
        assert fdplace.cli.main(["solve-multi", SHARED, "--sizes", "3,3,2"]) == 0
    names = {span[0] for span in traced.spans}
    assert {"single.solve_fast", "multi.solve"} <= names
    assert fdplace.cli.solve_fast is fdplace.single.solve_fast


@pytest.mark.parametrize("algorithm", ["basic", "fast", "greedy"])
def test_solve_single_calls_the_cli_binding_of_its_algorithm(algorithm, monkeypatch, capsys):
    import fdplace.cli

    name = f"solve_{algorithm}"
    real, calls = getattr(fdplace.cli, name), []

    def spy(model, rho):
        calls.append(rho)
        return real(model, rho)

    monkeypatch.setattr(fdplace.cli, name, spy)
    assert fdplace.cli.main(["solve-single", TWO_ROWS, "--rho", "3", "--algorithm", algorithm]) == 0
    assert calls == [3]
    assert json.loads(capsys.readouterr().out)["algorithm"] == algorithm


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'solve_fastest'"):
        fdplace.solve_fastest


def test_unused_accessors_are_gone():
    # Per-node facts are read as model.nodes[id], walks from given
    # starts go through Tree.walk, and each merge the kernel keeps is a
    # census id, its support coming from layouts, which shares no setup
    # with censuses. No solver reads node counts (subtree_stats counts
    # its own), solve_fast collects a filled subtree's leaves in the
    # walk that counts it, and the census domain comes from itertools.
    from fdplace import multi, single

    for name in ("is_leaf", "capacity", "parent", "node_ids"):
        assert not hasattr(FailureModel, name), name
    assert not hasattr(Node, "kind")
    assert not hasattr(Tree, "node_count")
    assert not hasattr(single, "_leaves_below")
    assert not hasattr(multi, "enum_weak_compositions")
    assert list(inspect.signature(postorder).parameters) == ["model"]
    kernel = MergeKernel(2, 1, 8)
    for name in ("support", "merged", "_supports", "_grid"):
        assert not hasattr(kernel, name), name
    assert not hasattr(multi, "Grid")
    # One block holding one replica, merged with one holding none,
    # gives the left census back through a single cell.
    left, right = kernel.intern((0, 1, 0)), kernel.intern((0, 0, 1))
    assert left in kernel.merges(left, right)
    assert kernel.layouts(left, right) == [(((1, 2, 1),), (0, 1, 0))]


def test_rank_selection_is_gone():
    # solve_fast and solve_basic rank by sorting or counting: the
    # introselect and its pivot helpers are deleted, and no source file
    # names them.
    from fdplace import single

    names = ("nth_smallest", "_sample_pivot", "_median_pivot")
    for name in names:
        assert not hasattr(single, name), name
    for path in sorted((ROOT / "src" / "fdplace").glob("*.py")):
        text = path.read_text()
        assert not any(name in text for name in names), path.name


def test_bulk_entry_checks_are_gone():
    # parse_model checks the node entries in one loop: the whole-list
    # pre-check and the loop it fell back on are deleted, and no source
    # file names them.
    from fdplace import model

    names = ("_bulk_entries", "_checked_entries")
    for name in names:
        assert not hasattr(model, name), name
    for path in sorted((ROOT / "src" / "fdplace").glob("*.py")):
        text = path.read_text()
        assert not any(name in text for name in names), path.name
