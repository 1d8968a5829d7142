"""Generated documents, command lines and forests.

The parsers may refuse a document only with ModelError, and every CLI
command on generated model, placement and block files must end in one
of the defined exit codes. On generated forests with wide nodes, the
solvers must agree with one another, with the oracles and with the
Gale-Ryser feasibility test. The runs are derandomized and bounded so
that they stay a few seconds of the tier-1 suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fdplace.cli import main  # noqa: E402
from fdplace.errors import GuardLimitError, InfeasibleError, ModelError  # noqa: E402
from fdplace.metrics import (  # noqa: E402
    failure_aggregate,
    multi_aggregate,
    parse_multi_placement,
    parse_placement,
)
from fdplace.model import parse_model  # noqa: E402
from fdplace.multi import solve_multi  # noqa: E402
from fdplace.oracle import check_balanced, oracle_multi, oracle_single  # noqa: E402
from fdplace.single import solve_basic, solve_fast, solve_greedy  # noqa: E402

from lemmas import sizes_fit  # noqa: E402

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

IDS = st.sampled_from(["n0", "n1", "n2", "n3", "n4", "n5", "n6", "x", ""])
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.just(10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    IDS,
    st.text(max_size=4),
)
ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _nodes(draw, parents):
    """Node entries n0, n1, ... below the given parent positions (None
    for a root); exactly the childless nodes carry a capacity of 1 to 3."""
    nodes = []
    for i, parent in enumerate(parents):
        entry = {"id": f"n{i}", "parent": None if parent is None else f"n{parent}"}
        if i not in parents:
            entry["capacity"] = draw(st.integers(1, 3))
        nodes.append(entry)
    return nodes


@st.composite
def forests(draw):
    """A valid model: node i hangs below an earlier node or is a root."""
    n = draw(st.integers(1, 7))
    parents = [None] + [draw(st.none() | st.integers(0, i - 1)) for i in range(1, n)]
    return {"nodes": _nodes(draw, parents)}


NODE_ENTRIES = st.one_of(
    st.fixed_dictionaries(
        {"id": IDS, "parent": st.none() | IDS}, optional={"capacity": st.integers(1, 3) | SCALARS}
    ),
    st.dictionaries(st.sampled_from(["id", "parent", "capacity", "weight"]), SCALARS, max_size=4),
    ANY_JSON,
)
# Mostly well-formed documents, so that most requests reach a solver.
MODELS = st.one_of(
    forests(),
    forests(),
    forests(),
    st.fixed_dictionaries({"nodes": st.lists(NODE_ENTRIES, max_size=7)}),
    ANY_JSON,
)
LEAVES = st.lists(IDS, max_size=5, unique=True)
JUNK_LEAVES = st.lists(IDS | SCALARS, max_size=5)
PLACEMENTS = st.one_of(
    st.fixed_dictionaries({"leaves": LEAVES}),
    st.fixed_dictionaries({"leaves": LEAVES}),
    st.fixed_dictionaries({"leaves": JUNK_LEAVES}),
    ANY_JSON,
)
BLOCKS = st.one_of(
    st.fixed_dictionaries({"blocks": st.lists(LEAVES, max_size=3)}),
    st.fixed_dictionaries({"blocks": st.lists(LEAVES, max_size=3)}),
    st.fixed_dictionaries({"blocks": st.lists(JUNK_LEAVES | SCALARS, max_size=3)}),
    ANY_JSON,
)


def texts(documents):
    """JSON renderings of documents, more often than arbitrary text."""
    rendered = documents.map(json.dumps)
    return st.one_of(rendered, rendered, rendered, st.text(max_size=40))


def _splice(data: bytes, at: int, junk: bytes) -> bytes:
    at %= len(data) + 1
    return data[:at] + junk + data[at:]


def files(documents):
    """Bytes for a file: mostly a rendered document, else one with a
    byte or two spliced in (often not UTF-8), else raw bytes."""
    encoded = texts(documents).map(str.encode)
    junk = st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\x00", b'"', b"[", b"}", b",", b"-"])
    spliced = st.builds(_splice, encoded, st.integers(0, 60), junk)
    return st.one_of(encoded, encoded, encoded, spliced, st.binary(max_size=40))


@FUZZ
@given(text=texts(MODELS | PLACEMENTS | BLOCKS))
def test_parsers_refuse_only_with_model_error(text):
    for parse in (parse_model, parse_placement, parse_multi_placement):
        try:
            parse(text)
        except ModelError:
            pass


COMMANDS = st.sampled_from(
    [
        "solve-single",
        "solve-multi",
        "eval-placement",
        "eval-blocks",
        "check",
        "oracle-single",
        "oracle-multi",
    ]
)


@FUZZ
@given(
    model=files(MODELS),
    placement=files(PLACEMENTS),
    blocks=files(BLOCKS),
    command=COMMANDS,
    algorithm=st.sampled_from(["fast", "basic", "greedy"]),
    rho=st.integers(-1, 8),
    sizes=st.lists(st.integers(-1, 4), max_size=3),
    with_rho=st.booleans(),
)
def test_cli_exits_with_a_defined_code(
    model, placement, blocks, command, algorithm, rho, sizes, with_rho
):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        paths = {}
        for name, data in (("model", model), ("placement", placement), ("blocks", blocks)):
            paths[name] = str(root / f"{name}.json")
            pathlib.Path(paths[name]).write_bytes(data)
        sizes_arg = "--sizes=" + ",".join(map(str, sizes))
        argv = {
            "solve-single": [
                "solve-single", paths["model"], f"--rho={rho}", "--algorithm", algorithm
            ],
            "solve-multi": ["solve-multi", paths["model"], sizes_arg],
            "eval-placement": ["eval", paths["model"], "--placement", paths["placement"]]
            + ([f"--rho={rho}"] if with_rho else []),
            "eval-blocks": ["eval", paths["model"], "--blocks", paths["blocks"]],
            "check": ["check", paths["model"], "--placement", paths["placement"]],
            "oracle-single": ["oracle-single", paths["model"], f"--rho={rho}"],
            "oracle-multi": ["oracle-multi", paths["model"], sizes_arg],
        }[command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 2, 3, 4), argv


# Where the next node of a wide forest hangs, relative to the node before
# it; "beside" is the most common, so that fan-outs reach about 40.
MOVES = st.sampled_from(["below", "beside", "beside", "beside", "beside", "up", "earlier", "root"])


@st.composite
def wide_forests(draw):
    """A valid model of up to 60 nodes in file order. Each node hangs
    below the node before it, beside it (the same parent), below that
    node's grandparent, below any earlier node, or starts a new root.
    Runs of "beside" make wide nodes; "below" then "up" hangs a rack
    under a node, so a wide node's racks can come before its own
    servers."""
    n = draw(st.integers(1, 60))
    parents: list[int | None] = [None]
    for i in range(1, n):
        move, prev = draw(MOVES), parents[i - 1]
        if move == "below":
            parents.append(i - 1)
        elif move == "beside":
            parents.append(prev)
        elif move == "up":
            parents.append(None if prev is None else parents[prev])
        elif move == "earlier":
            parents.append(draw(st.integers(0, i - 1)))
        else:
            parents.append(None)
    return parse_model(json.dumps({"nodes": _nodes(draw, parents)}))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    model=wide_forests(),
    pick=st.integers(1, 4) | st.integers(1, 60),
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
)
def test_solvers_agree_on_wide_forests(model, pick, sizes):
    rho = min(pick, model.tree.leaf_total)
    agg, placement = solve_fast(model, rho)
    assert solve_basic(model, rho) == (agg, placement)
    assert solve_greedy(model, rho)[0] == agg
    assert failure_aggregate(model, placement, rho) == agg
    assert check_balanced(model, placement) == []
    try:
        best, optima = oracle_single(model, rho, guard=20_000)
    except GuardLimitError:
        pass
    else:
        assert best == agg and placement in optima

    capacities = [c for c in model.tree.capacity if c]
    try:
        multi, blocks = solve_multi(model, sizes)
    except InfeasibleError:
        assert not sizes_fit(capacities, sizes)
        return
    assert sizes_fit(capacities, sizes)
    assert multi_aggregate(model, blocks) == multi
    try:
        assert oracle_multi(model, sizes, guard=20_000)[0] == multi
    except GuardLimitError:
        pass
