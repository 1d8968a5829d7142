from __future__ import annotations

import json
import random
import time

import pytest

from fdplace.errors import InfeasibleError, ModelError
from fdplace.generate import random_model
from fdplace.metrics import failure_aggregate
from fdplace.model import parse_model
from fdplace.oracle import check_balanced, oracle_single
from fdplace.single import (
    ChildValuePair,
    label_children,
    nth_smallest,
    select_heavy,
    solve_basic,
    solve_fast,
    solve_greedy,
)

from conftest import load_json


def water_level_split(caps, r):
    """Reference labeling: raise a common level h until the next step
    would overshoot r, fill exactly the children with capacity <= h."""
    top = max(caps)
    h = 0
    while h < top and sum(min(c, h + 1) for c in caps) <= r:
        h += 1
    filled = frozenset(i for i, c in enumerate(caps) if c <= h)
    unfilled = frozenset(i for i, c in enumerate(caps) if c > h)
    remaining = r - sum(caps[i] for i in filled)
    return filled, unfilled, remaining, h


def test_nth_smallest_matches_sorting():
    rng = random.Random(3)
    for _ in range(60):
        items = [rng.randint(0, 20) for _ in range(rng.randint(1, 120))]
        k = rng.randrange(len(items))
        assert nth_smallest(items, k) == sorted(items)[k]


def test_nth_smallest_bounds():
    with pytest.raises(ValueError):
        nth_smallest([1, 2], 2)
    with pytest.raises(ValueError):
        nth_smallest([], 0)
    assert nth_smallest([5], 0) == 5


def test_label_children_uneven_racks():
    spec = load_json("uneven_racks.json")
    caps = spec["capacities"]
    result = label_children(caps, spec["replicas"])
    assert {caps[i] for i in result.filled} == {1, 2, 4}
    assert {caps[i] for i in result.unfilled} == {5, 9, 11}
    assert result.remaining == 13
    assert result.heavy_count == 1
    assert all(v == 4 for v in result.base_assignment.values())
    # Filled capacities stay at or below the shared base; unfilled ones
    # sit strictly above it.
    assert 4 * 3 <= 13 < 5 * 3


def test_label_children_splits_off_small_child():
    # One cap-1 child fills; the rest share 5 replicas at level 1 with
    # two heavies. Filling the cap-2 child instead would push a filled
    # capacity above the base share, which costs optimality.
    result = label_children([4, 3, 2, 1], 6)
    assert result.filled == frozenset({3})
    assert result.unfilled == frozenset({0, 1, 2})
    assert result.remaining == 5
    assert result.heavy_count == 2
    assert all(v == 1 for v in result.base_assignment.values())


def test_label_children_extremes():
    result = label_children([2, 3], 0)
    assert result.filled == frozenset()
    assert result.remaining == 0
    assert result.heavy_count == 0

    result = label_children([2, 3], 5)
    assert result.filled == frozenset({0, 1})
    assert result.unfilled == frozenset()
    assert result.remaining == 0

    result = label_children([7], 3)
    assert result.unfilled == frozenset({0})
    assert result.base_assignment == {0: 3}


def test_label_children_validation():
    with pytest.raises(ModelError):
        label_children([], 1)
    with pytest.raises(ModelError):
        label_children([0, 2], 1)
    with pytest.raises(InfeasibleError):
        label_children([1, 1], 3)
    with pytest.raises(InfeasibleError):
        label_children([1, 1], -1)


def test_label_children_matches_water_level():
    rng = random.Random(19)
    for _ in range(400):
        caps = [rng.randint(1, 12) for _ in range(rng.randint(1, 9))]
        r = rng.randint(0, sum(caps))
        got = label_children(caps, r)
        filled, unfilled, remaining, level = water_level_split(caps, r)
        assert got.filled == filled, (caps, r)
        assert got.unfilled == unfilled, (caps, r)
        assert got.remaining == remaining
        if unfilled:
            base = remaining // len(unfilled)
            assert base == level
            assert got.heavy_count == remaining - base * len(unfilled)
            # Sandwich bounds: every filled capacity fits under the
            # average share, which in turn is below every unfilled cap.
            mx = max((caps[i] for i in filled), default=0)
            assert mx * len(unfilled) <= remaining
            assert remaining < min(caps[i] for i in unfilled) * len(unfilled)
        else:
            assert remaining == 0 and got.heavy_count == 0


def test_select_heavy_matches_sorting():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 10)
        pairs = []
        for _ in range(n):
            light = tuple(rng.randint(0, 3) for _ in range(4))
            bump = tuple(rng.randint(0, 2) for _ in range(4))
            heavy = tuple(l + b for l, b in zip(light, bump))
            pairs.append(ChildValuePair(light=light, heavy=heavy))
        beta = rng.randint(0, n)
        picked = select_heavy(pairs, beta)
        assert len(picked) == beta
        order = sorted(
            range(n),
            key=lambda i: (
                tuple(h - l for l, h in zip(pairs[i].light, pairs[i].heavy)),
                i,
            ),
        )
        assert picked == set(order[:beta])


def test_select_heavy_validation():
    pair = ChildValuePair(light=(0, 1), heavy=(1, 0))
    with pytest.raises(ValueError):
        select_heavy([pair], 2)
    with pytest.raises(ValueError):
        select_heavy([pair], -1)
    assert select_heavy([pair], 0) == set()
    bad = ChildValuePair(light=(0,), heavy=(1, 0))
    with pytest.raises(ValueError):
        select_heavy([bad], 1)


SOLVERS = [solve_basic, solve_fast, solve_greedy]


@pytest.mark.parametrize("solver", SOLVERS)
def test_solvers_on_two_rows(two_rows, solver):
    agg, placement = solver(two_rows, 3)
    assert agg.entries == (0, 1, 7, 7)
    assert failure_aggregate(two_rows, placement, 3).entries == agg.entries
    assert check_balanced(two_rows, placement) == []


@pytest.mark.parametrize("solver", SOLVERS)
def test_solvers_reject_bad_rho(two_rows, solver):
    with pytest.raises(InfeasibleError):
        solver(two_rows, 0)
    with pytest.raises(InfeasibleError):
        solver(two_rows, 10)


@pytest.mark.parametrize("solver", SOLVERS)
def test_solvers_fill_everything_at_capacity(two_rows, solver):
    agg, placement = solver(two_rows, 9)
    assert placement.leaves == frozenset(two_rows.leaves)
    assert agg.entries == failure_aggregate(two_rows, placement, 9).entries


@pytest.mark.parametrize("solver", SOLVERS)
def test_solvers_single_leaf(solver):
    model = parse_model('{"nodes": [{"id": "only", "parent": null, "capacity": 1}]}')
    agg, placement = solver(model, 1)
    assert agg.entries == (1, 0)
    assert placement.leaves == frozenset({"only"})


@pytest.mark.parametrize("solver", SOLVERS)
def test_regression_small_child_fill(solver):
    # The root has children with 4, 3, 2 and 1 leaves. Packing the
    # 2-leaf child tight loses to spreading over the two larger ones.
    model = random_model(leaves=10, seed=1017, max_fanout=4, roots=1)
    agg, placement = solver(model, 6)
    assert agg.entries == (1, 0, 0, 0, 3, 8, 7)
    assert failure_aggregate(model, placement, 6).entries == agg.entries
    assert check_balanced(model, placement) == []


def test_forest_differential_against_oracle():
    rng = random.Random(131)
    for trial in range(40):
        roots = rng.randint(2, 3)
        leaves = rng.randint(roots, 10)
        model = random_model(leaves=leaves, seed=4000 + trial, roots=roots)
        for rho in range(1, leaves + 1):
            ref, _ = oracle_single(model, rho)
            for solver in SOLVERS:
                agg, placement = solver(model, rho)
                assert agg.entries == ref.entries, (trial, rho, solver.__name__)
                assert failure_aggregate(model, placement, rho).entries == agg.entries
                assert check_balanced(model, placement) == []


def test_fast_equals_basic_on_deeper_trees():
    rng = random.Random(67)
    for trial in range(25):
        leaves = rng.randint(20, 120)
        model = random_model(leaves=leaves, seed=6000 + trial, max_fanout=3)
        for _ in range(3):
            rho = rng.randint(1, leaves)
            basic_agg, basic_placement = solve_basic(model, rho)
            fast_agg, placement = solve_fast(model, rho)
            assert fast_agg.entries == basic_agg.entries, (trial, rho)
            # Multi-child nodes pick by the same step and tie-break.
            assert placement == basic_placement, (trial, rho)
            assert failure_aggregate(model, placement, rho).entries == fast_agg.entries


def _build(spec):
    """Model from (id, parent, is_leaf) triples, in that order."""
    nodes = []
    for node_id, parent, leaf in spec:
        entry = {"id": node_id, "parent": parent}
        if leaf:
            entry["capacity"] = 1
        nodes.append(entry)
    return parse_model(json.dumps({"nodes": nodes}))


def _path(prefix, parent, length):
    """A run of pass-through nodes below parent; returns the spec and
    the id of the deepest node."""
    spec = []
    for i in range(length):
        spec.append((f"{prefix}{i}", parent, False))
        parent = f"{prefix}{i}"
    return spec, parent


def _star(prefix, parent, leaves):
    return [(f"{prefix}{i}", parent, True) for i in range(leaves)]


def _caterpillar(prefix, parent, spine, rng):
    """A spine whose nodes each carry one or two leaves beside the next
    spine node; the last spine node holds two leaves."""
    spec = []
    for i in range(spine):
        node = f"{prefix}{i}"
        spec.append((node, parent, False))
        spec += _star(f"{prefix}{i}l", node, rng.randint(1, 2))
        parent = node
    return spec + _star(f"{prefix}end", parent, 2)


def _chain_heavy_models():
    rng = random.Random(41)
    models = []
    # Paths of pass-through nodes above a star or a small random tree.
    for length, leaves in ((1, 2), (2, 5), (5, 6), (3, 24)):
        spec, bottom = _path("p", None, length)
        models.append(_build(spec + _star("s", bottom, leaves)))
    # Caterpillars.
    for spine in (1, 3, 6, 15):
        models.append(_build(_caterpillar("c", None, spine, rng)))
    # A single root whose leaves fill, leaving one unfilled child that
    # heads a run.
    spec = [("r", None, False)] + _star("a", "r", 2)
    run, bottom = _path("q", "r", 3)
    models.append(_build(spec + run + _star("b", bottom, 5)))
    # Forests whose roots head single-child runs, beside bare leaves.
    for trial in range(6):
        spec = []
        for root in range(rng.randint(2, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                run, bottom = _path(f"f{root}p", None, rng.randint(1, 4))
                spec += run + _star(f"f{root}s", bottom, rng.randint(1, 4))
            elif kind == 1:
                spec += _caterpillar(f"f{root}c", None, rng.randint(1, 3), rng)
            else:
                spec.append((f"f{root}", None, True))
        models.append(_build(spec))
    return models


def test_chain_heavy_shapes_match_basic_and_oracle():
    for model in _chain_heavy_models():
        n = len(model.leaves)
        for rho in range(1, n + 1):
            ref, _ = oracle_single(model, rho) if n <= 14 else solve_basic(model, rho)
            for solver in (solve_fast, solve_basic):
                agg, placement = solver(model, rho)
                assert agg.entries == ref.entries, (n, rho, solver.__name__)
                assert failure_aggregate(model, placement, rho).entries == agg.entries
                assert check_balanced(model, placement) == []


def test_fast_extends_deep_paths_in_linear_time():
    # 20k pass-through nodes above a 2048-leaf binary tree: every node of
    # the run passes all 1024 replicas down to its only child.
    run, bottom = _path("p", None, 20_000)
    spec = list(run)
    level = [bottom]
    for depth in range(11):
        nxt = []
        for parent in level:
            for side in "ab":
                node = f"{parent}{side}"
                spec.append((node, parent, depth == 10))
                nxt.append(node)
        level = nxt
    deep = _build(spec)
    tree = _build([("p19999", None, False)] + spec[20_000:])
    started = time.perf_counter()
    agg, placement = solve_fast(deep, 1024)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    bare, bare_placement = solve_fast(tree, 1024)
    # The run's other 19,999 nodes all fail with the 1024 replicas.
    assert agg.entries == (bare.entries[0] + 19_999,) + bare.entries[1:]
    assert placement == bare_placement
    assert len(placement.leaves) == 1024
    assert check_balanced(tree, placement) == []


def test_zero_mass_root_gets_closed_form():
    # Two roots, one replica: the second root takes no replicas and the
    # solvers must still count its nodes in the last aggregate entry.
    model = parse_model(
        json.dumps(
            {
                "nodes": [
                    {"id": "r1", "parent": None},
                    {"id": "a", "parent": "r1", "capacity": 1},
                    {"id": "b", "parent": "r1", "capacity": 1},
                    {"id": "r2", "parent": None},
                    {"id": "mid", "parent": "r2"},
                    {"id": "c", "parent": "mid", "capacity": 1},
                ]
            }
        )
    )
    ref, _ = oracle_single(model, 1)
    for solver in SOLVERS:
        agg, placement = solver(model, 1)
        assert agg.entries == ref.entries
        assert len(placement.leaves) == 1


def test_fast_handles_wide_star_quickly():
    leaves = 100_000
    nodes = [{"id": "hub", "parent": None}]
    nodes += [
        {"id": f"s{i}", "parent": "hub", "capacity": 1} for i in range(leaves)
    ]
    model = parse_model(json.dumps({"nodes": nodes}))
    started = time.perf_counter()
    agg, placement = solve_fast(model, 64)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    assert len(placement.leaves) == 64
    # hub compromises 64 replicas, each chosen leaf one, the rest none.
    expected = [0] * 65
    expected[0] = 1
    expected[63] = 64
    expected[64] = leaves - 64
    assert agg.entries == tuple(expected)


def _jittered_racks(rng, fanouts):
    """One root over len(fanouts) levels, each node having its level's
    fanout give or take a third; the last level holds servers of
    capacity 1 to 3."""
    nodes = [{"id": "dc", "parent": None}]
    level = ["dc"]
    for depth, fanout in enumerate(fanouts):
        spread = fanout // 3
        below = []
        for parent in level:
            for _ in range(fanout + rng.randint(-spread, spread)):
                node = f"n{len(nodes)}"
                entry = {"id": node, "parent": parent}
                if depth == len(fanouts) - 1:
                    entry["capacity"] = rng.randint(1, 3)
                nodes.append(entry)
                below.append(node)
        level = below
    return parse_model(json.dumps({"nodes": nodes}))


def _uneven_depths(prefix, parent, branches, rng):
    """Children of parent whose shallowest leaves sit 1 to 3 levels below
    them, often at equal depths: each child heads a path over a small
    star and sometimes a second, shorter or longer, path to one leaf."""
    spec = []
    for b in range(branches):
        head = f"{prefix}{b}"
        spec.append((head, parent, False))
        run, bottom = _path(f"{head}p", head, rng.randint(0, 2))
        spec += run + _star(f"{head}s", bottom, rng.randint(1, 3))
        if rng.random() < 0.4:
            run, bottom = _path(f"{head}q", head, rng.randint(0, 2))
            spec += run + _star(f"{head}t", bottom, 1)
    return spec


def _mostly_empty_models():
    rng = random.Random(77)
    models = [
        _build([("hub", None, False)] + _star("s", "hub", n)) for n in (1, 2, 3, 5, 8, 13, 37, 200)
    ]
    for fanouts in ((5,), (3, 4), (4, 6), (2, 3, 3), (3, 2, 4)):
        models.append(_jittered_racks(rng, fanouts))
    for branches in (2, 3, 5, 8):
        models.append(_build([("r", None, False)] + _uneven_depths("u", "r", branches, rng)))
    # The same below a split, so empty children sit under labeled nodes
    # that are not the root.
    spec = [("r", None, False)]
    for g in range(3):
        spec.append((f"g{g}", "r", False))
        spec += _uneven_depths(f"g{g}u", f"g{g}", rng.randint(2, 4), rng)
    models.append(_build(spec))
    # Forests of stars, beside a bare leaf or an uneven subtree.
    for trial in range(5):
        spec = []
        for r in range(rng.randint(2, 4)):
            root = f"f{r}"
            kind = rng.randrange(3)
            if kind == 0:
                spec += [(root, None, False)] + _star(f"{root}s", root, rng.randint(1, 6))
            elif kind == 1:
                spec.append((root, None, True))
            else:
                spec += [(root, None, False)] + _uneven_depths(f"{root}u", root, 2, rng)
        models.append(_build(spec))
    return models


def test_empty_siblings_match_basic_and_oracle():
    # Most unfilled children take no replica at their parent's share, so
    # solve_fast prices them by their shallowest leaf alone; the witness
    # must be basic's too, position tie-break included.
    for model in _mostly_empty_models():
        n = len(model.leaves)
        for rho in range(1, n + 1):
            agg, placement = solve_fast(model, rho)
            ref, ref_placement = solve_basic(model, rho)
            assert (agg, placement) == (ref, ref_placement), (n, rho)
            if n <= 14:
                best, _ = oracle_single(model, rho)
                assert agg.entries == best.entries, (n, rho)
            assert failure_aggregate(model, placement, rho).entries == agg.entries
            assert check_balanced(model, placement) == []


def test_empty_siblings_rank_by_depth_then_position():
    # Children a and c reach a leaf one level down, b and d two levels
    # down; three replicas take a, c and then b, the first of the deeper.
    spec = [("r", None, False)]
    for name, depth in (("a", 0), ("b", 1), ("c", 0), ("d", 1)):
        spec.append((name, "r", False))
        run, bottom = _path(f"{name}p", name, depth)
        spec += run + _star(f"{name}s", bottom, 2)
    model = _build(spec)
    _agg, placement = solve_fast(model, 3)
    assert placement.leaves == {"as0", "cs0", "bs0"}


def test_fast_prices_empty_siblings_without_select_heavy(monkeypatch):
    calls = []

    def counting(pairs, beta):
        calls.append(beta)
        return select_heavy(pairs, beta)

    monkeypatch.setattr("fdplace.single.select_heavy", counting)
    model = _build([("hub", None, False)] + _star("s", "hub", 30_000))
    agg, placement = solve_fast(model, 64)
    assert calls == []
    assert placement.leaves == {f"s{i}" for i in range(64)}
    assert agg.entries[63:] == (64, 30_000 - 64)
