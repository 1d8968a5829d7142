from __future__ import annotations

import hashlib
import json
import random
import re
import time
import tracemalloc

import pytest

from fdplace.errors import InfeasibleError, ModelError
from fdplace.generate import random_model
from fdplace.metrics import Placement, failure_aggregate
from fdplace.model import parse_model
from fdplace.oracle import check_balanced, oracle_single
from fdplace import single
from fdplace.single import (
    label_children,
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
    filled = tuple(i for i, c in enumerate(caps) if c <= h)
    unfilled = tuple(i for i, c in enumerate(caps) if c > h)
    remaining = r - sum(caps[i] for i in filled)
    return filled, unfilled, remaining, h


def test_label_children_uneven_racks():
    spec = load_json("uneven_racks.json")
    caps = spec["capacities"]
    filled, unfilled, remaining, heavy_count = label_children(caps, spec["replicas"])
    assert {caps[i] for i in filled} == {1, 2, 4}
    assert {caps[i] for i in unfilled} == {5, 9, 11}
    assert remaining == 13
    assert heavy_count == 1
    assert remaining // len(unfilled) == 4
    # Filled capacities stay at or below the shared base; unfilled ones
    # sit strictly above it.
    assert 4 * 3 <= 13 < 5 * 3


def test_label_children_splits_off_small_child():
    # One cap-1 child fills; the rest share 5 replicas at level 1 with
    # two heavies. Filling the cap-2 child instead would push a filled
    # capacity above the base share, which costs optimality.
    filled, unfilled, remaining, heavy_count = label_children([4, 3, 2, 1], 6)
    assert filled == (3,)
    assert unfilled == (0, 1, 2)
    assert remaining == 5
    assert heavy_count == 2
    assert remaining // len(unfilled) == 1


def test_label_children_extremes():
    assert label_children([2, 3], 0) == ((), (0, 1), 0, 0)
    assert label_children([2, 3], 5) == ((0, 1), (), 0, 0)
    filled, unfilled, remaining, _ = label_children([7], 3)
    assert unfilled == (0,)
    assert remaining // len(unfilled) == 3


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
        got_filled, got_unfilled, got_remaining, heavy_count = label_children(caps, r)
        # Both position tuples are in child order and split the children.
        assert list(got_filled) == sorted(got_filled)
        assert list(got_unfilled) == sorted(got_unfilled)
        assert sorted(got_filled + got_unfilled) == list(range(len(caps)))
        filled, unfilled, remaining, level = water_level_split(caps, r)
        assert got_filled == filled, (caps, r)
        assert got_unfilled == unfilled, (caps, r)
        assert got_remaining == remaining
        if unfilled:
            base = remaining // len(unfilled)
            assert base == level
            assert heavy_count == remaining - base * len(unfilled)
            # Sandwich bounds: every filled capacity fits under the
            # average share, which in turn is below every unfilled cap.
            mx = max((caps[i] for i in filled), default=0)
            assert mx * len(unfilled) <= remaining
            assert remaining < min(caps[i] for i in unfilled) * len(unfilled)
        else:
            assert remaining == 0 and heavy_count == 0


def test_select_heavy_matches_sorting():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 10)
        pairs = []
        for _ in range(n):
            light = tuple(rng.randint(0, 3) for _ in range(4))
            bump = tuple(rng.randint(0, 2) for _ in range(4))
            heavy = tuple(l + b for l, b in zip(light, bump))
            pairs.append((light, heavy))
        beta = rng.randint(0, n)
        picked = select_heavy(pairs, beta)
        assert len(picked) == beta
        order = sorted(
            range(n),
            key=lambda i: (
                tuple(h - l for l, h in zip(*pairs[i])),
                i,
            ),
        )
        assert picked == set(order[:beta])


def test_select_heavy_validation():
    pair = ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        select_heavy([pair], 2)
    with pytest.raises(ValueError):
        select_heavy([pair], -1)
    assert select_heavy([pair], 0) == set()
    bad = ((0,), (1, 0))
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


@pytest.mark.parametrize(
    "entry",
    [*SOLVERS, oracle_single, lambda model, rho: failure_aggregate(model, Placement(frozenset()), rho)],
    ids=["solve_basic", "solve_fast", "solve_greedy", "oracle_single", "failure_aggregate"],
)
@pytest.mark.parametrize("rho", [2.0, True, "2"], ids=repr)
def test_rho_must_be_an_int(two_rows, entry, rho):
    # A float, a bool or a string is refused up front, not by a
    # TypeError from deep inside the solver.
    with pytest.raises(ModelError, match=rf"^rho must be an integer, got {re.escape(repr(rho))}$"):
        entry(two_rows, rho)


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


# sha256 over every (solver, trial, rho, objective, sorted witness):
# any change to which optimum a single-block solver returns shows here.
SINGLE_WITNESS_DIGEST = "04ae8cf576612e36196c50e2ffd7057caa26ad48a400bb1d8ff669d4ea006288"


def test_single_block_witnesses_are_pinned():
    rng = random.Random(2026)
    digest = hashlib.sha256()
    for trial in range(120):
        roots = rng.randint(1, 3)
        leaves = rng.randint(roots, 30)
        model = random_model(
            leaves=leaves,
            seed=8000 + trial,
            max_fanout=rng.randint(2, 5),
            max_capacity=rng.randint(1, 3),
            roots=roots,
        )
        for rho in sorted({1, rng.randint(1, leaves), leaves}):
            for solver in SOLVERS:
                agg, placement = solver(model, rho)
                record = [solver.__name__, trial, rho, agg.entries, sorted(placement.leaves)]
                digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == SINGLE_WITNESS_DIGEST


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


def test_label_children_on_wide_nodes():
    rng = random.Random(23)
    for n in (100, 1000, 5000):
        for caps in (
            [1] * n,
            [rng.choice((14, 17)) for _ in range(n)],
            [rng.randint(1, 30) for _ in range(n)],
        ):
            total = sum(caps)
            for r in (0, 1, n // 2, total // 3, total - 1):
                filled, unfilled, remaining, _ = water_level_split(caps, r)
                heavy_count = remaining % len(unfilled) if unfilled else 0
                assert label_children(caps, r) == (filled, unfilled, remaining, heavy_count), (n, r)


def test_select_heavy_on_wide_nodes():
    rng = random.Random(29)
    for n in (100, 2000):
        pairs = []
        for _ in range(n):
            light = tuple(rng.randint(0, 3) for _ in range(4))
            pairs.append((light, tuple(v + rng.randint(0, 2) for v in light)))
        order = sorted(range(n), key=lambda i: (tuple(h - l for l, h in zip(*pairs[i])), i))
        for beta in (0, 1, 2, n // 2 - 1, n // 2, n // 2 + 1, n - 2, n - 1, n):
            assert select_heavy(pairs, beta) == set(order[:beta]), (n, beta)


def test_fast_matches_basic_on_wide_fanouts():
    # A star, whose leaves stay empty or fill, and racks under one root,
    # which at larger rho take replicas unevenly: both rank hundreds of
    # children at one node.
    star = _build([("hub", None, False)] + _star("s", "hub", 500))
    racks = _jittered_racks(random.Random(31), (100, 4))  # 68 racks, 261 servers
    for model, rhos in ((star, (1, 64, 499)), (racks, (1, 64, 200, 250))):
        for rho in rhos:
            agg, placement = solve_fast(model, rho)
            assert (agg, placement) == solve_basic(model, rho), rho
            assert failure_aggregate(model, placement, rho).entries == agg.entries


def test_label_children_at_the_nothing_fills_boundary():
    # Nothing fills exactly when r < min(caps) * n: just below, at and
    # just above that bound the split is the water level's.
    rng = random.Random(37)
    for n in (100, 1000, 5000):
        for caps in (
            [1] * n,
            [6] * n,
            [rng.randint(3, 30) for _ in range(n)],
            [rng.choice((2, 9)) for _ in range(n - 1)] + [1],
        ):
            bound = min(caps) * n
            for r in (bound - 1, bound, bound + 1):
                if r > sum(caps):
                    continue
                filled, unfilled, remaining, _ = water_level_split(caps, r)
                assert bool(filled) == (r >= bound), (n, r)
                heavy_count = remaining % len(unfilled) if unfilled else 0
                assert label_children(caps, r) == (filled, unfilled, remaining, heavy_count), (n, r)


def test_fast_sorts_at_most_two_rho_children(monkeypatch):
    # label_children past its early return and _cheapest sort only
    # children that each take a replica. Those nodes branch inside the
    # tree spanned by the rho placed leaves, so the children they sort
    # number at most 2 rho per solve: the sorts fit the paper's
    # O(n + rho log rho).
    label, cheapest = single.label_children, single._cheapest
    labeled, ranked = [], []

    def counting_label(caps, r):
        if len(caps) >= 2 and r >= min(caps) * len(caps):
            labeled.append(len(caps))
        return label(caps, r)

    def counting_cheapest(keys, beta, heavy):
        if len(keys) >= 2:
            ranked.append(len(keys))
        return cheapest(keys, beta, heavy)

    monkeypatch.setattr(single, "label_children", counting_label)
    monkeypatch.setattr(single, "_cheapest", counting_cheapest)
    rng = random.Random(47)
    for trial in range(300):
        leaves = rng.randint(3, 500)
        model = random_model(
            leaves,
            seed=60_000 + trial,
            max_fanout=rng.randint(2, 400),
            max_capacity=3,
            roots=rng.randint(1, 3),
        )
        for rho in {1, 2, 3, leaves // 8, leaves // 3, leaves - 1, leaves} - {0}:
            labeled.clear()
            ranked.clear()
            solve_fast(model, rho)
            assert sum(labeled) <= 2 * rho, (trial, rho, labeled)
            assert sum(ranked) <= 2 * rho, (trial, rho, ranked)


def _depth_order_picks(ds, beta, heavy):
    order = sorted(range(len(ds)), key=lambda i: (ds[i], i))
    return set(order[:beta]), set(order[: beta + 1]) if heavy else set()


def test_shallowest_matches_sorting():
    cases = [
        ([2] * 50, 7, True),  # all depths equal
        ([1] * 9 + [2] * 5 + [1] + [3] * 40, 10, True),  # shallowest one short: cut path
        ([3, 1, 2, 2, 0, 2, 1, 2] * 10, 25, False),  # ties at the cut
        ([3, 1, 2, 2, 0, 2, 1, 2] * 10, 0, True),  # beta 0, flagged
        ([2, 0, 1, 1, 3, 0] * 5, 29, True),  # beta + 1 == n
        ([2, 0, 1, 1, 3, 0] * 5, 30, False),  # beta == n
    ]
    rng = random.Random(43)
    # The last pool shows 60 distinct depths, so the cut walks many.
    for n, classes in ((1, 4), (2, 4), (61, 4), (62, 4), (300, 4), (5000, 4), (3000, 60)):
        weights = [rng.random() for _ in range(classes)]
        ds = rng.choices(range(classes), weights, k=n)
        for beta in {0, 1, n // 3, n // 2, n - 1, n}:
            for heavy in (False, True):
                if (beta or heavy) and beta + heavy <= n:
                    cases.append((ds, beta, heavy))
    for ds, beta, heavy in cases:
        light, heavy_picks = single._shallowest(ds, beta, heavy)
        assert (set(light), set(heavy_picks)) == _depth_order_picks(ds, beta, heavy), (ds, beta)
        assert len(light) == beta and len(heavy_picks) == (beta + 1 if heavy else 0)


def test_fast_on_racks_beside_direct_servers():
    # 30 racks, about a fifth of them one level deeper, and 10 servers
    # right under the root: for rho 11 to 39 the root's children all
    # stay empty and more of them take a replica than the 10 shallowest,
    # so the picks cut into the racks by depth, ties by position. Every
    # rho up to 45 covers that range; basic and greedy at every rho of
    # a larger model would take tens of seconds.
    rng = random.Random(41)
    direct = set(rng.sample(range(40), 10))
    spec = [("dc", None, False)]
    for c in range(40):
        if c in direct:
            spec.append((f"d{c}", "dc", True))
            continue
        spec.append((f"r{c}", "dc", False))
        run, bottom = _path(f"r{c}p", f"r{c}", int(rng.random() < 0.2))
        spec += run + _star(f"r{c}s", bottom, rng.randint(4, 8))
    model = _build(spec)
    n = len(model.leaves)
    for rho in [*range(1, 46), 64, 100, n - 1, n]:
        agg, placement = solve_fast(model, rho)
        assert (agg, placement) == solve_basic(model, rho), rho
        if rho <= 45:
            assert agg.entries == solve_greedy(model, rho)[0].entries, rho


def test_label_children_when_the_share_equals_a_capacity():
    # A child whose capacity equals the level the others settle at
    # fills; one replica fewer and it stays unfilled. Every distinct
    # capacity is tried as that level, on pools up to 3000 children.
    rng = random.Random(53)
    for n in (2, 7, 60, 3000):
        for caps in (
            [rng.randint(1, 12) for _ in range(n)],
            [rng.choice((2, 5, 5, 9)) for _ in range(n)],
        ):
            for level in sorted(set(caps)):
                exact = sum(min(c, level) for c in caps)
                for r in (exact - 1, exact, exact + 1):
                    if not 0 <= r <= sum(caps):
                        continue
                    filled, unfilled, remaining, _ = water_level_split(caps, r)
                    heavy_count = remaining % len(unfilled) if unfilled else 0
                    got = label_children(caps, r)
                    assert got == (filled, unfilled, remaining, heavy_count), (n, level, r)
                    at_level = [i for i, c in enumerate(caps) if c == level]
                    assert set(at_level) <= set(got[0]) if r >= exact else not set(at_level) & set(got[0])


def test_cheapest_agrees_with_select_heavy():
    # solve_fast's picker ranks histograms indexed by failure number,
    # highest compared first; solve_basic's ranks aggregates, which list
    # the highest failure number first. On the same children both pick
    # the same positions, on pools up to 3000 with many equal steps.
    rng = random.Random(59)
    for n in (2, 3, 10, 200, 3000):
        lights = [[rng.randint(0, 3) for _ in range(5)] for _ in range(n)]
        heavies = [[v + rng.randint(0, 1) for v in light] for light in lights]
        keys = [([h - l for l, h in zip(cl, ch)][::-1], i) for i, (cl, ch) in enumerate(zip(lights, heavies))]
        pairs = [(tuple(reversed(cl)), tuple(reversed(ch))) for cl, ch in zip(lights, heavies)]
        for beta in sorted({0, 1, n // 3, n // 2, n - 1}):
            for heavy in (False, True):
                if not (beta or heavy):
                    continue
                light_sel, heavy_sel = single._cheapest(keys, beta, heavy)
                assert light_sel == select_heavy(pairs, beta), (n, beta)
                assert heavy_sel == (select_heavy(pairs, beta + 1) if heavy else set()), (n, beta)


def _staircase(prefix, parent, steps):
    """Children of parent whose only leaves sit 0, 1, ..., steps - 1
    levels below them: steps distinct depths over steps(steps+1)/2 nodes."""
    spec = []
    for s in range(steps):
        run, bottom = _path(f"{prefix}{s}p", parent, s)
        spec += run + _star(f"{prefix}{s}s", bottom, 1)
    return spec


def test_fast_sorts_depths_within_the_node_count(monkeypatch):
    # _shallowest sorts at most the distinct depths of the empty
    # children it ranks. D distinct depths need D(D+1)/2 nodes below
    # those children, and these subtrees are disjoint across calls, so
    # over one solve the D(D+1)/2 sum stays within the model's nodes:
    # the depth sorts are O(n).
    shallowest = single._shallowest
    distinct = []

    def counting(ds, beta, heavy):
        distinct.append(len(set(ds)))
        return shallowest(ds, beta, heavy)

    monkeypatch.setattr(single, "_shallowest", counting)
    rng = random.Random(61)
    models = [
        _build([("hub", None, False)] + _staircase("c", "hub", 40)),
        _build([("hub", None, False)] + _staircase("c", "hub", 12) + _star("s", "hub", 30)),
    ]
    models += _mostly_empty_models()
    for trial in range(60):
        leaves = rng.randint(3, 400)
        models.append(
            random_model(
                leaves, seed=70_000 + trial, max_fanout=rng.randint(2, 60), roots=rng.randint(1, 3)
            )
        )
    widest = 0
    for model in models:
        leaves = len(model.leaves)
        for rho in {1, 2, 3, leaves // 4, leaves // 2, leaves - 1} & set(range(1, leaves + 1)):
            distinct.clear()
            solve_fast(model, rho)
            assert sum(d * (d + 1) // 2 for d in distinct) <= len(model.nodes), (leaves, rho)
            widest = max(widest, *distinct, 0)
    # The 40-step staircase is ranked at one node and meets the bound.
    assert widest == 40


def _deep_shapes():
    """Shapes random_model never builds: a 2,000-domain caterpillar with
    one server per domain, a broom (a 2,000-domain chain over 200
    servers) and a two-root forest of the two."""
    caterpillar = []
    parent = None
    for i in range(2000):
        caterpillar += [(f"c{i}", parent, False), (f"c{i}s", f"c{i}", True)]
        parent = f"c{i}"
    run, bottom = _path("b", None, 2000)
    broom = run + _star("bs", bottom, 200)
    return [_build(caterpillar), _build(broom), _build(caterpillar + broom)]


def test_basic_matches_fast_on_deep_shapes():
    # solve_greedy is left out: on a 50,000-deep caterpillar it gives no
    # result in 300 s (ROADMAP item 4).
    for model in _deep_shapes():
        for rho in (1, 8, 64):
            agg, placement = solve_basic(model, rho)
            assert (agg, placement) == solve_fast(model, rho), rho
            assert failure_aggregate(model, placement, rho) == agg
            assert check_balanced(model, placement) == []


def _shallow_shapes():
    """A star of 2,000 servers, one root over 40 racks of 45-55 servers
    and a two-root forest of the two, with capacities 1-3."""
    star = [{"id": "st", "parent": None}]
    star += [{"id": f"st{i}", "parent": "st", "capacity": 1 + i % 3} for i in range(2000)]
    rng = random.Random(5)
    racks = [{"id": "rk", "parent": None}]
    for r in range(40):
        racks.append({"id": f"rk{r}", "parent": "rk"})
        racks += [
            {"id": f"rk{r}s{k}", "parent": f"rk{r}", "capacity": rng.randint(1, 3)}
            for k in range(rng.randint(45, 55))
        ]
    return [parse_model(json.dumps({"nodes": nodes})) for nodes in (star, racks, star + racks)]


def test_solvers_agree_on_shallow_shapes():
    # greedy re-ranks every free leaf per replica, so it runs only up to
    # rho 64 here (about 0.25 s in all).
    for model in _shallow_shapes():
        for rho in (1, 3, 64, 1000):
            agg, placement = solve_fast(model, rho)
            assert solve_basic(model, rho) == (agg, placement), rho
            if rho <= 64:
                assert solve_greedy(model, rho)[0] == agg, rho
            assert failure_aggregate(model, placement, rho) == agg
            assert check_balanced(model, placement) == []


def _late_shallow_shapes():
    """Wide nodes whose shallowest children come last, capacities 1-3:
    300 children, 290 racks of 1-2 servers before 10 servers of the
    node's own (a short shallowest class); 300 children, 200 racks
    before 100 servers (a long class that starts late); and one root
    over three nodes of 140 racks before 10 servers, so that the root's
    extra replica flags each wide node to be priced at one more."""
    rng = random.Random(67)

    def hub(name, parent, racks, direct):
        nodes = [{"id": name, "parent": parent}]
        for r in range(racks):
            nodes.append({"id": f"{name}r{r}", "parent": name})
            nodes += [
                {"id": f"{name}r{r}s{k}", "parent": f"{name}r{r}", "capacity": rng.randint(1, 3)}
                for k in range(rng.randint(1, 2))
            ]
        nodes += [{"id": f"{name}d{d}", "parent": name, "capacity": rng.randint(1, 3)} for d in range(direct)]
        return nodes

    split = [{"id": "top", "parent": None}]
    for h in range(3):
        split += hub(f"h{h}", "top", 140, 10)
    shapes = (hub("short", None, 290, 10), hub("long", None, 200, 100), split)
    return [parse_model(json.dumps({"nodes": nodes})) for nodes in shapes]


def test_solvers_agree_on_late_shallow_shapes():
    # Below the fan-out every child of the wide node stays empty. The
    # short class covers rho <= 10 after a scan past the racks and is
    # too short beyond that, so the picks rank every depth; the long
    # class covers rho <= 100. In the split, rho = 3q + 1 gives each
    # wide node q replicas and q + 1 when heavy: q + 1 = 10 fits the
    # short class exactly, 11 and 22 do not. Above the fan-out every
    # child takes a replica. The two-root forest of _shallow_shapes at
    # rho 65 flags both roots heavy: a star and 40 racks, all at one
    # depth.
    short, long, split = _late_shallow_shapes()
    forest = _shallow_shapes()[2]
    cases = (
        (short, (1, 10, 11, 64, 400)),
        (long, (3, 64, 100, 101, 350)),
        (split, (4, 28, 31, 64, 500)),
        (forest, (65,)),
    )
    for model, rhos in cases:
        for rho in rhos:
            agg, placement = solve_fast(model, rho)
            assert solve_basic(model, rho) == (agg, placement), rho
            if rho <= 64:
                assert solve_greedy(model, rho)[0] == agg, rho
            assert failure_aggregate(model, placement, rho) == agg
            assert check_balanced(model, placement) == []


class _CountingList(list):
    """A list that counts the items it returns, a slice's items
    included."""

    reads = 0

    def __getitem__(self, i):
        item = super().__getitem__(i)
        self.reads += len(item) if isinstance(i, slice) else 1
        return item


def test_fast_reads_summaries_in_proportion_to_rho_on_a_wide_star():
    # A node with fewer replicas than children leaves them all empty;
    # its own summary gives their shallowest depth and the picks stop
    # at the rho-th child there, so the solve reads O(rho) summary
    # entries, not one per child. The node is recorded by its offsets
    # into tree.kids, not by a copy of its children, so the solve reads
    # the root's one child, the hub's first rho children and, for the
    # witness, those rho again.
    servers = 50_000
    nodes = [{"id": "hub", "parent": None}]
    nodes += [{"id": f"s{i}", "parent": "hub", "capacity": 1 + i % 3} for i in range(servers)]
    model = parse_model(json.dumps({"nodes": nodes}))
    tree = model.tree
    for rho in (1, 3, 64):
        tree.leaf_count = leaf_count = _CountingList(tree.leaf_count)
        tree.min_rel_depth = depth = _CountingList(tree.min_rel_depth)
        tree.kids = kids = _CountingList(tree.kids)
        agg, placement = solve_fast(model, rho)
        assert leaf_count.reads + depth.reads <= 2 * (rho + 1), rho
        assert kids.reads <= 2 * rho + 1, (rho, kids.reads)
        assert placement.leaves == {f"s{i}" for i in range(rho)}
        assert failure_aggregate(model, placement, rho) == agg


def test_fast_reads_a_late_shallow_class_in_one_pass():
    # The hub's 10 servers are too few for 64 picks, so every child's
    # depth is read, but once: the depths read while looking for the
    # picks are the ones ranked.
    racks, direct, rho = 29_990, 10, 64
    nodes = [{"id": "hub", "parent": None}]
    for r in range(racks):
        nodes += [{"id": f"r{r}", "parent": "hub"}, {"id": f"r{r}s", "parent": f"r{r}", "capacity": 1 + r % 3}]
    nodes += [{"id": f"d{d}", "parent": "hub", "capacity": 1} for d in range(direct)]
    model = parse_model(json.dumps({"nodes": nodes}))
    tree = model.tree
    tree.kids = kids = _CountingList(tree.kids)
    tree.min_rel_depth = depth = _CountingList(tree.min_rel_depth)
    agg, placement = solve_fast(model, rho)
    fanout = racks + direct
    assert depth.reads <= fanout + 1, depth.reads
    assert kids.reads <= fanout + rho + 1, kids.reads
    assert {f"d{d}" for d in range(direct)} <= placement.leaves
    assert failure_aggregate(model, placement, rho) == agg


def _neighbour_hubs():
    """Two wide hubs whose children sit next to each other in tree.kids,
    under one root and as a two-root forest. Hub a ends in a short class
    of 3 servers after 30 racks; hub b starts with 4 servers, so a scan
    that ran past a's last child would find shallow children that are
    not a's. The racks' own servers follow b's children."""
    rng = random.Random(29)

    def children(hub, racks_first):
        racks = []
        for r in range(30):
            racks.append({"id": f"{hub}r{r}", "parent": hub})
            racks += [
                {"id": f"{hub}r{r}s{k}", "parent": f"{hub}r{r}", "capacity": rng.randint(1, 3)}
                for k in range(rng.randint(1, 2))
            ]
        direct = [{"id": f"{hub}d{d}", "parent": hub, "capacity": rng.randint(1, 3)} for d in range(3 if racks_first else 4)]
        return racks + direct if racks_first else direct + racks

    below = children("a", True) + children("b", False)
    tree = [{"id": "top", "parent": None}, {"id": "a", "parent": "top"}, {"id": "b", "parent": "top"}] + below
    forest = [{"id": "a", "parent": None}, {"id": "b", "parent": None}] + below
    return [parse_model(json.dumps({"nodes": nodes})) for nodes in (tree, forest)]


def test_fast_keeps_each_wide_node_to_its_own_children():
    # Up to rho 61 each hub holds fewer replicas than its 33 or 34
    # children, so all stay empty; hub a's 3 servers cover at most 3
    # picks, and beyond that its picks rank every depth.
    for model in _neighbour_hubs():
        assert model.tree.index["b"] == model.tree.index["a"] + 1
        for rho in (1, 2, 3, 5, 6, 7, 8, 9, 13, 30, 41, 61):
            agg, placement = solve_fast(model, rho)
            assert solve_basic(model, rho) == (agg, placement), rho
            assert failure_aggregate(model, placement, rho) == agg
            assert check_balanced(model, placement) == [], rho


def test_basic_keeps_one_short_histogram_per_state():
    # solve_basic keeps m + 1 slots per state asked for m replicas, and
    # drops a subtree's histograms once its parent has read them. Here
    # that peaks near 5 MB; a rho + 1 tuple per state would take about
    # 127 MB.
    model = random_model(5000, 1)
    model.tree.leaf_count
    tracemalloc.start()
    try:
        solve_basic(model, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000
