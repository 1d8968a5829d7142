from __future__ import annotations

import itertools
import json
import random
import re
import time
import tracemalloc

import pytest

from fdplace.errors import GuardLimitError, InfeasibleError, ModelError
from fdplace.generate import random_model
from fdplace.metrics import MultiPlacement, Placement, failure_aggregate, multi_aggregate
from fdplace.model import parse_model, subtree_stats
from fdplace.oracle import check_balanced, oracle_multi, oracle_single

from lemmas import failure_numbers


def test_oracle_single_two_rows(two_rows):
    best, optima = oracle_single(two_rows, 3)
    assert best.entries == (0, 1, 7, 7)
    assert len(optima) == 44
    assert frozenset({"srv4", "srv6", "srv7"}) in {p.leaves for p in optima}
    for placement in optima:
        assert failure_aggregate(two_rows, placement, 3).entries == best.entries


def test_oracle_single_matches_plain_enumeration():
    # Same optimum as a from-scratch sweep that rescores every subset.
    rng = random.Random(23)
    for trial in range(10):
        model = random_model(leaves=rng.randint(2, 7), seed=700 + trial)
        pool = sorted(model.leaves)
        rho = rng.randint(1, len(pool))
        best = min(
            failure_aggregate(model, Placement(leaves=frozenset(combo)), rho).entries
            for combo in itertools.combinations(pool, rho)
        )
        agg, optima = oracle_single(model, rho)
        assert agg.entries == best
        assert optima


def test_oracle_single_guard_and_bounds(two_rows):
    with pytest.raises(GuardLimitError):
        oracle_single(two_rows, 4, guard=10)
    with pytest.raises(InfeasibleError):
        oracle_single(two_rows, 0)
    with pytest.raises(InfeasibleError):
        oracle_single(two_rows, 10)
    for guard in (0, -3):
        with pytest.raises(GuardLimitError, match="guard must be positive"):
            oracle_single(two_rows, 3, guard=guard)


@pytest.mark.parametrize(
    "oracle",
    [lambda model, guard: oracle_single(model, 3, guard=guard),
     lambda model, guard: oracle_multi(model, (2, 1), guard=guard)],
    ids=["oracle_single", "oracle_multi"],
)
@pytest.mark.parametrize("guard", ["5", 2.5, True], ids=repr)
def test_guard_must_be_an_int(two_rows, oracle, guard):
    # Not read as int(guard), which gave 5, 2 and 1.
    with pytest.raises(ModelError, match=rf"^guard must be an integer, got {re.escape(repr(guard))}$"):
        oracle(two_rows, guard)


def test_guard_env_override(two_rows, monkeypatch):
    monkeypatch.setenv("FDPLACE_ORACLE_GUARD", "5")
    with pytest.raises(GuardLimitError):
        oracle_single(two_rows, 4)
    monkeypatch.setenv("FDPLACE_ORACLE_GUARD", "100000")
    agg, _ = oracle_single(two_rows, 4)
    assert sum(agg.entries) == 15
    monkeypatch.setenv("FDPLACE_ORACLE_GUARD", "zero")
    with pytest.raises(GuardLimitError):
        oracle_single(two_rows, 3)


def test_oracles_keep_no_table_of_root_paths():
    # A 600-domain caterpillar, one server per domain: a table of every
    # leaf's root path would hold 180,000 entries, about 1.7 MB traced.
    # Walking each path up through parent keeps the peak near 0.2 MB.
    nodes, parent = [], None
    for i in range(600):
        nodes += [{"id": f"d{i}", "parent": parent}, {"id": f"d{i}s", "parent": f"d{i}", "capacity": 1}]
        parent = f"d{i}"
    model = parse_model(json.dumps({"nodes": nodes}))
    model.tree.leaf_count
    for oracle, request in ((oracle_single, 1), (oracle_multi, (1,))):
        tracemalloc.start()
        try:
            oracle(model, request)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000, (oracle.__name__, peak)


def test_oracle_multi_shared_tree(shared_tree):
    agg, mp = oracle_multi(shared_tree, (3, 3, 2))
    assert len(mp.blocks) == 3
    assert sorted(len(b) for b in mp.blocks) == [2, 3, 3]
    assert multi_aggregate(shared_tree, mp).entries == agg.entries


def test_oracle_multi_matches_plain_enumeration():
    # Cross-check the pruned search against a rescoring sweep over all
    # capacity-respecting block tuples.
    rng = random.Random(31)
    for trial in range(6):
        model = random_model(
            leaves=rng.randint(2, 5), seed=900 + trial, max_capacity=2
        )
        pool = sorted(model.leaves)
        sizes = tuple(rng.randint(1, min(2, len(pool))) for _ in range(2))
        caps = {leaf: model.nodes[leaf].capacity for leaf in pool}
        best = None
        for combo in itertools.product(
            *(itertools.combinations(pool, s) for s in sizes)
        ):
            used: dict[str, int] = {}
            for block in combo:
                for leaf in block:
                    used[leaf] = used.get(leaf, 0) + 1
            if any(v > caps[leaf] for leaf, v in used.items()):
                continue
            mp = MultiPlacement(blocks=tuple(frozenset(b) for b in combo))
            agg = multi_aggregate(model, mp)
            if best is None or agg.entries < best:
                best = agg.entries
        agg, witness = oracle_multi(model, sizes)
        assert agg.entries == best
        assert multi_aggregate(model, witness).entries == best


def test_oracle_multi_infeasible_and_guard(two_rows, shared_tree):
    with pytest.raises(InfeasibleError):
        oracle_multi(two_rows, (10,))
    with pytest.raises(InfeasibleError):
        oracle_multi(two_rows, ())
    with pytest.raises(InfeasibleError):
        oracle_multi(two_rows, (2, 0))
    with pytest.raises(GuardLimitError):
        oracle_multi(shared_tree, (3, 3, 2), guard=10)


def test_oracle_multi_guard_counts_block_multisets(two_rows):
    # Nine leaves: two single-leaf blocks choose a multiset of 2 of 9
    # subsets, C(10, 2) = 45; (2, 2, 1) gives C(37, 2) * 9 = 5994.
    oracle_multi(two_rows, (1, 1), guard=45)
    with pytest.raises(GuardLimitError, match="search space 45 exceeds guard 44"):
        oracle_multi(two_rows, (1, 1), guard=44)
    with pytest.raises(GuardLimitError, match="search space 5994 exceeds guard 5993"):
        oracle_multi(two_rows, (2, 2, 1), guard=5993)


def test_oracle_multi_capacity_dead_end():
    # Two leaves with capacities 3 and 1 cannot host two disjoint pairs:
    # both blocks would need both leaves, using the small one twice.
    model_text = """
    {"nodes": [
      {"id": "r", "parent": null},
      {"id": "big", "parent": "r", "capacity": 3},
      {"id": "small", "parent": "r", "capacity": 1}
    ]}
    """
    model = parse_model(model_text)
    with pytest.raises(InfeasibleError):
        oracle_multi(model, (2, 2))


def test_check_balanced_two_rows(two_rows):
    clustered = Placement(leaves=frozenset({"srv7", "srv8", "srv9"}))
    violations = check_balanced(two_rows, clustered)
    assert violations
    pairs = {(v.node, v.light_child, v.heavy_child) for v in violations}
    assert ("row2", "rack3", "rack4") in pairs

    spread = Placement(leaves=frozenset({"srv4", "srv6", "srv7"}))
    assert check_balanced(two_rows, spread) == []


def test_check_balanced_ignores_filled_children(two_rows):
    # rack1 is completely filled, so being two ahead of rack2 is fine,
    # but rack2 being empty while rack3 holds two is not.
    placement = Placement(leaves=frozenset({"srv1", "srv2", "srv5", "srv6"}))
    violations = check_balanced(two_rows, placement)
    light = {(v.node, v.light_child) for v in violations}
    assert ("row1", "rack1") not in light
    assert any(v.light_child == "rack2" for v in violations)


def pairwise_violations(model, placement):
    # The definition itself: every ordered sibling pair, in child order.
    # The forest's roots are siblings under None, after every real node.
    fn = failure_numbers(model, placement)
    stats = subtree_stats(model)
    children = {**model.children, None: model.roots}
    return [
        (u, light, heavy, fn[light], fn[heavy])
        for u in children
        for light in children[u]
        if fn[light] < stats.leaf_count[light]
        for heavy in children[u]
        if fn[heavy] > fn[light] + 1
    ]


def test_check_balanced_matches_pairwise_definition():
    rng = random.Random(31)
    flagged = 0
    for trial in range(150):
        model = random_model(leaves=rng.randint(2, 40), seed=3100 + trial, max_fanout=6)
        leaves = sorted(model.leaves)
        placement = Placement(leaves=frozenset(rng.sample(leaves, rng.randint(0, len(leaves)))))
        found = [
            (v.node, v.light_child, v.heavy_child, v.light_count, v.heavy_count)
            for v in check_balanced(model, placement)
        ]
        assert found == pairwise_violations(model, placement), trial
        flagged += bool(found)
    assert flagged >= 50, flagged


def test_check_balanced_matches_pairwise_definition_on_forests():
    rng = random.Random(37)
    flagged = 0
    for trial in range(150):
        leaves = rng.randint(2, 40)
        roots = rng.randint(2, min(leaves, 4))
        model = random_model(leaves, 3700 + trial, max_fanout=6, roots=roots)
        ids = sorted(model.leaves)
        placement = Placement(leaves=frozenset(rng.sample(ids, rng.randint(0, len(ids)))))
        found = [
            (v.node, v.light_child, v.heavy_child, v.light_count, v.heavy_count)
            for v in check_balanced(model, placement)
        ]
        assert found == pairwise_violations(model, placement), trial
        flagged += any(v[0] is None for v in found)
    assert flagged >= 30, flagged


def test_check_balanced_compares_the_roots_of_a_forest():
    # Two roots of 4 servers each, with all three replicas under A: A
    # leads the empty B by 3. The aggregate is <1,0,3,6> against the
    # optimum <0,1,4,5>.
    nodes = [{"id": root, "parent": None} for root in "AB"]
    for root in "AB":
        nodes += [{"id": f"{root.lower()}{k}", "parent": root, "capacity": 1} for k in range(4)]
    model = parse_model(json.dumps({"nodes": nodes}))
    clustered = Placement(leaves=frozenset({"a0", "a1", "a2"}))
    assert failure_aggregate(model, clustered, 3).entries == (1, 0, 3, 6)
    assert oracle_single(model, 3)[0].entries == (0, 1, 4, 5)
    violations = check_balanced(model, clustered)
    assert [v.as_dict() for v in violations] == [
        {"node": None, "light_child": "B", "heavy_child": "A", "light_count": 0, "heavy_count": 3}
    ]
    spread = Placement(leaves=frozenset({"a0", "a1", "b0"}))
    assert check_balanced(model, spread) == []


def test_check_balanced_on_wide_nodes():
    # A 50k-leaf star: no leaf can hold two replicas, so nothing is heavy.
    nodes = [{"id": "root", "parent": None}]
    nodes += [{"id": f"s{i}", "parent": "root", "capacity": 1} for i in range(50_000)]
    star = parse_model(json.dumps({"nodes": nodes}))
    spread = Placement(leaves=frozenset(f"s{i}" for i in range(0, 50_000, 781)))
    assert len(spread) == 65
    assert check_balanced(star, spread) == []

    # 10k two-server racks with one full rack: every empty rack lags it.
    nodes = [{"id": "root", "parent": None}]
    for r in range(10_000):
        nodes.append({"id": f"r{r}", "parent": "root"})
        nodes += [{"id": f"r{r}s{k}", "parent": f"r{r}", "capacity": 1} for k in (0, 1)]
    racks = parse_model(json.dumps({"nodes": nodes}))
    full = Placement(leaves=frozenset({"r7s0", "r7s1", "r9s0"}))
    violations = check_balanced(racks, full)
    assert len(violations) == 9_998
    assert [v.light_child for v in violations[:7]] == [f"r{r}" for r in range(7)]
    assert violations[7].light_child == "r8"
    assert {(v.node, v.heavy_child, v.heavy_count) for v in violations} == {("root", "r7", 2)}

    # 20k three-server racks holding two replicas each: every rack is
    # both light and heavy, and none beats another. A check that scans
    # every heavy sibling per light child takes about 30 s here.
    nodes = [{"id": "root", "parent": None}]
    for r in range(20_000):
        nodes.append({"id": f"r{r}", "parent": "root"})
        nodes += [{"id": f"r{r}s{k}", "parent": f"r{r}", "capacity": 1} for k in (0, 1, 2)]
    racks = parse_model(json.dumps({"nodes": nodes}))
    pairs = Placement(leaves=frozenset(f"r{r}s{k}" for r in range(20_000) for k in (0, 1)))
    started = time.perf_counter()
    assert check_balanced(racks, pairs) == []
    assert time.perf_counter() - started < 10.0
