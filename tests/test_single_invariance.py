"""Single-block invariance: relabeling a model never changes an optimum.

Child order is file order, so shuffling the file shuffles every sibling
list; a sibling-only shuffle keeps each parent ahead of its children.
Renaming ids changes every tie break by id. None of these may change
the objective of solve_fast, solve_basic or solve_greedy, and every
witness must re-evaluate to its objective and be balanced.
"""

from __future__ import annotations

import json
import random
from collections import Counter

from fdplace.generate import random_model
from fdplace.metrics import failure_aggregate
from fdplace.model import FailureModel, parse_model
from fdplace.oracle import check_balanced
from fdplace.single import solve_basic, solve_fast, solve_greedy

SOLVERS = {"fast": solve_fast, "basic": solve_basic, "greedy": solve_greedy}


def rebuild(model: FailureModel, order: list[str], names: dict[str, str]) -> FailureModel:
    nodes = []
    for node_id in order:
        node = model.nodes[node_id]
        entry: dict[str, object] = {
            "id": names[node_id],
            "parent": None if node.parent is None else names[node.parent],
        }
        if node.capacity is not None:
            entry["capacity"] = node.capacity
        nodes.append(entry)
    return parse_model(json.dumps({"nodes": nodes}))


def variants(model: FailureModel, rng: random.Random) -> dict[str, FailureModel]:
    same = {node_id: node_id for node_id in model.nodes}
    file_order = list(model.nodes)
    rng.shuffle(file_order)

    sibling_order = []
    stack = rng.sample(model.roots, len(model.roots))
    while stack:
        node_id = stack.pop()
        sibling_order.append(node_id)
        stack.extend(rng.sample(model.children[node_id], len(model.children[node_id])))

    fresh = rng.sample(range(len(model.nodes)), len(model.nodes))
    renamed = {node_id: f"n{k}" for node_id, k in zip(model.nodes, fresh)}
    return {
        "file order": rebuild(model, file_order, same),
        "sibling order": rebuild(model, sibling_order, same),
        "renamed": rebuild(model, list(model.nodes), renamed),
        "renamed and shuffled": rebuild(model, file_order, renamed),
    }


def test_single_block_objectives_are_invariant():
    rng = random.Random(4242)
    seen = Counter()
    for trial in range(150):
        model = random_model(
            leaves=rng.randint(2, 40),
            seed=42_000 + trial,
            max_fanout=rng.randint(2, 5),
            max_capacity=rng.randint(1, 3),
            roots=rng.choice((1, 1, 2, 3)),
        )
        rho = rng.randint(1, len(model.leaves))
        base = {name: solve(model, rho)[0].entries for name, solve in SOLVERS.items()}
        assert len(set(base.values())) == 1, (trial, base)
        for kind, variant in variants(model, rng).items():
            for name, solve in SOLVERS.items():
                agg, placement = solve(variant, rho)
                assert agg.entries == base[name], (trial, kind, name)
                assert len(placement) == rho
                assert failure_aggregate(variant, placement, rho).entries == agg.entries
                assert check_balanced(variant, placement) == [], (trial, kind, name)
            seen[kind] += 1
        seen[f"roots={len(model.roots)}"] += 1
    assert seen["roots=2"] >= 20 and seen["roots=3"] >= 20, seen
