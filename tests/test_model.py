from __future__ import annotations

import json
import random

import pytest

from fdplace.errors import ModelError
from fdplace.generate import random_model
from fdplace.metrics import MultiPlacement, Placement, failure_aggregate, multi_aggregate
from fdplace.model import (
    FailureModel,
    Node,
    Tree,
    _compile,
    _entries,
    parse_model,
    postorder,
    render_model,
    subtree_stats,
)
from fdplace.multi import solve_multi

from conftest import fixture_path


def make(nodes):
    return json.dumps({"nodes": nodes})


def test_parse_two_rows_fixture(two_rows):
    assert len(two_rows) == 15
    assert two_rows.roots == ["row1", "row2"]
    assert two_rows.children["row1"] == ["rack1", "rack2"]
    assert two_rows.children["rack4"] == ["srv7", "srv8", "srv9"]
    assert len(two_rows.leaves) == 9
    assert all(two_rows.nodes[s].capacity for s in two_rows.leaves)
    assert two_rows.nodes["srv1"].capacity == 1
    assert two_rows.nodes["rack3"].parent == "row2"
    assert two_rows.nodes["row1"].parent is None
    assert two_rows.nodes["row1"].capacity is None
    assert two_rows.nodes["srv9"].capacity is not None


def test_child_order_follows_file_order():
    text = make(
        [
            {"id": "r", "parent": None},
            {"id": "b", "parent": "r", "capacity": 1},
            {"id": "a", "parent": "r", "capacity": 1},
        ]
    )
    model = parse_model(text)
    assert model.children["r"] == ["b", "a"]


def test_capacity_on_internal_node_rejected():
    with pytest.raises(ModelError):
        parse_model(
            make(
                [
                    {"id": "r", "parent": None, "capacity": 2},
                    {"id": "x", "parent": "r", "capacity": 1},
                ]
            )
        )


def test_childless_node_without_capacity_rejected():
    with pytest.raises(ModelError):
        parse_model(make([{"id": "r", "parent": None}]))


def test_duplicate_id_rejected():
    with pytest.raises(ModelError):
        parse_model(
            make(
                [
                    {"id": "x", "parent": None, "capacity": 1},
                    {"id": "x", "parent": None, "capacity": 1},
                ]
            )
        )


def test_unknown_parent_rejected():
    with pytest.raises(ModelError):
        parse_model(make([{"id": "x", "parent": "ghost", "capacity": 1}]))


def test_self_parent_rejected():
    with pytest.raises(ModelError):
        parse_model(make([{"id": "x", "parent": "x", "capacity": 1}]))


def test_parent_cycle_rejected():
    with pytest.raises(ModelError):
        parse_model(
            make(
                [
                    {"id": "ok", "parent": None, "capacity": 1},
                    {"id": "p", "parent": "q"},
                    {"id": "q", "parent": "p"},
                ]
            )
        )


def test_bad_capacity_values_rejected():
    for cap in (0, -1, True, "3", 1.5):
        with pytest.raises(ModelError):
            parse_model(make([{"id": "x", "parent": None, "capacity": cap}]))


def test_unknown_field_rejected():
    with pytest.raises(ModelError):
        parse_model(make([{"id": "x", "parent": None, "capacity": 1, "rank": 2}]))


def test_empty_and_malformed_documents_rejected():
    for text in ("", "{", "[]", "{}", '{"nodes": {}}', '{"nodes": []}', '{"nodes": [3]}'):
        with pytest.raises(ModelError):
            parse_model(text)


def test_model_needs_nodes_or_a_tree():
    with pytest.raises(TypeError, match="^a model needs nodes or a tree$"):
        FailureModel()


def test_render_round_trip(two_rows):
    text = render_model(two_rows)
    again = parse_model(text)
    assert again.roots == two_rows.roots
    assert again.children == two_rows.children
    assert again.leaves == two_rows.leaves
    assert render_model(again) == text


def test_render_matches_fixture_structure():
    text = fixture_path("two_rows.json").read_text()
    model = parse_model(text)
    doc = json.loads(render_model(model))
    assert [e["id"] for e in doc["nodes"]] == list(model.nodes)


def test_postorder_children_before_parents(two_rows):
    order = postorder(two_rows)
    assert sorted(order) == sorted(two_rows.nodes)
    position = {node: i for i, node in enumerate(order)}
    for node, kids in two_rows.children.items():
        for child in kids:
            assert position[child] < position[node]


def test_subtree_stats_two_rows(two_rows):
    stats = subtree_stats(two_rows)
    assert stats.leaf_count["row1"] == 4
    assert stats.leaf_count["row2"] == 5
    assert stats.leaf_count["rack4"] == 3
    assert stats.leaf_count["srv1"] == 1
    assert stats.node_count["row2"] == 8
    assert stats.min_depth_leaf["row1"] == "srv1"
    assert stats.min_depth_leaf["rack3"] == "srv5"
    assert stats.min_depth_leaf["srv6"] == "srv6"


def test_subtree_stats_prefers_shallowest_leaf():
    model = parse_model(
        make(
            [
                {"id": "r", "parent": None},
                {"id": "mid", "parent": "r"},
                {"id": "deep", "parent": "mid", "capacity": 1},
                {"id": "near", "parent": "r", "capacity": 1},
            ]
        )
    )
    stats = subtree_stats(model)
    assert stats.min_depth_leaf["r"] == "near"


def up(model: FailureModel, node_id: str) -> list[str]:
    t = model.tree
    return [t.ids[u] for u in t.up(t.index[node_id])]


def test_ancestors_walk_up_to_the_root(two_rows):
    assert up(two_rows, "srv7") == ["srv7", "rack4", "row2"]
    assert up(two_rows, "row1") == ["row1"]


def hand_built() -> FailureModel:
    """Built from Node objects the way bench/workloads.py builds its
    datacenter shapes: a root, racks of uneven size, servers."""
    nodes = {"dc": Node("dc", None, None)}
    children: dict[str, list[str]] = {"dc": []}
    for rack, size in enumerate((3, 1, 4, 2)):
        nodes[f"r{rack}"] = Node(f"r{rack}", "dc", None)
        children["dc"].append(f"r{rack}")
        children[f"r{rack}"] = []
        for k in range(size):
            server = f"r{rack}s{k}"
            nodes[server] = Node(server, f"r{rack}", 1 + k % 2)
            children[f"r{rack}"].append(server)
            children[server] = []
    leaves = [u for u, node in nodes.items() if node.capacity is not None]
    return FailureModel(nodes=nodes, roots=["dc"], children=children, leaves=leaves)


def generated(leaves, seed, shuffle=False, **kwargs) -> FailureModel:
    model = random_model(leaves, seed, **kwargs)
    if not shuffle:
        return model
    entries = json.loads(render_model(model))["nodes"]
    random.Random(seed).shuffle(entries)
    return parse_model(make(entries))


COMPILED_CASES = {
    "two rows": lambda: parse_model(fixture_path("two_rows.json").read_text()),
    "shared tree": lambda: parse_model(fixture_path("shared_tree.json").read_text()),
    "forest": lambda: generated(60, 11, roots=3),
    "chains": lambda: generated(40, 7, max_fanout=2),
    "capacities": lambda: generated(50, 3, max_capacity=3, max_fanout=5),
    "children before parents": lambda: generated(60, 5, shuffle=True, roots=2, max_capacity=3),
    "star": lambda: generated(30, 2, max_fanout=30),
    "hand built": hand_built,
}


@pytest.mark.parametrize("case", sorted(COMPILED_CASES))
def test_compiled_views_match_their_definitions(case):
    model = COMPILED_CASES[case]()
    entries = json.loads(render_model(model))["nodes"]
    if case == "children before parents":
        assert not isinstance(model.tree.bottom_up, range)
    ids = [e["id"] for e in entries]
    parent = {e["id"]: e["parent"] for e in entries}
    kids = {u: [v for v in ids if parent[v] == u] for u in ids}
    roots = [v for v in ids if parent[v] is None]
    assert model.roots == roots
    assert model.children == kids
    assert model.leaves == [e["id"] for e in entries if "capacity" in e]
    assert [(n.id, n.parent, n.capacity) for n in model.nodes.values()] == [
        (e["id"], e["parent"], e.get("capacity")) for e in entries
    ]

    def post(u):
        return [w for c in kids[u] for w in post(c)] + [u]

    assert postorder(model) == [w for r in roots for w in post(r)]
    starts = ids[len(ids) // 2 :: 7]
    t = model.tree
    walked = t.walk([t.index[s] for s in starts])
    assert [t.ids[w] for w in reversed(walked)] == [w for s in starts for w in post(s)]
    for u in ids:
        path = [u]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        assert up(model, u) == path

    stats = subtree_stats(model)
    for u in ids:
        below = post(u)
        leaves = [w for w in below if not kids[w]]
        assert stats.leaf_count[u] == len(leaves)
        assert stats.node_count[u] == len(below)
        depth = {}
        for w in reversed(below):
            depth[w] = 0 if w == u else depth[parent[w]] + 1
        shallowest = min(depth[w] for w in leaves)
        assert stats.min_rel_depth[u] == shallowest
        # Ties go to the first child, so to the first leaf in postorder.
        assert stats.min_depth_leaf[u] == next(w for w in leaves if depth[w] == shallowest)


def eager_summaries(tree: Tree) -> tuple[list[int], list[int], list[int], list[int]]:
    """The subtree summaries by their definitions, node by node from the
    children lists, the virtual root n included."""
    n = len(tree.ids)
    leaf_count, node_count, depth, best = ([0] * (n + 1) for _ in range(4))
    for u in reversed(tree.walk([n])):
        kids = tree.children(u)
        if not kids:
            leaf_count[u], node_count[u], depth[u], best[u] = 1, 1, 0, u
            continue
        leaf_count[u] = sum(leaf_count[c] for c in kids)
        node_count[u] = sum(node_count[c] for c in kids) + (u != n)
        shallowest = min(kids, key=depth.__getitem__)  # the first on ties
        depth[u], best[u] = depth[shallowest] + 1, best[shallowest]
    return leaf_count, node_count, depth, best


def some_leaves(model: FailureModel, start: int, stop: int) -> frozenset[str]:
    t = model.tree
    return frozenset([t.ids[u] for u, c in enumerate(t.capacity) if c][start:stop])


SUMMARIES = ("leaf_count", "min_rel_depth", "min_depth_leaf")
# Commands that never read the subtree summaries.
NO_SUMMARIES = {
    "failure_aggregate": lambda m: failure_aggregate(m, Placement(some_leaves(m, 0, 3)), 3),
    "multi_aggregate": lambda m: multi_aggregate(
        m, MultiPlacement((some_leaves(m, 0, 2), some_leaves(m, 2, 3)))
    ),
    "solve_multi": lambda m: solve_multi(m, (2, 2, 1)),
}


@pytest.mark.parametrize("call", sorted(NO_SUMMARIES))
@pytest.mark.parametrize("seed", range(3))
def test_subtree_summaries_wait_for_their_first_read(call, seed):
    shape = dict(roots=1 + seed, max_capacity=2, max_fanout=3 + seed)
    model = parse_model(render_model(generated(120, seed, shuffle=seed == 2, **shape)))
    NO_SUMMARIES[call](model)
    tree = model.tree
    assert not vars(tree).keys() & set(SUMMARIES)
    summaries = tuple(getattr(tree, name) for name in SUMMARIES)
    leaf_count, node_count, depth, best = eager_summaries(tree)
    assert summaries == (leaf_count, depth, best)
    assert vars(tree).keys() >= set(SUMMARIES)
    assert subtree_stats(model).node_count == dict(zip(tree.ids, node_count))
    assert tree.leaf_total == tree.leaf_count[tree.root] == len(model.leaves)


def test_subtree_stats_node_counts_and_depths(two_rows):
    stats = subtree_stats(two_rows)
    assert stats.node_count["row1"] == 7
    assert stats.node_count["rack4"] == 4
    assert stats.node_count["srv9"] == 1
    assert stats.min_rel_depth["row2"] == 2
    assert stats.min_rel_depth["rack3"] == 1
    assert stats.min_rel_depth["srv5"] == 0


def leaf(node_id, parent=None, capacity=1):
    return {"id": node_id, "parent": parent, "capacity": capacity}


def inner(node_id, parent=None):
    return {"id": node_id, "parent": parent}


CYCLE = [inner("p", "q"), inner("q", "p")]
PARENT_CYCLE = "model contains a parent cycle unreachable from any root"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        (
            "{",
            "invalid JSON: Expecting property name enclosed in double quotes:"
            " line 1 column 2 (char 1)",
        ),
        ("[]", 'model document must be an object with a "nodes" array'),
        ("{}", 'model document must be an object with a "nodes" array'),
        ('{"nodes": {}}', '"nodes" must be an array'),
        ('{"nodes": []}', "model has no nodes"),
        ('{"nodes": [3]}', "node entry must be an object, got int"),
        (make([{**leaf("x"), "rank": 2}]), "unknown node fields: ['rank']"),
        (make([leaf("")]), "node id must be a non-empty string, got ''"),
        (make([{"parent": None, "capacity": 1}]), "node id must be a non-empty string, got None"),
        (make([leaf("x", 3)]), "parent of 'x' must be a string or null"),
        (make([leaf("x", "x")]), "node 'x' is its own parent"),
        (make([leaf("x", capacity=0)]), "capacity of 'x' must be positive"),
        (make([leaf("x", capacity=-1)]), "capacity of 'x' must be positive"),
        (make([leaf("x", capacity=True)]), "capacity of 'x' must be an integer"),
        (make([leaf("x", capacity="3")]), "capacity of 'x' must be an integer"),
        (make([leaf("x", capacity=1.5)]), "capacity of 'x' must be an integer"),
        (make([leaf("x"), leaf("x")]), "duplicate node id 'x'"),
        (make([leaf("x", "ghost")]), "node 'x' has unknown parent 'ghost'"),
        (make([leaf("r", capacity=2), leaf("x", "r")]), "leaf 'r' has capacity but also children"),
        (make([inner("r")]), "childless node 'r' has no capacity"),
        (make([leaf("ok"), *CYCLE]), PARENT_CYCLE),
        # Two faults: entries are checked one by one in file order, then
        # parents, then leaves, then cycles; the first fault found wins.
        (make([{"id": "", "parent": None, "rank": 1}]), "unknown node fields: ['rank']"),
        (make([leaf("x", "x", capacity=0)]), "node 'x' is its own parent"),
        (make([inner("r"), leaf("x", "ghost")]), "node 'x' has unknown parent 'ghost'"),
        (
            make([leaf("x", "ghost"), inner("y", "x"), leaf("ok"), leaf("ok")]),
            "duplicate node id 'ok'",
        ),
        (make([leaf("ok"), *CYCLE, leaf("ok")]), "duplicate node id 'ok'"),
        (make([*CYCLE, leaf("z", "q"), inner("w", "gone")]), "node 'w' has unknown parent 'gone'"),
        (make([inner("z"), leaf("r"), leaf("a", "r")]), "childless node 'z' has no capacity"),
        (
            make([leaf("a", "r"), inner("r"), inner("z", "r")]),
            "childless node 'z' has no capacity",
        ),
        (make([leaf("ok"), *CYCLE, leaf("z", "ok")]), "leaf 'ok' has capacity but also children"),
        (make([leaf("ok"), *CYCLE, inner("z", "q")]), "childless node 'z' has no capacity"),
        (make([leaf("s", "p"), *CYCLE, leaf("t", "ok"), inner("ok")]), PARENT_CYCLE),
        # Faults in different entries: the first entry in file order
        # wins, whichever kind of check would see the other one first.
        (make([leaf("a", capacity=0), leaf("b", 3)]), "capacity of 'a' must be positive"),
        (
            make([leaf("a", capacity=True), {**leaf("b"), "rank": 1}]),
            "capacity of 'a' must be an integer",
        ),
        (make([leaf("a", "a"), leaf("")]), "node 'a' is its own parent"),
        (make([leaf("a", 3), leaf("b"), leaf("b")]), "parent of 'a' must be a string or null"),
        (make([leaf("a"), leaf("a"), 3]), "duplicate node id 'a'"),
        (make([leaf("a", capacity=1.5), {"parent": None}]), "capacity of 'a' must be an integer"),
        (make([leaf("a", capacity=-2), leaf("b", "b")]), "capacity of 'a' must be positive"),
        (make([leaf("a", "b", capacity=0), leaf("b")]), "capacity of 'a' must be positive"),
        # Each branch of the combined id, parent and capacity tests: an
        # explicit null capacity is no capacity, and within one entry the
        # parent's faults come before the capacity's.
        (make([leaf("z", capacity=None), leaf("s")]), "childless node 'z' has no capacity"),
        (make([leaf("x", [], capacity=0)]), "parent of 'x' must be a string or null"),
        (make([leaf("x", "x", capacity=True)]), "node 'x' is its own parent"),
        (make([leaf(True)]), "node id must be a non-empty string, got True"),
    ],
)
def test_parse_error_messages_and_their_precedence(text, message):
    with pytest.raises(ModelError) as caught:
        parse_model(text)
    assert str(caught.value) == message


def test_parse_accepts_null_capacity_inside_and_huge_capacity_on_leaves():
    tree = parse_model(make([leaf("r", capacity=None), leaf("s", "r", capacity=10**30)])).tree
    assert (tree.ids, tree.parent, tree.capacity) == (["r", "s"], [2, 0], [0, 10**30])


def checked_parse(entries: list) -> Tree:
    """parse_model's checks one at a time: the per-entry loop, then the
    first unknown parent in file order, then the rest of _compile."""
    # _entries releases each entry of the list it is handed.
    ids, index, parents, capacity = _entries({"nodes": list(entries)})
    for u, p in enumerate(parents):
        if p is not None and p not in index:
            raise ModelError(f"node {ids[u]!r} has unknown parent {p!r}")
    return _compile(ids, index, parents, capacity)


MUTANTS = (None, "", "x", "s1", "d1", 0, -1, 1, 2, 10**30, True, False, 1.5, "3", [], {})


def test_parse_model_matches_its_checks_made_one_at_a_time():
    rng = random.Random(2017)
    refused = 0
    for trial in range(400):
        leaves = rng.randint(1, 9)
        base = random_model(leaves, trial, max_capacity=3, roots=rng.randint(1, min(leaves, 3)))
        entries = json.loads(render_model(base))["nodes"]
        for _ in range(rng.choice((1, 1, 2))):
            k = rng.randrange(len(entries))
            roll = rng.random()
            if roll < 0.05:
                entries[k] = rng.choice((3, "n", None, []))
            elif isinstance(entries[k], dict):
                field = rng.choice(("id", "parent", "capacity", "rank"))
                if roll < 0.2:
                    entries[k].pop(field, None)
                else:
                    ids = [e["id"] for e in entries if isinstance(e, dict) and "id" in e]
                    entries[k][field] = rng.choice(MUTANTS + tuple(ids))
        try:
            expected = checked_parse(entries)
        except ModelError as exc:
            refused += 1
            with pytest.raises(ModelError) as caught:
                parse_model(make(entries))
            assert str(caught.value) == str(exc), entries
            continue
        tree = parse_model(make(entries)).tree
        assert (tree.ids, tree.parent, tree.capacity, tree.kids, tree.first) == (
            expected.ids,
            expected.parent,
            expected.capacity,
            expected.kids,
            expected.first,
        )
        assert list(tree.bottom_up) == list(expected.bottom_up)
    assert 100 < refused < 390, refused
