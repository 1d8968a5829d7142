from __future__ import annotations

import json

import pytest

from fdplace.errors import ModelError
from fdplace.model import ancestors, parse_model, postorder, render_model, subtree_stats

from conftest import fixture_path


def make(nodes):
    return json.dumps({"nodes": nodes})


def test_parse_two_rows_fixture(two_rows):
    assert len(two_rows) == 15
    assert two_rows.roots == ["row1", "row2"]
    assert two_rows.children["row1"] == ["rack1", "rack2"]
    assert two_rows.children["rack4"] == ["srv7", "srv8", "srv9"]
    assert len(two_rows.leaves) == 9
    assert all(two_rows.is_leaf(s) for s in two_rows.leaves)
    assert two_rows.capacity("srv1") == 1
    assert two_rows.parent("rack3") == "row2"
    assert two_rows.parent("row1") is None
    assert two_rows.nodes["row1"].kind == "internal-event"
    assert two_rows.nodes["srv9"].kind == "leaf-server"


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
    assert sorted(order) == sorted(two_rows.node_ids())
    position = {node: i for i, node in enumerate(order)}
    for node, kids in two_rows.children.items():
        for child in kids:
            assert position[child] < position[node]


def test_postorder_with_explicit_starts(two_rows):
    order = postorder(two_rows, starts=["rack4"])
    assert order == ["srv7", "srv8", "srv9", "rack4"]


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


def test_ancestors_walk_up_to_the_root(two_rows):
    assert list(ancestors(two_rows, "srv7")) == ["srv7", "rack4", "row2"]
    assert list(ancestors(two_rows, "row1")) == ["row1"]


def test_subtree_stats_node_counts_and_depths(two_rows):
    stats = subtree_stats(two_rows)
    assert stats.node_count["row1"] == 7
    assert stats.node_count["rack4"] == 4
    assert stats.node_count["srv9"] == 1
    assert stats.min_rel_depth["row2"] == 2
    assert stats.min_rel_depth["rack3"] == 1
    assert stats.min_rel_depth["srv5"] == 0
