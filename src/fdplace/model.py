"""Failure model: a forest of failure domains with capacitated servers.

A model is a rooted forest. Internal nodes are failure events (a row
losing power, a rack losing its uplink). Leaves are servers and carry a
positive replica capacity. The JSON wire format is::

    {"nodes": [{"id": "row1", "parent": null},
               {"id": "srv1", "parent": "row1", "capacity": 1},
               ...]}

Exactly the leaves carry "capacity". Node order in the file is
preserved and used as the child order everywhere downstream.

This module holds the only tree walks: postorder walks the forest or
chosen subtrees, children first, and ancestors walks a node up to its
root. children_of treats None as a virtual root whose children are
the model's roots. subtree_stats prepares the tree for a solve in one
postorder pass: for every node, the leaf and node counts of its
subtree and its shallowest leaf with that leaf's depth below the node.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from .errors import ModelError


@dataclass(frozen=True)
class Node:
    id: str
    parent: str | None
    capacity: int | None

    @property
    def kind(self) -> str:
        return "internal-event" if self.capacity is None else "leaf-server"


@dataclass
class FailureModel:
    """Validated forest with derived lookup tables."""

    nodes: dict[str, Node]
    roots: list[str] = field(default_factory=list)
    children: dict[str, list[str]] = field(default_factory=dict)
    leaves: list[str] = field(default_factory=list)

    def is_leaf(self, node_id: str) -> bool:
        return self.nodes[node_id].capacity is not None

    def capacity(self, node_id: str) -> int:
        cap = self.nodes[node_id].capacity
        if cap is None:
            raise ModelError(f"node {node_id!r} is not a leaf")
        return cap

    def parent(self, node_id: str) -> str | None:
        return self.nodes[node_id].parent

    def node_ids(self) -> list[str]:
        return list(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


def _check_node_entry(entry: object, seen: dict[str, Node]) -> Node:
    if not isinstance(entry, dict):
        raise ModelError(f"node entry must be an object, got {type(entry).__name__}")
    unknown = set(entry) - {"id", "parent", "capacity"}
    if unknown:
        raise ModelError(f"unknown node fields: {sorted(unknown)}")
    node_id = entry.get("id")
    if not isinstance(node_id, str) or not node_id:
        raise ModelError(f"node id must be a non-empty string, got {node_id!r}")
    if node_id in seen:
        raise ModelError(f"duplicate node id {node_id!r}")
    parent = entry.get("parent")
    if parent is not None and not isinstance(parent, str):
        raise ModelError(f"parent of {node_id!r} must be a string or null")
    if parent == node_id:
        raise ModelError(f"node {node_id!r} is its own parent")
    capacity = entry.get("capacity")
    if capacity is not None:
        if isinstance(capacity, bool) or not isinstance(capacity, int):
            raise ModelError(f"capacity of {node_id!r} must be an integer")
        if capacity < 1:
            raise ModelError(f"capacity of {node_id!r} must be positive")
    return Node(id=node_id, parent=parent, capacity=capacity)


def decode_json(text: str) -> object:
    """json.loads, refusing with ModelError whatever the decoder
    refuses: bad syntax, nesting deeper than the interpreter's recursion
    limit, or an integer longer than its digit limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ModelError(f"invalid JSON: {exc}") from exc


def parse_model(text: str) -> FailureModel:
    """Parse and validate the JSON wire format.

    Raises ModelError for structural problems: duplicate ids, unknown
    parents, capacity on an internal node or missing on a leaf, parent
    cycles, or an empty model.
    """
    doc = decode_json(text)
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise ModelError('model document must be an object with a "nodes" array')
    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list):
        raise ModelError('"nodes" must be an array')
    if not raw_nodes:
        raise ModelError("model has no nodes")

    nodes: dict[str, Node] = {}
    for entry in raw_nodes:
        node = _check_node_entry(entry, nodes)
        nodes[node.id] = node

    children: dict[str, list[str]] = {node_id: [] for node_id in nodes}
    roots: list[str] = []
    for node in nodes.values():
        if node.parent is None:
            roots.append(node.id)
        else:
            if node.parent not in nodes:
                raise ModelError(f"node {node.id!r} has unknown parent {node.parent!r}")
            children[node.parent].append(node.id)

    for node in nodes.values():
        if node.capacity is not None and children[node.id]:
            raise ModelError(f"leaf {node.id!r} has capacity but also children")
        if node.capacity is None and not children[node.id]:
            raise ModelError(f"childless node {node.id!r} has no capacity")

    # Parent links could still form a cycle detached from every root.
    # Everything a root can reach is acyclic (each node has one parent),
    # so a full reachability sweep doubles as the cycle check.
    reached = 0
    stack = list(roots)
    while stack:
        node_id = stack.pop()
        reached += 1
        stack.extend(children[node_id])
    if reached != len(nodes):
        raise ModelError("model contains a parent cycle unreachable from any root")

    leaves = [node.id for node in nodes.values() if node.capacity is not None]
    return FailureModel(nodes=nodes, roots=roots, children=children, leaves=leaves)


def render_model(model: FailureModel) -> str:
    """Serialize back to the wire format, preserving node order."""
    entries = []
    for node in model.nodes.values():
        entry: dict[str, object] = {"id": node.id, "parent": node.parent}
        if node.capacity is not None:
            entry["capacity"] = node.capacity
        entries.append(entry)
    return json.dumps({"nodes": entries}, indent=2) + "\n"


@dataclass
class SubtreeStats:
    """The prepared tree: per-node subtree summaries, keyed by node id.

    leaf_count and node_count count the leaves and the nodes of each
    subtree. min_rel_depth is how far below the node its shallowest
    leaf sits, and min_depth_leaf names that leaf (first in child order
    on ties). Siblings share a depth, so the shallowest leaf relative
    to a node is also the shallowest in absolute depth.
    """

    leaf_count: dict[str, int]
    node_count: dict[str, int]
    min_rel_depth: dict[str, int]
    min_depth_leaf: dict[str, str]


def postorder(model: FailureModel, starts: Sequence[str] | None = None) -> list[str]:
    """Iterative postorder over the forest (children before parents).

    With starts, only the subtrees of those nodes are walked. Built as
    a preorder that visits children last to first, then reversed.
    """
    children = model.children
    order: list[str] = []
    stack = list(starts if starts is not None else model.roots)
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        stack.extend(children[node_id])
    order.reverse()
    return order


def children_of(model: FailureModel, node_id: str | None) -> list[str]:
    """Children of node_id; None is a virtual root whose children are
    the model's roots, so a solver can treat a forest as one tree."""
    return model.roots if node_id is None else model.children[node_id]


def ancestors(model: FailureModel, node_id: str) -> Iterator[str]:
    """Yield node_id, then its parent, and so on up to its root."""
    nodes = model.nodes
    cursor: str | None = node_id
    while cursor is not None:
        yield cursor
        cursor = nodes[cursor].parent


def subtree_stats(model: FailureModel) -> SubtreeStats:
    """Prepare the tree in one postorder pass."""
    children = model.children
    leaf_count: dict[str, int] = {}
    node_count: dict[str, int] = {}
    min_rel_depth: dict[str, int] = {}
    min_depth_leaf: dict[str, str] = {}
    for u in postorder(model):
        kids = children[u]
        if not kids:
            leaf_count[u] = 1
            node_count[u] = 1
            min_rel_depth[u] = 0
            min_depth_leaf[u] = u
            continue
        leaves = 0
        count = 1
        best = kids[0]
        depth = min_rel_depth[best]
        for c in kids:
            leaves += leaf_count[c]
            count += node_count[c]
            if min_rel_depth[c] < depth:
                best = c
                depth = min_rel_depth[c]
        leaf_count[u] = leaves
        node_count[u] = count
        min_rel_depth[u] = depth + 1
        min_depth_leaf[u] = min_depth_leaf[best]
    return SubtreeStats(leaf_count, node_count, min_rel_depth, min_depth_leaf)
