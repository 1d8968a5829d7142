"""Failure model: a forest of failure domains with capacitated servers.

A model is a rooted forest. Internal nodes are failure events (a row
losing power, a rack losing its uplink). Leaves are servers and carry a
positive replica capacity. The JSON wire format is::

    {"nodes": [{"id": "row1", "parent": null},
               {"id": "srv1", "parent": "row1", "capacity": 1},
               ...]}

Exactly the leaves carry "capacity". Node order in the file is
preserved and used as the child order everywhere downstream.

parse_model validates the entries and compiles them into a Tree, flat
lists indexed by file position, which the solvers work on. Parsing
links the nodes and orders them bottom up; the subtree summaries that
only the single-block solvers and the oracles read are computed the
first time one of them is read. The id-keyed surface (nodes, children,
roots, leaves, subtree_stats, postorder) is derived from the tree on
first use.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property, partial
from itertools import accumulate, chain, repeat
from operator import eq, is_not, lt
from types import NoneType

from .errors import ModelError
from .value import Value

FIELDS = frozenset(("id", "parent", "capacity"))


class Node(namedtuple("Node", ("id", "parent", "capacity"))):
    """One entry of the wire format: id, parent id (None for a root)
    and capacity (None on internal nodes). The id views build one per
    node, and a named tuple builds faster than a class with a Python
    __init__."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        return "internal-event" if self.capacity is None else "leaf-server"


class _Summary:
    """A subtree summary of Tree. Its first read runs Tree._summarize,
    which sets all four as plain attributes that hide this descriptor.
    (functools.cached_property would store them through the instance
    __dict__, and on CPython 3.11 and 3.12 that makes every later
    attribute read of the tree about three times slower, kids and first
    included.)"""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, tree: Tree | None, owner: type | None = None) -> list[int] | _Summary:
        if tree is None:
            return self
        tree._summarize()
        return getattr(tree, self.name)


class Tree:
    """The compiled model. Node i is the i-th node in file order; node
    n = root is a virtual root whose children are the model's roots, so
    a solver can treat a forest as one tree. parent[u] is n for a root,
    capacity[u] is 0 on internal nodes, and u's children, in file order,
    are kids[first[u]:first[u + 1]]. bottom_up lists the real nodes,
    each after all of its descendants.

    The subtree summaries, per node, n included, are computed by one
    pass over bottom_up the first time one of them is read: leaf_count
    and node_count count its subtree's leaves and nodes (n not counting
    itself); its shallowest leaf is min_depth_leaf (first in child order
    on ties), min_rel_depth below it. leaf_total, the number of leaves,
    needs no such pass.
    """

    def __init__(
        self,
        ids: list[str],
        index: dict[str, int],
        parent: list[int],
        capacity: list[int],
        first: list[int],
        kids: list[int],
        bottom_up: Sequence[int],
        leaf_total: int,
    ) -> None:
        self.ids = ids
        self.index = index
        self.parent = parent
        self.capacity = capacity
        self.first = first
        self.kids = kids
        self.bottom_up = bottom_up
        self.leaf_total = leaf_total

    @property
    def root(self) -> int:
        return len(self.ids)

    leaf_count = _Summary()
    node_count = _Summary()
    min_rel_depth = _Summary()
    min_depth_leaf = _Summary()

    def _summarize(self) -> None:
        n, parent = len(self.ids), self.parent
        # Later siblings come first in bottom_up, so `<=` hands ties to
        # the first child.
        leaf_count = [1 if c else 0 for c in self.capacity] + [0]
        node_count = [1] * n + [0]
        depth = [0 if c else n for c in self.capacity] + [n]
        best = list(range(n + 1))
        for u in self.bottom_up:
            p = parent[u]
            leaf_count[p] += leaf_count[u]
            node_count[p] += node_count[u]
            d = depth[u] + 1
            if d <= depth[p]:
                depth[p] = d
                best[p] = best[u]
        self.leaf_count, self.node_count = leaf_count, node_count
        self.min_rel_depth, self.min_depth_leaf = depth, best

    def children(self, u: int) -> list[int]:
        return self.kids[self.first[u] : self.first[u + 1]]

    def walk(self, starts: Sequence[int]) -> list[int]:
        """The subtrees of starts, parents first: a preorder that visits
        children last to first, so reversed it is a postorder."""
        first, kids = self.first, self.kids
        order: list[int] = []
        stack = list(starts)
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(kids[first[u] : first[u + 1]])
        return order

    def up(self, u: int) -> list[int]:
        """u, then its parent, and so on up to its root."""
        parent, top = self.parent, len(self.ids)
        path = []
        while u != top:
            path.append(u)
            u = parent[u]
        return path


def _compile(ids: list[str], index: dict[str, int], parents: list, capacity: list[int]) -> Tree:
    """Link and check nodes given in file order: parents holds parent
    ids, capacity 0 marks an internal node."""
    n = len(ids)
    # Roots and unknown parents both map to n; only roots have None.
    parent = list(map(index.get, parents, repeat(n)))
    if parent.count(n) != parents.count(None):
        u = next(u for u, p in enumerate(parents) if p is not None and parent[u] == n)
        raise ModelError(f"node {ids[u]!r} has unknown parent {parents[u]!r}")

    counts = [0] * (n + 1)
    for p in parent:
        counts[p] += 1
    if any(map(eq, map(bool, capacity), map(bool, counts))):
        for u in range(n):
            if capacity[u] and counts[u]:
                raise ModelError(f"leaf {ids[u]!r} has capacity but also children")
            if not capacity[u] and not counts[u]:
                raise ModelError(f"childless node {ids[u]!r} has no capacity")
    first = list(accumulate(counts, initial=0))
    kids = sorted(range(n), key=parent.__getitem__)

    # Reverse file order is bottom up when every parent precedes its
    # children, as in every generated or rendered file; then parent
    # links cannot cycle either. Otherwise a walk from the roots orders
    # the nodes, and whatever it cannot reach lies on a parent cycle.
    bottom_up: Sequence[int]
    if sum(map(lt, parent, range(n))) == n - counts[n]:
        bottom_up = range(n - 1, -1, -1)
    else:
        order: list[int] = []
        stack = kids[first[n] :][::-1]
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(reversed(kids[first[u] : first[u + 1]]))
        if len(order) != n:
            raise ModelError("model contains a parent cycle unreachable from any root")
        order.reverse()
        bottom_up = order
    return Tree(ids, index, parent, capacity, first, kids, bottom_up, n - capacity.count(0))


class FailureModel:
    """A validated forest: a compiled Tree with id-keyed views.

    parse_model builds the tree and each view is derived from it on
    first access. A model built by hand from nodes (roots, children and
    leaves optional, and kept as given) compiles from nodes on first
    use, with nodes' order as the file order.
    """

    def __init__(
        self,
        nodes: dict[str, Node] | None = None,
        roots: list[str] | None = None,
        children: dict[str, list[str]] | None = None,
        leaves: list[str] | None = None,
        *,
        tree: Tree | None = None,
    ) -> None:
        if nodes is None and tree is None:
            raise TypeError("a model needs nodes or a tree")
        given = dict(nodes=nodes, roots=roots, children=children, leaves=leaves, tree=tree)
        self.__dict__.update((k, v) for k, v in given.items() if v is not None)

    @cached_property
    def tree(self) -> Tree:
        ids, nodes = list(self.nodes), self.nodes.values()
        index = dict(zip(ids, range(len(ids))))
        return _compile(ids, index, [v.parent for v in nodes], [v.capacity or 0 for v in nodes])

    @cached_property
    def nodes(self) -> dict[str, Node]:
        t = self.tree
        ids = t.ids + [None]  # a root's parent, n, maps to None
        return {u: Node(u, ids[p], c or None) for u, p, c in zip(ids, t.parent, t.capacity)}

    @cached_property
    def roots(self) -> list[str]:
        ids = self.tree.ids
        return [ids[u] for u in self.tree.children(len(ids))]

    @cached_property
    def children(self) -> dict[str, list[str]]:
        t = self.tree
        kids = [t.ids[c] for c in t.kids]
        return {u: kids[t.first[i] : t.first[i + 1]] for i, u in enumerate(t.ids)}

    @cached_property
    def leaves(self) -> list[str]:
        return [u for u, c in zip(self.tree.ids, self.tree.capacity) if c]

    def is_leaf(self, node_id: str) -> bool:
        return self.tree.capacity[self.tree.index[node_id]] > 0

    def capacity(self, node_id: str) -> int:
        cap = self.tree.capacity[self.tree.index[node_id]]
        if not cap:
            raise ModelError(f"node {node_id!r} is not a leaf")
        return cap

    def parent(self, node_id: str) -> str | None:
        t = self.tree
        p = t.parent[t.index[node_id]]
        return None if p == len(t.ids) else t.ids[p]

    def node_ids(self) -> list[str]:
        return list(self.tree.ids)

    def __len__(self) -> int:
        return len(self.tree.ids)


def decode_json(text: str) -> object:
    """json.loads, refusing with ModelError whatever the decoder
    refuses: bad syntax, nesting deeper than the interpreter's recursion
    limit, or an integer longer than its digit limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ModelError(f"invalid JSON: {exc}") from exc


def parse_model(text: str) -> FailureModel:
    """Parse, validate and compile the JSON wire format.

    Raises ModelError for structural problems: duplicate ids, unknown
    parents, capacity on an internal node or missing on a leaf, parent
    cycles, or an empty model. The first problem in file order is
    reported, entry checks first, then parents, leaves and cycles.
    Parsing computes no subtree summary (see Tree).
    """
    # The decoded document is freed before the tree is compiled.
    return FailureModel(tree=_compile(*_entries(decode_json(text))))


Entries = tuple[list[str], dict[str, int], list[str | None], list[int]]


def _entries(doc: object) -> Entries:
    """Check the document and its node entries; returns their ids, an
    id -> position index, their parent ids and their capacities (0 for
    none). The first problem in file order is reported."""
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise ModelError('model document must be an object with a "nodes" array')
    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list):
        raise ModelError('"nodes" must be an array')
    if not raw_nodes:
        raise ModelError("model has no nodes")
    return _bulk_entries(raw_nodes) or _checked_entries(raw_nodes)


def _bulk_entries(raw_nodes: list) -> Entries | None:
    """What _checked_entries returns, from C-level passes over the whole
    list, or None if one of them sees a problem; they only decide that
    no entry has one, and the per-entry loop names the first."""
    if set(map(type, raw_nodes)) != {dict}:
        return None
    if not FIELDS.issuperset(chain.from_iterable(raw_nodes)):
        return None
    ids = list(map(dict.get, raw_nodes, repeat("id")))
    if set(map(type, ids)) != {str} or not all(ids):
        return None
    index = dict(zip(ids, range(len(ids))))
    parents = list(map(dict.get, raw_nodes, repeat("parent")))
    caps = list(map(dict.get, raw_nodes, repeat("capacity")))
    if (
        len(index) != len(ids)
        or not {str, NoneType}.issuperset(map(type, parents))
        or any(map(eq, ids, parents))
        or not {int, NoneType}.issuperset(map(type, caps))
        or min(filter(partial(is_not, None), caps), default=1) < 1
    ):
        return None
    return ids, index, parents, [c or 0 for c in caps]


def _checked_entries(raw_nodes: list) -> Entries:
    """Check the node entries one by one, in file order."""
    ids: list[str] = []
    index: dict[str, int] = {}
    parents: list[str | None] = []
    capacity: list[int] = []
    for i, entry in enumerate(raw_nodes):
        if not isinstance(entry, dict):
            raise ModelError(f"node entry must be an object, got {type(entry).__name__}")
        if not entry.keys() <= FIELDS:
            raise ModelError(f"unknown node fields: {sorted(entry.keys() - FIELDS)}")
        node_id = entry.get("id")
        if not isinstance(node_id, str) or not node_id:
            raise ModelError(f"node id must be a non-empty string, got {node_id!r}")
        if node_id in index:
            raise ModelError(f"duplicate node id {node_id!r}")
        parent = entry.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise ModelError(f"parent of {node_id!r} must be a string or null")
        if parent == node_id:
            raise ModelError(f"node {node_id!r} is its own parent")
        cap = entry.get("capacity")
        if cap is not None:
            if isinstance(cap, bool) or not isinstance(cap, int):
                raise ModelError(f"capacity of {node_id!r} must be an integer")
            if cap < 1:
                raise ModelError(f"capacity of {node_id!r} must be positive")
        index[node_id] = i
        ids.append(node_id)
        parents.append(parent)
        capacity.append(cap or 0)
    return ids, index, parents, capacity


def render_model(model: FailureModel) -> str:
    """Serialize back to the wire format, preserving node order."""
    entries = []
    for node in model.nodes.values():
        entry: dict[str, object] = {"id": node.id, "parent": node.parent}
        if node.capacity is not None:
            entry["capacity"] = node.capacity
        entries.append(entry)
    return json.dumps({"nodes": entries}) + "\n"


class SubtreeStats(Value):
    """The tree's subtree summaries (see Tree), keyed by node id."""

    __slots__ = ("leaf_count", "node_count", "min_rel_depth", "min_depth_leaf")

    leaf_count: dict[str, int]
    node_count: dict[str, int]
    min_rel_depth: dict[str, int]
    min_depth_leaf: dict[str, str]

    def __init__(
        self,
        leaf_count: dict[str, int],
        node_count: dict[str, int],
        min_rel_depth: dict[str, int],
        min_depth_leaf: dict[str, str],
    ) -> None:
        object.__setattr__(self, "leaf_count", leaf_count)
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "min_rel_depth", min_rel_depth)
        object.__setattr__(self, "min_depth_leaf", min_depth_leaf)


def postorder(model: FailureModel, starts: Sequence[str] | None = None) -> list[str]:
    """The forest's nodes, children before parents and in child order.
    With starts, only the subtrees of those nodes, in that order."""
    t = model.tree
    ids = t.ids
    top = t.children(t.root) if starts is None else [t.index[s] for s in starts]
    return [ids[u] for u in reversed(t.walk(top))]


def subtree_stats(model: FailureModel) -> SubtreeStats:
    """The compiled subtree summaries, keyed by node id."""
    t = model.tree
    ids = t.ids
    return SubtreeStats(
        dict(zip(ids, t.leaf_count)),
        dict(zip(ids, t.node_count)),
        dict(zip(ids, t.min_rel_depth)),
        {u: ids[b] for u, b in zip(ids, t.min_depth_leaf)},
    )
