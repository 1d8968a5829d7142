"""Failure model: a forest of failure domains with capacitated servers.

A model is a rooted forest. Internal nodes are failure events (a row
losing power, a rack losing its uplink). Leaves are servers and carry a
positive replica capacity. The JSON wire format is::

    {"nodes": [{"id": "row1", "parent": null},
               {"id": "srv1", "parent": "row1", "capacity": 1},
               ...]}

Exactly the leaves carry "capacity". Node order in the file is
preserved and used as the child order everywhere downstream.

parse_model checks the entries in one pass, in file order, and
compiles them into a Tree, flat lists indexed by file position, which
the solvers work on. Beside the text, which its caller holds, parsing
keeps one form of the input alive at a time: json.loads decodes the
text into a document; the entry loop releases each entry once its
fields are stored, so the document shrinks while the id index and the
per-node lists grow; and the document is gone before the tree is built
from those lists. Parsing links the nodes and orders them bottom
up. Two groups of per-node lists are built the first time one of
their members is read: the child index (first and kids), which the
solvers, the balance check and the id-keyed views read, and the three
subtree summaries (leaf counts and shallowest leaves), which only the
single-block solvers and the oracles read. eval reads neither group:
its aggregates walk up from the placed leaves through parent.
The id-keyed surface (nodes, children, roots, leaves, subtree_stats,
postorder) is derived from the tree on first use, subtree_stats
counting the nodes below each node itself; per-node facts (parent,
capacity) are read as model.nodes[id].
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property
from itertools import accumulate, repeat
from operator import eq, lt

from .errors import ModelError
from .value import Value

FIELDS = frozenset(("id", "parent", "capacity"))


# One entry of the wire format: id, parent id (None for a root) and
# capacity (None on internal nodes). The id views build one per node,
# and a named tuple builds faster than a class with a Python __init__.
Node = namedtuple("Node", ("id", "parent", "capacity"))


class _Lazy:
    """A per-node list of Tree built on first read. That read runs the
    Tree method named fill, which sets this list and the others it
    builds with it as plain attributes that hide this descriptor.
    (functools.cached_property would store them through the instance
    __dict__, and on CPython 3.11 and 3.12 that makes every later
    attribute read of the tree about three times slower.)"""

    def __init__(self, fill: str) -> None:
        self.fill = fill

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, tree: Tree | None, owner: type | None = None) -> list[int] | _Lazy:
        if tree is None:
            return self
        getattr(tree, self.fill)()
        return getattr(tree, self.name)


def _child_index(parent: list[int], counts: list[int]) -> tuple[list[int], list[int]]:
    """first and kids from the parent links and the child counts, n
    included: each node's children, in file order, form one run of
    kids."""
    return list(accumulate(counts, initial=0)), sorted(range(len(parent)), key=parent.__getitem__)


class Tree:
    """The compiled model. Node i is the i-th node in file order; node
    n = root is a virtual root whose children are the model's roots, so
    a solver can treat a forest as one tree. parent[u] is n for a root,
    capacity[u] is 0 on internal nodes, and u's children, in file order,
    are kids[first[u]:first[u + 1]]. bottom_up lists the real nodes,
    each after all of its descendants.

    first and kids are built together the first time one of them is
    read, unless parsing had to build them to order the nodes (see
    _compile); eval never reads them. The three subtree summaries, per
    node, n included, are computed by one pass over bottom_up the first
    time one of them is read: leaf_count counts its subtree's leaves;
    its shallowest leaf is min_depth_leaf (first in child order on
    ties), min_rel_depth below it. leaf_total, the number of leaves,
    needs no such pass.
    """

    def __init__(
        self,
        ids: list[str],
        index: dict[str, int],
        parent: list[int],
        capacity: list[int],
        bottom_up: Sequence[int],
        leaf_total: int,
        child_index: tuple[list[int], list[int]] | None = None,
    ) -> None:
        self.ids = ids
        self.index = index
        self.parent = parent
        self.capacity = capacity
        self.bottom_up = bottom_up
        self.leaf_total = leaf_total
        if child_index is not None:
            self.first, self.kids = child_index

    @property
    def root(self) -> int:
        return len(self.ids)

    first = _Lazy("_index")
    kids = _Lazy("_index")
    leaf_count = _Lazy("_summarize")
    min_rel_depth = _Lazy("_summarize")
    min_depth_leaf = _Lazy("_summarize")

    def _index(self) -> None:
        counts = [0] * (len(self.ids) + 1)
        for p in self.parent:
            counts[p] += 1
        self.first, self.kids = _child_index(self.parent, counts)

    def _summarize(self) -> None:
        n, parent = len(self.ids), self.parent
        # Later siblings come first in bottom_up, so `<=` hands ties to
        # the first child.
        leaf_count = [1 if c else 0 for c in self.capacity] + [0]
        depth = [0 if c else n for c in self.capacity] + [n]
        best = list(range(n + 1))
        for u in self.bottom_up:
            p = parent[u]
            leaf_count[p] += leaf_count[u]
            d = depth[u] + 1
            if d <= depth[p]:
                depth[p] = d
                best[p] = best[u]
        self.leaf_count, self.min_rel_depth, self.min_depth_leaf = leaf_count, depth, best

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
    leaf_total = n - capacity.count(0)

    # Reverse file order is bottom up when every parent precedes its
    # children, as in every generated or rendered file; then parent
    # links cannot cycle either, and the child index waits for its
    # first read. Otherwise a walk from the roots, which needs the
    # index, orders the nodes, and whatever it cannot reach lies on a
    # parent cycle.
    if sum(map(lt, parent, range(n))) == n - counts[n]:
        return Tree(ids, index, parent, capacity, range(n - 1, -1, -1), leaf_total)
    first, kids = child_index = _child_index(parent, counts)
    order: list[int] = []
    stack = kids[first[n] :][::-1]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(reversed(kids[first[u] : first[u + 1]]))
    if len(order) != n:
        raise ModelError("model contains a parent cycle unreachable from any root")
    order.reverse()
    return Tree(ids, index, parent, capacity, order, leaf_total, child_index)


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

    The text stays alive for the whole call. The document decoded from
    it belongs to this call: _entries empties it entry by entry, and it
    is freed before _compile runs.
    """
    return FailureModel(tree=_compile(*_entries(decode_json(text))))


Entries = tuple[list[str], dict[str, int], list[str | None], list[int]]


def _entries(doc: object) -> Entries:
    """Check the document, then its node entries one by one in file
    order; returns their ids, an id -> position index, their parent ids
    and their capacities (0 for none). The first problem is reported.
    Each entry of the nodes array is replaced by None once its fields
    are stored, so the caller hands over a document it no longer reads.

    A sound entry meets only cheap tests: JSON decoding gives exactly
    dict, str and int, so exact class tests suffice (a bool capacity
    fails the int one), and the parent and capacity tests are re-run
    only to pick the message once a combined one fails."""
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise ModelError('model document must be an object with a "nodes" array')
    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list):
        raise ModelError('"nodes" must be an array')
    if not raw_nodes:
        raise ModelError("model has no nodes")
    known = FIELDS.issuperset  # bound once: a lookup per entry costs a tenth of the loop
    index: dict[str, int] = {}
    # Allocated once at full size: grown by appends, they raised the peak RSS.
    parents: list[str | None] = [None] * len(raw_nodes)
    capacity: list[int] = [0] * len(raw_nodes)
    for i, entry in enumerate(raw_nodes):
        if entry.__class__ is not dict:
            raise ModelError(f"node entry must be an object, got {type(entry).__name__}")
        if not known(entry):
            raise ModelError(f"unknown node fields: {sorted(entry.keys() - FIELDS)}")
        node_id = entry.get("id")
        if node_id.__class__ is not str or not node_id:
            raise ModelError(f"node id must be a non-empty string, got {node_id!r}")
        if index.setdefault(node_id, i) != i:
            raise ModelError(f"duplicate node id {node_id!r}")
        parent = entry.get("parent")
        if parent is not None and (parent.__class__ is not str or parent == node_id):
            if parent.__class__ is not str:
                raise ModelError(f"parent of {node_id!r} must be a string or null")
            raise ModelError(f"node {node_id!r} is its own parent")
        cap = entry.get("capacity")
        if cap is not None and (cap.__class__ is not int or cap < 1):
            if cap.__class__ is not int:
                raise ModelError(f"capacity of {node_id!r} must be an integer")
            raise ModelError(f"capacity of {node_id!r} must be positive")
        parents[i] = parent
        capacity[i] = cap or 0
        raw_nodes[i] = None
    # The ids are unique, so the index lists them in file order.
    return list(index), index, parents, capacity


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
    """Per node id: the tree's three subtree summaries (see Tree) and
    its subtree's node count, which subtree_stats counts itself."""

    __slots__ = ("leaf_count", "node_count", "min_rel_depth", "min_depth_leaf")

    leaf_count: dict[str, int]
    node_count: dict[str, int]
    min_rel_depth: dict[str, int]
    min_depth_leaf: dict[str, str]


def postorder(model: FailureModel) -> list[str]:
    """The forest's nodes, children before parents and in child order."""
    t = model.tree
    ids = t.ids
    return [ids[u] for u in reversed(t.walk(t.children(t.root)))]


def subtree_stats(model: FailureModel) -> SubtreeStats:
    """The compiled subtree summaries and the node counts, keyed by
    node id."""
    t = model.tree
    ids = t.ids
    node_count = [1] * len(ids) + [0]
    for u in t.bottom_up:
        node_count[t.parent[u]] += node_count[u]
    return SubtreeStats(
        dict(zip(ids, t.leaf_count)),
        dict(zip(ids, node_count)),
        dict(zip(ids, t.min_rel_depth)),
        {u: ids[b] for u, b in zip(ids, t.min_depth_leaf)},
    )
