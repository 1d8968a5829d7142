"""Placement quality metrics.

The objective everywhere is a failure aggregate: entry i counts the
nodes whose failure would wipe out exactly rho - i replicas of a block,
so entry 0 counts total-loss events and the last entry counts harmless
ones. Aggregates compare lexicographically from entry 0; smaller is
safer. Signatures use the same indexing for block sizes instead of
failure counts.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection

from .errors import ModelError
# postorder is not called here, but bench/tracer.py wraps this binding.
from .model import FailureModel, Tree, decode_json, postorder  # noqa: F401
from .value import Value


class FailureAggregate(Value):
    __slots__ = ("entries", "rho")

    entries: tuple[int, ...]
    rho: int

    def __init__(self, entries: tuple[int, ...], rho: int) -> None:
        if len(entries) != rho + 1:
            raise ValueError("aggregate must have rho + 1 entries")
        super().__init__(entries, rho)

    def __str__(self) -> str:
        return "<" + ",".join(str(v) for v in self.entries) + ">"


class Signature(Value):
    """Block-size census: entries[k] counts blocks of size rho - k."""

    __slots__ = ("entries", "rho")

    entries: tuple[int, ...]
    rho: int

    def __init__(self, entries: tuple[int, ...], rho: int) -> None:
        if len(entries) != rho + 1:
            raise ValueError("signature must have rho + 1 entries")
        super().__init__(entries, rho)

    def __str__(self) -> str:
        return "<" + ",".join(str(v) for v in self.entries) + ">"


class Placement(Value):
    __slots__ = ("leaves",)

    leaves: frozenset[str]

    def __len__(self) -> int:
        return len(self.leaves)


class MultiPlacement(Value):
    __slots__ = ("blocks",)

    blocks: tuple[frozenset[str], ...]

    def girth(self) -> int:
        return max((len(b) for b in self.blocks), default=0)


def _entries_of(value: object) -> tuple[int, ...]:
    if isinstance(value, (FailureAggregate, Signature)):
        return value.entries
    return tuple(value)  # type: ignore[arg-type]


def lex_cmp(a: object, b: object) -> int:
    """Return -1, 0, or 1 comparing two equal-length vectors from entry 0."""
    left = _entries_of(a)
    right = _entries_of(b)
    if len(left) != len(right):
        raise ValueError(f"length mismatch: {len(left)} vs {len(right)}")
    if left < right:
        return -1
    if left > right:
        return 1
    return 0


def parse_placement(text: str) -> Placement:
    doc = decode_json(text)
    if not isinstance(doc, dict) or "leaves" not in doc:
        raise ModelError('placement document must be an object with a "leaves" array')
    raw = doc["leaves"]
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise ModelError('"leaves" must be an array of leaf ids')
    if len(set(raw)) != len(raw):
        raise ModelError("placement lists a leaf twice")
    return Placement(leaves=frozenset(raw))


def parse_multi_placement(text: str) -> MultiPlacement:
    doc = decode_json(text)
    if not isinstance(doc, dict) or "blocks" not in doc:
        raise ModelError('multi-placement document must be an object with a "blocks" array')
    raw = doc["blocks"]
    if not isinstance(raw, list):
        raise ModelError('"blocks" must be an array of arrays of leaf ids')
    blocks = []
    for i, block in enumerate(raw):
        if not isinstance(block, list) or not all(isinstance(x, str) for x in block):
            raise ModelError(f"block {i} must be an array of leaf ids")
        if len(set(block)) != len(block):
            raise ModelError(f"block {i} lists a leaf twice")
        blocks.append(frozenset(block))
    return MultiPlacement(blocks=tuple(blocks))


def _leaf_indices(tree: Tree, leaves: Collection[str]) -> list[int]:
    """The tree indices of placed leaves, refusing anything else by the
    smallest id that is not a leaf, whatever the set's order."""
    index, capacity = tree.index, tree.capacity
    out = []
    for leaf in leaves:
        u = index.get(leaf)
        if u is None or not capacity[u]:
            bad = min(x for x in leaves if x not in index or not capacity[index[x]])
            kind = "unknown" if bad not in index else "internal"
            raise ModelError(f"placement names {kind} node {bad!r}")
        out.append(u)
    return out


def _counts(tree: Tree, leaves: list[int]) -> dict[int, int]:
    """The failure number of every node that has one: each placed leaf
    counts once on every node from itself up to its root."""
    fn: dict[int, int] = {}
    for leaf in leaves:
        for u in tree.up(leaf):
            fn[u] = fn.get(u, 0) + 1
    return fn


def _aggregate(tree: Tree, leaves: list[int], entries: list[int]) -> None:
    """Add the aggregate of the placed leaves, at girth len(entries) - 1."""
    rho = len(entries) - 1
    counts = _counts(tree, leaves)
    entries[rho] += len(tree.ids) - len(counts)
    for value in counts.values():
        entries[rho - value] += 1


def failure_number(model: FailureModel, node_id: str, placement: Placement) -> int:
    """Count placement leaves inside the subtree of node_id."""
    tree = model.tree
    u = tree.index.get(node_id)
    if u is None:
        raise ModelError(f"unknown node {node_id!r}")
    return _counts(tree, _leaf_indices(tree, placement.leaves)).get(u, 0)


def failure_numbers(model: FailureModel, placement: Placement) -> dict[str, int]:
    """Failure number of every node, keyed by id."""
    tree = model.tree
    fn = dict.fromkeys(tree.ids, 0)
    for u, value in _counts(tree, _leaf_indices(tree, placement.leaves)).items():
        fn[tree.ids[u]] = value
    return fn


def _check_girth(placement: Placement, rho: int) -> None:
    if rho < len(placement.leaves):
        raise ModelError(
            f"rho={rho} is smaller than the placement size {len(placement.leaves)}"
        )


def failure_aggregate(model: FailureModel, placement: Placement, rho: int) -> FailureAggregate:
    _check_girth(placement, rho)
    entries = [0] * (rho + 1)
    _aggregate(model.tree, _leaf_indices(model.tree, placement.leaves), entries)
    return FailureAggregate(entries=tuple(entries), rho=rho)


def multi_aggregate(model: FailureModel, mp: MultiPlacement) -> FailureAggregate:
    """Sum of per-block aggregates, all padded to the girth."""
    rho = mp.girth()
    tree = model.tree
    blocks = [_leaf_indices(tree, block) for block in mp.blocks]
    used = Counter(leaf for block in blocks for leaf in block)
    ids, capacity = tree.ids, tree.capacity
    over = [leaf for leaf, n in used.items() if n > capacity[leaf]]
    if over:
        leaf = min(over, key=ids.__getitem__)
        raise ModelError(
            f"leaf {ids[leaf]!r} holds {used[leaf]} replicas but has capacity {capacity[leaf]}"
        )
    entries = [0] * (rho + 1)
    for block in blocks:
        _aggregate(tree, block, entries)
    return FailureAggregate(entries=tuple(entries), rho=rho)


def sub_signature(model: FailureModel, mp: MultiPlacement, node_id: str) -> Signature:
    """Signature of the multi-placement restricted to one subtree.

    Entry k counts blocks with exactly rho - k replicas inside the
    subtree, where rho is the girth of the full multi-placement, so
    sub-signatures of different nodes stay comparable.
    """
    tree = model.tree
    u = tree.index.get(node_id)
    if u is None:
        raise ModelError(f"unknown node {node_id!r}")
    rho = mp.girth()
    ids, capacity = tree.ids, tree.capacity
    below = {ids[w] for w in tree.walk([u]) if capacity[w]}
    entries = [0] * (rho + 1)
    for block in mp.blocks:
        inside = len(block & below)
        entries[rho - inside] += 1
    return Signature(entries=tuple(entries), rho=rho)


def signature_of_sizes(sizes: list[int] | tuple[int, ...]) -> Signature:
    if not sizes:
        raise ModelError("sizes list is empty")
    for s in sizes:
        if isinstance(s, bool) or not isinstance(s, int) or s < 0:
            raise ModelError(f"block size must be a non-negative integer, got {s!r}")
    rho = max(sizes)
    entries = [0] * (rho + 1)
    for s in sizes:
        entries[rho - s] += 1
    return Signature(entries=tuple(entries), rho=rho)


def sig_stats(sig: Signature) -> tuple[int, int]:
    """Return (skew, girth): index spread of the support, and the
    largest represented block size. Both are 0 for an all-zero census."""
    nonzero = [i for i, v in enumerate(sig.entries) if v != 0]
    if not nonzero:
        return 0, 0
    skew = nonzero[-1] - nonzero[0]
    girth = sig.rho - nonzero[0]
    return skew, girth


def index_extent(sig: Signature) -> int:
    """Largest nonzero index (0 for an all-zero census). The raw
    counterpart of the size-based girth in sig_stats."""
    nonzero = [i for i, v in enumerate(sig.entries) if v != 0]
    return nonzero[-1] if nonzero else 0


def shift(vector: tuple[int, ...]) -> tuple[int, ...]:
    """Drop entry 0 and append a zero, keeping the length."""
    return vector[1:] + (0,)


def path_aggregate(
    model: FailureModel,
    from_node: str,
    to_node: str,
    placement: Placement,
    rho: int,
) -> FailureAggregate:
    """Aggregate restricted to the nodes on the path from_node -> to_node
    (both inclusive). to_node must be a descendant of from_node."""
    tree = model.tree
    for node_id in (from_node, to_node):
        if node_id not in tree.index:
            raise ModelError(f"unknown node {node_id!r}")
    _check_girth(placement, rho)
    path = tree.up(tree.index[to_node])
    start = tree.index[from_node]
    if start not in path:
        raise ModelError(f"{to_node!r} is not a descendant of {from_node!r}")
    counts = _counts(tree, _leaf_indices(tree, placement.leaves))
    entries = [0] * (rho + 1)
    for u in path[: path.index(start) + 1]:
        entries[rho - counts.get(u, 0)] += 1
    return FailureAggregate(entries=tuple(entries), rho=rho)
