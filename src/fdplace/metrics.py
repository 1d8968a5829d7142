"""Placement quality metrics.

The objective everywhere is a failure aggregate: entry i counts the
nodes whose failure would wipe out exactly rho - i replicas of a block,
so entry 0 counts total-loss events and the last entry counts harmless
ones. Aggregates compare lexicographically from entry 0; smaller is
safer. Signatures use the same indexing for block sizes instead of
failure counts.

The module holds the value types (FailureAggregate, Signature,
Placement, MultiPlacement), the placement parsers, signature_of_sizes
and the two evaluators, failure_aggregate and multi_aggregate. The
paper's lemma helpers (failure numbers, path aggregates,
sub-signatures) live with the tests that use them, in tests/lemmas.py.
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
