"""Placement quality metrics.

The objective everywhere is a failure aggregate: entry i counts the
nodes whose failure would wipe out exactly rho - i replicas of a block,
so entry 0 counts total-loss events and the last entry counts harmless
ones. Aggregates compare lexicographically from entry 0; smaller is
safer.

The module holds the value types (FailureAggregate, Placement,
MultiPlacement), the placement parsers, the two evaluators,
failure_aggregate and multi_aggregate, and every request rule. For
rho: _check_int (rho, block sizes, a skew and an oracle guard are
ints), _check_rho (the solvers' and oracle_single's bounds, at least 1
and at most the leaf count), _check_girth (an evaluated rho holds the
placement) and failure_aggregate's leaf bound, tested once the
placement's leaves resolve and before its rho + 1 entries are
allocated. For a size list: _natural_skew, its one check, and
_check_fit, the leaf bound and the Gale-Ryser test, both shared by
solve_multi and oracle_multi. It also holds the maps between leaf ids
and node indices that solvers and oracles share: _leaf_indices,
_leaves_by_id (the id order) and _placement. So the solver modules and
the oracles import from here and never from one another.
multi.target_signature maps block sizes to their census. The paper's
lemma helpers (failure numbers, path aggregates, sub-signatures and the
Signature census they return) live with the tests that use them, in
tests/lemmas.py.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterable

from .errors import InfeasibleError, ModelError
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


def _leaves_by_id(tree: Tree) -> list[int]:
    """The leaves' node indices, sorted by id: the order in which
    solve_greedy breaks ties and the oracles enumerate subsets."""
    return sorted((u for u, c in enumerate(tree.capacity) if c), key=tree.ids.__getitem__)


def _placement(tree: Tree, leaves: Iterable[int]) -> Placement:
    ids = tree.ids
    return Placement(leaves=frozenset([ids[u] for u in leaves]))


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


def _check_int(what: str, value: object) -> None:
    """Refuse anything but an int, bools included."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f"{what} must be an integer, got {value!r}")


def _check_rho(tree: Tree, rho: int) -> None:
    _check_int("rho", rho)
    if rho < 1:
        raise InfeasibleError(f"rho must be at least 1, got {rho}")
    if rho > tree.leaf_total:
        raise InfeasibleError(f"rho={rho} exceeds the {tree.leaf_total} available leaves")


def _natural_skew(sizes: tuple[int, ...]) -> int:
    """The size spread, but at least 1, after the one check of a size
    list: it must be non-empty, and every entry an int of at least 1."""
    if not sizes:
        raise InfeasibleError("no block sizes given")
    for s in sizes:
        _check_int("block size", s)
    if min(sizes) < 1:
        raise InfeasibleError("every block size must be at least 1")
    return max(max(sizes) - min(sizes), 1)


def _check_fit(tree: Tree, sizes: tuple[int, ...]) -> None:
    """Refuse a block above the leaf count, then a request that fails
    the Gale-Ryser test: a leaf holds at most one replica of a block, so
    for every k the k largest blocks need at most the sum over leaves
    of min(capacity, k) replicas."""
    if max(sizes) > tree.leaf_total:
        raise InfeasibleError(
            f"block size {max(sizes)} exceeds the {tree.leaf_total} available leaves"
        )
    # ample: the leaves of capacity k or more, so that room grows by
    # ample from the sum for k - 1 to the sum for k.
    counts = Counter(tree.capacity)
    need = room = 0
    ample = tree.leaf_total
    for k, size in enumerate(sorted(sizes, reverse=True), 1):
        need += size
        room += ample
        if need > room:
            raise InfeasibleError(
                f"the {k} largest blocks need {need} replicas, but at one replica"
                f" of a block per leaf the leaves hold at most {room}"
            )
        ample -= counts[k]


def _check_girth(placement: Placement, rho: int) -> None:
    _check_int("rho", rho)
    if rho < len(placement.leaves):
        raise ModelError(
            f"rho={rho} is smaller than the placement size {len(placement.leaves)}"
        )


def failure_aggregate(model: FailureModel, placement: Placement, rho: int) -> FailureAggregate:
    _check_girth(placement, rho)
    leaves = _leaf_indices(model.tree, placement.leaves)
    # Once the leaves resolve, so an unknown or internal id is named
    # first, and before the rho + 1 entries are allocated.
    if rho > model.tree.leaf_total:
        raise ModelError(f"rho={rho} exceeds the {model.tree.leaf_total} leaves of the model")
    entries = [0] * (rho + 1)
    _aggregate(model.tree, leaves, entries)
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

