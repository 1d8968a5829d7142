"""The paper's definitions that the tests check its lemmas with.

Failure numbers, path aggregates and their shift, sub-signatures,
the signature statistics, the lexicographic comparison and the band
cell count come straight from the paper's proofs. No solver calls them, so they live here, next to the tests
that check the paper's identities against the solvers, and not in the
package. Test modules import them the way they import conftest's
helpers, `from lemmas import ...`; pytest collects only test_*.py, so
this module is never collected itself.
"""

from __future__ import annotations

from fdplace.errors import ModelError
from fdplace.metrics import (
    FailureAggregate,
    MultiPlacement,
    Placement,
    Signature,
    _check_girth,
    _counts,
    _leaf_indices,
)
from fdplace.model import FailureModel


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


def band_cell_count(delta: int, d: int) -> int:
    """Number of matrix cells a split with diagonal offset d can touch
    inside a (delta+1) by (delta+1) window: the full square minus the
    two corner triangles cut off by the band d-1 <= p+q <= d+delta-1."""
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    if not 1 <= d <= delta + 1:
        raise ValueError(f"d must be in [1, {delta + 1}], got {d}")

    def tri(t: int) -> int:
        return t * (t + 1) // 2

    return (delta + 1) ** 2 - tri(d - 1) - tri(delta + 1 - d)
