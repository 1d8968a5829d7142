"""Exhaustive reference solvers and witness checks.

These enumerate every candidate placement, so they are the ground truth
the real solvers are tested against. Both refuse to run when the search
space exceeds a guard bound (default one million candidates, overridable
via the FDPLACE_ORACLE_GUARD environment variable or the guard argument).
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator

from .errors import GuardLimitError, InfeasibleError
from .metrics import FailureAggregate, MultiPlacement, Placement, _counts, _leaf_indices
from .model import FailureModel, Tree
from .multi import _check_fit, _natural_skew
from .single import _check_rho
from .value import Value

DEFAULT_GUARD = 1_000_000


def _resolve_guard(guard: int | None) -> int:
    """The guard argument, else FDPLACE_ORACLE_GUARD, else the default;
    a guard from either source must be a positive integer."""
    if guard is not None:
        source, raw = "guard", guard
    else:
        source, raw = "FDPLACE_ORACLE_GUARD", os.environ.get("FDPLACE_ORACLE_GUARD")
        if raw is None:
            return DEFAULT_GUARD
    try:
        value = int(raw)
    except ValueError as exc:
        raise GuardLimitError(f"{source} is not an integer: {raw!r}") from exc
    if value < 1:
        raise GuardLimitError(f"{source} must be positive: {raw!r}")
    return value


def oracle_single(
    model: FailureModel, rho: int, guard: int | None = None
) -> tuple[FailureAggregate, list[Placement]]:
    """Brute-force the single-block problem.

    Returns the optimal aggregate together with every placement that
    achieves it, in lexicographic order of the sorted leaf-id tuples.
    """
    tree = model.tree
    _check_rho(tree, rho)
    leaves = _leaves_by_id(tree)
    space = math.comb(len(leaves), rho)
    limit = _resolve_guard(guard)
    if space > limit:
        raise GuardLimitError(f"search space {space} exceeds guard {limit}")

    best: tuple[int, ...] | None = None
    optima: list[tuple[int, ...]] = []
    for chosen, agg in _subsets(tree, leaves, rho, rho):
        if best is None or agg < best:
            best = agg
            optima.clear()
            optima.append(chosen)
        elif agg == best:
            optima.append(chosen)
    assert best is not None
    ids = tree.ids
    placements = [Placement(leaves=frozenset(ids[u] for u in s)) for s in optima]
    return FailureAggregate(entries=best, rho=rho), placements


def _leaves_by_id(tree: Tree) -> list[int]:
    """The leaves' node indices, sorted by id."""
    return sorted((u for u, c in enumerate(tree.capacity) if c), key=tree.ids.__getitem__)


def _subsets(
    tree: Tree, leaves: list[int], size: int, rho: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield every size-subset of the leaves (node indices), in
    lexicographic order of their positions in leaves, with its aggregate
    at girth rho.

    A depth-first walk with an explicit stack of chosen positions: each
    leaf's path is added to the failure numbers when it is chosen and
    taken off when it is dropped, so the depth never touches the
    interpreter's recursion limit.
    """
    paths = [tree.up(leaf) for leaf in leaves]
    count_by_fn = [0] * (rho + 1)
    count_by_fn[0] = len(tree.ids)
    fn = [0] * len(tree.ids)

    def add(i: int, delta: int) -> None:
        for u in paths[i]:
            count_by_fn[fn[u]] -= 1
            fn[u] += delta
            count_by_fn[fn[u]] += 1

    chosen: list[int] = []
    nxt = 0  # the next position to try after the chosen ones
    while True:
        if len(chosen) == size:
            yield tuple(leaves[i] for i in chosen), tuple(reversed(count_by_fn))
        elif nxt <= len(leaves) - (size - len(chosen)):
            chosen.append(nxt)
            add(nxt, 1)
            nxt += 1
            continue
        if not chosen:
            return
        nxt = chosen.pop()
        add(nxt, -1)
        nxt += 1


def oracle_multi(
    model: FailureModel, sizes: list[int] | tuple[int, ...], guard: int | None = None
) -> tuple[FailureAggregate, MultiPlacement]:
    """Brute-force the multi-block problem for the given block sizes.

    Returns the optimal summed aggregate and the first optimal
    multi-placement in canonical enumeration order (blocks visited
    largest size first, subsets in lexicographic order, equal-size
    blocks in non-decreasing subset order).
    """
    sizes = tuple(sizes)
    _natural_skew(sizes)  # refuses empty or non-positive sizes
    tree = model.tree
    _check_fit(tree, sizes)
    leaves = _leaves_by_id(tree)
    capacity = tree.capacity
    rho = max(sizes)

    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    ordered_sizes = [sizes[i] for i in order]

    space = 1
    run_start = 0
    for i in range(len(ordered_sizes) + 1):
        if i == len(ordered_sizes) or (i > run_start and ordered_sizes[i] != ordered_sizes[run_start]):
            run_len = i - run_start
            options = math.comb(len(leaves), ordered_sizes[run_start])
            space *= math.comb(options + run_len - 1, run_len)
            run_start = i
    limit = _resolve_guard(guard)
    if space > limit:
        raise GuardLimitError(f"search space {space} exceeds guard {limit}")

    catalogs = {s: list(_subsets(tree, leaves, s, rho)) for s in set(ordered_sizes)}
    cw_min = {
        s: tuple(min(agg[i] for _, agg in cat) for i in range(rho + 1))
        for s, cat in catalogs.items()
    }
    zero = tuple([0] * (rho + 1))
    suffix_min = [zero] * (len(ordered_sizes) + 1)
    for i in range(len(ordered_sizes) - 1, -1, -1):
        below = suffix_min[i + 1]
        mins = cw_min[ordered_sizes[i]]
        suffix_min[i] = tuple(below[j] + mins[j] for j in range(rho + 1))

    used = [0] * len(capacity)

    def take(block: tuple[int, ...]) -> bool:
        for t, leaf in enumerate(block):
            if used[leaf] >= capacity[leaf]:
                for back in block[:t]:
                    used[back] -= 1
                return False
            used[leaf] += 1
        return True

    # Depth-first over block positions with an explicit stack: picks[p]
    # is the catalog index chosen for position p and partials[p + 1] the
    # sum of the aggregates picked up to it. A pick is taken back at once
    # when even the cheapest blocks after it cannot beat the best.
    best: tuple[int, ...] | None = None
    best_picks: list[int] | None = None
    picks: list[int] = []
    partials = [zero]
    nxt = 0  # the next catalog index to try at position len(picks)
    while True:
        catalog = catalogs[ordered_sizes[len(picks)]]
        while nxt < len(catalog) and not take(catalog[nxt][0]):
            nxt += 1
        if nxt < len(catalog):
            partial = tuple(p + a for p, a in zip(partials[-1], catalog[nxt][1]))
            picks.append(nxt)
            partials.append(partial)
            pos = len(picks)
            lower = tuple(p + s for p, s in zip(partial, suffix_min[pos]))
            if best is None or lower < best:
                if pos < len(ordered_sizes):
                    # Equal sizes take subsets in non-decreasing order.
                    if ordered_sizes[pos] != ordered_sizes[pos - 1]:
                        nxt = 0
                    continue
                best = partial
                best_picks = picks.copy()
        elif not picks:
            break
        nxt = picks.pop()
        partials.pop()
        for leaf in catalogs[ordered_sizes[len(picks)]][nxt][0]:
            used[leaf] -= 1
        nxt += 1

    if best is None or best_picks is None:
        raise InfeasibleError("no multi-placement satisfies the leaf capacities")

    ids = tree.ids
    blocks: list[frozenset[str]] = [frozenset()] * len(sizes)
    for pos, original in enumerate(order):
        block, _ = catalogs[ordered_sizes[pos]][best_picks[pos]]
        blocks[original] = frozenset(ids[u] for u in block)
    return FailureAggregate(entries=best, rho=rho), MultiPlacement(blocks=tuple(blocks))


class BalanceViolation(Value):
    __slots__ = ("node", "light_child", "heavy_child", "light_count", "heavy_count")

    node: str
    light_child: str
    heavy_child: str
    light_count: int
    heavy_count: int

    def __init__(
        self, node: str, light_child: str, heavy_child: str, light_count: int, heavy_count: int
    ) -> None:
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "light_child", light_child)
        object.__setattr__(self, "heavy_child", heavy_child)
        object.__setattr__(self, "light_count", light_count)
        object.__setattr__(self, "heavy_count", heavy_count)


def check_balanced(model: FailureModel, placement: Placement) -> list[BalanceViolation]:
    """Report sibling pairs where an unfilled child lags another child by
    more than one replica. An empty list means the placement is balanced."""
    tree = model.tree
    # Failure numbers by node index; a node without one holds no replica.
    fn = _counts(tree, _leaf_indices(tree, placement.leaves))
    ids, leaf_count = tree.ids, tree.leaf_count
    violations: list[BalanceViolation] = []
    for u, node_id in enumerate(ids):
        kids = tree.children(u)
        if len(kids) < 2:
            continue
        # A heavy side exceeds a light side by at least 2, so only
        # children holding 2 or more replicas can be one.
        heavies = [c for c in kids if fn.get(c, 0) >= 2]
        for c in kids:
            light = fn.get(c, 0)
            if light >= leaf_count[c]:
                continue
            for heavy in heavies:
                if fn[heavy] > light + 1:
                    violations.append(
                        BalanceViolation(
                            node=node_id,
                            light_child=ids[c],
                            heavy_child=ids[heavy],
                            light_count=light,
                            heavy_count=fn[heavy],
                        )
                    )
    return violations
