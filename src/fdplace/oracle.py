"""Exhaustive reference solvers and witness checks.

These enumerate every candidate placement, so they are the ground truth
the real solvers are tested against. Both refuse to run when the search
space exceeds a guard bound (default one million candidates, overridable
via the FDPLACE_ORACLE_GUARD environment variable or the guard argument).
The guard counts candidate placements, not the root-path steps each one
costs, so a deep chain with few candidates passes it and still runs for
a long time: a 50,000-domain caterpillar at rho 1 is 50,000 candidates
but about 1.25e9 steps.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator

from .errors import GuardLimitError, InfeasibleError
from .metrics import FailureAggregate, MultiPlacement, Placement
from .metrics import _check_int, _check_rho, _counts, _leaf_indices
from .model import FailureModel, Tree
from .value import Value

DEFAULT_GUARD = 1_000_000


def _check_guard(space: int, guard: int | None) -> None:
    """Refuse a search space of more candidates than the guard: the guard
    argument, else FDPLACE_ORACLE_GUARD, else the default. The argument
    must be an int, the variable an integer string, and either positive."""
    source, raw = "guard", guard
    if guard is None:
        source = "FDPLACE_ORACLE_GUARD"
        raw = os.environ.get(source, str(DEFAULT_GUARD))
        try:
            guard = int(raw)
        except ValueError as exc:
            raise GuardLimitError(f"{source} is not an integer: {raw!r}") from exc
    _check_int("guard", guard)
    if guard < 1:
        raise GuardLimitError(f"{source} must be positive: {raw!r}")
    if space > guard:
        raise GuardLimitError(f"search space {space} exceeds guard {guard}")


def oracle_single(
    model: FailureModel, rho: int, guard: int | None = None
) -> tuple[FailureAggregate, list[Placement]]:
    """Brute-force the single-block problem.

    Returns the optimal aggregate together with every placement that
    achieves it, in lexicographic order of the sorted leaf-id tuples.
    """
    # Imported here, so check_balanced loads no solver module.
    from .single import _leaves_by_id, _placement

    tree = model.tree
    _check_rho(tree, rho)
    leaves = _leaves_by_id(tree)
    _check_guard(math.comb(len(leaves), rho), guard)

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
    return FailureAggregate(entries=best, rho=rho), [_placement(tree, s) for s in optima]


def _subsets(
    tree: Tree, leaves: list[int], size: int, rho: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield every size-subset of the leaves (node indices), in
    lexicographic order of their positions in leaves, with its aggregate
    at girth rho.

    A depth-first walk with an explicit stack of chosen positions: each
    leaf's path is added to the failure numbers when it is chosen and
    taken off when it is dropped, so the depth never touches the
    interpreter's recursion limit. The path is walked up through parent
    each time, so no table of root paths is kept.
    """
    count_by_fn = [0] * (rho + 1)
    count_by_fn[0] = len(tree.ids)
    fn = [0] * len(tree.ids)
    parent, top = tree.parent, tree.root

    def add(i: int, delta: int) -> None:
        u = leaves[i]
        while u != top:
            count_by_fn[fn[u]] -= 1
            fn[u] += delta
            count_by_fn[fn[u]] += 1
            u = parent[u]

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
    from .multi import _check_fit, _natural_skew
    from .single import _leaves_by_id

    sizes = tuple(sizes)
    _natural_skew(sizes)  # refuses the sizes solve_multi refuses
    tree = model.tree
    _check_fit(tree, sizes)
    leaves = _leaves_by_id(tree)
    capacity = tree.capacity
    rho = max(sizes)

    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    ordered_sizes = [sizes[i] for i in order]

    # k blocks of size s choose a multiset of k of the s-leaf subsets.
    space = math.prod(
        math.comb(math.comb(len(leaves), s) + k - 1, k) for s, k in Counter(sizes).items()
    )
    _check_guard(space, guard)

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

    node: str | None  # None: the two children are roots of the forest
    light_child: str
    heavy_child: str
    light_count: int
    heavy_count: int


def check_balanced(model: FailureModel, placement: Placement) -> list[BalanceViolation]:
    """Report sibling pairs where an unfilled child lags another child by
    more than one replica. An empty list means the placement is balanced.

    The forest's roots are siblings too, children of the virtual root as
    in the solvers; a violation between two roots has node None."""
    tree = model.tree
    # Failure numbers by node index; a node without one holds no replica.
    fn = _counts(tree, _leaf_indices(tree, placement.leaves))
    ids, leaf_count = tree.ids, tree.leaf_count
    violations: list[BalanceViolation] = []
    for u, node_id in enumerate([*ids, None]):
        kids = tree.children(u)
        if len(kids) < 2:
            continue
        # A heavy side exceeds a light side by at least 2, so only
        # children holding 2 or more replicas can be one. Ranked highest
        # first, those beating a light child are a prefix.
        heavies = sorted((c for c in kids if fn.get(c, 0) >= 2), key=lambda c: -fn[c])
        drops = [-fn[c] for c in heavies]
        for c in kids:
            light = fn.get(c, 0)
            if light >= leaf_count[c]:
                continue
            for heavy in sorted(heavies[: bisect_left(drops, -1 - light)]):  # child order
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
