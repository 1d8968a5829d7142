"""Exhaustive reference solvers and witness checks.

These enumerate every candidate placement, so they are the ground truth
the real solvers are tested against. Both refuse to run when the search
space exceeds a guard bound (default one million candidates, overridable
via the FDPLACE_ORACLE_GUARD environment variable or the guard argument).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import GuardLimitError, InfeasibleError
from .metrics import FailureAggregate, MultiPlacement, Placement, failure_numbers
from .model import FailureModel, ancestors, subtree_stats

DEFAULT_GUARD = 1_000_000


def _resolve_guard(guard: int | None) -> int:
    if guard is not None:
        return guard
    raw = os.environ.get("FDPLACE_ORACLE_GUARD")
    if raw is None:
        return DEFAULT_GUARD
    try:
        value = int(raw)
    except ValueError as exc:
        raise GuardLimitError(f"FDPLACE_ORACLE_GUARD is not an integer: {raw!r}") from exc
    if value < 1:
        raise GuardLimitError(f"FDPLACE_ORACLE_GUARD must be positive: {raw!r}")
    return value


def oracle_single(
    model: FailureModel, rho: int, guard: int | None = None
) -> tuple[FailureAggregate, list[Placement]]:
    """Brute-force the single-block problem.

    Returns the optimal aggregate together with every placement that
    achieves it, in lexicographic order of the sorted leaf-id tuples.
    """
    leaves = sorted(model.leaves)
    if rho < 1:
        raise InfeasibleError(f"rho must be at least 1, got {rho}")
    if rho > len(leaves):
        raise InfeasibleError(f"rho={rho} exceeds the {len(leaves)} available leaves")
    space = math.comb(len(leaves), rho)
    limit = _resolve_guard(guard)
    if space > limit:
        raise GuardLimitError(f"search space {space} exceeds guard {limit}")

    paths = {leaf: list(ancestors(model, leaf)) for leaf in leaves}
    count_by_fn = [0] * (rho + 1)
    count_by_fn[0] = len(model)
    fn = {node_id: 0 for node_id in model.nodes}

    best: tuple[int, ...] | None = None
    optima: list[frozenset[str]] = []
    chosen: list[str] = []

    def add(leaf: str, delta: int) -> None:
        for node_id in paths[leaf]:
            count_by_fn[fn[node_id]] -= 1
            fn[node_id] += delta
            count_by_fn[fn[node_id]] += 1

    def explore(start: int) -> None:
        nonlocal best
        if len(chosen) == rho:
            agg = tuple(reversed(count_by_fn))
            if best is None or agg < best:
                best = agg
                optima.clear()
                optima.append(frozenset(chosen))
            elif agg == best:
                optima.append(frozenset(chosen))
            return
        remaining = rho - len(chosen)
        for i in range(start, len(leaves) - remaining + 1):
            leaf = leaves[i]
            chosen.append(leaf)
            add(leaf, 1)
            explore(i + 1)
            add(leaf, -1)
            chosen.pop()

    explore(0)
    assert best is not None
    return FailureAggregate(entries=best, rho=rho), [Placement(leaves=s) for s in optima]


def _block_catalog(
    model: FailureModel, size: int, rho: int, leaves: list[str]
) -> list[tuple[tuple[str, ...], tuple[int, ...]]]:
    """All size-subsets of the leaves with their aggregates at girth rho."""
    paths = {leaf: list(ancestors(model, leaf)) for leaf in leaves}
    count_by_fn = [0] * (rho + 1)
    count_by_fn[0] = len(model)
    fn = {node_id: 0 for node_id in model.nodes}
    out: list[tuple[tuple[str, ...], tuple[int, ...]]] = []
    chosen: list[str] = []

    def add(leaf: str, delta: int) -> None:
        for node_id in paths[leaf]:
            count_by_fn[fn[node_id]] -= 1
            fn[node_id] += delta
            count_by_fn[fn[node_id]] += 1

    def explore(start: int) -> None:
        if len(chosen) == size:
            out.append((tuple(chosen), tuple(reversed(count_by_fn))))
            return
        remaining = size - len(chosen)
        for i in range(start, len(leaves) - remaining + 1):
            leaf = leaves[i]
            chosen.append(leaf)
            add(leaf, 1)
            explore(i + 1)
            add(leaf, -1)
            chosen.pop()

    explore(0)
    return out


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
    if not sizes:
        raise InfeasibleError("no block sizes given")
    if any(s < 1 for s in sizes):
        raise InfeasibleError("every block size must be at least 1")
    leaves = sorted(model.leaves)
    total_capacity = sum(model.capacity(leaf) for leaf in leaves)
    if sum(sizes) > total_capacity:
        raise InfeasibleError(
            f"total replicas {sum(sizes)} exceed total capacity {total_capacity}"
        )
    if max(sizes) > len(leaves):
        raise InfeasibleError(
            f"block size {max(sizes)} exceeds the {len(leaves)} available leaves"
        )
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

    catalogs = {
        s: _block_catalog(model, s, rho, leaves) for s in set(ordered_sizes)
    }
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

    capacity = {leaf: model.capacity(leaf) for leaf in leaves}
    used: dict[str, int] = {}
    picks: list[int] = []
    best: tuple[int, ...] | None = None
    best_picks: list[int] | None = None

    def explore(pos: int, partial: tuple[int, ...]) -> None:
        nonlocal best, best_picks
        if best is not None:
            lower = tuple(partial[j] + suffix_min[pos][j] for j in range(rho + 1))
            if lower >= best:
                return
        if pos == len(ordered_sizes):
            if best is None or partial < best:
                best = partial
                best_picks = picks.copy()
            return
        size = ordered_sizes[pos]
        catalog = catalogs[size]
        start = 0
        if pos > 0 and ordered_sizes[pos - 1] == size:
            start = picks[-1]
        for idx in range(start, len(catalog)):
            block, agg = catalog[idx]
            ok = True
            taken = 0
            for leaf in block:
                if used.get(leaf, 0) + 1 > capacity[leaf]:
                    ok = False
                    break
                used[leaf] = used.get(leaf, 0) + 1
                taken += 1
            if ok:
                picks.append(idx)
                explore(pos + 1, tuple(partial[j] + agg[j] for j in range(rho + 1)))
                picks.pop()
            for leaf in block[:taken]:
                used[leaf] -= 1

    explore(0, zero)
    if best is None or best_picks is None:
        raise InfeasibleError("no multi-placement satisfies the leaf capacities")

    blocks: list[frozenset[str]] = [frozenset()] * len(sizes)
    for pos, original in enumerate(order):
        block, _ = catalogs[ordered_sizes[pos]][best_picks[pos]]
        blocks[original] = frozenset(block)
    return FailureAggregate(entries=best, rho=rho), MultiPlacement(blocks=tuple(blocks))


@dataclass(frozen=True)
class BalanceViolation:
    node: str
    light_child: str
    heavy_child: str
    light_count: int
    heavy_count: int


def check_balanced(model: FailureModel, placement: Placement) -> list[BalanceViolation]:
    """Report sibling pairs where an unfilled child lags another child by
    more than one replica. An empty list means the placement is balanced."""
    fn = failure_numbers(model, placement)
    stats = subtree_stats(model)
    violations: list[BalanceViolation] = []
    for node_id in model.nodes:
        kids = model.children[node_id]
        if len(kids) < 2:
            continue
        # A heavy side exceeds a light side by at least 2, so only
        # children holding 2 or more replicas can be one.
        heavies = [c for c in kids if fn[c] >= 2]
        for light in kids:
            if fn[light] >= stats.leaf_count[light]:
                continue
            for heavy in heavies:
                if fn[heavy] > fn[light] + 1:
                    violations.append(
                        BalanceViolation(
                            node=node_id,
                            light_child=light,
                            heavy_child=heavy,
                            light_count=fn[light],
                            heavy_count=fn[heavy],
                        )
                    )
    return violations
