"""Single-block placement solvers.

Three implementations of the same optimization, used to cross-check one
another. All three return a lexicographically minimal aggregate and one
placement achieving it.

solve_basic memoizes a straightforward recursion on (node, replica
count). solve_fast makes two passes over the nodes. The first runs top
down and labels each node that takes some but not all of its leaves'
replicas, once: its children are filled or share the rest, and each
unfilled child is flagged when it must also be priced at one replica
more. The second runs bottom up and keeps, per labeled node, a light
and a heavy histogram of failure numbers. A node with several unfilled
children builds fresh histograms and picks which children take the
extra replicas. A node with a single unfilled child extends that
child's histograms in place by the filled children's mass, so a run of
such nodes costs no more than its drop in mass. A node whose share
leaves its unfilled children empty gets no histograms from them: one
replica in an empty child fails just the path to its shallowest leaf,
so a rank selection on that depth (ties by position) picks the
children that take the extra replicas, and two sums price them all.
solve_greedy grows the placement one replica at a time.

Both recursive solvers start at a virtual root, None, whose children
are the model's roots and which adds no entry of its own, so a forest
takes the same path as a tree.

A subtree can host at most one replica per leaf, so child "capacities"
inside the solvers are subtree leaf counts. A child is filled when its
subtree holds as many replicas as it has leaves.

Each solve prepares the tree once with model.subtree_stats. Per node it
holds the subtree's leaf count (its capacity here), its node count (the
aggregate of a subtree left empty) and its shallowest leaf with that
leaf's depth below the node (where an empty subtree takes one extra
replica most cheaply). A filled subtree's aggregate and its leaves come
from a postorder walk of just that subtree.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import InfeasibleError, ModelError
from .metrics import FailureAggregate, Placement
from .model import FailureModel, SubtreeStats, ancestors, children_of, postorder, subtree_stats


def nth_smallest(items: list, k: int):
    """Rank-k element (0-indexed) in worst-case linear time.

    Median-of-medians pivoting: sort constant-size groups, recurse on
    the group medians for the pivot, then partition and descend into
    the side containing rank k.
    """
    pool = list(items)
    if not 0 <= k < len(pool):
        raise ValueError(f"rank {k} out of range for {len(pool)} items")
    while True:
        if len(pool) <= 10:
            pool.sort()
            return pool[k]
        medians = []
        for i in range(0, len(pool), 5):
            group = sorted(pool[i : i + 5])
            medians.append(group[len(group) // 2])
        pivot = nth_smallest(medians, len(medians) // 2)
        lower = [x for x in pool if x < pivot]
        equal = [x for x in pool if x == pivot]
        if k < len(lower):
            pool = lower
        elif k < len(lower) + len(equal):
            return pivot
        else:
            k -= len(lower) + len(equal)
            pool = [x for x in pool if x > pivot]


@dataclass(frozen=True)
class LabelResult:
    """Outcome of splitting r replicas across children.

    filled children take their whole capacity; each unfilled child i
    gets base_assignment[i] replicas, and heavy_count of them will get
    one extra, chosen later by value. remaining is what the unfilled
    children share.
    """

    filled: frozenset[int]
    unfilled: frozenset[int]
    base_assignment: dict[int, int]
    remaining: int
    heavy_count: int


def label_children(capacities: list[int] | tuple[int, ...], r: int) -> LabelResult:
    """Split r replicas over children so no unfilled child ends more
    than one replica behind another child.

    Repeatedly partitions the undecided children around the lower
    median of their capacities. The split is the water-filling one: a
    child fills exactly when its capacity is at most the common level
    the rest settle at, so filled capacities never exceed the base
    share of the unfilled children. Worst-case linear overall via
    nth_smallest.
    """
    caps = list(capacities)
    if not caps:
        raise ModelError("label_children needs at least one child")
    if any(c < 1 for c in caps):
        raise ModelError("capacities must be positive")
    total = sum(caps)
    if not 0 <= r <= total:
        raise InfeasibleError(f"cannot place {r} replicas into capacity {total}")

    filled: set[int] = set()
    unfilled: set[int] = set()
    pool = list(range(len(caps)))
    s = r
    while pool:
        values = [caps[i] for i in pool]
        med = nth_smallest(values, (len(values) - 1) // 2)
        below = [i for i in pool if caps[i] < med]
        at = [i for i in pool if caps[i] == med]
        above = [i for i in pool if caps[i] > med]
        x = s - sum(caps[i] for i in below)
        cnt = len(unfilled) + len(at) + len(above)
        if x < (med - 1) * cnt:
            # Too few replicas for everyone at the median to fill up:
            # the median and above stay unfilled, recurse on the rest.
            unfilled.update(at)
            unfilled.update(above)
            pool = below
        elif x >= med * cnt:
            # Enough that everyone up to the median fills completely.
            filled.update(below)
            filled.update(at)
            pool = above
            s = x - sum(caps[i] for i in at)
        else:
            filled.update(below)
            unfilled.update(at)
            unfilled.update(above)
            pool = []

    remaining = r - sum(caps[i] for i in filled)
    if unfilled:
        base = remaining // len(unfilled)
        heavy = remaining % len(unfilled)
    else:
        base = 0
        heavy = 0
    return LabelResult(
        filled=frozenset(filled),
        unfilled=frozenset(unfilled),
        base_assignment={i: base for i in sorted(unfilled)},
        remaining=remaining,
        heavy_count=heavy,
    )


@dataclass(frozen=True)
class ChildValuePair:
    """Best aggregates of one child at its base mass (light) and at one
    extra replica (heavy)."""

    light: tuple[int, ...]
    heavy: tuple[int, ...]


def select_heavy(pairs: list[ChildValuePair], beta: int) -> set[int]:
    """Pick the beta children whose step from light to heavy is
    lexicographically cheapest (ties broken by child position).

    Uses rank selection plus a partition pass, so the cost stays linear
    in the number of children regardless of beta.
    """
    if beta < 0 or beta > len(pairs):
        raise ValueError(f"cannot pick {beta} of {len(pairs)} children")
    if beta == 0:
        return set()
    keys = []
    for i, pair in enumerate(pairs):
        if len(pair.light) != len(pair.heavy):
            raise ValueError("light and heavy differ in length")
        diff = tuple(h - l for l, h in zip(pair.light, pair.heavy))
        keys.append((diff, i))
    threshold = nth_smallest(keys, beta - 1)
    return {i for diff, i in keys if (diff, i) <= threshold}


def _fill(
    hists: Sequence[list[int]], model: FailureModel, stats: SubtreeStats, filled: Sequence[str]
) -> None:
    """Count the filled subtrees, one replica on every leaf, into each
    histogram by failure number: every node w in them loses all
    leaf_count[w] replicas below it."""
    if not filled:  # most labeled nodes have no filled children
        return
    leaf_count = stats.leaf_count
    numbers = [leaf_count[w] for w in postorder(model, filled)]
    for hist in hists:
        for f in numbers:
            hist[f] += 1


def _leaves_below(model: FailureModel, filled: Sequence[str]) -> list[str]:
    if not filled:
        return []
    return [w for w in postorder(model, filled) if not model.children[w]]


def _check_rho(model: FailureModel, rho: int) -> None:
    if rho < 1:
        raise InfeasibleError(f"rho must be at least 1, got {rho}")
    if rho > len(model.leaves):
        raise InfeasibleError(f"rho={rho} exceeds the {len(model.leaves)} available leaves")


def _at(kids: list[str], positions: frozenset[int]) -> list[str]:
    """The children at the given positions, in child order, in one pass
    rather than a sort."""
    if not positions:  # most labeled nodes have no filled children
        return []
    return [c for i, c in enumerate(kids) if i in positions]


def _label_base(label: LabelResult) -> int:
    return label.remaining // len(label.unfilled)


def solve_basic(model: FailureModel, rho: int) -> tuple[FailureAggregate, Placement]:
    """Memoized reference solver over (node, replica count) states,
    starting at the virtual root None with all rho replicas."""
    _check_rho(model, rho)
    stats = subtree_stats(model)
    leaf_count = stats.leaf_count

    memo: dict[tuple[str | None, int], tuple[int, ...]] = {}
    labels: dict[tuple[str | None, int], LabelResult] = {}
    choices: dict[
        tuple[str | None, int], tuple[tuple[str, ...], tuple[str, ...], int, frozenset[str]]
    ] = {}
    filled_cache: dict[str, tuple[int, ...]] = {}

    def filled_value(u: str) -> tuple[int, ...]:
        cached = filled_cache.get(u)
        if cached is None:
            hist = [0] * (rho + 1)
            _fill([hist], model, stats, [u])
            cached = tuple(reversed(hist))
            filled_cache[u] = cached
        return cached

    stack: list[tuple[str | None, int]] = [(None, rho)]
    while stack:
        u, m = stack[-1]
        if (u, m) in memo:
            stack.pop()
            continue
        if m == 0:
            entries = [0] * (rho + 1)
            entries[rho] = stats.node_count[u]
            memo[(u, m)] = tuple(entries)
            stack.pop()
            continue
        if u is not None and m == leaf_count[u]:
            memo[(u, m)] = filled_value(u)
            stack.pop()
            continue
        kids = children_of(model, u)
        label = labels.get((u, m))
        if label is None:
            label = label_children([leaf_count[c] for c in kids], m)
            labels[(u, m)] = label
        unf = sorted(label.unfilled)
        base = _label_base(label) if unf else 0
        beta = label.heavy_count
        needed = [(kids[i], base) for i in unf]
        if beta > 0:
            needed += [(kids[i], base + 1) for i in unf]
        missing = [st for st in needed if st not in memo]
        if missing:
            stack.extend(missing)
            continue
        entries = [0] * (rho + 1)
        if u is not None:
            entries[rho - m] += 1
        for i in sorted(label.filled):
            for j, v in enumerate(filled_value(kids[i])):
                entries[j] += v
        heavy_ids: frozenset[str] = frozenset()
        if beta > 0:
            pairs = [
                ChildValuePair(light=memo[(kids[i], base)], heavy=memo[(kids[i], base + 1)])
                for i in unf
            ]
            picked = select_heavy(pairs, beta)
            heavy_ids = frozenset(kids[unf[j]] for j in picked)
        for i in unf:
            child = kids[i]
            vec = memo[(child, base + 1)] if child in heavy_ids else memo[(child, base)]
            for j, v in enumerate(vec):
                entries[j] += v
        memo[(u, m)] = tuple(entries)
        choices[(u, m)] = (
            tuple(kids[i] for i in sorted(label.filled)),
            tuple(kids[i] for i in unf),
            base,
            heavy_ids,
        )
        stack.pop()

    out: list[str] = []
    rstack: list[tuple[str | None, int]] = [(None, rho)]
    while rstack:
        u, m = rstack.pop()
        if m == 0:
            continue
        if u is not None and m == leaf_count[u]:
            out.extend(_leaves_below(model, [u]))
            continue
        filled_ids, unfilled_ids, base, heavy_ids = choices[(u, m)]
        for c in filled_ids:
            rstack.append((c, leaf_count[c]))
        for c in unfilled_ids:
            rstack.append((c, base + 1 if c in heavy_ids else base))

    return FailureAggregate(entries=memo[(None, rho)], rho=rho), Placement(leaves=frozenset(out))


def _divide(
    model: FailureModel, stats: SubtreeStats, rho: int
) -> tuple[
    list[str | None], dict[str | None, int], dict[str | None, bool], dict[str | None, LabelResult]
]:
    """Top-down pass from the virtual root None, which holds all rho
    replicas. Labels every node that takes some but not all of its
    leaves' replicas, once, and records each unfilled child's light mass
    and whether it must also be priced at one replica more: when its
    parent is, or when its parent moves extra replicas down. Returns the
    labeled nodes parents first."""
    leaf_count = stats.leaf_count
    mass: dict[str | None, int] = {None: rho}
    need: dict[str | None, bool] = {None: False}
    labels: dict[str | None, LabelResult] = {}
    order: list[str | None] = []
    pending: list[str | None] = [None]
    while pending:
        u = pending.pop()
        order.append(u)
        kids = children_of(model, u)
        label = label_children([leaf_count[c] for c in kids], mass[u])
        labels[u] = label
        if not label.unfilled:
            continue
        base = _label_base(label)
        if not base:
            # The unfilled children are empty; the bottom-up pass prices
            # them in closed form.
            continue
        child_need = need[u] or label.heavy_count >= 1
        for c in _at(kids, label.unfilled):
            # An unfilled child has more leaves than base, so it has
            # children to label.
            mass[c] = base
            need[c] = child_need
            pending.append(c)
    return order, mass, need, labels


def _shallowest(
    stats: SubtreeStats, unf: list[str], beta: int, heavy: bool
) -> tuple[list[str], list[str]]:
    """The empty children that take the extra replicas: beta of them at
    the node's mass and beta + 1 at one more (when heavy).

    One replica in an empty child goes to its shallowest leaf and fails
    just that path, min_rel_depth + 1 nodes, so its step from light to
    heavy is (path, -path). select_heavy would therefore pick the
    shallowest children, ties by position; one rank selection on the
    int keys depth * len(unf) + position finds them in linear time.
    """
    k = beta + 1 if heavy else beta
    if not k:
        return [], []
    n = len(unf)
    depth = stats.min_rel_depth
    keys = [depth[c] * n + i for i, c in enumerate(unf)]
    cut = nth_smallest(keys, k - 1)
    picked = [key for key in keys if key <= cut]
    if not heavy:
        return [unf[key % n] for key in picked], []
    # Keys are distinct, so the beta cheapest are the picked ones but
    # the rank-k key itself.
    return [unf[key % n] for key in picked if key != cut], [unf[key % n] for key in picked]


def _empty_hist(stats: SubtreeStats, size: int, nodes: int, picked: list[str]) -> list[int]:
    """Histogram of empty children with nodes nodes in all, where each
    picked child holds one replica on its shallowest leaf."""
    path = sum(stats.min_rel_depth[c] + 1 for c in picked)
    hist = [0] * size
    hist[0] = nodes - path
    hist[1] = path
    return hist


def _add(dst: list[int], src: list[int]) -> None:
    for f, v in enumerate(src):
        dst[f] += v


def solve_fast(model: FailureModel, rho: int) -> tuple[FailureAggregate, Placement]:
    """Near-linear solver: label each node once top down, then combine
    failure-number histograms bottom up."""
    _check_rho(model, rho)
    stats = subtree_stats(model)
    order, mass, need, labels = _divide(model, stats, rho)

    # Bottom-up pass. Per labeled node, hists holds the histogram by
    # failure number of its subtree's best aggregate at its mass
    # (light) and, when needed, at one replica more (heavy); both then
    # have mass + 2 slots so that siblings compare slot for slot.
    hists: dict[str | None, tuple[list[int], list[int] | None]] = {}
    choices: dict[str | None, tuple[set[int], set[int]]] = {}
    shallow: dict[str | None, tuple[list[str], list[str]]] = {}
    for u in reversed(order):
        kids = children_of(model, u)
        label = labels[u]
        m = mass[u]
        nh = need[u]
        size = m + 2 if nh else m + 1
        unf = _at(kids, label.unfilled)
        if unf and not _label_base(label):
            # Every unfilled child is empty: all its nodes sit at failure
            # number 0 but the path to its shallowest leaf, which moves
            # to 1 when the child is picked for an extra replica.
            light_sel, heavy_sel = _shallowest(stats, unf, label.heavy_count, nh)
            shallow[u] = (
                [stats.min_depth_leaf[c] for c in light_sel],
                [stats.min_depth_leaf[c] for c in heavy_sel],
            )
            nodes = sum(stats.node_count[c] for c in unf)
            light = _empty_hist(stats, size, nodes, light_sel)
            heavy = _empty_hist(stats, size, nodes, heavy_sel) if nh else None
        elif len(unf) == 1:
            # The only unfilled child takes every extra replica, so its
            # lists are extended in place by the filled children's mass.
            light, heavy = hists.pop(unf[0])
            light.extend([0] * (size - len(light)))
            if nh:
                heavy.extend([0] * (size - len(heavy)))
        else:
            kid_hists = [hists.pop(c) for c in unf]
            light = [0] * size
            heavy = [0] * size if nh else None
            beta = label.heavy_count
            light_sel: set[int] = set()
            heavy_sel: set[int] = set()
            if beta >= 1 or nh:
                # select_heavy compares aggregates, highest failure
                # number first.
                pairs = [
                    ChildValuePair(light=tuple(reversed(cl)), heavy=tuple(reversed(ch)))
                    for cl, ch in kid_hists
                ]
                if beta >= 1:
                    light_sel = select_heavy(pairs, beta)
                if nh:
                    heavy_sel = select_heavy(pairs, beta + 1)
                choices[u] = (light_sel, heavy_sel)
            for i, (cl, ch) in enumerate(kid_hists):
                _add(light, ch if i in light_sel else cl)
                if nh:
                    _add(heavy, ch if i in heavy_sel else cl)
        filled = _at(kids, label.filled)
        _fill([light, heavy] if nh else [light], model, stats, filled)
        if u is not None:
            light[m] += 1
            if nh:
                heavy[m + 1] += 1
        hists[u] = (light, heavy)

    # Witness walk: the heavy flag goes down to the only unfilled child,
    # or to the children chosen for it; an empty child chosen for it
    # contributes its shallowest leaf.
    out: list[str] = []
    walk: list[tuple[str | None, bool]] = [(None, False)]
    while walk:
        u, hv = walk.pop()
        kids = children_of(model, u)
        label = labels[u]
        out.extend(_leaves_below(model, _at(kids, label.filled)))
        if u in shallow:
            light_leaves, heavy_leaves = shallow[u]
            out.extend(heavy_leaves if hv else light_leaves)
            continue
        unf = _at(kids, label.unfilled)
        if len(unf) == 1:
            walk.append((unf[0], hv))
            continue
        light_sel, heavy_sel = choices.get(u, (set(), set()))
        sel = heavy_sel if hv else light_sel
        walk.extend((c, i in sel) for i, c in enumerate(unf))

    entries = tuple(reversed(hists[None][0]))
    return FailureAggregate(entries=entries, rho=rho), Placement(leaves=frozenset(out))


def solve_greedy(model: FailureModel, rho: int) -> tuple[FailureAggregate, Placement]:
    """Place one replica at a time, each time choosing the leaf whose
    addition gives the lexicographically smallest next aggregate (ties
    broken by smallest leaf id)."""
    _check_rho(model, rho)
    paths = {leaf: list(ancestors(model, leaf)) for leaf in model.leaves}

    fn = {node_id: 0 for node_id in model.nodes}
    agg = [0] * (rho + 1)
    agg[rho] = len(model)
    chosen: set[str] = set()
    candidates = sorted(model.leaves)

    for _ in range(rho):
        best_key: tuple[tuple[int, ...], str] | None = None
        for leaf in candidates:
            if leaf in chosen:
                continue
            s = [0] * (rho + 1)
            for v in paths[leaf]:
                s[rho - fn[v]] += 1
            cand = tuple(
                agg[i] - s[i] + (s[i + 1] if i + 1 <= rho else 0)
                for i in range(rho + 1)
            )
            key = (cand, leaf)
            if best_key is None or key < best_key:
                best_key = key
        assert best_key is not None
        cand, leaf = best_key
        chosen.add(leaf)
        for v in paths[leaf]:
            fn[v] += 1
        agg = list(cand)

    return FailureAggregate(entries=tuple(agg), rho=rho), Placement(leaves=frozenset(chosen))
