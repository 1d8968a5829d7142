"""Single-block placement solvers.

Three implementations of the same optimization, used to cross-check one
another. All three return a lexicographically minimal aggregate and one
placement achieving it.

solve_basic memoizes a straightforward recursion on (node, replica
count). solve_fast makes two passes over the nodes. The first runs top
down and labels each node that takes some but not all of its leaves'
replicas, once: its children are filled or share the rest, and each
unfilled child is flagged when it must also be priced at one replica
more; it leaves one record per labeled node. The second runs bottom up
and keeps, per labeled node, a light and a heavy histogram of failure
numbers. A node with a single non-empty unfilled child extends that
child's histograms in place by the filled children's mass, so a run of
such nodes costs no more than its drop in mass. Any other node builds
fresh histograms, and one rank selection (_cheapest) picks the children
that take the extra replicas, at its mass and at one replica more.
Children left empty rank by the depth of their shallowest leaf (one
replica there fails just that path) and two sums price them all;
others rank by their step from light to heavy; ties go by position.
solve_basic picks with its own code (select_heavy), so the two check
one another. solve_greedy grows the placement one replica at a time.

Both recursive solvers start at the tree's virtual root, whose children
are the model's roots and which adds no entry of its own, so a forest
takes the same path as a tree.

A subtree can host at most one replica per leaf, so child "capacities"
inside the solvers are subtree leaf counts. A child is filled when its
subtree holds as many replicas as it has leaves.

The solvers work on the compiled tree (model.Tree) that parsing built.
They read its subtree summaries: per node the subtree's leaf count (its
capacity here), its node count (the aggregate of a subtree left empty)
and its shallowest leaf with that leaf's depth below the node (where an
empty subtree takes one extra replica most cheaply). The tree computes
them in one pass the first time a solver reads one, so only the first
solve on a model prepares anything. A filled subtree's aggregate and
its leaves come from a walk of just that subtree. Ids appear only in
the returned placement.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import InfeasibleError, ModelError
from .metrics import FailureAggregate, Placement
# postorder is not called here, but bench/tracer.py wraps this binding.
from .model import FailureModel, Tree, postorder  # noqa: F401
from .value import Value


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


class LabelResult(Value):
    """Outcome of splitting r replicas across children.

    filled children take their whole capacity; each unfilled child i
    gets base_assignment[i] replicas, and heavy_count of them will get
    one extra, chosen later by value. remaining is what the unfilled
    children share.
    """

    __slots__ = ("filled", "unfilled", "remaining", "heavy_count")

    filled: frozenset[int]
    unfilled: frozenset[int]
    remaining: int
    heavy_count: int

    def __init__(
        self, filled: frozenset[int], unfilled: frozenset[int], remaining: int, heavy_count: int
    ) -> None:
        object.__setattr__(self, "filled", filled)
        object.__setattr__(self, "unfilled", unfilled)
        object.__setattr__(self, "remaining", remaining)
        object.__setattr__(self, "heavy_count", heavy_count)

    @property
    def base_assignment(self) -> dict[int, int]:
        """The base share of each unfilled child, by position. No solver
        reads it, so it is built only when asked for."""
        if not self.unfilled:
            return {}
        base = self.remaining // len(self.unfilled)
        return {i: base for i in sorted(self.unfilled)}


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
    return LabelResult(
        filled=frozenset(filled),
        unfilled=frozenset(unfilled),
        remaining=remaining,
        heavy_count=remaining % len(unfilled) if unfilled else 0,
    )


class ChildValuePair(Value):
    """Best aggregates of one child at its base mass (light) and at one
    extra replica (heavy)."""

    __slots__ = ("light", "heavy")

    light: tuple[int, ...]
    heavy: tuple[int, ...]

    def __init__(self, light: tuple[int, ...], heavy: tuple[int, ...]) -> None:
        object.__setattr__(self, "light", light)
        object.__setattr__(self, "heavy", heavy)


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


def _fill(hists: Sequence[list[int]], tree: Tree, filled: Sequence[int]) -> None:
    """Count the filled subtrees, one replica on every leaf, into each
    histogram by failure number: every node w in them loses all
    leaf_count[w] replicas below it."""
    if not filled:  # most labeled nodes have no filled children
        return
    leaf_count = tree.leaf_count
    numbers = [leaf_count[w] for w in tree.walk(filled)]
    for hist in hists:
        for f in numbers:
            hist[f] += 1


def _leaves_below(tree: Tree, filled: Sequence[int]) -> list[int]:
    if not filled:
        return []
    capacity = tree.capacity
    return [w for w in tree.walk(filled) if capacity[w]]


def _check_rho(tree: Tree, rho: int) -> None:
    if rho < 1:
        raise InfeasibleError(f"rho must be at least 1, got {rho}")
    if rho > tree.leaf_total:
        raise InfeasibleError(f"rho={rho} exceeds the {tree.leaf_total} available leaves")


def _at(kids: list[int], positions: frozenset[int]) -> list[int]:
    """The children at the given positions, in child order, in one pass
    rather than a sort."""
    if not positions:  # most labeled nodes have no filled children
        return []
    return [c for i, c in enumerate(kids) if i in positions]


def _placement(tree: Tree, leaves: Iterable[int]) -> Placement:
    ids = tree.ids
    return Placement(leaves=frozenset([ids[u] for u in leaves]))


def solve_basic(model: FailureModel, rho: int) -> tuple[FailureAggregate, Placement]:
    """Memoized reference solver over (node, replica count) states,
    starting at the virtual root with all rho replicas."""
    tree = model.tree
    _check_rho(tree, rho)
    top = tree.root
    leaf_count = tree.leaf_count

    memo: dict[tuple[int, int], tuple[int, ...]] = {}
    labels: dict[tuple[int, int], LabelResult] = {}
    choices: dict[
        tuple[int, int], tuple[tuple[int, ...], tuple[int, ...], int, frozenset[int]]
    ] = {}
    filled_cache: dict[int, tuple[int, ...]] = {}

    def filled_value(u: int) -> tuple[int, ...]:
        cached = filled_cache.get(u)
        if cached is None:
            hist = [0] * (rho + 1)
            _fill([hist], tree, [u])
            cached = tuple(reversed(hist))
            filled_cache[u] = cached
        return cached

    stack: list[tuple[int, int]] = [(top, rho)]
    while stack:
        u, m = stack[-1]
        if (u, m) in memo:
            stack.pop()
            continue
        if m == 0:
            entries = [0] * (rho + 1)
            entries[rho] = tree.node_count[u]
            memo[(u, m)] = tuple(entries)
            stack.pop()
            continue
        if u != top and m == leaf_count[u]:
            memo[(u, m)] = filled_value(u)
            stack.pop()
            continue
        kids = tree.children(u)
        label = labels.get((u, m))
        if label is None:
            label = label_children([leaf_count[c] for c in kids], m)
            labels[(u, m)] = label
        unf = sorted(label.unfilled)
        base = label.remaining // len(unf) if unf else 0
        beta = label.heavy_count
        needed = [(kids[i], base) for i in unf]
        if beta > 0:
            needed += [(kids[i], base + 1) for i in unf]
        missing = [st for st in needed if st not in memo]
        if missing:
            stack.extend(missing)
            continue
        entries = [0] * (rho + 1)
        if u != top:
            entries[rho - m] += 1
        for i in sorted(label.filled):
            for j, v in enumerate(filled_value(kids[i])):
                entries[j] += v
        heavy_ids: frozenset[int] = frozenset()
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

    out: list[int] = []
    rstack: list[tuple[int, int]] = [(top, rho)]
    while rstack:
        u, m = rstack.pop()
        if m == 0:
            continue
        if u != top and m == leaf_count[u]:
            out.extend(_leaves_below(tree, [u]))
            continue
        filled_ids, unfilled_ids, base, heavy_ids = choices[(u, m)]
        for c in filled_ids:
            rstack.append((c, leaf_count[c]))
        for c in unfilled_ids:
            rstack.append((c, base + 1 if c in heavy_ids else base))

    return FailureAggregate(entries=memo[(top, rho)], rho=rho), _placement(tree, out)


# A labeled node: (node, mass, need, label, unfilled children, filled
# children). need is set when the node is also priced at one replica more.
Record = tuple[int, int, bool, LabelResult, list[int], list[int]]


def _divide(tree: Tree, rho: int) -> list[Record]:
    """Top-down pass from the virtual root, which holds all rho
    replicas. Labels every node that takes some but not all of its
    leaves' replicas, once, and hands each unfilled child its light
    mass and whether it must also be priced at one replica more: when
    its parent is, or when its parent moves extra replicas down. Returns
    one record per labeled node, parents first."""
    leaf_count = tree.leaf_count
    records: list[Record] = []
    pending: list[tuple[int, int, bool]] = [(tree.root, rho, False)]
    while pending:
        u, m, nh = pending.pop()
        kids = tree.children(u)
        label = label_children([leaf_count[c] for c in kids], m)
        unf = _at(kids, label.unfilled)
        records.append((u, m, nh, label, unf, _at(kids, label.filled)))
        # Unfilled children that stay empty are priced in closed form by
        # the bottom-up pass. The others have more leaves than their
        # share, so they have children to label.
        if unf and label.remaining >= len(unf):
            child_need = nh or label.heavy_count >= 1
            base = label.remaining // len(unf)
            pending.extend((c, base, child_need) for c in unf)
    return records


def _cheapest(keys: list, beta: int, heavy: bool) -> tuple[set[int], set[int]]:
    """Positions of the beta smallest keys and, when heavy, of the
    beta + 1 smallest, by one rank selection. The keys must be distinct,
    so the beta smallest are the beta + 1 smallest but the rank-beta
    one."""
    k = beta + 1 if heavy else beta
    if not k:
        return set(), set()
    cut = nth_smallest(keys, k - 1)
    picked = {i for i, key in enumerate(keys) if key <= cut}
    return ({i for i in picked if keys[i] < cut}, picked) if heavy else (picked, set())


def solve_fast(model: FailureModel, rho: int) -> tuple[FailureAggregate, Placement]:
    """Near-linear solver: label each node once top down, then combine
    failure-number histograms bottom up."""
    tree = model.tree
    _check_rho(tree, rho)
    top = tree.root
    depth, node_count = tree.min_rel_depth, tree.node_count
    records = _divide(tree, rho)

    # Bottom-up pass. Per labeled node, hists holds the histogram by
    # failure number of its subtree's best aggregate at its mass
    # (light) and, when needed, at one replica more (heavy); both then
    # have mass + 2 slots so that siblings compare slot for slot. picks
    # holds the positions among its unfilled children that take the
    # extra replicas, light and heavy.
    hists: dict[int, tuple[list[int], list[int] | None]] = {}
    picks: dict[int, tuple[set[int], set[int]]] = {}
    for u, m, nh, label, unf, filled in reversed(records):
        size = m + 2 if nh else m + 1
        beta = label.heavy_count
        if len(unf) == 1 and label.remaining:
            # The only unfilled child takes every extra replica, so its
            # lists are extended in place by the filled children's mass.
            light, heavy = hists.pop(unf[0])
            light.extend([0] * (size - len(light)))
            if nh:
                heavy.extend([0] * (size - len(heavy)))
        elif label.remaining < len(unf):
            # Every unfilled child is empty: all its nodes sit at failure
            # number 0 but the path to its shallowest leaf, which moves
            # to 1 when the child takes an extra replica. That step is
            # (path, -path), so the shallowest children are the
            # cheapest, ties by position.
            n = len(unf)
            picks[u] = light_sel, heavy_sel = _cheapest(
                [depth[c] * n + i for i, c in enumerate(unf)], beta, nh
            )
            nodes = sum(node_count[c] for c in unf)
            light = [0] * size
            heavy = [0] * size if nh else None
            for hist, sel in zip((light, heavy) if nh else (light,), (light_sel, heavy_sel)):
                path = sum(depth[unf[i]] + 1 for i in sel)
                hist[0] = nodes - path
                hist[1] = path
        else:
            kid_hists = [hists.pop(c) for c in unf]
            light = [0] * size
            heavy = [0] * size if nh else None
            light_sel = heavy_sel = set()
            if beta >= 1 or nh:
                # A child's step from light to heavy, compared from the
                # highest failure number down.
                keys = [
                    ([h - l for l, h in zip(cl, ch)][::-1], i)
                    for i, (cl, ch) in enumerate(kid_hists)
                ]
                light_sel, heavy_sel = _cheapest(keys, beta, nh)
            picks[u] = light_sel, heavy_sel
            for i, (cl, ch) in enumerate(kid_hists):
                for f, v in enumerate(ch if i in light_sel else cl):
                    light[f] += v
                if nh:
                    for f, v in enumerate(ch if i in heavy_sel else cl):
                        heavy[f] += v
        _fill([light, heavy] if nh else [light], tree, filled)
        if u != top:
            light[m] += 1
            if nh:
                heavy[m + 1] += 1
        hists[u] = (light, heavy)

    # Witness, parents first: the heavy flag goes down to the only
    # non-empty unfilled child, or to the children picked for it; an
    # empty child picked contributes its shallowest leaf.
    out: list[int] = []
    flagged: set[int] = set()
    for u, _, _, label, unf, filled in records:
        out.extend(_leaves_below(tree, filled))
        hv = u in flagged
        if len(unf) == 1 and label.remaining:
            if hv:
                flagged.add(unf[0])
            continue
        sel = picks[u][hv]
        if label.remaining < len(unf):
            out.extend(tree.min_depth_leaf[unf[i]] for i in sel)
        else:
            flagged.update(unf[i] for i in sel)

    entries = tuple(reversed(hists[top][0]))
    return FailureAggregate(entries=entries, rho=rho), _placement(tree, out)


def solve_greedy(model: FailureModel, rho: int) -> tuple[FailureAggregate, Placement]:
    """Place one replica at a time, each time choosing the leaf whose
    addition gives the lexicographically smallest next aggregate (ties
    broken by smallest leaf id)."""
    tree = model.tree
    _check_rho(tree, rho)
    ids = tree.ids
    # In id order, so that of equal aggregates the first one found wins.
    candidates = sorted((u for u, c in enumerate(tree.capacity) if c), key=ids.__getitem__)
    paths = {leaf: tree.up(leaf) for leaf in candidates}

    fn = [0] * len(ids)
    agg = [0] * (rho + 1)
    agg[rho] = len(ids)
    chosen: set[int] = set()

    for _ in range(rho):
        best: tuple[tuple[int, ...], int] | None = None
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
            if best is None or cand < best[0]:
                best = (cand, leaf)
        assert best is not None
        cand, leaf = best
        chosen.add(leaf)
        for v in paths[leaf]:
            fn[v] += 1
        agg = list(cand)

    return FailureAggregate(entries=tuple(agg), rho=rho), _placement(tree, chosen)
