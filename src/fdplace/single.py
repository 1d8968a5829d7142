"""Single-block placement solvers.

Three implementations of the same optimization, used to cross-check one
another. solve_basic memoizes a straightforward recursion on (node,
replica count). solve_fast labels each node once, contracts chains of
single-child decisions, and works on short suffix windows of the
aggregate instead of full vectors. solve_greedy grows the placement one
replica at a time. All three return a lexicographically minimal
aggregate and one placement achieving it.

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
from dataclasses import dataclass, field

from .errors import InfeasibleError, ModelError
from .metrics import FailureAggregate, Placement
from .model import FailureModel, SubtreeStats, ancestors, postorder, subtree_stats


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
    extra replica (heavy), with optional witness payloads."""

    light: tuple[int, ...]
    heavy: tuple[int, ...]
    light_witness: object = None
    heavy_witness: object = None


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
    vec: list[int], top: int, model: FailureModel, stats: SubtreeStats, filled: Sequence[str]
) -> None:
    """Add the aggregate of the filled subtrees, one replica on every
    leaf, to vec, whose index top stands for aggregate index rho: each
    node w in them loses all leaf_count[w] replicas below it."""
    if not filled:  # most plan nodes have no filled children
        return
    leaf_count = stats.leaf_count
    for w in postorder(model, filled):
        vec[top - leaf_count[w]] += 1


def _leaves_below(model: FailureModel, filled: Sequence[str]) -> list[str]:
    if not filled:
        return []
    return [w for w in postorder(model, filled) if not model.children[w]]


def _check_rho(model: FailureModel, rho: int) -> None:
    if rho < 1:
        raise InfeasibleError(f"rho must be at least 1, got {rho}")
    if rho > len(model.leaves):
        raise InfeasibleError(f"rho={rho} exceeds the {len(model.leaves)} available leaves")


def _label_base(label: LabelResult) -> int:
    return label.remaining // len(label.unfilled)


def solve_basic(model: FailureModel, rho: int) -> tuple[FailureAggregate, Placement]:
    """Memoized reference solver over (node, replica count) states."""
    _check_rho(model, rho)
    stats = subtree_stats(model)

    memo: dict[tuple[str, int], tuple[int, ...]] = {}
    labels: dict[tuple[str, int], LabelResult] = {}
    choices: dict[tuple[str, int], tuple[tuple[str, ...], tuple[str, ...], int, frozenset[str]]] = {}
    filled_cache: dict[str, tuple[int, ...]] = {}

    def filled_value(u: str) -> tuple[int, ...]:
        cached = filled_cache.get(u)
        if cached is None:
            entries = [0] * (rho + 1)
            _fill(entries, rho, model, stats, [u])
            cached = tuple(entries)
            filled_cache[u] = cached
        return cached

    def ensure(states: list[tuple[str, int]]) -> None:
        stack = list(states)
        while stack:
            u, m = stack[-1]
            if (u, m) in memo:
                stack.pop()
                continue
            lc = stats.leaf_count[u]
            if m == 0:
                entries = [0] * (rho + 1)
                entries[rho] = stats.node_count[u]
                memo[(u, m)] = tuple(entries)
                stack.pop()
                continue
            if m == lc:
                memo[(u, m)] = filled_value(u)
                stack.pop()
                continue
            kids = model.children[u]
            label = labels.get((u, m))
            if label is None:
                label = label_children([stats.leaf_count[c] for c in kids], m)
                labels[(u, m)] = label
            unf = sorted(label.unfilled)
            base = _label_base(label)
            beta = label.heavy_count
            needed = [(kids[i], base) for i in unf]
            if beta > 0:
                needed += [(kids[i], base + 1) for i in unf]
            missing = [st for st in needed if st not in memo]
            if missing:
                stack.extend(missing)
                continue
            entries = [0] * (rho + 1)
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

    seeds: list[tuple[str, int]]
    if len(model.roots) == 1:
        root = model.roots[0]
        ensure([(root, rho)])
        value = memo[(root, rho)]
        seeds = [(root, rho)]
    else:
        label = label_children([stats.leaf_count[r] for r in model.roots], rho)
        roots = model.roots
        unf = sorted(label.unfilled)
        seeds = []
        entries = [0] * (rho + 1)
        for i in sorted(label.filled):
            for j, v in enumerate(filled_value(roots[i])):
                entries[j] += v
            seeds.append((roots[i], stats.leaf_count[roots[i]]))
        if unf:
            base = _label_base(label)
            beta = label.heavy_count
            needed = [(roots[i], base) for i in unf]
            if beta > 0:
                needed += [(roots[i], base + 1) for i in unf]
            ensure(needed)
            heavy_ids = frozenset()
            if beta > 0:
                pairs = [
                    ChildValuePair(light=memo[(roots[i], base)], heavy=memo[(roots[i], base + 1)])
                    for i in unf
                ]
                picked = select_heavy(pairs, beta)
                heavy_ids = frozenset(roots[unf[j]] for j in picked)
            for i in unf:
                r_id = roots[i]
                mass = base + 1 if r_id in heavy_ids else base
                for j, v in enumerate(memo[(r_id, mass)]):
                    entries[j] += v
                seeds.append((r_id, mass))
        value = tuple(entries)

    out: list[str] = []
    rstack = list(seeds)
    while rstack:
        u, m = rstack.pop()
        if m == 0:
            continue
        if m == stats.leaf_count[u]:
            out.extend(_leaves_below(model, [u]))
            continue
        filled_ids, unfilled_ids, base, heavy_ids = choices[(u, m)]
        for c in filled_ids:
            rstack.append((c, stats.leaf_count[c]))
        for c in unfilled_ids:
            rstack.append((c, base + 1 if c in heavy_ids else base))

    return FailureAggregate(entries=value, rho=rho), Placement(leaves=frozenset(out))


@dataclass(frozen=True)
class PlanNode:
    """One node of the contracted solve plan.

    kind is "branch" (labeled node with its unfilled children as plan
    children), "chain" (a contracted run of nodes that each had exactly
    one unfilled child; children holds the node below the run), "zero"
    (subtree that receives no replicas, closed form), or "filled"
    (subtree packed completely, treated as a constant).
    """

    kind: str
    node: str
    mass: int
    label: LabelResult | None = None
    children: tuple[PlanNode, ...] = ()
    filled_children: tuple[str, ...] = ()
    chain: tuple[str, ...] = ()
    chain_masses: tuple[int, ...] = ()
    chain_filled: tuple[str, ...] = ()


@dataclass
class Plan:
    roots: tuple[PlanNode, ...]
    masses: dict[str, int] = field(default_factory=dict)


def _divide(
    model: FailureModel, stats: SubtreeStats, rho: int
) -> tuple[dict[str, int], dict[str | None, LabelResult]]:
    """Assign a light replica mass to every reachable node, labeling
    each visited node once. A forest is driven by one labeling over the
    roots, stored under the None key."""
    masses: dict[str, int] = {}
    labels: dict[str | None, LabelResult] = {}
    pending: list[str] = []

    def enter(node_id: str, mass: int) -> None:
        masses[node_id] = mass
        if mass != 0 and mass != stats.leaf_count[node_id] and model.children[node_id]:
            pending.append(node_id)

    if len(model.roots) == 1:
        enter(model.roots[0], rho)
    else:
        label = label_children([stats.leaf_count[r] for r in model.roots], rho)
        labels[None] = label
        for i in sorted(label.filled):
            masses[model.roots[i]] = stats.leaf_count[model.roots[i]]
        if label.unfilled:
            base = _label_base(label)
            for i in sorted(label.unfilled):
                enter(model.roots[i], base)

    while pending:
        u = pending.pop()
        kids = model.children[u]
        label = label_children([stats.leaf_count[c] for c in kids], masses[u])
        labels[u] = label
        for i in sorted(label.filled):
            masses[kids[i]] = stats.leaf_count[kids[i]]
        if label.unfilled:
            base = _label_base(label)
            for i in sorted(label.unfilled):
                enter(kids[i], base)
    return masses, labels


def _build_plan(
    model: FailureModel,
    stats: SubtreeStats,
    masses: dict[str, int],
    labels: dict[str | None, LabelResult],
) -> Plan:
    made: dict[str, PlanNode] = {}
    allow_root_chain = len(model.roots) > 1
    tasks: list[tuple[str, bool]] = [(r, allow_root_chain) for r in model.roots]
    while tasks:
        u, allow = tasks[-1]
        if u in made:
            tasks.pop()
            continue
        m = masses[u]
        lc = stats.leaf_count[u]
        if m == 0:
            made[u] = PlanNode(kind="zero", node=u, mass=0)
            tasks.pop()
            continue
        if m == lc:
            made[u] = PlanNode(kind="filled", node=u, mass=m)
            tasks.pop()
            continue
        label = labels[u]
        kids = model.children[u]
        if allow and len(label.unfilled) == 1:
            spine: list[str] = []
            spine_masses: list[int] = []
            spine_filled: list[str] = []
            v = u
            while True:
                lbl = labels.get(v)
                if lbl is None or len(lbl.unfilled) != 1:
                    break
                kv = model.children[v]
                spine.append(v)
                spine_masses.append(masses[v])
                spine_filled.extend(kv[i] for i in sorted(lbl.filled))
                v = kv[next(iter(lbl.unfilled))]
            if v not in made:
                tasks.append((v, False))
                continue
            made[u] = PlanNode(
                kind="chain",
                node=u,
                mass=m,
                children=(made[v],),
                chain=tuple(spine),
                chain_masses=tuple(spine_masses),
                chain_filled=tuple(spine_filled),
            )
            tasks.pop()
            continue
        unf = sorted(label.unfilled)
        dep = [kids[i] for i in unf]
        missing = [c for c in dep if c not in made]
        if missing:
            tasks.extend((c, True) for c in missing)
            continue
        made[u] = PlanNode(
            kind="branch",
            node=u,
            mass=m,
            label=label,
            children=tuple(made[c] for c in dep),
            filled_children=tuple(kids[i] for i in sorted(label.filled)),
        )
        tasks.pop()
    return Plan(roots=tuple(made[r] for r in model.roots), masses=dict(masses))


def contract_chains(model: FailureModel, assignments: dict[str, int]) -> Plan:
    """Build the contracted solve plan from a mass assignment.

    assignments maps every reachable node to its replica mass, exactly
    what the divide pass of solve_fast produces. Runs of nodes that each
    have a single unfilled child collapse into one chain plan node; the
    entry roots themselves are never absorbed into a chain.
    """
    stats = subtree_stats(model)
    labels: dict[str | None, LabelResult] = {}
    for u, m in assignments.items():
        if u not in model.nodes:
            raise ModelError(f"assignment names unknown node {u!r}")
        kids = model.children[u]
        if kids and 0 < m < stats.leaf_count[u]:
            labels[u] = label_children([stats.leaf_count[c] for c in kids], m)
    for r in model.roots:
        if r not in assignments:
            raise ModelError(f"assignment is missing root {r!r}")
    return _build_plan(model, stats, assignments, labels)


def _combine_plan(
    model: FailureModel,
    stats: SubtreeStats,
    rho: int,
    labels: dict[str | None, LabelResult],
    plan: Plan,
) -> tuple[list[int], list[str]]:
    virt_label = labels.get(None)

    # Decide, top down, which plan nodes must also price one extra
    # replica. A branch needs its children priced whenever it moves any
    # extra down (heavy_count > 0) or is itself being priced.
    need: dict[int, bool] = {}
    root_flag: dict[str, bool] = {r: False for r in model.roots}
    if virt_label is not None and virt_label.heavy_count >= 1:
        for i in virt_label.unfilled:
            root_flag[model.roots[i]] = True
    walk: list[PlanNode] = []
    for pn in plan.roots:
        need[id(pn)] = root_flag[pn.node]
        walk.append(pn)
    order: list[PlanNode] = []
    while walk:
        pn = walk.pop()
        order.append(pn)
        if pn.kind == "branch":
            child_need = need[id(pn)] or pn.label.heavy_count >= 1
            for cp in pn.children:
                need[id(cp)] = child_need
                walk.append(cp)
        elif pn.kind == "chain":
            cp = pn.children[0]
            need[id(cp)] = need[id(pn)]
            walk.append(cp)

    # Bottom-up window evaluation. A window is (start, light, heavy):
    # two aligned slices of the aggregate covering indices start..rho.
    windows: dict[int, tuple[int, list[int], list[int] | None]] = {}
    choices: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
    for pn in reversed(order):
        nh = need[id(pn)]
        if pn.kind == "zero":
            s = rho - 1 if nh else rho
            light = [0] * (rho - s + 1)
            light[rho - s] = stats.node_count[pn.node]
            heavy = None
            if nh:
                path_len = stats.min_rel_depth[pn.node] + 1
                heavy = [0] * (rho - s + 1)
                heavy[rho - 1 - s] = path_len
                heavy[rho - s] = stats.node_count[pn.node] - path_len
            windows[id(pn)] = (s, light, heavy)
            continue
        if pn.kind == "filled":
            s = rho - stats.leaf_count[pn.node]
            light = [0] * (rho - s + 1)
            _fill(light, rho - s, model, stats, [pn.node])
            windows[id(pn)] = (s, light, None)
            continue
        m = pn.mass
        s = rho - m - 1 if nh else rho - m
        size = rho - s + 1
        # Filled children count the same in both windows.
        light = [0] * size
        _fill(light, rho - s, model, stats, pn.filled_children + pn.chain_filled)
        heavy = light.copy() if nh else None
        if pn.kind == "chain":
            for v, mv in zip(pn.chain, pn.chain_masses):
                light[(rho - mv) - s] += 1
                if nh:
                    heavy[(rho - mv - 1) - s] += 1
            es, el, eh = windows[id(pn.children[0])]
            off = es - s
            for j, v in enumerate(el):
                light[off + j] += v
            if nh:
                for j, v in enumerate(eh):
                    heavy[off + j] += v
            windows[id(pn)] = (s, light, heavy)
            continue
        # branch
        light[(rho - m) - s] += 1
        if nh:
            heavy[(rho - m - 1) - s] += 1
        beta = pn.label.heavy_count
        kid_windows = [windows[id(cp)] for cp in pn.children]
        light_sel: set[int] = set()
        heavy_sel: set[int] = set()
        if beta >= 1 or nh:
            pairs = [
                ChildValuePair(light=tuple(w[1]), heavy=tuple(w[2]))
                for w in kid_windows
            ]
            if beta >= 1:
                light_sel = select_heavy(pairs, beta)
            if nh:
                heavy_sel = select_heavy(pairs, beta + 1)
        for i, (cs, cl, ch) in enumerate(kid_windows):
            off = cs - s
            pick = ch if i in light_sel else cl
            for j, v in enumerate(pick):
                light[off + j] += v
            if nh:
                pick = ch if i in heavy_sel else cl
                for j, v in enumerate(pick):
                    heavy[off + j] += v
        windows[id(pn)] = (s, light, heavy)
        choices[id(pn)] = (frozenset(light_sel), frozenset(heavy_sel))

    # Assemble the final aggregate and reconstruction seeds.
    entries = [0] * (rho + 1)
    seeds: list[tuple[PlanNode, bool]] = []
    if virt_label is None:
        s, light, _ = windows[id(plan.roots[0])]
        for j, v in enumerate(light):
            entries[s + j] += v
        seeds.append((plan.roots[0], False))
    else:
        beta = virt_label.heavy_count
        unf = sorted(virt_label.unfilled)
        unf_plans = [plan.roots[i] for i in unf]
        vsel: set[int] = set()
        if beta >= 1:
            pairs = [
                ChildValuePair(
                    light=tuple(windows[id(p)][1]), heavy=tuple(windows[id(p)][2])
                )
                for p in unf_plans
            ]
            vsel = select_heavy(pairs, beta)
        for i in sorted(virt_label.filled):
            p = plan.roots[i]
            s, light, _ = windows[id(p)]
            for j, v in enumerate(light):
                entries[s + j] += v
            seeds.append((p, False))
        for pos, p in enumerate(unf_plans):
            s, light, heavy = windows[id(p)]
            pick = heavy if pos in vsel else light
            for j, v in enumerate(pick):
                entries[s + j] += v
            seeds.append((p, pos in vsel))

    out: list[str] = []
    rstack = seeds
    while rstack:
        pn, hv = rstack.pop()
        if pn.kind == "zero":
            if hv:
                out.append(stats.min_depth_leaf[pn.node])
        elif pn.kind == "filled":
            out.extend(_leaves_below(model, [pn.node]))
        elif pn.kind == "chain":
            out.extend(_leaves_below(model, pn.chain_filled))
            rstack.append((pn.children[0], hv))
        else:
            out.extend(_leaves_below(model, pn.filled_children))
            lsel, hsel = choices[id(pn)]
            sel = hsel if hv else lsel
            for i, cp in enumerate(pn.children):
                rstack.append((cp, i in sel))
    return entries, out


def solve_fast(model: FailureModel, rho: int) -> tuple[FailureAggregate, Placement]:
    """Near-linear solver: label once per node, contract chains, then
    combine short suffix windows bottom up."""
    _check_rho(model, rho)
    stats = subtree_stats(model)
    masses, labels = _divide(model, stats, rho)
    plan = _build_plan(model, stats, masses, labels)
    entries, out = _combine_plan(model, stats, rho, labels, plan)
    return FailureAggregate(entries=tuple(entries), rho=rho), Placement(leaves=frozenset(out))


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
