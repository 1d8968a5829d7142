"""Single-block placement solvers.

Three implementations of the same optimization, used to cross-check one
another. All three return a lexicographically minimal aggregate and one
placement achieving it.

solve_basic runs the paper's recurrence on (node, replica count)
literally: one rule for every state, with no closed form for empty or
filled subtrees, so every node is visited. It keeps one histogram of
m + 1 slots per state asked for m replicas, and only until the state's
parent has read it.

solve_fast makes two passes over the nodes. The first runs top down
and labels each node that takes some but not all of its leaves'
replicas, once: its children are filled or share the rest, and each
unfilled child is flagged when it must also be priced at one replica
more; it leaves one record per labeled node. The second runs bottom up
and keeps, per labeled node, a light and a heavy histogram of failure
numbers. A node with a single non-empty unfilled child extends that
child's histograms in place by the filled children's mass, so a run of
such nodes costs no more than its drop in mass. Any other node builds
fresh histograms and picks the children that take the extra replicas,
at its mass and at one replica more; ties go by position. A node
with fewer replicas than children leaves every child empty, and then
neither pass copies its child list: the top-down pass records the
node's offsets into the tree's child array instead, without reading
the children's capacities, and the children rank by the depth of
their shallowest leaf (one replica there fails just that path), whose
minimum is the node's own summary. The bottom-up pass reads the
children's depths into one list in chunks, the first of k children
for the k picks (all of them when there are at most 2k) and each
later one as long as the list, until k children sit at that minimum;
one sum per histogram, the picked paths' length, prices them all.
Only when fewer than k children sit there is the list read to the
end, each depth once, and then counted per depth and walked in order
to the one to cut at (_shallowest). Other children rank by their step
from light to heavy, by a sort (_cheapest).

The sorts keep the paper's O(n + rho log rho). A node whose children
are sorted (_cheapest, and label_children's water level when some
child fills) gives every child a replica. Nodes with two or more such
children branch inside the tree spanned by the rho placed leaves, so
they sort at most 2 rho children in all. _shallowest sorts only
distinct depths, and D of them need at least D(D+1)/2 nodes below
that no other node's sort sees, so those sorts are O(n). A node left
with empty children reads at most twice the prefix of its children
that ends at its k-th shallowest one, and at most its fan-out; no node
below it is labeled, so these reads stay O(n). On a star they read
O(rho) child and summary entries, not one per leaf. solve_basic shares only
label_children with solve_fast and picks with its own code
(select_heavy), so the two check one another. solve_greedy grows the
placement one replica at a time, each on the leaf whose root path has
the smallest failure numbers.

Both recursive solvers start at the tree's virtual root, whose children
are the model's roots and which adds no entry of its own, so a forest
takes the same path as a tree.

A subtree can host at most one replica per leaf, so child "capacities"
inside the solvers are subtree leaf counts. A child is filled when its
subtree holds as many replicas as it has leaves.

The solvers work on the compiled tree (model.Tree) that parsing built.
solve_fast reads its subtree summaries: per node the subtree's leaf
count (its capacity here) and its shallowest leaf with that leaf's
depth below the node (where an empty subtree takes one extra replica
most cheaply). solve_basic reads only the leaf count. The tree
computes them in one pass the first time a solver reads one, so only
the first solve on a model prepares anything. In solve_fast, one walk
of a filled subtree gives both its aggregate and its leaves, and
failure number 0 is counted once, at the root, as the nodes not
counted elsewhere. Ids appear only in the returned placement.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from .errors import InfeasibleError, ModelError
from .metrics import FailureAggregate, Placement, _check_rho
# postorder is not called here, but bench/tracer.py wraps this binding.
from .model import FailureModel, Tree, postorder  # noqa: F401


# (filled, unfilled, remaining, heavy_count): see label_children.
Label = tuple[tuple[int, ...], tuple[int, ...], int, int]


def label_children(capacities: list[int] | tuple[int, ...], r: int) -> Label:
    """Split r replicas over children so no unfilled child ends more
    than one replica behind another child.

    Returns (filled, unfilled, remaining, heavy_count). filled and
    unfilled are child positions, each in child order. A filled child
    takes its whole capacity; the unfilled ones share remaining
    replicas, remaining // len(unfilled) each, and heavy_count of them
    take one more, chosen later by value.

    The split is the water-filling one: a child fills exactly when its
    capacity is at most the common level the rest settle at, so filled
    capacities never exceed the base share of the unfilled children.
    Nothing fills exactly when r is below the smallest capacity times
    the number of children; that case, which covers most wide nodes, is
    answered from min and sum alone. Otherwise the level is found by one
    scan of the sorted capacities, smallest first, which costs
    O(n log n) for n children. That stays within the paper's
    O(n + rho log rho): past the early return every child takes at
    least one replica, so n <= r. The nodes solve_fast labels with
    r >= n branch inside a tree of at most rho leaves, each holding a
    replica, so their fan-outs of two or more sum to at most 2 rho and
    these sorts cost O(rho log rho) per solve.
    """
    caps = list(capacities)
    if not caps:
        raise ModelError("label_children needs at least one child")
    low = min(caps)
    if low < 1:
        raise ModelError("capacities must be positive")
    total = sum(caps)
    if not 0 <= r <= total:
        raise InfeasibleError(f"cannot place {r} replicas into capacity {total}")

    # If any child fills, every child holds at least low replicas, so
    # r >= low * n; if r >= low * n, the base share is at least low, so
    # the smallest child fills. Under most wide nodes nothing does.
    n = len(caps)
    if r < low * n:
        return (), tuple(range(n)), r, r % n

    # Children with capacity at most level fill: the next smallest child
    # fills when the s replicas left for the k children not yet filled
    # give each of them its capacity.
    level, s, k = 0, r, n
    for c in sorted(caps):
        if c * k > s:
            break
        level, s, k = c, s - c, k - 1

    # level >= low: the smallest child fills, as r >= low * n.
    filled = tuple([i for i, c in enumerate(caps) if c <= level])
    unfilled = tuple([i for i, c in enumerate(caps) if c > level])
    return filled, unfilled, s, s % k if k else 0


def select_heavy(pairs: list[tuple[tuple[int, ...], tuple[int, ...]]], beta: int) -> set[int]:
    """Pick the beta children whose step from light to heavy is
    lexicographically cheapest (ties broken by child position). Each
    pair holds a child's best histograms by failure number at its base
    mass (light) and at one replica more (heavy), both listed from the
    highest failure number down and of equal length.

    solve_basic's picker, kept apart from solve_fast's so that the two
    check one another. It sorts the keys, O(n log n) for n children,
    which the reference solver can afford.
    """
    if beta < 0 or beta > len(pairs):
        raise ValueError(f"cannot pick {beta} of {len(pairs)} children")
    if beta == 0:
        return set()
    keys = []
    for i, (light, heavy) in enumerate(pairs):
        if len(light) != len(heavy):
            raise ValueError("light and heavy differ in length")
        diff = tuple(h - l for l, h in zip(light, heavy))
        keys.append((diff, i))
    keys.sort()
    return {i for _, i in keys[:beta]}


def _fill(hists: Sequence[list[int]], tree: Tree, filled: Sequence[int], out: list[int]) -> None:
    """Count the filled subtrees, one replica on every leaf, into each
    histogram by failure number, and add their leaves to out: every
    node w in them loses all leaf_count[w] replicas below it."""
    leaf_count, capacity = tree.leaf_count, tree.capacity
    below = tree.walk(filled)
    out.extend([w for w in below if capacity[w]])
    numbers = [leaf_count[w] for w in below]
    for hist in hists:
        for f in numbers:
            hist[f] += 1


def _placement(tree: Tree, leaves: Iterable[int]) -> Placement:
    ids = tree.ids
    return Placement(leaves=frozenset([ids[u] for u in leaves]))


def solve_basic(model: FailureModel, rho: int) -> tuple[FailureAggregate, Placement]:
    """Reference solver: the paper's recurrence on (node, replica count)
    states, run literally from the virtual root with all rho replicas.

    One rule covers every state, leaves and empty or filled subtrees
    included. A node asked for m replicas labels its children with
    label_children: a filled child takes all its leaves, an unfilled
    one the base share, and beta of the unfilled ones one more, picked
    by select_heavy. The state's value is its subtree's histogram by
    failure number, with m + 1 slots: 1 at slot m for the node itself
    (not for the virtual root), plus each child's histogram at the
    count that child takes.

    Three passes run over the nodes: parents first, then children
    first, then parents first again. The first collects the counts each
    node is asked for. The second values every state, keeping a
    subtree's histograms only until its parent has read them. The third
    follows the counts each state gave its children from (root, rho); a
    leaf asked for 1 holds a replica. Every node is visited, so the cost
    is O(n) states plus one m + 1 histogram per state. Of the subtree
    summaries the solver reads only leaf_count, and it shares no closed
    form with solve_fast.
    """
    tree = model.tree
    _check_rho(tree, rho)
    top, leaf_count = tree.root, tree.leaf_count
    order = [top, *reversed(tree.bottom_up)]
    # Per node, each count it is asked for maps to that state's label
    # after the first pass and to the counts it gives its children after
    # the second.
    states: list[dict] = [{} for _ in order]
    states[top][rho] = None

    for u in order:
        kids = tree.children(u)
        caps = [leaf_count[c] for c in kids]
        asked = states[u]
        for m in asked:
            label = label_children(caps, m) if kids else ((), (), 0, 0)
            filled, unf, remaining, beta = label
            for i in filled:
                states[kids[i]][caps[i]] = None
            for i in unf:
                states[kids[i]][remaining // len(unf)] = None
                if beta:
                    states[kids[i]][remaining // len(unf) + 1] = None
            asked[m] = label

    # The histograms of each state of the nodes whose parent is to come.
    hists: dict[int, dict[int, list[int]]] = {}
    for u in reversed(order):
        kids = tree.children(u)
        below = [hists.pop(c) for c in kids]
        mine = hists[u] = {}
        for m, (_, unf, remaining, beta) in states[u].items():
            counts = [leaf_count[c] for c in kids]
            for i in unf:
                counts[i] = remaining // len(unf)
            if beta:
                # Each unfilled child's light and heavy histograms,
                # listed from the highest failure number down.
                pairs = [((below[i][counts[i]] + [0])[::-1], below[i][counts[i] + 1][::-1]) for i in unf]
                for j in select_heavy(pairs, beta):
                    counts[unf[j]] += 1
            hist = [0] * (m + 1)
            if u != top:
                hist[m] = 1
            for h, k in zip(below, counts):
                for f, v in enumerate(h[k]):
                    hist[f] += v
            mine[m] = hist
            states[u][m] = counts

    take = [0] * len(order)
    take[top] = rho
    for u in order:
        for c, k in zip(tree.children(u), states[u][take[u]]):
            take[c] = k
    leaves = [u for u in tree.bottom_up if take[u] and tree.capacity[u]]
    entries = tuple(reversed(hists[top][rho]))
    return FailureAggregate(entries=entries, rho=rho), _placement(tree, leaves)


# A labeled node: (node, mass, need, remaining, heavy_count, unfilled
# children, filled children), the middle two as label_children returns
# them. need is set when the node is also priced at one replica more.
# A node with fewer replicas than children gives its unfilled children
# as their positions in tree.kids, a range, and no filled ones.
Record = tuple[int, int, bool, int, int, Sequence[int], list[int]]


def _divide(tree: Tree, rho: int) -> list[Record]:
    """Top-down pass from the virtual root, which holds all rho
    replicas. Labels every node that takes some but not all of its
    leaves' replicas, once, and hands each unfilled child its light
    mass and whether it must also be priced at one replica more: when
    its parent is, or when its parent moves extra replicas down. Returns
    one record per labeled node, parents first.

    A node with fewer replicas m than children fills none of them, as
    each holds a leaf, and shares all m at base share 0, m of them
    taking one more: its record is (u, m, need, m, m, range(first[u],
    first[u + 1]), []), its children's offsets in tree.kids, written
    without reading or copying the children."""
    first, kids, leaf_count = tree.first, tree.kids, tree.leaf_count
    records: list[Record] = []
    pending: list[tuple[int, int, bool]] = [(tree.root, rho, False)]
    while pending:
        u, m, nh = pending.pop()
        a, b = first[u], first[u + 1]
        if m < b - a:
            # label_children's early return. Its checks, kept for
            # solve_basic and the tests, cannot fail here: every child
            # holds a leaf, and 1 <= m < b - a <= their leaves.
            records.append((u, m, nh, m, m, range(a, b), []))
            continue
        children = kids[a:b]
        filled, unfilled, remaining, beta = label_children(list(map(leaf_count.__getitem__, children)), m)
        unf = children if len(unfilled) == b - a else [children[i] for i in unfilled]
        records.append((u, m, nh, remaining, beta, unf, [children[i] for i in filled]))
        # Unfilled children that stay empty are priced in closed form by
        # the bottom-up pass. The others have more leaves than their
        # share, so they have children to label.
        if unf and remaining >= len(unf):
            pending.extend((c, remaining // len(unf), nh or beta >= 1) for c in unf)
    return records


def _cheapest(keys: list, beta: int, heavy: bool) -> tuple[set[int], set[int]]:
    """Positions of the beta smallest keys and, when heavy, of the
    beta + 1 smallest. Each key is a (step, position) pair, so the keys
    are distinct and a sort ranks them. It is called only where every
    child takes a replica (remaining >= len(unf) in solve_fast), so its
    O(n log n) is paid for as label_children's sort is."""
    order = [i for _, i in sorted(keys)]
    return set(order[:beta]), set(order[: beta + 1]) if heavy else set()


def _shallowest(ds: list[int], beta: int, heavy: bool) -> tuple[list[int], list[int]]:
    """Positions of the beta smallest depths and, when heavy, of the
    beta + 1 smallest, ties by position. At least one is picked: beta
    >= 1 or heavy. One pass counts the positions per depth, and the
    depths are walked in order to the one where the count reaches k
    (cut); the picks are the positions shallower than cut, then the
    first ones at cut. So the beta smallest are the beta + 1 smallest
    but the last position taken at cut.

    solve_fast calls it only when the shallowest depth holds fewer than
    k positions. Only the distinct depths are sorted. The empty children
    showing D distinct shallowest-leaf depths hold at least
    1 + 2 + ... + D nodes, and no node below them is labeled, so these
    subtrees are disjoint across calls and the sorts cost O(n) in all."""
    k = beta + 1 if heavy else beta
    counts: dict[int, int] = {}
    for d in ds:
        counts[d] = counts.get(d, 0) + 1
    upto = 0
    for cut in sorted(counts):
        upto += counts[cut]
        if upto >= k:
            break
    picked = [i for i, d in enumerate(ds) if d < cut]
    i = -1
    while len(picked) < k:
        i = ds.index(cut, i + 1)
        picked.append(i)
    return (picked[:-1], picked) if heavy else (picked, [])


def solve_fast(model: FailureModel, rho: int) -> tuple[FailureAggregate, Placement]:
    """Near-linear solver: label each node once top down, then combine
    failure-number histograms bottom up. A node with fewer replicas
    than children reads at most twice the prefix of its children that
    ends at its k-th shallowest one (k picks: its heavy count, plus one
    when it is also priced heavy), each child's depth at most once."""
    tree = model.tree
    _check_rho(tree, rho)
    top, kids = tree.root, tree.kids
    depth = tree.min_rel_depth
    records = _divide(tree, rho)

    # Bottom-up pass. Per labeled node, hists holds the histogram by
    # failure number of its subtree's best aggregate at its mass
    # (light) and, when needed, at one replica more (heavy); both then
    # have mass + 2 slots so that siblings compare slot for slot. Slot 0
    # stays 0 until the root: light and heavy count the same nodes, so
    # two steps that agree above slot 0 agree at it too. picks holds
    # the positions among its unfilled children that take the extra
    # replicas, light and heavy; out collects the filled leaves.
    hists: dict[int, tuple[list[int], list[int] | None]] = {}
    out: list[int] = []
    picks: dict[int, tuple[Collection[int], Collection[int]]] = {}
    for u, m, nh, remaining, beta, unf, filled in reversed(records):
        size = m + 2 if nh else m + 1
        if len(unf) == 1 and remaining:
            # The only unfilled child takes every extra replica, so it is
            # picked exactly when the node is heavy, and its lists are
            # extended in place by the filled children's mass.
            light, heavy = hists.pop(unf[0])
            picks[u] = (), (0,)
            light.extend([0] * (size - len(light)))
            if nh:
                heavy.extend([0] * (size - len(heavy)))
        elif remaining < len(unf):
            # Every unfilled child is empty: all its nodes sit at failure
            # number 0, left to the root, but the path to its shallowest
            # leaf, which moves to 1 when the child takes an extra
            # replica. So the shallowest children are the cheapest, ties
            # by position. _divide records this case, m < len(unf), with
            # the children as a range of positions in tree.kids and none
            # filled. The node's own summary gives the shallowest depth,
            # cut. The depths are read in chunks, first k children (all
            # of them when there are at most 2k), then as many more as
            # have been read, until k sit at cut: at most twice the
            # prefix that ends at the k-th. When fewer than k sit at cut,
            # every depth has been read, once, and they are ranked.
            k = beta + 1 if nh else beta
            cut = depth[u] - 1
            a, b = unf.start, unf.stop
            ds = list(map(depth.__getitem__, kids[a : b if b - a <= 2 * k else a + k]))
            hits = ds.count(cut)
            while hits < k and a + len(ds) < b:
                more = list(map(depth.__getitem__, kids[a + len(ds) : min(b, a + 2 * len(ds))]))
                hits += more.count(cut)
                ds += more
            if hits >= k:
                sel, i = [], -1
                while len(sel) < k:
                    i = ds.index(cut, i + 1)
                    sel.append(i)
                steps = [cut + 1] * k
                picks[u] = (sel[:-1], sel) if nh else (sel, [])
            else:
                picks[u] = _shallowest(ds, beta, nh)
                steps = [ds[i] + 1 for i in picks[u][nh]]
            light = [0] * size
            light[1] = sum(steps[:beta])
            heavy = None
            if nh:
                heavy = [0] * size
                heavy[1] = sum(steps)
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
        if filled:
            _fill([light, heavy] if nh else [light], tree, filled, out)
        if u != top:
            light[m] += 1
            if nh:
                heavy[m + 1] += 1
        hists[u] = (light, heavy)

    # Witness, parents first: the heavy flag goes down to the children
    # picked for it; an empty child picked contributes its shallowest
    # leaf.
    flagged: set[int] = set()
    best = tree.min_depth_leaf
    for u, _, _, remaining, _, unf, _ in records:
        sel = picks[u][u in flagged]
        if remaining < len(unf):
            out.extend(map(best.__getitem__, map(kids.__getitem__, map(unf.__getitem__, sel))))
        elif sel:
            flagged.update(map(unf.__getitem__, sel))

    root = hists[top][0]
    root[0] = len(tree.ids) - sum(root)
    return FailureAggregate(entries=tuple(reversed(root)), rho=rho), _placement(tree, out)


def _leaves_by_id(tree: Tree) -> list[int]:
    """The leaves' node indices, sorted by id: the order in which
    solve_greedy breaks ties and the oracles enumerate subsets."""
    return sorted((u for u, c in enumerate(tree.capacity) if c), key=tree.ids.__getitem__)


def solve_greedy(model: FailureModel, rho: int) -> tuple[FailureAggregate, Placement]:
    """Place one replica at a time, each time on the leaf whose root
    path has the smallest census: its failure numbers, sorted high to
    low, compared lexicographically (ties broken by smallest leaf id).
    Adding a leaf moves only its path up one failure number, so that
    leaf gives the lexicographically smallest next aggregate. A node's
    subtree holds its child's, so its failure number is never below the
    child's: the census is the path read from the root down. Each
    replica still reads every free leaf's path, O(rho * leaves * depth)
    in all."""
    tree = model.tree
    _check_rho(tree, rho)
    up = tree.up
    free = _leaves_by_id(tree)
    fn = [0] * len(tree.ids)
    chosen: list[int] = []
    for _ in range(rho):
        leaf = min(free, key=lambda u: [fn[v] for v in up(u)][::-1])
        free.remove(leaf)
        chosen.append(leaf)
        for v in up(leaf):
            fn[v] += 1

    entries = [0] * (rho + 1)
    for f in fn:
        entries[rho - f] += 1
    return FailureAggregate(entries=tuple(entries), rho=rho), _placement(tree, chosen)
