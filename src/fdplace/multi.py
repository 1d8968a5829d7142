"""Multi-block placement with a bounded signature skew.

Block-size censuses (signatures) index sizes from the girth down, the
same way aggregates index failure counts. The solver restricts every
subtree's census to a window of delta + 1 adjacent size classes and
solves in two passes. _natural_skew is the one check of a requested
size list, which solve_multi, oracle_multi and target_signature share,
and target_signature the one map from sizes to the target census.

Up, a dynamic program over (node, census) states merges children one
at a time. A merge looks only at the (left, right) census pairs present
in the two child tables: the merge kernel's censuses enumerates the
cell layouts with those margins once per pair. Only this enumeration
packs censuses and cuts: it skips a pair with no layout, cuts a
partial layout once a cell lies more than delta above its lowest
merged class (one-sided, as the right census already fits the
window), and carries only the merged census, packed into one int.
The kernel keeps the ids of the merged censuses that fit the target
and caches them for the rest of the solve, once for both orientations:
a layout transposed is one of (right, left) with the same merged census.
Aggregates are packed into single ints, so a candidate costs one
addition and one comparison. A merge keeps only the least value of
each census, no choice. A node's table leaves out its own census
entry: its parent adds it once, and the virtual root has no parent.
Tables are interned, and merges memoized on the two table ids.

A census fits the target when, with both sorted largest first, each of
its parts (the replicas it holds of one block) is at most the matching
requested size. A merge pairs parts one to one and only adds to them,
so an ancestor's sorted parts dominate its descendants': a census that
does not fit never grows into the target, and every census that fits
is made only of censuses that fit. Dropping the rest therefore changes
no kept value and no recovered choice.

Down, one walk from the root hands each child the block slots it
fills, by size class; each leaf joins the blocks in its one-replica
class. It enters no subtree whose census is the empty one, so it
visits only the root paths of the witness's leaves. At each node it
folds the children's tables again, every merge a memo hit, and
recovers each choice: the first (left, right) pair, in the merge's
scan order, that gives the census its least value. It splits by that
pair's support, the first, so smallest, layout that gives the census.
Only the picked pairs have their layouts enumerated, each once per
solve, so recovery enumerates pairs only on the witness's root paths.
layouts enumerates plainly, with no cut: every layout with the pair's
margins in lexicographic order, its merged census tallied and the
window tested once the layout is finished.

build_phi tabulates layouts, without a target, over every census pair,
for checking the kernel against brute force.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from itertools import chain, combinations_with_replacement
from operator import add

from .errors import InfeasibleError, SkewOverrideError
from .metrics import FailureAggregate, MultiPlacement, _check_int
# postorder and subtree_stats are not called here, but bench/tracer.py
# wraps these bindings.
from .model import FailureModel, Tree, postorder, subtree_stats  # noqa: F401
from .value import Value

Vector = tuple[int, ...]
Support = tuple[tuple[int, int, int], ...]


class MergeKernel:
    """Census splits of m blocks at girth rho under the skew bound
    delta, enumerated per (left, right) census pair on first use and,
    given the requested sizes, kept only where they fit that target.

    Censuses are interned by their packed form, the vector as one int
    with `bits` bits a digit, entry 0 most significant, so int order is
    tuple order: ids maps it to an id, which indexes census (the vector)
    and packed. A cell (i, j, count) of a layout combines count left
    parts holding rho - i replicas with right parts holding rho - j.
    """

    def __init__(self, rho: int, delta: int, bits: int, sizes: Vector = ()) -> None:
        self.rho = rho
        self.delta = delta
        self.bits = bits
        # The target's parts, largest first; with no sizes every census fits.
        self.bound = tuple(sorted(sizes, reverse=True))
        self.limit = sum(sizes)
        self.ids: dict[int, int] = {}
        self.census: list[Vector] = []
        self.packed: list[int] = []
        # parts[id]: the replicas of each block, largest first.
        self.parts: list[Vector] = []
        # total[id]: the replicas of all blocks; fits[id]: whether each
        # part is at most the matching part of the target.
        self.total: list[int] = []
        self.fits: list[bool] = []
        # merge_rows[left][right]: the cached result of merges(left, right),
        # the same list as merge_rows[right][left].
        self.merge_rows: list[dict[int, list[int]]] = []

    def intern(self, vec: Vector) -> int:
        key = self.pack(vec)
        cid = self.ids.get(key)
        if cid is None:
            cid = self.ids[key] = len(self.census)
            self.census.append(vec)
            self.packed.append(key)
            parts = tuple(self.rho - k for k, v in enumerate(vec) for _ in range(v))
            self.parts.append(parts)
            self.total.append(sum(parts))
            self.fits.append(all(p <= s for p, s in zip(parts, self.bound)))
            self.merge_rows.append({})
        return cid

    def pack(self, vec: Vector) -> int:
        out = 0
        for v in vec:
            out = (out << self.bits) | v
        return out

    def unpack(self, value: int) -> Vector:
        mask = (1 << self.bits) - 1
        return tuple(
            (value >> (self.bits * (self.rho - k))) & mask for k in range(self.rho + 1)
        )

    def layouts(self, left: int, right: int) -> list[tuple[Support, Vector]]:
        """Every cell layout, cells in (i, j) order, whose rows sum to
        census left, whose columns sum to census right and whose merged
        census lies in the window, with that census, smallest first.
        A plain enumeration that shares no cut with censuses: it places
        each row i of left from column rho - i upward, trying columns
        and cell counts in ascending order, and tests the window on each
        finished layout. The walk down reads the layouts of the pairs it
        picks, and build_phi those of every pair."""
        rho, delta = self.rho, self.delta
        rows = [(i, c) for i, c in enumerate(self.census[left]) if c]
        room = list(self.census[right])
        cells: list[tuple[int, int, int]] = []
        out: list[tuple[Support, Vector]] = []

        def fill(r: int, start: int, need: int) -> None:
            # Place `need` more blocks of row r in columns start and up.
            if need == 0:
                if r + 1 < len(rows):
                    i, count = rows[r + 1]
                    fill(r + 1, rho - i, count)
                    return
                # Both censuses hold m blocks, so no room is left.
                merged = [0] * (rho + 1)
                for i, j, v in cells:
                    merged[i + j - rho] += v
                classes = [c for c, v in enumerate(merged) if v]
                if classes[-1] - classes[0] <= delta:
                    out.append((tuple(cells), tuple(merged)))
                return
            i = rows[r][0]
            for j in range(start, rho + 1):
                for v in range(1, min(need, room[j]) + 1):
                    room[j] -= v
                    cells.append((i, j, v))
                    fill(r, j + 1, need - v)
                    cells.pop()
                    room[j] += v

        i, count = rows[0]
        fill(0, rho - i, count)
        return out

    def censuses(self, left: int, right: int) -> set[int]:
        """The packed merged census of every layout that layouts(left,
        right) gives; the last row takes the room left. Census right
        must lie in a window of delta + 1 classes, as every leaf, merged
        and _signature_domain census does. Rows are placed in ascending i,
        so a cell (i, j) below every class placed lies (i'' - i) +
        (j'' - j) <= delta under the highest, at (i'', j''): the window
        only breaks from above, so a partial layout is cut once a cell
        lies more than delta above the lowest class placed."""
        rho, delta, bits = self.rho, self.delta, self.bits
        out: set[int] = set()
        # Pairing the largest left parts with the smallest right parts
        # fits under rho exactly when some layout exists.
        if max(map(add, self.parts[left], reversed(self.parts[right]))) > rho:
            return out
        # rows: the (i, count) of left's nonzero classes; room: right, as
        # a list to place from; cols: right's nonzero classes; first[r]:
        # the first of cols that row r may use (i + j >= rho).
        rows = [(i, c) for i, c in enumerate(self.census[left]) if c]
        room = list(self.census[right])
        cols = [j for j, c in enumerate(room) if c]
        first = [bisect_left(cols, rho - i) for i, _ in rows]
        last = len(rows) - 1

        def fill(r: int, k: int, need: int, lo: int, acc: int) -> None:
            # Place `need` more blocks of row r in cols[k:]. lo is the
            # lowest merged class placed so far, and acc the merged
            # census, packed (class c at bit bits * (rho - c)).
            i = rows[r][0]
            if r == last:
                # The last row takes whatever room is left: the pairing
                # test leaves none it cannot reach.
                rest = [j for j in cols[k:] if room[j]]
                low = i + rest[0] - rho
                if i + rest[-1] - rho - (low if low < lo else lo) <= delta:
                    for j in rest:
                        acc += room[j] << bits * (2 * rho - i - j)
                    out.add(acc)
                return
            if need == 0:
                fill(r + 1, first[r + 1], rows[r + 1][1], lo, acc)
                return
            for n in range(k, len(cols)):
                j = cols[n]
                c = i + j - rho
                if c - lo > delta:
                    # Later columns give higher classes still.
                    break
                low = c if c < lo else lo
                digit = bits * (rho - c)
                for v in range(1, min(need, room[j]) + 1):
                    room[j] -= v
                    fill(r, n + 1, need - v, low, acc + (v << digit))
                    room[j] += v

        # No cells yet: lo = rho, the highest class, lets the first cell set it.
        fill(0, first[0], rows[0][1], rho, 0)
        return out

    def merges(self, left: int, right: int) -> list[int]:
        """The ids of the censuses in the window that fit the target and
        that left and right merge into; cached in merge_rows. A census
        already interned costs one lookup of its packed form. Cell (i, j,
        v) transposed to (j, i, v) swaps the margins and keeps class
        i + j - rho, so (right, left) shares the list; layouts, whose cell
        order the walk down reads, does not."""
        out: list[int] = []
        if not self.bound or self.total[left] + self.total[right] <= self.limit:
            ids, fits = self.ids, self.fits
            for key in self.censuses(left, right):
                sid = ids.get(key)
                if sid is None:
                    sid = self.intern(self.unpack(key))
                if fits[sid]:
                    out.append(sid)
        self.merge_rows[left][right] = self.merge_rows[right][left] = out
        return out


class PhiTable(Value):
    """All ways to split an m-block census into two censuses whose
    merge gives it back, with every census obeying the skew bound.

    pairs maps a census to its set of (left, right) splits. supports
    maps (census, left, right) to the set of cell layouts (i, j, count)
    realizing that split: count blocks combine a size rho-i left part
    with a size rho-j right part.
    """

    __slots__ = ("m", "rho", "delta", "pairs", "supports")

    m: int
    rho: int
    delta: int
    pairs: dict[Vector, set[tuple[Vector, Vector]]]
    supports: dict[tuple[Vector, Vector, Vector], set[Support]]


def build_phi(m: int, rho: int, delta: int) -> PhiTable:
    """The merge kernel tabulated over every pair of window censuses."""
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if not 1 <= delta <= rho:
        raise ValueError(f"delta must be in [1, {rho}], got {delta}")
    kernel = MergeKernel(rho, delta, m.bit_length())
    domain = [kernel.intern(vec) for vec in _signature_domain(m, rho, delta)]
    pairs: dict[Vector, set[tuple[Vector, Vector]]] = defaultdict(set)
    supports: dict[tuple[Vector, Vector, Vector], set[Support]] = defaultdict(set)
    for left in domain:
        for right in domain:
            split = (kernel.census[left], kernel.census[right])
            for layout, sig in kernel.layouts(left, right):
                pairs[sig].add(split)
                supports[(sig, *split)].add(layout)
    return PhiTable(m=m, rho=rho, delta=delta, pairs=dict(pairs), supports=dict(supports))


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


def target_signature(sizes: list[int] | tuple[int, ...]) -> tuple[Vector, int]:
    """The census of the requested block sizes, entry k counting the
    blocks of size max(sizes) - k, and the natural skew bound: the size
    spread, but at least 1. The census has max(sizes) + 1 entries, so
    solve_multi asks for it only once the sizes fit the model."""
    sizes = tuple(sizes)
    delta = _natural_skew(sizes)
    rho = max(sizes)
    counts = Counter(sizes)
    return tuple(counts[rho - k] for k in range(rho + 1)), delta


def _signature_domain(m: int, rho: int, delta: int) -> list[Vector]:
    """Every census of m blocks over sizes 0..rho whose support spans at
    most delta + 1 adjacent classes, leading class first."""
    return [
        tuple(map(classes.count, range(rho + 1)))
        for classes in combinations_with_replacement(range(rho + 1), m)
        if classes[-1] - classes[0] <= delta
    ]


def solve_multi(
    model: FailureModel,
    sizes: list[int] | tuple[int, ...],
    skew: int | None = None,
) -> tuple[FailureAggregate, MultiPlacement]:
    """Lexicographically optimal placement of blocks with the given
    sizes. skew widens the per-subtree census window beyond the natural
    bound; narrowing it below the natural bound is rejected."""
    sizes = tuple(sizes)
    natural = _natural_skew(sizes)
    m = len(sizes)
    rho = max(sizes)
    if skew is not None:
        _check_int("skew", skew)
        if skew < natural:
            raise SkewOverrideError(
                f"skew {skew} is below the natural bound {natural} for these sizes"
            )
        delta = min(skew, rho)
    else:
        delta = natural  # at most max(rho - 1, 1) <= rho, as sizes are at least 1

    # Refused before anything of length rho is allocated.
    tree = model.tree
    _check_fit(tree, sizes)
    top, capacity = tree.root, tree.capacity
    target, _ = target_signature(sizes)

    # Every aggregate digit counts (node, block) pairs of real nodes, so
    # m * nodes bounds it.
    kernel = MergeKernel(rho, delta, (m * top).bit_length(), sizes)
    packed, merge_rows = kernel.packed, kernel.merge_rows

    # A table lists (census id, packed aggregate) in census order, so
    # that of equal candidates the smallest (left, right) wins. Tables
    # are interned: an id indexes tables. A node's aggregate leaves out
    # its own entry, so its parent folds its children's tables shifted:
    # with each census's own entry added. Equal subtrees give equal
    # tables, so shifts and merges are memoized on table ids.
    Table = tuple[tuple[int, int], ...]
    tables: list[Table] = []
    table_ids: dict[Table, int] = {}
    shifted: dict[int, int] = {}
    memo: dict[tuple[int, int], int] = {}

    def intern(table: Table) -> int:
        tid = table_ids.setdefault(table, len(tables))
        if tid == len(tables):
            tables.append(table)
        return tid

    def shift(tid: int) -> int:
        out = shifted.get(tid)
        if out is None:
            out = shifted[tid] = intern(tuple((sid, val + packed[sid]) for sid, val in tables[tid]))
        return out

    def merge(left: int, right: int) -> int:
        """The fold so far, left, merged with the next child's table
        right, shifted. Only the least value of each census is kept."""
        out = memo.get((left, right))
        if out is not None:
            return out
        best: dict[int, int] = {}
        best_get = best.get
        rights = tables[shift(right)]
        for lid, lval in tables[left]:
            row = merge_rows[lid]
            for rid, rval in rights:
                outs = row.get(rid)
                if outs is None:
                    outs = kernel.merges(lid, rid)
                cand = lval + rval
                for sid in outs:
                    cur = best_get(sid)
                    if cur is None or cand < cur:
                        best[sid] = cand
        table = tuple((sid, best[sid]) for sid in sorted(best, key=packed.__getitem__))
        out = memo[(left, right)] = intern(table)
        return out

    # leaf_tables[k]: the table of a leaf that holds up to k blocks, one
    # replica each. No leaf holds more than m, nor more than its capacity.
    ones = range(min(max(capacity), m) + 1)
    rows = [(kernel.intern((0,) * (rho - 1) + (k, m - k)), 0) for k in ones]
    leaf_tables = [intern(tuple(rows[: k + 1])) for k in ones]
    # table_of[u]: the id of u's table; a leaf's is set here. The
    # virtual root comes last and folds the roots like any node.
    table_of = [leaf_tables[min(c, m)] for c in capacity] + [0]
    first, kids = tree.first, tree.kids
    for u in chain(tree.bottom_up, (top,)):
        lo, hi = first[u], first[u + 1]
        if lo < hi:
            acc = shift(table_of[kids[lo]])
            for k in range(lo + 1, hi):
                acc = merge(acc, table_of[kids[k]])
            table_of[u] = acc

    target_id = kernel.ids.get(kernel.pack(target))
    value = dict(tables[table_of[top]]).get(target_id)
    if value is None:
        raise InfeasibleError("no multi-placement with the target signature fits this model")

    # Walk the choices back down, handing each node the blocks it
    # fills. slots[c] lists, in order, the blocks that the node's partial
    # blocks of size class c belong to; the root's are the requested
    # blocks of each size, in request order. Layout cells are taken in
    # order, and a cell (i, j, v) gives the next v slots of class
    # i + j - rho to the left side's class i and the child's class j.
    # No subtree whose census is the empty one is entered.
    empty = rows[0][0]
    ids = tree.ids
    members: list[list[str]] = [[] for _ in sizes]
    root_slots: dict[int, list[int]] = {}
    for b, s in enumerate(sizes):
        root_slots.setdefault(rho - s, []).append(b)
    # first_layout[(lid, rid)]: each census's first, so smallest, layout
    # of the pair, for the pairs the walk picks.
    first_layout: dict[tuple[int, int], dict[Vector, Support]] = {}
    walk = [(top, target_id, value, root_slots)]
    while walk:
        u, cur, val, slots = walk.pop()
        below = tree.children(u)
        if not below:
            for b in slots.get(rho - 1, ()):
                members[b].append(ids[u])
            continue
        # The fold again, from the memo: prefix[k] is the fold of the
        # first k + 1 children's shifted tables.
        prefix = [shift(table_of[below[0]])]
        for c in below[1:]:
            prefix.append(merge(prefix[-1], table_of[c]))
        for k in range(len(below) - 1, 0, -1):
            # The merge's choice: of the pairs that give census cur its
            # least value val, the first in the merge's scan order.
            lid, lval, rid, rval = next(
                (lid, lval, rid, rval)
                for lid, lval in tables[prefix[k - 1]]
                for rid, rval in tables[shifted[table_of[below[k]]]]
                if lval + rval == val and cur in merge_rows[lid][rid]
            )
            found = first_layout.get((lid, rid))
            if found is None:
                found = first_layout[(lid, rid)] = {}
                for layout, sig in kernel.layouts(lid, rid):
                    found.setdefault(sig, layout)
            left: dict[int, list[int]] = {}
            right: dict[int, list[int]] = {}
            used = dict.fromkeys(slots, 0)
            for i, j, v in found[kernel.census[cur]]:
                c = i + j - rho
                part = slots[c][used[c] : used[c] + v]
                used[c] += v
                left.setdefault(i, []).extend(part)
                right.setdefault(j, []).extend(part)
            if rid != empty:
                walk.append((below[k], rid, rval - packed[rid], right))
            cur, val, slots = lid, lval, left
            if cur == empty:
                # The first k children hold no replica either.
                break
        else:
            walk.append((below[0], cur, val - packed[cur], slots))

    agg = FailureAggregate(entries=kernel.unpack(value), rho=rho)
    return agg, MultiPlacement(blocks=tuple(map(frozenset, members)))
