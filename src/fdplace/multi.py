"""Multi-block placement with a bounded signature skew.

Block-size censuses (signatures) index sizes from the girth down, the
same way aggregates index failure counts. The solver restricts every
subtree's census to a window of delta + 1 adjacent size classes and
solves in two passes.

Up, a dynamic program over (node, census) states merges children one
at a time. A merge looks only at the (left, right) census pairs present
in the two child tables: the merge kernel enumerates the cell layouts
with those margins once per pair, keeps the merged censuses inside the
window that fit the target, and caches them for the rest of the solve.
Aggregates are packed into single ints, so a candidate costs one
addition and one comparison.

A census fits the target when, with both sorted largest first, each of
its parts (the replicas it holds of one block) is at most the matching
requested size. A merge pairs parts one to one and only adds to them,
so an ancestor's sorted parts dominate its descendants': a census that
does not fit never grows into the target, and every census that fits
is made only of censuses that fit. Dropping the rest therefore changes
no kept value and no recorded choice.

Down, one walk follows the recorded choices from the root and hands
each child the block slots it fills, by size class; each leaf joins
the blocks in its one-replica class. A merge the walk visits takes
the first, so smallest, cell layout that gives its census (its support),
which the kernel recorded when it enumerated the pair.

build_phi tabulates the same kernel, without a target, over every
census pair, for checking it against brute force.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain

from .errors import InfeasibleError, SkewOverrideError
from .metrics import FailureAggregate, MultiPlacement, Signature, signature_of_sizes
# postorder and subtree_stats are not called here, but bench/tracer.py
# wraps these bindings.
from .model import FailureModel, Tree, postorder, subtree_stats  # noqa: F401
from .value import Value

Vector = tuple[int, ...]
Support = tuple[tuple[int, int, int], ...]


def enum_weak_compositions(n: int, k: int):
    """Yield all ways to write n as an ordered sum of k non-negative
    parts, in a reflected order where consecutive outputs differ in
    exactly two positions, one up by 1 and one down by 1."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0:
        if n > 0:
            raise ValueError("cannot split a positive total into zero parts")
        yield ()
        return

    def gen(total: int, parts: int, forward: bool):
        if parts == 1:
            yield (total,)
            return
        heads = range(total + 1) if forward else range(total, -1, -1)
        for head in heads:
            sub = forward if head % 2 == 0 else not forward
            for rest in gen(total - head, parts - 1, sub):
                yield (head,) + rest

    yield from gen(n, k, True)


class MergeKernel:
    """Census splits of m blocks at girth rho under the skew bound
    delta, enumerated per (left, right) census pair on first use and,
    given the requested sizes, kept only where they fit that target.

    Censuses are interned: an id indexes census (the vector) and packed
    (the vector as one int with `bits` bits a digit, entry 0 most
    significant, so int order is tuple order). A cell (i, j, count) of
    a layout combines count left parts holding rho - i replicas with
    right parts holding rho - j.
    """

    def __init__(self, rho: int, delta: int, bits: int, sizes: Vector = ()) -> None:
        self.rho = rho
        self.delta = delta
        self.bits = bits
        # The target's parts, largest first; with no sizes every census fits.
        self.bound = tuple(sorted(sizes, reverse=True))
        self.limit = sum(sizes)
        self.ids: dict[Vector, int] = {}
        self.census: list[Vector] = []
        self.packed: list[int] = []
        # parts[id]: the replicas of each block, largest first.
        self.parts: list[Vector] = []
        # total[id]: the replicas of all blocks; fits[id]: whether each
        # part is at most the matching part of the target.
        self.total: list[int] = []
        self.fits: list[bool] = []
        # merge_rows[left][right]: the cached result of merges(left, right).
        self.merge_rows: list[dict[int, list[tuple[int, int]]]] = []
        # _supports[(merged, left, right)]: that merge's first layout.
        self._supports: dict[tuple[int, int, int], Support] = {}

    def intern(self, vec: Vector) -> int:
        cid = self.ids.get(vec)
        if cid is None:
            cid = self.ids[vec] = len(self.census)
            self.census.append(vec)
            self.packed.append(self.pack(vec))
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

    def layouts(self, left: int, right: int) -> list[Support]:
        """Every cell layout, cells in (i, j) order, whose rows sum to
        census left and whose columns sum to census right, smallest
        first: columns and cell counts are tried in ascending order."""
        rho = self.rho
        # Pairing the largest left parts with the smallest right parts
        # fits under rho exactly when some layout exists.
        if any(a + b > rho for a, b in zip(self.parts[left], reversed(self.parts[right]))):
            return []
        rows = [(i, c) for i, c in enumerate(self.census[left]) if c]
        room = list(self.census[right])
        cols = [j for j, c in enumerate(room) if c]
        # first[r]: the first of cols that row r may use (i + j >= rho).
        first = [sum(1 for j in cols if i + j < rho) for i, _ in rows]
        last = len(rows) - 1
        cells: list[tuple[int, int, int]] = []
        out: list[Support] = []

        def fill(r: int, k: int, need: int) -> None:
            # Place `need` more blocks of row r in cols[k:].
            i = rows[r][0]
            if r == last:
                # The last row takes whatever room is left: the pairing
                # test above leaves none it cannot reach.
                out.append(tuple(cells) + tuple((i, j, room[j]) for j in cols[k:] if room[j]))
                return
            if need == 0:
                fill(r + 1, first[r + 1], rows[r + 1][1])
                return
            for n in range(k, len(cols)):
                j = cols[n]
                for v in range(1, min(need, room[j]) + 1):
                    room[j] -= v
                    cells.append((i, j, v))
                    fill(r, n + 1, need - v)
                    cells.pop()
                    room[j] += v

        fill(0, first[0], rows[0][1])
        return out

    def merged(self, layout: Support) -> Vector | None:
        """The census a layout produces, or None outside the window."""
        rho = self.rho
        diag = [0] * (rho + 1)
        for i, j, v in layout:
            diag[i + j - rho] += v
        nonzero = [k for k, v in enumerate(diag) if v]
        if nonzero[-1] - nonzero[0] > self.delta:
            return None
        return tuple(diag)

    def merges(self, left: int, right: int) -> list[tuple[int, int]]:
        """(merged id, packed(merged) - packed(left)) for every census
        in the window that fits the target and that left and right
        merge into; cached, with the first, so smallest, layout that
        gives each one as its support."""
        found: dict[int, int] = {}
        if not self.bound or self.total[left] + self.total[right] <= self.limit:
            for layout in self.layouts(left, right):
                sig = self.merged(layout)
                if sig is not None:
                    sid = self.intern(sig)
                    if sid not in found and self.fits[sid]:
                        found[sid] = self.packed[sid] - self.packed[left]
                        self._supports[(sid, left, right)] = layout
        out = list(found.items())
        self.merge_rows[left][right] = out
        return out

    def support(self, sig: int, left: int, right: int) -> Support:
        """The first, so smallest, layout merging left and right into
        sig, a census that merges(left, right) keeps."""
        if right not in self.merge_rows[left]:
            self.merges(left, right)
        return self._supports[(sig, left, right)]


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
            for layout in kernel.layouts(left, right):
                sig = kernel.merged(layout)
                if sig is not None:
                    pairs[sig].add(split)
                    supports[(sig, *split)].add(layout)
    return PhiTable(m=m, rho=rho, delta=delta, pairs=dict(pairs), supports=dict(supports))


def _natural_skew(sizes: tuple[int, ...]) -> int:
    """The size spread, but at least 1, after checking the sizes."""
    if not sizes:
        raise InfeasibleError("no block sizes given")
    if any(s < 1 for s in sizes):
        raise InfeasibleError("every block size must be at least 1")
    return max(max(sizes) - min(sizes), 1)


def _check_fit(tree: Tree, sizes: tuple[int, ...]) -> None:
    """Refuse a block above the leaf count, then replicas above capacity."""
    if max(sizes) > tree.leaf_total:
        raise InfeasibleError(
            f"block size {max(sizes)} exceeds the {tree.leaf_total} available leaves"
        )
    total_capacity = sum(tree.capacity)
    if sum(sizes) > total_capacity:
        raise InfeasibleError(
            f"total replicas {sum(sizes)} exceed total capacity {total_capacity}"
        )


def target_signature(sizes: list[int] | tuple[int, ...]) -> tuple[Signature, int]:
    """Census of the requested block sizes plus the natural skew bound:
    the size spread, but at least 1."""
    sizes = tuple(sizes)
    delta = _natural_skew(sizes)
    return signature_of_sizes(sizes), delta


def _signature_domain(m: int, rho: int, delta: int) -> list[Vector]:
    """Every census of m blocks over sizes 0..rho whose support spans at
    most delta + 1 adjacent classes, leading class first."""
    out: list[Vector] = []
    for start in range(rho + 1):
        width = min(delta + 1, rho + 1 - start)
        for comp in enum_weak_compositions(m - 1, width):
            entries = [0] * (rho + 1)
            entries[start] = comp[0] + 1
            for off in range(1, width):
                entries[start + off] = comp[off]
            out.append(tuple(entries))
    return out


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
    target = signature_of_sizes(sizes)

    # Every aggregate digit counts (node, block) pairs, the virtual
    # root included, so m * (nodes + 1) bounds it.
    kernel = MergeKernel(rho, delta, (m * (top + 1)).bit_length(), sizes)
    packed, merge_rows = kernel.packed, kernel.merge_rows

    # A table lists (census id, packed aggregate) in census order, so
    # that of equal candidates the smallest (left, right) wins. Equal
    # subtrees give equal tables, so merges are memoized on their inputs.
    Table = tuple[tuple[int, int], ...]
    Pick = dict[int, tuple[int, int]]
    tables: dict[int, Table] = {}
    picks: dict[tuple[int, int], Pick] = {}
    leaf_tables: dict[int, Table] = {}
    memo: dict[tuple[Table, Table], tuple[Table, Pick]] = {}

    def merge_tables(left: Table, right: Table) -> tuple[Table, Pick]:
        done = memo.get((left, right))
        if done is not None:
            return done
        best: dict[int, int] = {}
        best_get = best.get
        pick: Pick = {}
        for lid, lval in left:
            row = merge_rows[lid]
            for rid, rval in right:
                outs = row.get(rid)
                if outs is None:
                    outs = kernel.merges(lid, rid)
                base = lval + rval
                for sid, offset in outs:
                    cand = base + offset
                    cur = best_get(sid)
                    if cur is None or cand < cur:
                        best[sid] = cand
                        pick[sid] = (lid, rid)
        table = tuple((sid, best[sid]) for sid in sorted(best, key=packed.__getitem__))
        done = memo[(left, right)] = (table, pick)
        return done

    # The virtual root comes last and folds the roots like any node,
    # adding one entry of its own per block, which the value then drops.
    for u in chain(tree.bottom_up, (top,)):
        kids = tree.children(u)
        if kids:
            acc = tuple((sid, val + packed[sid]) for sid, val in tables.pop(kids[0]))
            for k in range(2, len(kids) + 1):
                acc, picks[(u, k)] = merge_tables(acc, tables.pop(kids[k - 1]))
            tables[u] = acc
            continue
        ones_max = min(capacity[u], m)
        table = leaf_tables.get(ones_max)
        if table is None:
            rows = []
            for ones in range(ones_max + 1):
                entries = [0] * (rho + 1)
                entries[rho - 1] += ones
                entries[rho] += m - ones
                sid = kernel.intern(tuple(entries))
                rows.append((sid, packed[sid]))
            table = leaf_tables[ones_max] = tuple(rows)
        tables[u] = table

    target_id = kernel.ids.get(target.entries)
    value = dict(tables[top]).get(target_id)
    if value is None:
        raise InfeasibleError("no multi-placement with the target signature fits this model")
    value -= packed[target_id]

    # Walk the decisions back down, handing each node the blocks it
    # fills. slots[c] lists, in order, the blocks that the node's partial
    # blocks of size class c belong to; the root's are the requested
    # blocks of each size, in request order. Layout cells are taken in
    # order, and a cell (i, j, v) gives the next v slots of class
    # i + j - rho to the left side's class i and the child's class j.
    ids = tree.ids
    members: list[list[str]] = [[] for _ in sizes]
    root_slots: dict[int, list[int]] = {}
    for b, s in enumerate(sizes):
        root_slots.setdefault(rho - s, []).append(b)
    walk = [(top, target_id, root_slots)]
    while walk:
        u, cur, slots = walk.pop()
        kids = tree.children(u)
        if not kids:
            for b in slots.get(rho - 1, ()):
                members[b].append(ids[u])
            continue
        for k in range(len(kids), 1, -1):
            lid, rid = picks[(u, k)][cur]
            left: dict[int, list[int]] = {}
            right: dict[int, list[int]] = {}
            used = dict.fromkeys(slots, 0)
            for i, j, v in kernel.support(cur, lid, rid):
                c = i + j - rho
                part = slots[c][used[c] : used[c] + v]
                used[c] += v
                left.setdefault(i, []).extend(part)
                right.setdefault(j, []).extend(part)
            walk.append((kids[k - 1], rid, right))
            cur, slots = lid, left
        walk.append((kids[0], cur, slots))

    agg = FailureAggregate(entries=kernel.unpack(value), rho=rho)
    return agg, MultiPlacement(blocks=tuple(map(frozenset, members)))
