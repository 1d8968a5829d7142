"""Multi-block placement with a bounded signature skew.

Block-size censuses (signatures) index sizes from the girth down, the
same way aggregates index failure counts. The solver restricts every
subtree's census to a window of delta + 1 adjacent size classes and
runs a dynamic program over (node, census) states, merging children one
at a time. A merge looks only at the (left, right) census pairs present
in the two child tables: the merge kernel enumerates the cell layouts
with those margins once per pair, keeps the merged censuses inside the
window, and caches them for the rest of the solve. Aggregates are
packed into single ints, so a candidate costs one addition and one
comparison. The cell layout behind a merge (its support) is rebuilt
only for the merges the witness walk visits. build_phi tabulates the
same kernel over every census pair, for checking it against brute
force.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from .errors import InfeasibleError, SkewOverrideError
from .metrics import FailureAggregate, MultiPlacement, Signature, signature_of_sizes
# subtree_stats is not called here, but bench/tracer.py wraps this binding.
from .model import FailureModel, children_of, postorder, subtree_stats  # noqa: F401

Vector = tuple[int, ...]
Support = tuple[tuple[int, int, int], ...]


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
    delta, enumerated per (left, right) census pair on first use.

    Censuses are interned: an id indexes census (the vector) and packed
    (the vector as one int with `bits` bits a digit, entry 0 most
    significant, so int order is tuple order). A cell (i, j, count) of
    a layout combines count left parts holding rho - i replicas with
    right parts holding rho - j.
    """

    def __init__(self, rho: int, delta: int, bits: int) -> None:
        self.rho = rho
        self.delta = delta
        self.bits = bits
        self.ids: dict[Vector, int] = {}
        self.census: list[Vector] = []
        self.packed: list[int] = []
        # parts[id]: the replicas of each block, largest first.
        self.parts: list[Vector] = []
        # merge_rows[left][right]: the cached result of merges(left, right).
        self.merge_rows: list[dict[int, list[tuple[int, int]]]] = []
        self._supports: dict[tuple[int, int, int], Support] = {}

    def intern(self, vec: Vector) -> int:
        cid = self.ids.get(vec)
        if cid is None:
            cid = self.ids[vec] = len(self.census)
            self.census.append(vec)
            self.packed.append(self.pack(vec))
            self.parts.append(tuple(self.rho - k for k, v in enumerate(vec) for _ in range(v)))
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
        census left and whose columns sum to census right."""
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
                for v in range(min(need, room[j]), 0, -1):
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
        in the window that left and right merge into; cached."""
        found: dict[int, int] = {}
        for layout in self.layouts(left, right):
            sig = self.merged(layout)
            if sig is not None:
                sid = self.intern(sig)
                found[sid] = self.packed[sid] - self.packed[left]
        out = list(found.items())
        self.merge_rows[left][right] = out
        return out

    def support(self, sig: int, left: int, right: int) -> Support:
        """The smallest layout merging left and right into sig."""
        key = (sig, left, right)
        found = self._supports.get(key)
        if found is None:
            want = self.census[sig]
            found = self._supports[key] = min(
                layout
                for layout in self.layouts(left, right)
                if self.merged(layout) == want
            )
        return found


@dataclass
class PhiTable:
    """All ways to split an m-block census into two censuses whose
    merge gives it back, with every census obeying the skew bound.

    pairs maps a census to its set of (left, right) splits. supports
    maps (census, left, right) to the set of cell layouts (i, j, count)
    realizing that split: count blocks combine a size rho-i left part
    with a size rho-j right part.
    """

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
        delta = min(natural, rho)

    # Both checks run before anything of length rho is allocated.
    if rho > len(model.leaves):
        raise InfeasibleError(
            f"block size {rho} exceeds the {len(model.leaves)} available leaves"
        )
    total_capacity = sum(model.capacity(leaf) for leaf in model.leaves)
    if sum(sizes) > total_capacity:
        raise InfeasibleError(
            f"total replicas {sum(sizes)} exceed total capacity {total_capacity}"
        )
    target, _ = target_signature(sizes)

    # Every aggregate digit counts (node, block) pairs, the virtual
    # root of a forest included, so m * (nodes + 1) bounds it.
    kernel = MergeKernel(rho, delta, (m * (len(model.nodes) + 1)).bit_length())
    packed, merge_rows = kernel.packed, kernel.merge_rows

    # A table lists (census id, packed aggregate) in census order, so
    # that of equal candidates the smallest (left, right) wins. Equal
    # subtrees give equal tables, so merges are memoized on their inputs.
    Table = tuple[tuple[int, int], ...]
    Pick = dict[int, tuple[int, int]]
    tables: dict[str, Table] = {}
    picks: dict[tuple[str | None, int], Pick] = {}
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

    def fold(key: str | None, kids: list[str]) -> Table:
        acc = tuple((sid, val + packed[sid]) for sid, val in tables.pop(kids[0]))
        for k in range(2, len(kids) + 1):
            acc, picks[(key, k)] = merge_tables(acc, tables.pop(kids[k - 1]))
        return acc

    order = postorder(model)
    for u in order:
        kids = model.children[u]
        if kids:
            tables[u] = fold(u, kids)
            continue
        ones_max = min(model.capacity(u), m)
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

    if len(model.roots) == 1:
        root_key: str | None = model.roots[0]
        final = tables[root_key]
    else:
        root_key = None
        final = fold(None, model.roots)
    target_id = kernel.ids.get(target.entries)
    value = dict(final).get(target_id)
    if value is not None and root_key is None:
        value -= packed[target_id]

    if value is None:
        raise InfeasibleError("no multi-placement with the target signature fits this model")

    # Walk the decisions back down, assigning each child its census.
    sub_target: dict[str, int] = {}
    fold_steps: dict[str | None, list[tuple[int, int, int]]] = {}

    walk: list[tuple[str | None, int]] = [(root_key, target_id)]
    while walk:
        u, sid = walk.pop()
        kids = children_of(model, u)
        if not kids:
            assert u is not None
            sub_target[u] = sid
            continue
        steps: list[tuple[int, int, int]] = []
        cur = sid
        for k in range(len(kids), 1, -1):
            lid, rid = picks[(u, k)][cur]
            steps.append((cur, lid, rid))
            walk.append((kids[k - 1], rid))
            cur = lid
        walk.append((kids[0], cur))
        fold_steps[u] = list(reversed(steps))

    # Build the blocks bottom up, pairing partial blocks cell by cell.
    def merge_blocks(
        left: list[frozenset[str]],
        right: list[frozenset[str]],
        step: tuple[int, int, int],
    ) -> list[frozenset[str]]:
        # Each size class pops from the end, so lists are filled reversed
        # to hand out blocks first in, first out.
        by_left: dict[int, list[frozenset[str]]] = {}
        by_right: dict[int, list[frozenset[str]]] = {}
        for blk in reversed(left):
            by_left.setdefault(rho - len(blk), []).append(blk)
        for blk in reversed(right):
            by_right.setdefault(rho - len(blk), []).append(blk)
        merged: list[frozenset[str]] = []
        for i, j, v in kernel.support(*step):
            lefts, rights = by_left[i], by_right[j]
            for _ in range(v):
                merged.append(lefts.pop() | rights.pop())
        return merged

    def fold_blocks(key: str | None, kids: list[str]) -> list[frozenset[str]]:
        acc_blocks = blocks_of[kids[0]]
        for k, step in enumerate(fold_steps[key], 1):
            acc_blocks = merge_blocks(acc_blocks, blocks_of[kids[k]], step)
        return acc_blocks

    blocks_of: dict[str, list[frozenset[str]]] = {}
    for u in order:
        kids = model.children[u]
        if kids:
            blocks_of[u] = fold_blocks(u, kids)
            continue
        singles = kernel.census[sub_target[u]][rho - 1]
        blocks_of[u] = [frozenset([u])] * singles + [frozenset()] * (m - singles)

    final_blocks = blocks_of[root_key] if root_key is not None else fold_blocks(None, model.roots)

    by_size: dict[int, deque[frozenset[str]]] = defaultdict(deque)
    for blk in final_blocks:
        by_size[len(blk)].append(blk)
    ordered = tuple(by_size[s].popleft() for s in sizes)
    agg = FailureAggregate(entries=kernel.unpack(value), rho=rho)
    return agg, MultiPlacement(blocks=ordered)
