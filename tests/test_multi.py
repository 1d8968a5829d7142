from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter

import pytest

from fdplace.errors import (
    GuardLimitError,
    InfeasibleError,
    ModelError,
    SkewOverrideError,
)
from fdplace.generate import random_model
from fdplace.metrics import multi_aggregate, signature_of_sizes
from fdplace.model import parse_model, render_model
from fdplace.multi import (
    MergeKernel,
    _signature_domain,
    build_phi,
    enum_weak_compositions,
    solve_multi,
    target_signature,
)
from fdplace.oracle import oracle_multi
from fdplace.single import solve_basic

from lemmas import band_cell_count, lex_cmp, sig_stats, sub_signature


def test_band_cell_count_validation():
    with pytest.raises(ValueError):
        band_cell_count(-1, 1)
    with pytest.raises(ValueError):
        band_cell_count(2, 0)
    with pytest.raises(ValueError):
        band_cell_count(2, 4)


def test_band_cell_count_matches_direct_enumeration():
    for delta in range(0, 7):
        for d in range(1, delta + 2):
            direct = sum(
                1
                for p in range(delta + 1)
                for q in range(delta + 1)
                if d - 1 <= p + q <= d + delta - 1
            )
            assert band_cell_count(delta, d) == direct, (delta, d)
    assert band_cell_count(2, 1) == 6
    assert band_cell_count(2, 2) == 7
    assert band_cell_count(2, 3) == 6


def test_enum_weak_compositions_counts_and_sums():
    for n in range(0, 7):
        for k in range(1, 5):
            seen = list(enum_weak_compositions(n, k))
            assert len(seen) == math.comb(n + k - 1, k - 1), (n, k)
            assert len(set(seen)) == len(seen)
            for comp in seen:
                assert len(comp) == k
                assert sum(comp) == n
                assert all(v >= 0 for v in comp)


def test_enum_weak_compositions_adjacent_steps():
    # Successive compositions move exactly one unit between two slots,
    # which keeps downstream support rebuilding incremental.
    for n, k in [(4, 3), (5, 4), (3, 5), (6, 2)]:
        seen = list(enum_weak_compositions(n, k))
        for prev, cur in zip(seen, seen[1:]):
            deltas = [c - p for p, c in zip(prev, cur) if c != p]
            assert sorted(deltas) == [-1, 1], (n, k, prev, cur)


def test_enum_weak_compositions_edges():
    assert list(enum_weak_compositions(0, 0)) == [()]
    assert list(enum_weak_compositions(0, 3)) == [(0, 0, 0)]
    assert list(enum_weak_compositions(5, 1)) == [(5,)]
    with pytest.raises(ValueError):
        list(enum_weak_compositions(2, 0))
    with pytest.raises(ValueError):
        list(enum_weak_compositions(-1, 2))
    with pytest.raises(ValueError):
        list(enum_weak_compositions(2, -1))


def test_build_phi_validation():
    with pytest.raises(ValueError):
        build_phi(0, 3, 1)
    with pytest.raises(ValueError):
        build_phi(2, 3, 0)
    with pytest.raises(ValueError):
        build_phi(2, 3, 4)


def stored_replicas(vec, rho):
    return sum((rho - k) * v for k, v in enumerate(vec))


def spread(vec):
    nonzero = [i for i, v in enumerate(vec) if v]
    return nonzero[-1] - nonzero[0] if nonzero else 0


def test_phi_pairs_conserve_counts_and_replicas():
    m, rho, delta = 3, 4, 2
    table = build_phi(m, rho, delta)
    assert table.pairs
    for sig, splits in table.pairs.items():
        assert sum(sig) == m
        assert spread(sig) <= delta
        for left, right in splits:
            assert sum(left) == m and sum(right) == m
            assert spread(left) <= delta and spread(right) <= delta
            assert stored_replicas(sig, rho) == stored_replicas(
                left, rho
            ) + stored_replicas(right, rho)


def test_phi_pairs_transpose_symmetry():
    table = build_phi(3, 4, 2)
    for sig, splits in table.pairs.items():
        for left, right in splits:
            assert (right, left) in splits
            mirrored = {
                tuple(sorted((j, i, v) for i, j, v in sup))
                for sup in table.supports[(sig, left, right)]
            }
            direct = {
                tuple(sorted(sup)) for sup in table.supports[(sig, right, left)]
            }
            assert mirrored == direct


def test_phi_supports_rebuild_their_key():
    table = build_phi(3, 4, 2)
    for (sig, left, right), sups in table.supports.items():
        for sup in sups:
            row = [0] * 5
            col = [0] * 5
            diag = [0] * 5
            total = 0
            for i, j, v in sup:
                assert 0 <= i <= 4 and 0 <= j <= 4 and v >= 1
                assert i + j >= 4
                row[i] += v
                col[j] += v
                diag[i + j - 4] += v
                total += v
            assert total == 3
            assert tuple(row) == left
            assert tuple(col) == right
            assert tuple(diag) == sig


def test_target_signature():
    sig, delta = target_signature((3, 3, 2))
    assert sig.entries == (2, 1, 0, 0)
    assert delta == 1
    sig, delta = target_signature((2, 2))
    assert sig.entries == (2, 0, 0)
    assert delta == 1
    _, delta = target_signature((5, 2, 1))
    assert delta == 4
    with pytest.raises(InfeasibleError):
        target_signature(())
    with pytest.raises(InfeasibleError):
        target_signature((2, 0))


def test_solve_multi_matches_oracle_on_shared_tree(shared_tree):
    best, witness = solve_multi(shared_tree, (3, 3, 2))
    ref, _ = oracle_multi(shared_tree, (3, 3, 2))
    assert best.entries == ref.entries
    assert sorted(len(b) for b in witness.blocks) == [2, 3, 3]
    assert multi_aggregate(shared_tree, witness).entries == best.entries
    # The exact witness, in block order: the solver's tie-breaking and
    # pairing of partial blocks are part of its contract.
    assert witness.blocks == (
        frozenset({"b", "c", "e"}),
        frozenset({"b", "c", "e"}),
        frozenset({"c", "e"}),
    )


def test_solve_multi_witness_respects_capacity(shared_tree):
    _, witness = solve_multi(shared_tree, (3, 3, 2))
    usage: dict[str, int] = {}
    for block in witness.blocks:
        for leaf in block:
            usage[leaf] = usage.get(leaf, 0) + 1
    for leaf, used in usage.items():
        assert used <= shared_tree.capacity(leaf)


def test_solve_multi_witness_sub_signatures_stay_narrow(shared_tree):
    _, witness = solve_multi(shared_tree, (3, 3, 2))
    for node_id in shared_tree.nodes:
        skew, _ = sig_stats(sub_signature(shared_tree, witness, node_id))
        assert skew <= 1, node_id


def test_solve_multi_skew_override(shared_tree):
    with pytest.raises(SkewOverrideError):
        solve_multi(shared_tree, (3, 3, 2), skew=0)
    base, _ = solve_multi(shared_tree, (3, 3, 2))
    wide, _ = solve_multi(shared_tree, (3, 3, 2), skew=2)
    # A wider census window never hurts the objective.
    assert lex_cmp(wide.entries, base.entries) <= 0
    huge, _ = solve_multi(shared_tree, (3, 3, 2), skew=50)
    assert lex_cmp(huge.entries, wide.entries) <= 0


def test_solve_multi_infeasible_cases(shared_tree):
    with pytest.raises(InfeasibleError):
        solve_multi(shared_tree, (6, 6, 6, 6))
    with pytest.raises(InfeasibleError):
        solve_multi(shared_tree, (7,))
    model = parse_model(
        json.dumps(
            {
                "nodes": [
                    {"id": "r", "parent": None},
                    {"id": "big", "parent": "r", "capacity": 3},
                    {"id": "small", "parent": "r", "capacity": 1},
                ]
            }
        )
    )
    # Both blocks need both leaves, so the small one would be reused
    # past its capacity; totals alone do not reveal that.
    with pytest.raises(InfeasibleError):
        solve_multi(model, (2, 2))


def test_solve_multi_child_permutation_invariance(shared_tree):
    base, _ = solve_multi(shared_tree, (3, 3, 2))
    doc = json.loads(render_model(shared_tree))
    rng = random.Random(9)
    for _ in range(4):
        rng.shuffle(doc["nodes"])
        roots = [n for n in doc["nodes"] if n["parent"] is None]
        others = [n for n in doc["nodes"] if n["parent"] is not None]
        shuffled = parse_model(json.dumps({"nodes": roots + others}))
        got, witness = solve_multi(shuffled, (3, 3, 2))
        assert got.entries == base.entries
        assert multi_aggregate(shuffled, witness).entries == base.entries


def test_solve_multi_single_block_matches_basic(two_rows):
    multi, witness = solve_multi(two_rows, (3,))
    basic, _ = solve_basic(two_rows, 3)
    assert multi.entries == basic.entries == (0, 1, 7, 7)
    (block,) = witness.blocks
    assert len(block) == 3


def test_solve_multi_random_differential():
    rng = random.Random(77)
    done = 0
    trial = 0
    while done < 25:
        trial += 1
        leaves = rng.randint(3, 9)
        model = random_model(
            leaves=leaves,
            seed=8000 + trial,
            max_fanout=3,
            max_capacity=2,
        )
        m = rng.randint(1, 3)
        sizes = tuple(rng.randint(1, 3) for _ in range(m))
        try:
            ref, _ = oracle_multi(model, sizes, guard=200_000)
        except GuardLimitError:
            continue
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_multi(model, sizes)
            continue
        got, witness = solve_multi(model, sizes)
        assert got.entries == ref.entries, (trial, sizes)
        assert multi_aggregate(model, witness).entries == got.entries
        assert sorted(len(b) for b in witness.blocks) == sorted(sizes)
        done += 1


def test_signature_of_sizes_round_trip():
    sig = signature_of_sizes((3, 1, 3, 2))
    assert sig.entries == (2, 1, 1, 0)
    assert sig.rho == 3
    with pytest.raises(ModelError):
        signature_of_sizes([])


def fits(vec, sizes):
    """Sorted largest first, each part of census vec is at most the
    matching requested size."""
    rho = len(vec) - 1
    parts = sorted((rho - k for k, v in enumerate(vec) for _ in range(v)), reverse=True)
    return all(p <= s for p, s in zip(parts, sorted(sizes, reverse=True)))


def test_pruned_kernel_keeps_exactly_the_merges_that_fit():
    rng = random.Random(31)
    dropped = 0
    for _ in range(20):
        sizes = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        natural = target_signature(sizes)[1]
        rho, m = max(sizes), len(sizes)
        delta = min(natural + rng.randint(0, 2), rho)
        full = MergeKernel(rho, delta, 8)
        pruned = MergeKernel(rho, delta, 8, sizes)
        domain = _signature_domain(m, rho, delta)
        for lvec in domain:
            for rvec in domain:
                want = {
                    (full.census[sid], offset)
                    for sid, offset in full.merges(full.intern(lvec), full.intern(rvec))
                    if fits(full.census[sid], sizes)
                }
                got = pruned.merges(pruned.intern(lvec), pruned.intern(rvec))
                assert {(pruned.census[sid], offset) for sid, offset in got} == want
                assert all(fits(pruned.census[sid], sizes) for sid, _ in got)
                dropped += len(full.merge_rows[full.ids[lvec]][full.ids[rvec]]) - len(got)
    assert dropped > 0


def test_kernel_layouts_come_smallest_first():
    # support takes the first matching layout, so layouts must be sorted.
    pairs = 0
    for m in range(1, 5):
        for rho in range(1, 5):
            for delta in range(1, rho + 1):
                kernel = MergeKernel(rho, delta, 8)
                domain = [kernel.intern(vec) for vec in _signature_domain(m, rho, delta)]
                for left in domain:
                    for right in domain:
                        layouts = kernel.layouts(left, right)
                        assert layouts == sorted(layouts), (m, rho, delta, left, right)
                        smallest = {}
                        for layout in layouts:
                            sig = kernel.merged(layout)
                            if sig is not None:
                                smallest[sig] = min(smallest.get(sig, layout), layout)
                        for sig, layout in smallest.items():
                            assert kernel.support(kernel.intern(sig), left, right) == layout
                        pairs += 1
    assert pairs == 16_604


# Requests with a wide size spread, far beyond the oracle's reach:
# (leaves, sizes) -> (objective, sha256 of the witness's sorted blocks).
# The values predate the kernel's pruning to censuses that fit the target.
PINNED_WIDE = {
    (50, (12, 1)): (
        (2, 0, 0, 0, 0, 0, 3, 0, 0, 1, 3, 24, 145),
        "25d1516ee05d3f9cac6d0ccf31c3dfe1e0c398b4c9f1f3a7d75d05413ca20622",
    ),
    (50, (20, 1)): (
        (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 4, 5, 32, 131),
        "efc9feb39147b5dd23a00c86d37015ea2338cf323a2cef8e17022b79daca67cc",
    ),
    (200, (6, 4, 2, 2)): (
        (2, 0, 2, 3, 7, 57, 1521),
        "1a71a1812aa40dd97bd0e052cfe06331bc575b447362be5cb7d045e9b9689972",
    ),
}


@pytest.mark.parametrize("leaves,sizes", list(PINNED_WIDE))
def test_solve_multi_wide_spread_is_pinned(leaves, sizes):
    model = random_model(leaves, 1)
    agg, witness = solve_multi(model, sizes)
    blocks = json.dumps([sorted(b) for b in witness.blocks]).encode()
    assert (agg.entries, hashlib.sha256(blocks).hexdigest()) == PINNED_WIDE[(leaves, sizes)]
    assert multi_aggregate(model, witness).entries == agg.entries


@pytest.mark.parametrize("leaves,sizes", [(200, (6, 4, 2, 2)), (50, (12, 1))])
def test_solve_multi_enumerates_each_pair_once(monkeypatch, leaves, sizes):
    # merges records each kept census's support while it enumerates a
    # pair, so the walk down never enumerates the pair again.
    calls = Counter()
    layouts = MergeKernel.layouts

    def counted(kernel, left, right):
        calls[(left, right)] += 1
        return layouts(kernel, left, right)

    monkeypatch.setattr(MergeKernel, "layouts", counted)
    solve_multi(random_model(leaves, 1), sizes)
    assert calls and max(calls.values()) == 1
