from __future__ import annotations

import json
import math
import random

import pytest

from fdplace.errors import (
    GuardLimitError,
    InfeasibleError,
    ModelError,
    SkewOverrideError,
)
from fdplace.metrics import (
    lex_cmp,
    multi_aggregate,
    sig_stats,
    signature_of_sizes,
    sub_signature,
)
from fdplace.model import parse_model, render_model
from fdplace.multi import (
    band_cell_count,
    build_phi,
    enum_weak_compositions,
    solve_multi,
    target_signature,
)
from fdplace.oracle import oracle_multi
from fdplace.single import solve_basic


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
    from fdplace.generate import random_model

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
