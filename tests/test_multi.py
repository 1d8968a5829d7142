from __future__ import annotations

import hashlib
import json
import math
import random
import re
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from fdplace.errors import (
    GuardLimitError,
    InfeasibleError,
    ModelError,
    SkewOverrideError,
)
from fdplace.generate import random_model
from fdplace.metrics import multi_aggregate
from fdplace.model import FailureModel, Tree, parse_model, render_model
from fdplace.multi import (
    MergeKernel,
    _signature_domain,
    build_phi,
    solve_multi,
    target_signature,
)
from fdplace.oracle import oracle_multi
from fdplace.single import solve_basic, solve_fast

from lemmas import band_cell_count, lex_cmp, sig_stats, sizes_fit, sub_signature


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


def test_signature_domain_matches_direct_enumeration():
    # Every census of m blocks whose support spans at most delta + 1
    # adjacent classes, once each, grouped by leading class.
    for m in range(1, 6):
        for rho in range(0, 5):
            for delta in range(0, rho + 1):
                domain = _signature_domain(m, rho, delta)
                direct = {
                    vec
                    for vec in product(range(m + 1), repeat=rho + 1)
                    if sum(vec) == m and spread(vec) <= delta
                }
                assert len(domain) == len(set(domain)), (m, rho, delta)
                assert set(domain) == direct, (m, rho, delta)
                leads = [next(i for i, v in enumerate(vec) if v) for vec in domain]
                assert leads == sorted(leads), (m, rho, delta)


def test_signature_domain_edges():
    assert _signature_domain(4, 0, 0) == [(4,)]
    assert _signature_domain(1, 3, 2) == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert _signature_domain(3, 2, 0) == [(3, 0, 0), (0, 3, 0), (0, 0, 3)]
    for m, rho in [(2, 3), (3, 4), (5, 2)]:
        assert len(_signature_domain(m, rho, rho)) == math.comb(m + rho, rho), (m, rho)


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
    assert target_signature((3, 3, 2)) == ((2, 1, 0, 0), 1)
    assert target_signature((2, 2)) == ((2, 0, 0), 1)
    assert target_signature([3, 1, 3, 2]) == ((2, 1, 1, 0), 2)
    assert target_signature((1,)) == ((1, 0), 1)
    _, delta = target_signature((5, 2, 1))
    assert delta == 4


@pytest.mark.parametrize(
    "sizes, error",
    [
        pytest.param(sizes, error, id=repr(sizes))
        for sizes, error in [
            ((), InfeasibleError),
            ((0,), InfeasibleError),
            ((True, 2), ModelError),
            ((2.0,), ModelError),
            (("2",), ModelError),
            ((2, 2.5), ModelError),
            ((0, True), ModelError),
        ]
    ],
)
def test_size_refusals_agree(shared_tree, sizes, error):
    # solve_multi, the oracle it is tested against and target_signature
    # share one check of a size list, so each refuses the same way.
    refusals = []
    for call in (solve_multi, oracle_multi, lambda _model, sizes: target_signature(sizes)):
        with pytest.raises(error) as info:
            call(shared_tree, sizes)
        refusals.append(str(info.value))
    assert len(set(refusals)) == 1, refusals


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
        assert used <= shared_tree.nodes[leaf].capacity


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


@pytest.mark.parametrize("skew", [2.0, True, "3"], ids=repr)
def test_skew_must_be_an_int(shared_tree, skew):
    # Refused up front: a float is not rounded, a bool is not 1, and a
    # string raises no TypeError from the comparison.
    with pytest.raises(ModelError, match=rf"^skew must be an integer, got {re.escape(repr(skew))}$"):
        solve_multi(shared_tree, (3, 3, 2), skew=skew)


def test_solve_multi_infeasible_cases(shared_tree):
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
    # On model both blocks need both leaves, so the small one would be
    # reused past its capacity; totals alone do not reveal that.
    # oracle_multi shares solve_multi's fit check, so it refuses each
    # request with the same message.
    for fm, sizes in [(shared_tree, (6, 6, 6, 6)), (shared_tree, (7,)), (model, (2, 2))]:
        refusals = []
        for call in (solve_multi, oracle_multi):
            with pytest.raises(InfeasibleError) as info:
                call(fm, sizes)
            refusals.append(str(info.value))
        assert refusals[0] == refusals[1], refusals


def test_sizes_fit_on_small_cases():
    assert sizes_fit([3, 1], (2, 1, 1))
    assert not sizes_fit([3, 1], (2, 2))  # the refusal above
    assert not sizes_fit([1, 1], (3,))
    assert sizes_fit([2, 2, 1], (3, 2))
    assert not sizes_fit([2, 2, 1], (3, 3))


def test_solve_multi_refuses_exactly_what_gale_ryser_refuses():
    # Small forests with capacities up to 5 and blocks up to the leaf
    # count: some requests pass the totals test of the size and capacity
    # sums and are still refused, as the blocks would reuse a leaf past
    # its capacity. Every refusal and every acceptance must agree with
    # the Gale-Ryser test.
    rng = random.Random(3)
    counts = Counter()
    for trial in range(250):
        leaves = rng.randint(2, 7)
        model = random_model(
            leaves,
            70_000 + trial,
            max_fanout=4,
            max_capacity=rng.randint(1, 5),
            roots=rng.randint(1, min(3, leaves)),
        )
        capacities = [c for c in model.tree.capacity if c]
        for _ in range(5):
            sizes = tuple(rng.randint(1, leaves) for _ in range(rng.randint(1, 4)))
            totals_pass = max(sizes) <= leaves and sum(sizes) <= sum(capacities)
            try:
                solve_multi(model, sizes)
            except InfeasibleError:
                assert not sizes_fit(capacities, sizes), (trial, sizes)
                counts["refused past the totals" if totals_pass else "refused by the totals"] += 1
            else:
                assert sizes_fit(capacities, sizes), (trial, sizes)
                counts["solved"] += 1
    assert min(counts.values()) >= 20 and len(counts) == 3, counts


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


def test_solve_multi_digit_width_holds_its_largest_digit():
    # One leaf holds all four blocks under a chain of three domains, so
    # each of the four nodes counts four blocks at failure number 1: that
    # digit reaches m * nodes = 16 = 2**4, which takes a fifth bit.
    nodes = [
        {"id": "a", "parent": None},
        {"id": "b", "parent": "a"},
        {"id": "c", "parent": "b"},
        {"id": "s", "parent": "c", "capacity": 4},
    ]
    model = parse_model(json.dumps({"nodes": nodes}))
    agg, witness = solve_multi(model, (1, 1, 1, 1))
    assert agg.entries == (16, 0)
    assert witness.blocks == (frozenset({"s"}),) * 4
    assert multi_aggregate(model, witness).entries == agg.entries


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


def test_solve_multi_with_ample_capacity_sums_single_blocks():
    # When every leaf can hold a replica of each block, the blocks do
    # not compete, and lexicographic order is compatible with addition:
    # the optimum is the sum of each block's single-block optimum,
    # padded at the front to the girth.
    size_lists = [(4, 1, 1), (5, 2), (2, 2, 2, 2), (4, 4, 2), (3, 3, 2), (3, 1), (6, 4, 2, 2), (12, 1)]
    rng = random.Random(22)
    for trial in range(60):
        sizes = size_lists[trial % len(size_lists)]
        girth = max(sizes)
        leaves = rng.randint(12, 300)
        generated = random_model(
            leaves, 2200 + trial, max_fanout=rng.randint(2, 12), roots=rng.randint(1, 3)
        )
        model = FailureModel(
            nodes={
                u: node._replace(capacity=rng.randint(len(sizes), len(sizes) + 1))
                if node.capacity
                else node
                for u, node in generated.nodes.items()
            }
        )
        single = {s: solve_fast(model, s)[0].entries for s in set(sizes)}
        want = [0] * (girth + 1)
        for s in sizes:
            for f, v in enumerate((0,) * (girth - s) + single[s]):
                want[f] += v
        got, witness = solve_multi(model, sizes)
        assert got.entries == tuple(want), (trial, leaves, sizes)
        assert multi_aggregate(model, witness).entries == got.entries


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
        full = MergeKernel(rho, delta, 8, (rho,) * m)
        pruned = MergeKernel(rho, delta, 8, sizes)
        domain = _signature_domain(m, rho, delta)
        for lvec in domain:
            for rvec in domain:
                kept = full.merges(full.intern(lvec), full.intern(rvec))
                want = {full.census[sid] for sid in kept if fits(full.census[sid], sizes)}
                got = pruned.merges(pruned.intern(lvec), pruned.intern(rvec))
                assert {pruned.census[sid] for sid in got} == want
                assert all(fits(pruned.census[sid], sizes) for sid in got)
                dropped += len(kept) - len(got)
    assert dropped > 0


def test_kernel_layouts_come_smallest_first(monkeypatch):
    # The walk down splits by the first layout of each census, which
    # must be its smallest, so layouts must come sorted. censuses, which
    # the up pass enumerates instead and which shares no cut with
    # layouts, gives exactly their merged censuses, packed, and merges
    # keeps those that fit the target: with the target (rho,) * m, all
    # of them.
    # A layout transposed is a layout of the reversed pair with the same
    # merged census, so censuses gives the same set both ways and merges
    # caches one list for both. The pairs: every pair of window censuses
    # for m, rho <= 4, and both orientations of every pair that a wide
    # solve hands to merges, at its natural skew and at skew 5.
    def check(kernel, left, right):
        where = (kernel.rho, kernel.delta, kernel.census[left], kernel.census[right])
        layouts = kernel.layouts(left, right)
        assert layouts == sorted(layouts), where
        sigs = {sig for _, sig in layouts}
        packed = set(map(kernel.pack, sigs))
        assert kernel.censuses(left, right) == packed == kernel.censuses(right, left), where
        kept = sorted(kernel.census[sid] for sid in kernel.merge_rows[left][right])
        assert kept == sorted(sig for sig in sigs if kernel.fits[kernel.intern(sig)]), where

    pairs = 0
    for m in range(1, 5):
        for rho in range(1, 5):
            for delta in range(1, rho + 1):
                kernel = MergeKernel(rho, delta, 8, (rho,) * m)
                domain = [kernel.intern(vec) for vec in _signature_domain(m, rho, delta)]
                for left in domain:
                    for right in domain:
                        kept = set(kernel.merges(left, right))
                        assert kept == set(kernel.merges(right, left)), (left, right)
                        check(kernel, left, right)
                        pairs += 1
    assert pairs == 16_604

    merged = []
    merges = MergeKernel.merges

    def recorded(kernel, left, right):
        merged.append((kernel, left, right))
        return merges(kernel, left, right)

    model = random_model(200, 1)
    for skew, delta, count, ordered in ((None, 4, 2_211, 4_356), (5, 5, 3_655, 7_225)):
        merged.clear()
        monkeypatch.setattr(MergeKernel, "merges", recorded)
        solve_multi(model, (6, 4, 2, 2), skew=skew)
        monkeypatch.undo()
        kernel = merged[0][0]
        both = {pair for _, left, right in merged for pair in ((left, right), (right, left))}
        for left, right in both:
            check(kernel, left, right)
        got = (kernel.bound, kernel.rho, kernel.delta, len(merged), len(both))
        assert got == ((6, 4, 2, 2), 6, delta, count, ordered)


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


@pytest.mark.parametrize(
    "leaves,sizes", [(200, (6, 4, 2, 2)), (50, (12, 1)), (2_000, (3, 3, 2))]
)
def test_solve_multi_enumerates_each_pair_once(monkeypatch, leaves, sizes):
    # The up pass enumerates each unordered pair's merged censuses once
    # and caches their ids for both orientations. The walk down, which
    # starts with the first read of a node's children (the fold up reads
    # the child array directly), enumerates the layouts of only the
    # pairs it picks, each once, and picks no more pairs than it handles
    # nodes. The narrow request's leaves hold up to two replicas.
    events = []

    def counted(name, method):
        def wrapper(self, *args):
            events.append((name, *args))
            return method(self, *args)

        return wrapper

    monkeypatch.setattr(MergeKernel, "censuses", counted("censuses", MergeKernel.censuses))
    monkeypatch.setattr(MergeKernel, "layouts", counted("layouts", MergeKernel.layouts))
    monkeypatch.setattr(Tree, "children", counted("children", Tree.children))
    solve_multi(random_model(leaves, 1, max_capacity=2 if leaves == 2_000 else 1), sizes)
    kinds = [name for name, *_ in events]
    down = kinds.index("children")
    assert "layouts" not in kinds[:down] and "censuses" not in kinds[down:]
    ups = {tuple(sorted(pair)) for _, *pair in events[:down]}
    picked = [event for event in events[down:] if event[0] == "layouts"]
    assert ups and len(ups) == down
    assert picked and len(set(picked)) == len(picked) <= kinds.count("children")


def test_solve_multi_keeps_no_layout_on_the_way_up():
    # The up pass keeps one id per merged census, no layout: the traced
    # peak of the wide request is about 1.2 MB, and 2.0 MB when every
    # kept merge held its smallest layout.
    model = random_model(200, 1)
    model.tree
    tracemalloc.start()
    try:
        solve_multi(model, (6, 4, 2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_600_000, peak


def test_solve_multi_walks_down_only_subtrees_that_hold_replicas(monkeypatch):
    # The walk down reads each node's children once, and the fold up
    # reads the child array directly, so the reads count the nodes that
    # the walk handles: at most the nodes on the witness leaves' root
    # paths, and the virtual root.
    model = random_model(10_000, 1, max_capacity=2)
    tree = model.tree
    handled = Counter()
    children = Tree.children

    def counted(self, u):
        handled[u] += 1
        return children(self, u)

    monkeypatch.setattr(Tree, "children", counted)
    _, witness = solve_multi(model, (3, 3, 2))
    on_paths = {tree.root}.union(
        *(tree.up(tree.index[leaf]) for block in witness.blocks for leaf in block)
    )
    assert 0 < sum(handled.values()) <= len(on_paths) < 100


def test_gale_ryser_refusal_runs_no_merge(monkeypatch):
    # A request that fails the Gale-Ryser test is refused before the DP,
    # and the message names the k that fails. The first request passes
    # the tests of the largest size and of the size and capacity sums.
    calls = []

    def counted(method):
        def wrapper(kernel, left, right):
            calls.append((left, right))
            return method(kernel, left, right)

        return wrapper

    monkeypatch.setattr(MergeKernel, "censuses", counted(MergeKernel.censuses))
    monkeypatch.setattr(MergeKernel, "layouts", counted(MergeKernel.layouts))
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
    with pytest.raises(InfeasibleError, match="the 2 largest blocks need 4 replicas"):
        solve_multi(model, (2, 2))
    rng = random.Random(5)
    refused = 0
    for trial in range(300):
        leaves = rng.randint(2, 7)
        model = random_model(leaves, 71_000 + trial, max_capacity=rng.randint(1, 5))
        sizes = tuple(rng.randint(1, leaves) for _ in range(rng.randint(2, 4)))
        if not sizes_fit([c for c in model.tree.capacity if c], sizes):
            with pytest.raises(InfeasibleError):
                solve_multi(model, sizes)
            refused += 1
    assert refused >= 20 and not calls


# sha256 over the objective and sorted blocks of each request below, in
# order: 2,000-leaf models, beyond the oracle and the models of
# WITNESS_DIGEST, at the natural skew and one wider.
MID_SIZE_DIGEST = "449bf0fe88bada499fe5473195eef19c6b8ed3c9957de3bdbfdb452ca80bcc54"


def test_solve_multi_mid_size_witnesses_are_pinned():
    digest = hashlib.sha256()
    for seed, roots in [(1, 1), (2, 1), (3, 3)]:
        model = random_model(2_000, seed, max_capacity=2, roots=roots)
        for sizes in [(3, 3, 2), (3, 3, 3, 3), (4, 1), (2, 2, 2)]:
            natural = target_signature(sizes)[1]
            for skew in (natural, natural + 1):
                agg, witness = solve_multi(model, sizes, skew=skew)
                assert multi_aggregate(model, witness).entries == agg.entries
                blocks = [sorted(b) for b in witness.blocks]
                digest.update(json.dumps([list(agg.entries), blocks]).encode())
    assert digest.hexdigest() == MID_SIZE_DIGEST
