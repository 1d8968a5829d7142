"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single "criterion N: PASS" line once its assertions
hold, so a -s run reads as a checklist. Expected values are either
frozen constants or recomputed through the exhaustive oracles.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from fdplace.cli import main
from fdplace.errors import GuardLimitError, InfeasibleError
from fdplace.generate import random_model
from fdplace.metrics import MultiPlacement, Placement, failure_aggregate, multi_aggregate
from fdplace.model import parse_model, render_model
from fdplace.multi import build_phi, solve_multi, target_signature
from fdplace.oracle import check_balanced, oracle_multi, oracle_single
from fdplace.single import label_children, solve_basic, solve_fast, solve_greedy

from conftest import fixture_path, load_json
from lemmas import band_cell_count, lex_cmp, path_aggregate, shift, sig_stats, sub_signature


def run_eval(capsys, model_name: str, placement_name: str, rho: int) -> list[int]:
    code = main(
        [
            "eval",
            str(fixture_path(model_name)),
            "--placement",
            str(fixture_path(placement_name)),
            "--rho",
            str(rho),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)["objective"]


def test_criterion_01_reference_scenarios(capsys):
    clustered = run_eval(capsys, "two_rows.json", "two_rows_clustered.json", 3)
    spread = run_eval(capsys, "two_rows.json", "two_rows_spread.json", 3)
    assert clustered == [2, 0, 3, 10]
    assert spread == [0, 1, 7, 7]
    assert lex_cmp(tuple(spread), tuple(clustered)) < 0
    print("criterion 1: PASS (clustered <2,0,3,10>, spread <0,1,7,7>, spread wins)")


def test_criterion_02_labeling_trace():
    case = load_json("uneven_racks.json")
    caps = case["capacities"]
    filled, unfilled, remaining, heavy_count = label_children(caps, case["replicas"])
    assert {caps[i] for i in filled} == {1, 2, 4}
    assert {caps[i] for i in unfilled} == {5, 9, 11}
    assert remaining // len(unfilled) == 4
    assert heavy_count == 1
    assert remaining == 13
    # Sandwich bounds: max filled cap <= remaining/|U| < min unfilled cap.
    assert 4 * 3 <= 13 < 5 * 3
    print(
        "criterion 2: PASS (filled {1,2,4}, unfilled {5,9,11}, base 4, one heavy)"
    )


def test_criterion_03_single_block_oracle_equivalence():
    solvers = [solve_basic, solve_fast, solve_greedy]
    rng = random.Random(2024)
    checked = 0
    for trial in range(200):
        leaves = rng.randint(2, 12)
        model = random_model(
            leaves=leaves,
            seed=10_000 + trial,
            max_fanout=4,
            roots=rng.choice((1, 1, 1, 2)),
        )
        for rho in range(1, leaves + 1):
            ref, _ = oracle_single(model, rho)
            for solver in solvers:
                agg, placement = solver(model, rho)
                assert agg.entries == ref.entries, (trial, rho, solver.__name__)
                assert check_balanced(model, placement) == [], (
                    trial,
                    rho,
                    solver.__name__,
                )
            checked += 1
    print(f"criterion 3: PASS (200 models, {checked} (model, rho) pairs, 3 solvers)")


def test_criterion_04_fast_differential_and_smoke_bound():
    rng = random.Random(404)
    worst = 0.0
    for trial in range(50):
        leaves = rng.randint(65, 2000)
        model = random_model(leaves=leaves, seed=20_000 + trial, max_fanout=4)
        rho = rng.randint(1, 64)
        started = time.perf_counter()
        fast_agg, placement = solve_fast(model, rho)
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        assert elapsed < 1.0, (trial, leaves, rho, elapsed)
        basic_agg, _ = solve_basic(model, rho)
        assert fast_agg.entries == basic_agg.entries, (trial, leaves, rho)
        assert failure_aggregate(model, placement, rho).entries == fast_agg.entries
    print(
        f"criterion 4: PASS (50 models up to 2000 leaves, "
        f"slowest fast solve {worst * 1000:.1f} ms)"
    )


REFERENCE_SIG = (0, 2, 4, 3, 0, 0)
REFERENCE_ROWS = (0, 0, 2, 5, 2, 0)
REFERENCE_COLS = (0, 0, 0, 2, 4, 3)
REFERENCE_SUPPORT_A = (
    (2, 4, 1),
    (2, 5, 1),
    (3, 3, 1),
    (3, 4, 2),
    (3, 5, 2),
    (4, 3, 1),
    (4, 4, 1),
)
REFERENCE_SUPPORT_B = (
    (2, 5, 2),
    (3, 3, 2),
    (3, 4, 2),
    (3, 5, 1),
    (4, 4, 2),
)


def spread_of(vec: tuple[int, ...]) -> int:
    nonzero = [i for i, v in enumerate(vec) if v]
    return nonzero[-1] - nonzero[0] if nonzero else 0


def brute_force_phi(m: int, rho: int, delta: int):
    """Enumerate every multiset of m merge cells directly and keep the
    triples whose three censuses all fit the skew bound."""
    cells = [
        (i, j)
        for i in range(rho + 1)
        for j in range(rho + 1)
        if i + j >= rho
    ]
    pairs: dict[tuple, set] = {}
    supports: dict[tuple, set] = {}
    for combo in itertools.combinations_with_replacement(cells, m):
        row = [0] * (rho + 1)
        col = [0] * (rho + 1)
        diag = [0] * (rho + 1)
        counts: dict[tuple[int, int], int] = {}
        for i, j in combo:
            row[i] += 1
            col[j] += 1
            diag[i + j - rho] += 1
            counts[(i, j)] = counts.get((i, j), 0) + 1
        sig, left, right = tuple(diag), tuple(row), tuple(col)
        if max(spread_of(sig), spread_of(left), spread_of(right)) > delta:
            continue
        support = tuple((i, j, v) for (i, j), v in sorted(counts.items()))
        pairs.setdefault(sig, set()).add((left, right))
        supports.setdefault((sig, left, right), set()).add(support)
    return pairs, supports


def test_criterion_05_phi_table():
    table = build_phi(9, 5, 2)

    # The reference split of nine blocks at girth 5, skew 2, in both
    # orientations, realized by both drawn cell layouts.
    splits = table.pairs[REFERENCE_SIG]
    assert (REFERENCE_ROWS, REFERENCE_COLS) in splits
    assert (REFERENCE_COLS, REFERENCE_ROWS) in splits
    stored = {
        tuple(sorted(sup))
        for sup in table.supports[(REFERENCE_SIG, REFERENCE_ROWS, REFERENCE_COLS)]
    }
    assert tuple(sorted(REFERENCE_SUPPORT_A)) in stored
    assert tuple(sorted(REFERENCE_SUPPORT_B)) in stored

    # The same census shifted right by one slot cannot pair with this
    # split: the split stores 8 + 18 = 26 replicas while the shifted
    # census holds 17, so no cell layout realizes it.
    shifted_sig = (0, 0, 2, 4, 3, 0)

    def stored_replicas(vec):
        return sum((5 - k) * v for k, v in enumerate(vec))

    assert stored_replicas(shifted_sig) == 17
    assert stored_replicas(REFERENCE_ROWS) + stored_replicas(REFERENCE_COLS) == 26
    assert stored_replicas(REFERENCE_SIG) == 26
    assert (REFERENCE_ROWS, REFERENCE_COLS) not in table.pairs.get(shifted_sig, set())

    # Constructive soundness: every stored support rebuilds its key and
    # uses m blocks on valid cells.
    for (sig, left, right), sups in table.supports.items():
        for sup in sups:
            row = [0] * 6
            col = [0] * 6
            diag = [0] * 6
            total = 0
            for i, j, v in sup:
                assert 0 <= i <= 5 and 0 <= j <= 5 and v >= 1
                assert i + j >= 5
                row[i] += v
                col[j] += v
                diag[i + j - 5] += v
                total += v
            assert total == 9
            assert (tuple(diag), tuple(row), tuple(col)) == (sig, left, right)

    # Completeness against direct enumeration at desk scale.
    combos = 0
    for m in range(1, 5):
        for rho in range(1, 5):
            for delta in range(1, min(2, rho) + 1):
                got = build_phi(m, rho, delta)
                want_pairs, want_supports = brute_force_phi(m, rho, delta)
                assert got.pairs == want_pairs, (m, rho, delta)
                normalized = {
                    key: {tuple(sorted(sup)) for sup in sups}
                    for key, sups in got.supports.items()
                }
                assert normalized == want_supports, (m, rho, delta)
                combos += 1
    print(
        f"criterion 5: PASS (reference triple with both layouts, "
        f"soundness over {sum(len(s) for s in table.supports.values())} supports, "
        f"completeness on {combos} parameter combos)"
    )


def test_criterion_06_band_cell_counts():
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
    # The quadratic shortcut (3*delta^2+delta)/2 + d*(delta+2-d) + 2 is
    # rejected by this very count: at delta=2, d=1 it gives 12, not 6.
    shortcut = (3 * 2**2 + 2) // 2 + 1 * (2 + 2 - 1) + 2
    assert shortcut == 12
    assert band_cell_count(2, 1) != shortcut
    print("criterion 6: PASS (direct counts for all skews <= 6; 6/7/6 at skew 2)")


def random_multi_instance(trial: int, rng: random.Random):
    leaves = rng.randint(3, 10)
    model = random_model(
        leaves=leaves,
        seed=30_000 + trial,
        max_fanout=3,
        max_capacity=rng.choice((1, 2)),
    )
    m = rng.randint(1, 3)
    sizes = tuple(rng.randint(1, 3) for _ in range(m))
    return model, sizes


def test_criterion_07_multi_block_oracle_equivalence():
    rng = random.Random(707)
    done = 0
    trial = 0
    while done < 100:
        trial += 1
        model, sizes = random_multi_instance(trial, rng)
        try:
            ref, _ = oracle_multi(model, sizes)
        except GuardLimitError:
            continue
        except InfeasibleError:
            try:
                solve_multi(model, sizes)
            except InfeasibleError:
                continue
            raise AssertionError(f"solver accepted an infeasible instance: {sizes}")
        agg, witness = solve_multi(model, sizes)
        assert agg.entries == ref.entries, (trial, sizes)

        # Capacity constraints.
        usage: dict[str, int] = {}
        for block in witness.blocks:
            for leaf in block:
                usage[leaf] = usage.get(leaf, 0) + 1
        for leaf, used in usage.items():
            assert used <= model.nodes[leaf].capacity, (trial, leaf)

        # Target signature: the witness block sizes are the asked sizes.
        assert sorted(len(b) for b in witness.blocks) == sorted(sizes), trial

        # Per-node census skew stays within the bound the solver used.
        _, natural = target_signature(sizes)
        delta = min(natural, max(sizes))
        for node_id in model.nodes:
            skew, _ = sig_stats(sub_signature(model, witness, node_id))
            assert skew <= delta, (trial, node_id)

        # Objective is invariant under reshuffling children orders.
        doc = json.loads(render_model(model))
        rng.shuffle(doc["nodes"])
        shuffled = parse_model(json.dumps(doc))
        again, _ = solve_multi(shuffled, sizes)
        assert again.entries == agg.entries, trial
        done += 1
    print(f"criterion 7: PASS (100 instances in {trial} draws, witnesses verified)")


def random_blocks(model, rng: random.Random) -> MultiPlacement | None:
    leaves = sorted(model.leaves)
    budget = {leaf: model.nodes[leaf].capacity for leaf in leaves}
    blocks = []
    for _ in range(rng.randint(1, 3)):
        open_leaves = [leaf for leaf in leaves if budget[leaf] > 0]
        if not open_leaves:
            break
        size = rng.randint(1, min(3, len(open_leaves)))
        chosen = rng.sample(open_leaves, size)
        for leaf in chosen:
            budget[leaf] -= 1
        blocks.append(frozenset(chosen))
    if not blocks:
        return None
    return MultiPlacement(blocks=tuple(blocks))


def test_criterion_08_aggregate_decomposes_into_censuses():
    rng = random.Random(808)
    done = 0
    trial = 0
    while done < 500:
        trial += 1
        model = random_model(
            leaves=rng.randint(2, 9),
            seed=40_000 + trial,
            max_fanout=3,
            max_capacity=rng.choice((1, 2)),
            roots=rng.choice((1, 1, 2)),
        )
        mp = random_blocks(model, rng)
        if mp is None:
            continue
        agg = multi_aggregate(model, mp)
        rho = mp.girth()
        total = [0] * (rho + 1)
        for node_id in model.nodes:
            census = sub_signature(model, mp, node_id)
            for k, v in enumerate(census.entries):
                total[k] += v
        assert tuple(total) == agg.entries, trial
        done += 1
    print("criterion 8: PASS (500 samples, aggregate equals the census sum)")


def test_criterion_09_path_update_identities():
    rng = random.Random(909)
    done = 0
    trial = 0
    while done < 500:
        trial += 1
        leaves_n = rng.randint(3, 10)
        model = random_model(leaves=leaves_n, seed=50_000 + trial, max_fanout=3)
        root = model.roots[0]
        leaves = sorted(model.leaves)
        size = rng.randint(1, leaves_n - 2) if leaves_n > 2 else 1
        if size + 2 > leaves_n:
            continue
        picked = rng.sample(leaves, size + 2)
        placement = Placement(leaves=frozenset(picked[:size]))
        u, v = picked[size], picked[size + 1]
        rho = rng.randint(size + 1, leaves_n)

        base = failure_aggregate(model, placement, rho)
        s_u = path_aggregate(model, root, u, placement, rho).entries
        s_v = path_aggregate(model, root, v, placement, rho).entries

        with_u = failure_aggregate(
            model, Placement(leaves=placement.leaves | {u}), rho
        )
        with_v = failure_aggregate(
            model, Placement(leaves=placement.leaves | {v}), rho
        )

        # Adding one replica rewrites exactly the path above it: every
        # node on the path moves one census slot to the left.
        expected_u = tuple(
            b - s + t for b, s, t in zip(base.entries, s_u, shift(s_u))
        )
        assert expected_u == with_u.entries, trial
        expected_v = tuple(
            b - s + t for b, s, t in zip(base.entries, s_v, shift(s_v))
        )
        assert expected_v == with_v.entries, trial

        # Comparing two candidate paths is the same as comparing the two
        # extended placements.
        path_order = lex_cmp(s_u, s_v)
        full_order = lex_cmp(with_u.entries, with_v.entries)
        assert (path_order <= 0) == (full_order <= 0), trial
        assert (path_order == 0) == (full_order == 0), trial
        done += 1
    print("criterion 9: PASS (500 samples, update identity and path ordering)")


def test_criterion_10_single_block_reduction():
    rng = random.Random(1010)
    for trial in range(100):
        leaves = rng.randint(2, 10)
        model = random_model(
            leaves=leaves,
            seed=60_000 + trial,
            max_fanout=3,
            max_capacity=rng.choice((1, 2)),
        )
        k = rng.randint(1, min(4, leaves))
        multi_agg, witness = solve_multi(model, (k,))
        basic_agg, _ = solve_basic(model, k)
        assert multi_agg.entries == basic_agg.entries, (trial, k)
        (block,) = witness.blocks
        assert len(block) == k
    print("criterion 10: PASS (100 instances, single-block solver agreement)")
