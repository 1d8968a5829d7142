"""Multi-block differential sweep beyond criterion 7.

Criterion 7 draws single-root models at the natural skew with leaf
capacities up to 2. This sweep adds forests of two and three roots,
census windows one and two classes wider than the natural bound, leaf
capacities up to 3, and size lists with a wide spread such as (5, 1).
A wider window never beats the exhaustive optimum, so every objective
must equal the oracle's wherever its guard lets it run.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

from fdplace.errors import GuardLimitError, InfeasibleError
from fdplace.generate import random_model
from fdplace.metrics import multi_aggregate
from fdplace.multi import solve_multi, target_signature
from fdplace.oracle import oracle_multi

from lemmas import sig_stats, sub_signature

WIDE_SIZES = ((5, 1), (4, 1), (5, 2), (4, 1, 1), (3, 1, 1))


def draw(trial: int, rng: random.Random):
    leaves = rng.randint(4, 9)
    roots = rng.choice((1, 2, 3))
    model = random_model(
        leaves=leaves,
        seed=90_000 + trial,
        max_fanout=3,
        max_capacity=rng.randint(1, 3),
        roots=roots,
    )
    if rng.random() < 0.3:
        sizes = rng.choice(WIDE_SIZES)
    else:
        sizes = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
    widen = rng.choice((0, 1, 2))
    natural = target_signature(sizes)[1]
    return model, sizes, widen, (natural + widen if widen else None)


def check_witness(model, sizes, skew, agg, witness) -> None:
    assert sorted(len(b) for b in witness.blocks) == sorted(sizes)
    usage = Counter(leaf for block in witness.blocks for leaf in block)
    for leaf, used in usage.items():
        assert used <= model.nodes[leaf].capacity, leaf
    assert multi_aggregate(model, witness).entries == agg.entries
    natural = target_signature(sizes)[1]
    delta = min(skew if skew is not None else natural, max(sizes))
    for node_id in model.nodes:
        spread, _ = sig_stats(sub_signature(model, witness, node_id))
        assert spread <= delta, node_id


# sha256 over every trial's witness, blocks as sorted id lists in block
# order: any change to which optimum the solver returns shows here.
WITNESS_DIGEST = "a65dfb62c08b0c70bd7c0dde79f3e02fcc758e059528454926dcfea471dc4966"


def test_multi_block_differential_on_forests_and_wide_windows():
    rng = random.Random(2024)
    compared = Counter()
    digest = hashlib.sha256()
    for trial in range(1, 701):
        model, sizes, widen, skew = draw(trial, rng)
        try:
            ref, _ = oracle_multi(model, sizes, guard=100_000)
        except GuardLimitError:
            ref = None
        except InfeasibleError:
            try:
                solve_multi(model, sizes, skew=skew)
            except InfeasibleError:
                continue
            raise AssertionError(f"trial {trial}: solver accepted infeasible {sizes}")
        agg, witness = solve_multi(model, sizes, skew=skew)
        check_witness(model, sizes, skew, agg, witness)
        digest.update(json.dumps([sorted(b) for b in witness.blocks]).encode())
        if ref is None:
            continue
        assert agg.entries == ref.entries, (trial, sizes, skew)
        compared["all"] += 1
        compared[f"roots={len(model.roots)}"] += 1
        compared[f"widen={widen}"] += 1
        if max(model.nodes[leaf].capacity for leaf in model.leaves) == 3:
            compared["capacity=3"] += 1
        if sizes in WIDE_SIZES:
            compared["wide sizes"] += 1
    for kind in ("roots=2", "roots=3", "widen=1", "widen=2", "capacity=3", "wide sizes"):
        assert compared[kind] >= 10, (kind, compared)
    assert digest.hexdigest() == WITNESS_DIGEST
    print(f"multi differential: {dict(compared)}")
