from __future__ import annotations

import json
import random

import pytest

from fdplace.errors import ModelError
from fdplace.generate import random_model
from fdplace.metrics import (
    FailureAggregate,
    MultiPlacement,
    Placement,
    Signature,
    failure_aggregate,
    multi_aggregate,
    parse_multi_placement,
    parse_placement,
    signature_of_sizes,
)
from fdplace.model import parse_model

from conftest import fixture_path
from lemmas import (
    failure_number,
    failure_numbers,
    index_extent,
    lex_cmp,
    path_aggregate,
    shift,
    sig_stats,
    sub_signature,
)


def placement_of(*leaves: str) -> Placement:
    return Placement(leaves=frozenset(leaves))


def test_vector_lengths_are_checked():
    with pytest.raises(ValueError, match=r"^aggregate must have rho \+ 1 entries$"):
        FailureAggregate(entries=(1, 2), rho=3)
    with pytest.raises(ValueError, match=r"^signature must have rho \+ 1 entries$"):
        Signature(entries=(1, 2, 3), rho=1)


def test_str_renders_angle_brackets():
    agg = FailureAggregate(entries=(0, 1, 7, 7), rho=3)
    assert str(agg) == "<0,1,7,7>"
    assert str(Signature(entries=(2, 1, 0, 0), rho=3)) == "<2,1,0,0>"


def test_lex_cmp_orders_from_entry_zero():
    assert lex_cmp((0, 9, 9), (1, 0, 0)) == -1
    assert lex_cmp((1, 0, 0), (0, 9, 9)) == 1
    assert lex_cmp((2, 0, 3), (2, 0, 3)) == 0
    a = FailureAggregate(entries=(0, 1, 7, 7), rho=3)
    b = FailureAggregate(entries=(2, 0, 3, 10), rho=3)
    assert lex_cmp(a, b) == -1
    with pytest.raises(ValueError):
        lex_cmp((1, 2), (1, 2, 3))


def test_failure_numbers_two_rows(two_rows):
    fn = failure_numbers(two_rows, placement_of("srv4", "srv6", "srv7"))
    assert fn["srv4"] == 1
    assert fn["rack2"] == 1
    assert fn["row1"] == 1
    assert fn["row2"] == 2
    assert fn["rack1"] == 0
    assert failure_number(two_rows, "row2", placement_of("srv4", "srv6", "srv7")) == 2


def test_failure_number_rejects_bad_input(two_rows):
    with pytest.raises(ModelError):
        failure_number(two_rows, "nope", placement_of("srv1"))
    with pytest.raises(ModelError):
        failure_number(two_rows, "row1", placement_of("rack1"))
    with pytest.raises(ModelError):
        failure_numbers(two_rows, placement_of("ghost"))
    # Of many non-leaves, the refusal names the smallest id, whatever the
    # order the placement's set iterates in.
    ghosts = [f"ghost{i:02d}" for i in range(30)]
    internal = ["rack1", "rack2", "rack3", "rack4", "row1", "row2"]
    cases = ((ghosts + internal, "unknown node 'ghost00'"), (internal, "internal node 'rack1'"))
    for names, smallest in cases:
        placement = placement_of("srv1", *names)
        with pytest.raises(ModelError, match=smallest):
            failure_aggregate(two_rows, placement, len(placement))


def test_fixture_aggregates(two_rows):
    clustered = placement_of("srv7", "srv8", "srv9")
    spread = placement_of("srv4", "srv6", "srv7")
    agg_c = failure_aggregate(two_rows, clustered, 3)
    agg_s = failure_aggregate(two_rows, spread, 3)
    assert agg_c.entries == (2, 0, 3, 10)
    assert agg_s.entries == (0, 1, 7, 7)
    assert lex_cmp(agg_s, agg_c) == -1


def test_aggregate_entries_sum_to_node_count():
    rng = random.Random(7)
    for trial in range(30):
        model = random_model(leaves=rng.randint(1, 9), seed=300 + trial)
        pool = sorted(model.leaves)
        k = rng.randint(1, len(pool))
        placement = Placement(leaves=frozenset(rng.sample(pool, k)))
        rho = rng.randint(k, k + 3)
        agg = failure_aggregate(model, placement, rho)
        assert sum(agg.entries) == len(model)
        assert agg.entries[rho - k] >= 1  # the root region holds all k


def test_aggregate_rejects_rho_below_placement_size(two_rows):
    with pytest.raises(ModelError):
        failure_aggregate(two_rows, placement_of("srv1", "srv2"), 1)


def test_parse_placement():
    placement = parse_placement('{"leaves": ["a", "b"]}')
    assert placement.leaves == frozenset({"a", "b"})
    for text in ("{", "[]", "{}", '{"leaves": "a"}', '{"leaves": [1]}', '{"leaves": ["a", "a"]}'):
        with pytest.raises(ModelError):
            parse_placement(text)


def test_parse_multi_placement():
    mp = parse_multi_placement('{"blocks": [["a"], ["a", "b"]]}')
    assert mp.blocks == (frozenset({"a"}), frozenset({"a", "b"}))
    assert mp.girth() == 2
    for text in ("{}", '{"blocks": "x"}', '{"blocks": [["a", "a"]]}', '{"blocks": [3]}'):
        with pytest.raises(ModelError):
            parse_multi_placement(text)


def test_multi_aggregate_shared_tree(shared_tree):
    mp = parse_multi_placement(fixture_path("shared_tree_blocks.json").read_text())
    # Per-block aggregates at girth 3, derived by hand from the tree.
    parts = [
        failure_aggregate(shared_tree, Placement(leaves=b), 3).entries for b in mp.blocks
    ]
    assert parts == [(2, 1, 3, 4), (1, 2, 5, 2), (0, 1, 6, 3)]
    agg = multi_aggregate(shared_tree, mp)
    assert agg.entries == (3, 4, 14, 9)
    assert agg.rho == 3


def test_multi_aggregate_enforces_capacity(two_rows):
    # srv1 has capacity 1 but appears in two blocks.
    mp = MultiPlacement(blocks=(frozenset({"srv1"}), frozenset({"srv1", "srv2"})))
    with pytest.raises(ModelError):
        multi_aggregate(two_rows, mp)
    # Of 40 overfull leaves, the refusal names the smallest id, whatever
    # the order the blocks' sets iterate in.
    star = parse_model(json.dumps(
        {"nodes": [{"id": "hub", "parent": None}]
         + [{"id": f"s{i:02d}", "parent": "hub", "capacity": 1} for i in range(40)]}
    ))
    block = frozenset(f"s{i:02d}" for i in range(40))
    with pytest.raises(ModelError, match="leaf 's00' holds 2 replicas but has capacity 1"):
        multi_aggregate(star, MultiPlacement(blocks=(block, block)))


def test_sub_signature_shared_tree(shared_tree):
    mp = parse_multi_placement(fixture_path("shared_tree_blocks.json").read_text())
    assert sub_signature(shared_tree, mp, "root").entries == (2, 1, 0, 0)
    assert sub_signature(shared_tree, mp, "u").entries == (1, 0, 2, 0)
    assert sub_signature(shared_tree, mp, "w").entries == (0, 1, 1, 1)
    assert sub_signature(shared_tree, mp, "g1").entries == (0, 1, 2, 0)
    assert sub_signature(shared_tree, mp, "b").entries == (0, 0, 3, 0)
    assert sub_signature(shared_tree, mp, "e").entries == (0, 0, 1, 2)


def test_sub_signature_variant_block_list(shared_tree):
    # Swapping the third block for {b, c, e} raises its count under u
    # from one leaf to two, while under w it still covers only e.
    mp = MultiPlacement(
        blocks=(
            frozenset({"a", "b", "c"}),
            frozenset({"b", "d", "e"}),
            frozenset({"b", "c", "e"}),
        )
    )
    assert sub_signature(shared_tree, mp, "u").entries == (1, 1, 1, 0)
    assert sub_signature(shared_tree, mp, "w").entries == (0, 1, 1, 1)


def test_aggregate_equals_census_sum_on_fixture(shared_tree):
    mp = parse_multi_placement(fixture_path("shared_tree_blocks.json").read_text())
    agg = multi_aggregate(shared_tree, mp)
    total = [0] * 4
    for node_id in shared_tree.node_ids():
        sig = sub_signature(shared_tree, mp, node_id)
        for i, v in enumerate(sig.entries):
            total[i] += v
    assert tuple(total) == agg.entries


def test_signature_of_sizes():
    sig = signature_of_sizes([3, 3, 2])
    assert sig.rho == 3
    assert sig.entries == (2, 1, 0, 0)
    assert signature_of_sizes([1]).entries == (1, 0)
    with pytest.raises(ModelError):
        signature_of_sizes([])
    with pytest.raises(ModelError):
        signature_of_sizes([2, -1])


def test_sig_stats_and_extent():
    sig = Signature(entries=(0, 2, 1, 0), rho=3)
    skew, girth = sig_stats(sig)
    assert skew == 1
    assert girth == 2  # largest represented size is rho - 1
    assert index_extent(sig) == 2
    empty = Signature(entries=(0, 0), rho=1)
    assert sig_stats(empty) == (0, 0)
    assert index_extent(empty) == 0


def test_shift():
    assert shift((3, 1, 2)) == (1, 2, 0)
    assert shift((5,)) == (0,)


def test_path_aggregate_two_rows(two_rows):
    placement = placement_of("srv4", "srv6", "srv7")
    s = path_aggregate(two_rows, "row1", "srv4", placement, 3)
    # Path row1 -> rack2 -> srv4, all with failure number 1.
    assert s.entries == (0, 0, 3, 0)
    s2 = path_aggregate(two_rows, "srv4", "srv4", placement, 3)
    assert s2.entries == (0, 0, 1, 0)
    with pytest.raises(ModelError):
        path_aggregate(two_rows, "row1", "srv7", placement, 3)


def test_single_step_update_identity():
    # Adding one leaf to a placement shifts exactly the counts on the
    # path from its root, so the new aggregate is f - s + shift(s).
    rng = random.Random(11)
    for trial in range(40):
        model = random_model(leaves=rng.randint(2, 10), seed=500 + trial)
        pool = sorted(model.leaves)
        k = rng.randint(0, len(pool) - 1)
        chosen = rng.sample(pool, k)
        rest = [leaf for leaf in pool if leaf not in chosen]
        new_leaf = rng.choice(rest)
        rho = rng.randint(k + 1, k + 3)
        before = failure_aggregate(model, Placement(leaves=frozenset(chosen)), rho)
        root = model.roots[0]
        s = path_aggregate(model, root, new_leaf, Placement(leaves=frozenset(chosen)), rho)
        after = failure_aggregate(
            model, Placement(leaves=frozenset(chosen + [new_leaf])), rho
        )
        expected = tuple(
            b - sv + sh for b, sv, sh in zip(before.entries, s.entries, shift(s.entries))
        )
        assert after.entries == expected
