"""The package's value types: construction, repr, equality, hashing,
pickling and immutability."""

from __future__ import annotations

import pickle

import pytest

from fdplace.metrics import FailureAggregate, MultiPlacement, Placement, Signature
from fdplace.model import Node, SubtreeStats
from fdplace.multi import PhiTable
from fdplace.oracle import BalanceViolation
from fdplace.single import ChildValuePair, LabelResult

# Two equal instances and an unequal one of each hashable value type,
# built positionally, by keyword and mixed.
HASHABLE = [
    (FailureAggregate((0, 1), 1), FailureAggregate(entries=(0, 1), rho=1), FailureAggregate((1, 0), 1)),
    (Signature((2, 0), 1), Signature(entries=(2, 0), rho=1), Signature((0, 2), 1)),
    (Placement(frozenset("ab")), Placement(leaves=frozenset("ba")), Placement(frozenset("a"))),
    (
        MultiPlacement((frozenset("a"), frozenset("b"))),
        MultiPlacement(blocks=(frozenset("a"), frozenset("b"))),
        MultiPlacement((frozenset("b"), frozenset("a"))),
    ),
    (
        LabelResult(frozenset({0}), frozenset({1, 2}), 3, 1),
        LabelResult(filled=frozenset({0}), unfilled=frozenset({1, 2}), remaining=3, heavy_count=1),
        LabelResult(frozenset({0}), frozenset({1, 2}), 4, 0),
    ),
    (ChildValuePair((0, 1), (1, 0)), ChildValuePair(light=(0, 1), heavy=(1, 0)), ChildValuePair((0, 1), (0, 1))),
    (
        BalanceViolation("r", "a", "b", 0, 2),
        BalanceViolation(node="r", light_child="a", heavy_child="b", light_count=0, heavy_count=2),
        BalanceViolation("r", "a", "c", 0, 2),
    ),
    (Node("s", "r", 1), Node(id="s", parent="r", capacity=1), Node("s", "r", 2)),
]


def test_repr_names_the_fields():
    # str() is pinned in test_metrics.
    assert repr(FailureAggregate((0, 1), 1)) == "FailureAggregate(entries=(0, 1), rho=1)"
    assert repr(Node("s", None, 1)) == "Node(id='s', parent=None, capacity=1)"


@pytest.mark.parametrize("same, twin, other", HASHABLE, ids=lambda v: type(v).__name__)
def test_equality_and_hash(same, twin, other):
    assert same == twin and hash(same) == hash(twin)
    assert same != other
    assert len({same, twin, other}) == 2
    assert pickle.loads(pickle.dumps(same)) == same


def test_values_of_different_types_differ():
    # Equal fields do not make an aggregate equal to a signature.
    assert FailureAggregate((0, 1), 1) != Signature((0, 1), 1)
    assert Placement(frozenset("a")) != (frozenset("a"),)


@pytest.mark.parametrize("value", [same for same, _twin, _other in HASHABLE if not isinstance(same, Node)])
def test_values_are_immutable(value):
    name = value.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_tables_compare_by_value():
    stats = SubtreeStats({"a": 1}, {"a": 1}, {"a": 0}, {"a": "a"})
    assert stats == SubtreeStats({"a": 1}, {"a": 1}, {"a": 0}, {"a": "a"})
    assert PhiTable(1, 2, 1, {}, {}) != PhiTable(1, 2, 2, {}, {})
    with pytest.raises(TypeError):
        hash(stats)

