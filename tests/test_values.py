"""The value types' behaviour as values: construction by position and by
field name, equality and hashing over the fields, repr text, immutability
and pickling."""

import pickle

import pytest

from rectangular.census import CensusResult
from rectangular.core import (
    BoolMatrix,
    FiniteGroup,
    GraphPair,
    Groupoid,
    IsotopyTriple,
    Mapping,
    Partition,
    PartialArray,
    PartitionSystem,
    Permutation,
    Transversal,
)

SWAP = Permutation((1, 0))
IDENTITY = Permutation((0, 1))
HALVES = Partition(4, ((0, 1), (2, 3)))
CROSS = Partition(4, ((0, 2), (1, 3)))

# (class, field values, repr of the value built from them)
VALUES = [
    (Groupoid, {"order": 1, "table": ((0,),)}, "Groupoid(order=1, table=((0,),))"),
    (GraphPair, {"order": 2, "red": (1, 2), "green": (3, 0)},
     "GraphPair(order=2, red=(1, 2), green=(3, 0))"),
    (BoolMatrix, {"order": 2, "rows": (3, 1)}, "BoolMatrix(order=2, rows=(3, 1))"),
    (PartialArray, {"order": 2, "cells": ((0, None), (None, 1))},
     "PartialArray(order=2, cells=((0, None), (None, 1)))"),
    (Permutation, {"images": (1, 0)}, "Permutation(images=(1, 0))"),
    (IsotopyTriple, {"alpha": SWAP, "beta": IDENTITY, "gamma": SWAP},
     "IsotopyTriple(alpha=Permutation(images=(1, 0)), beta=Permutation(images=(0, 1)), "
     "gamma=Permutation(images=(1, 0)))"),
    (Partition, {"order": 3, "blocks": ((0, 2), (1,))},
     "Partition(order=3, blocks=((0, 2), (1,)))"),
    (PartitionSystem, {"base": HALVES, "companions": (CROSS, CROSS)},
     "PartitionSystem(base=Partition(order=4, blocks=((0, 1), (2, 3))), "
     "companions=(Partition(order=4, blocks=((0, 2), (1, 3))), "
     "Partition(order=4, blocks=((0, 2), (1, 3)))))"),
    (FiniteGroup, {"order": 2, "table": ((0, 1), (1, 0))},
     "FiniteGroup(order=2, table=((0, 1), (1, 0)))"),
    (Transversal, {"order": 2, "cells": ((0, 1), (1, 0))},
     "Transversal(order=2, cells=((0, 1), (1, 0)))"),
    (Mapping, {"images": (0, 0), "codomain": 1}, "Mapping(images=(0, 0), codomain=1)"),
    (CensusResult, {"order": 1, "mode": "labeled", "count": 1, "tables": None, "note": None},
     "CensusResult(order=1, mode='labeled', count=1, tables=None, note=None)"),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, text):
    by_position = cls(*fields.values())
    by_name = cls(**fields)
    assert by_position == by_name
    assert [getattr(by_name, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=IDS)
def test_equal_values_hash_as_the_tuple_of_their_fields(cls, fields, text):
    a, b = cls(**fields), cls(**fields)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=IDS)
def test_repr_names_every_field(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=IDS)
def test_assignment_and_deletion_raise(cls, fields, text):
    value = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(**fields)


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=IDS)
def test_pickle_round_trip(cls, fields, text):
    value = cls(**fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert type(copy) is cls and copy == value and repr(copy) == text


def test_values_of_different_classes_differ():
    table = ((0, 1), (1, 0))
    g, group = Groupoid(2, table), FiniteGroup(2, table)
    assert g != group and group != g
    assert g.table == group.table
    assert BoolMatrix(2, (3, 1)) != GraphPair(2, (3, 1), (3, 1))
    assert Permutation((0, 1)) != Mapping((0, 1), 2)
    assert Groupoid(1, ((0,),)) != (1, ((0,),))


def test_defaults_and_normalized_fields():
    assert CensusResult(2, "labeled", 0, None).note is None
    assert Partition(3, [[2, 0], [1]]).blocks == ((0, 2), (1,))
    assert Groupoid(2, [[0, 1], [1, 0]]).table == ((0, 1), (1, 0))
    assert Permutation([1, 0]).images == (1, 0)
    assert PartitionSystem(HALVES, [CROSS, CROSS]).companions == (CROSS, CROSS)


def test_partition_block_index_is_cached():
    p = Partition(4, ((3, 1), (0, 2)))
    assert p.block_index == (0, 1, 0, 1)
    assert p.block_index is p.block_index
    assert [p.block_of(x) for x in range(4)] == [0, 1, 0, 1]
    assert p == Partition(4, ((0, 2), (1, 3)))
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and copy.block_index == (0, 1, 0, 1)


def test_finite_group_identity():
    group = FiniteGroup(3, ((1, 2, 0), (2, 0, 1), (0, 1, 2)))
    assert group.identity == 2
    assert group.mul(0, 1) == 2
    copy = pickle.loads(pickle.dumps(group))
    assert copy.identity == 2 and copy == group
    with pytest.raises(AttributeError):
        group.identity = 0
