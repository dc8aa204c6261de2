import pickle
from functools import cached_property, lru_cache

import pytest

from arrinv._record import record
from arrinv.arrangement import Flat2, MultiArrangement, make_arrangement
from arrinv.catalog import builtin
from arrinv.errors import DomainError
from arrinv.formulas import RankTable
from arrinv.jumploci import LinearComponent, TorusComponent


def test_equal_values_are_equal_and_hash_equal():
    a, b = builtin("x3"), make_arrangement(builtin("x3").normals, builtin("x3").labels)
    assert a is not b and a == b and hash(a) == hash(b)
    assert Flat2((0, 1, 2)) == Flat2((0, 1, 2)) != Flat2((0, 1, 3))
    assert len({Flat2((0, 1)), Flat2((0, 1)), Flat2((1, 2))}) == 2
    # the hash is that of the field tuple, as for a frozen dataclass
    assert hash(Flat2((0, 1))) == hash(((0, 1),))

    @lru_cache(maxsize=None)
    def size(arr):
        return arr.n

    assert size(a) == size(b) == 6
    assert size.cache_info().hits == 1


def test_records_of_different_classes_are_unequal():
    linear, torus = LinearComponent((0, 1, 2), 2), TorusComponent((0, 1, 2), 2)
    assert linear != torus and not linear == torus
    assert linear == LinearComponent(support=(0, 1, 2), dimension=2)
    assert Flat2((0, 1, 2)) != (0, 1, 2)


def test_fields_are_frozen():
    flat = Flat2((0, 1, 2))
    with pytest.raises(AttributeError):
        flat.members = (0, 1)
    with pytest.raises(AttributeError):
        flat.extra = 1
    with pytest.raises(AttributeError):
        del flat.members
    assert flat.members == (0, 1, 2)


@record
class Point:
    x: int
    y: int
    label: str


def test_keyword_construction_and_defaults():
    assert Point(1, 0, "p") == Point(1, 0, label="p") == Point(label="p", x=1, y=0)
    assert repr(Point(2, y=3, label="q")) == "Point(x=2, y=3, label='q')"
    with pytest.raises(TypeError):
        Point()
    with pytest.raises(TypeError):
        Point(1, 0)
    with pytest.raises(TypeError):
        Point(1, 0, "p", x=2)
    with pytest.raises(TypeError):
        Point(1, 0, "p", z=2)
    with pytest.raises(TypeError):
        Point(1, 2, "p", 4)
    table = RankTable(kind="chen", values={1: 3, 2: 1})
    assert table == RankTable("chen", {1: 3, 2: 1}) and table.as_tuple() == (3, 1)


def test_post_init_refusals_still_fire():
    arr = builtin("x3")
    assert MultiArrangement(arr, (1,) * 6).total == 6
    with pytest.raises(DomainError):
        MultiArrangement(arr, (1,) * 5)
    with pytest.raises(ValueError):
        RankTable("spectral", {1: 3})
    with pytest.raises(ValueError):
        LinearComponent((0, 1), 1)


def test_repr_is_the_dataclass_format():
    assert repr(Flat2((0, 1, 2))) == "Flat2(members=(0, 1, 2))"
    assert repr(RankTable("lcs", {1: 3})) == "RankTable(kind='lcs', values={1: 3})"


@record
class Span:
    low: int
    high: int

    @cached_property
    def values(self) -> tuple[int, ...]:
        return tuple(range(self.low, self.high))


def test_cached_property_and_pickle():
    span = Span(2, 5)
    assert span.values == (2, 3, 4)
    assert span.values is span.values
    # the cached value is no field: equality and the hash read the fields alone
    assert span == Span(2, 5) and hash(span) == hash(Span(2, 5))
    arr = builtin("x3")
    assert pickle.loads(pickle.dumps(arr)) == arr
