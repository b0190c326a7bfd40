from functools import cached_property

import pytest

from reductive_workbench.record import Record


class Point(Record):
    x: int
    y: int = 0


class Other(Record):
    x: int
    y: int = 0


class Tagged(Record, uncompared=("note",)):
    value: int
    note: str = ""


class Node(Record, eq=False, uncompared=("cache",)):
    name: str
    cache: dict


class Square(Record):
    side: int

    @cached_property
    def area(self) -> int:
        return self.side * self.side


def test_fields_come_from_the_annotations_in_order():
    p = Point(1, 2)
    assert (p.x, p.y) == (1, 2) and p == Point(y=2, x=1)
    assert repr(p) == "Point(x=1, y=2)"


@pytest.mark.parametrize("name", ["x", "y", "z"])
def test_assigning_or_deleting_an_attribute_raises(name):
    p = Point(1, 2)
    with pytest.raises(AttributeError):
        setattr(p, name, 5)
    with pytest.raises(AttributeError):
        delattr(p, name)
    assert (p.x, p.y) == (1, 2)


def test_equality_holds_within_one_class_only():
    assert Point(1, 2) == Point(x=1, y=2)
    assert Point(1, 2) != Point(1, 3)
    assert Point(1, 2) != Other(1, 2)
    assert Point(1, 2).__eq__((1, 2)) is NotImplemented
    assert hash(Point(1, 2)) == hash((1, 2))
    assert len({Point(1, 2), Point(1, 2), Other(1, 2)}) == 2


def test_uncompared_fields_are_left_out_of_equality_hash_and_repr():
    a, b = Tagged(3, "first"), Tagged(3, "second")
    assert a == b and hash(a) == hash(b)
    assert a != Tagged(4, "first")
    assert a.note == "first"
    assert repr(a) == "Tagged(value=3)"
    assert repr(Point(1, y=-2)) == "Point(x=1, y=-2)"


def test_eq_false_gives_identity_equality_and_hashing():
    a, b = Node("n", {}), Node("n", {})
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2
    assert repr(a) == "Node(name='n')"


def test_replace_and_defaults():
    p = Point(1)
    assert p.y == 0
    q = p.replace(y=5)
    assert q == Point(1, 5) and p == Point(1, 0)
    assert type(Tagged(1, "a").replace(value=2)) is Tagged
    assert Tagged(1, "a").replace(value=2).note == "a"
    with pytest.raises(TypeError):
        p.replace(z=1)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((), {}),  # x missing
        ((1,), {"z": 2}),  # unknown field
        ((1,), {"x": 2}),  # x given twice
        ((1, 2, 3), {}),  # too many positional fields
    ],
    ids=["missing", "unknown", "repeated", "too_many"],
)
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_uncompared_must_name_a_field():
    with pytest.raises(TypeError):

        class Bad(Record, uncompared=("nope",)):
            x: int


def test_cached_property_works_on_a_frozen_record():
    s = Square(3)
    assert s.area == 9 and s.area is s.__dict__["area"]
    assert s == Square(3) and hash(s) == hash(Square(3))
    with pytest.raises(AttributeError):
        s.side = 4
