"""The frozen-record base of the result types, checked against frozen dataclasses."""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import isoprof
from isoprof._record import Record
from isoprof.rokhlin import TowerFamily


class Point(Record):
    x: int
    y: Fraction
    tag: str = "p"


@dataclasses.dataclass(frozen=True)
class DataPoint:
    x: int
    y: Fraction
    tag: str = "p"


class Other(Record):
    x: int
    y: Fraction
    tag: str = "p"


def test_init_by_position_keyword_and_default():
    p = Point(1, Fraction(1, 2))
    assert (p.x, p.y, p.tag) == (1, Fraction(1, 2), "p")
    assert Point(1, y=Fraction(1, 2), tag="q").tag == "q"
    assert Point(tag="q", y=2, x=1) == Point(1, 2, "q")


def test_bad_arguments_raise_type_error():
    with pytest.raises(TypeError):
        Point(1)  # y is missing
    with pytest.raises(TypeError):
        Point(1, 2, "q", 4)
    with pytest.raises(TypeError):
        Point(1, 2, z=3)
    with pytest.raises(TypeError):
        Point(1, 2, x=3)


def test_frozen():
    p = Point(1, 2)
    with pytest.raises(AttributeError):
        p.x = 5
    with pytest.raises(AttributeError):
        p.z = 5
    with pytest.raises(AttributeError):
        del p.x
    assert p.x == 1


def test_eq_and_hash_follow_the_fields_and_the_class():
    assert Point(1, 2) == Point(1, 2)
    assert Point(1, 2) != Point(1, 3)
    assert Point(1, 2) != Other(1, 2)
    assert Point(1, 2) != (1, 2, "p")
    assert hash(Point(1, Fraction(2))) == hash(Point(1, 2))
    assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2
    with pytest.raises(TypeError):
        hash(Point(1, {}))  # like a frozen dataclass, an unhashable field


def test_repr_is_the_dataclass_repr():
    for args in ((1, Fraction(1, 2)), (-3, Fraction(7), "x'y")):
        assert repr(Point(*args)) == repr(DataPoint(*args)).replace("DataPoint", "Point")


def test_tower_family_defaults():
    tf = TowerFamily(bases=((0,),), coverage=Fraction(1, 2), epsilon_target=Fraction(1, 2),
                     success=True)
    assert tf.leftover == () and tf.fibers == ()
    assert tf == TowerFamily(((0,),), Fraction(1, 2), Fraction(1, 2), True, (), ())
    assert repr(tf).startswith("TowerFamily(bases=((0,),), coverage=Fraction(1, 2)")


def test_import_leaves_dataclasses_and_inspect_out():
    src = os.path.dirname(os.path.dirname(isoprof.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, isoprof; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False False"
