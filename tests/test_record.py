"""The immutable record base: the value semantics the frozen dataclasses it
replaced had, and their repr strings byte for byte."""

import copy
import pickle

import pytest

from monoidkit import (CutProfile, FactorWitness, FiniteMonoid, Letter,
                       OmegaPower, Power, build_expansion, cut, generator_map,
                       lemma_factor)
from monoidkit.monoid import Record
from catalog import z2


def test_records_are_equal_by_class_and_values():
    t = ((0, 1), (1, 0))
    assert CutProfile(2, t) == CutProfile(2, t)
    assert CutProfile(2, t) != CutProfile(3, t)
    assert CutProfile(2, t) != (2, t)
    assert (2, t) != CutProfile(2, t)
    assert Letter("a") == Letter("a")
    assert Letter("a") != Letter("b")
    assert Letter("a") != ("a",)
    # same field values, different classes
    assert Letter("a") != OmegaPower("a")
    assert OmegaPower(Letter("a")) != Power(Letter("a"), 1)


def test_records_are_not_sequences():
    p = CutProfile(2, ((0, 1),))
    with pytest.raises(TypeError):
        iter(p)
    with pytest.raises(TypeError):
        len(p)


def test_equal_records_hash_equal():
    a = CutProfile(2, ((0, 1), (1, 0)))
    b = CutProfile.make(2, [(1, 0), (0, 1), (1, 0)])
    assert a is not b and hash(a) == hash(b)
    assert hash(a) == hash((a.n, a.tuples))   # the tuple of the fields
    assert hash(Letter("a")) == hash(("a",))
    assert len({a, b, Letter("a"), Letter("a")}) == 2


def test_records_reject_assignment():
    M = FiniteMonoid(("1",), 0, ((0,),))
    with pytest.raises(AttributeError):
        M.identity = 1
    with pytest.raises(AttributeError):
        M.order_cache = 1
    with pytest.raises(AttributeError):
        del M.names
    assert M.identity == 0


def test_fields_by_position_and_keyword():
    table = ((0, 1), (1, 0))
    M = FiniteMonoid(("1", "g"), 0, table)
    assert M == FiniteMonoid(names=("1", "g"), identity=0, table=table)
    assert M == FiniteMonoid(table=table, identity=0, names=("1", "g"))
    with pytest.raises(TypeError):
        FiniteMonoid(("1", "g"), 0)
    with pytest.raises(TypeError):
        FiniteMonoid(("1", "g"), 0, table, None)
    with pytest.raises(TypeError):
        FiniteMonoid(("1", "g"), 0, table, order=2)
    with pytest.raises(TypeError):
        FiniteMonoid(("1", "g"), 0, table, table=table)


def test_records_copy_and_pickle():
    w = FactorWitness(1, 2, 3)
    for other in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert other == w and type(other) is FactorWitness


def test_expanded_monoid_profiles_are_cached(cat):
    E = build_expansion(*cat["z2"], 2)
    fresh = build_expansion(*cat["z2"], 2)
    before = hash(E), repr(E)
    assert E.profiles is E.profiles
    assert E.names is E.names
    assert E.profiles == tuple(map(E.profile, range(E.order)))
    assert E.names == ("P0", "P1", "P2")
    # the cached values are not fields: equality, hash and repr ignore them
    assert E == fresh and fresh == E
    assert (hash(E), repr(E)) == before == (hash(fresh), repr(fresh))
    with pytest.raises(AttributeError):
        E.n = 3
    with pytest.raises(AttributeError):
        E.profiles = ()


class Pair(Record):
    left: int
    right: int


def test_a_class_field_list_comes_from_its_own_annotations():
    assert Pair._fields == ("left", "right")
    assert Pair(1, 0) == Pair(left=1, right=0) and Pair(1, 0) != Pair(1, 1)
    assert repr(Pair(1, 0)) == "Pair(left=1, right=0)"


def test_repr_matches_the_dataclass_format():
    # strings printed by the frozen dataclasses these records replaced
    M = z2()
    assert repr(M) == ("FiniteMonoid(names=('1', 'g'), identity=0, "
                       "table=((0, 1), (1, 0)))")
    g = generator_map(M, {"a": M.element("g")})
    assert repr(cut(M, g, "aaa", 2)) == "CutProfile(n=2, tuples=((0, 1), (1, 0)))"
    assert repr(lemma_factor(["ab", "c"], ["a", "b", "c"])) == (
        "FactorWitness(i=1, j=2, offset=1)")
    assert repr(Power(Letter("a"), 2)) == "Power(base=Letter(symbol='a'), exponent=2)"
