"""The package's six immutable value types, pinned: reprs, equality, hashing,
immutability, defaults, keyword construction, copies and match patterns."""

import copy
import pickle

import pytest

from hyperq import (HermitianForm, MacaulayRep, QuadricMap, SignedRealPoly, WeightedHoloMap, decompose,
                    embedding, form_from_entries, identity_map, macaulay_rep)


def _gr(re):
    return f"GaussianRational(Fraction({re}, 1), Fraction(0, 1))"


def _form():
    return form_from_entries(1, [((1,), (1,), 2), ((0,), (0,), -1)])


_HOLO = (f"WeightedHoloMap(n=1, components=((1, Fraction(2, 1), {{(1,): {_gr(1)}}}), "
         f"(-1, Fraction(1, 1), {{(0,): {_gr(1)}}})))")
_IDENTITY = (f"WeightedHoloMap(n=2, components=((1, Fraction(1, 1), {{(1, 0): {_gr(1)}}}), "
             f"(-1, Fraction(1, 1), {{(0, 1): {_gr(1)}}})))")

# (make a value, make an unequal value of the same class, its repr, its fields, hashable)
CASES = {
    "MacaulayRep": (lambda: macaulay_rep(10, 3), lambda: macaulay_rep(11, 3),
                    "MacaulayRep(c=10, d=3, ks=(5, 1, 0))", ("c", "d", "ks"), True),
    "HermitianForm": (_form, lambda: HermitianForm(1),
                      f"HermitianForm(n=1, entries={{((1,), (1,)): {_gr(2)}, ((0,), (0,)): {_gr(-1)}}})",
                      ("n", "entries"), False),
    "WeightedHoloMap": (lambda: decompose(_form()), lambda: WeightedHoloMap(1, ()), _HOLO, ("n", "components"), False),
    "SignedRealPoly": (lambda: SignedRealPoly(1, 1, {(2, 0): 1, (0, 2): -1}), lambda: SignedRealPoly(1, 1, {}),
                       "SignedRealPoly(a=1, b=1, terms={(2, 0): Fraction(1, 1), (0, 2): Fraction(-1, 1)})",
                       ("a", "b", "terms"), False),
    "QuadricMap": (lambda: identity_map(1, 1), lambda: identity_map(2, 1),
                   f"QuadricMap(a=1, b=1, homogeneous=False, components={_IDENTITY}, denominator=None)",
                   ("a", "b", "homogeneous", "components", "denominator"), False),
    "AffineEmbedding": (lambda: embedding([[1], [0]], [0, 1]), lambda: embedding([[1], [0]]),
                        f"AffineEmbedding(linear=(({_gr(1)},), ({_gr(0)},)), translation=({_gr(0)}, {_gr(1)}))",
                        ("linear", "translation"), True),
}


@pytest.mark.parametrize("name", CASES)
def test_value_type(name):
    make, make_other, text, fields, hashable = CASES[name]
    value, twin, other = make(), make(), make_other()
    cls = type(value)
    assert cls.__name__ == name and repr(value) == text
    assert value == twin and not value != twin
    assert value != other and other == make_other()
    assert value != tuple(getattr(value, f) for f in fields)
    assert all(value != build() for case, (build, *_) in CASES.items() if case != name)
    if hashable:
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(value)
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    for field in fields:
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert cls.__match_args__ == fields
    assert cls(**{f: getattr(value, f) for f in fields}) == value


@pytest.mark.parametrize("name", CASES)
def test_value_round_trips(name):
    make, _, text, _, _ = CASES[name]
    value = make()
    assert repr(value) == text  # a form or a map reduces its integer view to GaussianRationals here
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value) and copied == value and repr(copied) == text


def test_value_defaults_and_private_memos():
    first, second = HermitianForm(2), HermitianForm(2)
    assert first.entries == {} and first.entries is not second.entries
    assert first._memo is not second._memo
    assert WeightedHoloMap(1, ())._memo is not WeightedHoloMap(1, ())._memo
    m = identity_map(1, 1)
    assert QuadricMap(1, 1, False, m.components).denominator is None
    assert QuadricMap(a=1, b=1, homogeneous=False, components=m.components) == m


def test_value_matches_positionally():
    match macaulay_rep(10, 3):
        case MacaulayRep(c, d, ks):
            assert (c, d, ks) == (10, 3, (5, 1, 0))
        case _:
            pytest.fail("MacaulayRep(c, d, ks) did not match")
