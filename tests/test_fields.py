import gc
import importlib
import math
import sys
import weakref
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from leibnil.fields import GF, QQ, PrimeField, RationalField, field_from_descriptor
from leibnil.linalg import Vector, span

from .strategies import scalars, small_fields


@pytest.mark.parametrize("p", [
    2, 1, 0, 4, 9, 15, -3,
    # Carmichael numbers, a strong pseudoprime to bases 2, 3, 5 and 7, and a
    # product of two large primes
    561, 41041, 3215031751, (10 ** 9 + 7) * (10 ** 9 + 9),
    # the least prime above the order cap 2^64
    2 ** 64 + 13,
])
def test_bad_field_orders_rejected(p):
    with pytest.raises(ValueError):
        PrimeField(p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101, 10 ** 18 + 3, 2 ** 61 - 1])
def test_odd_primes_accepted(p):
    assert GF(p).p == p


def test_order_check_agrees_with_trial_division():
    def is_odd_prime(p):
        return p > 2 and p % 2 == 1 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))

    for p in range(-3, 20_000):
        if is_odd_prime(p):
            assert GF(p).p == p
        else:
            with pytest.raises(ValueError):
                PrimeField(p)


def test_rational_parse_and_format():
    assert QQ.parse("2/3") == Fraction(2, 3)
    assert QQ.parse("-7") == Fraction(-7)
    assert QQ.parse(5) == Fraction(5)
    assert QQ.format(Fraction(-2, 3)) == "-2/3"
    with pytest.raises(ValueError):
        QQ.parse(1.5)
    with pytest.raises(ValueError):
        QQ.parse(True)


def test_prime_field_parse():
    f = GF(5)
    assert f.parse("7") == 2
    assert f.parse(-1) == 4
    assert f.parse("3/2") == f.div(3, 2)
    with pytest.raises(ValueError):
        f.parse(2.0)


@pytest.mark.parametrize("field, literal", [(QQ, "1/0"), (QQ, "-3/0"),
                                             (GF(3), "1/3"), (GF(5), "2/10")])
def test_zero_denominator_literal_rejected(field, literal):
    with pytest.raises(ValueError, match=f"'{literal}'"):
        field.parse(literal)


@given(st.lists(st.lists(scalars(QQ), min_size=3, max_size=3), max_size=4))
def test_integral_rationals_are_ints_and_change_no_subspace(rows):
    # the same values as int-where-integral and as Fraction-only span one subspace
    mixed = [[QQ.parse(str(x)) for x in row] for row in rows]
    fractions_only = [[Fraction(x) for x in row] for row in rows]
    values = [x for row in rows for x in row]
    assert [type(x) for row in mixed for x in row] == \
        [int if x.denominator == 1 else Fraction for x in values]
    a = span([Vector(QQ, tuple(row)) for row in mixed], 3, QQ)
    b = span([Vector(QQ, tuple(row)) for row in fractions_only], 3, QQ)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    for x in values:
        for y in values:
            if y != 0:
                q = QQ.div(QQ.parse(str(x)), QQ.parse(str(y)))
                assert q == x / y
                assert type(q) is (int if (x / y).denominator == 1 else Fraction)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        QQ.div(QQ.one, QQ.zero)
    with pytest.raises(ZeroDivisionError):
        GF(7).div(3, 0)


@given(st.fractions(max_denominator=50).filter(lambda x: x != 0))
def test_rational_mul_div_inverse(a):
    # (a/b) * (b/a) = 1 exactly
    assert QQ.mul(QQ.div(QQ.one, a), a) == QQ.one


@given(st.sampled_from([GF(3), GF(5), GF(7)]), st.data())
def test_fermat_little(field, data):
    x = data.draw(st.integers(min_value=1, max_value=field.p - 1))
    acc = field.one
    for _ in range(field.p - 1):
        acc = field.mul(acc, x)
    assert acc == field.one


@given(small_fields, st.data())
def test_field_axioms_sampled(field, data):
    a = data.draw(scalars(field))
    b = data.draw(scalars(field))
    c = data.draw(scalars(field))
    assert field.add(a, b) == field.add(b, a)
    assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
    assert field.sub(a, a) == field.zero
    if b != field.zero:
        assert field.mul(field.div(a, b), b) == a


def test_field_descriptors_round_trip():
    assert field_from_descriptor({"type": "Q"}) == QQ
    assert field_from_descriptor({"type": "Fp", "p": 5}) == GF(5)
    with pytest.raises(ValueError):
        field_from_descriptor({"type": "Fp", "p": 2})
    with pytest.raises(ValueError):
        field_from_descriptor({"type": "R"})


def test_zero_and_one_are_shared_constants():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert QQ.zero == Fraction(0) and QQ.one == Fraction(1)
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert GF(5).zero == 0 and GF(5).one == 1


def test_field_classes_keep_their_dataclass_contract():
    assert [f.name for f in fields(RationalField)] == []
    assert [f.name for f in fields(PrimeField)] == ["p"]
    assert RationalField() == QQ and hash(RationalField()) == hash(QQ)
    assert PrimeField(5) == GF(5) and hash(PrimeField(5)) == hash(GF(5))
    assert GF(5) != GF(7) and GF(3) != QQ
    assert QQ.characteristic == 0 and GF(7).characteristic == 7


def test_a_dropped_import_frees_its_classes(monkeypatch):
    # a process that imports leibnil afresh, as the benchmark's set-up does,
    # must not keep the classes of the import it dropped
    for name in [n for n in sys.modules if n == "leibnil" or n.startswith("leibnil.")]:
        monkeypatch.delitem(sys.modules, name)
    # a pass of the CLI first, so the cached parser is part of what is dropped
    importlib.import_module("leibnil.cli").main(["normalize", "a*b"])
    classes = [weakref.ref(sys.modules[module].__dict__[name])
               for module, name in (("leibnil.fields", "PrimeField"),
                                    ("leibnil.fields", "RationalField"),
                                    ("leibnil.terms", "Leaf"), ("leibnil.terms", "Node"))]
    for name in [n for n in sys.modules if n == "leibnil" or n.startswith("leibnil.")]:
        del sys.modules[name]
    gc.collect()
    assert [ref() for ref in classes] == [None] * 4
