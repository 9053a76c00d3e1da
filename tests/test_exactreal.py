"""Exact field arithmetic: construction, classification, order, text IO."""

import random
from fractions import Fraction

import pytest
from mpmath import iv

from refinable.errors import DescriptorMismatch, DivisionByZero, IrreducibilityError
from refinable.exactreal import (
    QQ,
    FieldElement,
    classify,
    field_make,
    int_ratio,
    parse_element,
)


@pytest.fixture(scope="module")
def F10():
    return field_make(10, 2)


def test_field_make_examples(F10):
    assert F10.n == 10 and F10.k == 2
    assert field_make(2, 1).is_rational_field
    with pytest.raises(IrreducibilityError):
        field_make(4, 2)
    with pytest.raises(IrreducibilityError):
        field_make(8, 6)  # 8 = 2^3, 3 | 6
    with pytest.raises(IrreducibilityError):
        field_make(1, 2)
    # 8 is not a square: x^2 - 8 is fine
    assert field_make(8, 2).k == 2


def test_arithmetic_examples(F10):
    th = F10.theta()
    assert th * th == 10
    assert (th / 2) * th == 5
    assert (1 + th) / (1 + th) == 1
    with pytest.raises(DivisionByZero):
        th / F10.zero()


def test_classify_examples(F10):
    th = F10.theta()
    c0 = classify(F10.zero())
    assert c0.is_zero and c0.sign == 0
    assert classify(th - 3).sign == 1
    assert (5 / th - th / 2).is_zero
    c = classify(5 / th - th / 2)
    assert c.is_zero and c.is_integer and c.sign == 0


def test_int_ratio_examples(F10):
    th = F10.theta()
    assert int_ratio(th * (th / 2), F10.one()) == 5
    assert int_ratio(th, th) == 1
    assert int_ratio(th, F10.one()) is None


def test_int_ratio_random_multiples(F10):
    rng = random.Random(7)
    th = F10.theta()
    for _ in range(50):
        p = rng.randint(-1000, 1000)
        b = F10.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
        if b.is_zero:
            continue
        assert int_ratio(p * b, b) == p


def test_mul_div_roundtrip_random(F10):
    rng = random.Random(11)
    for _ in range(40):
        a = F10.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
        b = F10.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
        if a.is_zero or b.is_zero:
            continue
        assert (a * b) / b == a


def test_degree_three_field():
    F = field_make(5, 3)
    th = F.theta()
    assert th ** 3 == 5
    x = (1 + th + th * th) / (2 - th)
    assert x * (2 - th) == 1 + th + th * th
    assert th.floor() == 1  # 5^(1/3) = 1.709...
    assert (-th).floor() == -2


def test_numeric_embedding_consistency(F10):
    # enclosure of a product intersects the product of enclosures
    rng = random.Random(3)
    for _ in range(20):
        a = F10.element([rng.randint(-5, 5), rng.randint(-5, 5)])
        b = F10.element([rng.randint(-5, 5), rng.randint(-5, 5)])
        ab = (a * b).ball(64)
        sep = a.ball(64) * b.ball(64)
        assert not (float(ab.b) < float(sep.a) or float(sep.b) < float(ab.a))


def test_zero_test_is_exact(F10):
    # 1/theta - theta/10 = 0 exactly; no numeric wobble involved
    th = F10.theta()
    assert (1 / th - th / 10).is_zero
    assert not (1 / th - th / 11).is_zero


def test_order_and_floor(F10):
    th = F10.theta()
    assert th > 3 and th < Fraction(13, 4)
    assert th.floor() == 3
    assert (th * th).floor() == 10
    assert (th - th).floor() == 0


def test_descriptor_mismatch():
    F2 = field_make(2, 2)
    F3 = field_make(3, 2)
    with pytest.raises(DescriptorMismatch):
        F2.theta() + F3.theta()
    # rationals lift into any field
    assert F2.theta() * 0 + QQ.rational(Fraction(1, 2)) == Fraction(1, 2)


def test_text_roundtrip(F10):
    e = F10.element([Fraction(3, 2), Fraction(-1, 3)])
    assert e.to_text() == "3/2 - 1/3*t"
    assert e.to_text(with_field=True) == "3/2 - 1/3*t (t^2 = 10)"
    assert parse_element(e.to_text(with_field=True), F10) == e
    assert parse_element("t/2", F10) == F10.theta() / 2
    assert parse_element("0", F10).is_zero
    F = field_make(5, 3)
    e3 = F.element([1, Fraction(2, 7), Fraction(-5)])
    assert parse_element(e3.to_text(), F) == e3
    with pytest.raises(ValueError):
        parse_element("t^5", F10)


def test_hash_consistency(F10):
    th = F10.theta()
    d = {th / 2: "a", F10.one(): "b"}
    assert d[5 / th] == "a"  # 5/sqrt(10) = sqrt(10)/2


class _Interrupt(BaseException):
    """Stands in for an alarm or Ctrl-C arriving mid-computation."""


def test_sign_lets_an_interrupt_in_the_enclosure_check_through(F10, monkeypatch):
    class Ball:
        @property
        def _mpi_(self):
            raise _Interrupt

    monkeypatch.setattr(FieldElement, "ball", lambda self, prec=64: Ball())
    with pytest.raises(_Interrupt):
        (F10.theta() - 3).sign()


@pytest.mark.parametrize("expected", [1, -1])
def test_sign_check_converts_nothing(F10, monkeypatch, expected):
    # the check used to compare an interval with 0, converting the 0; an
    # interrupt there surfaced as "'>' not supported between 'ivmpf' and 'int'"
    x = (F10.theta() - 3) * expected
    ball = x.ball(64)
    monkeypatch.setattr(FieldElement, "ball", lambda self, prec=64: ball)
    monkeypatch.setattr(type(iv), "convert", _raise_interrupt)
    assert x.sign() == expected


def _raise_interrupt(*args, **kwargs):
    raise _Interrupt
