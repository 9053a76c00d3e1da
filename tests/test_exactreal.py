"""Exact field arithmetic: construction, classification, order, text IO."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import iv, mp

from fraction_field import RefElement
from refinable import enclosure, exactreal
from refinable.errors import DescriptorMismatch, DivisionByZero, IrreducibilityError
from refinable.exactreal import (
    QQ,
    FieldDescriptor,
    FieldElement,
    _common_field,
    field_make,
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


def test_zero_integer_and_sign_examples(F10):
    th = F10.theta()
    z = F10.zero()
    assert z.is_zero and z.sign() == 0
    assert (th - 3).sign() == 1
    assert (5 / th - th / 2).is_zero
    c = 5 / th - th / 2
    assert c.is_zero and c.is_integer and c.sign() == 0


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
        ab = iv.make_mpf(enclosure.ball(a * b, 64))
        sep = iv.make_mpf(enclosure.ball(a, 64)) * iv.make_mpf(enclosure.ball(b, 64))
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


def test_lift_is_the_one_field_rule(F10):
    th = F10.theta()
    assert F10.lift(th) is th
    assert field_make(10, 2).lift(th) is th  # an equal descriptor
    # an int, a Fraction and an element of Q (of either Q descriptor) lift
    for q in (3, Fraction(3, 7), QQ.rational(Fraction(3, 7)), field_make(5, 1).rational(3)):
        x = F10.lift(q)
        assert x.desc is F10 and x.is_rational and x == q
    assert QQ.lift(Fraction(1, 2)).desc is QQ
    with pytest.raises(DescriptorMismatch):
        field_make(2, 2).lift(th)
    with pytest.raises(DescriptorMismatch):
        QQ.lift(F10.one())  # rational, but of a field of degree 2
    with pytest.raises(TypeError):
        F10.lift(0.5)
    # the common field is the one of degree > 1, else Q
    assert _common_field([1, QQ.one(), th, field_make(2, 2).theta()]) is F10
    assert _common_field([Fraction(1, 2), field_make(5, 1).one()]) is QQ
    # arithmetic mixes fields by the same rule
    assert (QQ.rational(2) * th).desc is F10 and (th * QQ.rational(2)).desc is F10
    with pytest.raises(TypeError):
        th + 0.5


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
    for text in ("1/0", "1 + t/0", "1/0*t"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_element(text, F10)


def test_hash_consistency(F10):
    th = F10.theta()
    d = {th / 2: "a", F10.one(): "b"}
    assert d[5 / th] == "a"  # 5/sqrt(10) = sqrt(10)/2


class _Interrupt(BaseException):
    """Stands in for an alarm or Ctrl-C arriving mid-computation."""


def test_sign_lets_an_interrupt_in_the_enclosure_check_through(monkeypatch):
    # raised while the theta-power bounds are built: at the first precision
    # (x's field has none cached) and at an escalation step (0 < y < 2^-90
    # is undecided at 64 bits)
    x = field_make(10, 2).theta() - 3
    y = field_make(10, 2).theta() - Fraction(math.isqrt(10 << 180), 1 << 90)
    real_bounds = FieldDescriptor.theta_power_bounds

    def bounds(self, p):
        if p > 64:
            raise _Interrupt
        return real_bounds(self, p)

    monkeypatch.setattr(FieldDescriptor, "theta_power_bounds", bounds)
    for call in (y.sign, y.floor):
        with pytest.raises(_Interrupt):
            call()
    monkeypatch.setattr(exactreal, "_int_nthroot", _raise_interrupt)
    for call in (x.sign, x.floor):
        with pytest.raises(_Interrupt):
            call()


@pytest.mark.parametrize("expected", [1, -1])
def test_sign_check_converts_nothing(F10, monkeypatch, expected):
    # sign, floor and float are decided by integer arithmetic alone: any
    # use of an mpmath enclosure or conversion raises here
    x = (F10.theta() - 3) * expected
    monkeypatch.setattr(enclosure, "ball", _raise_interrupt)
    monkeypatch.setattr(type(iv), "convert", _raise_interrupt)
    assert x.sign() == expected
    assert x.floor() == (0 if expected > 0 else -1)
    assert float(x) == expected * 0.16227766016837933  # sqrt(10) - 3


def _raise_interrupt(*args, **kwargs):
    raise _Interrupt


def test_floor_above_two_to_the_53():
    # the endpoints of a 53-bit rounded enclosure gave ...773 and ...358
    third = Fraction(1, 3)
    assert field_make(2, 2).element([third, 2 ** 52]).floor() == 6369051672525772
    assert field_make(10, 2).element([third, 2 ** 52]).floor() == 14241632491976357


def test_theta_power_bounds():
    F = field_make(7, 3)
    for p in (64, 128, 1024):
        bounds = F.theta_power_bounds(p)
        assert bounds[0] == (1 << p, 1 << p)
        for j, (lo, hi) in enumerate(bounds[1:], start=1):
            assert hi == lo + 1
            assert lo ** 3 < 7 ** j << (3 * p) < hi ** 3
        assert F.theta_power_bounds(p) is bounds


_QUADRATIC = [2, 3, 5, 10, 7 * 11 * 13]
_coord = st.fractions(min_value=-(1 << 70), max_value=1 << 70, max_denominator=1 << 40)


@st.composite
def _quadratic(draw):
    """(n, a, b) with b != 0; a is often within 2^-bits of -b*sqrt(n) + an integer."""
    n = draw(st.sampled_from(_QUADRATIC))
    b = draw(_coord.filter(bool))
    a = draw(_coord)
    bits = draw(st.sampled_from([0, 60, 200, 700]))
    if bits:
        # a = -(b sqrt(n) rounded down to 2^-bits) + small integer shift
        root = math.isqrt(b.numerator ** 2 * n << (2 * bits))
        near = Fraction(root if b > 0 else -root - 1, b.denominator << bits)
        a = draw(st.integers(-2, 2)) - near + draw(st.sampled_from([0, Fraction(1, 3)]))
    return n, a, b


@settings(max_examples=300, deadline=None)
@given(_quadratic())
def test_quadratic_sign_and_floor_against_integer_formulas(case):
    n, a, b = case
    x = field_make(n, 2).element([a, b])
    # sign of a + b sqrt(n): compare a^2 with b^2 n when the signs differ
    if a * b >= 0:
        sign = 1 if a + b > 0 else -1
    else:
        sign = 1 if (a * a > b * b * n) == (a > 0) else -1
    assert x.sign() == sign
    # x = (A + B sqrt(n)) / D; floor(B sqrt(n)) from isqrt, never exact
    den = math.lcm(a.denominator, b.denominator)
    A, B = int(a * den), int(b * den)
    root = math.isqrt(B * B * n)
    floor_b = root if B > 0 else -root - 1
    assert x.floor() == (A + floor_b) // den


@st.composite
def _cubic(draw):
    n = draw(st.sampled_from([2, 3, 5, 12, 100]))
    q1, q2 = draw(_coord), draw(_coord)
    q0 = draw(_coord)
    bits = draw(st.sampled_from([0, 100, 900]))
    if bits:
        with mp.workprec(3000):
            th = mpmath.cbrt(n)
            rest = _mpq(q1) * th + _mpq(q2) * th * th
            q0 = draw(st.integers(-2, 2)) - Fraction(int(mpmath.floor(rest * 2 ** bits)), 1 << bits)
    return n, (q0, q1, q2)


def _mpq(q):
    return mpmath.mpf(q.numerator) / q.denominator


@settings(max_examples=200, deadline=None)
@given(_cubic())
def test_cubic_sign_and_floor_against_3000_bits(case):
    n, coeffs = case
    x = field_make(n, 3).element(coeffs)
    assume(not x.is_rational)
    with mp.workprec(3000):
        th = mpmath.cbrt(n)
        val = _mpq(coeffs[0]) + _mpq(coeffs[1]) * th + _mpq(coeffs[2]) * th * th
        floor = int(mpmath.floor(val))
        assume(min(val - floor, floor + 1 - val) >= mpmath.mpf(2) ** -2000)
        sign = 1 if val > 0 else -1
    assert x.sign() == sign
    assert x.floor() == floor


# (field, unit): a power of a unit has large coordinates whichever way
# it is taken, and they cancel for the small powers
_UNITS = [(field_make(2, 2), [-1, 1]), (field_make(10, 2), [-3, 1]),
          (field_make(2, 3), [-1, 1])]


@st.composite
def _unit_powers(draw):
    """+-2^e u^m for a unit u < 1 and |m| <= 60: tiny, large and negative
    values, and 2^e moves them across the exponent range of a float,
    down to its subnormals and below."""
    desc, coords = draw(st.sampled_from(_UNITS))
    m = draw(st.integers(-60, 60).filter(bool))
    scale = Fraction(2) ** draw(st.sampled_from([0, 0, -800, 800, -1040]))
    return desc.element(coords) ** m * scale * draw(st.sampled_from([1, -1]))


@settings(max_examples=300, deadline=None)
@given(_unit_powers())
def test_float_is_the_nearest_float(x):
    f = float(x)
    assert math.copysign(1.0, f) == x.sign()  # also when f underflows to 0
    dist = abs(x - Fraction(f))
    for g in (math.nextafter(f, -math.inf), math.nextafter(f, math.inf)):
        assert dist < abs(x - Fraction(g))


def test_float_of_cancelling_powers():
    u = field_make(2, 2).theta() - 1
    # the midpoint of a 64-bit ball of the coordinates read 7.45e-09
    assert float(u ** 40) == 4.886215156265627e-16
    # (sqrt 2 - 1)^1800 is about 1e-689 with 2,290-bit coordinates: the
    # enclosure of x * 2^2048 straddles 0, and both ends underflow to a
    # zero of either sign
    for v in (u ** 1800, -u ** 1800):
        f = float(v)
        assert f == 0 and math.copysign(1.0, f) == v.sign()


@settings(max_examples=300, deadline=None)
@given(_unit_powers(), st.one_of(st.just(0), st.integers(300, 4000), st.integers(-4000, -300)))
def test_longdouble_is_within_its_rounding(x, e):
    # the nearest long double, also far outside the float range
    from refinable.splinecore import _longdouble

    x *= Fraction(10) ** e
    _assert_nearest_longdouble(x, _longdouble(x))


def _assert_nearest_longdouble(x, got):
    import numpy as np

    assert np.signbit(got) == (x.sign() < 0)
    got_q = Fraction(*got.as_integer_ratio())
    dist = abs(x - got_q)
    inf = np.longdouble(np.inf)
    for g in (np.nextafter(got, -inf), np.nextafter(got, inf)):
        g_q = Fraction(*g.as_integer_ratio())
        if dist == abs(x - g_q):
            # x lies halfway: a tie rounds to the even significand, the
            # end that is an even multiple of the spacing of the two
            assert got_q / abs(g_q - got_q) % 2 == 0
        else:
            assert dist < abs(x - g_q)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 130), st.integers(1, 130), st.randoms(use_true_random=False))
def test_longdouble_of_a_rational_is_the_nearest(num_bits, den_bits, rng):
    # terms past a long double's significand are not exact long doubles,
    # so a division of their conversions would round twice
    from refinable.splinecore import _dyadic_longdouble, _longdouble

    num = rng.getrandbits(num_bits) | 1 << (num_bits - 1)
    den = rng.getrandbits(den_bits) | 1 << (den_bits - 1)
    x = QQ.rational(Fraction(num, den) * rng.choice([1, -1]))
    got = _longdouble(x)
    assert got == x.rounded(_dyadic_longdouble)
    _assert_nearest_longdouble(x, got)


def test_longdouble_ties_round_to_even():
    # 2^64 + 1 and 2^64 + 3 lie halfway between long doubles 2 apart,
    # and (2^64 + 1) / 2^70 halfway between two 2^-69 apart
    from refinable.splinecore import _longdouble

    for q, want in ((2 ** 64 + 1, 2 ** 64), (2 ** 64 + 3, 2 ** 64 + 4),
                    (Fraction(2 ** 64 + 1, 2 ** 70), Fraction(1, 64))):
        for s in (1, -1):
            x = QQ.rational(Fraction(q) * s)
            got = _longdouble(x)
            assert Fraction(*got.as_integer_ratio()) == want * s
            _assert_nearest_longdouble(x, got)


def test_longdouble_of_rationals_past_the_digit_limit():
    # 3^10000 has 4,772 digits, past the int-to-str limit a long double
    # conversion of the numerator met
    from refinable.splinecore import _longdouble

    for q in (Fraction(3 ** 10000, 7), Fraction(-7, 3 ** 10000)):
        x = QQ.rational(q)
        _assert_nearest_longdouble(x, _longdouble(x))


_small = st.fractions(min_value=-50, max_value=50, max_denominator=30)
_rational_operand = st.one_of(
    st.integers(-40, 40), _small, st.booleans(), st.just(0), st.just(Fraction(0)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(2, 1), (10, 2), (7, 3)]),
       st.lists(_small, min_size=3, max_size=3), _rational_operand)
def test_rational_operands_match_the_lifted_form(nk, coords, q):
    desc = field_make(*nk)
    x = desc.element(coords[:desc.k])
    lifted = desc.rational(q)
    pairs = [
        (x + q, x + lifted), (q + x, lifted + x),
        (x - q, x - lifted), (q - x, lifted - x),
        (x * q, x * lifted), (q * x, lifted * x),
    ]
    if q:
        pairs.append((x / q, x / lifted))
    for got, want in pairs:
        assert got.desc is desc
        assert got.coeffs == want.coeffs and got == want
        assert hash(got) == hash(want)
        assert all(type(c) is Fraction for c in got.coeffs)
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(x, op)(q) == getattr(x, op)(lifted)
    if not q:
        with pytest.raises(DivisionByZero):
            x / q


# coordinates: often zero (rational elements and the k = 2 shortcuts),
# sometimes integers, sometimes with large numerators and denominators
_coordinate = st.one_of(
    st.just(Fraction(0)),
    st.integers(-30, 30).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.fractions(min_value=-(1 << 90), max_value=1 << 90, max_denominator=1 << 70),
)
_FIELDS = [(2, 1), (3, 2), (10, 2), (12, 2), (2, 3), (7, 3), (12, 3)]


def _assert_same(got, want: RefElement):
    assert got.desc is want.desc
    assert got.coeffs == want.coeffs
    assert all(type(c) is Fraction for c in got.coeffs)
    # the stored form is canonical: one positive denominator, no common factor
    assert len(got.num) == got.desc.k and all(type(x) is int for x in got.num)
    assert got.den > 0 and math.gcd(got.den, *got.num) == 1
    assert [Fraction(x, got.den) for x in got.num] == list(want.coeffs)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_FIELDS), st.lists(_coordinate, min_size=3, max_size=3),
       st.lists(_coordinate, min_size=3, max_size=3))
def test_arithmetic_matches_the_fraction_coordinate_reference(nk, xs, ys):
    desc = field_make(*nk)
    x, y = desc.element(xs[:desc.k]), desc.element(ys[:desc.k])
    rx, ry = RefElement(desc, xs[:desc.k]), RefElement(desc, ys[:desc.k])
    _assert_same(x, rx)
    _assert_same(x + y, rx + ry)
    _assert_same(x - y, rx - ry)
    _assert_same(x * y, rx * ry)
    _assert_same(x * x, rx * rx)
    _assert_same(-x, -rx)
    assert (x == y) == (rx == ry) and x == desc.element(xs[:desc.k])
    for z, rz in ((x, rx), (y, ry)):
        if rz.is_zero:
            with pytest.raises(DivisionByZero):
                z.inverse()
            with pytest.raises(DivisionByZero):
                x / z
        else:
            _assert_same(z.inverse(), rz.inverse())
            _assert_same(x / z, rx / rz)
        assert z.sign() == rz.sign()
        assert z.floor() == rz.floor()
        assert z.is_zero == rz.is_zero
        assert parse_element(z.to_text(), desc) == z
        assert parse_element(z.to_text(with_field=True), desc) == z
        if z.is_rational:
            # a rational element hashes and compares as the equal Fraction / int
            q = rz.coeffs[0]
            assert z == q and hash(z) == hash(q)
            assert z.is_integer == (q.denominator == 1)
            if q.denominator == 1:
                assert z == int(q) and hash(z) == hash(int(q))
        else:
            assert not z.is_integer and z != rz.coeffs[0]



# -- order without a normalised difference --------------------------------------


@st.composite
def _comparison_case(draw):
    """(a, b, near): b an element of a's field, an int or a Fraction; when
    near, a - b is irrational and within 2^-150 of 0, so its first
    enclosure does not decide the sign."""
    desc = field_make(*draw(st.sampled_from(_FIELDS)))
    a = desc.element(draw(st.lists(_coordinate, min_size=desc.k, max_size=desc.k)))
    kind = draw(st.sampled_from(("equal", "element", "int", "fraction", "near")))
    if kind == "equal":
        return a, desc.element(list(a.coeffs)), False
    if kind == "element":
        return a, desc.element(draw(st.lists(_coordinate, min_size=desc.k,
                                             max_size=desc.k))), False
    bits = draw(st.sampled_from([150, 300, 700]))
    if kind in ("int", "fraction"):
        if draw(st.booleans()):
            b = a.floor() + draw(st.integers(-1, 1))
            return a, b if kind == "int" else Fraction(b), False
        if kind == "int":
            return a, draw(st.integers(-40, 40)), False
        # a rational within 2^-bits of a
        b = Fraction(a.floor(1 << bits) + draw(st.integers(0, 1)), 1 << bits)
        return a, b, not a.is_rational
    if desc.k == 1:
        return a, a + Fraction(draw(st.sampled_from([-1, 1])), 1 << bits), False
    # a - b = theta^j - t / 2^bits with t = floor(theta^j 2^bits) or t + 1
    j = draw(st.integers(1, desc.k - 1))
    t = desc.theta_power_bounds(bits)[j][0] + draw(st.integers(0, 1))
    return a, a - desc.element([0] * j + [1]) + Fraction(t, 1 << bits), True


@settings(max_examples=400, deadline=None)
@given(_comparison_case())
def test_order_comparisons_agree_with_the_sign_of_the_difference(case):
    a, b, near = case
    s = (a - b).sign()
    assert (a < b, a <= b, a > b, a >= b) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (b > a, b >= a, b < a, b <= a) == (s < 0, s <= 0, s > 0, s >= 0)
    if near:
        lo, hi, _ = next((a - b)._enclosures())
        assert lo <= 0 <= hi


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.builds(lambda nk, xs: field_make(*nk).element(xs[:nk[1]]),
              st.sampled_from(_FIELDS), st.lists(_coordinate, min_size=3, max_size=3)),
    _quadratic().map(lambda case: field_make(case[0], 2).element(case[1:]))),
    st.sampled_from([0, 1, 64, 200]), st.integers(1, 6))
def test_fixed_point_is_at_most_two_units_wide(x, p, factor):
    # coordinates that cancel to far below their size, and a form not in
    # lowest terms, still give a width of at most 2
    for y in (x, FieldElement(x.desc, tuple(n * factor for n in x.num), x.den * factor)):
        lo, hi = y.fixed_point(p)
        assert 0 <= hi - lo <= 2
        scaled = x * (1 << p)
        assert (scaled - lo).sign() >= 0 and (scaled - hi).sign() <= 0
