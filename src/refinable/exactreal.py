"""Exact arithmetic in the real field Q(theta), theta the positive real
k-th root of an integer n >= 2.

An element x = q_0 + q_1 theta + ... + q_{k-1} theta^{k-1} is stored as
integer numerators (N_0, ..., N_{k-1}) over one common denominator D,
x = (sum_j N_j theta^j) / D, in the canonical form D > 0 and
gcd(N_0, ..., N_{k-1}, D) = 1 (the layout of FLINT's ``nf_elem``).
Multiplication reduces via theta^k = n.  The power basis is a basis
because x^k - n is kept irreducible (n must not be a perfect p-th power
for any prime p dividing k), so together with the canonical form every
element has exactly one (N, D): zero tests, equality, rationality and
integrality compare integers and are never numerical.

Sums and products are formed as ``fractions.Fraction`` forms them, one
coordinate vector at a time: a sum brings both operands to the lcm of
their denominators, and a product cancels the gcd of each numerator
vector with the other denominator before it multiplies, so the only
gcds taken are against a denominator.  The per-coordinate rationals
q_j = N_j / D are available as ``coeffs`` (built on first use).

Sign and floor of an irrational element are decided with integer
arithmetic only.  Each theta^j * 2^p is enclosed between
floor(theta^j * 2^p) and that plus one (an integer k-th root).  The
directed sums give integers lo <= x * D * 2^p <= hi of width at most
sum_j |N_j|, while |x| * D * 2^p doubles with p; p starts at 64 and
doubles until the enclosure decides.  Zero and rational elements are
decided from N_0 and D, so the loop always ends.  ``floor`` takes an
integer factor q into the enclosure (q * lo <= q * x * D * 2^p <= q * hi),
so floor(q x) costs no product element.  The order comparisons take the
sign of a.num * b.den - b.num * a.den, which has the sign of a - b,
without reducing it to lowest terms.  ``fixed_point(p)`` encloses
x * 2^p between integers at most 2 apart, at the precision the
coordinates need.

``rounded(to)`` reads the same enclosure: p doubles from 64 until both
ends of ``fixed_point(p)`` round to one value.  An irrational value is
never a tie, so that is the correctly rounded value, however far the
coordinates cancel: ``float`` and the long doubles of the float kernels
come from it.  Nothing here imports mpmath; the floating enclosures of
the layers above live in ``enclosure``.

Fields combine by one rule, used by every layer above: ``lift`` takes
an int, a ``Fraction`` or an element of Q into Q(theta), returns an
element of Q(theta) as it is and refuses one of another field of degree
> 1; ``_common_field`` picks the field of several values, the one of
degree > 1 among theirs, else Q.

Values are immutable; every operation is a pure function.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from math import gcd
from operator import add, sub
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import DescriptorMismatch, DivisionByZero, IrreducibilityError

RationalLike = Union[int, Fraction]

_SIGN_START_PREC = 64


def _int_nthroot(n: int, p: int) -> tuple[int, bool]:
    """Floor of n**(1/p) for n >= 1, p >= 1, plus exactness flag."""
    if n < 2 or p == 1:
        return n, True
    if p == 2:
        x = math.isqrt(n)
        return x, x * x == n
    x = 1 << (-(-n.bit_length() // p))  # upper bound
    while True:
        y = ((p - 1) * x + n // x ** (p - 1)) // p
        if y >= x:
            break
        x = y
    return x, x ** p == n


def _primes_of(k: int) -> list[int]:
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


class FieldDescriptor:
    """The field Q(theta) with theta = n^(1/k) > 0 and x^k - n irreducible.

    For k = 1 the field is Q itself and the radicand plays no role.
    """

    __slots__ = ("n", "k", "_zeros", "_power_bounds")

    def __init__(self, n: int, k: int):
        if k < 1:
            raise IrreducibilityError("degree k must be >= 1")
        if n < 2:
            raise IrreducibilityError("radicand n must be >= 2")
        for p in _primes_of(k):
            _, exact = _int_nthroot(n, p)
            if exact:
                raise IrreducibilityError(
                    f"x^{k} - {n} is reducible: {n} is a perfect {p}-th power"
                )
        self.n = n
        self.k = k
        self._zeros = (0,) * (k - 1)
        self._power_bounds: dict[int, tuple[tuple[int, int], ...]] = {}

    # Two descriptors denote the same field iff degrees match and, for
    # k > 1, the radicands match.  Every degree-1 descriptor is Q.
    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldDescriptor):
            return NotImplemented
        if self.k == 1 and other.k == 1:
            return True
        return self.k == other.k and self.n == other.n

    def __hash__(self) -> int:
        return hash(("Q",)) if self.k == 1 else hash((self.n, self.k))

    def __repr__(self) -> str:
        if self.k == 1:
            return "FieldDescriptor(Q)"
        return f"FieldDescriptor(Q({self.n}^(1/{self.k})))"

    @property
    def is_rational_field(self) -> bool:
        return self.k == 1

    def lift(self, x: ExactReal) -> "FieldElement":
        """x in this field, by the rule of the module docstring."""
        if isinstance(x, FieldElement):
            desc = x.desc
            if desc is self or desc == self:
                return x
            if desc.k == 1:
                return FieldElement(self, (x.num[0], *self._zeros), x.den)
            raise DescriptorMismatch(f"cannot mix {desc} and {self}")
        if isinstance(x, (int, Fraction)):
            return self.rational(x)
        raise TypeError(f"cannot lift {type(x).__name__} into {self}")

    def theta_power_bounds(self, p: int) -> tuple[tuple[int, int], ...]:
        """Integers (lo_j, hi_j) with lo_j <= theta^j * 2^p <= hi_j for
        j < k: lo_j = floor(theta^j * 2^p), hi_j = lo_j + 1 unless exact.
        Cached per p."""
        bounds = self._power_bounds.get(p)
        if bounds is None:
            k = self.k
            bounds = []
            for j in range(k):
                t, exact = _int_nthroot(self.n ** j << (k * p), k)
                bounds.append((t, t if exact else t + 1))
            bounds = self._power_bounds[p] = tuple(bounds)
        return bounds

    # -- element constructors ------------------------------------------

    def element(self, coeffs: Sequence[RationalLike]) -> "FieldElement":
        """The element sum_j coeffs[j] * theta^j (missing coordinates 0)."""
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.k:
            raise ValueError(f"expected at most {self.k} coordinates")
        # the lcm of reduced denominators leaves no common factor
        den = math.lcm(*(c.denominator for c in cs))
        num = tuple(c.numerator * (den // c.denominator) for c in cs)
        return FieldElement(self, num + (0,) * (self.k - len(num)), den)

    def rational(self, q: RationalLike) -> "FieldElement":
        if type(q) is not int:
            q = Fraction(q)
            return FieldElement(self, (q.numerator, *self._zeros), q.denominator)
        return FieldElement(self, (q, *self._zeros), 1)

    def zero(self) -> "FieldElement":
        return self.rational(0)

    def one(self) -> "FieldElement":
        return self.rational(1)

    def theta(self) -> "FieldElement":
        """The generator n^(1/k); equals n itself when k = 1."""
        if self.k == 1:
            return self.rational(self.n)
        return self.element([0, 1])


def field_make(n: int, k: int) -> FieldDescriptor:
    """Build the descriptor of Q(n^(1/k)), rejecting reducible x^k - n."""
    return FieldDescriptor(n, k)


#: The rational field, as a degree-1 descriptor.
QQ = field_make(2, 1)


# JSON forms shared by the mask and certificate files: a field is
# {"n": int, "k": int}, a rational a string or an integer, an element the
# list of its rational coordinates.  ``what`` names the file in errors.


def _json_field(data, what: str) -> FieldDescriptor:
    """The field of ``data["field"]``; ValueError on any other shape."""
    field = data.get("field") if isinstance(data, dict) else None
    if not (isinstance(field, dict) and type(field.get("n")) is int
            and type(field.get("k")) is int):
        raise ValueError(f"{what} field must be an object with integers n and k")
    return field_make(field["n"], field["k"])


def _json_rational(q, what: str) -> Fraction:
    if type(q) not in (int, str):
        raise ValueError(f"{what} rational {q!r} is not a string or an integer")
    try:
        return Fraction(q)
    except ZeroDivisionError:
        raise ValueError(f"{what} rational {q!r} has denominator 0") from None


def _json_element(desc: FieldDescriptor, coords, what: str) -> "FieldElement":
    if not isinstance(coords, list):
        raise ValueError(f"{what} coordinates {coords!r} are not a list")
    return desc.element([_json_rational(q, what) for q in coords])


def _canonical(desc: FieldDescriptor, num, den: int) -> "FieldElement":
    """The element num / den for integers num (length k) and den != 0."""
    if den < 0:
        num = [-x for x in num]
        den = -den
    g = gcd(den, *num)
    if g != 1:
        num = [x // g for x in num]
        den //= g
    return FieldElement(desc, tuple(num), den)


def _common_field(values) -> FieldDescriptor:
    """The field of degree > 1 among those of ``values``, else Q; a
    second one is left for ``lift`` to refuse."""
    for x in values:
        if isinstance(x, FieldElement) and x.desc.k > 1:
            return x.desc
    return QQ


def _coerce_pair(a: "FieldElement", b) -> tuple["FieldElement", "FieldElement"]:
    """a and b lifted into their common field."""
    desc = _common_field((a, b))
    return desc.lift(a), desc.lift(b)


_RATIONAL_TYPES = frozenset((int, bool, Fraction))


class FieldElement:
    """An element (N_0 + N_1 theta + ... + N_{k-1} theta^{k-1}) / D of
    Q(theta).

    ``num`` is the tuple of integers N_j and ``den`` the integer D, in the
    canonical form D > 0 and gcd(N_0, ..., N_{k-1}, D) = 1, so equal
    elements of one field have equal ``num`` and ``den``; zero is
    ((0, ..., 0), 1).  The constructor takes that form as given: build
    elements through ``FieldDescriptor.element``/``rational`` or
    arithmetic.  ``coeffs`` is the read-only tuple of coordinates
    q_j = N_j / D as ``Fraction``s.
    """

    __slots__ = ("desc", "num", "den", "_coeffs", "_hash")

    def __init__(self, desc: FieldDescriptor, num: tuple[int, ...], den: int):
        self.desc = desc
        self.num = num
        self.den = den
        self._coeffs: Optional[tuple[Fraction, ...]] = None
        self._hash: Optional[int] = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        cs = self._coeffs
        if cs is None:
            den = self.den
            cs = self._coeffs = tuple(Fraction(x, den) for x in self.num)
        return cs

    # -- exact structure ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    @property
    def is_integer(self) -> bool:
        return self.den == 1 and not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.coeffs[0]

    def as_integer(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.num[0]

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        if type(other) is FieldElement and other.desc is self.desc:
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            # an int has denominator 1; both sides are in lowest terms
            return (not any(self.num[1:]) and self.num[0] == other.numerator
                    and self.den == other.denominator)
        if not isinstance(other, FieldElement):
            return NotImplemented
        try:
            a, b = _coerce_pair(self, other)
        except DescriptorMismatch:
            return False
        return a.num == b.num and a.den == b.den

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            num = self.num
            if any(num[1:]):
                h = hash((num, self.den))
            else:
                h = _rational_hash(num[0], self.den)
            self._hash = h
        return h

    # -- arithmetic -------------------------------------------------------

    # An int, bool or Fraction operand acts on the numerators directly: the
    # result equals the one through ``desc.rational(other)`` without
    # building the lifted element.  The exact type test keeps the
    # FieldElement-operand path free of the ABC instance check that
    # ``isinstance(other, Fraction)`` makes; other int or Fraction
    # subclasses still go through ``_coerce_pair``.

    def _add_rational(self, p: int, q: int) -> "FieldElement":
        """self + p/q for p/q in lowest terms, q > 0."""
        num, den = self.num, self.den
        if q == 1:
            # no prime of den divides every numerator: still canonical
            return FieldElement(self.desc, (num[0] + p * den, *num[1:]), den)
        return FieldElement(self.desc, *_sum(num, den, (p, *self.desc._zeros), q))

    def _mul_rational(self, p: int, q: int) -> "FieldElement":
        """self * p/q for p/q in lowest terms, q > 0."""
        num, den = self.num, self.den
        g = gcd(q, *num)
        if g != 1:
            num = [x // g for x in num]
            q //= g
        g = gcd(den, p)
        if g != 1:
            p //= g
            den //= g
        return FieldElement(self.desc, tuple([x * p for x in num]), den * q)

    def __add__(self, other) -> "FieldElement":
        a = self
        if type(other) is not FieldElement or other.desc is not a.desc:
            if type(other) in _RATIONAL_TYPES:
                return a._add_rational(other.numerator, other.denominator)
            a, other = _coerce_pair(a, other)
        return FieldElement(a.desc, *_sum(a.num, a.den, other.num, other.den))

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.desc, tuple([-x for x in self.num]), self.den)

    def __sub__(self, other) -> "FieldElement":
        a = self
        if type(other) is not FieldElement or other.desc is not a.desc:
            if type(other) in _RATIONAL_TYPES:
                return a._add_rational(-other.numerator, other.denominator)
            a, other = _coerce_pair(a, other)
        return FieldElement(a.desc, *_sum(a.num, a.den,
                                          [-x for x in other.num], other.den))

    def __rsub__(self, other) -> "FieldElement":
        if type(other) in _RATIONAL_TYPES:
            return (-self)._add_rational(other.numerator, other.denominator)
        return (-self).__add__(other)

    def __mul__(self, other) -> "FieldElement":
        a = self
        if type(other) is not FieldElement or other.desc is not a.desc:
            if type(other) in _RATIONAL_TYPES:
                return a._mul_rational(other.numerator, other.denominator)
            a, other = _coerce_pair(a, other)
        desc = a.desc
        an, ad, bn, bd = a.num, a.den, other.num, other.den
        if other is not a:
            # cancel across the operands first, as Fraction._mul does
            g = gcd(bd, *an)
            if g != 1:
                an = [x // g for x in an]
                bd //= g
            g = gcd(ad, *bn)
            if g != 1:
                bn = [x // g for x in bn]
                ad //= g
        den = ad * bd
        k = desc.k
        if k == 1:
            return FieldElement(desc, (an[0] * bn[0],), den)
        if k == 2:
            a0, a1 = an
            b0, b1 = bn
            if not a1 or not b1:
                # a rational factor keeps the cancelled form canonical
                return FieldElement(desc, (a0 * b0, a0 * b1 + a1 * b0), den)
            num = [a0 * b0 + desc.n * a1 * b1, a0 * b1 + a1 * b0]
        else:
            # convolve, then fold theta^(k+j) = n * theta^j
            num = [0] * (2 * k - 1)
            for i, x in enumerate(an):
                if x:
                    for j, y in enumerate(bn):
                        if y:
                            num[i + j] += x * y
            n = desc.n
            num = [x + n * y for x, y in zip(num, num[k:])] + [num[k - 1]]
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
        return FieldElement(desc, tuple(num), den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse: D / N(theta) with N(theta)^-1 from the
        integer multiplication matrix of N(theta)."""
        num, den = self.num, self.den
        if not any(num):
            raise DivisionByZero("inverse of zero")
        desc = self.desc
        k = desc.k
        if not any(num[1:]):
            n0 = num[0]
            if n0 < 0:
                return FieldElement(desc, (-den, *desc._zeros), -n0)
            return FieldElement(desc, (den, *desc._zeros), n0)
        if k == 2:
            # (a + b theta)^-1 = (a - b theta) / (a^2 - n b^2)
            a, b = num
            return _canonical(desc, (den * a, -den * b), a * a - desc.n * b * b)
        # columns: numerators of N(theta) * theta^j; solve M x = e_0 by
        # fraction-free Gauss-Jordan, each row kept primitive
        cols = [num]
        for _ in range(k - 1):
            c = cols[-1]
            cols.append((desc.n * c[-1], *c[:-1]))
        aug = [[cols[j][i] for j in range(k)] + [1 if i == 0 else 0]
               for i in range(k)]
        for col in range(k):
            piv = next((r for r in range(col, k) if aug[r][col]), None)
            if piv is None:
                raise DivisionByZero("singular multiplication matrix")
            aug[col], aug[piv] = aug[piv], aug[col]
            prow = aug[col]
            p = prow[col]
            for r in range(k):
                f = aug[r][col]
                if r != col and f:
                    row = [p * v - f * w for v, w in zip(aug[r], prow)]
                    g = gcd(*row)
                    aug[r] = [v // g for v in row]
        # aug is diagonal now: x_i = aug[i][k] / aug[i][i]
        lcd = math.lcm(*(row[i] for i, row in enumerate(aug)))
        return _canonical(desc, [den * row[k] * (lcd // row[i])
                                 for i, row in enumerate(aug)], lcd)

    def __truediv__(self, other) -> "FieldElement":
        if type(other) in _RATIONAL_TYPES:
            p, q = other.numerator, other.denominator
            a = self
        else:
            a, b = _coerce_pair(self, other)
            if any(b.num[1:]):
                return a * b.inverse()
            p, q = b.num[0], b.den
        if not p:
            raise DivisionByZero("division by zero element")
        # a / (p/q) = a * (q/p)
        return a._mul_rational(-q, -p) if p < 0 else a._mul_rational(q, p)

    def __rtruediv__(self, other) -> "FieldElement":
        a, b = _coerce_pair(self, other)  # a=self lifted, b=other lifted
        return b / a

    def __pow__(self, e: int) -> "FieldElement":
        if not isinstance(e, int):
            raise TypeError("exponent must be an integer")
        if e < 0:
            return self.inverse() ** (-e)
        result = self.desc.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __abs__(self) -> "FieldElement":
        return -self if self.sign() < 0 else self

    # -- numerics ---------------------------------------------------------

    def __float__(self) -> float:
        """The nearest float, ties to even."""
        num, den = self.num, self.den
        if not any(num[1:]):
            return num[0] / den
        return self.rounded(_dyadic_float)

    def rounded(self, to: Callable[[int, int], object]):
        """The value rounded by ``to``, a monotone rounding ``to(n, p)``
        of n / 2^p: p doubles from 64 until both ends of
        ``fixed_point(p)`` round to one value on one side of zero.  An
        irrational value is never a tie, so a correct ``to`` gives the
        correctly rounded value."""
        p = _SIGN_START_PREC
        while True:
            lo, hi = self.fixed_point(p)
            r = to(lo, p)
            if r == to(hi, p) and (lo < 0) == (hi < 0):
                return r
            p *= 2

    def _scaled_bounds(self, p: int) -> tuple[int, int]:
        """Integers lo <= x * D * 2^p <= hi, hi - lo <= sum |N_j|: the
        directed sum of the numerators against the theta-power bounds."""
        lo = hi = 0
        for n_j, (t_lo, t_hi) in zip(self.num, self.desc.theta_power_bounds(p)):
            if n_j > 0:
                lo += n_j * t_lo
                hi += n_j * t_hi
            elif n_j < 0:
                lo += n_j * t_hi
                hi += n_j * t_lo
        return lo, hi

    def _enclosures(self) -> Iterator[tuple[int, int, int]]:
        """Integers (lo, hi, D << p) with lo <= x * D * 2^p <= hi, for
        p = 64, 128, ...  The width hi - lo stays at most sum |N_j| as p
        doubles."""
        den = self.den
        p = _SIGN_START_PREC
        while True:
            yield (*self._scaled_bounds(p), den << p)
            p *= 2

    def fixed_point(self, p: int) -> tuple[int, int]:
        """Integers lo <= x * 2^p <= hi with hi - lo <= 2, for p >= 0.

        The bounds of x * D * 2^t are taken at t >= p + bitlen(sum |N_j|),
        rounded up to a multiple of 64 so the theta-power bounds are
        shared, and divided by D * 2^(t - p) outward: their width
        sum |N_j| shrinks below one unit however far the coordinates
        cancel.  Numerators and denominator need not be in lowest terms.
        """
        num, den = self.num, self.den
        if not any(num[1:]):
            v = num[0] << p
            return v // den, -(-v // den)
        t = -(-(p + sum(map(abs, num)).bit_length()) // 64) * 64
        lo, hi = self._scaled_bounds(t)
        den <<= t - p
        return lo // den, -(-hi // den)

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}; never decided numerically for zero."""
        if not any(self.num[1:]):
            n0 = self.num[0]
            return (n0 > 0) - (n0 < 0)
        for lo, hi, _ in self._enclosures():
            if lo > 0:
                return 1
            if hi < 0:
                return -1

    def floor(self, scale: int = 1) -> int:
        """Exact floor of scale * x for an integer scale >= 1.  The scale
        multiplies the integer enclosure, so no product element is built."""
        num = self.num
        if not any(num[1:]):
            return num[0] * scale // self.den
        for lo, hi, den in self._enclosures():
            f = lo * scale // den
            if f == hi * scale // den:
                return f

    # -- order ----------------------------------------------------------

    def _cmp(self, other) -> int:
        """Sign of self - other, from the numerators cross-multiplied by
        the denominators: a.num * b.den - b.num * a.den has the sign of
        the difference, so no gcd-normalised difference is built."""
        a = self
        if type(other) is not FieldElement or other.desc is not a.desc:
            if type(other) in _RATIONAL_TYPES:
                p, q = other.numerator, other.denominator
                num = a.num
                d0 = num[0] * q - p * a.den
                if not any(num[1:]):
                    return (d0 > 0) - (d0 < 0)
                return FieldElement(a.desc, (d0, *[x * q for x in num[1:]]), 1).sign()
            a, other = _coerce_pair(a, other)
        an, ad, bn, bd = a.num, a.den, other.num, other.den
        if ad == bd:
            diff = tuple(map(sub, an, bn))
        else:
            diff = tuple([x * bd - y * ad for x, y in zip(an, bn)])
        if not any(diff[1:]):
            d0 = diff[0]
            return (d0 > 0) - (d0 < 0)
        return FieldElement(a.desc, diff, 1).sign()

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    # -- text form --------------------------------------------------------

    def to_text(self, with_field: bool = False) -> str:
        """Serialize as "q0 + q1*t + ..." with exact rationals "p/q"."""
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if j == 0:
                body = str(mag)
            elif mag == 1:
                body = "t" if j == 1 else f"t^{j}"
            else:
                body = f"{mag}*t" if j == 1 else f"{mag}*t^{j}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        text = " ".join(parts) if parts else "0"
        if with_field and not self.desc.is_rational_field:
            text += f" (t^{self.desc.k} = {self.desc.n})"
        return text

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"FieldElement({self.to_text(with_field=True)!r})"


ExactReal = Union[int, Fraction, FieldElement]


def _rational_hash(p: int, q: int) -> int:
    """hash(Fraction(p, q)) for p/q in lowest terms, q > 0, by the rule
    for numeric hashes that ``Fraction.__hash__`` follows."""
    if q == 1:
        return hash(p)
    try:
        h = hash(hash(abs(p)) * pow(q, -1, sys.hash_info.modulus))
    except ValueError:  # q is a multiple of the modulus
        h = sys.hash_info.inf
    h = h if p >= 0 else -h
    return -2 if h == -1 else h


def _dyadic_float(n: int, p: int) -> float:
    """n / 2^p rounded to the nearest float (int division rounds
    correctly), +-inf beyond the float range."""
    try:
        return n / (1 << p)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _sum(an, ad: int, bn, bd: int) -> tuple[tuple[int, ...], int]:
    """(num, den) of an/ad + bn/bd, both canonical: Fraction._add with a
    numerator vector (the gcd of the result divides gcd(ad, bd))."""
    if ad == bd:
        num = tuple(map(add, an, bn))
        if ad == 1:
            return num, 1
        g = gcd(ad, *num)
        if g == 1:
            return num, ad
        return tuple([x // g for x in num]), ad // g
    g = gcd(ad, bd)
    if g == 1:
        return tuple([x * bd + y * ad for x, y in zip(an, bn)]), ad * bd
    s = ad // g
    t = bd // g
    num = [x * t + y * s for x, y in zip(an, bn)]
    g2 = gcd(g, *num)
    if g2 == 1:
        return tuple(num), s * bd
    return tuple([x // g2 for x in num]), s * (bd // g2)


_TERM_RE = re.compile(
    r"""^(?:
        (?P<coef>[0-9]+(?:/[0-9]+)?)                    # bare rational
      | (?:(?P<c1>[0-9]+(?:/[0-9]+)?)\*)?               # optional coef*
        t(?:\^(?P<pow>[0-9]+))?                         # t or t^j
        (?:/(?P<den>[0-9]+))?                           # optional /den
    )$""",
    re.VERBOSE,
)


def parse_element(text: str, desc: FieldDescriptor) -> FieldElement:
    """Parse the "q0 + q1*t + ..." text form (inverse of ``to_text``).

    Accepts an optional trailing "(t^k = n)" annotation, which must match
    the descriptor.
    """
    s = text.strip()
    m = re.search(r"\(t\^(\d+)\s*=\s*(\d+)\)\s*$", s)
    if m:
        if int(m.group(1)) != desc.k or int(m.group(2)) != desc.n:
            raise ValueError(f"field annotation {m.group(0)!r} does not match {desc}")
        s = s[: m.start()].strip()
    s = s.replace("-", "+-")
    coeffs = [Fraction(0)] * desc.k
    for raw in s.split("+"):
        term = raw.strip().replace(" ", "")
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        tm = _TERM_RE.match(term)
        if not tm:
            raise ValueError(f"cannot parse field-element term {raw.strip()!r}")
        try:
            if tm.group("coef") is not None:
                j, c = 0, Fraction(tm.group("coef"))
            else:
                j = int(tm.group("pow") or 1)
                c = Fraction(tm.group("c1")) if tm.group("c1") else Fraction(1)
                if tm.group("den"):
                    c /= int(tm.group("den"))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in field-element term {raw.strip()!r}") from None
        if j >= desc.k:
            raise ValueError(f"power t^{j} exceeds field degree {desc.k}")
        coeffs[j] += -c if neg else c
    return desc.element(coeffs)
