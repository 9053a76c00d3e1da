"""Exact arithmetic in the real field Q(theta), theta the positive real
k-th root of an integer n >= 2.

Elements are stored as coordinate vectors (q_0, ..., q_{k-1}) of exact
rationals with respect to the power basis 1, theta, ..., theta^{k-1};
multiplication reduces via theta^k = n.  The representation is unique
because x^k - n is kept irreducible (n must not be a perfect p-th power
for any prime p dividing k), so zero tests, equality, rationality and
integrality are decided exactly from the coordinates and never
numerically.

Sign and floor of an irrational element are decided with integer
arithmetic only: the coordinates are cleared to one denominator D, so
x * D = sum_j N_j theta^j with integers N_j, and each theta^j * 2^p is
enclosed between floor(theta^j * 2^p) and that plus one (an integer
k-th root).  The directed sums give integers lo <= x * D * 2^p <= hi of
width at most sum_j |N_j|, while |x| * D * 2^p doubles with p; p starts
at 64 and doubles until the enclosure decides.  Zero and rational
elements are decided from the coordinates, so the loop always ends.

Values are immutable; every operation is a pure function.  The float
and complex values a caller asks for (``ball``, ``approx``, ``float``)
come from mpmath interval arithmetic, which temporarily adjusts the
process-global mpmath interval precision; enclosures stay valid under
concurrent precision changes (outward rounding is
precision-independent), only their width is affected.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

import mpmath
from mpmath import iv, mp
from mpmath.libmp import to_rational

from .errors import DescriptorMismatch, DivisionByZero, IrreducibilityError

RationalLike = Union[int, Fraction]

_SIGN_START_PREC = 64


@contextmanager
def _iv_prec(prec: int) -> Iterator[None]:
    """Temporarily set the interval-context working precision."""
    old = iv.prec
    iv.prec = prec
    try:
        yield
    finally:
        iv.prec = old


def _iv_fraction(q: Fraction):
    """Exact rational -> enclosing interval at the current precision."""
    if q.denominator == 1:
        return iv.mpf(q.numerator)
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def _mpf_to_fraction(raw) -> Fraction:
    """Exact value of a finite raw mpf tuple (``x._mpf_``) as a Fraction."""
    p, q = to_rational(raw)
    return Fraction(int(p), int(q))


def iv_endpoints(ball) -> tuple[Fraction, Fraction]:
    """Exact rational endpoints of an interval."""
    lo, hi = ball._mpi_
    return _mpf_to_fraction(lo), _mpf_to_fraction(hi)


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

    __slots__ = ("n", "k", "_theta_cache", "_power_bounds")

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
        self._theta_cache: dict[int, object] = {}
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

    def theta_ball(self):
        """Enclosure of theta at the current interval precision."""
        prec = iv.prec
        cached = self._theta_cache.get(prec)
        if cached is not None:
            return cached
        if self.k == 1:
            val = iv.mpf(self.n)
        elif self.k == 2:
            val = iv.sqrt(iv.mpf(self.n))
        else:
            val = iv.exp(iv.log(iv.mpf(self.n)) / self.k)
        self._theta_cache[prec] = val
        return val

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
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.k:
            raise ValueError(f"expected at most {self.k} coordinates")
        cs += [Fraction(0)] * (self.k - len(cs))
        return FieldElement(self, tuple(cs))

    def rational(self, q: RationalLike) -> "FieldElement":
        return self.element([Fraction(q)])

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


def _coerce_pair(a: "FieldElement", b) -> tuple["FieldElement", "FieldElement"]:
    """Lift rationals / degree-1 elements into the richer field."""
    if isinstance(b, FieldElement):
        if a.desc == b.desc:
            return a, b
        if b.desc.is_rational_field:
            return a, a.desc.rational(b.coeffs[0])
        if a.desc.is_rational_field:
            return b.desc.rational(a.coeffs[0]), b
        raise DescriptorMismatch(f"cannot mix {a.desc} and {b.desc}")
    if isinstance(b, (int, Fraction)):
        return a, a.desc.rational(b)
    raise TypeError(f"cannot combine FieldElement with {type(b).__name__}")


_RATIONAL_TYPES = frozenset((int, bool, Fraction))


class FieldElement:
    """An element q_0 + q_1 theta + ... + q_{k-1} theta^{k-1} of Q(theta)."""

    __slots__ = ("desc", "coeffs", "_hash")

    def __init__(self, desc: FieldDescriptor, coeffs: tuple[Fraction, ...]):
        self.desc = desc
        self.coeffs = coeffs
        self._hash: Optional[int] = None

    # -- exact structure ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    @property
    def is_integer(self) -> bool:
        return self.is_rational and self.coeffs[0].denominator == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.coeffs[0]

    def as_integer(self) -> int:
        q = self.as_fraction()
        if q.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return q.numerator

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.coeffs[0] == other
        if not isinstance(other, FieldElement):
            return NotImplemented
        try:
            a, b = _coerce_pair(self, other)
        except DescriptorMismatch:
            return False
        return a.coeffs == b.coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            if self.is_rational:
                h = hash(self.coeffs[0])
            else:
                h = hash((self.desc, self.coeffs))
            self._hash = h
        return self._hash

    # -- arithmetic -------------------------------------------------------

    # An int, bool or Fraction operand acts on the coordinates directly:
    # the result equals the one through ``desc.rational(other)``,
    # coordinate for coordinate, without building the lifted element.
    # The exact type test keeps the FieldElement-operand path free of the
    # ABC instance check that ``isinstance(other, Fraction)`` makes; other
    # int or Fraction subclasses still go through ``_coerce_pair``.

    def __add__(self, other) -> "FieldElement":
        if type(other) in _RATIONAL_TYPES:
            cs = self.coeffs
            return FieldElement(self.desc, (cs[0] + other, *cs[1:]))
        a, b = _coerce_pair(self, other)
        return FieldElement(a.desc, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.desc, tuple(-x for x in self.coeffs))

    def __sub__(self, other) -> "FieldElement":
        if type(other) in _RATIONAL_TYPES:
            cs = self.coeffs
            return FieldElement(self.desc, (cs[0] - other, *cs[1:]))
        a, b = _coerce_pair(self, other)
        return FieldElement(a.desc, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other) -> "FieldElement":
        if type(other) in _RATIONAL_TYPES:
            cs = self.coeffs
            return FieldElement(self.desc, (other - cs[0], *(-x for x in cs[1:])))
        return (-self).__add__(other)

    def __mul__(self, other) -> "FieldElement":
        if type(other) in _RATIONAL_TYPES:
            return FieldElement(self.desc, tuple(x * other for x in self.coeffs))
        a, b = _coerce_pair(self, other)
        k, n = a.desc.k, a.desc.n
        if k == 1:
            return FieldElement(a.desc, (a.coeffs[0] * b.coeffs[0],))
        # convolve, then fold theta^(k+j) = n * theta^j
        out = [Fraction(0)] * k
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b.coeffs):
                if y == 0:
                    continue
                t = i + j
                if t < k:
                    out[t] += x * y
                else:
                    out[t - k] += n * x * y
        return FieldElement(a.desc, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse, via the k x k multiplication matrix."""
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        desc = self.desc
        k = desc.k
        if k == 1:
            return FieldElement(desc, (1 / self.coeffs[0],))
        # columns: coordinates of self * theta^j
        cols = []
        cur = self
        theta = desc.theta()
        for _ in range(k):
            cols.append(cur.coeffs)
            cur = cur * theta
        # solve sum_j x_j * (self * theta^j) = 1 by Gaussian elimination
        aug = [[cols[j][i] for j in range(k)] + [Fraction(1 if i == 0 else 0)]
               for i in range(k)]
        for col in range(k):
            piv = next((r for r in range(col, k) if aug[r][col] != 0), None)
            if piv is None:
                raise DivisionByZero("singular multiplication matrix")
            aug[col], aug[piv] = aug[piv], aug[col]
            inv_p = 1 / aug[col][col]
            aug[col] = [v * inv_p for v in aug[col]]
            for r in range(k):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
        return FieldElement(desc, tuple(aug[i][k] for i in range(k)))

    def __truediv__(self, other) -> "FieldElement":
        a, b = _coerce_pair(self, other)
        if b.is_zero:
            raise DivisionByZero("division by zero element")
        if b.is_rational:
            q = b.coeffs[0]
            return FieldElement(a.desc, tuple(c / q for c in a.coeffs))
        return a * b.inverse()

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

    def ball(self, prec: int = 64):
        """Outward-rounded enclosure of the real value at ~prec bits."""
        with _iv_prec(prec + 8 + 2 * self.desc.k):
            th = self.desc.theta_ball()
            acc = iv.mpf(0)
            for c in reversed(self.coeffs):
                acc = acc * th + _iv_fraction(c)
            return acc

    def approx(self, prec: int = 64):
        """Arbitrary-precision midpoint approximation (mpmath mpf)."""
        b = self.ball(prec)
        with mp.workprec(prec):
            return (mpmath.mpf(b.a) + mpmath.mpf(b.b)) / 2

    def __float__(self) -> float:
        if self.is_rational:
            return float(self.coeffs[0])
        return float(self.approx(64))

    def _enclosures(self) -> Iterator[tuple[int, int, int]]:
        """Integers (lo, hi, D << p) with lo <= x * D * 2^p <= hi, for
        p = 64, 128, ...; D is the common denominator of the coordinates.
        The width hi - lo stays at most sum |N_j| as p doubles."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        nums = [c.numerator * (den // c.denominator) for c in self.coeffs]
        p = _SIGN_START_PREC
        while True:
            lo = hi = 0
            for num, (t_lo, t_hi) in zip(nums, self.desc.theta_power_bounds(p)):
                if num > 0:
                    lo += num * t_lo
                    hi += num * t_hi
                elif num < 0:
                    lo += num * t_hi
                    hi += num * t_lo
            yield lo, hi, den << p
            p *= 2

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}; never decided numerically for zero."""
        if self.is_zero:
            return 0
        if self.is_rational:
            return 1 if self.coeffs[0] > 0 else -1
        for lo, hi, _ in self._enclosures():
            if lo > 0:
                return 1
            if hi < 0:
                return -1

    def floor(self) -> int:
        """Exact floor."""
        if self.is_rational:
            q = self.coeffs[0]
            return q.numerator // q.denominator
        for lo, hi, scale in self._enclosures():
            f = lo // scale
            if f == hi // scale:
                return f

    # -- order ----------------------------------------------------------

    def __lt__(self, other) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - other).sign() >= 0

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
        if tm.group("coef") is not None:
            j, c = 0, Fraction(tm.group("coef"))
        else:
            j = int(tm.group("pow") or 1)
            c = Fraction(tm.group("c1")) if tm.group("c1") else Fraction(1)
            if tm.group("den"):
                c /= int(tm.group("den"))
        if j >= desc.k:
            raise ValueError(f"power t^{j} exceeds field degree {desc.k}")
        coeffs[j] += -c if neg else c
    return FieldElement(desc, tuple(coeffs))


@dataclass(frozen=True)
class Classification:
    """Exact structural flags plus a numeric approximation."""

    is_zero: bool
    is_integer: bool
    sign: int
    approx: object  # mpmath mpf


def classify(a: FieldElement, prec: int = 64) -> Classification:
    """Exact zero/integer tests, exact sign, numeric value at ~prec bits."""
    return Classification(
        is_zero=a.is_zero,
        is_integer=a.is_integer,
        sign=a.sign(),
        approx=a.approx(prec),
    )


def int_ratio(a: FieldElement, b: FieldElement) -> Optional[int]:
    """The integer p with a = p*b, if it exists (exact test)."""
    a, b = _coerce_pair(a, b)
    if b.is_zero:
        raise DivisionByZero("ratio against zero element")
    r = a / b
    if r.is_integer:
        return r.as_integer()
    return None
