"""Exact algebra of quasi-trigonometric polynomials.

A quasi-trigonometric polynomial is a finite sum

    P(w) = sum_j  c_j * E(d_j, w),        E(d, w) = exp(-2 pi i d . w),

with rational coefficients c_j and exponents d_j in Q(theta)^s for a
fixed real field Q(theta) of degree k: a ``FieldElement`` for s = 1, an
``ExponentVector`` of s field elements for s >= 2.  Exponent equality is
exact, so terms merge and cancel exactly; products, shifts and
divisibility by binomials 1 - E(m, w) are computed symbolically for
every s.  For s = 1 there is also evaluation at a real point to an
outward-rounded complex enclosure at a precision the caller passes:
``eval_ball`` keeps the per-precision enclosures of its terms and hands
the term loop to ``enclosure``, the one module that works on raw
``mpmath.libmp`` intervals.  Nothing here imports mpmath.

Both sides of a term are stored fraction-free.  Coefficients are
integer numerators over one positive common denominator in lowest
terms, as FLINT's ``fmpq_poly`` stores them.  Exponents are the same
idea applied to the lattice they live in, in the spirit of FLINT's
``nf_elem``: an exponent's s*k power-basis coordinates (coordinate j of
component i at index i*k + j) times one positive exponent denominator
shared by the whole polynomial, kept minimal.  Every exponent the
refinability decision meets is an integer combination of the m_j and
lambda*m_j, so sums, products, shifts and binomial division add and
scale integer tuples and never do field arithmetic term by term.
``items()`` hands the terms out sorted by exponent, with the exponents
as ``FieldElement``s or ``ExponentVector``s and the coefficients as
``Fraction``s, built on first use and cached; ``terms`` builds the same
map in storage order on each read.  Scalar field-element factors (such
as dilation powers) are kept outside the term map by the callers.
Exponents enter the poly's field by the field rule of ``exactreal``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter, mul
from typing import Mapping, Optional, Sequence, Union

from .enclosure import ComplexBall, eval_terms, term_balls
from .errors import DescriptorMismatch, ZeroPolynomial
from .exactreal import ExactReal, FieldDescriptor, FieldElement, _canonical


class ExponentVector(tuple):
    """An exponent in Q(theta)^s, s >= 2: a tuple of field elements with
    elementwise + and -, and multiplication by a scalar.  Equality,
    hashing and the lexicographic order are the tuple's."""

    __slots__ = ()

    @property
    def desc(self) -> FieldDescriptor:
        return self[0].desc

    @property
    def is_zero(self) -> bool:
        return not any(self)

    def __add__(self, other: "ExponentVector") -> "ExponentVector":
        return ExponentVector([a + b for a, b in zip(self, other)])

    def __sub__(self, other: "ExponentVector") -> "ExponentVector":
        return ExponentVector([a - b for a, b in zip(self, other)])

    def __neg__(self) -> "ExponentVector":
        return ExponentVector([-a for a in self])

    def __mul__(self, x) -> "ExponentVector":
        return ExponentVector([a * x for a in self])

    __rmul__ = __mul__  # never the tuple's repetition

    def to_text(self) -> str:
        return "(" + ", ".join(a.to_text() for a in self) + ")"

    __str__ = to_text


Exponent = Union[FieldElement, ExponentVector]
ExponentLike = Union[Exponent, int, Fraction, tuple]


def _exponent(desc: FieldDescriptor, x: ExponentLike) -> Exponent:
    """x as an exponent over ``desc``: a tuple becomes an ExponentVector,
    and each coordinate enters ``desc`` by ``desc.lift``."""
    if isinstance(x, tuple):
        return ExponentVector([desc.lift(a) for a in x])
    return desc.lift(x)


def _dot(a: Sequence, b: Sequence[FieldElement]) -> FieldElement:
    """a . b, summed from zero in coordinate order; ``a`` holds ints or
    field elements, ``b`` field elements."""
    out = b[0].desc.zero()
    for x, y in zip(a, b):
        out = out + x * y
    return out


def _near_key(d: Exponent):
    """An integer within 2 of d * 2^64 (one per component of a vector):
    a presort key, ordered as d wherever exponents differ by more than
    2^-62."""
    if isinstance(d, ExponentVector):
        return tuple([a.fixed_point(64)[0] for a in d])
    return d.fixed_point(64)[0]


def _zero_exponent(desc: FieldDescriptor, like: Optional[Exponent]) -> Exponent:
    """The zero exponent of ``like``'s dimension (a scalar for None)."""
    if isinstance(like, ExponentVector):
        return ExponentVector([desc.zero()] * len(like))
    return desc.zero()


# -- lattice coordinates ------------------------------------------------------


def _lattice(desc: FieldDescriptor, x: ExponentLike) -> tuple[tuple[int, ...], int]:
    """(N, D) with N / D the coordinates of the exponent x and D > 0 the
    least common denominator, so gcd(D, *N) = 1."""
    x = _exponent(desc, x)
    if isinstance(x, FieldElement):
        return x.num, x.den
    den = math.lcm(*[a.den for a in x])
    return tuple([c * (den // a.den) for a in x for c in a.num]), den


def _from_lattice(desc: FieldDescriptor, key: tuple[int, ...], eden: int) -> Exponent:
    """The exponent with coordinates key / eden: a scalar for k coordinates,
    an ``ExponentVector`` for s*k with s >= 2."""
    k = desc.k
    if len(key) == k:
        return _canonical(desc, key, eden)
    return ExponentVector([_canonical(desc, key[i:i + k], eden)
                           for i in range(0, len(key), k)])


def _rescaled(num: dict[tuple, int], f: int) -> dict[tuple, int]:
    """``num`` with every exponent tuple multiplied by f."""
    if f == 1:
        return num
    return {tuple([x * f for x in d]): c for d, c in num.items()}


def _lowest(num: dict[tuple, int], eden: int) -> tuple[dict[tuple, int], int]:
    """(num, eden) with the common factor of eden and every exponent tuple
    divided out.  The scan stops at the first tuple that brings the gcd
    to 1, which is nearly always one of the first few."""
    if eden == 1:
        return num, 1
    g = eden
    for d in num:
        g = math.gcd(g, *d)
        if g == 1:
            return num, eden
    return {tuple([x // g for x in d]): c for d, c in num.items()}, eden // g


class QTrigPoly:
    """Finite exact map exponent -> nonzero rational coefficient, stored
    as integers.

    The term with lattice tuple N has exponent N / ``eden`` and
    coefficient ``num[N] / den``:

    - ``num`` maps each exponent's tuple of s*k ints (its power-basis
      coordinates times ``eden``, component after component) to a
      nonzero int, in insertion order;
    - ``den`` is a positive int with gcd(den, *num.values()) = 1;
    - ``eden`` is a positive int with gcd(eden, every coordinate of
      every tuple) = 1.

    ``den`` and ``eden`` are 1 for the zero poly, so equal polys have
    equal ``num``, ``den`` and ``eden``.  ``terms`` is the same map with
    exponents as ``FieldElement``s (s = 1) or ``ExponentVector``s
    (s >= 2) and ``Fraction`` coefficients, in the same order, built
    anew on each read; ``eval_ball`` reads it once per precision.
    ``items()`` holds the same pairs sorted by exponent, built on first
    use and cached; ``exponents()`` and ``to_text`` read it.

    Exponents are all scalars or all vectors of one length s >= 2.
    Immutable after construction.  ``exponents()`` sorts exactly: by real
    value for s = 1, lexicographically for s >= 2 (ties are impossible
    because exponents are pairwise distinct).  ``eval_ball`` takes s = 1
    only.  The first ``eval_ball`` fills a cache of the term enclosures
    per working precision; a poly never evaluated keeps it ``None``.
    """

    __slots__ = ("desc", "num", "den", "eden", "_items", "_ball_cache")

    def __init__(self, desc: FieldDescriptor,
                 terms: Mapping[ExponentLike, Fraction]):
        clean: dict[Exponent, Fraction] = {}
        for d, c in terms.items():
            d = _exponent(desc, d)
            c = Fraction(c)
            if c != 0:
                clean[d] = clean.get(d, Fraction(0)) + c
        clean = {d: c for d, c in clean.items() if c != 0}
        # the lcm of reduced denominators leaves the numerators coprime to
        # it, on the coefficient side and on the exponent side alike
        den = math.lcm(*[c.denominator for c in clean.values()])
        lattice = [_lattice(desc, d) for d in clean]
        eden = math.lcm(*[e for _, e in lattice])
        self.desc = desc
        self.num = {tuple([x * (eden // e) for x in key]): c.numerator * (den // c.denominator)
                    for (key, e), c in zip(lattice, clean.values())}
        self.den = den
        self.eden = eden
        self._items: Optional[tuple[tuple[Exponent, Fraction], ...]] = None
        self._ball_cache: Optional[dict[int, tuple]] = None

    @staticmethod
    def _from_clean(desc: FieldDescriptor, num: dict[tuple, int], den: int,
                    eden: int) -> "QTrigPoly":
        """Wrap nonzero int numerators over den > 0, keyed by distinct
        exponent tuples already in lowest terms over eden, without
        re-checking them; only the common factor of den and the
        numerators is divided out."""
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {d: c // g for d, c in num.items()}
                den //= g
        out = object.__new__(QTrigPoly)
        out.desc = desc
        out.num = num
        out.den = den
        out.eden = eden
        out._items = None
        out._ball_cache = None
        return out

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(desc: FieldDescriptor) -> "QTrigPoly":
        return QTrigPoly(desc, {})

    @staticmethod
    def constant(desc: FieldDescriptor, c: Fraction = Fraction(1),
                 like: Optional[Exponent] = None) -> "QTrigPoly":
        """c * E(0, w), with the zero exponent of ``like``'s dimension
        (a scalar when ``like`` is None)."""
        c = Fraction(c)
        s = len(like) if isinstance(like, ExponentVector) else 1
        num = {(0,) * (s * desc.k): c.numerator} if c else {}
        return QTrigPoly._from_clean(desc, num, c.denominator, 1)

    @staticmethod
    def binomial(desc: FieldDescriptor, m: ExponentLike) -> "QTrigPoly":
        """1 - E(m, w)."""
        e = _exponent(desc, m)
        if e.is_zero:
            return QTrigPoly.zero(desc)
        key, eden = _lattice(desc, e)
        return QTrigPoly._from_clean(desc, {(0,) * len(key): 1, key: -1}, 1, eden)

    # -- structure --------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """exponent -> Fraction coefficient, in the order of ``num``."""
        desc, den, eden = self.desc, self.den, self.eden
        return {_from_lattice(desc, d, eden): Fraction(c, den) for d, c in self.num.items()}

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __len__(self) -> int:
        return len(self.num)

    def exponents(self) -> tuple[Exponent, ...]:
        """Exponents sorted increasingly: by real value, or
        lexicographically for vectors."""
        return tuple([d for d, _ in self.items()])

    def items(self) -> tuple[tuple[Exponent, Fraction], ...]:
        """(exponent, coefficient) pairs in the order of ``exponents()``.

        A presort by ``_near_key`` puts nearly every pair in order, so
        the exact sort after it makes about one comparison per term; the
        exact sort alone decides the result, which is unique because
        exponents are distinct.
        """
        if self._items is None:
            pairs = sorted(self.terms.items(), key=lambda t: _near_key(t[0]))
            pairs.sort(key=itemgetter(0))
            self._items = tuple(pairs)
        return self._items

    def coefficient_sum(self) -> Fraction:
        """The exact value at w = 0."""
        return Fraction(sum(self.num.values()), self.den)

    def rational_exponents(self) -> list[tuple[tuple[int, ...], int]]:
        """(n, c) per term, in the order of ``num``, for a poly whose
        exponents are rational: the exponent's s components are
        n[i] / ``eden`` and its coefficient is c / ``den``.  Raises
        ValueError if an exponent has an irrational component."""
        k = self.desc.k
        if k == 1:
            return list(self.num.items())
        out = []
        for key, c in self.num.items():
            if any(x for i, x in enumerate(key) if i % k):
                raise ValueError("exponent is not rational")
            out.append((key[::k], c))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, QTrigPoly):
            return NotImplemented
        return (self.desc == other.desc and self.den == other.den
                and self.eden == other.eden and self.num == other.num)

    def __hash__(self):
        raise TypeError("QTrigPoly is unhashable")

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "QTrigPoly") -> None:
        if self.desc != other.desc:
            raise DescriptorMismatch("operands from different fields")

    def _common(self, other: "QTrigPoly") -> tuple[dict, dict, int]:
        """Both operands' tuple maps over lcm(eden, other.eden)."""
        a, b = self.eden, other.eden
        if a == b:
            return self.num, other.num, a
        e = math.lcm(a, b)
        return _rescaled(self.num, e // a), _rescaled(other.num, e // b), e

    def _aligned(self, x: ExponentLike) -> tuple[dict, tuple[int, ...], int]:
        """The tuple map and the tuple of exponent x over one common eden."""
        key, e = _lattice(self.desc, x)
        a = self.eden
        if e == a:
            return self.num, key, a
        common = math.lcm(a, e)
        f = common // e
        return _rescaled(self.num, common // a), tuple([v * f for v in key]), common

    def __add__(self, other: "QTrigPoly") -> "QTrigPoly":
        self._check(other)
        na, nb, eden = self._common(other)
        a, b = self.den, other.den
        if a == b:
            out = dict(na)
            for d, c in nb.items():
                out[d] = out.get(d, 0) + c
        else:
            # over lcm(a, b): scale each side's numerators up to it
            g = math.gcd(a, b)
            fa, fb = b // g, a // g
            out = {d: c * fa for d, c in na.items()}
            for d, c in nb.items():
                out[d] = out.get(d, 0) + c * fb
            a *= fa
        kept = {d: c for d, c in out.items() if c}
        if len(kept) < len(out):
            # the union of both exponent sets keeps eden minimal; a
            # cancellation may not
            kept, eden = _lowest(kept, eden)
        return QTrigPoly._from_clean(self.desc, kept, a, eden)

    def __neg__(self) -> "QTrigPoly":
        return QTrigPoly._from_clean(self.desc, {d: -c for d, c in self.num.items()},
                                     self.den, self.eden)

    def __sub__(self, other: "QTrigPoly") -> "QTrigPoly":
        return self + (-other)

    def __mul__(self, other: "QTrigPoly") -> "QTrigPoly":
        self._check(other)
        na, nb, eden = self._common(other)
        out: dict[tuple, int] = {}
        for d1, c1 in na.items():
            for d2, c2 in nb.items():
                d = tuple(map(add, d1, d2))
                out[d] = out.get(d, 0) + c1 * c2
        num, eden = _lowest({d: c for d, c in out.items() if c}, eden)
        return QTrigPoly._from_clean(self.desc, num, self.den * other.den, eden)

    def scale(self, q: Fraction) -> "QTrigPoly":
        q = Fraction(q)
        if q == 0:
            return QTrigPoly.zero(self.desc)
        p = q.numerator
        return QTrigPoly._from_clean(self.desc, {d: c * p for d, c in self.num.items()},
                                     self.den * q.denominator, self.eden)

    def shift(self, delta: ExponentLike) -> "QTrigPoly":
        """Multiply by E(delta, w): every exponent shifts by delta."""
        num, e, eden = self._aligned(delta)
        num, eden = _lowest({tuple(map(add, d, e)): c for d, c in num.items()}, eden)
        return QTrigPoly._from_clean(self.desc, num, self.den, eden)

    def substitute(self, probe: Sequence[int]) -> "QTrigPoly":
        """The univariate slice w -> z * probe of a poly with vector
        exponents: each exponent d becomes probe . d."""
        k = self.desc.k
        out: dict[tuple, int] = {}
        for d, c in self.num.items():
            # coordinate j of probe . d from coordinate j of every component
            e = tuple([sum(map(mul, probe, d[j::k])) for j in range(k)])
            out[e] = out.get(e, 0) + c
        num, eden = _lowest({e: c for e, c in out.items() if c}, self.eden)
        return QTrigPoly._from_clean(self.desc, num, self.den, eden)

    # -- evaluation ---------------------------------------------------------

    def eval_ball(self, w: ExactReal, prec: int = 64) -> ComplexBall:
        """Enclosure of P(w) at a real point w (an int, a Fraction, a float
        taken exactly or a FieldElement) with radius <= 2^(1-prec) *
        max(1, sum |c|).

        The term loop adds c * exp(-2 pi i d w) over raw ``mpmath.libmp``
        intervals at the working precision wp, starting at prec + 16.
        wp doubles until the radius bound holds or wp passes prec + 4096;
        a ball returned by that cap still encloses P(w) but may exceed the
        bound.  The enclosure of a long irrational argument (say
        (sqrt 2 - 1)^4000, with 5,086-bit coordinates) widens with its
        coordinates, so no cap relative to prec alone meets it.
        """
        return eval_terms(self._term_balls, w, prec)

    def _term_balls(self, wp: int):
        """(((exponent interval, coefficient interval), ...), sum of
        |coefficient intervals|) as raw intervals at precision ``wp``,
        cached per ``wp``."""
        cache = self._ball_cache
        if cache is None:
            cache = self._ball_cache = {}
        hit = cache.get(wp)
        if hit is None:
            hit = cache[wp] = term_balls(self.terms.items(), wp)
        return hit

    # -- divisibility --------------------------------------------------------

    def divide_binomial(self, m: ExponentLike) -> Optional["QTrigPoly"]:
        """Exact quotient P / (1 - E(m, w)), or None if not divisible.

        Terms are grouped into residue classes of exponents modulo m*Z;
        P is divisible iff every class has coefficient sum zero, and the
        quotient comes out of per-class cumulative sums.
        """
        m = _exponent(self.desc, m)
        if m.is_zero:
            raise ZeroPolynomial("binomial divisor with m = 0")
        if self.is_zero:
            return self
        verdict = self._divide_binomial_classes(m)
        if isinstance(verdict, BinomialDivisionWitness):
            return None
        return verdict

    def _divide_binomial_classes(self, m: ExponentLike):
        """Either the quotient or a witness for the failing class.

        Exponents d and d' share a class iff d - d' lies in m*Z.  Over
        one exponent denominator, let N and M be the lattice tuples of d
        and m, i0 the first nonzero coordinate of M, t(N) = floor(N[i0] /
        M[i0]) and R(N) = N - t(N)*M.  If N' = N + j*M for an integer j,
        then t(N') = t(N) + j and R(N') = R(N); conversely R(N) = R(N')
        gives N - N' = (t(N) - t(N'))*M.  So the residue R keys the
        classes of d modulo m*Z exactly, and a term lies at offset
        t(N) - t(base) from its class base, the integer j with d = base
        + j*m.  These are the classes, offsets and first-seen order that
        keying by q = d * m_i^-1 gave, for scalar and vector m alike,
        without an inverse or a field product.  Classes keep first-seen
        order with the first-seen term as base, which fixes the witness
        and the term order of the quotient.
        """
        num, M, eden = self._aligned(m)
        i0 = next(i for i, x in enumerate(M) if x)
        m0 = M[i0]
        classes: dict[tuple, tuple[tuple, int, dict[int, int]]] = {}
        for d, c in num.items():
            t = d[i0] // m0
            key = tuple([x - t * y for x, y in zip(d, M)]) if t else d
            cls = classes.get(key)
            if cls is None:
                classes[key] = (d, t, {0: c})
            else:
                cls[2][t - cls[1]] = c
        den = self.den
        out: dict[tuple, int] = {}
        for base, _, offsets in classes.values():
            total = sum(offsets.values())
            if total != 0:
                return BinomialDivisionWitness(
                    base=_from_lattice(self.desc, base, eden), divisor=m,
                    class_sum=Fraction(total, den),
                    offsets={t: Fraction(c, den) for t, c in sorted(offsets.items())})
            lo, hi = min(offsets), max(offsets)
            acc = 0
            d = tuple([x + lo * y for x, y in zip(base, M)]) if lo else base
            for t in range(lo, hi):
                acc += offsets.get(t, 0)
                if acc != 0:
                    out[d] = acc
                d = tuple(map(add, d, M))
        out, eden = _lowest(out, eden)
        return QTrigPoly._from_clean(self.desc, out, den, eden)

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        """Serialize as "c0*E(d0) + c1*E(d1) + ..." with E(d) = e^(-2 pi i d w)."""
        if self.is_zero:
            return "0"
        parts = []
        for d, c in self.items():
            body = f"{abs(c)}*E({d.to_text()})"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"QTrigPoly({self.to_text()})"


@dataclass(frozen=True)
class BinomialDivisionWitness:
    """A residue class with nonzero coefficient sum: the exact reason a
    binomial division failed."""

    base: Exponent
    divisor: Exponent
    class_sum: Fraction
    offsets: dict[int, Fraction]

    def describe(self) -> str:
        return (f"class of exponent {self.base} modulo {self.divisor}*Z has "
                f"coefficient sum {self.class_sum} != 0")


def geometric(desc: FieldDescriptor, p: int, m: ExponentLike) -> QTrigPoly:
    """sum_{t=0}^{p-1} E(t*m, w), the quotient (1 - E(pm)) / (1 - E(m))."""
    if p < 1:
        raise ValueError("p must be >= 1")
    e = _exponent(desc, m)
    if e.is_zero:
        raise ZeroPolynomial("geometric factor with m = 0")
    key, eden = _lattice(desc, e)
    num, eden = _lowest({tuple([x * t for x in key]): 1 for t in range(p)}, eden)
    return QTrigPoly._from_clean(desc, num, 1, eden)
