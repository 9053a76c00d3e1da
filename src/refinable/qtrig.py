"""Exact algebra of quasi-trigonometric polynomials.

A quasi-trigonometric polynomial is a finite sum

    P(w) = sum_j  c_j * E(d_j, w),        E(d, w) = exp(-2 pi i d w),

with rational coefficients c_j and exponents d_j in a fixed real field
Q(theta).  Exponent equality is exact, so terms merge and cancel
exactly; products, standard decompositions into integer-congruence
classes, component gcds, and divisibility by binomials 1 - E(m, w) are
all computed symbolically.  Evaluation returns outward-rounded complex
enclosures.

Coefficients are restricted to Q; scalar field-element factors (such as
dilation powers) are kept outside the term map by the callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np
from mpmath import iv

from . import polyq
from .errors import DescriptorMismatch, ZeroPolynomial
from .exactreal import (
    FieldDescriptor,
    FieldElement,
    _iv_fraction,
    _iv_prec,
    iv_endpoints,
)

ExponentLike = Union[FieldElement, int, Fraction]


class ComplexBall:
    """Rectangular complex enclosure: a pair of real intervals."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @staticmethod
    def exact(re: Fraction = Fraction(0), im: Fraction = Fraction(0)) -> "ComplexBall":
        return ComplexBall(_iv_fraction(Fraction(re)), _iv_fraction(Fraction(im)))

    def __add__(self, other: "ComplexBall") -> "ComplexBall":
        return ComplexBall(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexBall") -> "ComplexBall":
        return ComplexBall(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ComplexBall") -> "ComplexBall":
        return ComplexBall(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def scale(self, q: Fraction) -> "ComplexBall":
        f = _iv_fraction(Fraction(q))
        return ComplexBall(self.re * f, self.im * f)

    def mid(self) -> complex:
        return complex(float(self.re.mid), float(self.im.mid))

    def radius(self) -> float:
        return math.hypot(float(self.re.delta) / 2, float(self.im.delta) / 2)

    def abs_lower(self) -> float:
        """Certified lower bound for |z| over the enclosure (0 if it may
        contain the origin)."""

        def axis_low(ival) -> float:
            lo, hi = iv_endpoints(ival)
            if lo <= 0 <= hi:
                return 0.0
            return float(min(abs(lo), abs(hi)))

        return math.hypot(axis_low(self.re), axis_low(self.im))

    def __repr__(self) -> str:
        return f"ComplexBall({self.mid()} +/- {self.radius():.3g})"


def _unit_exponential(phase_ball) -> ComplexBall:
    """Enclosure of exp(-2 pi i x) for a real interval x (in turns)."""
    ang = 2 * iv.pi * phase_ball
    return ComplexBall(iv.cos(ang), -iv.sin(ang))


class QTrigPoly:
    """Finite exact map exponent -> nonzero rational coefficient.

    Immutable after construction.  Terms are kept sorted by the real
    value of the exponent (an exact comparison; ties are impossible
    because exponents are pairwise distinct field elements).
    """

    __slots__ = ("desc", "terms", "_sorted")

    def __init__(self, desc: FieldDescriptor,
                 terms: Mapping[FieldElement, Fraction]):
        clean: dict[FieldElement, Fraction] = {}
        for d, c in terms.items():
            if not isinstance(d, FieldElement):
                d = desc.rational(Fraction(d))
            if d.desc != desc:
                raise DescriptorMismatch("exponent from a different field")
            c = Fraction(c)
            if c != 0:
                clean[d] = clean.get(d, Fraction(0)) + c
        self.desc = desc
        self.terms = {d: c for d, c in clean.items() if c != 0}
        self._sorted: Optional[tuple[FieldElement, ...]] = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(desc: FieldDescriptor) -> "QTrigPoly":
        return QTrigPoly(desc, {})

    @staticmethod
    def constant(desc: FieldDescriptor, c: Fraction = Fraction(1)) -> "QTrigPoly":
        return QTrigPoly(desc, {desc.zero(): Fraction(c)})

    @staticmethod
    def monomial(desc: FieldDescriptor, exponent: ExponentLike,
                 coeff: Fraction = Fraction(1)) -> "QTrigPoly":
        e = exponent if isinstance(exponent, FieldElement) else desc.rational(exponent)
        return QTrigPoly(desc, {e: Fraction(coeff)})

    @staticmethod
    def binomial(desc: FieldDescriptor, m: ExponentLike) -> "QTrigPoly":
        """1 - E(m, w)."""
        e = m if isinstance(m, FieldElement) else desc.rational(m)
        return QTrigPoly(desc, {desc.zero(): Fraction(1), e: Fraction(-1)})

    # -- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def exponents(self) -> tuple[FieldElement, ...]:
        """Exponents sorted increasingly by real value."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.terms))
        return self._sorted

    def items(self) -> list[tuple[FieldElement, Fraction]]:
        return [(d, self.terms[d]) for d in self.exponents()]

    def coefficient(self, d: ExponentLike) -> Fraction:
        e = d if isinstance(d, FieldElement) else self.desc.rational(d)
        return self.terms.get(e, Fraction(0))

    def coefficient_sum(self) -> Fraction:
        """The exact value at w = 0."""
        return sum(self.terms.values(), Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QTrigPoly):
            return NotImplemented
        return self.desc == other.desc and self.terms == other.terms

    def __hash__(self):
        raise TypeError("QTrigPoly is unhashable")

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "QTrigPoly") -> None:
        if self.desc != other.desc:
            raise DescriptorMismatch("operands from different fields")

    def __add__(self, other: "QTrigPoly") -> "QTrigPoly":
        self._check(other)
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = out.get(d, Fraction(0)) + c
        return QTrigPoly(self.desc, out)

    def __neg__(self) -> "QTrigPoly":
        return QTrigPoly(self.desc, {d: -c for d, c in self.terms.items()})

    def __sub__(self, other: "QTrigPoly") -> "QTrigPoly":
        return self + (-other)

    def __mul__(self, other: "QTrigPoly") -> "QTrigPoly":
        self._check(other)
        out: dict[FieldElement, Fraction] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                d = d1 + d2
                out[d] = out.get(d, Fraction(0)) + c1 * c2
        return QTrigPoly(self.desc, out)

    def scale(self, q: Fraction) -> "QTrigPoly":
        q = Fraction(q)
        return QTrigPoly(self.desc, {d: c * q for d, c in self.terms.items()})

    def shift(self, delta: ExponentLike) -> "QTrigPoly":
        """Multiply by E(delta, w): every exponent shifts by delta."""
        e = delta if isinstance(delta, FieldElement) else self.desc.rational(delta)
        return QTrigPoly(self.desc, {d + e: c for d, c in self.terms.items()})

    # -- evaluation ---------------------------------------------------------

    def eval_ball(self, w, prec: int = 64) -> ComplexBall:
        """Enclosure of P(w) with radius <= 2^(1-prec) * max(1, magnitude).

        ``w`` may be an exact real (int, Fraction, FieldElement), a float
        (taken exactly as a dyadic rational), a complex number, or an
        (re, im) pair of exact reals.
        """
        re_w, im_w = _split_input(w, self.desc)
        target = None
        wp = prec + 16
        while True:
            with _iv_prec(wp):
                acc = ComplexBall.exact()
                mag = iv.mpf(0)
                u = _to_ball(re_w)
                v = _to_ball(im_w) if im_w is not None else None
                for d, c in self.terms.items():
                    db = d.ball(wp) if isinstance(d, FieldElement) else _iv_fraction(d)
                    term = _unit_exponential(db * u)
                    cf = _iv_fraction(c)
                    if v is not None:
                        growth = iv.exp(2 * iv.pi * db * v)
                        term = ComplexBall(term.re * growth, term.im * growth)
                        mag += abs(cf) * growth.b
                    else:
                        mag += abs(cf)
                    acc = acc + ComplexBall(term.re * cf, term.im * cf)
                target = max(1.0, float(mag.b)) * 2.0 ** (1 - prec)
                if acc.radius() <= target or wp > prec + 4096:
                    return acc
            wp *= 2

    def eval_f64(self, w: np.ndarray) -> np.ndarray:
        """Fast float path: values at an array of real points.

        Phases are reduced mod 1 in extended precision before the
        float64 trig call, keeping accuracy ~1e-15 even at large |w|.
        """
        w_l = np.asarray(w, dtype=np.longdouble)
        out = np.zeros(w_l.shape, dtype=np.complex128)
        for d, c in self.terms.items():
            phase = np.mod(np.longdouble(float(d)) * w_l, 1.0).astype(np.float64)
            out += float(c) * np.exp(-2j * np.pi * phase)
        return out

    # -- standard decomposition -------------------------------------------

    def standard_decomposition(self) -> "StdDecomposition":
        """Partition terms into classes whose exponents differ by integers.

        The class representative is the smallest exponent of the class,
        so each class is a genuine polynomial in z = E(1, w) with
        nonnegative offsets.
        """
        classes: dict[tuple, list[FieldElement]] = {}
        for d in self.exponents():
            classes.setdefault(_class_key(d.coeffs), []).append(d)
        entries = []
        for cls in classes.values():
            rep = cls[0]  # exponents() is sorted, so first = smallest
            offsets = [(d.coeffs[0] - rep.coeffs[0]).numerator for d in cls]
            poly = [Fraction(0)] * (max(offsets) + 1)
            for d, off in zip(cls, offsets):
                poly[off] = self.terms[d]
            entries.append((rep, polyq.pnorm(poly)))
        entries.sort(key=lambda e: e[0])
        return StdDecomposition(self.desc, tuple(entries))

    def component_gcd(self) -> "QTrigPoly":
        """Gcd over Q[z] of the class polynomials of the standard
        decomposition, after factoring out their lowest z-powers.

        Normalized so the constant term is 1 and offsets start at 0;
        returned as a trigonometric polynomial (integer exponents).
        """
        if self.is_zero:
            raise ZeroPolynomial("component gcd of the zero polynomial")
        g: polyq.Poly = ()
        for _, poly in self.standard_decomposition().classes:
            low = next(i for i, c in enumerate(poly) if c != 0)
            g = polyq.pgcd(g, poly[low:]) if g else polyq.pnorm(poly[low:])
        g = polyq.pscale(g, 1 / g[0])
        return QTrigPoly(self.desc,
                         {self.desc.rational(i): c for i, c in enumerate(g) if c != 0})

    # -- divisibility --------------------------------------------------------

    def divide_binomial(self, m: FieldElement) -> Optional["QTrigPoly"]:
        """Exact quotient P / (1 - E(m, w)), or None if not divisible.

        Terms are grouped into residue classes of exponents modulo m*Z;
        P is divisible iff every class has coefficient sum zero, and the
        quotient comes out of per-class cumulative sums.
        """
        if not isinstance(m, FieldElement):
            m = self.desc.rational(m)
        if m.is_zero:
            raise ZeroPolynomial("binomial divisor with m = 0")
        if self.is_zero:
            return self
        verdict = self._divide_binomial_classes(m)
        if isinstance(verdict, BinomialDivisionWitness):
            return None
        return verdict

    def _divide_binomial_classes(self, m: FieldElement):
        """Either the quotient or a witness for the failing class.

        Exponents d and d' share a class iff q = d/m and q' = d'/m differ
        by an integer, i.e. agree in every coordinate but the first and
        in the fractional part of the first.  So each term is keyed by
        (frac(q_0), q_1, ..., q_{k-1}), one multiplication by m^-1, and
        its offset in the class is q_0 - q_0(base).  Classes keep
        first-seen order with the first-seen term as base, which fixes
        the witness and the term order of the quotient.
        """
        m_inv = m.inverse()
        classes: dict[tuple, tuple[FieldElement, Fraction, dict[int, Fraction]]] = {}
        for d, c in self.terms.items():
            q = (d * m_inv).coeffs
            cls = classes.get(key := _class_key(q))
            if cls is None:
                classes[key] = (d, q[0], {0: c})
            else:
                cls[2][(q[0] - cls[1]).numerator] = c
        out: dict[FieldElement, Fraction] = {}
        for base, _, offsets in classes.values():
            total = sum(offsets.values(), Fraction(0))
            if total != 0:
                return BinomialDivisionWitness(base=base, divisor=m,
                                               class_sum=total,
                                               offsets=dict(sorted(offsets.items())))
            lo, hi = min(offsets), max(offsets)
            acc = Fraction(0)
            for t in range(lo, hi):
                acc += offsets.get(t, Fraction(0))
                if acc != 0:
                    out[base + m * t] = acc
        return QTrigPoly(self.desc, out)

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


def _class_key(q: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """(frac(q_0), q_1, ...): equal iff the two elements differ by an integer."""
    q0 = q[0]
    return (q0 - q0.numerator // q0.denominator, *q[1:])


@dataclass(frozen=True)
class BinomialDivisionWitness:
    """A residue class with nonzero coefficient sum: the exact reason a
    binomial division failed."""

    base: FieldElement
    divisor: FieldElement
    class_sum: Fraction
    offsets: dict[int, Fraction]

    def describe(self) -> str:
        return (f"class of exponent {self.base} modulo {self.divisor}*Z has "
                f"coefficient sum {self.class_sum} != 0")


@dataclass(frozen=True)
class StdDecomposition:
    """Classes of a standard decomposition: (representative exponent r,
    polynomial in z = E(1, w)) with P(w) = sum_r E(r, w) * G_r(E(1, w))."""

    desc: FieldDescriptor
    classes: tuple[tuple[FieldElement, polyq.Poly], ...]

    def reassemble(self) -> QTrigPoly:
        out: dict[FieldElement, Fraction] = {}
        for rep, poly in self.classes:
            for off, c in enumerate(poly):
                if c != 0:
                    out[rep + off] = out.get(rep + off, Fraction(0)) + c
        return QTrigPoly(self.desc, out)


def combine(P: QTrigPoly, Q: QTrigPoly, op: str) -> QTrigPoly:
    """Exact sum or product (the spec-level combine operation)."""
    if op == "add":
        return P + Q
    if op == "mul":
        return P * Q
    raise ValueError(f"unknown op {op!r}")


def geometric(desc: FieldDescriptor, p: int, m: ExponentLike) -> QTrigPoly:
    """sum_{t=0}^{p-1} E(t*m, w), the quotient (1 - E(pm)) / (1 - E(m))."""
    if p < 1:
        raise ValueError("p must be >= 1")
    e = m if isinstance(m, FieldElement) else desc.rational(m)
    if e.is_zero:
        raise ZeroPolynomial("geometric factor with m = 0")
    return QTrigPoly(desc, {e * t: Fraction(1) for t in range(p)})


def _split_input(w, desc: FieldDescriptor):
    """Normalize an evaluation point to exact (re, im) parts."""
    if isinstance(w, tuple) and len(w) == 2:
        return _exactify(w[0], desc), _exactify(w[1], desc)
    if isinstance(w, complex):
        if w.imag == 0:
            return Fraction(w.real), None
        return Fraction(w.real), Fraction(w.imag)
    return _exactify(w, desc), None


def _exactify(x, desc: FieldDescriptor):
    if isinstance(x, FieldElement):
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # floats are dyadic rationals: exact
    raise TypeError(f"unsupported evaluation point {type(x).__name__}")


def _to_ball(x):
    if isinstance(x, FieldElement):
        return x.ball(iv.prec)
    return _iv_fraction(x)
