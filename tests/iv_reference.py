"""Interval references on mpmath's ``iv`` objects.

The library computes every enclosure on raw ``mpmath.libmp`` interval
tuples at a precision it passes explicitly.  The references here do the
same computations with ``iv`` interval objects at the context precision
``iv.prec``, which ``iv_prec`` sets for a block, and share no arithmetic
with the library's raw loops, so the tests can compare the two bit for
bit.  ``boxspline_ft``, the enclosure of the box-spline transform, is
the reference for ``boxspline_ft_f64``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np
from mpmath import iv

from refinable import enclosure
from refinable.exactreal import ExactReal, FieldElement
from refinable.qtrig import _dot


@contextmanager
def iv_prec(prec: int) -> Iterator[None]:
    """Set the ``iv`` context precision for a block."""
    old = iv.prec
    iv.prec = prec
    try:
        yield
    finally:
        iv.prec = old


class IvBall:
    """Rectangular complex enclosure: a pair of ``iv`` intervals."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @staticmethod
    def exact(re: Fraction = Fraction(0), im: Fraction = Fraction(0)) -> "IvBall":
        return IvBall(iv_fraction(Fraction(re)), iv_fraction(Fraction(im)))

    @staticmethod
    def of(ball) -> "IvBall":
        """The ``iv`` form of a library ``ComplexBall``."""
        return IvBall(iv.make_mpf(ball.re), iv.make_mpf(ball.im))

    def __add__(self, other: "IvBall") -> "IvBall":
        return IvBall(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "IvBall") -> "IvBall":
        return IvBall(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    def scale(self, q: Fraction) -> "IvBall":
        f = iv_fraction(Fraction(q))
        return IvBall(self.re * f, self.im * f)

    def mid(self) -> complex:
        return complex(float(self.re.mid), float(self.im.mid))

    def radius(self) -> float:
        return math.hypot(float(self.re.delta) / 2, float(self.im.delta) / 2)

    def endpoints(self) -> tuple:
        return self.re._mpi_, self.im._mpi_


def iv_fraction(q: Fraction):
    """Exact rational -> interval at ``iv.prec``, by ``iv`` division."""
    if q.denominator == 1:
        return iv.mpf(q.numerator)
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def iv_theta(desc):
    if desc.k == 1:
        return iv.mpf(desc.n)
    if desc.k == 2:
        return iv.sqrt(iv.mpf(desc.n))
    return iv.exp(iv.log(iv.mpf(desc.n)) / desc.k)


def iv_ball(x: FieldElement, prec: int):
    """``enclosure.ball`` in the ``iv`` Horner form."""
    with iv_prec(prec + 8 + 2 * x.desc.k):
        th = iv_theta(x.desc)
        acc = iv.mpf(0)
        for c in reversed(x.coeffs):
            acc = acc * th + iv_fraction(c)
        return acc


def unit_exponential(phase_ball) -> IvBall:
    """Enclosure of exp(-2 pi i x) for a real interval x (in turns)."""
    ang = 2 * iv.pi * phase_ball
    return IvBall(iv.cos(ang), -iv.sin(ang))


def eval_ball_uncached(P, w, prec: int) -> IvBall:
    """``QTrigPoly.eval_ball`` on ``iv`` interval objects, without the
    per-precision cache: every exponent and coefficient is enclosed
    again on every call."""
    wp = prec + 16
    while True:
        with iv_prec(wp):
            acc = IvBall(iv.mpf(0), iv.mpf(0))
            mag = iv.mpf(0)
            u = iv_ball(w, iv.prec) if isinstance(w, FieldElement) else iv_fraction(Fraction(w))
            for d, c in P.terms.items():
                term = unit_exponential(iv_ball(d, wp) * u)
                cf = iv_fraction(c)
                mag += abs(cf)
                acc = acc + IvBall(term.re * cf, term.im * cf)
            target = max(1.0, float(mag.b)) * 2.0 ** (1 - prec)
            if acc.radius() <= target or wp > prec + 4096:
                return acc
        wp *= 2


# -- the box-spline transform --------------------------------------------------


def _hat_ball(x: ExactReal, prec: int) -> IvBall:
    """Enclosure of (1 - exp(-2 pi i x)) / (2 pi i x), value 1 at x = 0.

    Near zero (relative to the working precision) the factor is computed
    from the degree-8 Taylor polynomial of (1 - e^(-u)) / u at
    u = 2 pi i x with an explicit remainder bound; this keeps the
    evaluation well-defined across the removable singularity.
    """
    if isinstance(x, FieldElement):
        if x.is_zero:
            return IvBall.exact(Fraction(1))
        xb = iv.make_mpf(enclosure.ball(x, prec))
    else:
        x = Fraction(x)
        if x == 0:
            return IvBall.exact(Fraction(1))
        xb = iv_fraction(x)
    ax = abs(xb)
    if float(ax.b) < 2.0 ** (-prec // 2):
        # sum_{t>=0} (-u)^t / (t+1)!  with u = 2 pi i x
        u = IvBall(iv.mpf(0) * xb, 2 * iv.pi * xb)  # u = 2 pi i x
        acc = IvBall.exact()
        term = IvBall.exact(Fraction(1))
        for t in range(0, 9):
            acc = acc + term.scale(Fraction(1, math.factorial(t + 1)))
            term = term * IvBall.exact(Fraction(-1)) * u
        mag_u = float((2 * iv.pi * ax).b)
        rem = mag_u ** 9 / math.factorial(10) / max(1e-9, 1 - mag_u / 11)
        pad = iv.mpf([-rem, rem])
        return IvBall(acc.re + pad, acc.im + pad)
    ang = 2 * iv.pi * xb
    one_minus = IvBall(1 - iv.cos(ang), iv.sin(ang))  # 1 - e^(-i ang)
    denom = 2 * iv.pi * xb
    # multiply by -i then divide by the real 2 pi x
    return IvBall(one_minus.im / denom, -one_minus.re / denom)


def boxspline_ft(spec, xi: Sequence[ExactReal], prec: int = 64) -> IvBall:
    """Enclosure of the box-spline Fourier transform at a real point xi.

    Floats in xi are taken exactly (they are dyadic rationals), so the
    dot products xi . m_j are exact field elements and the removable
    singularities are detected exactly.
    """
    if np.isscalar(xi) or isinstance(xi, (Fraction, FieldElement)):
        xi = [xi]
    point = [x if isinstance(x, FieldElement) else spec.desc.rational(Fraction(x))
             for x in xi]
    if len(point) != spec.s:
        raise ValueError(f"evaluation point must have dimension {spec.s}")
    wp = prec + 16
    while True:
        with iv_prec(wp):
            out = IvBall.exact(Fraction(1))
            for col in spec.columns:
                out = out * _hat_ball(_dot(point, col), wp)
            if out.radius() <= 2.0 ** (1 - prec) or wp > prec + 1024:
                return out
        wp *= 2
