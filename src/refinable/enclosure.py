"""Outward-rounded enclosures on raw ``mpmath.libmp`` intervals.

The one module of the package that imports mpmath, and the only one
that knows its raw formats: an mpf is a tuple (sign, man, exp, bc), an
interval a pair (lo, hi) of them.  Every function takes its precision
in bits; none reads or sets a global precision of mpmath's contexts.
``FieldElement`` needs none of this for sign, floor, ``float`` and the
long doubles of the float kernels (its integer enclosure
``fixed_point`` decides them); these enclosures serve the steps that
leave the field:

- ``ball``, Horner over the coordinates q_j of a field element, with
  theta the square root of n for k = 2 and exp(log(n) / k) for k >= 3;
- ``rational_lower_bound``, the constant c of an Erdos certificate;
- ``acos_enclosure``, the arccos roots of a mask factor;
- ``ComplexBall``, ``term_balls`` and ``eval_terms``, the term loop of
  ``QTrigPoly.eval_ball`` (the tests check it bit for bit against the
  same loop on mpmath's ``iv`` interval objects).

Stack: exactreal -> enclosure -> qtrig/polyq/powermod -> refinery ->
splinecore -> cli.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Iterable

from mpmath.libmp import (
    fone,
    from_int,
    fzero,
    mpf_acos,
    mpf_add,
    mpf_div,
    mpf_pi,
    mpf_shift,
    mpf_sub,
    mpi_abs,
    mpi_add,
    mpi_cos_sin,
    mpi_delta,
    mpi_div,
    mpi_exp,
    mpi_log,
    mpi_mid,
    mpi_mul,
    mpi_neg,
    mpi_sqrt,
    round_ceiling,
    round_floor,
    round_nearest,
    to_float,
    to_rational,
)

from .exactreal import ExactReal, FieldElement

_MPI_ZERO = (fzero, fzero)


def _mpi_int(n: int, prec: int) -> tuple:
    """Raw interval of the integer n at ``prec`` bits, rounded outward
    when n is wider."""
    lo = from_int(n, prec, round_floor)
    if n.bit_length() <= prec:
        return lo, lo
    return lo, from_int(n, prec, round_ceiling)


def _mpi_fraction(q: Fraction, prec: int) -> tuple:
    """Raw interval of the rational q at ``prec`` bits: the numerator and
    denominator intervals divided."""
    if q.denominator == 1:
        return _mpi_int(q.numerator, prec)
    return mpi_div(_mpi_int(q.numerator, prec), _mpi_int(q.denominator, prec), prec)


def _mpf_to_fraction(raw) -> Fraction:
    """Exact value of a finite raw mpf tuple (``x._mpf_``) as a Fraction."""
    p, q = to_rational(raw)
    return Fraction(int(p), int(q))


# -- field elements ---------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _theta(n: int, k: int, prec: int) -> tuple:
    """Raw interval of theta = n^(1/k) at ``prec`` bits: the square root
    of n for k = 2, exp(log(n) / k) for k >= 3."""
    n_ball = _mpi_int(n, prec)
    if k == 1:
        return n_ball
    if k == 2:
        return mpi_sqrt(n_ball, prec)
    return mpi_exp(mpi_div(mpi_log(n_ball, prec), _mpi_int(k, prec), prec), prec)


def ball(x: FieldElement, prec: int) -> tuple:
    """Raw interval of x at ~prec bits: Horner over the coordinates at
    wp = prec + 8 + 2k bits with ``mpi_mul``/``mpi_add``.  Its width
    follows the coordinates, not the value, so it is wide relative to
    an x whose coordinates cancel."""
    desc = x.desc
    wp = prec + 8 + 2 * desc.k
    th = _theta(desc.n, desc.k, wp)
    acc = _MPI_ZERO
    for c in reversed(x.coeffs):
        acc = mpi_add(mpi_mul(acc, th, wp), _mpi_fraction(c, wp), wp)
    return acc


def rational_lower_bound(x: FieldElement, bits: int = 64) -> Fraction:
    """A positive rational q <= x (x must be positive): the lower end of
    ``ball(x, prec)`` at prec = bits, 2 bits, ... until it is positive."""
    prec = bits
    while True:
        lo = _mpf_to_fraction(ball(x, prec)[0])
        if lo > 0:
            return lo
        prec *= 2


def acos_enclosure(ylo: Fraction, yhi: Fraction) -> tuple[Fraction, Fraction]:
    """Outward enclosure of arccos(y/2)/(2 pi) over [ylo, yhi] in (−2, 2):
    both ends at 96 bits rounded to nearest, padded by 2^-80."""
    two_pi = mpf_shift(mpf_pi(96, round_nearest), 1)

    def turns(y: Fraction):
        half = mpf_shift(mpf_div(from_int(y.numerator, 96, round_nearest),
                                 from_int(y.denominator), 96, round_nearest), -1)
        return mpf_div(mpf_acos(half, 96, round_nearest), two_pi, 96, round_nearest)

    pad = mpf_shift(fone, -80)
    return (_mpf_to_fraction(mpf_sub(turns(yhi), pad, 96, round_nearest)),
            _mpf_to_fraction(mpf_add(turns(ylo), pad, 96, round_nearest)))


# -- complex enclosures of exponential sums -------------------------------------------


class ComplexBall:
    """Rectangular complex enclosure: raw ``mpmath.libmp`` intervals
    (lo, hi) of the real and imaginary parts and the precision in bits
    they were computed at."""

    __slots__ = ("re", "im", "prec")

    def __init__(self, re: tuple, im: tuple, prec: int):
        self.re = re
        self.im = im
        self.prec = prec

    def mid(self) -> complex:
        return complex(to_float(mpi_mid(self.re, self.prec)),
                       to_float(mpi_mid(self.im, self.prec)))

    def radius(self) -> float:
        return math.hypot(to_float(mpi_delta(self.re, self.prec)) / 2,
                          to_float(mpi_delta(self.im, self.prec)) / 2)

    def abs_lower(self) -> float:
        """Lower bound for |z| over the enclosure (0 if it may contain
        the origin): the hypot of the least |endpoint| per axis, each
        read exactly and rounded to the nearest float."""

        def axis_low(ival) -> float:
            lo, hi = map(_mpf_to_fraction, ival)
            if lo <= 0 <= hi:
                return 0.0
            return float(min(abs(lo), abs(hi)))

        return math.hypot(axis_low(self.re), axis_low(self.im))

    def __repr__(self) -> str:
        return f"ComplexBall({self.mid()} +/- {self.radius():.3g})"


@functools.lru_cache(maxsize=64)
def _two_pi(prec: int) -> tuple:
    """Raw interval of 2 pi at ``prec`` bits."""
    pi = (mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling))
    return mpi_mul(_mpi_int(2, prec), pi, prec)


def _unit_exponential_mpi(two_pi: tuple, phase: tuple, prec: int) -> tuple:
    """Raw (re, im) intervals of exp(-2 pi i x) for a raw interval x (in
    turns), from one ``mpi_cos_sin`` of 2 pi x."""
    cos, sin = mpi_cos_sin(mpi_mul(two_pi, phase, prec), prec)
    return cos, mpi_neg(sin, prec)


def term_balls(terms: Iterable[tuple[FieldElement, Fraction]], wp: int):
    """(((exponent interval, coefficient interval), ...), sum of
    |coefficient intervals|) as raw intervals at precision ``wp``, for
    (exponent, coefficient) pairs."""
    balls = tuple((ball(d, wp), _mpi_fraction(c, wp)) for d, c in terms)
    mag = _MPI_ZERO
    for _, cf in balls:
        mag = mpi_add(mag, mpi_abs(cf, wp), wp)
    return balls, mag


def eval_terms(balls_at: Callable[[int], tuple], w: ExactReal, prec: int) -> ComplexBall:
    """Enclosure of sum c * exp(-2 pi i d w) over the terms that
    ``balls_at(wp)`` gives as ``term_balls`` does, at the working
    precision wp = prec + 16, 2 wp, ... until the radius is at most
    2^(1-prec) * max(1, sum |c|) or wp passes prec + 4096.  w is an int,
    a Fraction, a float taken exactly or a FieldElement."""
    if not isinstance(w, (FieldElement, Fraction, int, float)):
        raise TypeError(f"unsupported evaluation point {type(w).__name__}")
    if not isinstance(w, FieldElement):
        w = Fraction(w)
    wp = prec + 16
    while True:
        terms, mag = balls_at(wp)
        two_pi = _two_pi(wp)
        u = ball(w, wp) if isinstance(w, FieldElement) else _mpi_fraction(w, wp)
        re = im = _MPI_ZERO
        for db, cf in terms:
            t_re, t_im = _unit_exponential_mpi(two_pi, mpi_mul(db, u, wp), wp)
            re = mpi_add(re, mpi_mul(t_re, cf, wp), wp)
            im = mpi_add(im, mpi_mul(t_im, cf, wp), wp)
        out = ComplexBall(re, im, wp)
        if (out.radius() <= max(1.0, to_float(mag[1])) * 2.0 ** (1 - prec)
                or wp > prec + 4096):
            return out
        wp *= 2
