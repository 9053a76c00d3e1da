"""Float numerics of the refinement equation.

Fourier side: float evaluation of the box-spline transform
prod_j (1 - exp(-2 pi i xi.m_j)) / (2 pi i xi.m_j) and the float
truncated product prod_j H(lambda^-j w) of a mask.

Time side: the cascade fixed-point iteration
f_{k+1}(x) = sum_j c_j f_k(lambda x - d_j) on a uniform grid with linear
interpolation, which approximates the distribution solution supported
in [d_0/(lambda-1), d_N/(lambda-1)], and the numeric check of the k-fold
convolution factorization built on it.

Grid computations are float64/numpy with fixed summation order, so
outputs are deterministic for fixed inputs.  An irrational dilation,
translation or direction enters them as its nearest long double, which
``FieldElement.rounded`` gives from the element's integer enclosure.

The exact types these kernels read, ``BoxSplineSpec`` and ``MaskSpec``,
and the cardinal B-spline masks the cascade is tried on
(``bspline_mask``) come from ``refinery``, which never imports this
module, so the exact decisions run without numpy.  The references that
check the kernels (a convolution oracle for ``cascade_solve`` and an
enclosure transform for ``boxspline_ft_f64``) live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import refinery
from .errors import Divergence, InvalidLambda, RefinabilityError
from .exactreal import FieldElement
from .refinery import (
    BoxSplineSpec,
    MaskSpec,
    mask_construct_detailed,
    minimal_integer_power,
)

_trapz = getattr(np, "trapezoid", None) or np.trapz

bspline_mask = refinery.bspline_mask  # exact masks the cascade is tried on


# ---------------------------------------------------------------------------
# grid functions


class GridFunction:
    """Samples of a function on a uniform grid over [a, b].

    Invariants: b - a = h * (len - 1); all samples finite.  Evaluation
    outside [a, b] returns 0.
    """

    __slots__ = ("a", "b", "h", "samples", "meta")

    def __init__(self, a: float, h: float, samples: np.ndarray,
                 meta: Optional[dict] = None):
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1 or len(samples) < 2:
            raise ValueError("need a 1-D grid with at least two samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("grid samples must be finite")
        self.a = float(a)
        self.h = float(h)
        self.b = float(a) + float(h) * (len(samples) - 1)
        self.samples = samples
        self.meta = dict(meta or {})

    @property
    def x(self) -> np.ndarray:
        return self.a + self.h * np.arange(len(self.samples))

    def __call__(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.x, self.samples,
                         left=0.0, right=0.0)

    def integral(self) -> float:
        return float(_trapz(self.samples, dx=self.h))

    def to_csv(self, path: Optional[str] = None) -> str:
        """The samples as CSV text (a header comment, then "x,f" rows),
        also written to ``path`` when one is given."""
        lines = [f"# a={self.a!r} b={self.b!r} h={self.h!r} n={len(self.samples)}",
                 "x,f"]
        lines += [f"{float(xv)!r},{float(fv)!r}" for xv, fv in zip(self.x, self.samples)]
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def __repr__(self) -> str:
        return (f"GridFunction([{self.a:.6g}, {self.b:.6g}], h={self.h:.3g}, "
                f"n={len(self.samples)})")


# ---------------------------------------------------------------------------
# Fourier side


# the bits of a long double's significand, plus a round and a sticky bit
_LONGDOUBLE_BITS = np.finfo(np.longdouble).nmant + 3


def _dyadic_longdouble(n: int, p: int) -> np.longdouble:
    """n / 2^p rounded to the nearest long double.  The bits of |n| past
    ``_LONGDOUBLE_BITS`` are ORed into the last bit kept, which rounds
    the same and keeps the decimal string numpy reads a wide int through
    under Python's 4,300-digit limit.  Below the normal range ``ldexp``
    rounds a second time."""
    m = abs(n)
    cut = max(m.bit_length() - _LONGDOUBLE_BITS, 0)
    v = np.ldexp(np.longdouble(m >> cut | bool(m & ((1 << cut) - 1))), cut - p)
    return -v if n < 0 else v


# a long double holds every int of at most this many bits exactly
_LONGDOUBLE_INT_BITS = np.finfo(np.longdouble).nmant + 1


def _longdouble(e: FieldElement) -> np.longdouble:
    """e rounded to the nearest long double.  A rational whose terms
    are exact long doubles takes one correctly rounded division."""
    if (e.is_rational and e.num[0].bit_length() <= _LONGDOUBLE_INT_BITS
            and e.den.bit_length() <= _LONGDOUBLE_INT_BITS):
        return np.longdouble(e.num[0]) / np.longdouble(e.den)
    return e.rounded(_dyadic_longdouble)


def boxspline_ft_f64(spec: BoxSplineSpec, w: np.ndarray) -> np.ndarray:
    """Fast float64 transform values for a univariate spec."""
    dirs = [_longdouble(d) for d in spec.directions_1d()]
    w_l = np.asarray(w, dtype=np.longdouble)
    out = np.ones(w_l.shape, dtype=np.complex128)
    for d in dirs:
        out *= _hat_f64(d * w_l)
    return out


_MINUS_TWO_PI = (-2j * np.pi).imag  # the -2 pi of -2j * np.pi * phase


_TWO_53 = 2.0 ** 53  # float64 holds every integer up to here


def _unit_phase(p: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.mod(p, 1.0).astype(np.float64)`` of a longdouble array, bit for
    bit, with one float64 floor in place of the longdouble remainder.

    Let n = floor(fl64(p)), F = p - n in longdouble and y = fl64(F).
    Rounding to nearest is monotone and leaves every integer of magnitude
    at most 2^53 unchanged, so n differs from floor(p) in two ways only:

    * n > floor(p): then p < n <= fl64(p), so F < 0 and y has its sign
      bit set (a negative y, or -0.0 where F lies below the float64
      range).
    * n < floor(p): then m = floor(p) satisfies fl64(p) < m <= p, so
      fl64(m) <= fl64(p) < m.  So m is not a float64, |m| > 2^53, and
      fl64(p), which lies between fl64(m) and m, is an integer of
      magnitude >= 2^53.  Hence n = fl64(p), |n| >= 2^53 and
      F >= m - n >= 1, so y >= 1.

    Everywhere else n = floor(p).  np.mod takes fmod(p, 1), which is
    exact, and adds 1 once to a negative nonzero remainder; either way
    it yields the longdouble fl(p - floor(p)), which is F, so y is
    np.mod's value.  Only the entries with the sign bit set and those
    with y >= 1 and |n| >= 2^53 are recomputed by np.mod.  An entry with
    n = floor(p) whose F rounds to 1.0 (a tiny negative p) keeps
    y = 1.0, as np.mod gives.  +-inf and nan give nan as np.mod does,
    perhaps with another sign bit.

    ``out`` is a float64 array of p's shape that receives y.  Callers
    with infinite, nan or out-of-range entries run this under
    ``np.errstate(invalid="ignore", over="ignore")``.
    """
    p = np.asarray(p)
    y = np.empty(p.shape) if out is None else out
    y[...] = p
    np.floor(y, out=y)
    fix = np.abs(y) >= _TWO_53
    np.subtract(p, y, out=y, casting="unsafe")
    fix &= y >= 1
    fix |= np.signbit(y)
    if fix.any():
        y[fix] = np.mod(p[fix], 1.0)
    return y


def _hat_f64(x_l: np.ndarray) -> np.ndarray:
    """(1 - e^(-2 pi i x)) / (2 pi i x) with phase folding in extended
    precision; series branch below |x| = 1e-6.

    1 - e^(-2 pi i phase) is built from the real cos and sin of
    -2 pi * phase, which equal the parts of the complex exponential bit
    for bit (see ``fourier_product_f64``); writing the imaginary part as
    0.0 - sin keeps the +0 that 1.0 - exp gives at phase 0."""
    x = np.asarray(x_l, dtype=np.float64)
    small = np.abs(x) < 1e-6
    with np.errstate(invalid="ignore", over="ignore"):
        y = _unit_phase(x_l)
    y *= _MINUS_TWO_PI
    num = np.empty(x.shape, dtype=np.complex128)
    num.real = 1.0 - np.cos(y)
    num.imag = 0.0 - np.sin(y)
    den = 2j * np.pi * np.where(small, 1.0, x)
    with np.errstate(invalid="ignore"):
        direct = num / den
    u = 2j * np.pi * x
    series = 1.0 - u / 2 + u * u / 6 - u * u * u / 24
    return np.where(small, series, direct)


_FOURIER_BLOCK = 4096  # points per block in fourier_product_f64


def fourier_product_f64(mask: MaskSpec, w: np.ndarray, J: int) -> np.ndarray:
    """Float64 truncated product prod_{j=1..J} H(lambda^(-j) w) over an
    array of real points.

    The arguments w / lambda^j (repeated division in extended precision)
    of all J levels form one (J, P) array; each term c * E(d, .) is added
    into all levels at once, in term order, and the levels are multiplied
    into the result in increasing j.  Every element therefore sees the
    same operations in the same order as a level-by-level loop.  Points
    are independent, so they are processed in blocks of
    ``_FOURIER_BLOCK``, which bounds the working memory by O(J * block).

    A term's phase frac(d * w / lambda^j) comes from ``_unit_phase``, and
    c * cos and c * sin of -2 pi * phase are added into separate real
    and imaginary sums.  These equal the parts of
    c * exp(-2 pi i phase) bit for bit where the complex exp takes its
    parts from the same libm cos and sin, as glibc's does (the
    reference-loop tests check it), except that a zero part may differ
    in sign; a sum that starts at +0 stays unchanged by adding +-0, so
    the product equals the complex-exponential loop bit for bit.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    lamf = _longdouble(mask.lam)
    w_l = np.asarray(w, dtype=np.longdouble)
    terms = [(_longdouble(d), float(c)) for d, c in mask.H.items()]
    flat = w_l.ravel()
    out = np.ones(flat.shape, dtype=np.complex128)
    for start in range(0, flat.size, _FOURIER_BLOCK):
        arg = flat[start:start + _FOURIER_BLOCK]
        args = np.empty((J, arg.size), dtype=np.longdouble)
        for j in range(J):
            arg = arg / lamf
            args[j] = arg
        p = np.empty_like(args)
        y = np.empty(args.shape)
        re = np.zeros(args.shape)
        im = np.zeros(args.shape)
        part = np.empty(args.shape)
        with np.errstate(invalid="ignore", over="ignore"):
            for d, c in terms:
                _unit_phase(np.multiply(args, d, out=p), out=y)
                y *= _MINUS_TWO_PI
                re += np.multiply(c, np.cos(y, out=part), out=part)
                im += np.multiply(c, np.sin(y, out=part), out=part)
        h = np.empty(args.shape, dtype=np.complex128)
        h.real = re
        h.imag = im
        acc = out[start:start + _FOURIER_BLOCK]
        for row in h:
            acc *= row
    return out.reshape(w_l.shape)


# ---------------------------------------------------------------------------
# time side


_CASCADE_BLOCK = 8192  # query points per term group in cascade_solve
_CASCADE_KEEP = 1 << 15  # query points per call whose offsets cascade_solve keeps


def _term_groups(terms: list[tuple[float, float, int, int]]) -> list[tuple]:
    """Split the terms (c, d, lo, hi) into runs of consecutive terms whose
    slices hold at most ``_CASCADE_BLOCK`` points together (a longer slice
    stands alone).  A run is the arrays (sizes, offsets, shifts, coeffs):
    with its slices laid end to end, position p inside the t-th slice is
    grid index offsets[t] + p."""
    runs, run, total = [], [], 0
    for term in terms:
        size = term[3] - term[2]
        if run and total + size > _CASCADE_BLOCK:
            runs.append(run)
            run, total = [], 0
        run.append(term)
        total += size
    if run:
        runs.append(run)
    groups = []
    for run in runs:
        c, d, lo, hi = (np.array(v) for v in zip(*run))
        sizes = hi - lo
        groups.append((sizes, lo - (np.cumsum(sizes) - sizes), d, c))
    return groups


def _group_queries(lx, sizes, offsets, shifts) -> tuple[np.ndarray, np.ndarray]:
    """The grid indices of a term group's slices, laid end to end, and
    their query points lambda x - d_j."""
    idx = np.repeat(offsets, sizes) + np.arange(sizes.sum())
    return idx, lx[idx] - np.repeat(shifts, sizes)


def cascade_solve(mask: MaskSpec, grid_size: int = 1024, iters: int = 30,
                  renormalize: bool = True, pad: float = 0.0) -> GridFunction:
    """Cascade iteration f <- sum_j c_j f(lambda x - d_j) on a grid.

    Starts from the normalized indicator of the support interval,
    reads off-grid values by linear interpolation (0 outside), and by
    default renormalizes the discrete integral to 1 each step.  The
    returned metadata records the sup-norm residual between the last two
    iterates and the per-step integral drift.  Residuals growing 10x
    over 5 consecutive steps raise Divergence.

    Each term is evaluated only on its in-range slice [lo, hi): the grid
    points whose query lambda x - d_j lies in [x_0, x_last], where linear
    interpolation does not return its 0 fill value.  The query is
    monotone in x, so the slice is found once by ``searchsorted``.  The
    slices of consecutive terms are evaluated together, at most
    ``_CASCADE_BLOCK`` points per group unless one slice is longer, and
    added in term order; the result is bitwise equal to adding every
    term on the whole grid in turn.

    Nothing about a query but the iterate changes between iterations, so
    the queries' cells k (x_k <= q < x_{k+1}, or k = last where
    q = x_last) are found once, and so are the grid indices and the
    offsets r = q - x_k of the first ``_CASCADE_KEEP`` query points of a
    call.  Indices and cells are kept in the smallest unsigned type that
    holds the grid indices (2 bytes up to 65,536 grid points) and r in
    float64: 12 bytes a point within the budget and 2 (the cell) past
    it, where each iteration rebuilds the indices and r.  The budget
    holds the kept arrays to about 0.4 MB, where the largest masks have
    over 10^5 query points.  The coefficients are repeated per iteration
    rather than stored, which would add 8 bytes a point.  Each iteration
    reads slope_k * r + f_k, times c_j, with slope_k =
    (f_{k+1} - f_k) / (x_{k+1} - x_k) and slope_last = 0, the formula of
    ``np.interp``, so a node hit and q = x_last give f_k as there (up to
    the sign of a zero, which adding to the sum cannot show).  The two
    differ only on a non-finite iterate, where np.interp retries a NaN
    from the right node.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    lamf = float(mask.lam)
    if lamf <= 1:
        raise InvalidLambda("cascade needs lambda > 1 numerically")
    dsup = mask.support()
    A, B = float(dsup[0]), float(dsup[1])
    if pad:
        span = B - A
        A -= pad * span
        B += pad * span
    h = (B - A) / (grid_size - 1)
    x = A + h * np.arange(grid_size)
    sup_lo, sup_hi = float(dsup[0]), float(dsup[1])
    inside = (x >= sup_lo - 1e-12) & (x <= sup_hi + 1e-12)
    f = np.where(inside, 1.0 / (sup_hi - sup_lo), 0.0)
    lx = lamf * x
    # Term j is read only on its in-range slice [lo_j, hi_j).  Skipping the
    # other points is exact: there the term adds c_j * 0.0 = +-0.0, and the
    # accumulator starts at +0.0 and never becomes -0.0 (a round-to-nearest
    # sum is -0.0 only when both addends are), so adding +-0.0 leaves every
    # entry unchanged.  Only the bounds are kept here; the groups below
    # hold the queries' cells and offsets.
    terms = []
    for c, d in zip(mask.refinement_coefficients, mask.translations):
        d = float(d)
        q = lx - d
        lo = int(np.searchsorted(q, x[0], side="left"))
        hi = int(np.searchsorted(q, x[-1], side="right"))
        if lo < hi:
            terms.append((float(c), d, lo, hi))
    cell_type = np.min_scalar_type(grid_size - 1)
    groups, kept = [], 0
    for sizes, offsets, shifts, coeffs in _term_groups(terms):
        idx, q = _group_queries(lx, sizes, offsets, shifts)
        k = np.searchsorted(x, q, side="right") - 1
        stored = None
        if kept + q.size <= _CASCADE_KEEP:
            kept += q.size
            q -= x[k]
            stored = idx.astype(cell_type), q
        groups.append((sizes, offsets, shifts, coeffs, k.astype(cell_type), stored))
    dx = np.diff(x)
    slope = np.zeros_like(f)

    residuals: list[float] = []
    drifts: list[float] = []
    integrals: list[float] = []
    for it in range(iters):
        # sum_j c_j = lambda, so the operator preserves the integral
        new = np.zeros_like(f)
        np.divide(np.diff(f), dx, out=slope[:-1])
        for sizes, offsets, shifts, coeffs, cells, stored in groups:
            k = cells.astype(np.intp)
            if stored is None:
                idx, r = _group_queries(lx, sizes, offsets, shifts)
                r -= x[k]
            else:
                idx, r = stored
            # np.add.at adds in index order and the slices are laid out
            # term after term, so each entry still receives its terms in
            # increasing j
            vals = slope[k]
            vals *= r
            vals += f[k]
            vals *= coeffs.repeat(sizes)
            np.add.at(new, idx, vals)
        integral = float(_trapz(new, dx=h))
        drifts.append(abs(integral - 1.0))
        if renormalize and integral != 0:
            new = new / integral
        integrals.append(float(_trapz(new, dx=h)))
        residuals.append(float(np.max(np.abs(new - f))))
        f = new
        if (len(residuals) >= 6 and residuals[-1] > 10 * residuals[-6]
                and all(residuals[-i] > residuals[-i - 1] for i in range(1, 6))):
            raise Divergence(f"cascade residuals growing at iteration {it}")
    return GridFunction(A, h, f, meta={
        "kind": "cascade",
        "iterations": iters,
        "residual": residuals[-1] if residuals else 0.0,
        "residuals": residuals,
        "integral_drift": drifts,
        "integrals": integrals,
        "support": (sup_lo, sup_hi),
    })


# ---------------------------------------------------------------------------
# convolution factorization


@dataclass(frozen=True)
class FactorizationReport:
    """Numeric check that the solution of a non-integer-dilation equation
    factors as alpha * phi(x) * phi(x/lambda) * ... * phi(x/lambda^(k-1)),
    where phi solves the lambda^k equation with coefficients
    c_j lambda^(k-1)."""

    k: int
    alpha: float
    sup_rel_distance: float
    trivial: bool
    grid_size: int
    iters: int
    notes: str = ""

    def to_jsonable(self) -> dict:
        return {
            "k": self.k,
            "alpha": self.alpha,
            "sup_rel_distance": self.sup_rel_distance,
            "trivial": self.trivial,
            "grid_size": self.grid_size,
            "iters": self.iters,
            "notes": self.notes,
        }


def convolution_factorization_check(A: Sequence[FieldElement], lam: FieldElement,
                                    grid_size: int = 4096, iters: int = 30
                                    ) -> FactorizationReport:
    """Check the k-fold convolution factorization for a refinable B(x|A).

    Requires the instance to be accepted by the refinability decision;
    the refutation witness propagates otherwise.  k is the least power
    with lambda^k an integer.  phi is built by cascade iteration of its
    own (integer-dilation lambda^k) equation, the dilated copies are
    convolved on the grid, the scalar alpha is fitted by least squares,
    and the sup-norm relative distance to the direct cascade solution of
    the original equation is reported.
    """
    mask, witness, _shift = mask_construct_detailed(A, lam)
    if mask is None:
        raise RefinabilityError(
            f"instance is not refinable: {witness.describe()}")
    k = minimal_integer_power(mask.lam)
    if k is None:
        raise RefinabilityError("no power of lambda is an integer")
    if k == 1:
        # integer dilation: the factorization is the identity f = alpha phi
        return FactorizationReport(k=1, alpha=1.0, sup_rel_distance=0.0,
                                   trivial=True, grid_size=grid_size,
                                   iters=iters,
                                   notes="lambda is an integer: f = phi")

    f_direct = cascade_solve(mask, grid_size=grid_size, iters=iters)
    h = f_direct.h
    lamf = float(mask.lam)
    D = lamf ** k

    # phi solves phi(x) = sum_j c_j lambda^(k-1) phi(lambda^k x - d_j); its
    # distribution function G satisfies G(x) = sum_j (c_j/lambda) G(lambda^k x - d_j)
    # and the iteration converges uniformly even when phi has no pointwise
    # density, so phi enters the convolution through exact bin masses.
    trans = [float(d) for d in mask.translations]
    wts = [float(c) / lamf for c in mask.refinement_coefficients]
    A_phi = min(trans) / (D - 1)
    B_phi = max(trans) / (D - 1)
    xg = np.linspace(A_phi, B_phi, grid_size)
    G = np.clip((xg - A_phi) / (B_phi - A_phi), 0.0, 1.0)
    for _ in range(iters):
        new = np.zeros_like(G)
        for w, d in zip(wts, trans):
            new += w * np.interp(D * xg - d, xg, G, left=0.0, right=1.0)
        G = new

    def bin_masses(scale: float) -> np.ndarray:
        count = int(math.floor((B_phi - A_phi) * scale / h)) + 1
        centers = A_phi * scale + np.arange(count) * h
        hi = np.interp(np.minimum((centers + h / 2) / scale, B_phi), xg, G,
                       left=0.0, right=1.0)
        lo = np.interp(np.maximum((centers - h / 2) / scale, A_phi), xg, G,
                       left=0.0, right=1.0)
        return hi - lo

    conv = bin_masses(1.0)
    origin = A_phi
    for r in range(1, k):
        scale = lamf ** r
        conv = np.convolve(conv, bin_masses(scale))
        origin += A_phi * scale
    conv_grid = GridFunction(origin, h, conv / h, meta={"kind": "k-fold convolution"})

    target = f_direct.samples
    probe = conv_grid(f_direct.x)
    denom = float(np.dot(probe, probe))
    alpha = float(np.dot(probe, target) / denom) if denom else 0.0
    dist = float(np.max(np.abs(alpha * probe - target)))
    rel = dist / float(np.max(np.abs(target)))
    return FactorizationReport(k=k, alpha=alpha, sup_rel_distance=rel,
                               trivial=False, grid_size=grid_size, iters=iters)
