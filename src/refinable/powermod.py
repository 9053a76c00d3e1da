"""Constructive avoidance of residues by geometric orbits modulo 1.

Given a real dilation lambda > 1 and target residues r_1, ..., r_m, this
module builds a number xi > 0 together with an explicit constant c > 0
such that the distance from xi * lambda^n to the nearest point of
r_i + Z is at least c for every i and every n >= 0.  The construction
produces a chain of nested closed intervals I_0 ⊇ I_1 ⊇ ... whose
common points all work; the returned certificate records the chain and
is independently re-checkable by endpoint arithmetic.

Admissible constants:

    g = least positive integer with lambda^g >= 2 (1 + g m)
    c = (lambda - 1)^2 / (20 (m + 2)^2 lambda^3)

and |I_M| = sqrt(2 lambda c) / lambda^(g M).  Interval I_M guarantees
the avoidance for every n in [-1, gM - 1]; n = -1 is an internal
convenience and the public statement exposes n >= 0.

All endpoint arithmetic is exact.  When lambda is rational everything
lives in Q; when lambda is an element of Q(theta) the endpoints are
exact field elements and every comparison is decided by the exact sign
routine (escalating-precision enclosures), which is stronger than
ball-bounded endpoints.  The interval length is an exact dyadic
rational ell_0 <= sqrt(2 lambda c) scaled by exact powers of lambda, so
|I_{M+1}| * lambda^g = |I_M| holds exactly in both modes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import ConstructionFailure, InvalidLambda
from .exactreal import QQ, FieldDescriptor, FieldElement, field_make

ExactReal = Union[int, Fraction, FieldElement]


def _lift(lam: ExactReal) -> FieldElement:
    if isinstance(lam, FieldElement):
        return lam
    return QQ.rational(Fraction(lam))


def dist_to_int(x: ExactReal) -> ExactReal:
    """Distance from x to the nearest integer; exact, same kind as input."""
    if isinstance(x, FieldElement):
        frac = x - x.floor()
        other = 1 - frac
        return frac if frac <= other else other
    q = Fraction(x)
    frac = q - (q.numerator // q.denominator)
    return min(frac, 1 - frac)


def erdos_params(lam: ExactReal, m: int) -> tuple[int, Fraction]:
    """Admissible (g, c) for a dilation lambda > 1 and m targets.

    g is minimal with lambda^g >= 2(1 + g m), decided exactly; c is the
    explicit constant (lambda-1)^2 / (20 (m+2)^2 lambda^3), exact for
    rational lambda and a certified rational lower bound otherwise.
    Both admissibility inequalities are monotone increasing in c, so any
    0 < c' <= c remains admissible.
    """
    lam_e = _lift(lam)
    if not lam_e > 1:
        raise InvalidLambda("dilation must be > 1")
    if m < 1:
        raise ValueError("need at least one target")
    g = 1
    power = lam_e
    while not power >= 2 * (1 + g * m):
        g += 1
        power = power * lam_e
        if g > 10_000:
            raise InvalidLambda(
                f"dilation {lam_e} is too close to 1: no g <= 10000 "
                f"satisfies lambda^g >= 2(1 + g*m) with m = {m}")
    c_exact = (lam_e - 1) ** 2 / (20 * (m + 2) ** 2 * lam_e ** 3)
    if c_exact.is_rational:
        return g, c_exact.as_fraction()
    return g, _rational_lower_bound(c_exact)


def _rational_lower_bound(x: FieldElement, bits: int = 64) -> Fraction:
    """A positive rational q <= x (x must be positive)."""
    from .exactreal import iv_endpoints

    prec = bits
    while True:
        lo, _ = iv_endpoints(x.ball(prec))
        if lo > 0:
            return lo
        prec *= 2


def _sqrt_lower_bound(x: FieldElement, bits: int = 48) -> Fraction:
    """A dyadic ell with 0 < ell and ell^2 <= x (verified exactly)."""
    lo = _rational_lower_bound(x, bits + 16)
    scale = 1 << bits
    ell = Fraction(math.isqrt((lo * scale * scale).__floor__()), scale)
    while ell > 0 and not (x - ell * ell) >= 0:
        ell -= Fraction(1, scale)
    if ell <= 0:
        raise ConstructionFailure("could not bound sqrt(2 lambda c) from below")
    return ell


def check_admissibility(lam: ExactReal, m: int, g: int,
                        c: Fraction) -> dict[str, bool]:
    """Exact checks of the two proof inequalities for a candidate c.

    base step :  2 lambda c m + (m+2) sqrt(2 lambda c) < 1
    induction :  2 c m g + sqrt(2 lambda c) (m+2) / (lambda-1) < 1/2

    sqrt(2 lambda c) is replaced by a certified upper bound s with
    s^2 >= 2 lambda c, so True answers are rigorous.
    """
    lam_e = _lift(lam)
    two_lc = 2 * lam_e * c
    # dyadic upper bound of the square root
    s = _sqrt_lower_bound(two_lc)
    while not (s * s - two_lc) >= 0:
        s += Fraction(1, 1 << 40)
    base = 2 * lam_e * c * m + (m + 2) * s < 1
    induction = (2 * c * m * g + s * (m + 2) / (lam_e - 1)) < Fraction(1, 2)
    return {"base": base, "induction": induction}


@dataclass(frozen=True)
class ErdosCertificate:
    """Nested-interval certificate that ||xi lambda^n - r_i|| >= c.

    ``intervals[M]`` is I_M as an exact (a, b) pair; ``xi`` is the
    midpoint of the last interval.  The guarantee covers every
    n in [-1, guaranteed_depth] with guaranteed_depth = g*depth - 1.
    """

    lam: FieldElement
    targets: tuple[Fraction, ...]
    c: Fraction
    g: int
    ell0: Fraction
    intervals: tuple[tuple[FieldElement, FieldElement], ...]
    xi: FieldElement

    @property
    def depth(self) -> int:
        return len(self.intervals) - 1

    @property
    def guaranteed_depth(self) -> int:
        return self.g * self.depth - 1

    # -- serialization ---------------------------------------------------

    def to_jsonable(self) -> dict:
        desc = self.lam.desc

        def fe(e: FieldElement) -> list[str]:
            return [str(q) for q in e.coeffs]

        return {
            "field": {"n": desc.n, "k": desc.k},
            "lambda": fe(self.lam),
            "targets": [str(t) for t in self.targets],
            "c": str(self.c),
            "g": self.g,
            "ell0": str(self.ell0),
            "depth": self.depth,
            "guaranteed_depth": self.guaranteed_depth,
            "intervals": [[fe(a), fe(b)] for a, b in self.intervals],
            "xi": fe(self.xi),
            "xi_decimal": f"{float(self.xi):.17g}",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2)

    @staticmethod
    def from_jsonable(data: dict) -> "ErdosCertificate":
        desc = field_make(data["field"]["n"], data["field"]["k"])

        def fe(coeffs: list[str]) -> FieldElement:
            return desc.element([Fraction(c) for c in coeffs])

        return ErdosCertificate(
            lam=fe(data["lambda"]),
            targets=tuple(Fraction(t) for t in data["targets"]),
            c=Fraction(data["c"]),
            g=data["g"],
            ell0=Fraction(data["ell0"]),
            intervals=tuple((fe(a), fe(b)) for a, b in data["intervals"]),
            xi=fe(data["xi"]),
        )

    @staticmethod
    def from_json(text: str) -> "ErdosCertificate":
        return ErdosCertificate.from_jsonable(json.loads(text))


def _removed_intervals(lo: FieldElement, hi: FieldElement,
                       scale: FieldElement, targets: Sequence[Fraction],
                       c: Fraction) -> list[tuple[FieldElement, FieldElement]]:
    """Open intervals ((k + r - c)/scale_inv ...) of the form
    (k + r - c) * scale < x < (k + r + c) * scale intersecting [lo, hi].

    ``scale`` multiplies the residue lattice, i.e. the removed set is
    { (k + r +/- c) * scale }.
    """
    out = []
    for r in targets:
        # k range:  (k + r + c) scale > lo  and  (k + r - c) scale < hi
        k_lo = ((lo / scale) - r - c).floor()
        k_hi = ((hi / scale) - r + c).floor() + 1
        for k in range(k_lo, k_hi + 1):
            a = (k + r - c) * scale
            b = (k + r + c) * scale
            if b > lo and a < hi:
                out.append((a, b))
    return out


def _gaps(lo: FieldElement, hi: FieldElement,
          removed: list[tuple[FieldElement, FieldElement]]
          ) -> list[tuple[FieldElement, FieldElement]]:
    """Closed complement of a union of open intervals inside [lo, hi]."""
    removed = sorted(removed, key=lambda ab: ab[0])
    gaps = []
    cur = lo
    for a, b in removed:
        if a > cur:
            gaps.append((cur, a))
        if b > cur:
            cur = b
        if cur >= hi:
            break
    if cur < hi:
        gaps.append((cur, hi))
    return [(a, b) for a, b in gaps if b >= a]


def erdos_construct(lam: ExactReal, targets: Sequence[Union[int, Fraction]],
                    depth: int, c: Optional[Fraction] = None) -> ErdosCertificate:
    """Run the nested-interval construction to the requested depth.

    I_0 is a closed interval of length ell0 inside (0,1) avoiding
    lambda * S_c; the step M -> M+1 removes S_c * lambda^(-n) for
    n = gM .. g(M+1)-1 from I_M and keeps a closed subinterval of length
    ell0 / lambda^(g(M+1)).  Among candidate gaps the leftmost is taken
    and the subinterval is left-aligned (determinism); if a base gap
    touches 0 or 1 the placement moves just inside, keeping I_0 in (0,1).

    A user-supplied smaller c is accepted; admissibility of the default
    c is a theorem, so a failed gap search is an internal consistency
    error (ConstructionFailure), never silently ignored.
    """
    lam_e = _lift(lam)
    if not lam_e > 1:
        raise InvalidLambda("dilation must be > 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    targets_q = tuple(Fraction(t) for t in targets)
    g, c_default = erdos_params(lam_e, len(targets_q))
    if c is None:
        c = c_default
    desc = lam_e.desc
    one = desc.one()
    zero = desc.zero()
    ell0 = _sqrt_lower_bound(2 * lam_e * c)

    # base: remove lambda * S_c from (0, 1)
    removed = _removed_intervals(zero, one, lam_e, targets_q, c)
    ell = desc.rational(ell0)
    base = None
    for a, b in _gaps(zero, one, removed):
        if not (b - a) >= ell:
            continue
        if a > 0 and a + ell < 1:
            base = (a, a + ell)
        elif a == 0 and b < 1 and b - ell > 0:
            base = (b - ell, b)
        elif a == 0 and b == 1:
            left = (1 - ell) / 2
            base = (left, left + ell)
        else:
            continue
        break
    if base is None:
        raise ConstructionFailure("no admissible base interval of length ell0")

    intervals = [base]
    cur = base
    lam_pow = desc.one()  # lambda^n tracker, n = gM at loop entry
    for M in range(depth):
        removed = []
        for _n in range(g * M, g * (M + 1)):
            scale = desc.one() / lam_pow  # lambda^(-n): S_c lambda^(-n)
            removed.extend(_removed_intervals(cur[0], cur[1], scale,
                                              targets_q, c))
            lam_pow = lam_pow * lam_e
        ell = ell / lam_e ** g
        chosen = None
        for a, b in _gaps(cur[0], cur[1], removed):
            if (b - a) >= ell:
                chosen = (a, a + ell)
                break
        if chosen is None:
            raise ConstructionFailure(
                f"no gap of length ell0/lambda^(g*{M + 1}) inside I_{M}")
        cur = chosen
        intervals.append(cur)

    xi = (cur[0] + cur[1]) / 2
    return ErdosCertificate(lam=lam_e, targets=targets_q, c=c, g=g,
                            ell0=ell0, intervals=tuple(intervals), xi=xi)


def interval_distance_lower(a: FieldElement, b: FieldElement,
                            r: Fraction) -> ExactReal:
    """Exact min over x in [a, b] of the distance from x - r to Z.

    Requires b - a < 1 (the images of certificate intervals are short).
    The distance function has no interior local minimum between
    integers, so the minimum is attained at an endpoint or is 0 when an
    integer lies inside.
    """
    x, y = a - r, b - r
    fx = x.floor()
    fy = y.floor()
    if fx != fy:
        # an integer lies in (x, y] -- distance drops to 0 unless the
        # integer is exactly y (then the endpoint value 0 is returned
        # by dist_to_int below anyway)
        if y == fy:
            return dist_to_int(y)
        return a.desc.zero() if isinstance(a, FieldElement) else Fraction(0)
    return min(dist_to_int(x), dist_to_int(y))


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of an independent certificate re-check."""

    certified: bool
    checked_depth: int
    structure_ok: bool
    empirical_min: float
    empirical_min_exact: str
    first_violation: Optional[int]
    failures: tuple[str, ...] = field(default_factory=tuple)

    def to_jsonable(self) -> dict:
        return {
            "certified": self.certified,
            "checked_depth": self.checked_depth,
            "structure_ok": self.structure_ok,
            "empirical_min": self.empirical_min,
            "empirical_min_exact": self.empirical_min_exact,
            "first_violation": self.first_violation,
            "failures": list(self.failures),
        }


def erdos_verify(cert: ErdosCertificate, extra_n: int = 0) -> VerifyReport:
    """Independently recompute every certified bound from the endpoints.

    Hard pass/fail: the structural invariants (nesting, exact length
    law, I_0 inside (0,1)) and, for every n in [-1, guaranteed_depth]
    and every target, min over the final interval of the distance to
    the target lattice must be >= c.  Beyond the guaranteed depth, the
    orbit of the midpoint xi is scanned up to extra_n (report only).
    """
    lam = cert.lam
    desc = lam.desc
    failures: list[str] = []

    # structure
    for M, (a, b) in enumerate(cert.intervals):
        if not b - a > 0:
            failures.append(f"I_{M} empty")
        if M == 0:
            if not (a > 0 and b < 1):
                failures.append("I_0 not inside (0,1)")
            if (b - a) != desc.rational(cert.ell0):
                failures.append("|I_0| != ell0")
        else:
            pa, pb = cert.intervals[M - 1]
            if not (a >= pa and b <= pb):
                failures.append(f"I_{M} not nested in I_{M - 1}")
            if (b - a) * lam ** cert.g != (cert.intervals[M - 1][1]
                                           - cert.intervals[M - 1][0]):
                failures.append(f"length law fails at I_{M}")
    a, b = cert.intervals[-1]
    if not (cert.xi >= a and cert.xi <= b):
        failures.append("xi outside the final interval")
    structure_ok = not failures

    # certified window, by endpoint arithmetic on the final interval
    lam_pow = desc.one()
    for n in range(-1, cert.guaranteed_depth + 1):
        if n == -1:
            xa, xb = a / lam, b / lam
        else:
            xa, xb = a * lam_pow, b * lam_pow
            lam_pow = lam_pow * lam
        for r in cert.targets:
            low = interval_distance_lower(xa, xb, r)
            if not low >= cert.c:
                failures.append(f"distance bound fails at n={n}, r={r}")

    # empirical scan of the midpoint orbit beyond the guarantee
    emp_min: Optional[ExactReal] = None
    first_violation: Optional[int] = None
    x = cert.xi
    for n in range(0, max(extra_n, 0) + 1):
        for r in cert.targets:
            dist = dist_to_int(x - r)
            if emp_min is None or dist < emp_min:
                emp_min = dist
            if first_violation is None and dist < cert.c:
                first_violation = n
        x = x * lam
        x = x - x.floor()  # keep coordinates small: orbit modulo 1

    emp_min_f = float("nan") if emp_min is None else float(emp_min)
    emp_min_s = "" if emp_min is None else str(emp_min)
    return VerifyReport(
        certified=not failures,
        checked_depth=cert.guaranteed_depth,
        structure_ok=structure_ok,
        empirical_min=emp_min_f,
        empirical_min_exact=emp_min_s,
        first_violation=first_violation,
        failures=tuple(failures),
    )


def orbit_distance_scan(lam: ExactReal, xi: ExactReal,
                        targets: Sequence[Union[int, Fraction]],
                        c: Union[int, Fraction], n_max: int
                        ) -> tuple[ExactReal, Optional[int]]:
    """Exact scan of min_i ||xi lambda^n - r_i|| for n = 0..n_max.

    Returns (minimum distance, first n violating distance >= c), the
    independent oracle used to cross-check certificates.
    """
    lam_e = _lift(lam)
    xi_e = xi if isinstance(xi, FieldElement) else lam_e.desc.rational(Fraction(xi))
    targets_q = [Fraction(t) for t in targets]
    c = Fraction(c)
    x = xi_e
    best: Optional[ExactReal] = None
    first_violation: Optional[int] = None
    for n in range(n_max + 1):
        for r in targets_q:
            dist = dist_to_int(x - r)
            if best is None or dist < best:
                best = dist
            if first_violation is None and dist < c:
                first_violation = n
        x = x * lam_e
        x = x - x.floor()
    return best, first_violation
