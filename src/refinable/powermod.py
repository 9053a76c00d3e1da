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
exact field elements.  The interval length is an exact dyadic rational
ell_0 <= sqrt(2 lambda c) scaled by exact powers of lambda, so
|I_{M+1}| * lambda^g = |I_M| holds exactly in both modes.

Which excluded intervals meet a window is decided on an integer
lattice.  With Q the lcm of the denominators of c and of the targets,
C = cQ and R_i = r_i Q are integers, and the points within distance
< c of r_i + Z are the open intervals (K - C, K + C) / Q with integers
K = R_i (mod Q).  For an integer m, m > X iff m > floor(X) and m < Y
iff m < ceil(Y), so floor(Q x) and ceil(Q y) of the window [x, y] give
the k-range of every target with integer arithmetic alone, whatever the
number of targets.

Step M -> M+1 runs in its own frame u = x lambda^(g(M+1)).  Let U be
the left end of I_M in the frame x lambda^(gM) of the step before
(U = a_0 at M = 0).  For n = gM + j, 0 <= j < g:

    the window I_M lambda^n is [U lambda^j, (U + ell0) lambda^j],
    the removed intervals are (k + r - c, k + r + c) lambda^(g - j),
    the window in the frame is [U lambda^g, (U + ell0) lambda^g],
    and the gap length to find is ell0,

since |I_M| lambda^(gM) = ell0 exactly.  Only the g + 1 powers
lambda^0 .. lambda^g enter, never lambda^n.  The chosen gap start u is
the next U; it goes back to absolute coordinates once per step,
a_{M+1} = u lambda^(-g(M+1)) = (u / ell0) |I_{M+1}|, and not at all
when the gap starts at the window's left end, where a_{M+1} = a_M.
Scaling by lambda^(g(M+1)) > 0 keeps order, so the gaps, their order
and the one chosen are those of the absolute construction, and the
certificate is the same element for element.

The window ends x = U lambda^j and y = (U + ell0) lambda^j are stepped
as unreduced numerators and denominator (no gcd), which says exactly
whether an end is rational; floor(Q x) of a rational end is an integer
division.  For an irrational end the floor comes from fixed-point
integer enclosures: once per step, lo_U <= U 2^P <= hi_U with
P = bitlen(Q) + 64 (``FieldElement.fixed_point``), and once per
precision L_lo <= lambda^j 2^p <= L_hi with p >= P + bitlen(U).  Every
factor is non-negative (U > 0 and lambda > 0, so the floors lo_U and
L_lo are >= 0), so the products keep their order:

    Q lo_U L_lo  <=  Q x 2^(P + p)  <=  Q hi_U L_hi.

floor is monotone, so when both bounds shifted right by P + p give the
same integer, that integer is floor(Q x), exactly.  For y the same holds
with lo_U + floor(ell0 2^P) and hi_U + ceil(ell0 2^P), and Q y is an
integer only if y is rational, so ceil(Q y) = floor(Q y) + 1 for an
irrational y.  The bounds are a few lambda^j 2^-64 apart in units of
Q x; where they straddle an integer, ``_k_ranges`` decides on the
unreduced ends with exact floors.  Every k-range is therefore exact.

``erdos_verify`` decides its certified windows [a, b] lambda^n with the
same floors: a lambda^n and b lambda^n are stepped as unreduced
numerators, and lambda^n 2^P is enclosed once per certificate by
directed products (``_power_bounds``), so no normalised product is
formed per n.  Gap lengths, nesting and the length law are compared in
the exact order of ``FieldElement``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .enclosure import rational_lower_bound
from .errors import ConstructionFailure, InvalidLambda
from .exactreal import (
    QQ,
    ExactReal,
    FieldElement,
    _json_element,
    _json_field,
    _json_rational,
)


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
    g = _erdos_g(lam_e, m)
    c_exact = (lam_e - 1) ** 2 / (20 * (m + 2) ** 2 * lam_e ** 3)
    if c_exact.is_rational:
        return g, c_exact.as_fraction()
    return g, rational_lower_bound(c_exact)


def _erdos_g(lam: FieldElement, m: int) -> int:
    """The g of ``erdos_params``: least with lambda^g >= 2(1 + g m)."""
    if not lam > 1:
        raise InvalidLambda("dilation must be > 1")
    if m < 1:
        raise ValueError("need at least one target")
    g = 1
    power = lam
    while not power >= 2 * (1 + g * m):
        g += 1
        power = power * lam
        if g > 10_000:
            raise InvalidLambda(
                f"dilation {lam} is too close to 1: no g <= 10000 "
                f"satisfies lambda^g >= 2(1 + g*m) with m = {m}")
    return g


def _check_c(c: Fraction) -> None:
    # a c <= 0 would send rational_lower_bound into an endless loop and
    # make every certificate vacuous
    if not c > 0:
        raise ValueError("c must be > 0")


def _sqrt_lower_bound(x: FieldElement, bits: int = 48) -> Fraction:
    """A dyadic ell with 0 < ell and ell^2 <= x (verified exactly)."""
    lo = rational_lower_bound(x, bits + 16)
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
    s^2 >= 2 lambda c, so True answers are rigorous.  c must be > 0
    (ValueError otherwise).
    """
    _check_c(c)
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
    """Nested-interval certificate that ||xi lambda^n - r_i|| >= c, c > 0.

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

    def __post_init__(self):
        _check_c(self.c)
        # with no target or no step there is nothing to check, and an
        # empty certificate would verify as certified
        if not self.targets:
            raise ValueError("need at least one target")
        if not self.g >= 1:
            raise ValueError("g must be >= 1")
        # lambda <= 1 has no growing orbit; lambda = 0 divided by zero
        # in erdos_verify
        if not self.lam > 1:
            raise ValueError("lambda must be > 1")

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
        """The certificate of ``to_jsonable``; ValueError on any other shape."""
        desc = _json_field(data, "certificate")

        def rational(q) -> Fraction:
            return _json_rational(q, "certificate")

        def fe(coords) -> FieldElement:
            return _json_element(desc, coords, "certificate")

        def interval(pair) -> tuple[FieldElement, FieldElement]:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError(f"certificate interval {pair!r} is not a pair")
            return fe(pair[0]), fe(pair[1])

        targets, intervals, g = data.get("targets"), data.get("intervals"), data.get("g")
        if not (isinstance(targets, list) and targets):
            raise ValueError("certificate targets must be a non-empty list")
        if not (isinstance(intervals, list) and intervals):
            raise ValueError("certificate intervals must be a non-empty list")
        if not (type(g) is int and g >= 1):
            raise ValueError("certificate g must be a positive integer")
        cert = ErdosCertificate(
            lam=fe(data.get("lambda")),
            targets=tuple(rational(t) for t in targets),
            c=rational(data.get("c")),
            g=g,
            ell0=rational(data.get("ell0")),
            intervals=tuple(interval(pair) for pair in intervals),
            xi=fe(data.get("xi")),
        )
        # the derived fields must be the ones the certificate gives
        stored = cert.to_jsonable()
        for name in ("depth", "guaranteed_depth", "xi_decimal"):
            if name in data and data[name] != stored[name]:
                raise ValueError(f"certificate field {name!r} is {data[name]!r}, "
                                 f"but the certificate gives {stored[name]!r}")
        return cert

    @staticmethod
    def from_json(text: str) -> "ErdosCertificate":
        return ErdosCertificate.from_jsonable(json.loads(text))


def _lattice(targets: Sequence[Fraction], c: Fraction
             ) -> tuple[int, int, tuple[int, ...]]:
    """(Q, C, R): Q the lcm of the denominators of c and the targets,
    C = c Q and R_i = r_i Q, all integers."""
    q = math.lcm(c.denominator, *(r.denominator for r in targets))
    return (q, c.numerator * (q // c.denominator),
            tuple(r.numerator * (q // r.denominator) for r in targets))


def _k_ranges(x: FieldElement, y: FieldElement,
              lattice: tuple[int, int, tuple[int, ...]]) -> list[tuple[int, int]]:
    """For each target r, the first and last integer k whose open interval
    (k + r - c, k + r + c) meets the closed window between x and y (in
    either order); the range is empty (first > last) when none does.

    With the lattice (Q, C, R) of ``_lattice`` and K = Qk + R, the interval
    (K - C, K + C) / Q meets [x, y] iff K + C > Qx and K - C < Qy, i.e.
    K + C > floor(Qx) and K - C < ceil(Qy), as K +- C are integers.  So

        ceil((floor(Qx) + 1 - C - R) / Q)  <=  k  <=  floor((ceil(Qy) - 1 + C - R) / Q).

    Both bounds come from one exact floor per endpoint: ceil(Qy) is
    floor(Qy), or that plus one unless Qy is an integer, which only a
    rational y can be.  Floor and ceil are monotone, so for a window given
    in the other order the least floor and the greatest ceil of the two
    endpoints are the ones above.  Needs C > 0.
    """
    q = lattice[0]
    fx = x.floor(q)
    fy = y.floor(q)
    return _lattice_ranges(min(fx, fy),
                           max(fx if _on_lattice(x, q) else fx + 1,
                               fy if _on_lattice(y, q) else fy + 1), lattice)


def _lattice_ranges(lo: int, hi: int, lattice: tuple[int, int, tuple[int, ...]]
                    ) -> list[tuple[int, int]]:
    """Each target's k-range for a window with floor(Qx) = lo and
    ceil(Qy) = hi (the formula of ``_k_ranges``)."""
    q, cq, residues = lattice
    return [(-((r + cq - lo - 1) // q), (hi - 1 + cq - r) // q) for r in residues]


def _on_lattice(x: FieldElement, q: int) -> bool:
    """Whether q x is an integer."""
    num = x.num
    return not any(num[1:]) and num[0] * q % x.den == 0


def _removed_intervals(lo: FieldElement, hi: FieldElement,
                       scale: FieldElement, scale_inv: FieldElement,
                       targets: Sequence[Fraction],
                       c: Fraction) -> list[tuple[FieldElement, FieldElement]]:
    """The open intervals ((k + r - c) * scale, (k + r + c) * scale), for
    each target r and integer k, that meet [lo, hi]; by target, then by
    increasing k.

    ``scale`` > 0 and ``scale_inv`` = 1/scale.  In the coordinate
    y = x * scale_inv the interval for k is (k + r - c, k + r + c) and
    [lo, hi] is [lo * scale_inv, hi * scale_inv]; scaling by a positive
    number keeps order, so ``_k_ranges`` on that window gives each
    target's k-range from two floors in all.  Endpoint elements are built
    only for the k that the ranges hold.
    """
    out = []
    ranges = _k_ranges(lo * scale_inv, hi * scale_inv, _lattice(targets, c))
    for r, (k_first, k_last) in zip(targets, ranges):
        for k in range(k_first, k_last + 1):
            out.append(((k + r - c) * scale, (k + r + c) * scale))
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
    return gaps


def erdos_construct(lam: ExactReal, targets: Sequence[Union[int, Fraction]],
                    depth: int, c: Optional[Fraction] = None) -> ErdosCertificate:
    """Run the nested-interval construction to the requested depth.

    I_0 is a closed interval of length ell0 inside (0,1) avoiding
    lambda * S_c; the step M -> M+1 removes S_c * lambda^(-n) for
    n = gM .. g(M+1)-1 from I_M and keeps a closed subinterval of length
    ell0 / lambda^(g(M+1)).  Among candidate gaps the leftmost is taken
    and the subinterval is left-aligned (determinism); if a base gap
    touches 0 or 1 the placement moves just inside, keeping I_0 in (0,1).
    The steps run in each step's own frame (module docstring).

    A user-supplied smaller c > 0 is accepted (ValueError for c <= 0);
    admissibility of the default c is a theorem, so a failed gap search
    is an internal consistency error (ConstructionFailure), never
    silently ignored.
    """
    lam_e = _lift(lam)
    if not lam_e > 1:
        raise InvalidLambda("dilation must be > 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    targets_q = tuple(Fraction(t) for t in targets)
    if c is None:
        g, c = erdos_params(lam_e, len(targets_q))
    else:
        g = _erdos_g(lam_e, len(targets_q))
        _check_c(c)
    desc = lam_e.desc
    one = desc.one()
    zero = desc.zero()
    ell0 = _sqrt_lower_bound(2 * lam_e * c)
    lam_inv = lam_e.inverse()  # the construction's only field inverse

    # base: remove lambda * S_c from (0, 1)
    removed = _removed_intervals(zero, one, lam_e, lam_inv, targets_q, c)
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
    if depth:
        intervals += _steps(lam_e, lam_inv ** g, g, targets_q, c, ell0, base[0], depth)
    cur = intervals[-1]
    xi = (cur[0] + cur[1]) / 2
    return ErdosCertificate(lam=lam_e, targets=targets_q, c=c, g=g,
                            ell0=ell0, intervals=tuple(intervals), xi=xi)


# bits of the step enclosures beyond those of Q: an enclosed floor of Q x
# is undecided only within a few lambda^j 2^-64 of an integer
_GUARD_BITS = 64


def _steps(lam: FieldElement, lam_inv_g: FieldElement, g: int,
           targets: tuple[Fraction, ...], c: Fraction, ell0: Fraction,
           a: FieldElement, depth: int) -> list[tuple[FieldElement, FieldElement]]:
    """I_1, ..., I_depth after I_0 = [a, a + ell0], by the step frame of
    the module docstring; ``lam_inv_g`` is lambda^(-g)."""
    desc = lam.desc
    lattice = _lattice(targets, c)
    q = lattice[0]
    prec = q.bit_length() + _GUARD_BITS
    powers = [desc.one()]
    for _ in range(g):
        powers.append(powers[-1] * lam)
    ell_g = powers[g] * ell0  # the window's length in the step frame
    e_lo, e_hi = desc.rational(ell0).fixed_point(prec)
    ends = [(r - c, r + c) for r in targets]
    lam_bounds: dict[int, list[tuple[int, int]]] = {}
    rational = lam.is_rational
    ell = desc.rational(ell0)
    u = a  # I_M's left end in the frame x lambda^(gM)
    out = []
    for M in range(depth):
        v = u + ell0
        bounds = None  # enclosures, for the steps where an end can be irrational
        if not (rational and u.is_rational):
            u_lo, u_hi = u.fixed_point(prec)
            # lambda^j to as many bits past the point as u has before it
            p = -(-max(prec, u_hi.bit_length()) // 64) * 64
            ql = lam_bounds.get(p)
            if ql is None:
                ql = lam_bounds[p] = [(q * lo, q * hi) for lo, hi in
                                      (w.fixed_point(p) for w in powers[:g])]
            bounds = ((u_lo, u_hi), (u_lo + e_lo, u_hi + e_hi), ql, prec + p)
        x, y = (u.num, u.den), (v.num, v.den)
        removed = []
        for j in range(g):
            if j:
                x, y = _times(*x, lam), _times(*y, lam)
            scale = powers[g - j]
            for (lo, hi), (k_first, k_last) in zip(
                    ends, _window_ranges(desc, x, y, lattice, bounds, j)):
                for k in range(k_first, k_last + 1):
                    removed.append(((k + lo) * scale, (k + hi) * scale))
        left = u * powers[g]
        ell = ell * lam_inv_g
        start = left
        if removed:
            start = next((s for s, t in _gaps(left, left + ell_g, removed)
                          if t - s >= ell0), None)
            if start is None:
                raise ConstructionFailure(
                    f"no gap of length ell0/lambda^(g*{M + 1}) inside I_{M}")
            if start != left:
                a = start / ell0 * ell
        u = start
        out.append((a, a + ell))
    return out


def _times(num, den: int, lam: FieldElement) -> tuple[list[int], int]:
    """Numerators and denominator of (num / den) * lam, unreduced: the
    numerators convolved with lam's and folded by theta^k = n, no gcd."""
    k, n = lam.desc.k, lam.desc.n
    out = [0] * k
    for i, x in enumerate(num):
        if x:
            for j, y in enumerate(lam.num):
                if y:
                    if i + j < k:
                        out[i + j] += x * y
                    else:
                        out[i + j - k] += n * x * y
    return out, den * lam.den


def _unreduced(desc, end) -> FieldElement:
    """The element of an unreduced (numerators, denominator) pair."""
    return FieldElement(desc, tuple(end[0]), end[1])


def _window_ranges(desc, x, y, lattice: tuple[int, int, tuple[int, ...]],
                   bounds, j: int) -> list[tuple[int, int]]:
    """Each target's k-range for the window [x, y], 0 < x <= y, given by
    unreduced ends: from the floors of ``_window_floors`` where they are
    decided, else from the exact floors of ``_k_ranges``."""
    floors = _window_floors(x, y, lattice[0], bounds, j)
    if floors is None:
        return _k_ranges(_unreduced(desc, x), _unreduced(desc, y), lattice)
    return _lattice_ranges(*floors, lattice)


def _window_floors(x, y, q: int, bounds, j: int) -> Optional[tuple[int, int]]:
    """floor(q x) and ceil(q y) of a window [x, y] = [s, t] w with
    0 < s <= t and w > 0, or None where the enclosures leave one undecided.

    x and y are unreduced (numerators, denominator) pairs.  A rational end
    is decided by integer division; an irrational y has q y irrational, so
    ceil(q y) = floor(q y) + 1.  For an irrational end, ``bounds`` is
    ((lo, hi), (lo', hi'), ql, shift): lo <= s 2^P <= hi and
    lo' <= t 2^P <= hi', ql[j] = (q L_lo, q L_hi) with
    L_lo <= w 2^p <= L_hi, and shift = P + p.  Every factor is
    non-negative, so the products of the lower and of the upper bounds
    bound q x 2^shift and q y 2^shift.  ``_steps`` encloses
    [u, u + ell0] lambda^j with w = lambda^j, ``erdos_verify`` the final
    interval [a, b] times w = lambda^n.
    """
    num, den = x
    if any(num[1:]):
        (lo, hi), _, ql, shift = bounds
        fx = lo * ql[j][0] >> shift
        if fx != hi * ql[j][1] >> shift:
            return None
    else:
        fx = q * num[0] // den
    num, den = y
    if any(num[1:]):
        _, (lo, hi), ql, shift = bounds
        fy = lo * ql[j][0] >> shift
        if fy != hi * ql[j][1] >> shift:
            return None
        return fx, fy + 1
    return fx, -(-q * num[0] // den)


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
    and every target r, the image [a, b] lambda^n of the final interval
    must stay at distance >= c from r + Z, i.e. meet no open interval
    (k + r - c, k + r + c).  The k-ranges of all targets come from
    floor(Q a lambda^n) and ceil(Q b lambda^n), as in the construction:

    - n = -1 divides by lambda and takes the exact floors of
      ``_k_ranges``;
    - for n >= 0, a lambda^n and b lambda^n are stepped as unreduced
      numerators by ``_times``, and where the final interval has
      0 < a < b, ``_window_floors`` decides the floors from
      ``fixed_point(P)`` of a and of b and from directed bounds of
      lambda^n 2^P (``_power_bounds``), with P = bitlen(Q) +
      N bitlen(floor(lambda) + 1) + bitlen(N) + 64 rounded up to a
      multiple of 64 and N = guaranteed_depth: the bounds of Q x are
      then a few 2^-64 apart;
    - where they straddle an integer, and at every n when the final
      interval is not 0 < a < b, ``_k_ranges`` takes the exact floors
      of the unreduced ends.

    Beyond the guaranteed depth, the orbit of the midpoint xi is scanned
    up to extra_n (report only).
    """
    lam = cert.lam
    desc = lam.desc
    failures: list[str] = []

    # structure; each interval's length is formed once and is the next
    # length law's right-hand side
    lam_g = lam ** cert.g if len(cert.intervals) > 1 else None
    length = None
    for M, (a, b) in enumerate(cert.intervals):
        outer, length = length, b - a
        if not length > 0:
            failures.append(f"I_{M} empty")
        if M == 0:
            if not (a > 0 and b < 1):
                failures.append("I_0 not inside (0,1)")
            if length != desc.rational(cert.ell0):
                failures.append("|I_0| != ell0")
        else:
            pa, pb = cert.intervals[M - 1]
            if not (a >= pa and b <= pb):
                failures.append(f"I_{M} not nested in I_{M - 1}")
            if length * lam_g != outer:
                failures.append(f"length law fails at I_{M}")
    a, b = cert.intervals[-1]
    if not (cert.xi >= a and cert.xi <= b):
        failures.append("xi outside the final interval")
    structure_ok = not failures

    # certified window, by endpoint arithmetic on the final interval
    windows = _orbit_windows(a, b, lam, _lattice(cert.targets, cert.c),
                             cert.guaranteed_depth)
    for n, ranges in enumerate(windows, start=-1):
        for r, (k_first, k_last) in zip(cert.targets, ranges):
            if k_first <= k_last:
                failures.append(f"distance bound fails at n={n}, r={r}")

    # empirical scan of the midpoint orbit beyond the guarantee
    emp_min, first_violation = orbit_distance_scan(
        lam, cert.xi, cert.targets, cert.c, max(extra_n, 0))
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


def _orbit_windows(a: FieldElement, b: FieldElement, lam: FieldElement,
                   lattice: tuple[int, int, tuple[int, ...]], depth: int):
    """Each target's k-range for the window [a, b] lambda^n, for
    n = -1, 0, ..., depth in turn (``erdos_verify``)."""
    desc = lam.desc
    lam_inv = desc.one() / lam  # the walk's only field inverse
    yield _k_ranges(a * lam_inv, b * lam_inv, lattice)
    if depth < 0:
        return
    ordered = a > 0 and b > a
    bounds = None  # enclosures, for the walks where an end can be irrational
    if ordered and not (lam.is_rational and a.is_rational and b.is_rational):
        q = lattice[0]
        floor_lam = lam.rounded(lambda num, p: num >> p)
        prec = -(-(q.bit_length() + depth * (floor_lam + 1).bit_length()
                   + depth.bit_length() + _GUARD_BITS) // 64) * 64
        bounds = (a.fixed_point(prec), b.fixed_point(prec),
                  _power_bounds(lam, q, depth, prec), 2 * prec)
    x, y = (a.num, a.den), (b.num, b.den)
    for n in range(depth + 1):
        if n:
            x, y = _times(*x, lam), _times(*y, lam)
        if ordered:
            yield _window_ranges(desc, x, y, lattice, bounds, n)
        else:
            yield _k_ranges(_unreduced(desc, x), _unreduced(desc, y), lattice)


def _power_bounds(lam: FieldElement, q: int, depth: int,
                  prec: int) -> list[tuple[int, int]]:
    """(q L_lo, q L_hi) with L_lo <= lambda^n 2^prec <= L_hi for
    n = 0, ..., depth: floor and ceiling products of the bounds of
    ``lam.fixed_point(prec)``, all non-negative as lambda > 1."""
    l_lo, l_hi = lam.fixed_point(prec)
    lo = hi = 1 << prec
    out = [(q * lo, q * hi)]
    for _ in range(depth):
        lo = (lo * l_lo) >> prec
        hi = -((-hi * l_hi) >> prec)
        out.append((q * lo, q * hi))
    return out


def orbit_distance_scan(lam: ExactReal, xi: ExactReal,
                        targets: Sequence[Union[int, Fraction]],
                        c: Union[int, Fraction], n_max: int
                        ) -> tuple[ExactReal, Optional[int]]:
    """Exact scan of min_i ||xi lambda^n - r_i|| for n = 0..n_max.

    The orbit point xi lambda^n is stepped unreduced: reducing it mod 1
    between steps would scan another sequence unless lambda is an
    integer.  Returns (minimum distance, first n violating
    distance >= c), the independent oracle used to cross-check
    certificates.
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
    return best, first_violation
