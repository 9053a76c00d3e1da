"""Orbit avoidance certificates: parameters, construction, verification."""

import dataclasses
import hashlib
import json
import math
from fractions import Fraction
from typing import Optional, Sequence, Union

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from refinable import powermod
from refinable.errors import InvalidLambda
from refinable.exactreal import QQ, ExactReal, FieldElement, field_make
from refinable.powermod import (
    ErdosCertificate,
    _check_c,
    _gaps,
    _k_ranges,
    _lattice,
    _lift,
    _removed_intervals,
    _sqrt_lower_bound,
    VerifyReport,
    check_admissibility,
    dist_to_int,
    erdos_construct,
    erdos_params,
    erdos_verify,
    orbit_distance_scan,
)


def interval_distance_lower(a, b, r):
    """Exact min over x in [a, b] of the distance from x - r to Z: the
    oracle for the certified window of ``erdos_verify``.

    The distance function has no interior local minimum between
    integers, so the minimum is attained at an endpoint or is 0 when an
    integer lies inside; that also covers windows of length >= 1.
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


def test_dist_to_int_examples():
    assert dist_to_int(Fraction(1, 2)) == Fraction(1, 2)
    assert dist_to_int(Fraction(-1, 5)) == Fraction(1, 5)
    assert dist_to_int(7) == 0
    F = field_make(10, 2)
    d = dist_to_int(F.theta())  # sqrt(10) = 3.162...: distance 0.162...
    assert d == F.theta() - 3


def test_erdos_params_examples():
    assert erdos_params(2, 1) == (3, Fraction(1, 1440))
    assert erdos_params(3, 1) == (2, Fraction(1, 1215))
    assert erdos_params(10, 1) == (1, Fraction(9, 20000))
    with pytest.raises(InvalidLambda):
        erdos_params(1, 1)


def test_erdos_params_irrational_lower_bound():
    F = field_make(10, 2)
    g, c = erdos_params(F.theta(), 2)
    assert g == 2  # 10 >= 2(1 + 2*2) = 10, exact boundary case
    exact = (F.theta() - 1) ** 2 / (20 * 16 * F.theta() ** 3)
    assert c > 0 and F.rational(c) <= exact


def test_erdos_params_c_is_a_lower_bound_for_every_quadratic_lambda():
    # lambda = s sqrt(n): a c rounded to nearest exceeded the exact
    # constant in 655 of these 1,308 cases
    cases = 0
    for n in range(2, 120):
        if math.isqrt(n) ** 2 == n:
            continue
        F = field_make(n, 2)
        for s in (1, Fraction(3, 2), 2, 3):
            lam = s * F.theta()
            for m in (1, 2, 3):
                _, c = erdos_params(lam, m)
                exact = (lam - 1) ** 2 / (20 * (m + 2) ** 2 * lam ** 3)
                assert c > 0 and F.rational(c) <= exact, (n, s, m)
                cases += 1
    assert cases == 1308


def test_admissibility_check():
    adm = check_admissibility(2, 1, 3, Fraction(1, 1440))
    assert adm == {"base": True, "induction": True}
    bad = check_admissibility(2, 1, 3, Fraction(1, 4))
    assert not all(bad.values())


def test_base_interval_example():
    cert = erdos_construct(2, [0], 0)
    a, b = cert.intervals[0]
    # leftmost admissible start after the removed (-1/720, 1/720)
    assert a == Fraction(1, 720)
    # ell0 is a dyadic lower bound of sqrt(2*lambda*c) = sqrt(1/360)
    assert cert.ell0 ** 2 <= Fraction(1, 360)
    assert float(cert.ell0) == pytest.approx(math.sqrt(1 / 360), rel=1e-9)
    assert b - a == cert.ell0


def test_depth5_certificate_and_verify():
    cert = erdos_construct(2, [0], 5)
    assert cert.guaranteed_depth == 14
    rep = erdos_verify(cert, extra_n=14)
    assert rep.certified and rep.structure_ok
    assert rep.first_violation is None or rep.first_violation > 14
    # interval length law, exactly
    lam3 = 2 ** cert.g
    for (a0, b0), (a1, b1) in zip(cert.intervals, cert.intervals[1:]):
        assert (b1 - a1) * lam3 == (b0 - a0)


def test_irrational_lambda_certificate():
    F = field_make(10, 2)
    cert = erdos_construct(F.theta(), [0, Fraction(1, 2)], 3)
    rep = erdos_verify(cert, extra_n=20)
    assert rep.certified
    # endpoints are exact field elements; the length law is exact
    lamg = F.theta() ** cert.g
    for (a0, b0), (a1, b1) in zip(cert.intervals, cert.intervals[1:]):
        assert (b1 - a1) * lamg == (b0 - a0)


def test_serialization_roundtrip():
    F = field_make(10, 2)
    cert = erdos_construct(F.theta(), [0], 2)
    back = ErdosCertificate.from_json(cert.to_json())
    assert back.xi == cert.xi
    assert back.intervals == cert.intervals
    assert erdos_verify(back, extra_n=5).certified


def test_trivial_oracles_small():
    mn, fv = orbit_distance_scan(2, Fraction(1, 3), [0], Fraction(1, 3), 200)
    assert mn == Fraction(1, 3) and fv is None
    mn, fv = orbit_distance_scan(3, Fraction(1, 2), [0], Fraction(1, 2), 200)
    assert mn == Fraction(1, 2) and fv is None
    mn, fv = orbit_distance_scan(3, Fraction(1, 3), [0], Fraction(1, 1000), 10)
    assert fv == 1  # 3 * 1/3 = 1 is an integer


@pytest.mark.parametrize("lam_text", ["sqrt5", "5/2", "7/3"])
def test_orbit_scan_matches_the_direct_exact_orbit(lam_text):
    # irrational and non-integer rational lambda: reducing xi lambda^n
    # mod 1 between steps would scan another sequence
    if lam_text == "sqrt5":
        F = field_make(5, 2)
        lam, xi = F.theta(), F.theta() / 7 + Fraction(1, 3)
    else:
        lam, xi = QQ.rational(Fraction(lam_text)), QQ.rational(Fraction(2, 7))
    targets, c, n_max = [Fraction(2, 5), Fraction(4, 5)], Fraction(1, 20), 30
    dists = [min(dist_to_int(xi * lam ** n - r) for r in targets)
             for n in range(n_max + 1)]
    first = next((n for n, d in enumerate(dists) if d < c), None)
    assert first is not None  # the comparison covers a violation
    assert orbit_distance_scan(lam, xi, targets, c, n_max) == (min(dists), first)


def test_midpoint_scan_of_a_certified_certificate_has_no_violation_in_its_range():
    # lambda = sqrt 5, targets (2/5, 4/5), depth 24: certified for n <= 95
    cert = erdos_construct(field_make(5, 2).theta(), [Fraction(2, 5), Fraction(4, 5)], 24)
    rep = erdos_verify(cert, extra_n=40)
    assert rep.certified and cert.guaranteed_depth >= 40
    assert rep.first_violation is None
    assert 0.0197 < rep.empirical_min < 0.0198
    for lam, targets, depth in _GOLDEN_TASKS:
        if isinstance(lam, tuple):
            n, k, s = lam
            lam = s * field_make(n, k).theta()
        for d in (1, depth):
            cert = erdos_construct(lam, targets, d)
            rep = erdos_verify(cert, extra_n=cert.guaranteed_depth)
            assert rep.certified and rep.first_violation is None


def test_interval_distance_lower():
    from refinable.exactreal import QQ

    a, b = QQ.rational(Fraction(1, 10)), QQ.rational(Fraction(2, 10))
    assert interval_distance_lower(a, b, Fraction(0)) == Fraction(1, 10)
    # interval straddling an integer: lower bound 0
    a2, b2 = QQ.rational(Fraction(9, 10)), QQ.rational(Fraction(11, 10))
    assert interval_distance_lower(a2, b2, Fraction(0)) == 0


def test_verify_detects_tampering():
    cert = erdos_construct(2, [0], 3)
    data = cert.to_jsonable()
    data["xi"] = ["1/2"]  # 2 * 1/2 hits an integer immediately
    with pytest.raises(ValueError, match="xi_decimal"):
        ErdosCertificate.from_jsonable(data)
    data["xi_decimal"] = "0.5"  # a consistent file still fails to verify
    bad = ErdosCertificate.from_jsonable(data)
    rep = erdos_verify(bad, extra_n=3)
    assert not rep.certified or rep.first_violation is not None


def test_construction_rejects_bad_lambda():
    with pytest.raises(InvalidLambda):
        erdos_construct(Fraction(1, 2), [0], 1)


@pytest.mark.parametrize("n, targets, depth", [
    (3, [0, Fraction(1, 2)], 23),
    (3, [Fraction(1, 5)], 22),
    (5, [Fraction(2, 5), Fraction(4, 5)], 24),
])
def test_deep_quadratic_certificates(n, targets, depth):
    # floors of endpoints above 2^53 went wrong here: the construction ran
    # for seconds or longer through wrong k-ranges
    cert = erdos_construct(field_make(n, 2).theta(), targets, depth)
    rep = erdos_verify(cert)
    assert rep.certified and rep.structure_ok
    assert cert.depth == depth


# -- interval removal --------------------------------------------------------


def _removed_intervals_by_division(lo, hi, scale, targets, c):
    """The division-based removal the construction used before: every k
    from floor(lo/scale - r - c) to floor(hi/scale - r + c) + 1, filtered
    by b > lo and a < hi."""
    out = []
    for r in targets:
        k_lo = ((lo / scale) - r - c).floor()
        k_hi = ((hi / scale) - r + c).floor() + 1
        for k in range(k_lo, k_hi + 1):
            a = (k + r - c) * scale
            b = (k + r + c) * scale
            if b > lo and a < hi:
                out.append((a, b))
    return out


_NON_SQUARES = [n for n in range(2, 145) if math.isqrt(n) ** 2 != n]


def _fraction(draw, lo, hi, den):
    """A fraction p/q in [lo, hi] with q <= den."""
    q = draw(st.integers(1, den))
    return Fraction(draw(st.integers(math.ceil(lo * q), math.floor(hi * q))), q)


@st.composite
def _removal_case(draw):
    if draw(st.booleans()):
        lam = QQ.rational(_fraction(draw, Fraction(1001, 1000), 12, 50))
    else:
        lam = field_make(draw(st.sampled_from(_NON_SQUARES)), 2).theta()
    targets = sorted({_fraction(draw, 0, Fraction(4, 5), 5)
                      for _ in range(draw(st.integers(1, 3)))})
    _, c = erdos_params(lam, len(targets))
    # the removed set is S_c * lambda^(-n); n = -1 is the base step's lambda * S_c
    n = draw(st.integers(-1, 30))
    scale = lam ** -n
    # lo in (0, 1), irrational when lambda is: a convex combination of a
    # rational and frac(lambda); [lo, hi] spans at most 20 lattice periods
    w = _fraction(draw, 0, 1, 100)
    lo = _fraction(draw, 0, 1, 1000) * (1 - w) + w * (lam - lam.floor())
    hi = lo + _fraction(draw, 0, 20, 1000) * scale
    assume(lo > 0 and hi < 1 and lo < hi)
    return lo, hi, scale, targets, c


@settings(max_examples=300, deadline=None)
@given(_removal_case())
def test_removed_intervals_match_the_division_reference(case):
    lo, hi, scale, targets, c = case
    got = _removed_intervals(lo, hi, scale, scale.inverse(), targets, c)
    want = _removed_intervals_by_division(lo, hi, scale, targets, c)
    assert got == want
    assert [(a.coeffs, b.coeffs) for a, b in got] == \
        [(a.coeffs, b.coeffs) for a, b in want]


# -- the step frame against the per-n construction -----------------------------


def _erdos_construct_per_n(lam: ExactReal, targets: Sequence[Union[int, Fraction]],
                            depth: int, c: Optional[Fraction] = None) -> ErdosCertificate:
    """The construction as it ran before the step frame: every n removes
    S_c lambda^(-n) from I_M in absolute coordinates, with lo lambda^n and
    hi lambda^n formed as products and lambda^(-n) walked at every n."""
    lam_e = _lift(lam)
    if not lam_e > 1:
        raise InvalidLambda("dilation must be > 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    targets_q = tuple(Fraction(t) for t in targets)
    g, c_default = erdos_params(lam_e, len(targets_q))
    if c is None:
        c = c_default
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
    cur = base
    lam_pow = one  # lambda^n, n = gM at loop entry
    lam_neg_pow = one  # lambda^(-n): the removed set is S_c lambda^(-n)
    lam_inv_g = lam_inv ** g
    for M in range(depth):
        removed = []
        for _n in range(g * M, g * (M + 1)):
            removed.extend(_removed_intervals(cur[0], cur[1], lam_neg_pow,
                                              lam_pow, targets_q, c))
            lam_pow = lam_pow * lam_e
            lam_neg_pow = lam_neg_pow * lam_inv
        ell = ell * lam_inv_g
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



def _lambda(draw):
    """lambda in Q, Q(sqrt n) or Q(n^(1/3)), at least 6/5 (g grows as
    lambda nears 1); in the fields often with a rational part as well."""
    kind = draw(st.sampled_from(("Q", "quadratic", "cubic")))
    if kind == "Q":
        return QQ.rational(_fraction(draw, Fraction(6, 5), 12, 7))
    if kind == "quadratic":
        theta = field_make(draw(st.sampled_from(_NON_SQUARES)), 2).theta()
    else:
        theta = field_make(draw(st.sampled_from([2, 3, 5, 7, 10, 12, 20])), 3).theta()
    lam = _fraction(draw, Fraction(1, 2), 3, 4) * theta + _fraction(draw, -1, 2, 3)
    assume(lam >= Fraction(6, 5) and lam <= 12)
    return lam


@st.composite
def _construction_case(draw):
    lam = _lambda(draw)
    # 1-4 targets, some outside [0, 1) (the same class r + Z)
    targets = sorted({_fraction(draw, -1, 2, 7) for _ in range(draw(st.integers(1, 4)))})
    c = None
    if draw(st.booleans()):
        # a smaller user c, rational for every lambda
        _, c_default = erdos_params(lam, len(targets))
        c = c_default * Fraction(draw(st.integers(1, 9)), draw(st.integers(10, 40)))
    return lam, targets, draw(st.integers(0, 12)), c


@settings(max_examples=150, deadline=None)
@given(_construction_case())
def test_step_frame_matches_the_per_n_construction(case):
    lam, targets, depth, c = case
    got = erdos_construct(lam, targets, depth, c=c)
    assert got.to_jsonable() == _erdos_construct_per_n(lam, targets, depth, c=c).to_jsonable()


def test_every_step_on_the_exact_fallback_gives_the_same_certificates(monkeypatch):
    # with no window decided by the enclosures, each n of each step takes
    # the exact floors of _k_ranges on its unreduced ends
    expected = []
    for lam, targets, depth in _GOLDEN_TASKS:
        if isinstance(lam, tuple):
            n, k, s = lam
            lam = s * field_make(n, k).theta()
        expected.append((lam, targets, depth, erdos_construct(lam, targets, depth).to_json()))
    calls = [0]
    k_ranges = powermod._k_ranges

    def counting(*args):
        calls[0] += 1
        return k_ranges(*args)

    monkeypatch.setattr(powermod, "_window_floors", lambda *args: None)
    monkeypatch.setattr(powermod, "_k_ranges", counting)
    for lam, targets, depth, text in expected:
        calls[0] = 0
        cert = erdos_construct(lam, targets, depth)
        assert cert.to_json() == text
        # the base step and every n of every step
        assert calls[0] == 1 + cert.g * depth


@pytest.mark.parametrize("guard_bits", [powermod._GUARD_BITS, 0])
def test_enclosed_floors_are_the_exact_floors(monkeypatch, guard_bits):
    # every window the enclosures decide gets the exact floor(Q x) and
    # ceil(Q y); at the default precision they decide every window of the
    # golden tasks, and at P = bitlen(Q) the enclosures are a few units of
    # Q x wide, so many windows go to the exact fallback
    window_floors = powermod._window_floors
    outcomes = {"decided": 0, "undecided": 0}
    desc = [None]

    def checked(x, y, q, bounds, j):
        floors = window_floors(x, y, q, bounds, j)
        if floors is None:
            outcomes["undecided"] += 1
            return None
        outcomes["decided"] += 1
        lo = FieldElement(desc[0], tuple(x[0]), x[1]).floor(q)
        end = FieldElement(desc[0], tuple(y[0]), y[1])
        hi = end.floor(q) + (not powermod._on_lattice(end, q))
        assert floors == (lo, hi)
        return floors

    expected = []
    for lam, targets, depth in _GOLDEN_TASKS:
        if isinstance(lam, tuple):
            n, k, s = lam
            lam = s * field_make(n, k).theta()
        expected.append((lam, targets, depth, erdos_construct(lam, targets, depth).to_json()))
    monkeypatch.setattr(powermod, "_GUARD_BITS", guard_bits)
    monkeypatch.setattr(powermod, "_window_floors", checked)
    for lam, targets, depth, text in expected:
        desc[0] = powermod._lift(lam).desc
        assert erdos_construct(lam, targets, depth).to_json() == text
    if guard_bits:
        assert outcomes["undecided"] == 0 and outcomes["decided"] > 0
    else:
        assert outcomes["decided"] > 0 and outcomes["undecided"] > 0


def test_construction_inverts_a_bounded_number_of_times(monkeypatch):
    inverse = FieldElement.inverse
    calls = [0]

    def counting(self):
        calls[0] += 1
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counting)
    counts = {}
    for depth in (2, 20):
        calls[0] = 0
        erdos_construct(field_make(3, 2).theta(), [0, Fraction(1, 2)], depth)
        counts[depth] = calls[0]
    # one for erdos_params' c, one for lambda^-1
    assert counts[20] == counts[2] <= 2


def test_each_step_floors_twice_whatever_the_targets(monkeypatch):
    floor, inverse = FieldElement.floor, FieldElement.inverse
    window_floors = powermod._window_floors
    calls = {"floor": 0, "inverse": 0, "undecided": 0}

    def counting_floor(self, *args):
        calls["floor"] += 1
        return floor(self, *args)

    def counting_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    def counting_window_floors(*args):
        floors = window_floors(*args)
        calls["undecided"] += floors is None
        return floors

    monkeypatch.setattr(FieldElement, "floor", counting_floor)
    monkeypatch.setattr(FieldElement, "inverse", counting_inverse)
    monkeypatch.setattr(powermod, "_window_floors", counting_window_floors)
    for lam in (field_make(3, 2).theta(), Fraction(5, 2)):
        for targets in ([0], [0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]):
            for depth in (2, 6):
                calls["floor"] = 0
                cert = erdos_construct(lam, targets, depth)
                # the base step floors twice; a step's n floors twice only
                # where its enclosures leave the window undecided
                assert calls["floor"] <= 2 * (1 + cert.g * depth)
                calls["floor"] = calls["inverse"] = calls["undecided"] = 0
                erdos_verify(cert)
                # n = -1, every n >= 0 the enclosures leave undecided, then
                # the midpoint scan's n = 0 (one dist_to_int per target)
                assert calls["floor"] == 2 + 2 * calls["undecided"] + len(targets)
                assert calls["inverse"] <= 1


def test_nonpositive_c_is_rejected():
    # rational_lower_bound never ends for a bound that is not positive,
    # and a certificate with c <= 0 would verify vacuously
    data = erdos_construct(2, [0], 1).to_jsonable()
    for c in (Fraction(0), Fraction(-1, 100)):
        with pytest.raises(ValueError, match="c must be > 0"):
            erdos_construct(2, [0], 1, c=c)
        with pytest.raises(ValueError, match="c must be > 0"):
            check_admissibility(2, 1, 3, c)
        with pytest.raises(ValueError, match="c must be > 0"):
            ErdosCertificate.from_jsonable({**data, "c": str(c)})


def test_lambda_at_most_one_is_rejected():
    # lambda = 0 once loaded and divided by zero in erdos_verify; 1 and -2
    # loaded and failed only the length law
    data = erdos_construct(2, [0], 2).to_jsonable()
    for lam in ("0", "1", "-2"):
        with pytest.raises(ValueError, match="lambda must be > 1"):
            ErdosCertificate.from_jsonable({**data, "lambda": [lam]})


@pytest.mark.parametrize("change", [
    {"field": [10, 2]}, {"targets": 5}, {"lambda": 5}, {"intervals": 7}, {"c": [1]},
    {"c": "1/0"}, {"field": {"n": "10", "k": 2}}, {"intervals": []},
    {"intervals": [[["1"]]]}, {"targets": [0.5]}, {"g": "2"}, {"g": 0}, {"xi": None},
    {"targets": []},
])
def test_certificate_json_shape_is_checked(change):
    # the first five once raised TypeError and "1/0" ZeroDivisionError
    data = erdos_construct(2, [0], 2).to_jsonable()
    with pytest.raises(ValueError, match="certificate"):
        ErdosCertificate.from_jsonable({**data, **change})


def test_certificates_with_nothing_to_check_are_rejected():
    # with no target the window walk checked nothing, and with g = 0 the
    # guaranteed depth was -1, so both verified as certified
    cert = erdos_construct(2, [0], 3)
    with pytest.raises(ValueError, match="need at least one target"):
        dataclasses.replace(cert, targets=())
    with pytest.raises(ValueError, match="g must be >= 1"):
        dataclasses.replace(cert, g=0)
    with pytest.raises(ValueError, match="certificate targets"):
        ErdosCertificate.from_jsonable({**cert.to_jsonable(), "targets": []})


def test_a_given_c_is_not_computed_again(monkeypatch):
    # with c given only g is computed: the one rational_lower_bound left
    # is the one of ell0 <= sqrt(2 lambda c)
    lam = field_make(3, 2).theta()
    _, c = erdos_params(lam, 1)
    text = erdos_construct(lam, [0], 5).to_json()
    lower_bound = powermod.rational_lower_bound
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return lower_bound(*args)

    monkeypatch.setattr(powermod, "rational_lower_bound", counting)
    assert erdos_construct(lam, [0], 5, c=c).to_json() == text
    assert calls[0] == 1
    calls[0] = 0
    erdos_construct(lam, [0], 5)
    assert calls[0] == 2


def test_certificate_json_must_be_an_object():
    for data in ([], None, "certificate"):
        with pytest.raises(ValueError, match="certificate field"):
            ErdosCertificate.from_jsonable(data)


# -- the lattice window test ---------------------------------------------------


def _check_window(x, y, targets, c):
    """``_k_ranges`` against the oracle, for each target: the k-range is
    empty exactly when the distance bound holds, holds exactly the k whose
    interval (k + r - c, k + r + c) meets [x, y], and does not depend on
    the order of the endpoints."""
    lattice = _lattice(targets, c)
    ranges = _k_ranges(x, y, lattice)
    assert _k_ranges(y, x, lattice) == ranges
    for r, (k_first, k_last) in zip(targets, ranges):
        assert (k_first > k_last) == (interval_distance_lower(x, y, r) >= c)
        lo, hi = min(k_first, k_last), max(k_first, k_last)
        for k in range(lo - 2, hi + 3):
            meets = k + r + c > x and k + r - c < y
            assert meets == (k_first <= k <= k_last)


_TINY = Fraction(1, 2 ** 60)


@st.composite
def _window_case(draw):
    if draw(st.booleans()):
        unit = QQ.one()
    else:
        theta = field_make(draw(st.sampled_from(_NON_SQUARES)), 2).theta()
        unit = theta - theta.floor()  # irrational, in (0, 1)
    targets = sorted({_fraction(draw, 0, Fraction(19, 20), 20)
                      for _ in range(draw(st.integers(1, 3)))})
    q = draw(st.integers(2, 64))
    c = Fraction(draw(st.integers(1, 3 * q // 4)), q)  # up to 3/4

    def endpoint():
        kind = draw(st.sampled_from(("free", "edge", "inside", "outside")))
        if kind == "free":
            return _fraction(draw, -4, 4, 1000) + _fraction(draw, -1, 1, 100) * unit
        r = draw(st.sampled_from(targets))
        side = draw(st.sampled_from((-1, 1)))
        edge = unit.desc.rational(draw(st.integers(-3, 3)) + r + side * c)
        if kind == "edge":
            return edge
        # 2^-60 (or 2^-60 times an irrational unit) inside or outside k + r +- c
        eps = _TINY * (unit if draw(st.booleans()) else 1)
        return edge - side * eps if kind == "inside" else edge + side * eps

    x = endpoint()
    if draw(st.booleans()):
        y = endpoint()
    else:
        # windows up to three periods long
        y = x + _fraction(draw, 0, 3, 200) * (unit if draw(st.booleans()) else 1)
    return (x, y) if x <= y else (y, x), targets, c


@settings(max_examples=400, deadline=None)
@given(_window_case())
def test_lattice_window_matches_the_distance_oracle(case):
    (x, y), targets, c = case
    _check_window(x, y, targets, c)


@pytest.mark.parametrize("desc", [QQ, field_make(2, 2)])
def test_lattice_window_named_cases(desc):
    one = desc.one()
    theta = desc.theta()
    irr = theta - theta.floor() if desc.k > 1 else one / 3
    targets = [Fraction(0), Fraction(1, 3), Fraction(1, 2)]
    for c in (Fraction(1, 1440), Fraction(1, 7), Fraction(1, 2), Fraction(5, 8)):
        for k in (-2, 0, 1):
            for r in targets:
                for side in (-1, 1):
                    edge = one * (k + r + side * c)
                    # exactly on k + r +- c, and 2^-60 inside and outside it
                    for eps in (0, _TINY, -_TINY, _TINY * irr, -_TINY * irr):
                        x = edge - side * eps
                        for length in (0, _TINY, Fraction(1, 3), Fraction(5, 2), irr * 2):
                            _check_window(x, x + length, targets, c)
                            _check_window(x - length, x, targets, c)


_GOLDEN_TASKS = [
    (2, [0], 8),
    (3, [0, Fraction(1, 2)], 10),
    (Fraction(5, 2), [Fraction(1, 3)], 8),
    (Fraction(7, 3), [0, Fraction(1, 2)], 6),
    (10, [Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)], 6),
    ((3, 2, 1), [0, Fraction(1, 2)], 23),
    ((3, 2, 1), [Fraction(1, 5)], 22),
    ((5, 2, 1), [Fraction(2, 5), Fraction(4, 5)], 24),
    ((2, 2, 1), [0], 20),
    ((7, 2, 1), [Fraction(1, 3), Fraction(2, 3)], 20),
    ((10, 2, Fraction(3, 2)), [Fraction(1, 4)], 20),
    ((10, 3, 1), [0, Fraction(1, 3)], 10),
]


def test_erdos_certificates_golden():
    # (n, k, s) stands for lambda = s * n^(1/k)
    h = hashlib.sha256()
    for lam, targets, depth in _GOLDEN_TASKS:
        if isinstance(lam, tuple):
            n, k, s = lam
            lam = s * field_make(n, k).theta()
        cert = erdos_construct(lam, targets, depth)
        rep = erdos_verify(cert)
        assert rep.certified
        h.update(cert.to_json().encode())
        h.update(json.dumps(rep.to_jsonable(), sort_keys=True).encode())
    assert h.hexdigest() == \
        "1ccef206209297d6f6c43ca9f4217af377712e12ff286e7782956e427134c82b"


def test_erdos_verify_midpoint_scan_golden():
    # extra_n = 40 reaches the midpoint-orbit scan beyond the guarantee;
    # depth 1 leaves most of those 40 steps outside it.  Each
    # empirical_min is the nearest float to its exact value: three of
    # them (sqrt 5 at depths 1 and 24, sqrt 7 at depth 20) once read the
    # midpoint of a 64-bit ball of cancelling coordinates
    h = hashlib.sha256()
    for lam, targets, depth in _GOLDEN_TASKS[1::2]:
        if isinstance(lam, tuple):
            n, k, s = lam
            lam = s * field_make(n, k).theta()
        for d in (1, depth):
            rep = erdos_verify(erdos_construct(lam, targets, d), extra_n=40)
            assert rep.certified
            h.update(json.dumps(rep.to_jsonable(), sort_keys=True).encode())
    assert h.hexdigest() == \
        "51cdec6f71e5a60bc575a356132a306565cfe40a4003dbee28a7bec859c5c779"


def test_failing_verify_reports_golden():
    # pins the text and order of the failure messages: each certificate is
    # verified with c doubled, with c = 1/4 (nearly every n fails for some
    # target) and with its last interval shifted by its own length; the
    # hash was taken before the certified window moved to integer lattice
    # coordinates
    h = hashlib.sha256()
    for lam, targets, depth in _GOLDEN_TASKS:
        if isinstance(lam, tuple):
            n, k, s = lam
            lam = s * field_make(n, k).theta()
        cert = erdos_construct(lam, targets, depth)
        a, b = cert.intervals[-1]
        shifted = cert.intervals[:-1] + ((b, b + (b - a)),)
        for bad in (dataclasses.replace(cert, c=2 * cert.c),
                    dataclasses.replace(cert, c=Fraction(1, 4)),
                    dataclasses.replace(cert, intervals=shifted)):
            rep = erdos_verify(bad)
            h.update(json.dumps(rep.to_jsonable(), sort_keys=True).encode())
    assert h.hexdigest() == \
        "906c5013a72ac4141d7c7470b0345607c63f38f070a1a6d0e1400c32f4f5e70a"


def test_certificate_round_trip_rejects_tampered_derived_fields():
    # depth, guaranteed_depth and xi_decimal are derived from the intervals;
    # a stored value that disagrees raises ValueError naming the field
    for lam, targets, depth in _GOLDEN_TASKS:
        if isinstance(lam, tuple):
            n, k, s = lam
            lam = s * field_make(n, k).theta()
        cert = erdos_construct(lam, targets, depth)
        text = cert.to_json()
        back = ErdosCertificate.from_json(text)
        assert back == cert and back.to_json() == text
        for name, value in (("depth", cert.depth + 1),
                            ("guaranteed_depth", cert.guaranteed_depth + 1),
                            ("xi_decimal", f"{float(cert.xi) + 1:.17g}")):
            data = json.loads(text)
            data[name] = value
            with pytest.raises(ValueError, match=f"'{name}'"):
                ErdosCertificate.from_jsonable(data)


# -- the certified window walk against the per-n exact walk --------------------


def _erdos_verify_per_n(cert: ErdosCertificate, extra_n: int = 0) -> VerifyReport:
    """The verification as it ran before the window walk moved onto the
    construction's integer floors: a lambda^n and b lambda^n formed as
    normalised products at every n, each window decided by the exact
    floors of ``_k_ranges``."""
    lam = cert.lam
    desc = lam.desc
    failures: list[str] = []

    lam_g = lam ** cert.g if len(cert.intervals) > 1 else None
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
            if (b - a) * lam_g != pb - pa:
                failures.append(f"length law fails at I_{M}")
    a, b = cert.intervals[-1]
    if not (cert.xi >= a and cert.xi <= b):
        failures.append("xi outside the final interval")
    structure_ok = not failures

    lattice = _lattice(cert.targets, cert.c)
    lam_inv = desc.one() / lam
    xa, xb = a * lam_inv, b * lam_inv
    for n in range(-1, cert.guaranteed_depth + 1):
        if n == 0:
            xa, xb = a, b
        elif n > 0:
            xa, xb = xa * lam, xb * lam
        for r, (k_first, k_last) in zip(cert.targets, _k_ranges(xa, xb, lattice)):
            if k_first <= k_last:
                failures.append(f"distance bound fails at n={n}, r={r}")

    emp_min, first_violation = orbit_distance_scan(
        lam, cert.xi, cert.targets, cert.c, max(extra_n, 0))
    return VerifyReport(
        certified=not failures,
        checked_depth=cert.guaranteed_depth,
        structure_ok=structure_ok,
        empirical_min=float("nan") if emp_min is None else float(emp_min),
        empirical_min_exact="" if emp_min is None else str(emp_min),
        first_violation=first_violation,
        failures=tuple(failures),
    )


def _tampered(cert: ErdosCertificate) -> list[ErdosCertificate]:
    """The certificate and seven variants that fail in different ways: c
    doubled, c = 1/4, the last interval shifted by its own length,
    reversed to (b, a), negated to (-b, -a), replaced by I_0 reversed
    (long windows that hold whole removed intervals, which a reversed
    window read as ordered misses), and xi outside it."""
    a, b = cert.intervals[-1]
    a0, b0 = cert.intervals[0]

    def last(pair):
        return dataclasses.replace(cert, intervals=cert.intervals[:-1] + (pair,))

    return [cert,
            dataclasses.replace(cert, c=2 * cert.c),
            dataclasses.replace(cert, c=Fraction(1, 4)),
            last((b, b + (b - a))),
            last((b, a)),
            last((-b, -a)),
            last((b0, a0)),
            dataclasses.replace(cert, xi=b + (b - a))]


@settings(max_examples=150, deadline=None)
@given(_construction_case(), st.integers(0, 3))
def test_window_walk_matches_the_per_n_exact_walk(case, extra_n):
    lam, targets, depth, c = case
    for cert in _tampered(erdos_construct(lam, targets, depth, c=c)):
        assert erdos_verify(cert, extra_n).to_jsonable() == \
            _erdos_verify_per_n(cert, extra_n).to_jsonable()


def test_every_window_on_the_exact_fallback_gives_the_same_reports(monkeypatch):
    certs = []
    for lam, targets, depth in _GOLDEN_TASKS:
        if isinstance(lam, tuple):
            n, k, s = lam
            lam = s * field_make(n, k).theta()
        certs += _tampered(erdos_construct(lam, targets, depth))
    expected = [json.dumps(erdos_verify(cert).to_jsonable()) for cert in certs]
    calls = [0]
    k_ranges = powermod._k_ranges

    def counting(*args):
        calls[0] += 1
        return k_ranges(*args)

    monkeypatch.setattr(powermod, "_window_floors", lambda *args: None)
    monkeypatch.setattr(powermod, "_k_ranges", counting)
    for cert, text in zip(certs, expected):
        calls[0] = 0
        assert json.dumps(erdos_verify(cert).to_jsonable()) == text
        # every n in [-1, guaranteed_depth] takes the exact floors
        assert calls[0] == cert.guaranteed_depth + 2


@pytest.mark.parametrize("lam_text", ["sqrt3", "(1+sqrt5)/2", "cbrt10", "5/2"])
def test_power_bounds_enclose_the_powers(lam_text):
    # directed products: q L_lo <= q lambda^n 2^p <= q L_hi exactly, at a
    # precision low enough for the rounding of every product to matter
    lam = {"sqrt3": field_make(3, 2).theta(),
           "(1+sqrt5)/2": (1 + field_make(5, 2).theta()) / 2,
           "cbrt10": field_make(10, 3).theta(),
           "5/2": QQ.rational(Fraction(5, 2))}[lam_text]
    q, p = 7, 64
    bounds = powermod._power_bounds(lam, q, 40, p)
    power = lam.desc.one()
    for lo, hi in bounds:
        assert lam.desc.rational(Fraction(lo, q << p)) <= power
        assert power <= lam.desc.rational(Fraction(hi, q << p))
        power = power * lam


def test_verify_enclosed_floors_are_the_exact_floors(monkeypatch):
    # every window of the golden certificates is decided by the enclosures
    # and gets the exact floor(Q x) and ceil(Q y)
    window_floors = powermod._window_floors
    decided = [0]
    desc = [None]

    def checked(x, y, q, bounds, j):
        floors = window_floors(x, y, q, bounds, j)
        assert floors is not None
        decided[0] += 1
        end = powermod._unreduced(desc[0], y)
        assert floors == (powermod._unreduced(desc[0], x).floor(q),
                          end.floor(q) + (not powermod._on_lattice(end, q)))
        return floors

    certs = []
    for lam, targets, depth in _GOLDEN_TASKS:
        if isinstance(lam, tuple):
            n, k, s = lam
            lam = s * field_make(n, k).theta()
        certs.append(erdos_construct(lam, targets, depth))
    monkeypatch.setattr(powermod, "_window_floors", checked)
    for cert in certs:
        desc[0] = cert.lam.desc
        decided[0] = 0
        assert erdos_verify(cert).certified
        assert decided[0] == cert.guaranteed_depth + 1


def test_reversed_and_nonpositive_verify_reports_golden():
    # final intervals that are not 0 < a < b: reversed to (b, a), negated
    # to (-b, -a), starting at 0, and I_0 reversed; their windows take the
    # exact floors at every n.  The hash was taken while every window of
    # every certificate took them
    h = hashlib.sha256()
    for lam, targets, depth in _GOLDEN_TASKS:
        if isinstance(lam, tuple):
            n, k, s = lam
            lam = s * field_make(n, k).theta()
        cert = erdos_construct(lam, targets, depth)
        a, b = cert.intervals[-1]
        a0, b0 = cert.intervals[0]
        for last in ((b, a), (-b, -a), (a - a, b), (b0, a0)):
            bad = dataclasses.replace(cert, intervals=cert.intervals[:-1] + (last,))
            h.update(json.dumps(erdos_verify(bad).to_jsonable(), sort_keys=True).encode())
    assert h.hexdigest() == \
        "8eb2a53d562c6c9542d2425a6f769ede2cb341aa5082c343b85952b8211ee497"
