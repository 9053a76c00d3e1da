"""Decision procedures: masks, structure, oracles, probes, witnesses."""

import hashlib
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gen_instances import instance_batch
from refinable import exactreal, polyq
from refinable.errors import InvalidLambda, RefinabilityError, RootIsolationFailure
from refinable.exactreal import QQ, field_make
from refinable.qtrig import QTrigPoly, geometric
from refinable.refinery import (
    BoxSplineSpec,
    ChainStructure,
    MaskSpec,
    _cyclotomic_poly,
    _log_ratio_ceil,
    _mask_division,
    _mask_identity,
    _orbit_abs_floor,
    _prepare,
    bspline_mask,
    chain_structure,
    condition_B,
    counterexample_instance,
    coverage_oracle,
    decay_probe,
    decide_univariate,
    indecomposability_witness,
    integer_dilation_box_mask,
    lawton_check,
    mask_construct,
    mask_construct_detailed,
    minimal_integer_power,
    multivariate_decide,
    verify_mask_identity,
)


@pytest.fixture(scope="module")
def F10():
    return field_make(10, 2)


@pytest.fixture(scope="module")
def counter(F10):
    return counterexample_instance()


# -- mask construction -------------------------------------------------------


def test_mask_counterexample(counter):
    desc, lam, A = counter
    mask = mask_construct(A, lam)
    th = desc.theta()
    assert len(mask.H) == 10
    assert set(mask.H.terms.values()) == {Fraction(1, 10)}
    expected = {desc.rational(t) for t in range(5)}
    expected |= {desc.rational(t) + th / 2 for t in range(5)}
    assert set(mask.H.terms) == expected
    # refinement coefficients c_j = lambda/10, sum lambda
    assert all(c == lam / 10 for c in mask.refinement_coefficients)


def _mv_template():
    """The first accepted s-variate template of the benchmark's
    ``mv_batch(40, 777)`` over a quadratic field: (field, columns, lambda)."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return next(inst for inst in gen.mv_batch(40, 777)[::2] if inst[0].k > 1)


def test_decision_does_no_per_term_field_arithmetic(counter, monkeypatch):
    # the division chain and the identity check run on lattice tuples:
    # the FieldElements they build (lambda^n, the lambda*m_j) grow with
    # the columns, not with the terms (the 64-term s = 2 mask took 1,282
    # in its division when exponents were field elements)
    _, lam, A = counter
    _, cols, mv_lam = _mv_template()
    built = 0
    init = exactreal.FieldElement.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    for A, lam in [(A, lam), ([tuple(c) for c in cols], mv_lam)]:
        lam_e, _, norm, _ = _prepare(A, lam)
        s = 1 if isinstance(norm[0], exactreal.FieldElement) else len(norm[0])
        monkeypatch.setattr(exactreal.FieldElement, "__init__", counting)
        built = 0
        H, _, _ = _mask_division(norm, lam_e)
        in_division = built
        built = 0
        assert _mask_identity(norm, lam_e, H)
        in_identity = built
        monkeypatch.setattr(exactreal.FieldElement, "__init__", init)
        assert len(H) >= 10
        assert in_division <= 4 * len(norm) * s and in_identity <= 4 * len(norm) * s


def test_mask_b0():
    mask = mask_construct([1], 2)
    assert mask.H == QTrigPoly(QQ, {QQ.rational(0): Fraction(1, 2),
                                    QQ.rational(1): Fraction(1, 2)})


def test_mask_rejection_with_witness():
    F2 = field_make(2, 2)
    mask, witness, _ = mask_construct_detailed([F2.one(), F2.one()], F2.theta())
    assert mask is None
    assert witness.inner.class_sum != 0
    assert "coefficient sum" in witness.describe()


def test_mask_negative_column_normalization(F10):
    th = F10.theta()
    rep = decide_univariate([F10.one(), -(th / 2)], th)
    assert rep.refinable
    assert rep.normalized_columns[1] == th / 2
    # shift = (lambda - 1) * |negated column|
    assert rep.translation_shift == (th - 1) * (th / 2)


def test_mask_identity_exact(counter):
    desc, lam, A = counter
    mask = mask_construct(A, lam)
    assert verify_mask_identity(A, lam, mask)
    # a tampered mask fails
    bad = MaskSpec(lam, geometric(desc, 10, Fraction(1, 2)).scale(Fraction(1, 10)))
    assert not verify_mask_identity(A, lam, bad)


def test_mask_identity_needs_the_instance_lambda(counter):
    # the identity is re-multiplied with the instance's lambda, so a mask
    # that names another dilation once verified
    mask = mask_construct([1, 1], 2)
    assert verify_mask_identity([1, 1], 2, mask)
    assert not verify_mask_identity([1, 1], 2, MaskSpec(QQ.rational(3), mask.H))
    desc, lam, A = counter
    mask = mask_construct(A, lam)
    assert not verify_mask_identity(A, lam, MaskSpec(lam + 1, mask.H))


def test_integer_lambda_with_irrational_column():
    # division decides any lambda > 1; integer dilation of an irrational
    # direction set is fine when each column self-covers
    F2 = field_make(2, 2)
    rep = decide_univariate([F2.one(), F2.theta()], F2.rational(2))
    assert rep.refinable


# -- structure ----------------------------------------------------------------


def test_condition_B_examples(counter):
    desc, lam, A = counter
    res = condition_B(A, lam)
    assert res.ok
    assert (res.successor(0).target, res.successor(0).p) == (1, 5)
    assert (res.successor(1).target, res.successor(1).p) == (0, 2)

    res2 = condition_B([1], 2)
    assert (res2.successor(0).target, res2.successor(0).p) == (0, 2)

    F2 = field_make(2, 2)
    res3 = condition_B([F2.one(), F2.one()], F2.theta())
    assert not res3.ok and 0 in res3.violations


def test_chain_structure_examples(counter, F10):
    desc, lam, A = counter
    th = F10.theta()
    cs = chain_structure(A, lam)
    assert cs.l == 2 and cs.k == 2
    assert sorted(cs.cycle_multipliers) == [2, 5]
    prod = cs.cycle_multipliers[0] * cs.cycle_multipliers[1]
    assert prod == 10
    assert cs.subvector[0] == 1 and cs.subvector[1] == 5 / th

    cs2 = chain_structure([F10.one(), th, F10.rational(3), 3 * th], th)
    assert cs2.partition == ((0, 1), (2, 3))
    assert cs2.k == 2

    cs3 = chain_structure([1], 2)
    assert cs3.l == 1 and cs3.k == 1 and cs3.cycle == (0,)


def test_chain_cycle_starts_where_the_walk_from_column_0_enters():
    # column 0 lies off the cycle; the walk 0 -> 2 -> 1 -> 2 enters it at 2
    F6 = field_make(6, 2)
    th = F6.theta()
    ch = chain_structure([F6.rational(Fraction(1, 2)), F6.one(), th], th)
    assert ch.successor == (2, 2, 1)
    assert ch.cycle == (2, 1)
    assert ch.cycles == ((1, 2),)

def test_chain_structure_requires_B(F10):
    F2 = field_make(2, 2)
    with pytest.raises(RefinabilityError):
        chain_structure([F2.one(), F2.one()], F2.theta())


def test_minimal_integer_power(F10):
    assert minimal_integer_power(F10.theta()) == 2
    assert minimal_integer_power(QQ.rational(3)) == 1
    assert minimal_integer_power(F10.theta() + 1) is None
    F8 = field_make(8, 2)  # theta = 2 sqrt(2): theta^2 = 8
    assert minimal_integer_power(F8.theta()) == 2


# -- lawton -------------------------------------------------------------------


def test_lawton_examples():
    r = lawton_check([1], 0, 2)
    assert r.refinable and r.quotient == (1, 1)
    r2 = lawton_check([1], 1, 2)
    assert r2.refinable and r2.quotient == (1, 2, 1)
    r3 = lawton_check([1, 0, 1], 0, 2)
    assert not r3.refinable and r3.remainder


def test_bspline_masks_keep_their_term_order():
    # decay bits depend on the order of H's terms; the B-spline masks are
    # the integer-dilation masks of unit directions, term for term
    h = hashlib.sha256()
    for degree in range(5):
        for m in range(2, 6):
            H = bspline_mask(degree, m).H
            unit = integer_dilation_box_mask(BoxSplineSpec.univariate(QQ, [1] * (degree + 1)), m)
            assert list(unit.H.num.items()) == list(H.num.items())
            h.update(repr((degree, m, list(H.num.items()), H.den, H.eden)).encode())
    assert h.hexdigest() == "c8e60973afe58344c2e9e058ae9b7b8c05a79eb4aee493935d354b3ea8a38ede"
    H = bspline_mask(2, 3).H
    assert list(H.num.items()) == [((0,), 1), ((1,), 3), ((2,), 6), ((3,), 7), ((4,), 6),
                                   ((5,), 3), ((6,), 1)] and H.den == 27


def test_lawton_bspline_family():
    for d in range(5):
        for m in (2, 3, 4):
            assert lawton_check([1], d, m).refinable


def test_lawton_random_rejections_with_numeric_check():
    rng = random.Random(23)
    rejected = 0
    tries = 0
    while rejected < 30 and tries < 2000:
        tries += 1
        K = rng.randint(1, 4)
        p = [rng.randint(-3, 3) for _ in range(K)] + [rng.randint(1, 3)]
        d = rng.randint(0, 2)
        m = rng.choice([2, 3])
        res = lawton_check(p, d, m)
        if res.refinable:
            continue
        rejected += 1
        # numeric cross-check: |Q(z^m) - q(z) Q(z)| = |r(z)| at a random z
        from refinable import polyq

        z = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        Q = res.Q
        Qm = polyq.pcompose_power(Q, m)
        quot, rem = polyq.pdivmod(Qm, Q)
        scale = max(abs(complex(c)) for c in Qm)
        assert abs(polyq.peval(rem, z)) >= 1e-12 * scale or \
            abs(polyq.peval(Qm, z) - polyq.peval(quot, z) * polyq.peval(Q, z)) \
            >= 1e-12 * scale
    assert rejected == 30


# -- coverage oracle -----------------------------------------------------------


def test_coverage_examples(counter):
    desc, lam, A = counter
    assert coverage_oracle(A, lam, 20).consistent
    F2 = field_make(2, 2)
    rep = coverage_oracle([F2.one(), F2.one()], F2.theta(), 5)
    assert not rep.consistent
    assert rep.uncovered["denominator_multiplicity"] == 2
    assert rep.uncovered["numerator_multiplicity"] == 0
    assert coverage_oracle([1], 3, 50).consistent


def test_division_coverage_agreement_sample():
    for A, lam in instance_batch(40, seed=101):
        mask = mask_construct(A, lam)
        k = minimal_integer_power(lam)
        lam_k_int = (lam ** k).as_integer() if k is not None else 12 ** 3
        bound = 20 * len(A) * lam_k_int
        rep = coverage_oracle(A, lam, bound)
        assert (mask is not None) == rep.consistent, (A, lam, rep.uncovered)


def _coverage_full_range(A, lam, bound):
    """Reference: the first uncovered (column, I) over every 1 <= I <= bound."""
    lam_e, _, cols, _ = _prepare(A, lam)
    for j, m in enumerate(cols):
        dens = [(o / m).den if (o / m).is_rational else None for o in cols]
        nums = [(lam_e * o / m).den if (lam_e * o / m).is_rational else None
                for o in cols]
        for I in range(1, bound + 1):
            den_mult = sum(1 for q in dens if q is not None and I % q == 0)
            num_mult = sum(1 for q in nums if q is not None and I % q == 0)
            if num_mult < den_mult:
                return j, I, den_mult, num_mult
    return None


def _coverage_period_scan(A, lam, bound):
    """Reference: the first uncovered (column, I) over 1 <= I <= min(bound,
    L), L the lcm of the column's denominators, every I tested."""
    lam_e, _, cols, _ = _prepare(A, lam)
    for j, m in enumerate(cols):
        dens = [(o / m).den if (o / m).is_rational else None for o in cols]
        nums = [(lam_e * o / m).den if (lam_e * o / m).is_rational else None
                for o in cols]
        period = math.lcm(*(q for q in dens if q is not None))
        for I in range(1, min(bound, period) + 1):
            den_mult = sum(1 for q in dens if q is not None and I % q == 0)
            num_mult = sum(1 for q in nums if q is not None and I % q == 0)
            if num_mult < den_mult:
                return j, I, den_mult, num_mult
    return None


def _uncovered(rep):
    return None if rep.consistent else tuple(
        rep.uncovered[key] for key in ("column", "I", "denominator_multiplicity",
                                       "numerator_multiplicity"))


_COVERAGE_FIELDS = [QQ, field_make(2, 2), field_make(10, 2), field_make(5, 3)]


@st.composite
def _coverage_instances(draw):
    """Columns r_i * b and r_i * t / lambda * b (b a field element, r_i
    rationals with small denominators, so the lcm L has many divisors, t
    a small rational), a rational or field dilation lambda > 1 and a
    bound below or above L.  The columns over lambda cover the zeros of
    the others at small I, so many first failures come at I > 1."""
    desc = draw(st.sampled_from(_COVERAGE_FIELDS))
    b = desc.element([draw(st.integers(-6, 6)) for _ in range(desc.k)])
    assume(b)
    lam = draw(st.one_of(
        st.integers(2, 6),
        st.fractions(min_value=Fraction(7, 6), max_value=6, max_denominator=6),
        st.just(desc.theta() if desc.k > 1 else 3),
        st.integers(1, 3).map(lambda a: a + desc.theta() if desc.k > 1 else a + 1)))
    assume(lam > 1)
    ratios = draw(st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=12)
                           .filter(bool), min_size=1, max_size=4))
    A = [r * b for r in ratios]
    A += [r * t * b / lam for r, t in draw(st.lists(st.tuples(
        st.sampled_from(ratios), st.sampled_from([1, 2, 3, Fraction(1, 2)])), max_size=4))]
    return A, lam, draw(st.integers(1, 30_000))


@settings(max_examples=300, deadline=None)
@given(_coverage_instances())
def test_coverage_divisor_scan_equals_the_period_scan(instance):
    A, lam, bound = instance
    assert _uncovered(coverage_oracle(A, lam, bound)) == _coverage_period_scan(A, lam, bound)


@pytest.mark.parametrize("seed", [777, 101, 515])
def test_coverage_scan_stops_at_the_period(seed):
    # the scan over the divisors of the lcm of each column's denominators
    # finds the same first uncovered point as the scan over the whole bound
    for A, lam in instance_batch(200, seed=seed):
        k = minimal_integer_power(lam)
        bound = 20 * len(A) * (lam ** k).as_integer()
        want = _coverage_full_range(A, lam, bound)
        assert _uncovered(coverage_oracle(A, lam, bound)) == want, (A, lam)


# -- multivariate ----------------------------------------------------------------


def test_multivariate_accepts_product_instance(F10):
    th = F10.theta()
    spec = BoxSplineSpec(F10, [[1, 0], [0, 1], [th / 2, 0], [0, th / 2]])
    rep = multivariate_decide(spec, th)
    assert rep.refinable and rep.identity_checked
    assert rep.chains.cycles == ((0, 2), (1, 3))
    uni = mask_construct([F10.one(), th / 2], th)
    assert rep.mask.H.substitute((1, 0)) == uni.H
    assert rep.mask.H.substitute((0, 1)) == uni.H
    assert len(rep.mask.H.terms) == 100


def test_multivariate_rejects_perturbed(F10):
    th = F10.theta()
    spec = BoxSplineSpec(F10, [[1, 0], [0, 1], [th / 2, 0],
                               [0, Fraction(1, 7)]])
    rep = multivariate_decide(spec, th)
    assert not rep.refinable and rep.witness is not None


def test_multivariate_block_product_rule(F10):
    # block-diagonal columns accept iff each univariate block accepts
    th = F10.theta()
    good = BoxSplineSpec(F10, [[1, 0], [th / 2, 0], [0, 3], [0, 3 * th / 2]])
    assert multivariate_decide(good, th).refinable
    bad = BoxSplineSpec(F10, [[1, 0], [th / 2, 0], [0, 3], [0, 1]])
    assert not multivariate_decide(bad, th).refinable


@pytest.mark.parametrize("second", [Fraction(1, 2), 1])
def test_multivariate_chains_match_univariate_blocks(F10, second):
    # block-diagonal columns: the s-variate relation search and chain walk
    # see each block as its univariate instance, with indices shifted
    th = F10.theta()
    blocks = [[F10.one(), second * th], [F10.rational(3), 3 * second * th]]
    spec = BoxSplineSpec(F10, [[1, 0], [second * th, 0],
                               [0, 3], [0, 3 * second * th]])
    rep = multivariate_decide(spec, th)
    assert rep.refinable
    uni = [chain_structure(b, th) for b in blocks]
    assert rep.chains.cycles == tuple(
        tuple(i + 2 * b for i in c) for b in (0, 1) for c in uni[b].cycles)
    assert rep.chains.cycle_multipliers == uni[0].cycle_multipliers
    # the cycle reached from the first column of the second block
    swapped = chain_structure(spec.columns[2:] + spec.columns[:2], th)
    assert swapped.cycle_multipliers == uni[1].cycle_multipliers
    if uni[0].partition is None or uni[1].partition is None:
        assert rep.chains.partition is None
    else:
        assert rep.chains.partition == tuple(
            tuple(i + 2 * b for i in c) for b in (0, 1) for c in uni[b].partition)
    assert rep.condition_flags["B"] == all(condition_B(b, th).ok for b in blocks)


def test_multivariate_condition_B_matches_univariate_blocks(F10):
    th = F10.theta()
    spec = BoxSplineSpec(F10, [[1, 0], [th / 2, 0], [0, 3], [0, 1]])
    rep = multivariate_decide(spec, th)
    assert not condition_B([F10.rational(3), F10.one()], th).ok
    assert rep.condition_flags["B"] is False
    assert condition_B(spec.columns, th).violations == (2, 3)


def test_multivariate_integer_dilation_of_a_rational_matrix():
    # integer lambda, non-integer matrix: decided by the general division
    spec = BoxSplineSpec(QQ, [[Fraction(1, 2), 0], [0, 1]])
    rep = multivariate_decide(spec, 2)
    assert rep.refinable and rep.identity_checked


def test_multivariate_integer_delegation():
    spec = BoxSplineSpec(QQ, [[1, 0], [0, 1], [1, 1]])
    rep = multivariate_decide(spec, 2)
    assert rep.refinable and len(rep.mask.terms) == 7


def test_multivariate_sqrt2_rejection():
    F2 = field_make(2, 2)
    spec = BoxSplineSpec(F2, [[1, 0], [0, 1]])
    rep = multivariate_decide(spec, F2.theta())
    assert not rep.refinable
    assert not rep.condition_flags["B"]


def _unimodular_block_product(rng, accepted):
    """A chain (r e_i, r lambda e_i) per unit vector e_i under lambda =
    sqrt(n), broken unless ``accepted``, then mapped by a unimodular
    integer matrix so that the lead coordinate of a column is not
    always the first."""
    s = rng.choice([2, 2, 3])
    desc = field_make(rng.choice([2, 3] if s == 3 else [2, 3, 5]), 2)
    lam = desc.theta()
    cols = []
    for i in range(s):
        r = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        e = [desc.rational(int(i == j)) for j in range(s)]
        cols += [[x * r for x in e], [x * r * lam for x in e]]
    if not accepted:
        how = rng.randint(0, 2)
        if how == 0:
            cols[rng.randrange(len(cols))] = [x * Fraction(8, 7) for x in cols[0]]
        elif how == 1:
            cols = cols[:-1]
        else:
            cols.append([x * (1 + lam) / 3 for x in rng.choice(cols)])
    U = [[int(i == j) for j in range(s)] for i in range(s)]
    for _ in range(2):
        i, j = rng.sample(range(s), 2)
        t = rng.choice([-1, 1, 2])
        U[i] = [a + t * b for a, b in zip(U[i], U[j])]
    cols = [[sum((u * x for u, x in zip(row, col)), desc.zero()) for row in U]
            for col in cols]
    return BoxSplineSpec(desc, cols), lam


def test_multivariate_reports_golden():
    # s = 2 and s = 3 reports pinned byte for byte: seeded unimodular
    # images of block products, two instances whose slices all divide but
    # whose s-variate division fails, an integer dilation of a rational
    # matrix and the integer delegation
    rng = random.Random(5)
    cases = [_unimodular_block_product(rng, i % 2 == 0) for i in range(12)]
    F2 = field_make(2, 2)
    th = F2.theta()
    for cols in ([[th, th / 2], [2 * th, 2 * th], [2, -2], [1, -1]],
                 [[th / 2, -th / 2], [Fraction(1, 2), Fraction(-1, 2)], [th, 0], [2, 4]]):
        cases.append((BoxSplineSpec(F2, cols), th))
    cases.append((BoxSplineSpec(QQ, [[Fraction(1, 2), 0, 0], [0, 1, 0], [1, 1, 1]]), 2))
    cases.append((BoxSplineSpec(QQ, [[1, 0], [0, 1], [1, 1]]), 2))
    reports = [multivariate_decide(spec, lam).to_jsonable() for spec, lam in cases]
    notes = [r["notes"][0] for r in reports]
    assert sum("slices succeeded" in n for n in notes) == 2
    assert sum("is not refinable" in n for n in notes) == 6
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "4f6a80a84a22768f83728b46c3711cc611b2b97603d728415e17698f4c3a54c1"


# -- decay probe -----------------------------------------------------------------


def test_decay_b0():
    rep = decay_probe(bspline_mask(0, 2), J=60)
    assert rep.D0 == 1 and rep.targets == (Fraction(1, 2),)
    assert rep.epsilon0 > 0
    assert rep.obstruction_k >= 0
    assert rep.certificate.guaranteed_depth >= 60


def test_decay_constant_mask():
    rep = decay_probe(MaskSpec(QQ.rational(2), QTrigPoly.constant(QQ)), J=5)
    assert rep.epsilon0 == 1.0 and rep.obstruction_k == 0 and not rep.targets


def test_obstruction_k_is_the_least_exact_power():
    # the least k >= 0 with lambda^k * eps0 >= 1, also one ulp below a
    # power of 1/lambda, where float logs land on the wrong side
    two = QQ.rational(2)
    assert _log_ratio_ceil(2.0 ** -10, two) == 10
    assert _log_ratio_ceil(2.0 ** -10 * (1 - 2.0 ** -52), two) == 11
    assert _log_ratio_ceil(1.0, two) == 0 and _log_ratio_ceil(3.5, two) == 0
    sqrt2 = field_make(2, 2).theta()
    assert _log_ratio_ceil(2.0 ** -5, sqrt2) == 10  # sqrt(2)^10 = 32
    assert _log_ratio_ceil(2.0 ** -5 * (1 - 2.0 ** -52), sqrt2) == 11
    assert _log_ratio_ceil(0.01, field_make(5, 2).theta()) == 6  # 5^2.5 < 100 <= 5^3
    with pytest.raises(RootIsolationFailure):
        _log_ratio_ceil(0.0, two)


def test_decay_b3_multiplicity():
    rep = decay_probe(bspline_mask(3, 2), J=40)
    assert rep.targets == (Fraction(1, 2),)
    assert rep.epsilon0 > 0


def test_decay_non_cyclotomic_roots():
    import math

    H = QTrigPoly(QQ, {QQ.rational(0): 2, QQ.rational(1): -3, QQ.rational(2): 2})
    rep = decay_probe(MaskSpec(QQ.rational(2), H), J=25)
    assert len(rep.roots) == 2 and not rep.roots[0].exact
    u = math.acos(0.75) / (2 * math.pi)
    assert float(rep.roots[0].value) == pytest.approx(u, abs=1e-7)
    assert float(rep.roots[1].value) == pytest.approx(1 - u, abs=1e-7)
    assert rep.epsilon0 > 0


def test_decay_rejects_irrational_translations(F10):
    from refinable.errors import NonRationalTranslations

    mask = mask_construct([F10.one(), F10.theta() / 2], F10.theta())
    with pytest.raises(NonRationalTranslations):
        decay_probe(mask, J=5)


def test_decay_fractional_translations():
    # translations with denominator 3: D0 = 3
    H = geometric(QQ, 2, Fraction(1, 3)).scale(Fraction(1, 2))
    mask = MaskSpec(QQ.rational(2), H)
    rep = decay_probe(mask, J=30)
    assert rep.D0 == 3
    assert rep.targets == (Fraction(1, 2),)  # root at w = 3/2, mod 1
    assert rep.epsilon0 > 0


def test_decay_targets_keep_one_copy_of_each_exact_residue():
    # D0 = 2: the exact roots 1/2 and 3/2 of H share the residue 1/2
    rep = decay_probe(decide_univariate([Fraction(1, 2), 1], 2).mask, J=8)
    exact = [r.value % 1 for r in rep.roots if r.exact]
    assert len(exact) > len(set(exact))
    assert sorted(rep.targets) == sorted(set(exact))

def test_cyclotomic_polys():
    # deg Phi_n = phi(n) and prod_{d | n} Phi_d = z^n - 1
    cache = {}
    for n in range(1, 61):
        phi_n = _cyclotomic_poly(n, cache)
        assert polyq.pdeg(phi_n) == sum(1 for l in range(n) if math.gcd(l, n) == 1)
        prod = (Fraction(1),)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = polyq.pmul(prod, _cyclotomic_poly(d, cache))
        assert prod == polyq.pnorm([-1] + [0] * (n - 1) + [1])


def _palindromic_factor(a, b, den):
    return QTrigPoly(QQ, {QQ.rational(e): Fraction(c, den) for e, c in enumerate((a, b, a))})


def test_decay_reports_golden():
    # B-spline masks alone and times one self-reciprocal quadratic factor,
    # shifted by z^-1, 1 and z: the reports are pinned byte for byte
    reports = []
    for degree in range(4):
        for m in range(2, 5):
            base = bspline_mask(degree, m)
            for H in (base.H, base.H * _palindromic_factor(2, 1, 5),
                      base.H * _palindromic_factor(3, -2, 4)):
                for shift in (-1, 0, 1):
                    rep = decay_probe(MaskSpec(base.lam, H.shift(shift)), J=20)
                    reports.append(rep.to_jsonable())
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "5af1d54fc0b9151339b54fe972ab91d504794b507a68bee18441ee67dbb08603"


def _enclosed_floor(mask, xi0, D0, J, prec=64):
    """The orbit floor from an enclosure at every orbit point: the
    reference for the screened ``_orbit_abs_floor``."""
    floor = None
    x = xi0
    for _ in range(J):
        arg = x - D0 * (x / D0).floor()
        wp = prec
        while True:
            low = mask.H.eval_ball(arg, wp).abs_lower()
            if low > 0 or wp > prec + 4096:
                break
            wp *= 2
        if low <= 0:
            return 0.0
        floor = low if floor is None else min(floor, low)
        x = x * mask.lam
    return float(floor)


def _period(mask):
    return math.lcm(*[d.as_fraction().denominator for d in mask.translations])


def _counting_eval_ball(monkeypatch):
    calls = [0]
    eval_ball = QTrigPoly.eval_ball

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return eval_ball(self, *args, **kwargs)

    monkeypatch.setattr(QTrigPoly, "eval_ball", counting)
    return calls


def test_orbit_floor_matches_enclosing_every_point():
    # the masks and orbits of test_decay_reports_golden, bit for bit
    for degree in range(4):
        for m in range(2, 5):
            base = bspline_mask(degree, m)
            for H in (base.H, base.H * _palindromic_factor(2, 1, 5),
                      base.H * _palindromic_factor(3, -2, 4)):
                for shift in (-1, 0, 1):
                    mask = MaskSpec(base.lam, H.shift(shift))
                    rep = decay_probe(mask, J=20)
                    xi0 = rep.certificate.xi if rep.targets else QQ.one()
                    # the period of the roots is the exponent denominator
                    assert rep.D0 == mask.H.eden == _period(mask)
                    assert (_orbit_abs_floor(mask, xi0, 20, 64)
                            == _enclosed_floor(mask, xi0, rep.D0, 20)
                            == rep.epsilon0)


@settings(max_examples=40, deadline=None)
@given(degree=st.integers(0, 3), m=st.integers(2, 4),
       factor=st.sampled_from([None, (2, 1, 5), (3, -2, 4), (1, 2, 4), (5, -3, 7)]),
       shift=st.integers(-2, 2), p=st.integers(0, 60), q=st.integers(1, 60),
       J=st.integers(1, 40), prec=st.sampled_from([64, 64, 64, 8, 1]))
@example(degree=0, m=2, factor=None, shift=0, p=1, q=2, J=3, prec=64)  # H(1/2) = 0
def test_orbit_floor_property(degree, m, factor, shift, p, q, J, prec):
    # any rational xi0, on or off a zero of H: the same float as
    # enclosing every point, 0.0 included
    base = bspline_mask(degree, m)
    H = base.H if factor is None else base.H * _palindromic_factor(*factor)
    mask = MaskSpec(base.lam, H.shift(shift))
    xi0, D0 = QQ.rational(Fraction(p, q)), _period(mask)
    assert _orbit_abs_floor(mask, xi0, J, prec) == _enclosed_floor(mask, xi0, D0, J, prec)


def test_orbit_floor_ties_and_irrational_orbits(monkeypatch):
    calls = _counting_eval_ball(monkeypatch)
    # lambda = 2, xi0 = 1/5: the orbit 1/5, 2/5, 4/5, 3/5 pairs conjugate
    # points, |H(1/5)| = |H(4/5)| and |H(2/5)| = |H(3/5)|; both points of
    # the lower pair tie within delta and are enclosed
    H = QTrigPoly(QQ, {QQ.rational(e): Fraction(c, 10) for e, c in enumerate((4, 3, 2, 1))})
    mask = MaskSpec(QQ.rational(2), H)
    xi0 = QQ.rational(Fraction(1, 5))
    got = _orbit_abs_floor(mask, xi0, 4, 64)
    assert calls[0] == 2
    assert got == _enclosed_floor(mask, xi0, 1, 4)
    # lambda = 1 + sqrt 2: irrational arguments are not screened, so
    # every orbit point is enclosed
    F = field_make(2, 2)
    H = QTrigPoly(F, {F.rational(Fraction(e, 2)): Fraction(c, 11)
                      for e, c in enumerate((3, 1, 2, 5))})
    mask = MaskSpec(F.theta() + 1, H)
    xi0 = F.theta() / 7 + Fraction(1, 3)
    calls[0] = 0
    got = _orbit_abs_floor(mask, xi0, 40, 64)
    assert calls[0] == 40
    assert got == _enclosed_floor(mask, xi0, 2, 40)


def test_decay_probe_encloses_few_orbit_points(monkeypatch):
    # one J = 100 probe: the screen leaves a handful of the 100 points to
    # eval_ball (enclosing every point made 100 calls)
    calls = _counting_eval_ball(monkeypatch)
    mask = MaskSpec(QQ.rational(3), bspline_mask(2, 3).H * _palindromic_factor(3, -2, 4))
    rep = decay_probe(mask, J=100)
    assert rep.epsilon0 > 0
    assert calls[0] <= 10


def test_decay_probe_rejects_prec_below_1():
    # wp *= 2 never leaves 0 (and shrinks below it): the floor loop hung
    for prec in (0, -5):
        with pytest.raises(ValueError, match="prec must be >= 1"):
            decay_probe(bspline_mask(0, 2), J=5, prec=prec)


@pytest.mark.parametrize("extra", [(1,), (3, 1), (2, -5, 2)])
def test_decay_two_self_reciprocal_factors(extra):
    # (2z^2 + 3z + 2)(4z^2 + 7z + 4): y = z + 1/z is -3/2 or -7/4, so the
    # zeros are u and 1 - u with u = acos(y/2) / (2 pi); the extra factor
    # has no unit-circle roots (3 + z is not self-reciprocal, the roots
    # 2 and 1/2 of 2 - 5z + 2z^2 map to y = 5/2)
    H = _palindromic_factor(2, 3, 7) * _palindromic_factor(4, 7, 15) * QTrigPoly(
        QQ, {QQ.rational(e): Fraction(c, sum(extra)) for e, c in enumerate(extra)})
    rep = decay_probe(MaskSpec(QQ.rational(2), H), J=25)
    assert rep.D0 == 1 and len(rep.roots) == 4
    assert all(r.order_hint == "algebraic" and not r.exact for r in rep.roots)
    with mpmath.workprec(200):
        zeros = []
        for y in (Fraction(-3, 2), Fraction(-7, 4)):
            u = mpmath.acos(mpmath.mpf(y.numerator) / y.denominator / 2) / (2 * mpmath.pi)
            zeros += [u, 1 - u]
        zeros.sort()
        for r, w in zip(rep.roots, zeros):
            lo, hi = r.value - r.delta, r.value + r.delta
            assert mpmath.mpf(lo.numerator) / lo.denominator <= w
            assert w <= mpmath.mpf(hi.numerator) / hi.denominator
    assert rep.epsilon0 > 0


def test_decay_probe_does_not_import_sympy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys\n"
            "from fractions import Fraction\n"
            "from refinable.exactreal import QQ\n"
            "from refinable.qtrig import QTrigPoly\n"
            "from refinable.refinery import MaskSpec, decay_probe\n"
            "H = QTrigPoly(QQ, {QQ.rational(e): Fraction(c) for e, c in enumerate((2, -3, 2))})\n"
            "rep = decay_probe(MaskSpec(QQ.rational(2), H), J=10)\n"
            "assert rep.roots and not rep.roots[0].exact\n"
            "print('sympy' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# -- indecomposability ------------------------------------------------------------


def test_indecomposability_witness_all_pairs():
    wits = indecomposability_witness(20, 20)
    assert len(wits) == 400
    assert all(w.valid for w in wits)
    by = {(w.P1, w.P2): w for w in wits}
    assert by[(1, 1)].w0 == 1
    assert by[(3, 2)].w0 == 6  # w0 = 3 lies in the scaled lattice (5*3 = 2*7+1)
    assert all(w.image_covering_binomial_zero for w in wits)


# -- random instances end to end ---------------------------------------------------


def test_random_instances_identity_and_structure():
    accepted = rejected = 0
    for A, lam in instance_batch(30, seed=202):
        rep = decide_univariate(A, lam)
        if rep.refinable:
            accepted += 1
            assert rep.identity_checked
            assert rep.mask.H.coefficient_sum() == 1
            d = rep.mask.translations
            assert d[0].is_zero
            assert all(x.sign() >= 0 for x in d)
            if rep.chains is not None:
                prod = 1
                for p in rep.chains.cycle_multipliers:
                    prod *= p
                assert (lam if hasattr(lam, 'desc') else QQ.rational(lam)) ** rep.chains.l == prod
        else:
            rejected += 1
            assert rep.witness is not None
    assert accepted and rejected


def test_decide_univariate_reports_golden():
    # every fourth dilation is shifted by 1/2, so that no power of it is an
    # integer (condition A fails); the mix holds accepted instances and
    # rejected ones with and without condition B
    h = hashlib.sha256()
    kinds = set()
    for i, (A, lam) in enumerate(instance_batch(80, seed=515)):
        if i % 4 == 3:
            lam = lam + Fraction(1, 2)
        rep = decide_univariate(A, lam).to_jsonable()
        flags = rep["condition_flags"]
        kinds.add((rep["verdict"], flags["A"], flags["B"]))
        h.update(json.dumps(rep, sort_keys=True).encode())
    assert kinds == {("refinable", True, True), ("not_refinable", True, False),
                     ("not_refinable", False, False)}
    assert h.hexdigest() == \
        "02a0851b2acb1c9555daa6a051a394aae02fe72f111cd7010a68fcf293e6cf04"


def test_decide_univariate_prepares_once(monkeypatch):
    import refinable.refinery as refinery

    calls = {"_prepare": 0, "_column_relations": 0}
    for name in calls:
        original = getattr(refinery, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(refinery, name, counting)
    for A, lam in instance_batch(12, seed=202):
        for name in calls:
            calls[name] = 0
        decide_univariate(A, lam)
        assert calls == {"_prepare": 1, "_column_relations": 1}, (A, lam)
