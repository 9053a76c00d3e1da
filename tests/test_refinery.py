"""Decision procedures: masks, structure, oracles, probes, witnesses."""

import random
from fractions import Fraction

import numpy as np
import pytest

from gen_instances import instance_batch
from refinable.errors import InvalidLambda, RefinabilityError
from refinable.exactreal import QQ, field_make
from refinable.qtrig import QTrigPoly, geometric
from refinable.splinecore import BoxSplineSpec, MaskSpec, bspline_mask
from refinable.refinery import (
    ChainStructure,
    chain_structure,
    condition_B,
    counterexample_instance,
    coverage_oracle,
    decay_probe,
    decide_univariate,
    indecomposability_witness,
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
