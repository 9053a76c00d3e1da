"""Quasi-trigonometric polynomial algebra: exact combine, evaluation,
standard decomposition, component gcd, binomial divisibility."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen_instances import instance_batch
from refinable.errors import ZeroPolynomial
from refinable.exactreal import QQ, field_make
from refinable.qtrig import BinomialDivisionWitness, QTrigPoly, combine, geometric
from refinable.refinery import _prepare


@pytest.fixture(scope="module")
def F10():
    return field_make(10, 2)


@pytest.fixture(scope="module")
def counterexample_mask(F10):
    th = F10.theta()
    H = QTrigPoly.zero(F10)
    for i in range(5):
        H = H + QTrigPoly.monomial(F10, F10.rational(i), Fraction(1, 10))
        H = H + QTrigPoly.monomial(F10, F10.rational(i) + th / 2, Fraction(1, 10))
    return H


def test_combine_examples(F10):
    one_plus = QTrigPoly(F10, {F10.zero(): 1, F10.one(): 1})
    one_minus = QTrigPoly.binomial(F10, 1)
    prod = combine(one_plus, one_minus, "mul")
    assert prod == QTrigPoly(F10, {F10.zero(): 1, F10.rational(2): -1})

    th = F10.theta()
    G = geometric(F10, 5, 1)
    factor = QTrigPoly(F10, {F10.zero(): 1, 5 / th: 1})
    ten = G * factor
    assert len(ten) == 10
    exps = set(ten.terms)
    assert {F10.rational(t) for t in range(5)} <= exps
    assert {F10.rational(t) + 5 / th for t in range(5)} <= exps

    P = geometric(F10, 3, 1)
    assert (P + P.scale(Fraction(-1))).is_zero


def test_eval_examples(F10, counterexample_mask):
    B = QTrigPoly.binomial(F10, 1)
    b0 = B.eval_ball(0, 64)
    assert b0.mid() == 0 and b0.radius() < 1e-15
    b2 = B.eval_ball(Fraction(1, 2), 64)
    assert abs(b2.mid() - 2) < 1e-15
    h0 = counterexample_mask.eval_ball(0, 80)
    assert abs(h0.mid() - 1) < 1e-20
    # radius contract
    assert h0.radius() <= 2.0 ** (1 - 80) * 2


def test_eval_complex_point(F10):
    import cmath

    P = QTrigPoly(F10, {F10.zero(): 1, F10.one(): Fraction(1, 3)})
    w = 0.25 + 0.5j
    ball = P.eval_ball(w, 64)
    direct = 1 + cmath.exp(-2j * cmath.pi * w) / 3
    assert abs(ball.mid() - direct) < 1e-12


def test_standard_decomposition_examples(F10, counterexample_mask):
    P = QTrigPoly(F10, {F10.zero(): 1, F10.rational(2): 1})
    sd = P.standard_decomposition()
    assert len(sd.classes) == 1
    rep, poly = sd.classes[0]
    assert rep.is_zero and poly == (1, 0, 1)

    F2 = field_make(2, 2)
    th2 = F2.theta()
    P2 = QTrigPoly(F2, {F2.zero(): 1, th2: 1, th2 + 1: 1})
    sd2 = P2.standard_decomposition()
    assert len(sd2.classes) == 2
    assert sd2.classes[0][0].is_zero and sd2.classes[0][1] == (1,)
    assert sd2.classes[1][0] == th2 and sd2.classes[1][1] == (1, 1)

    sd3 = counterexample_mask.standard_decomposition()
    assert len(sd3.classes) == 2
    fifth = tuple(Fraction(1, 10) for _ in range(5))
    assert sd3.classes[0][1] == fifth and sd3.classes[1][1] == fifth
    assert sd3.classes[1][0] == F10.theta() / 2


def test_reassembly_random(F10):
    rng = random.Random(5)
    th = F10.theta()
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 8)):
            e = F10.rational(rng.randint(0, 4)) + th * Fraction(rng.randint(0, 3))
            terms[e] = terms.get(e, Fraction(0)) + Fraction(rng.randint(-4, 4))
        P = QTrigPoly(F10, terms)
        if P.is_zero:
            continue
        assert P.standard_decomposition().reassemble() == P


def test_component_gcd_examples(F10, counterexample_mask):
    F2 = field_make(2, 2)
    th2 = F2.theta()
    B = QTrigPoly.binomial(F2, 1)  # 1 - z
    P = B + B.shift(th2)
    g = P.component_gcd()
    assert g == QTrigPoly(F2, {F2.zero(): 1, F2.one(): -1})

    g2 = counterexample_mask.component_gcd()
    assert g2 == geometric(F10, 5, 1)

    # a single-class trigonometric polynomial is its own gcd (normalized)
    P3 = QTrigPoly(F10, {F10.zero(): 2, F10.one(): 2})
    assert P3.component_gcd() == QTrigPoly(F10, {F10.zero(): 1, F10.one(): 1})

    with pytest.raises(ZeroPolynomial):
        QTrigPoly.zero(F10).component_gcd()


def test_divide_binomial_examples(F10):
    th = F10.theta()
    P = QTrigPoly(F10, {F10.zero(): 1, F10.rational(2): -1})  # 1 - z^2
    q = P.divide_binomial(F10.one())
    assert q == QTrigPoly(F10, {F10.zero(): 1, F10.one(): 1})

    P2 = QTrigPoly(F10, {F10.zero(): 1, F10.one(): 1})  # 1 + z
    assert P2.divide_binomial(F10.one()) is None

    P3 = QTrigPoly.binomial(F10, th)  # 1 - E(sqrt(10))
    q3 = P3.divide_binomial(th / 2)
    assert q3 == QTrigPoly(F10, {F10.zero(): 1, th / 2: 1})


def test_divide_binomial_roundtrip_random(F10):
    rng = random.Random(9)
    th = F10.theta()
    for _ in range(30):
        m = F10.rational(rng.randint(1, 3)) + th * Fraction(rng.randint(0, 2))
        if m.is_zero:
            continue
        q_terms = {}
        for _ in range(rng.randint(1, 6)):
            e = F10.rational(rng.randint(0, 3)) + m * rng.randint(0, 3)
            q_terms[e] = Fraction(rng.randint(-3, 3))
        q = QTrigPoly(F10, q_terms)
        if q.is_zero:
            continue
        P = QTrigPoly.binomial(F10, m) * q
        got = P.divide_binomial(m)
        assert got is not None
        assert QTrigPoly.binomial(F10, m) * got == P


def _pairwise_divide(P, m):
    """Reference division: each term is tested against every class base
    by the exact ratio (d - base) / m, in first-seen order."""
    m_inv = m.inverse()
    classes = []
    for d, c in P.terms.items():
        for base, offsets in classes:
            t = (d - base) * m_inv
            if t.is_integer:
                offsets[t.as_integer()] = c
                break
        else:
            classes.append((d, {0: c}))
    out = {}
    for base, offsets in classes:
        total = sum(offsets.values(), Fraction(0))
        if total != 0:
            return BinomialDivisionWitness(base=base, divisor=m, class_sum=total,
                                           offsets=dict(sorted(offsets.items())))
        acc = Fraction(0)
        for t in range(min(offsets), max(offsets)):
            acc += offsets.get(t, Fraction(0))
            if acc != 0:
                out[base + m * t] = acc
    return QTrigPoly(P.desc, out)


def _assert_column_steps_match_reference(A, lam):
    """Every step of the mask construction's sequential division agrees
    with the reference: quotient terms in the same order, or the same
    witness."""
    lam_e, _, cols, _ = _prepare(A, lam)
    desc = lam_e.desc
    P = QTrigPoly.constant(desc)
    for m in cols:
        P = P * QTrigPoly.binomial(desc, lam_e * m)
    for m in cols:
        got = P._divide_binomial_classes(m)
        ref = _pairwise_divide(P, m)
        if isinstance(ref, BinomialDivisionWitness):
            assert isinstance(got, BinomialDivisionWitness)
            assert got.base.coeffs == ref.base.coeffs
            assert got.class_sum == ref.class_sum
            assert list(got.offsets.items()) == list(ref.offsets.items())
            return
        assert [(d.coeffs, c) for d, c in got.terms.items()] == \
            [(d.coeffs, c) for d, c in ref.terms.items()]
        P = got


@pytest.fixture(scope="module")
def batch_777():
    return instance_batch(200, 777)


@pytest.mark.parametrize("index", range(40))
def test_keyed_division_matches_pairwise_reference(batch_777, index):
    _assert_column_steps_match_reference(*batch_777[index])


def test_keyed_division_matches_pairwise_reference_on_the_slow_instance(F10):
    th = F10.theta()
    A = [F10.rational(Fraction(1, 3)), th * Fraction(8, 21),
         F10.rational(Fraction(5, 2)), th * Fraction(5, 2)]
    _assert_column_steps_match_reference(A, th)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_small, _small, st.integers(-3, 3).filter(bool)),
                min_size=1, max_size=6),
       _small, _small)
def test_divide_binomial_roundtrip_property(terms, m0, m1):
    F10 = field_make(10, 2)
    th = F10.theta()
    m = F10.rational(m0) + th * m1
    if m.is_zero:
        return
    P = QTrigPoly(F10, {F10.rational(a) + th * b: c for a, b, c in terms})
    assert (P * QTrigPoly.binomial(F10, m)).divide_binomial(m) == P


def test_geometric_examples(F10):
    assert geometric(F10, 2, 1) == QTrigPoly(F10, {F10.zero(): 1, F10.one(): 1})
    assert geometric(F10, 1, F10.theta()) == QTrigPoly.constant(F10)
    G5 = geometric(F10, 5, 1)
    assert [c for _, c in G5.items()] == [1] * 5


def test_geometric_law_random(F10):
    rng = random.Random(13)
    th = F10.theta()
    for _ in range(10):
        p = rng.randint(1, 100)
        m = F10.rational(Fraction(rng.randint(1, 5), rng.randint(1, 5))) + \
            th * Fraction(rng.randint(0, 2), rng.randint(1, 3))
        if m.is_zero:
            continue
        lhs = geometric(F10, p, m) * QTrigPoly.binomial(F10, m)
        assert lhs == QTrigPoly.binomial(F10, m * p)


def test_eval_product_containment(F10):
    rng = random.Random(17)
    th = F10.theta()
    P = QTrigPoly(F10, {F10.zero(): 1, th / 2: Fraction(2, 3)})
    Q = QTrigPoly(F10, {F10.one(): 1, th: Fraction(-1, 2)})
    PQ = P * Q
    for _ in range(10):
        w = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
        tight = PQ.eval_ball(w, 96)
        loose = P.eval_ball(w, 48) * Q.eval_ball(w, 48)
        # the tight enclosure of the product lies inside the product of
        # the loose enclosures
        assert float(loose.re.a) <= float(tight.re.a)
        assert float(tight.re.b) <= float(loose.re.b)
        assert float(loose.im.a) <= float(tight.im.a)
        assert float(tight.im.b) <= float(loose.im.b)


def test_to_text(F10):
    th = F10.theta()
    P = QTrigPoly(F10, {F10.zero(): Fraction(1, 10), th / 2: Fraction(-1, 2)})
    assert P.to_text() == "1/10*E(0) - 1/2*E(1/2*t)"
