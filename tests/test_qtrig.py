"""Quasi-trigonometric polynomial algebra: exact ring operations, evaluation,
binomial divisibility."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv

from fraction_qtrig import RefPoly
from gen_instances import instance_batch
from iv_reference import IvBall, eval_ball_uncached, iv_ball, iv_fraction, iv_prec
from refinable import enclosure
from refinable.enclosure import _two_pi, _unit_exponential_mpi
from refinable.errors import DescriptorMismatch, ZeroPolynomial
from refinable.exactreal import QQ, FieldElement, field_make
from refinable.qtrig import BinomialDivisionWitness, ExponentVector, QTrigPoly, geometric
from refinable.refinery import _prepare


@pytest.fixture(scope="module")
def F10():
    return field_make(10, 2)


@pytest.fixture(scope="module")
def counterexample_mask(F10):
    th = F10.theta()
    H = QTrigPoly.zero(F10)
    for i in range(5):
        H = H + QTrigPoly(F10, {F10.rational(i): Fraction(1, 10)})
        H = H + QTrigPoly(F10, {F10.rational(i) + th / 2: Fraction(1, 10)})
    return H


def test_combine_examples(F10):
    one_plus = QTrigPoly(F10, {F10.zero(): 1, F10.one(): 1})
    one_minus = QTrigPoly.binomial(F10, 1)
    prod = one_plus * one_minus
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


def test_library_results_are_in_normal_form(F10):
    # sums, products, negation, scaling, shifts and quotients skip the
    # checking constructor; they must equal its output, term order included
    rng = random.Random(5)
    th = F10.theta()

    def rand_poly():
        return QTrigPoly(F10, {F10.rational(rng.randint(0, 4)) + th * rng.randint(0, 2) / 2:
                               Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                               for _ in range(rng.randint(1, 6))})

    for _ in range(40):
        P, Q = rand_poly(), rand_poly()
        results = [P + Q, P - P, P * Q, -P, P.scale(Fraction(-2, 3)), P.scale(0),
                   P.shift(th / 3), P.shift(Fraction(1, 2))]
        quotient = (P * QTrigPoly.binomial(F10, th)).divide_binomial(th)
        assert quotient == P
        for R in results + [quotient]:
            ref = QTrigPoly(F10, R.terms)
            assert list(R.terms.items()) == list(ref.terms.items())
            assert all(type(c) is Fraction and c != 0 for c in R.terms.values())
    assert (P - P).is_zero and P.scale(0).is_zero


def test_foreign_exponents_still_rejected(F10):
    with pytest.raises(DescriptorMismatch):
        QTrigPoly.constant(QQ).shift(F10.theta())
    with pytest.raises(DescriptorMismatch):
        QTrigPoly.binomial(QQ, 1).divide_binomial(F10.one())
    with pytest.raises(DescriptorMismatch):
        QTrigPoly.constant(F10).shift(field_make(2, 2).theta())


def test_exponents_of_the_rational_field_lift(F10):
    # an exponent typed as an element of Q enters Q(sqrt 10) as an int
    # does, in every constructor and in shift alike
    one, half = QQ.one(), QQ.rational(Fraction(1, 2))
    assert QTrigPoly.binomial(F10, one) == QTrigPoly.binomial(F10, 1)
    assert geometric(F10, 2, one) == geometric(F10, 2, 1)
    assert QTrigPoly(F10, {one: 1, half: 2}) == QTrigPoly(F10, {1: 1, Fraction(1, 2): 2})
    assert QTrigPoly.constant(F10).shift(one) == QTrigPoly.constant(F10).shift(1)
    assert (QTrigPoly.binomial(F10, (one, half))
            == QTrigPoly.binomial(F10, (1, Fraction(1, 2))))
    P = QTrigPoly.binomial(F10, 2)
    assert P.divide_binomial(one) == P.divide_binomial(1)


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
        ref = RefPoly(desc, P.terms).divide_binomial(m)
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


def test_rational_exponents(F10):
    # n / eden and c / den give back each exponent component and coefficient
    half, third = F10.rational(Fraction(1, 2)), F10.rational(Fraction(1, 3))
    P = QTrigPoly(F10, {half: Fraction(2, 3), third: 5})
    assert [(tuple(Fraction(x, P.eden) for x in n), Fraction(c, P.den))
            for n, c in P.rational_exponents()] == \
        [((d.as_fraction(),), c) for d, c in P.terms.items()]
    V = QTrigPoly(F10, {ExponentVector([half, F10.one()]): 1,
                        ExponentVector([third, F10.zero()]): -2})
    assert [(n, c) for n, c in V.rational_exponents()] == [((3, 6), 1), ((2, 0), -2)]
    assert V.eden == 6 and V.den == 1
    Q = QTrigPoly(QQ, {QQ.rational(Fraction(3, 4)): 1})
    assert Q.rational_exponents() == [((3,), 1)]
    with pytest.raises(ValueError, match="not rational"):
        (P + QTrigPoly(F10, {F10.theta(): 1})).rational_exponents()


def test_eval_product_containment(F10):
    rng = random.Random(17)
    th = F10.theta()
    P = QTrigPoly(F10, {F10.zero(): 1, th / 2: Fraction(2, 3)})
    Q = QTrigPoly(F10, {F10.one(): 1, th: Fraction(-1, 2)})
    PQ = P * Q
    for _ in range(10):
        w = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
        tight = IvBall.of(PQ.eval_ball(w, 96))
        loose = IvBall.of(P.eval_ball(w, 48)) * IvBall.of(Q.eval_ball(w, 48))
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


@pytest.mark.parametrize("prec", [53, 80, 200, 1000])
def test_unit_exponential_matches_interval_cos_and_sin(prec):
    # the reference: 2 * iv.pi * x, then separate iv.cos and iv.sin, bit
    # for bit
    rng = random.Random(prec)
    with iv_prec(prec):
        assert _two_pi(prec) == (2 * iv.pi)._mpi_
        for _ in range(200):
            a = rng.uniform(-50, 50)
            x = iv.mpf([a, a + rng.choice([0, 1e-9, 0.3, 2.0])])
            ang = 2 * iv.pi * x
            re, im = _unit_exponential_mpi(_two_pi(prec), x._mpi_, prec)
            assert re == iv.cos(ang)._mpi_
            assert im == (-iv.sin(ang))._mpi_


def _endpoints(ball):
    """(re, im) raw intervals of a library ball or of an ``IvBall``."""
    if isinstance(ball, IvBall):
        return ball.endpoints()
    return ball.re, ball.im


def test_eval_ball_cache_is_bit_identical(F10, counterexample_mask):
    th = F10.theta()
    # rational and irrational points, a point 10^20 periods out (the
    # first working precision is too short there and escalates) and a
    # float
    points = [Fraction(3, 7), th / 3 + 5, 10 ** 20 * th + Fraction(1, 3), -0.3]
    warm = QTrigPoly(F10, counterexample_mask.terms)
    for w in (Fraction(1, 9), th, 0.1):
        for prec in (40, 64, 200):
            warm.eval_ball(w, prec)
    for w in points:
        for prec in (48, 64, 120):
            want = _endpoints(eval_ball_uncached(counterexample_mask, w, prec))
            fresh = QTrigPoly(F10, counterexample_mask.terms)
            assert _endpoints(fresh.eval_ball(w, prec)) == want
            assert _endpoints(warm.eval_ball(w, prec)) == want
    escalated = QTrigPoly(F10, counterexample_mask.terms)
    escalated.eval_ball(points[2], 64)
    assert len(escalated._ball_cache) > 1


def test_eval_ball_same_for_every_way_of_building(F10, counterexample_mask):
    P = counterexample_mask
    built = [
        QTrigPoly(F10, P.terms),
        P * QTrigPoly.constant(F10),
        P.shift(0),
        P.scale(1),
    ]
    assert all(Q.terms == P.terms and list(Q.terms) == list(P.terms) for Q in built)
    for w in (Fraction(2, 5), F10.theta() / 7, 0.25):
        want = _endpoints(eval_ball_uncached(P, w, 64))
        for Q in built:
            assert _endpoints(Q.eval_ball(w, 64)) == want


def test_eval_ball_cache_stays_empty_until_evaluated(F10):
    th = F10.theta()
    P = QTrigPoly(F10, {F10.zero(): 1, th / 2: Fraction(2, 3)})
    Q = QTrigPoly.binomial(F10, th)
    made = [P, Q, P * Q, P + Q, -P, P.scale(3), P.shift(th),
            (P * Q).divide_binomial(th), geometric(F10, 3, th),
            QTrigPoly.zero(F10), QTrigPoly.constant(F10),
            QTrigPoly(F10, {th: 1})]
    assert all(R._ball_cache is None for R in made)
    P.eval_ball(Fraction(1, 3), 64)
    assert set(P._ball_cache) == {80}
    assert all(R._ball_cache is None for R in made[1:])


_EVAL_FIELDS = [QQ, field_make(10, 2), field_make(5, 3)]
_non_dyadic = st.builds(Fraction, st.integers(-40, 40),
                        st.sampled_from([1, 3, 5, 7, 10, 12, 21]))


@st.composite
def _eval_case(draw):
    """A poly with non-dyadic coefficients in one of the fields, a real
    point of any accepted kind (sometimes 10^6 or 10^20 periods out,
    where the first working precision is too short) and a target
    precision."""
    desc = draw(st.sampled_from(_EVAL_FIELDS))

    def element():
        return desc.element([draw(_non_dyadic) for _ in range(desc.k)])

    terms = {element(): draw(_non_dyadic.filter(bool))
             for _ in range(draw(st.integers(1, 5)))}
    far = draw(st.sampled_from([1, 1, 10 ** 6, 10 ** 20]))
    kind = draw(st.sampled_from(["int", "Fraction", "FieldElement", "float"]))
    if kind == "int":
        w = far * draw(st.integers(-50, 50))
    elif kind == "Fraction":
        w = far * draw(_non_dyadic)
    elif kind == "FieldElement":
        w = far * element()
    else:
        w = far * draw(st.floats(-50, 50))
    return QTrigPoly(desc, terms), w, draw(st.sampled_from([24, 53, 64, 120, 300]))


@settings(max_examples=120, deadline=None)
@given(_eval_case())
def test_eval_ball_matches_the_interval_object_reference(case):
    P, w, prec = case
    want = _endpoints(eval_ball_uncached(P, w, prec))
    assert _endpoints(P.eval_ball(w, prec)) == want
    assert _endpoints(P.eval_ball(w, prec)) == want  # from the cache


_wide = st.one_of(st.integers(-(1 << 20), 1 << 20),
                  st.integers(-(1 << 400), 1 << 400))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_EVAL_FIELDS), st.lists(_wide, min_size=3, max_size=3),
       st.one_of(st.integers(1, 1 << 20), st.integers(1, 1 << 400)),
       st.sampled_from([1, 24, 53, 64, 200]))
def test_raw_enclosures_match_the_interval_object_forms(desc, nums, den, prec):
    # numerators and denominators up to 400 bits, wider than the working
    # precision, where iv.mpf(p) itself rounds outward
    for q in [Fraction(nums[0], den), Fraction(nums[1]), Fraction(0)]:
        with iv_prec(prec):
            want = iv_fraction(q)._mpi_
        assert enclosure._mpi_fraction(q, prec) == want
    for coords in ([Fraction(n, den) for n in nums[:desc.k]], [0] * desc.k,
                   [-abs(Fraction(nums[0], den))] + [0] * (desc.k - 1)):
        x = desc.element(coords)
        assert enclosure.ball(x, prec) == iv_ball(x, prec)._mpi_


def test_eval_ball_and_ball_restore_the_interval_precision(F10, monkeypatch):
    # the enclosures take their precision as an argument and leave the
    # iv context's alone, on success and on error; a complex point, an
    # (re, im) pair and a string are refused
    P = QTrigPoly(F10, {F10.zero(): 1, F10.theta() / 2: Fraction(2, 3)})
    with iv_prec(77):
        P.eval_ball(F10.theta() * 10 ** 20, 64)  # escalates
        enclosure.ball(F10.theta(), 300)
        for point in (0.25 + 0.5j, (F10.theta(), Fraction(1, 3)), "0.5"):
            with pytest.raises(TypeError):
                P.eval_ball(point, 64)

        def mismatch(x, prec):
            raise DescriptorMismatch("enclosure from a different field")

        monkeypatch.setattr(enclosure, "ball", mismatch)
        with pytest.raises(DescriptorMismatch):
            QTrigPoly(F10, P.terms).eval_ball(Fraction(1, 3), 64)
        assert iv.prec == 77


_tiny = Fraction(1, 1 << 60)
_SORT_FIELDS = [field_make(2, 1), field_make(10, 2), field_make(7, 2), field_make(5, 3)]


def _exponent_set(rng: random.Random, desc) -> list:
    """Random exponents, each often paired with a neighbour at most
    about 2^-60 away, near the 2^-64 resolution of the presort key, and
    sometimes two with a coordinate past the float range."""
    out = []
    for _ in range(rng.randint(1, 12)):
        d = desc.element([Fraction(rng.randint(-240, 240), rng.randint(1, 12))
                          for _ in range(desc.k)])
        out.append(d)
        near = rng.choice(["none", "rational", "shift"])
        if near == "rational" and desc.k > 1:
            # d - theta + a rational within 2^-60 of theta, on either side
            root = desc.theta_power_bounds(60)[1][0]
            out.append(d - desc.theta() + Fraction(root + rng.randint(0, 1), 1 << 60))
        elif near == "shift":
            out.append(d + rng.choice([_tiny, -_tiny, 3 * _tiny]))
    if rng.random() < 0.5:
        big = rng.choice([10 ** 400, 10 ** 308])
        out.append(desc.element([big, -big, big][:desc.k]))
        out.append(desc.element([big, big, -big][:desc.k]))
    rng.shuffle(out)
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_SORT_FIELDS), st.randoms(use_true_random=False))
def test_exponents_order_equals_the_exact_sort(desc, rng):
    exps = _exponent_set(rng, desc)
    P = QTrigPoly(desc, {d: Fraction(i + 1) for i, d in enumerate(exps)})
    assert P.exponents() == tuple(sorted(P.terms))
    # exponents differ by far more than the 2^-399 width of fixed_point(400)
    assert P.exponents() == tuple(sorted(P.terms, key=lambda d: d.fixed_point(400)[0]))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_SORT_FIELDS), st.randoms(use_true_random=False))
def test_vector_exponents_order_equals_the_exact_sort(desc, rng):
    # lead coordinates from a short list, so that many pairs tie there
    tail = _exponent_set(rng, desc)
    lead = [rng.choice(tail[:3]) for _ in tail]
    P = QTrigPoly(desc, {(a, b): Fraction(i + 1) for i, (a, b) in enumerate(zip(lead, tail))})
    assert all(type(d) is ExponentVector for d in P.terms)
    assert P.exponents() == tuple(sorted(tuple(d) for d in P.terms))


def test_exponents_presort_holds_past_the_float_range(monkeypatch):
    # about 10^317.6: a float key would overflow and leave the exact sort
    # to order a shuffled list (1,272 comparisons for these 200)
    F2 = field_make(2, 2)
    big = (1 + F2.theta()) ** 830
    exps = [big + i for i in range(200)]
    random.Random(5).shuffle(exps)
    P = QTrigPoly(F2, {d: Fraction(1) for d in exps})
    calls = 0
    lt = FieldElement.__lt__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return lt(self, other)

    monkeypatch.setattr(FieldElement, "__lt__", counting)
    got = P.exponents()
    monkeypatch.setattr(FieldElement, "__lt__", lt)
    assert got == tuple([big + i for i in range(200)])
    assert calls <= len(exps)


# -- the Fraction-coefficient reference ------------------------------------------

_REF_FIELDS = [QQ, field_make(10, 2), field_make(5, 3)]
_ref_coef = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 9, 10]))


@st.composite
def _ref_case(draw):
    """(desc, P, Q, m, q, e): Fraction-coefficient term maps P and Q with
    mixed denominators, scalar or vector exponents, Q often cancelling P
    in part or in full; a binomial exponent m, a scalar q and a shift e.

    P's exponents, Q's new ones, m and e each carry their own extra
    exponent denominator, so operands often differ in ``eden``; m's
    leading coordinates are often zero, so its first nonzero lattice
    coordinate is often not the first."""
    desc = draw(st.sampled_from(_REF_FIELDS))
    s = draw(st.sampled_from([1, 2]))
    step = desc.theta() / 2 if desc.k > 1 else desc.rational(Fraction(1, 3))
    coord = st.builds(lambda a, b: desc.rational(a) + step * b,
                      st.integers(-3, 3), st.integers(-2, 2))
    exponent = coord if s == 1 else st.builds(lambda *x: ExponentVector(x), coord, coord)

    def over(q):
        return exponent.map(lambda d: d * Fraction(1, q))

    def terms(q):
        return st.lists(st.tuples(over(q), _ref_coef), max_size=6)

    edens = st.sampled_from([1, 1, 2, 5, 7])
    P = dict(draw(terms(draw(edens))))
    Q = {d: -c for d, c in P.items() if draw(st.booleans())} if draw(st.booleans()) else {}
    Q.update(draw(terms(draw(edens))))
    m = draw(over(draw(edens)).filter(lambda d: not d.is_zero))
    if draw(st.booleans()):
        # zero the leading coordinates of m's first component
        lead = m if s == 1 else m[0]
        head = desc.element(lead.coeffs[:draw(st.integers(1, desc.k))])
        m = m - head if s == 1 else ExponentVector([m[0] - head, m[1]])
        if m.is_zero:
            m = step if s == 1 else ExponentVector([desc.zero(), step])
    return desc, P, Q, m, draw(_ref_coef), draw(over(draw(edens)))


def _assert_matches_reference(R, ref):
    # same terms in the same order, and integer numerators over den in lowest terms
    assert list(R.terms.items()) == list(ref.terms.items())
    assert all(type(c) is Fraction for c in R.terms.values())
    assert R.den > 0 and math.gcd(R.den, *R.num.values()) == 1
    assert all(type(c) is int and c != 0 for c in R.num.values())
    assert R.coefficient_sum() == sum(ref.terms.values(), Fraction(0))
    # the lattice form: exponent tuples of ints over eden in lowest terms,
    # and the view's keys are the tuples' elements, in order
    assert R.eden > 0 and math.gcd(R.eden, *[x for d in R.num for x in d]) == 1
    assert len(R.num) == len(R.terms)
    for d, key in zip(R.terms, R.num):
        parts = [d] if isinstance(d, FieldElement) else d
        assert all(type(x) is int for x in key)
        assert key == tuple(x * R.eden for a in parts for x in a.coeffs)


@settings(max_examples=150, deadline=None)
@given(_ref_case())
def test_qtrig_matches_the_fraction_reference(case):
    desc, p, q, m, k, e = case
    P, Q = QTrigPoly(desc, p), QTrigPoly(desc, q)
    rP, rQ = RefPoly(desc, p), RefPoly(desc, q)
    _assert_matches_reference(P, rP)
    for got, ref in [(P + Q, rP + rQ), (P - Q, rP - rQ), (-P, -rP), (P * Q, rP * rQ),
                     (P.scale(k), rP.scale(k)), (P.shift(e), rP.shift(e)),
                     # Q's exponents cancel out again: eden shrinks back
                     ((P + Q) - Q, (rP + rQ) - rQ), ((P + Q).shift(e) - Q.shift(e),
                                                     (rP + rQ).shift(e) - rQ.shift(e))]:
        _assert_matches_reference(got, ref)
    B, rB = QTrigPoly.binomial(desc, m), RefPoly(desc, {m * 0: 1, m: -1})
    _assert_matches_reference(B, rB)
    for N, rN in [(P * B, rP * rB), (P + Q, rP + rQ), (P * B + Q, rP * rB + rQ)]:
        got, ref = N._divide_binomial_classes(m), rN.divide_binomial(m)
        if isinstance(ref, BinomialDivisionWitness):
            assert isinstance(got, BinomialDivisionWitness) and N.divide_binomial(m) is None
            assert (got.base, got.class_sum) == (ref.base, ref.class_sum)
            assert list(got.offsets.items()) == list(ref.offsets.items())
            assert all(type(c) is Fraction for c in got.offsets.values())
        else:
            _assert_matches_reference(got, ref)
            _assert_matches_reference(N.divide_binomial(m), ref)


# -- vector exponents (s >= 2) -------------------------------------------------

_F2 = field_make(2, 2)
_coord = st.builds(lambda a, b: _F2.rational(a) + _F2.theta() * b, _small, _small)


@st.composite
def _vector_poly(draw, s):
    terms = draw(st.lists(st.tuples(st.tuples(*[_coord] * s), st.integers(-3, 3)),
                          min_size=1, max_size=5))
    return QTrigPoly(_F2, {d: c for d, c in terms})


@st.composite
def _vector_case(draw):
    s = draw(st.sampled_from([2, 3]))
    v = ExponentVector(draw(st.tuples(*[_coord] * s)))
    probe = draw(st.tuples(*[st.integers(-3, 3)] * s))
    return draw(_vector_poly(s)), v, probe


@settings(max_examples=80, deadline=None)
@given(_vector_case())
def test_vector_division_roundtrip_property(case):
    P, v, _ = case
    if v.is_zero:
        return
    assert (P * QTrigPoly.binomial(_F2, v)).divide_binomial(v) == P


@settings(max_examples=80, deadline=None)
@given(_vector_case())
def test_vector_division_commutes_with_slicing(case):
    # (P / (1 - E(v))) sliced along w0 is the slice of P divided by
    # 1 - E(w0 . v)
    R, v, w0 = case
    dot = sum((p * x for p, x in zip(w0, v)), _F2.zero())
    if dot.is_zero:
        return
    P = R * QTrigPoly.binomial(_F2, v)
    assert P.divide_binomial(v).substitute(w0) == P.substitute(w0).divide_binomial(dot)


@pytest.mark.parametrize("terms, v, base, class_sum", [
    ({(0, 0): 1, (1, "t"): 2, ("t", 0): -1}, (1, "t"), (0, 0), 3),
    ({(0, 0): 1, (0, "2t"): -1, (0, "t/2"): 3, (1, "t/2"): -1}, (0, "t"), (0, "t/2"), 3),
    ({(0, 0, 0): 1, ("1/2", 0, "t"): -1, (1, 0, "2t"): 1, ("t", 1, 1): 2},
     ("1/2", 0, "t"), (0, 0, 0), 1),
])
def test_vector_division_witnesses(terms, v, base, class_sum):
    # the failing class: its first-seen term and its coefficient sum
    th = _F2.theta()
    value = {"t": th, "2t": 2 * th, "t/2": th / 2, "1/2": Fraction(1, 2)}

    def vec(xs):
        return ExponentVector([_F2.rational(0) + value.get(x, x) for x in xs])

    P = QTrigPoly(_F2, {vec(d): c for d, c in terms.items()})
    witness = P._divide_binomial_classes(vec(v))
    assert isinstance(witness, BinomialDivisionWitness)
    assert (witness.base, witness.divisor, witness.class_sum) == (vec(base), vec(v), class_sum)
    assert P.divide_binomial(vec(v)) is None


def test_vector_exponent_arithmetic():
    th = _F2.theta()
    a = ExponentVector([_F2.one(), th])
    b = ExponentVector([th, _F2.rational(2)])
    assert a + b == (1 + th, th + 2) and a - b == (1 - th, th - 2)
    assert -a == (-1, -th) and a * th == (th, 2) and 3 * a == (3, 3 * th)
    assert a.desc == _F2 and not a.is_zero and (a - a).is_zero
    assert a.to_text() == "(1, t)"
    P = QTrigPoly(_F2, {(1, th): 2, (0, 0): 1})
    assert P.shift((1, 0)) == QTrigPoly(_F2, {(2, th): 2, (1, 0): 1})
    assert P.terms[(1, th)] == 2 and P.coefficient_sum() == 3
    assert QTrigPoly.binomial(_F2, a) == QTrigPoly(_F2, {(0, 0): 1, a: -1})
    assert QTrigPoly.constant(_F2, 5, like=a) == QTrigPoly(_F2, {(0, 0): 5})
