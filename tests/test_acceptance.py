"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success; failures surface as ordinary
pytest assertions.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gen_instances import accepted_batch, instance_batch
from spline_oracles import spline_time_eval
from refinable.cli import run as cli_run
from refinable.exactreal import QQ, field_make
from refinable.powermod import (
    erdos_construct,
    erdos_params,
    erdos_verify,
    orbit_distance_scan,
)
from refinable.splinecore import (
    boxspline_ft_f64,
    bspline_mask,
    cascade_solve,
    convolution_factorization_check,
    fourier_product_f64,
)
from refinable.refinery import (
    BoxSplineSpec,
    coverage_oracle,
    counterexample_instance,
    decay_probe,
    lawton_check,
    mask_construct,
    minimal_integer_power,
    multivariate_decide,
    verify_mask_identity,
)
from test_powermod import interval_distance_lower


def _ok(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_counterexample_reproduction():
    t0 = time.monotonic()
    desc, lam, A = counterexample_instance()
    mask = mask_construct(A, lam)
    th = desc.theta()
    assert mask is not None and len(mask.H) == 10
    assert set(mask.H.terms.values()) == {Fraction(1, 10)}
    expected = {desc.rational(t) for t in range(5)}
    expected |= {desc.rational(t) + th / 2 for t in range(5)}  # 5/sqrt(10) = t/2
    assert set(mask.H.terms) == expected
    assert cli_run(["counterexample", "--out", "/dev/null"]) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _ok(1, f"10 terms, all coefficients exactly 1/10, exact exponent set "
           f"({elapsed:.3f} s)")


def test_criterion_2_exact_mask_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(12345)
    desc, lam, A = counterexample_instance()
    instances = [(list(A), lam)] + accepted_batch(50, seed=424242)
    checked = 0
    for directions, dil in instances:
        mask = mask_construct(directions, dil)
        assert mask is not None, "accepted-template instance must be refinable"
        assert verify_mask_identity(directions, dil, mask)
        spec = BoxSplineSpec.univariate(mask.desc, [abs(d) for d in directions])
        w = rng.uniform(-50.0, 50.0, 1000)
        lhs = boxspline_ft_f64(spec, w * float(dil))
        # H(w) as the one-level product H(lambda^-1 * lambda w)
        rhs = fourier_product_f64(mask, w * float(dil), 1) * boxspline_ft_f64(spec, w)
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-10
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _ok(2, f"zero remainder + numeric identity <= 1e-10 at 1000 points, "
           f"{checked} instances ({elapsed:.1f} s)")


def test_criterion_3_decision_oracle_agreement():
    agree = 0
    accepted = rejected = 0
    for A, lam in instance_batch(200, seed=777):
        mask = mask_construct(A, lam)
        k = minimal_integer_power(lam if hasattr(lam, "desc") else QQ.rational(lam))
        lam_k = (lam ** k).as_integer()
        bound = 20 * len(A) * lam_k
        rep = coverage_oracle(A, lam, bound)
        assert (mask is not None) == rep.consistent, \
            f"disagreement on {[str(a) for a in A]}, lambda={lam}"
        agree += 1
        if mask is not None:
            accepted += 1
        else:
            rejected += 1
    assert agree == 200 and accepted > 0 and rejected > 0
    _ok(3, f"200/200 verdict agreement (accepted {accepted}, rejected {rejected})")


def test_criterion_4_erdos_certificate():
    t0 = time.monotonic()
    g, c = erdos_params(2, 1)
    assert g == 3 and c == Fraction(1, 1440)
    cert = erdos_construct(2, [0], 8)
    assert cert.g == 3 and cert.c == Fraction(1, 1440)
    assert cert.guaranteed_depth == 23

    # interval length law, exact
    for (a0, b0), (a1, b1) in zip(cert.intervals, cert.intervals[1:]):
        assert (b1 - a1) * 2 ** 3 == (b0 - a0)

    # endpoint distance >= c for every n in [-1, 23], checked directly
    a, b = cert.intervals[-1]
    lam = cert.lam
    for n in range(-1, 24):
        xa = a * lam ** n if n >= 0 else a / lam
        xb = b * lam ** n if n >= 0 else b / lam
        assert interval_distance_lower(xa, xb, Fraction(0)) >= cert.c

    # independent verifier
    rep = erdos_verify(cert, extra_n=23)
    assert rep.certified

    # trivial oracles, exact to n = 10^4
    mn, fv = orbit_distance_scan(2, Fraction(1, 3), [0], Fraction(1, 3), 10 ** 4)
    assert mn == Fraction(1, 3) and fv is None
    mn, fv = orbit_distance_scan(3, Fraction(1, 2), [0], Fraction(1, 2), 10 ** 4)
    assert mn == Fraction(1, 2) and fv is None

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _ok(4, f"g=3, c=1/1440, depth-8 certificate certified to n=23, trivial "
           f"oracles exact to 10^4 ({elapsed:.1f} s)")


def test_criterion_5_lawton_suite():
    import random as _random

    from refinable import polyq

    for d in range(5):
        for m in (2, 3, 4):
            assert lawton_check([1], d, m).refinable

    rng = _random.Random(555)
    rejected = 0
    attempts = 0
    while rejected < 100:
        attempts += 1
        assert attempts < 5000
        K = rng.randint(1, 5)
        p = [rng.randint(-4, 4) for _ in range(K)] + [rng.randint(1, 4)]
        d = rng.randint(0, 3)
        m = rng.choice([2, 3, 4])
        res = lawton_check(p, d, m)
        if res.refinable:
            continue
        z0 = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.4, 0.4))
        Qm = polyq.pcompose_power(res.Q, m)
        scale = max(abs(complex(cf)) for cf in Qm)
        assert abs(polyq.peval(res.remainder, z0)) >= 1e-6 * scale
        rejected += 1
    _ok(5, f"B_d masks pass for d<=4, m in 2..4; 100 rejections cross-checked "
           f"numerically ({attempts} draws)")


def test_criterion_6_cascade_fidelity():
    # B_1: closed-form hat on grid 4096
    g = cascade_solve(bspline_mask(1, 2), grid_size=4096, iters=25)
    hat = np.maximum(0.0, 1.0 - np.abs(g.x - 1.0))
    b1_sup = float(np.max(np.abs(g.samples - hat)))
    assert b1_sup <= 1e-3
    assert all(abs(v - 1.0) <= 1e-9 for v in g.meta["integrals"])

    # counterexample mask vs the direct convolution oracle
    desc, lam, A = counterexample_instance()
    mask = mask_construct(A, lam)
    gc = cascade_solve(mask, grid_size=4096, iters=25)
    oracle = spline_time_eval(BoxSplineSpec.univariate(desc, A), step=gc.h)
    ce_sup = float(np.max(np.abs(gc.samples - oracle(gc.x))))
    assert ce_sup <= 1e-3
    assert all(abs(v - 1.0) <= 1e-9 for v in gc.meta["integrals"])

    # support invariant: padded run stays exactly zero outside the hull
    gp = cascade_solve(mask, grid_size=2048, iters=15, pad=0.2)
    lo, hi = gp.meta["support"]
    outside = (gp.x < lo - gp.h) | (gp.x > hi + gp.h)
    assert np.all(gp.samples[outside] == 0.0)
    _ok(6, f"B_1 sup {b1_sup:.2e} <= 1e-3; counterexample sup {ce_sup:.2e} "
           f"<= 1e-3; support and integral invariants hold")


def test_criterion_7_fourier_product_consistency():
    rng = np.random.default_rng(999)
    cases = []
    for d in (0, 1, 3):
        cases.append((bspline_mask(d, 2),
                      BoxSplineSpec.univariate(QQ, [1] * (d + 1)), f"B_{d}"))
    desc, lam, A = counterexample_instance()
    cases.append((mask_construct(A, lam),
                  BoxSplineSpec.univariate(desc, A), "counterexample"))
    worst = 0.0
    for mask, spec, _name in cases:
        w = rng.uniform(-50.0, 50.0, 100)
        prod = fourier_product_f64(mask, w, 40)
        closed = boxspline_ft_f64(spec, w)
        err = float(np.max(np.abs(prod - closed)))
        assert err <= 1e-8
        worst = max(worst, err)
    _ok(7, f"J=40 product matches the closed form at 100 points for B_0, "
           f"B_1, B_3 and counterexample (worst {worst:.2e} <= 1e-8)")


def test_criterion_8_convolution_factorization():
    desc, lam, A = counterexample_instance()
    rep = convolution_factorization_check(A, lam, grid_size=4096, iters=30)
    assert rep.k == 2 and not rep.trivial
    assert rep.sup_rel_distance <= 1e-2
    _ok(8, f"k=2 convolution factorization: alpha={rep.alpha:.6f}, "
           f"sup rel distance {rep.sup_rel_distance:.2e} <= 1e-2")


def test_criterion_9_multivariate_decision():
    F = field_make(10, 2)
    th = F.theta()
    spec = BoxSplineSpec(F, [[1, 0], [0, 1], [th / 2, 0], [0, th / 2]])
    rep = multivariate_decide(spec, th)
    assert rep.refinable
    assert rep.chains.cycles == ((0, 2), (1, 3))

    uni = mask_construct([F.one(), th / 2], th)
    assert rep.mask.H.substitute((1, 0)) == uni.H
    assert rep.mask.H.substitute((0, 1)) == uni.H

    perturbed = BoxSplineSpec(F, [[1, 0], [0, 1], [th / 2, 0],
                                  [0, Fraction(1, 7)]])
    rep_bad = multivariate_decide(perturbed, th)
    assert not rep_bad.refinable
    _ok(9, "2-D instance accepted with chain cycles ((0,2),(1,3)); sliced "
           "masks equal the univariate masks exactly; perturbation flips "
           "the verdict")


def test_criterion_10_decay_probe():
    rep1 = decay_probe(bspline_mask(0, 2), J=200)
    assert rep1.targets == (Fraction(1, 2),)
    assert rep1.certificate.guaranteed_depth >= 199
    assert rep1.epsilon0 > 0.0
    assert 0 <= rep1.obstruction_k < 10 ** 6
    rep2 = decay_probe(bspline_mask(0, 2), J=200)
    assert rep1.to_jsonable() == rep2.to_jsonable()
    _ok(10, f"B_0 orbit floor eps0={rep1.epsilon0:.3e} > 0 certified for "
            f"j < 200, obstruction_k={rep1.obstruction_k}, deterministic")
