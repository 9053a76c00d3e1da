"""Spline numerics: transforms, time-domain oracle, cascade, masks."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from iv_reference import boxspline_ft
from refinable import splinecore
from refinable.errors import Divergence, NonIntegerMatrix, RankDeficient
from refinable.exactreal import QQ, field_make
from refinable.qtrig import QTrigPoly
from refinable.refinery import BoxSplineSpec, MaskSpec, integer_dilation_box_mask
from refinable.splinecore import (
    GridFunction,
    boxspline_ft_f64,
    bspline_mask,
    cascade_solve,
    convolution_factorization_check,
    fourier_product_f64,
)
from refinable.splinecore import _longdouble, _trapz  # shared by the reference loops
from spline_oracles import GridTooCoarse, count_representations, spline_time_eval


@pytest.fixture(scope="module")
def F10():
    return field_make(10, 2)


@pytest.fixture(scope="module")
def trapezoid_spec(F10):
    return BoxSplineSpec.univariate(F10, [F10.one(), F10.theta() / 2])


def hat(x):
    return np.maximum(0.0, 1.0 - np.abs(np.asarray(x) - 1.0))


# -- direction matrices -----------------------------------------------------


def test_spec_validation(F10):
    with pytest.raises(RankDeficient):
        BoxSplineSpec(QQ, [[1, 0], [2, 0]])  # rank 1 < 2
    with pytest.raises(RankDeficient):
        BoxSplineSpec.univariate(QQ, [0])
    spec = BoxSplineSpec(F10, [[1, 0], [0, 1], [F10.theta(), 1]])
    assert spec.s == 2 and spec.n == 3 and not spec.is_integer_matrix()


# -- Fourier side -------------------------------------------------------------


def test_boxspline_ft_examples(F10, trapezoid_spec):
    assert boxspline_ft(trapezoid_spec, [0]).mid() == 1
    b = boxspline_ft(BoxSplineSpec.univariate(QQ, [1]), [1])
    assert abs(b.mid()) < 1e-18 and b.radius() < 1e-15

    # B_k formula: k+1 ones
    spec = BoxSplineSpec.univariate(QQ, [1, 1, 1])
    w = Fraction(7, 10)
    val = boxspline_ft(spec, [w]).mid()
    closed = ((1 - np.exp(-2j * np.pi * 0.7)) / (2j * np.pi * 0.7)) ** 3
    assert abs(val - closed) < 1e-13


def test_boxspline_ft_removable_singularity(F10):
    # dot product exactly zero on a 2-D hyperplane: factor contributes 1
    spec = BoxSplineSpec(F10, [[1, 0], [0, 1]])
    val = boxspline_ft(spec, [0, Fraction(1, 3)]).mid()
    closed = (1 - np.exp(-2j * np.pi / 3)) / (2j * np.pi / 3)
    assert abs(val - closed) < 1e-13


def test_ft_f64_matches_ball(trapezoid_spec):
    w = np.array([0.3, -7.7, 21.0])
    fast = boxspline_ft_f64(trapezoid_spec, w)
    for wi, fi in zip(w, fast):
        ball = boxspline_ft(trapezoid_spec, [Fraction(float(wi))], prec=64)
        assert abs(ball.mid() - fi) < 1e-12


def reference_hat(x_l):
    # _hat_f64 as it was with the longdouble np.mod and the complex exp
    x = np.asarray(x_l, dtype=np.float64)
    small = np.abs(x) < 1e-6
    phase = np.mod(x_l, 1.0).astype(np.float64)
    num = 1.0 - np.exp(-2j * np.pi * phase)
    den = 2j * np.pi * np.where(small, 1.0, x)
    with np.errstate(invalid="ignore"):
        direct = num / den
    u = 2j * np.pi * x
    series = 1.0 - u / 2 + u * u / 6 - u * u * u / 24
    return np.where(small, series, direct)


def _phase_points():
    # magnitudes 2^-40 .. 2^67 with both signs, values on both sides of
    # integers (some round to the integer in float64, some lie past 2^53),
    # +-0 and values below the float64 range
    ld = np.longdouble
    rng = np.random.default_rng(5)
    pts = [ld(0.0), -ld(0.0), ld("1e-320"), ld("-1e-320"), ld("1e-400"), ld("-1e-400")]
    for e in range(-40, 68):
        mant = ld(1) + rng.random(6).astype(ld)
        pts += list(mant * ld(2) ** e) + list(-mant * ld(2) ** e)
        k = np.floor(ld(2) ** e) + ld(rng.integers(0, 7))
        for eps in (ld(2) ** -62, ld(2) ** -55, ld(2) ** -30, ld(2) ** -3):
            pts += [k - eps, k + eps, -k - eps, -k + eps]
        pts += [np.nextafter(k, ld(0)), np.nextafter(k, ld(2) ** 70),
                np.nextafter(-k, ld(0)), np.nextafter(-k, -ld(2) ** 70)]
    return np.array(pts, dtype=np.longdouble)


def _phase_edges():
    # tiny negative values from -2^-60 down past the float64 range, where
    # fl64(p) is 0, -0.0 or a subnormal and F rounds to 1, and values next
    # to +-2^53, where float64 stops holding every integer
    ld = np.longdouble
    tiny = [-ld(2) ** -e for e in range(60, 1200, 7)]
    tiny += [-ld(3) * ld(2) ** -e for e in (1074, 1075, 1076, 1100, 16000)]
    near = []
    for base in (ld(2) ** 53, ld(2) ** 53 + 1, ld(2) ** 53 - 1, ld(2) ** 53 + 2):
        for v in (base, np.nextafter(base, ld(0)), np.nextafter(base, ld(2) ** 60),
                  base + ld(0.5), base - ld(0.5), base + ld(0.25), base + ld(1.5)):
            near += [v, -v]
    return np.array(tiny + near, dtype=np.longdouble)


def test_unit_phase_matches_longdouble_mod():
    p = np.concatenate([_phase_points(), _phase_edges()])
    with np.errstate(invalid="ignore", over="ignore"):
        ref = np.mod(p, 1.0).astype(np.float64)
        assert splinecore._unit_phase(p).tobytes() == ref.tobytes()
        grid = p[:60].reshape(3, 20)
        assert splinecore._unit_phase(grid).tobytes() == ref[:60].tobytes()
        out = np.empty(p.shape)
        assert splinecore._unit_phase(p, out=out) is out
        assert out.tobytes() == ref.tobytes()
        special = np.array([np.inf, -np.inf, np.nan, 0.5, -0.25], dtype=np.longdouble)
        ref = np.mod(special, 1.0).astype(np.float64)
        got = splinecore._unit_phase(special)
    assert np.isnan(got).tolist() == np.isnan(ref).tolist()
    assert got[3:].tobytes() == ref[3:].tobytes()


def test_unit_phase_recomputes_only_where_np_mod_can_differ(monkeypatch):
    # the levels w / 6^j of a J = 40 Fourier product: where w < 0 the deep
    # levels are tiny and negative and y rounds to 1.0, but floor(fl64(p))
    # = floor(p) at every entry, so np.mod recomputes none of them
    arg = np.random.default_rng(3).uniform(-50.0, 50.0, 100).astype(np.longdouble)
    levels = np.empty((40, 100), dtype=np.longdouble)
    for j in range(40):
        arg = arg / np.longdouble(6)
        levels[j] = arg
    ref = np.mod(levels, 1.0).astype(np.float64)
    assert np.count_nonzero(ref == 1.0) > 500
    sizes = []
    mod = np.mod
    monkeypatch.setattr(np, "mod", lambda x, *a: sizes.append(np.size(x)) or mod(x, *a))
    assert splinecore._unit_phase(levels).tobytes() == ref.tobytes()
    assert sizes == []
    # the entries that need it still go to np.mod, in one call
    p = _phase_edges()
    with np.errstate(invalid="ignore", over="ignore"):
        splinecore._unit_phase(p)
    assert len(sizes) == 1 and 0 < sizes[0] < p.size


def test_hat_f64_matches_complex_exp_loop():
    # x = 0, the series branch and its edge, negative x, x next to
    # integers and large |x|
    ld = np.longdouble
    edges = np.array([0, 1e-7, -1e-7, 9.9e-7, -9.9e-7, 1e-6, -1e-6, 1e-30, 3, -3, 2.5,
                      -0.5, 1e15 + 0.5, -1e15 - 0.5, 2.0 ** 53, -2.0 ** 60], dtype=ld)
    x = np.concatenate([_phase_points()[::7], edges, np.nextafter(edges, ld(0))])
    assert splinecore._hat_f64(x).tobytes() == reference_hat(x).tobytes()
    for v in (ld(0), ld(-0.75), ld(1e-8)):
        assert splinecore._hat_f64(v).tobytes() == reference_hat(v).tobytes()


# -- time side ----------------------------------------------------------------


def test_time_eval_indicator():
    g = spline_time_eval(BoxSplineSpec.univariate(QQ, [1]), n_samples=801)
    assert g.a == 0.0 and 0 <= g.b - 1.0 <= 2 * g.h
    # cell-averaged endpoints cost O(h) in the trapezoid integral
    assert g.integral() == pytest.approx(1.0, abs=2 * g.h)
    mid = g(np.array([0.5]))[0]
    assert mid == pytest.approx(1.0, abs=1e-9)
    assert np.abs(g.samples[(g.x > 0.01) & (g.x < 0.99)] - 1.0).max() < 1e-12


def test_time_eval_hat():
    g = spline_time_eval(BoxSplineSpec.univariate(QQ, [1, 1]), n_samples=2001)
    assert np.max(np.abs(g.samples - hat(g.x))) < 1e-3
    assert g.integral() == pytest.approx(1.0, abs=2 * g.h)


def test_time_eval_trapezoid(F10, trapezoid_spec):
    M = float(F10.theta()) / 2
    g = spline_time_eval(trapezoid_spec, n_samples=4001)
    x = g.x
    ref = np.where(x < 0, 0.0,
                   np.where(x < 1, x,
                            np.where(x < M, 1.0,
                                     np.where(x < 1 + M, 1 + M - x, 0.0)))) / M
    assert np.max(np.abs(g.samples - ref)) < 5e-4
    assert 0 <= g.b - (1 + M) <= 4 * g.h


def test_time_eval_negative_direction():
    g = spline_time_eval(BoxSplineSpec.univariate(QQ, [1, -1]), n_samples=2001)
    assert g.a == pytest.approx(-1.0) and 0 <= g.b - 1.0 <= 3.5 * g.h
    assert g(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-3)


def test_time_eval_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        spline_time_eval(BoxSplineSpec.univariate(QQ, [1, Fraction(1, 100)]),
                         n_samples=64)


# -- cascade ------------------------------------------------------------------


def test_cascade_b0_indicator():
    g = cascade_solve(bspline_mask(0, 2), grid_size=1024, iters=20)
    assert g.integral() == pytest.approx(1.0, abs=1e-9)
    # away from the jump the iterates equal the indicator
    inner = (g.x > 0.1) & (g.x < 0.9)
    assert np.max(np.abs(g.samples[inner] - 1.0)) < 1e-6


def test_cascade_b1_hat():
    g = cascade_solve(bspline_mask(1, 2), grid_size=4096, iters=25)
    assert np.max(np.abs(g.samples - hat(g.x))) < 1e-3
    assert g.meta["residual"] < 1e-6


def test_cascade_support_invariant(F10, trapezoid_spec):
    from refinable.refinery import mask_construct

    mask = mask_construct([F10.one(), F10.theta() / 2], F10.theta())
    g = cascade_solve(mask, grid_size=2048, iters=18, pad=0.25)
    lo, hi = g.meta["support"]
    outside = (g.x < lo - g.h) | (g.x > hi + g.h)
    assert np.all(g.samples[outside] == 0.0)
    assert g(np.array([lo - 0.2, hi + 0.2])).tolist() == [0.0, 0.0]


def test_cascade_conservation_diagnostic():
    # conservation follows from sum c_j = lambda: with renormalization the
    # discrete integral is 1 to machine precision at every iterate, and in
    # the diagnostic run the per-iteration drift decays below 1e-6 once the
    # startup jump transient has passed (linear interpolation samples the
    # initial indicator's discontinuities with O(h) quadrature error)
    g = cascade_solve(bspline_mask(1, 2), grid_size=2048, iters=25)
    assert all(abs(v - 1.0) <= 1e-9 for v in g.meta["integrals"])
    assert all(d <= 1e-6 for d in g.meta["integral_drift"][10:])
    g3 = cascade_solve(bspline_mask(3, 2), grid_size=2048, iters=25,
                       renormalize=False)
    drift3 = g3.meta["integral_drift"]
    increments = [abs(a - b) for a, b in zip(drift3[1:], drift3)]
    assert all(d <= 1e-6 for d in increments[10:])
    assert g3.integral() == pytest.approx(1.0, abs=1e-3)


def test_cascade_divergence_guard():
    # sum h_j = 1 but wildly non-contractive coefficients blow up
    H = QTrigPoly(QQ, {QQ.rational(0): 40, QQ.rational(1): -79,
                       QQ.rational(2): 40})
    bad = MaskSpec(QQ.rational(2), H)
    with pytest.raises(Divergence):
        cascade_solve(bad, grid_size=256, iters=60)


# -- Fourier products ----------------------------------------------------------


def test_fourier_product_f64_counterexample(F10, trapezoid_spec):
    from refinable.refinery import mask_construct

    mask = mask_construct([F10.one(), F10.theta() / 2], F10.theta())
    rng = np.random.default_rng(2)
    w = rng.uniform(-50, 50, 64)
    prod = fourier_product_f64(mask, w, 40)
    closed = boxspline_ft_f64(trapezoid_spec, w)
    assert np.max(np.abs(prod - closed)) < 1e-8


# -- whole-array kernels against the per-term loops ------------------------------
#
# The loops below are the straightforward one-call-per-term kernels; the
# library's whole-array versions must reproduce them bit for bit, since
# the CLI prints these floats with repr.


def reference_cascade(mask, grid_size=1024, iters=30, renormalize=True, pad=0.0):
    lamf = float(mask.lam)
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
    coeffs = [(float(c), float(d))
              for c, d in zip(mask.refinement_coefficients, mask.translations)]
    residuals, drifts, integrals = [], [], []
    for _ in range(iters):
        new = np.zeros_like(f)
        for c, d in coeffs:
            new += c * np.interp(lamf * x - d, x, f, left=0.0, right=0.0)
        integral = float(_trapz(new, dx=h))
        drifts.append(abs(integral - 1.0))
        if renormalize and integral != 0:
            new = new / integral
        integrals.append(float(_trapz(new, dx=h)))
        residuals.append(float(np.max(np.abs(new - f))))
        f = new
    return f, {"residuals": residuals, "integral_drift": drifts, "integrals": integrals}


def reference_fourier(mask, w, J):
    lamf = _longdouble(mask.lam)
    w_l = np.asarray(w, dtype=np.longdouble)
    out = np.ones(w_l.shape, dtype=np.complex128)
    terms = [(_longdouble(d), float(c)) for d, c in mask.H.items()]
    arg = w_l.copy()
    for _ in range(J):
        arg = arg / lamf
        h = np.zeros(w_l.shape, dtype=np.complex128)
        for d, c in terms:
            phase = np.mod(d * arg, 1.0).astype(np.float64)
            h += c * np.exp(-2j * np.pi * phase)
        out *= h
    return out


def _negative_coefficient_mask():
    # B_1 mask times (-1 + 4z - z^2)/2: coefficient sum 1, two negative terms
    m1 = bspline_mask(1, 2)
    q = QTrigPoly(QQ, {QQ.rational(0): Fraction(-1, 2), QQ.rational(1): 2,
                       QQ.rational(2): Fraction(-1, 2)})
    return MaskSpec(m1.lam, m1.H * q)


def _kernel_masks():
    from gen_instances import accepted_batch
    from refinable.refinery import counterexample_instance, mask_construct

    _desc, lam, A = counterexample_instance()
    masks = [("counterexample", mask_construct(A, lam)),
             ("negative", _negative_coefficient_mask())]
    masks += [(f"bspline{deg},{m}", bspline_mask(deg, m))
              for deg, m in ((0, 2), (1, 2), (3, 2), (2, 3))]
    masks += [(f"accepted{i}", mask_construct(A, lam))
              for i, (A, lam) in enumerate(accepted_batch(12, 11))]
    return masks


KERNEL_MASKS = _kernel_masks()
CASCADE_CONFIGS = [dict(grid_size=512, iters=12), dict(grid_size=300, iters=8, pad=0.25),
                   dict(grid_size=257, iters=8, renormalize=False)]


def assert_cascade_bit_identical(mask, **config):
    g = cascade_solve(mask, **config)
    samples, meta = reference_cascade(mask, **config)
    assert g.samples.tobytes() == samples.tobytes()
    for key, ref in meta.items():
        assert np.array(g.meta[key]).tobytes() == np.array(ref).tobytes(), key


@pytest.mark.parametrize("name,mask", KERNEL_MASKS, ids=[n for n, _ in KERNEL_MASKS])
def test_cascade_bit_identical_to_per_term_loop(name, mask, monkeypatch):
    # block 1 puts every term in a group of its own, 97 splits the terms
    # into groups of a few slices each
    for block in (splinecore._CASCADE_BLOCK, 1, 97):
        monkeypatch.setattr(splinecore, "_CASCADE_BLOCK", block)
        for config in CASCADE_CONFIGS:
            assert_cascade_bit_identical(mask, **config)


def test_cascade_builds_queries_once(monkeypatch):
    # grid indices, cells and offsets are built before the first iteration,
    # so more iterations make no more calls
    counts = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(splinecore, "_group_queries",
                        counting("queries", splinecore._group_queries))
    monkeypatch.setattr(np, "searchsorted", counting("searchsorted", np.searchsorted))
    seen = []
    for iters in (1, 30):
        counts.clear()
        cascade_solve(KERNEL_MASKS[0][1], grid_size=1024, iters=iters)
        seen.append(dict(counts))
    assert seen[0] == seen[1] and seen[0]["queries"] > 0


def test_cascade_bit_identical_past_the_offset_budget(monkeypatch):
    # groups past _CASCADE_KEEP rebuild their indices and offsets in every
    # iteration; none kept, and some kept and some not, give the same bits
    monkeypatch.setattr(splinecore, "_CASCADE_BLOCK", 97)
    for _name, mask in KERNEL_MASKS[:3]:
        for keep in (0, 700):
            monkeypatch.setattr(splinecore, "_CASCADE_KEEP", keep)
            for config in CASCADE_CONFIGS:
                assert_cascade_bit_identical(mask, **config)


def test_cascade_bit_identical_at_default_size():
    assert_cascade_bit_identical(KERNEL_MASKS[0][1])


@pytest.mark.parametrize("name,mask", KERNEL_MASKS, ids=[n for n, _ in KERNEL_MASKS])
def test_fourier_product_bit_identical_to_per_level_loop(name, mask):
    w = np.random.default_rng(8).uniform(-50.0, 50.0, 40)
    w[:3] = [0.0, 50.0, -49.99]
    for J in (1, 40):
        assert fourier_product_f64(mask, w, J).tobytes() == \
            reference_fourier(mask, w, J).tobytes()


def test_fourier_product_blocks_and_shapes(monkeypatch):
    mask = KERNEL_MASKS[0][1]
    block = splinecore._FOURIER_BLOCK
    w = np.random.default_rng(9).uniform(-50.0, 50.0, block + 37)
    w[block] = 0.0
    assert fourier_product_f64(mask, w, 40).tobytes() == \
        reference_fourier(mask, w, 40).tobytes()
    monkeypatch.setattr(splinecore, "_FOURIER_BLOCK", 7)
    assert fourier_product_f64(mask, w[:40], 40).tobytes() == \
        reference_fourier(mask, w[:40], 40).tobytes()
    grid = w[:12].reshape(3, 4)
    out = fourier_product_f64(mask, grid, 5)
    assert out.shape == (3, 4)
    assert out.tobytes() == reference_fourier(mask, grid, 5).tobytes()
    assert fourier_product_f64(mask, np.array(0.7), 3).shape == ()


def test_fourier_product_large_arguments():
    # |d w / lambda| reaches 2^53 and beyond, where float64 rounds the
    # phase argument to an integer and the np.mod fallback takes over
    w = np.array([2.0 ** 60, -3.0e19, 1.0e17 + 64.0, -2.0 ** 54 - 8.0, 9.0e15, 40.0])
    for name, mask in KERNEL_MASKS[:4]:
        assert np.max(np.abs(w / float(mask.lam))) * float(mask.translations[-1]) >= 2.0 ** 53
        assert fourier_product_f64(mask, w, 3).tobytes() == \
            reference_fourier(mask, w, 3).tobytes(), name


def test_cascade_bit_identical_over_long_runs():
    # an ill-conditioned mask run far past the default 30 iterations, and
    # a grid whose queries hit the nodes, the last one included
    wild = MaskSpec(QQ.rational(2), QTrigPoly(QQ, {QQ.rational(0): -39,
                                                 QQ.rational(2): 40}))
    for mask in (wild, bspline_mask(1, 2)):
        lo, hi = (float(v) for v in mask.support())
        x = lo + (hi - lo) / 256 * np.arange(257)
        assert np.any(float(mask.lam) * x - float(mask.translations[-1]) == x[-1])
        assert_cascade_bit_identical(mask, grid_size=257, iters=3000)


def test_kernel_argument_checks():
    mask = bspline_mask(1, 2)
    for J in (0, -3):
        with pytest.raises(ValueError, match="J must be >= 1"):
            fourier_product_f64(mask, np.array([0.5]), J)
    for n in (0, 1):
        with pytest.raises(ValueError, match="grid_size"):
            cascade_solve(mask, grid_size=n)


# -- integer-dilation masks ------------------------------------------------------


def test_integer_dilation_univariate():
    mk = integer_dilation_box_mask(BoxSplineSpec.univariate(QQ, [1]), 2)
    assert mk.H == QTrigPoly(QQ, {QQ.rational(0): Fraction(1, 2),
                                  QQ.rational(1): Fraction(1, 2)})
    assert [c.as_fraction() for c in mk.refinement_coefficients] == [1, 1]

    mk2 = integer_dilation_box_mask(BoxSplineSpec.univariate(QQ, [1, 1]), 2)
    assert [c.as_fraction() for c in mk2.refinement_coefficients] == \
        [Fraction(1, 2), 1, Fraction(1, 2)]
    assert [float(d) for d in mk2.translations] == [0, 1, 2]


def test_integer_dilation_multivariate_counting():
    spec = BoxSplineSpec(QQ, [[1, 0], [0, 1], [1, 1]])
    mv = integer_dilation_box_mask(spec, 2)
    assert mv.s == 2 and mv.m == 2
    assert len(mv.terms) == 7  # 8 alpha-words, two meeting at (1,1)
    total = sum(mv.terms.values())
    assert total == 1
    for j, h in mv.terms.items():
        cnt = count_representations(spec, 2, j)
        assert h * 2 ** 3 == cnt
    # negative entries, m = 3 and s = 3: every translation M alpha appears
    # once, with the count as its weight
    for cols, m in (([[1, 0], [0, 1], [1, -1], [2, 1]], 3),
                    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]], 2)):
        spec = BoxSplineSpec(QQ, cols)
        mv = integer_dilation_box_mask(spec, m)
        assert mv.s == len(cols[0]) and sum(mv.terms.values()) == 1
        reach = {tuple(sum(a * c[i] for a, c in zip(alpha, cols)) for i in range(spec.s))
                 for alpha in itertools.product(range(m), repeat=spec.n)}
        assert set(mv.terms) == reach
        for j, h in mv.terms.items():
            assert h * m ** spec.n == count_representations(spec, m, j)


def test_integer_dilation_mask_identity_numeric():
    spec = BoxSplineSpec(QQ, [[1, 0], [0, 1], [1, 1]])
    mv = integer_dilation_box_mask(spec, 2)
    rng = np.random.default_rng(4)
    for _ in range(16):
        w = [Fraction(float(v)) for v in rng.uniform(-2, 2, 2)]
        H = sum(complex(c) * np.exp(-2j * np.pi * (float(w[0]) * j[0]
                                                   + float(w[1]) * j[1]))
                for j, c in mv.terms.items())
        lhs = boxspline_ft(spec, [2 * v for v in w]).mid()
        rhs = H * boxspline_ft(spec, w).mid()
        assert abs(lhs - rhs) < 1e-12


def test_integer_dilation_rejects_non_integer(F10):
    spec = BoxSplineSpec.univariate(F10, [F10.theta()])
    with pytest.raises(NonIntegerMatrix):
        integer_dilation_box_mask(spec, 2)


# -- factorization ---------------------------------------------------------------


def test_factorization_counterexample(F10):
    rep = convolution_factorization_check([F10.one(), F10.theta() / 2],
                                          F10.theta(), grid_size=2048, iters=25)
    assert rep.k == 2 and not rep.trivial
    assert rep.sup_rel_distance <= 1e-2


def test_factorization_integer_is_trivial():
    rep = convolution_factorization_check([QQ.one()], QQ.rational(2))
    assert rep.trivial and rep.k == 1 and rep.sup_rel_distance == 0.0


def test_factorization_rejects_nonrefinable():
    from refinable.errors import RefinabilityError

    F2 = field_make(2, 2)
    with pytest.raises(RefinabilityError):
        convolution_factorization_check([F2.one(), F2.one()], F2.theta())


# -- grid functions ----------------------------------------------------------------


def test_gridfunction_invariants(tmp_path):
    g = GridFunction(0.0, 0.5, np.array([0.0, 1.0, 0.0]))
    assert g.b == 1.0
    assert g(np.array([-1.0, 0.25, 2.0])).tolist() == [0.0, 0.5, 0.0]
    with pytest.raises(ValueError):
        GridFunction(0.0, 0.5, np.array([0.0, np.nan]))
    path = tmp_path / "grid.csv"
    g.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#") and lines[1] == "x,f"
    assert len(lines) == 5
