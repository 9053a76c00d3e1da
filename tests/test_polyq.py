"""Rational polynomial helpers: division, gcd, Sturm isolation."""

from fractions import Fraction

import pytest

from refinable import polyq


def F(*vals):
    return polyq.pnorm([Fraction(v) for v in vals])


def test_divmod_exact():
    num = F(-1, 0, 1)  # z^2 - 1
    den = F(-1, 1)     # z - 1
    q, r = polyq.pdivmod(num, den)
    assert q == F(1, 1) and r == ()


def test_divmod_remainder():
    q, r = polyq.pdivmod(F(1, 0, 1), F(-1, 1))
    assert r == F(2)
    assert polyq.padd(polyq.pmul(q, F(-1, 1)), r) == F(1, 0, 1)


def test_gcd():
    a = polyq.pmul(F(-1, 1), F(1, 1))   # (z-1)(z+1)
    b = polyq.pmul(F(-1, 1), F(2, 1))   # (z-1)(z+2)
    assert polyq.pgcd(a, b) == F(-1, 1)
    assert polyq.pgcd(a, ()) == F(-1, 0, 1)  # gcd with 0 is the monic input


def test_compose_power():
    assert polyq.pcompose_power(F(1, 1), 3) == F(1, 0, 0, 1)


def test_power_rejects_a_negative_exponent():
    # a negative exponent once gave 1, so Lawton's test ran with Q = p
    assert polyq.ppow(F(-1, 1), 0) == F(1)
    assert polyq.ppow(F(-1, 1), 2) == F(1, -2, 1)
    with pytest.raises(ValueError):
        polyq.ppow(F(-1, 1), -3)


def test_sturm_counts():
    p = polyq.pmul(F(-1, 1), polyq.pmul(F(-2, 1), F(3, 1)))  # roots 1, 2, -3
    assert polyq.sturm_root_count(p, Fraction(-4), Fraction(4)) == 3
    assert polyq.sturm_root_count(p, Fraction(0), Fraction(4)) == 2
    with pytest.raises(ValueError):
        polyq.sturm_root_count(p, Fraction(1), Fraction(4))


def test_isolate_roots():
    p = F(-2, 0, 1)  # z^2 - 2
    roots = polyq.isolate_real_roots(p, Fraction(-3), Fraction(3),
                                     Fraction(1, 1 << 20))
    assert len(roots) == 2
    for lo, hi in roots:
        assert hi - lo <= Fraction(1, 1 << 20)
        assert polyq.peval_fraction(p, lo) * polyq.peval_fraction(p, hi) <= 0
    assert float(roots[1][0]) == pytest.approx(2 ** 0.5, abs=1e-6)


def test_isolation_builds_one_sturm_chain(monkeypatch):
    # the squarefree part and its Sturm chain are built once per isolation,
    # not at every bisection node
    chains = []
    sturm_chain = polyq.sturm_chain
    monkeypatch.setattr(polyq, "sturm_chain", lambda p: chains.append(p) or sturm_chain(p))
    p = polyq.pmul(polyq.pmul(F(-2, 0, 1), F(Fraction(-1, 2), 1)), F(-1, 1))  # ±√2, 1/2, 1
    p = polyq.pmul(p, F(-1, 1))  # 1 twice
    width = Fraction(1, 1 << 30)
    roots = polyq.isolate_real_roots(p, Fraction(-3), Fraction(3), width)
    assert len(chains) == 1
    assert len(roots) == 4 and all(hi - lo <= width for lo, hi in roots)
    for lo, hi in roots:
        if lo != hi:
            assert polyq.sturm_root_count(p, lo, hi) == 1
    assert [float(lo) for lo, _hi in roots] == pytest.approx([-2 ** 0.5, 0.5, 1, 2 ** 0.5])
    with pytest.raises(ValueError, match="endpoints"):
        polyq.isolate_real_roots(p, Fraction(1), Fraction(3), width)


def test_isolate_exact_rational_root():
    p = polyq.pmul(F(Fraction(-1, 2), 1), F(-2, 1))  # roots 1/2, 2
    roots = polyq.isolate_real_roots(p, Fraction(0), Fraction(3),
                                     Fraction(1, 64))
    assert len(roots) == 2
    # bisection lands exactly on 1/2 eventually or isolates it
    lo, hi = roots[0]
    assert lo <= Fraction(1, 2) <= hi


def test_isolate_multiple_root():
    p = polyq.pmul(F(-1, 1), F(-1, 1))  # (z-1)^2
    roots = polyq.isolate_real_roots(p, Fraction(0), Fraction(2),
                                     Fraction(1, 128))
    assert len(roots) == 1
    lo, hi = roots[0]
    assert lo <= 1 <= hi
