"""Dense polynomials over Q as tuples of Fractions, lowest degree first.

Small exact toolkit used by the integer-dilation divisibility test and
the decay probe's root isolation.  The zero polynomial is the empty
tuple.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Poly = tuple[Fraction, ...]


def pnorm(coeffs: Sequence) -> Poly:
    """Canonicalize: Fractions, trailing zeros stripped."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def pdeg(p: Poly) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def padd(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return pnorm([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                  for i in range(n)])


def psub(p: Poly, q: Poly) -> Poly:
    return padd(p, pscale(q, Fraction(-1)))


def pscale(p: Poly, c: Fraction) -> Poly:
    return pnorm([x * c for x in p])


def pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return pnorm(out)


def pdivmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Exact Euclidean division over Q."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num_l = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    dlead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num_l[i + len(den) - 1] / dlead
        if c != 0:
            q[i] = c
            for j, b in enumerate(den):
                num_l[i + j] -= c * b
    return pnorm(q), pnorm(num_l)


def pgcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over Q (Euclid)."""
    a, b = pnorm(p), pnorm(q)
    while b:
        a, b = b, pdivmod(a, b)[1]
    if not a:
        return ()
    return pscale(a, 1 / a[-1])


def pcompose_power(p: Poly, m: int) -> Poly:
    """p(z^m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not p:
        return ()
    out = [Fraction(0)] * ((len(p) - 1) * m + 1)
    for i, c in enumerate(p):
        out[i * m] = c
    return pnorm(out)


def ppow(p: Poly, e: int) -> Poly:
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    out: Poly = (Fraction(1),)
    for _ in range(e):
        out = pmul(out, p)
    return out


def peval(p: Poly, z: complex) -> complex:
    acc = 0j
    for c in reversed(p):
        acc = acc * z + complex(c)
    return acc


def peval_fraction(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pderiv(p: Poly) -> Poly:
    return pnorm([i * c for i, c in enumerate(p)][1:])


def squarefree_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'), normalized monic."""
    p = pnorm(p)
    g = pgcd(p, pderiv(p))
    sq = pdivmod(p, g)[0] if g else p
    return pscale(sq, 1 / sq[-1]) if sq else ()


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [pnorm(p), pderiv(p)]
    while chain[-1]:
        rem = pdivmod(chain[-2], chain[-1])[1]
        chain.append(pscale(rem, Fraction(-1)))
    chain.pop()
    return chain


def _sturm_variations(p: Poly):
    """x -> the sign variations at x of the Sturm chain of p's squarefree
    part, built once and memoised per x.  ValueError where x is a root."""
    chain = sturm_chain(squarefree_part(p))
    memo: dict[Fraction, int] = {}

    def variations(x: Fraction) -> int:
        if x not in memo:
            values = [peval_fraction(q, x) for q in chain]
            if values[0] == 0:
                raise ValueError("interval endpoints must not be roots")
            signs = [v > 0 for v in values if v != 0]
            memo[x] = sum(s != t for s, t in zip(signs, signs[1:]))
        return memo[x]

    return variations


def sturm_root_count(p: Poly, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of p in the open interval (a, b).

    Endpoints must not be roots of p.
    """
    variations = _sturm_variations(p)
    return variations(a) - variations(b)


def isolate_real_roots(p: Poly, a: Fraction, b: Fraction,
                       width: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals of length <= width, each containing
    exactly one distinct real root of p, covering all roots in (a, b).

    Endpoints a, b must not be roots of p.  Exact rational roots hit
    during bisection come back as degenerate [r, r] intervals.
    """
    p = pnorm(p)
    if not p:
        raise ZeroDivisionError("cannot isolate roots of the zero polynomial")
    out: list[tuple[Fraction, Fraction]] = []
    variations = _sturm_variations(p)

    def count(lo: Fraction, hi: Fraction) -> int:
        return variations(lo) - variations(hi)

    def recurse(lo: Fraction, hi: Fraction) -> None:
        cnt = count(lo, hi)
        if cnt == 0:
            return
        if cnt == 1 and hi - lo <= width:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if peval_fraction(p, mid) == 0:
            out.append((mid, mid))
            # carve out a root-free punctured neighbourhood of mid
            delta = (hi - lo) / 4
            while (peval_fraction(p, mid - delta) == 0
                   or peval_fraction(p, mid + delta) == 0
                   or count(mid - delta, mid + delta) != 1):
                delta /= 2
            recurse(lo, mid - delta)
            recurse(mid + delta, hi)
            return
        recurse(lo, mid)
        recurse(mid, hi)

    recurse(a, b)
    out.sort()
    return out
