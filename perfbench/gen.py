"""Frozen, seeded input generators for the benchmark workloads.

These copies are deliberately independent of ``tests/gen_instances.py``:
an edit to the test suite must not silently change what the benchmark
measures.  ``instance_batch`` and ``accepted_batch`` draw exactly what
the test generator draws for the same arguments (a self-test pins
``instance_batch(200, 777)``); the 2-D family and the certificate tasks
exist only here.

Every generator takes its seed as an argument and touches no global
random state.
"""

from __future__ import annotations

import random
from fractions import Fraction

from refinable.exactreal import QQ, field_make

SQUARE_FREE_K2 = [2, 3, 5, 6, 7, 8, 10, 11, 12]
VALID_K3 = [2, 3, 4, 5, 6, 7, 9, 10, 11, 12]
CYCLE_RADICANDS = {6: (2, 3), 8: (2, 4), 10: (2, 5), 12: (2, 6)}


def _rand_positive_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 6), rng.randint(1, 6))


# ---------------------------------------------------------------------------
# univariate families


def _chain_template(rng: random.Random, cap_chains: int):
    """Full chains r * (1, theta, ..., theta^(k-1)) under lambda = theta."""
    k = rng.choice([2, 3])
    m = rng.choice(SQUARE_FREE_K2 if k == 2 else VALID_K3)
    desc = field_make(m, k)
    th = desc.theta()
    A = []
    for _ in range(rng.randint(1, cap_chains // k)):
        cur = desc.rational(_rand_positive_rational(rng))
        for _ in range(k):
            A.append(cur)
            cur = cur * th
    return desc, th, A


def _cycle_template(rng: random.Random):
    """Two-cycles r * (1, theta/p) with theta^2 = p*q."""
    m = rng.choice(list(CYCLE_RADICANDS))
    p, _q = CYCLE_RADICANDS[m]
    desc = field_make(m, 2)
    th = desc.theta()
    r = desc.rational(_rand_positive_rational(rng))
    A = [r, r * th / p]
    if rng.random() < 0.3:
        r2 = desc.rational(_rand_positive_rational(rng))
        A += [r2, r2 * th / p]
    return desc, th, A


def random_instance(rng: random.Random, want_accepted: bool):
    """One (directions, lambda) pair from the accepted templates, broken
    (perturbed, truncated or extended) unless ``want_accepted``."""
    kind = rng.randint(0, 2)
    if kind == 0:
        desc = QQ
        lam = desc.rational(rng.randint(2, 12))
        A = [desc.rational(_rand_positive_rational(rng))
             for _ in range(rng.randint(1, 4))]
    elif kind == 1:
        desc, lam, A = _chain_template(rng, 4)
    else:
        desc, lam, A = _cycle_template(rng)

    if not want_accepted:
        breakage = rng.randint(0, 2)
        if breakage == 0 and not lam.is_integer:
            j = rng.randrange(len(A))
            A[j] = A[j] * Fraction(8, 7)
        elif breakage == 1 and len(A) > 1 and not lam.is_integer:
            A = A[:-1]
        else:
            th = desc.theta()
            extra = (1 + th) / 3 if desc.k > 1 else desc.rational(Fraction(1, 7))
            A = A + [extra]
            if lam.is_integer and desc.k == 1:
                # integer dilations accept any rational directions: move
                # to an irrational dilation to force a genuine rejection
                desc = field_make(2, 2)
                lam = desc.theta()
                A = [desc.rational(Fraction(a.coeffs[0])) for a in A]
    return A, lam


def instance_batch(count: int, seed: int):
    """Alternating accepted / rejected templates."""
    rng = random.Random(seed)
    return [random_instance(rng, want_accepted=(i % 2 == 0)) for i in range(count)]


def accepted_batch(count: int, seed: int):
    """Accepted templates only, integer dilations capped at 6."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = rng.randint(0, 2)
        if kind == 0:
            lam = QQ.rational(rng.randint(2, 6))
            A = [QQ.rational(_rand_positive_rational(rng))
                 for _ in range(rng.randint(1, 4))]
        elif kind == 1:
            _, lam, A = _chain_template(rng, 4)
        else:
            _, lam, A = _cycle_template(rng)
        out.append((A, lam))
    return out


# ---------------------------------------------------------------------------
# s-variate family (s = 2, 3)


def _independent_vectors(rng: random.Random, s: int) -> list[tuple[int, ...]]:
    """s linearly independent small integer vectors: the unit vectors,
    sheared by one random integer combination."""
    vecs = [tuple(int(i == j) for j in range(s)) for i in range(s)]
    i, j = rng.sample(range(s), 2)
    t = rng.choice([-1, 1, 2])
    vecs[i] = tuple(a + t * b for a, b in zip(vecs[i], vecs[j]))
    return vecs


def mv_instance(rng: random.Random, want_accepted: bool):
    """(field, columns, lambda) for an s-variate box spline: per integer
    vector v, a chain or two-cycle along v (for the integer-dilation
    kind, one rational multiple of v), broken unless ``want_accepted``.

    The mask of an accepted instance has about n^s terms for the radicand
    n, so the radicands are kept small enough for one exact decision to
    stay below a second.
    """
    s = rng.choice([2, 2, 3])
    vecs = _independent_vectors(rng, s)
    kind = rng.randint(0, 2)
    if kind == 2 and s == 3:
        kind = 1  # the smallest two-cycle radicand (6) gives 216 terms
    if kind == 0:
        # integer dilation, rational columns: the library decides these
        # only when every column is an integer vector
        desc = QQ
        lam = desc.rational(rng.randint(2, 3))
        cols = []
        for v in vecs:
            r = Fraction(rng.randint(1, 2)) if rng.random() < 0.5 \
                else _rand_positive_rational(rng)
            cols.append([desc.rational(r * x) for x in v])
    elif kind == 1:
        desc = field_make(rng.choice([2, 3, 5, 6] if s == 2 else [2, 3]), 2)
        lam = desc.theta()
        cols = []
        for v in vecs:
            r = desc.rational(_rand_positive_rational(rng))
            cols.append([r * x for x in v])
            cols.append([r * lam * x for x in v])
    else:
        m = rng.choice([6, 8])
        p, _q = CYCLE_RADICANDS[m]
        desc = field_make(m, 2)
        lam = desc.theta()
        cols = []
        for v in vecs:
            r = desc.rational(_rand_positive_rational(rng))
            cols.append([r * x for x in v])
            cols.append([r * lam / p * x for x in v])

    if not want_accepted:
        breakage = rng.randint(0, 2)
        if breakage == 0 and not lam.is_integer:
            j = rng.randrange(len(cols))
            cols[j] = [x * Fraction(8, 7) for x in cols[j]]
        elif breakage == 1 and not lam.is_integer:
            cols = cols[:-1]
        else:
            v = vecs[rng.randrange(s)]
            if desc.k > 1:
                extra = (1 + desc.theta()) / 3
                cols = cols + [[extra * x for x in v]]
            else:
                # move to an irrational dilation, as the univariate
                # family does, to force a genuine rejection
                desc = field_make(2, 2)
                lam = desc.theta()
                cols = [[desc.rational(x.coeffs[0]) for x in col] for col in cols]
                cols.append([desc.rational(Fraction(x, 7)) for x in v])
    return desc, cols, lam


def mv_batch(count: int, seed: int):
    """Alternating accepted / rejected templates: (field, columns, lambda)."""
    rng = random.Random(seed)
    return [mv_instance(rng, want_accepted=(i % 2 == 0)) for i in range(count)]


# ---------------------------------------------------------------------------
# orbit certificates and decay probes


def certificate_task(rng: random.Random):
    """('erdos', lambda, targets, depth) or ('decay', degree, m, J, factor).

    A decay task probes the B-spline mask of degree d under m, half of
    them times a palindromic factor (a + b z + a z^2)/(2a + b) with
    |b| < 2a and b not in {0, +-a}: its unit-circle roots are not roots
    of unity, so the probe isolates them by Sturm bisection.
    """
    if rng.random() < 0.25:
        factor = None
        if rng.random() < 0.5:
            a = rng.randint(2, 3)
            factor = (a, rng.choice([b for b in range(1 - 2 * a, 2 * a)
                                     if b not in (0, a, -a)]))
        return ("decay", rng.randint(0, 3), rng.randint(2, 4),
                rng.choice([50, 100]), factor)
    if rng.random() < 0.5:
        q = rng.randint(1, 6)
        lam = QQ.rational(Fraction(rng.randint(q + 1, 12 * q), q))
    else:
        n = rng.choice(SQUARE_FREE_K2)
        lam = field_make(n, 2).theta()
    n_targets = rng.randint(1, 2)
    den = rng.randint(1, 5)
    targets = sorted({Fraction(rng.randrange(den), den) for _ in range(n_targets)})
    return ("erdos", lam, targets, rng.randint(2, 24))


def certificate_batch(count: int, seed: int):
    rng = random.Random(seed)
    return [certificate_task(rng) for _ in range(count)]
