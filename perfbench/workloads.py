"""The four benchmark workloads (``BENCHMARK.json`` gates the first three).

A workload is a fixed template batch, drawn once by the frozen generators
in ``gen.py`` at a fixed template seed, that the run seed then varies:

* every direction of an item is multiplied by one positive rational
  scale (skipped where it could change which columns are integer);
* single directions are negated;
* a certificate target r is replaced by r + k for an integer k (the
  same target class r + Z), a decay mask H by z^k H;
* the order of the items is shuffled.

None of these changes a verdict, the division structure or the number
of terms, so the cost profile of a batch is the same for every seed
while every exponent, mask and witness the program produces changes
with it.  The timed run draws a new variant of an item for each pass in
which it is timed again (``vary_items``), so no repeat repeats an
input.  Fresh draws per seed are not used: a single rejected four- or
five-column instance can cost seconds, so the cost of a fresh batch
swings by tens of percent from seed to seed.

Each item has a product call (``run``), timed, and an independent
check (``check``), untimed; ``canon`` gives the canonical text of the
product for the output digest and ``verdict`` the part of it that no
variant may change.  An item still running after the workload's
``deadline_s`` fails.  Library functions are always looked up
on their module at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import gen
from refinable import exactreal, powermod, qtrig, refinery, splinecore
from refinable.exactreal import FieldElement

TEMPLATE_SEED = 777


class CheckFailed(Exception):
    """An item's output failed its independent check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _vary_scale(rng: random.Random) -> Fraction:
    # small scales: larger numerators and denominators slow the exact
    # arithmetic and would make the cost depend on the seed
    return rng.choice((Fraction(1, 2), Fraction(1), Fraction(2)))


def _oracle_bound(n_cols: int, lam: FieldElement) -> int:
    """The criterion-3 bound 20 n lambda^k, k the least integer power."""
    k = refinery.minimal_integer_power(lam)
    return 20 * n_cols * (lam ** k).as_integer()


def _check_oracle(A, lam, refinable: bool) -> None:
    rep = refinery.coverage_oracle(A, lam, _oracle_bound(len(A), lam))
    _require(rep.consistent == refinable, "coverage oracle disagrees with the verdict")


@dataclass
class Item:
    index: int  # position in the template batch (digest order)
    data: tuple
    template: tuple


# ---------------------------------------------------------------------------
# univariate decisions


def _vary_univariate(rng: random.Random, A, lam):
    scale = _vary_scale(rng)
    return [a * scale * rng.choice((1, -1)) for a in A], lam


def _report_verdict(report) -> str:
    return f"refinable={report.refinable}"


class DecideMixed:
    name = "decide-mixed"
    deadline_s = 60.0
    verdict = staticmethod(_report_verdict)

    def templates(self):
        return gen.instance_batch(200, TEMPLATE_SEED)

    def vary(self, rng, template):
        return _vary_univariate(rng, *template)

    def warmup(self):
        _desc, lam, A = refinery.counterexample_instance()
        refinery.decide_univariate(A, lam)

    def run(self, data):
        A, lam = data
        return refinery.decide_univariate(A, lam)

    def check(self, data, report) -> None:
        _check_oracle(*data, report.refinable)

    def canon(self, report) -> str:
        return json.dumps(report.to_jsonable(), sort_keys=True)


class MasksAccepted:
    name = "masks-accepted"
    deadline_s = 60.0

    grid, iters, J, points = 1024, 30, 40, 100

    def templates(self):
        _desc, lam, A = refinery.counterexample_instance()
        return [(list(A), lam)] + gen.accepted_batch(100, TEMPLATE_SEED)

    def vary(self, rng, template):
        A, lam = _vary_univariate(rng, *template)
        w = np.array([rng.uniform(-50.0, 50.0) for _ in range(self.points)])
        return A, lam, w

    def warmup(self):
        _desc, lam, A = refinery.counterexample_instance()
        rep = refinery.decide_univariate(A, lam)
        splinecore.cascade_solve(rep.mask, grid_size=64, iters=2)
        splinecore.fourier_product_f64(rep.mask, np.linspace(-1.0, 1.0, 4), 2)

    def run(self, data):
        A, lam, w = data
        rep = refinery.decide_univariate(A, lam)
        if rep.mask is None:
            return rep, None, None
        grid = splinecore.cascade_solve(rep.mask, grid_size=self.grid, iters=self.iters)
        prod = splinecore.fourier_product_f64(rep.mask, w, self.J)
        return rep, grid, prod

    def check(self, data, out) -> None:
        A, lam, w = data
        rep, grid, prod = out
        _require(rep.refinable, "accepted template rejected")
        _check_oracle(A, lam, True)
        _require(all(abs(v - 1.0) <= 1e-9 for v in grid.meta["integrals"]),
                 "cascade integral invariant fails")
        # criterion 7 with the truncation tail made exact:
        # prod_{j<=J} H(w/lambda^j) * B^(w/lambda^J) = B^(w)
        spec = splinecore.BoxSplineSpec.univariate(rep.mask.desc, rep.normalized_columns)
        tail = splinecore.boxspline_ft_f64(spec, w / float(lam) ** self.J)
        closed = splinecore.boxspline_ft_f64(spec, w)
        dev = float(np.max(np.abs(prod * tail - closed)))
        _require(dev <= 1e-8, f"Fourier product deviates from the closed form by {dev:.3g}")

    def canon(self, out) -> str:
        return json.dumps(out[0].to_jsonable(), sort_keys=True)

    def verdict(self, out) -> str:
        return _report_verdict(out[0])


# ---------------------------------------------------------------------------
# orbit certificates and decay probes


class CertifyOrbits:
    name = "certify-orbits"
    # the slowest task that finishes takes about 0.3 s; some certificates
    # for lambda in Q(sqrt n) run far longer (see README.md)
    deadline_s = 1.0

    def templates(self):
        return gen.certificate_batch(100, TEMPLATE_SEED)

    def vary(self, rng, template):
        if template[0] == "decay":
            return template + (rng.randint(-2, 2),)
        kind, lam, targets, depth = template
        return kind, lam, [r + rng.randint(-1, 1) for r in targets], depth

    @staticmethod
    def decay_mask(degree: int, m: int, factor, shift: int = 0):
        mask = splinecore.bspline_mask(degree, m)
        H = mask.H.shift(shift)
        if factor is None:
            return splinecore.MaskSpec(mask.lam, H)
        a, b = factor
        q = qtrig.QTrigPoly(exactreal.QQ, {exactreal.QQ.rational(e): Fraction(c, 2 * a + b)
                                           for e, c in enumerate((a, b, a))})
        return splinecore.MaskSpec(mask.lam, H * q)

    def warmup(self):
        cert = powermod.erdos_construct(2, [0], 2)
        powermod.erdos_verify(cert)
        refinery.decay_probe(self.decay_mask(0, 2, (2, 1)), J=4)

    def run(self, data):
        if data[0] == "decay":
            _, degree, m, J, factor, shift = data
            return refinery.decay_probe(self.decay_mask(degree, m, factor, shift), J=J)
        _, lam, targets, depth = data
        cert = powermod.erdos_construct(lam, targets, depth)
        return cert, powermod.erdos_verify(cert)

    def check(self, data, out) -> None:
        if data[0] == "decay":
            _, degree, m, J, factor, shift = data
            _require(out.epsilon0 > 0, "decay floor not positive")
            again = refinery.decay_probe(self.decay_mask(degree, m, factor, shift), J=J)
            _require(again.to_jsonable() == out.to_jsonable(),
                     "repeated decay probe differs")
            return
        cert, rep = out
        _require(rep.certified, "certificate not certified: " + "; ".join(rep.failures[:2]))

    def verdict(self, out) -> str:
        if isinstance(out, tuple):
            return f"certified={out[1].certified}"
        return f"positive={out.epsilon0 > 0}"

    def canon(self, out) -> str:
        if isinstance(out, tuple):
            cert, rep = out
            body = {"certificate": cert.to_jsonable(), "verify": rep.to_jsonable()}
        else:
            body = out.to_jsonable()
        return json.dumps(body, sort_keys=True)


# ---------------------------------------------------------------------------
# s-variate decisions


def _dot(probe, col, desc):
    return sum((p * x for p, x in zip(probe, col)), desc.zero())


def _slice_poly(mask, probe, desc):
    """The univariate slice w -> z * probe of an s-variate mask."""
    if isinstance(mask, refinery.MultivariateMaskSpec):
        return mask.H.substitute(probe)
    terms: dict = {}
    for d, c in mask.terms.items():
        e = desc.rational(sum(p * x for p, x in zip(probe, d)))
        terms[e] = terms.get(e, Fraction(0)) + c
    return qtrig.QTrigPoly(desc, terms)


class Decide2D:
    name = "decide-2d"
    deadline_s = 60.0
    verdict = staticmethod(_report_verdict)

    def templates(self):
        return [(desc, cols, lam, i % 2 == 0)
                for i, (desc, cols, lam) in enumerate(gen.mv_batch(40, TEMPLATE_SEED))]

    def vary(self, rng, template):
        desc, cols, lam, accepted = template
        # a rational scale could turn a rational matrix into an integer one
        scale = 1 if lam.is_integer else _vary_scale(rng)
        cols = [[x * scale * sign for x in col]
                for col, sign in ((c, rng.choice((1, -1))) for c in cols)]
        probes = []
        while len(probes) < 2:
            p = tuple(rng.randint(-3, 3) for _ in cols[0])
            if all(not _dot(p, col, desc).is_zero for col in cols):
                probes.append(p)
        return desc, cols, lam, accepted, probes

    def warmup(self):
        F = exactreal.field_make(2, 2)
        th = F.theta()
        spec = splinecore.BoxSplineSpec(F, [[1, 0], [0, 1], [th, 0], [0, th]])
        refinery.multivariate_decide(spec, th)

    def run(self, data):
        desc, cols, lam = data[:3]
        return refinery.multivariate_decide(splinecore.BoxSplineSpec(desc, cols), lam)

    def check(self, data, report) -> None:
        desc, cols, lam, accepted, probes = data
        _require(report.refinable or not accepted, "accepted template rejected")
        if not report.refinable:
            return
        # the mask belongs to the sign-normalized columns
        for p in probes:
            sliced = [_dot(p, col, desc) for col in report.normalized_columns]
            mask_w, _, shift_w = refinery.mask_construct_detailed(sliced, lam)
            _require(mask_w is not None, f"slice along {p} not refinable")
            _require(_slice_poly(report.mask, p, desc) == mask_w.H.shift(-shift_w),
                     f"mask sliced along {p} differs from the univariate mask")

    def canon(self, report) -> str:
        return json.dumps(report.to_jsonable(), sort_keys=True)


WORKLOADS = {w.name: w for w in (DecideMixed(), MasksAccepted(), CertifyOrbits(), Decide2D())}


def build(workload, seed: int) -> list[Item]:
    """The seed's variant of the template batch, in the seed's order."""
    rng = random.Random(seed)
    items = [Item(i, workload.vary(rng, t), t) for i, t in enumerate(workload.templates())]
    rng.shuffle(items)
    return items


def vary_items(workload, items: list[Item], seed: int, round_no: int) -> list[Item]:
    """A fresh variant of each item, the same for the same seed and round."""
    rng = random.Random(f"{seed}:{round_no}")
    return [Item(i.index, workload.vary(rng, i.template), i.template) for i in items]
