"""Decision procedures for the refinability of box splines.

Is B(x|A) (univariate) or B(x|M) (s-variate) refinable under a dilation
lambda > 1, and with which mask and translations?  The ground truth is
the exact sequential division

    prod_j (1 - E(lambda m_j, w))  /  prod_j (1 - E(m_j, w))

carried out binomial by binomial over residue classes of exponents: it
is unconditionally complete, and a failure yields a residue class with
nonzero coefficient sum as an independently checkable witness.  Only an
integer dilation of an integer matrix takes the classical
integer-dilation mask instead; a non-integer matrix under an integer
dilation goes through the general division like every other instance.
The structural view (per-column integer relations lambda m = p m_0,
cycles whose multiplier product is an exact power of lambda, chain
partitions (m_0, lambda m_0, ..., lambda^{k-1} m_0)) is a report
layered on top, not the decider; one relation search and one chain walk
serve scalar columns (s = 1) and vector columns (s >= 2) alike.

Also here: the polynomial divisibility test Q(z) | Q(z^m) for
integer-dilation spline masks, an independent zero-lattice coverage
oracle, a Fourier-decay probe combining mask roots with a power-orbit
avoidance certificate, and the fixed-instance indecomposability witness
for B(x | (1, sqrt(5/2))) under dilation sqrt(10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import mpmath
from mpmath import iv, mp

from . import polyq
from .errors import (
    CycleInconsistency,
    InvalidLambda,
    NonRationalTranslations,
    ProbeExhaustion,
    RefinabilityError,
    RootIsolationFailure,
)
from .exactreal import (
    FieldDescriptor,
    FieldElement,
    QQ,
    _iv_prec,
    int_ratio,
    iv_endpoints,
)
from .powermod import ErdosCertificate, erdos_construct, erdos_params
from .qtrig import BinomialDivisionWitness, ComplexBall, QTrigPoly
from .splinecore import BoxSplineSpec, MaskSpec, integer_dilation_box_mask

ExactScalar = Union[int, Fraction, FieldElement]


# ---------------------------------------------------------------------------
# input normalization


def _coords(c) -> tuple:
    """A column as a tuple of coordinates: a scalar column has one."""
    return c if isinstance(c, tuple) else (c,)


def _colmap(f, *cols):
    """f applied coordinate by coordinate to scalar or vector columns."""
    if isinstance(cols[0], tuple):
        return tuple(map(f, *cols))
    return f(*cols)


def _lead(c) -> Optional[int]:
    """Index of the first nonzero coordinate of a column (None if zero)."""
    return next((i for i, x in enumerate(_coords(c)) if not x.is_zero), None)


def _prepare(A: Sequence, lam: ExactScalar) -> tuple[FieldElement, tuple, tuple, object]:
    """Lift lambda and the columns into one field and normalize signs.

    A column is a scalar (Q(theta)) or a tuple of coordinates
    (Q(theta)^s).  Returns (lambda, lifted columns, normalized columns,
    shift): a column whose first nonzero coordinate is negative is
    negated.  1 - E(-m, w) = -E(-m, w) (1 - E(m, w)), so flipping a sign
    multiplies the mask by E(-(lambda-1) m, w): the true translations
    are the normalized ones minus the returned shift.
    """
    if isinstance(lam, FieldElement):
        desc = lam.desc
    else:
        desc = next((x.desc for a in A for x in _coords(a)
                     if isinstance(x, FieldElement)), QQ)

    def lift(x):
        return x if isinstance(x, FieldElement) else desc.rational(Fraction(x))

    lam_e = lift(lam)
    cols = tuple(_colmap(lift, a) for a in A)
    if not lam_e > 1:
        raise InvalidLambda("dilation must be > 1")
    norm = []
    shift = _colmap(lambda x: x.desc.zero(), cols[0])
    for c in cols:
        i0 = _lead(c)
        if i0 is None:
            raise ValueError("directions must be nonzero")
        if _coords(c)[i0].sign() < 0:
            c = _colmap(lambda x: -x, c)
            shift = _colmap(lambda t, x: t + (lam_e - 1) * x, shift, c)
        norm.append(c)
    return lam_e, cols, tuple(norm), shift


def minimal_integer_power(lam: FieldElement) -> Optional[int]:
    """Least k >= 1 with lambda^k an integer, or None.

    A power search up to the field degree is complete: if lambda^K is an
    integer z with K minimal, then z is not a perfect p-th power for any
    prime p | K, so x^K - z is irreducible and K = [Q(lambda):Q] divides
    the field degree.
    """
    power = lam
    for k in range(1, lam.desc.k + 1):
        if power.is_integer:
            return k
        power = power * lam
    return None


# ---------------------------------------------------------------------------
# mask construction by sequential binomial division


@dataclass(frozen=True)
class MaskWitness:
    """Why the division failed: the offending denominator column and the
    residue class with nonzero coefficient sum."""

    column_index: int
    column: FieldElement
    inner: BinomialDivisionWitness

    def describe(self) -> str:
        return (f"dividing by 1 - E({self.column.to_text()}) fails: "
                f"{self.inner.describe()}")

    def to_jsonable(self) -> dict:
        return {
            "column_index": self.column_index,
            "column": self.column.to_text(),
            "class_base": self.inner.base.to_text(),
            "class_sum": str(self.inner.class_sum),
            "class_offsets": {str(k): str(v) for k, v in self.inner.offsets.items()},
        }


def mask_construct_detailed(A: Sequence[ExactScalar], lam: ExactScalar
                            ) -> tuple[Optional[MaskSpec], Optional[MaskWitness],
                                       FieldElement]:
    """Expand prod (1 - E(lambda m_j)) and divide out each (1 - E(m_j)).

    Returns (mask, witness, translation_shift): exactly one of mask and
    witness is set.  On success the quotient has rational coefficient
    sum equal to lambda^n exactly, and H is the quotient normalized to
    H(0) = 1.
    """
    lam_e, _, cols, shift = _prepare(A, lam)
    desc = lam_e.desc
    num = QTrigPoly.constant(desc)
    for m in cols:
        num = num * QTrigPoly.binomial(desc, lam_e * m)
    quotient = num
    for idx, m in enumerate(cols):
        verdict = quotient._divide_binomial_classes(m)
        if isinstance(verdict, BinomialDivisionWitness):
            return None, MaskWitness(idx, m, verdict), shift
        quotient = verdict
    total = quotient.coefficient_sum()
    lam_n = lam_e ** len(cols)
    if not (lam_n.is_rational and lam_n.as_fraction() == total):
        raise CycleInconsistency(
            f"quotient sum {total} != lambda^n = {lam_n}")  # unreachable
    return MaskSpec(lam_e, quotient.scale(1 / total)), None, shift


def mask_construct(A: Sequence[ExactScalar], lam: ExactScalar) -> Optional[MaskSpec]:
    """The mask of B(x|A) under lambda, or None when not refinable."""
    mask, _, _ = mask_construct_detailed(A, lam)
    return mask


def verify_mask_identity(A: Sequence[ExactScalar], lam: ExactScalar,
                         mask: MaskSpec) -> bool:
    """Exact check of prod Q(lambda m_j w) = lambda^n H(w) prod Q(m_j w)."""
    lam_e, _, cols, _ = _prepare(A, lam)
    lam_n = lam_e ** len(cols)
    if not lam_n.is_rational:
        return False
    # one binomial at a time: P * (1 - E(m)) = P - E(m) P
    num = QTrigPoly.constant(lam_e.desc)
    rhs = mask.H.scale(lam_n.as_fraction())
    for m in cols:
        num = num - num.shift(lam_e * m)
        rhs = rhs - rhs.shift(m)
    return num == rhs


# ---------------------------------------------------------------------------
# structural conditions


@dataclass(frozen=True)
class ColumnRelation:
    """lambda * A[target] = p * A[source]: the successor relation."""

    source: int
    target: int
    p: int


@dataclass(frozen=True)
class ConditionBResult:
    relations: tuple[tuple[ColumnRelation, ...], ...]  # indexed by source
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def successor(self, i: int) -> ColumnRelation:
        return self.relations[i][0]

    def to_jsonable(self) -> dict:
        return {
            "ok": self.ok,
            "relations": [[{"target": r.target, "p": r.p} for r in rs]
                          for rs in self.relations],
            "violations": list(self.violations),
        }


def condition_B(A: Sequence, lam: ExactScalar) -> ConditionBResult:
    """For each column m_0, all columns m with m = p m_0 / lambda, p in Z.

    Columns are scalars or vectors (tuples of coordinates).  The first
    listed relation per column is the deterministic successor used by
    chain extraction.
    """
    lam_e, _, cols, _ = _prepare(A, lam)
    return _column_relations(cols, lam_e)


def _column_ratio(a, b) -> Optional[int]:
    """The integer p with a = p * b for scalar or vector columns, if any."""
    a, b = _coords(a), _coords(b)
    i0 = _lead(b)
    p = int_ratio(a[i0], b[i0])
    if p is None or any(x != p * y for i, (x, y) in enumerate(zip(a, b)) if i != i0):
        return None
    return p


def _column_relations(cols: Sequence, lam: FieldElement) -> ConditionBResult:
    """condition_B on lifted, sign-normalized columns."""
    lam_cols = [_colmap(lambda x: lam * x, m) for m in cols]
    relations = []
    violations = []
    for i, m0 in enumerate(cols):
        found = []
        for j, lam_m in enumerate(lam_cols):
            p = _column_ratio(lam_m, m0)
            if p is not None:
                found.append(ColumnRelation(i, j, p))
        if not found:
            violations.append(i)
        relations.append(tuple(found))
    return ConditionBResult(tuple(relations), tuple(violations))


@dataclass(frozen=True)
class ChainStructure:
    """Cycle and chain view of an instance satisfying the per-column
    integer relation."""

    l: int
    k: Optional[int]
    successor: tuple[int, ...]        # deterministic successor per column
    cycle: tuple[int, ...]            # cycle reached from column 0
    cycle_multipliers: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]  # all successor cycles
    subvector: tuple  # (v, v p_1/lambda, ..., v p_{l-1}/lambda^{l-1})
    subvector_multipliers: tuple[int, ...]  # cumulative p_1 | p_2 | ... | lambda^l
    partition: Optional[tuple[tuple[int, ...], ...]]

    def to_jsonable(self) -> dict:
        return {
            "l": self.l,
            "k": self.k,
            "successor": list(self.successor),
            "cycle": list(self.cycle),
            "cycle_multipliers": list(self.cycle_multipliers),
            "cycles": [list(c) for c in self.cycles],
            "subvector": [v.to_text() if isinstance(v, FieldElement)
                          else [x.to_text() for x in v]
                          for v in self.subvector],
            "subvector_multipliers": list(self.subvector_multipliers),
            "partition": None if self.partition is None
            else [list(c) for c in self.partition],
        }


def _all_cycles(successor: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of a successor map, each rotated to start at its
    smallest index, listed by that index."""
    n = len(successor)
    cycles = []
    seen_global: set[int] = set()
    for start in range(n):
        if start in seen_global:
            continue
        seen: dict[int, int] = {}
        i = start
        while i not in seen and i not in seen_global:
            seen[i] = len(seen)
            i = successor[i]
        if i in seen:  # new cycle
            order = sorted(seen, key=seen.get)
            cyc = order[seen[i]:]
            lo = cyc.index(min(cyc))
            cycles.append(tuple(cyc[lo:] + cyc[:lo]))
        seen_global.update(seen)
    cycles.sort()
    return tuple(cycles)


def chain_structure(A: Sequence, lam: ExactScalar) -> ChainStructure:
    """Follow successor relations to a cycle; check the multiplier laws.

    Columns are scalars or vectors (tuples of coordinates).  The cycle
    multipliers satisfy prod p_i = lambda^l exactly, the cumulative
    multipliers divide each other in turn and the last divides
    lambda^l.  When the columns split into chains
    (m_0, lambda m_0, ..., lambda^{k-1} m_0) the partition is returned.
    """
    lam_e, _, cols, _ = _prepare(A, lam)
    return _chain_walk(cols, lam_e, _column_relations(cols, lam_e))


def _chain_walk(cols: Sequence, lam_e: FieldElement,
                condb: ConditionBResult) -> ChainStructure:
    """chain_structure on lifted, sign-normalized columns and their
    relations."""
    if not condb.ok:
        raise RefinabilityError(
            f"per-column relation fails at columns {condb.violations}")

    # walk successors from column 0 until an index repeats
    successor = tuple(condb.successor(i).target for i in range(len(cols)))
    seen: dict[int, int] = {}
    order = []
    i = 0
    while i not in seen:
        seen[i] = len(order)
        order.append(i)
        i = successor[i]
    cycle = tuple(order[seen[i]:])
    multipliers = tuple(condb.successor(j).p for j in cycle)
    l = len(cycle)
    prod = 1
    for p in multipliers:
        prod *= p
    lam_l = lam_e ** l
    if not (lam_l.is_rational and lam_l.as_fraction() == prod):
        raise CycleInconsistency(
            f"cycle multiplier product {prod} != lambda^{l}")

    k = minimal_integer_power(lam_e)

    # sub-vector (v, v p_1 / lambda, ..., v p_{l-1} / lambda^{l-1})
    v = cols[cycle[0]]
    cumulative = []
    sub = [v]
    acc = 1
    lam_pow = lam_e.desc.one()
    for p in multipliers[:-1]:
        acc *= p
        cumulative.append(acc)
        lam_pow = lam_pow * lam_e
        sub.append(_colmap(lambda x: x * acc / lam_pow, v))
    for a, b in zip(cumulative, cumulative[1:]):
        if b % a != 0:
            raise CycleInconsistency(f"multiplier divisibility fails: {a} | {b}")
    if cumulative and prod % cumulative[-1] != 0:
        raise CycleInconsistency("last multiplier does not divide lambda^l")

    partition = None
    if k is not None:
        partition = _partition_into_chains(cols, lam_e, k)
    return ChainStructure(l=l, k=k, successor=successor, cycle=cycle,
                          cycle_multipliers=multipliers,
                          cycles=_all_cycles(successor),
                          subvector=tuple(sub),
                          subvector_multipliers=tuple(cumulative),
                          partition=partition)


def _partition_into_chains(cols: Sequence, lam: FieldElement,
                           k: int) -> Optional[tuple[tuple[int, ...], ...]]:
    """Greedy partition into chains (m, lambda m, ..., lambda^{k-1} m).

    A chain lies on one ray, so the columns are first grouped by ray (a
    scalar instance is a single ray).  Along a ray every column is
    given by its coordinate at the ray's leading index, which is
    positive after sign normalization, so the smallest remaining value
    must head a chain in any valid partition; the greedy choice is
    complete.
    """
    rays: list[tuple[tuple, int, list[int]]] = []
    for idx, col in enumerate(cols):
        c = _coords(col)
        for base, i0, members in rays:
            if all(x * base[i0] == y * c[i0]
                   for i, (x, y) in enumerate(zip(c, base)) if i != i0):
                members.append(idx)
                break
        else:
            rays.append((c, _lead(c), [idx]))
    chains = []
    for _, i0, members in rays:
        if len(members) % k != 0:
            return None
        value = {i: _coords(cols[i])[i0] for i in members}
        remaining = set(members)
        while remaining:
            head = min(remaining, key=lambda i: (value[i], i))
            chain = [head]
            remaining.discard(head)
            cur = value[head]
            for _ in range(k - 1):
                cur = lam * cur
                j = next((t for t in sorted(remaining) if value[t] == cur), None)
                if j is None:
                    return None
                chain.append(j)
                remaining.discard(j)
            chains.append(tuple(chain))
    return tuple(chains)


# ---------------------------------------------------------------------------
# univariate decision report


@dataclass(frozen=True)
class RefinabilityReport:
    """Verdict plus everything needed to re-check it independently."""

    refinable: bool
    lam: FieldElement
    columns: tuple
    normalized_columns: tuple
    translation_shift: object
    mask: Optional[object]
    witness: Optional[object]
    condition_flags: dict
    chains: Optional[ChainStructure]
    identity_checked: bool
    notes: tuple[str, ...] = ()

    @property
    def verdict(self) -> str:
        return "refinable" if self.refinable else "not_refinable"

    def to_jsonable(self) -> dict:
        def col_text(c):
            if isinstance(c, FieldElement):
                return c.to_text()
            return [x.to_text() for x in c]

        return {
            "verdict": self.verdict,
            "lambda": self.lam.to_text(),
            "field": {"n": self.lam.desc.n, "k": self.lam.desc.k},
            "columns": [col_text(c) for c in self.columns],
            "normalized_columns": [col_text(c) for c in self.normalized_columns],
            "translation_shift": (
                self.translation_shift.to_text()
                if isinstance(self.translation_shift, FieldElement)
                else [x.to_text() for x in self.translation_shift]),
            "mask": None if self.mask is None else self.mask.to_jsonable(),
            "witness": None if self.witness is None else self.witness.to_jsonable(),
            "condition_flags": self.condition_flags,
            "chains": None if self.chains is None else self.chains.to_jsonable(),
            "identity_checked": self.identity_checked,
            "notes": list(self.notes),
        }


def decide_univariate(A: Sequence[ExactScalar], lam: ExactScalar) -> RefinabilityReport:
    """Full univariate decision: division verdict + structural report."""
    lam_e, cols, norm_cols, shift = _prepare(A, lam)
    mask, witness, _ = mask_construct_detailed(norm_cols, lam_e)

    k = minimal_integer_power(lam_e)
    condb = condition_B(norm_cols, lam_e)
    flags: dict = {"A": k is not None, "B": condb.ok, "C": None, "D": None}
    chains = None
    notes = []
    if condb.ok:
        chains = chain_structure(norm_cols, lam_e)
        flags["C"] = bool(chains.subvector)
        flags["D"] = chains.partition is not None
    identity = False
    if mask is not None:
        identity = verify_mask_identity(norm_cols, lam_e, mask)
        if not identity:
            raise CycleInconsistency("mask identity failed after division")
    if mask is not None and not condb.ok:
        notes.append("division accepted but a per-column relation is missing")
    return RefinabilityReport(
        refinable=mask is not None,
        lam=lam_e, columns=cols, normalized_columns=norm_cols,
        translation_shift=shift, mask=mask, witness=witness,
        condition_flags=flags, chains=chains, identity_checked=identity,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# integer-translation spline test: Q(z) | Q(z^m)


@dataclass(frozen=True)
class LawtonResult:
    refinable: bool
    Q: polyq.Poly
    quotient: Optional[polyq.Poly]
    remainder: Optional[polyq.Poly]

    def to_jsonable(self) -> dict:
        return {
            "refinable": self.refinable,
            "Q": [str(c) for c in self.Q],
            "quotient": None if self.quotient is None else [str(c) for c in self.quotient],
            "remainder": None if self.remainder is None else [str(c) for c in self.remainder],
        }


def lawton_check(p: Sequence[Union[int, Fraction]], d: int, m: int) -> LawtonResult:
    """Does Q(z) = (z-1)^(d+1) sum_n p_n z^n divide Q(z^m)?  Exact.

    Decides whether sum_n p_n B_d(x - n) (up to the canonical shift) is
    refinable under the integer dilation m; returns the quotient or the
    nonzero remainder.
    """
    if m < 2:
        raise InvalidLambda("integer dilation must be >= 2")
    pp = polyq.pnorm(list(p))
    if not pp:
        raise ValueError("p must be nonzero")
    zm1 = polyq.pnorm([-1, 1])  # z - 1
    Q = polyq.pmul(polyq.ppow(zm1, d + 1), pp)
    Qm = polyq.pcompose_power(Q, m)
    quot, rem = polyq.pdivmod(Qm, Q)
    if rem:
        return LawtonResult(False, Q, None, rem)
    return LawtonResult(True, Q, quot, None)


# ---------------------------------------------------------------------------
# zero-lattice coverage oracle


@dataclass(frozen=True)
class CoverageReport:
    consistent: bool
    bound: int
    uncovered: Optional[dict]

    def to_jsonable(self) -> dict:
        return {"consistent": self.consistent, "bound": self.bound,
                "uncovered": self.uncovered}


def coverage_oracle(A: Sequence[ExactScalar], lam: ExactScalar,
                    bound: int) -> CoverageReport:
    """Finite independent check of denominator-zero coverage.

    For every denominator zero w = I/m_j with 1 <= I <= bound, the
    numerator zero multiplicity #{l : lambda m_l w in Z\\0} must be at
    least the denominator multiplicity #{j' : m_j' w in Z\\0}.  The
    multiplicity tests reduce to exact divisibility: m_j' (I/m_j) in Z
    iff den(m_j'/m_j) | I when the ratio is rational (never, otherwise).
    Signs are symmetric, so positive I suffice.
    """
    lam_e, _, cols, _ = _prepare(A, lam)
    n = len(cols)
    den_mod: list[list[Optional[int]]] = []
    num_mod: list[list[Optional[int]]] = []
    for j in range(n):
        dm, nm = [], []
        for other in range(n):
            ratio = cols[other] / cols[j]
            dm.append(ratio.as_fraction().denominator if ratio.is_rational else None)
            ratio_n = lam_e * cols[other] / cols[j]
            nm.append(ratio_n.as_fraction().denominator if ratio_n.is_rational else None)
        den_mod.append(dm)
        num_mod.append(nm)
    for j in range(n):
        for I in range(1, bound + 1):
            den_mult = sum(1 for q in den_mod[j] if q is not None and I % q == 0)
            num_mult = sum(1 for q in num_mod[j] if q is not None and I % q == 0)
            if num_mult < den_mult:
                w = cols[j].desc.rational(I) / cols[j]
                return CoverageReport(False, bound, {
                    "column": j, "I": I, "w": w.to_text(),
                    "denominator_multiplicity": den_mult,
                    "numerator_multiplicity": num_mult,
                })
    return CoverageReport(True, bound, None)

# ---------------------------------------------------------------------------
# multivariate quasi-trigonometric polynomials (vector exponents)


class MvQTrigPoly:
    """Finite sum of c * exp(-2 pi i w . d) with vector exponents d in
    Q(theta)^s and rational coefficients; just enough algebra for the
    s-variate mask division."""

    __slots__ = ("desc", "s", "terms")

    def __init__(self, desc: FieldDescriptor, s: int,
                 terms: dict[tuple, Fraction]):
        clean: dict[tuple, Fraction] = {}
        for d, c in terms.items():
            c = Fraction(c)
            if c != 0:
                clean[d] = clean.get(d, Fraction(0)) + c
        self.desc = desc
        self.s = s
        self.terms = {d: c for d, c in clean.items() if c != 0}

    @staticmethod
    def constant(desc: FieldDescriptor, s: int) -> "MvQTrigPoly":
        zero = tuple(desc.zero() for _ in range(s))
        return MvQTrigPoly(desc, s, {zero: Fraction(1)})

    @staticmethod
    def binomial(desc: FieldDescriptor, v: tuple) -> "MvQTrigPoly":
        zero = tuple(desc.zero() for _ in range(len(v)))
        return MvQTrigPoly(desc, len(v), {zero: Fraction(1), v: Fraction(-1)})

    def __mul__(self, other: "MvQTrigPoly") -> "MvQTrigPoly":
        out: dict[tuple, Fraction] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                d = tuple(a + b for a, b in zip(d1, d2))
                out[d] = out.get(d, Fraction(0)) + c1 * c2
        return MvQTrigPoly(self.desc, self.s, out)

    def scale(self, q: Fraction) -> "MvQTrigPoly":
        return MvQTrigPoly(self.desc, self.s,
                           {d: c * q for d, c in self.terms.items()})

    def coefficient_sum(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MvQTrigPoly):
            return NotImplemented
        return self.s == other.s and self.terms == other.terms

    def __hash__(self):
        raise TypeError("MvQTrigPoly is unhashable")

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        return [(d, self.terms[d]) for d in sorted(self.terms)]

    def substitute(self, probe: Sequence[int]) -> QTrigPoly:
        """The univariate slice w -> z * probe: exponents become probe . d."""
        out: dict[FieldElement, Fraction] = {}
        for d, c in self.terms.items():
            e = self.desc.zero()
            for w0, x in zip(probe, d):
                e = e + w0 * x
            out[e] = out.get(e, Fraction(0)) + c
        return QTrigPoly(self.desc, out)

    def divide_binomial(self, v: tuple):
        """Quotient by 1 - E(v, .) or an MvMaskWitness.

        Residue classes are exponent differences in v*Z.  With q = d_i/v_i
        on the first nonzero coordinate i of v, each term is keyed by its
        class representative d - floor(q_0) v, and its offset in the class
        is floor(q_0) - floor(q_0(base)).  Classes keep first-seen order
        with the first-seen term as base.
        """
        i0 = next(i for i, x in enumerate(v) if not x.is_zero)
        inv = v[i0].inverse()
        classes: dict[tuple, tuple[tuple, int, dict[int, Fraction]]] = {}
        for d, c in self.terms.items():
            q0 = (d[i0] * inv).coeffs[0]
            t = q0.numerator // q0.denominator
            rep = tuple(x - t * y for x, y in zip(d, v))
            cls = classes.get(rep)
            if cls is None:
                classes[rep] = (d, t, {0: c})
            else:
                cls[2][t - cls[1]] = c
        out: dict[tuple, Fraction] = {}
        for base, _, offsets in classes.values():
            total = sum(offsets.values(), Fraction(0))
            if total != 0:
                return MvDivisionWitness(base=base, divisor=v, class_sum=total)
            lo, hi = min(offsets), max(offsets)
            acc = Fraction(0)
            for t in range(lo, hi):
                acc += offsets.get(t, Fraction(0))
                if acc != 0:
                    key = tuple(b + t * vi for b, vi in zip(base, v))
                    out[key] = acc
        return MvQTrigPoly(self.desc, self.s, out)


@dataclass(frozen=True)
class MvDivisionWitness:
    base: tuple
    divisor: tuple
    class_sum: Fraction

    def describe(self) -> str:
        base = ", ".join(x.to_text() for x in self.base)
        div = ", ".join(x.to_text() for x in self.divisor)
        return (f"class of exponent ({base}) modulo ({div})*Z has "
                f"coefficient sum {self.class_sum} != 0")

    def to_jsonable(self) -> dict:
        return {
            "class_base": [x.to_text() for x in self.base],
            "divisor": [x.to_text() for x in self.divisor],
            "class_sum": str(self.class_sum),
        }


@dataclass(frozen=True)
class MvMaskWitness:
    column_index: int
    column: tuple
    inner: MvDivisionWitness
    probe: Optional[tuple[int, ...]] = None

    def describe(self) -> str:
        col = ", ".join(x.to_text() for x in self.column)
        where = f" (probe {self.probe})" if self.probe else ""
        return f"dividing by 1 - E(({col})) fails{where}: {self.inner.describe()}"

    def to_jsonable(self) -> dict:
        return {
            "column_index": self.column_index,
            "column": [x.to_text() for x in self.column],
            "probe": None if self.probe is None else list(self.probe),
            "inner": self.inner.to_jsonable(),
        }


@dataclass(frozen=True)
class MultivariateMaskSpec:
    """An s-variate mask: dilation lambda plus H with vector exponents."""

    lam: FieldElement
    H: MvQTrigPoly

    @property
    def s(self) -> int:
        return self.H.s

    def translations(self) -> list[tuple]:
        return [d for d, _ in self.H.sorted_terms()]

    def to_jsonable(self) -> dict:
        desc = self.lam.desc
        return {
            "field": {"n": desc.n, "k": desc.k},
            "s": self.s,
            "lambda": self.lam.to_text(),
            "terms": [
                {"coefficient": str(c),
                 "exponent": [x.to_text() for x in d],
                 "exponent_decimal": [f"{float(x):.17g}" for x in d]}
                for d, c in self.H.sorted_terms()
            ],
        }


# ---------------------------------------------------------------------------
# probes and the s-variate decision


def _probe_vectors(s: int):
    """Integer vectors ordered by sup-norm shell, then lexicographically."""
    from itertools import product as iproduct

    r = 1
    while True:
        shell = [v for v in iproduct(range(-r, r + 1), repeat=s)
                 if max(abs(x) for x in v) == r]
        shell.sort()
        yield from shell
        r += 1
        if r > 1000:
            raise ProbeExhaustion("no admissible probes with sup-norm <= 1000")


def _rank_of_int_vectors(vecs: list[tuple[int, ...]], s: int) -> int:
    rows = [[Fraction(x) for x in v] for v in vecs]
    rank = 0
    for col in range(s):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [x / rows[rank][col] for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def admissible_probes(spec: BoxSplineSpec, spares: int = 2) -> list[tuple[int, ...]]:
    """s linearly independent integer probes avoiding every hyperplane
    w . m_j = 0 (exact test), plus the requested spares."""
    chosen: list[tuple[int, ...]] = []
    independent: list[tuple[int, ...]] = []
    for w0 in _probe_vectors(spec.s):
        if any(dot.is_zero for dot in _slice_directions(spec.columns, w0)):
            continue
        if _rank_of_int_vectors(independent + [w0], spec.s) > len(independent):
            independent.append(w0)
            chosen.append(w0)
        elif len(independent) == spec.s and len(chosen) < spec.s + spares:
            chosen.append(w0)
        if len(independent) == spec.s and len(chosen) >= spec.s + spares:
            return chosen
    raise ProbeExhaustion("probe enumeration exhausted")  # pragma: no cover


def _slice_directions(cols: Sequence[tuple], w0: tuple[int, ...]) -> tuple[FieldElement, ...]:
    """The directions w0 . m_j of the univariate slice w -> z * w0."""
    out = []
    for col in cols:
        dot = col[0].desc.zero()
        for wi, mi in zip(w0, col):
            dot = dot + wi * mi
        out.append(dot)
    return tuple(out)


def multivariate_decide(spec: BoxSplineSpec, lam: ExactScalar) -> RefinabilityReport:
    """Refinability of B(x|M) for an s-variate direction matrix.

    Integer dilations of integer matrices delegate to the exact
    integer-dilation mask.  Every other instance, including a
    non-integer matrix under an integer dilation, goes through the
    general division: integer probe vectors slice the instance to
    univariate ones (each must be refinable), and the s-variate mask is
    built by the same exact binomial division with vector exponents and
    checked by re-multiplication.  Slices of the s-variate mask must
    reproduce the univariate masks exactly.  The column relations
    lambda m = p m_0 and the cycle/chain report come from the relation
    search and chain walk that condition_B and chain_structure use.
    """
    desc = spec.desc
    lam_e, _, cols, shift = _prepare(spec.columns, lam)

    if lam_e.is_integer and spec.is_integer_matrix():
        m = lam_e.as_integer()
        mask = integer_dilation_box_mask(spec, m)
        return RefinabilityReport(
            refinable=True, lam=lam_e, columns=spec.columns,
            normalized_columns=spec.columns,
            translation_shift=tuple(desc.zero() for _ in range(spec.s)),
            mask=mask, witness=None,
            condition_flags={"A": True, "B": True, "C": True, "D": True},
            chains=None, identity_checked=True,
            notes=("integer dilation: exact expansion of the classical mask",))

    condb = _column_relations(cols, lam_e)
    flags = {"A": minimal_integer_power(lam_e) is not None, "B": condb.ok,
             "C": None, "D": None}
    slice_masks: list[tuple[tuple[int, ...], MaskSpec, FieldElement]] = []
    for w0 in admissible_probes(spec):
        mask_w, witness_w, shift_w = mask_construct_detailed(
            _slice_directions(cols, w0), lam_e)
        if mask_w is None:
            mv_wit = MvMaskWitness(
                column_index=witness_w.column_index,
                column=cols[witness_w.column_index],
                inner=MvDivisionWitness(
                    base=(witness_w.inner.base,),
                    divisor=(witness_w.inner.divisor,),
                    class_sum=witness_w.inner.class_sum),
                probe=w0)
            return RefinabilityReport(
                refinable=False, lam=lam_e, columns=spec.columns,
                normalized_columns=cols, translation_shift=shift,
                mask=None, witness=mv_wit, condition_flags=flags,
                chains=None, identity_checked=False,
                notes=(f"slice along probe {w0} is not refinable",))
        slice_masks.append((w0, mask_w, shift_w))

    # s-variate mask by exact division
    num = MvQTrigPoly.constant(desc, spec.s)
    for col in cols:
        num = num * MvQTrigPoly.binomial(desc, _colmap(lambda x: lam_e * x, col))
    quotient = num
    witness = None
    for idx, col in enumerate(cols):
        verdict = quotient.divide_binomial(col)
        if isinstance(verdict, MvDivisionWitness):
            witness = MvMaskWitness(idx, col, verdict)
            break
        quotient = verdict
    if witness is not None:
        return RefinabilityReport(
            refinable=False, lam=lam_e, columns=spec.columns,
            normalized_columns=cols, translation_shift=shift, mask=None,
            witness=witness, condition_flags=flags, chains=None,
            identity_checked=False,
            notes=("slices succeeded but the s-variate division failed",))

    total = quotient.coefficient_sum()
    lam_n = lam_e ** spec.n
    if not (lam_n.is_rational and lam_n.as_fraction() == total):
        raise CycleInconsistency("s-variate quotient sum != lambda^n")
    H = quotient.scale(1 / total)
    mask = MultivariateMaskSpec(lam_e, H)

    # exact identity by re-multiplication
    den = MvQTrigPoly.constant(desc, spec.s)
    for col in cols:
        den = den * MvQTrigPoly.binomial(desc, col)
    if (H * den).scale(total) != num:
        raise CycleInconsistency("s-variate mask identity failed")

    # slice consistency: substitution gives the unnormalized slice mask,
    # i.e. the univariate mask with its sign-normalization shift undone
    notes = []
    for w0, mask_w, shift_w in slice_masks:
        if H.substitute(w0) != mask_w.H.shift(-shift_w):
            raise CycleInconsistency(
                f"s-variate mask sliced along {w0} differs from the "
                "univariate mask")
    notes.append(f"{len(slice_masks)} slices agree with the s-variate mask")

    chains = None
    if condb.ok:
        chains = _chain_walk(cols, lam_e, condb)
        flags["C"] = bool(chains.subvector)
        flags["D"] = chains.partition is not None
    return RefinabilityReport(
        refinable=True, lam=lam_e, columns=spec.columns,
        normalized_columns=cols, translation_shift=shift, mask=mask,
        witness=None, condition_flags=flags, chains=chains,
        identity_checked=True, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Fourier-decay probe


@dataclass(frozen=True)
class MaskRoot:
    """A real zero of H on [0, D0), as an exact rational or a certified
    rational enclosure of width <= 2*delta."""

    value: Fraction          # exact value, or enclosure midpoint
    delta: Fraction          # 0 for exact roots
    exact: bool
    order_hint: str = ""     # e.g. "cyclotomic(2)" or "algebraic"

    def to_jsonable(self) -> dict:
        return {"value": str(self.value), "delta": str(self.delta),
                "exact": self.exact, "kind": self.order_hint,
                "decimal": f"{float(self.value):.17g}"}


@dataclass(frozen=True)
class DecayReport:
    """Outcome of the decay probe: a point xi0 whose lambda-power orbit
    stays away from every real zero of H, an eps0 > 0 with
    |H(lambda^j xi0)| >= eps0 for j < J, and the smoothness level
    obstruction_k = ceil(log(1/eps0)/log lambda) beyond which the
    iterated product argument forces the transform to vanish at xi0."""

    D0: int
    roots: tuple[MaskRoot, ...]
    targets: tuple[Fraction, ...]
    margin: Fraction
    xi0_text: str
    xi0: float
    epsilon0: float
    obstruction_k: int
    J: int
    certificate: ErdosCertificate

    def to_jsonable(self) -> dict:
        return {
            "D0": self.D0,
            "roots": [r.to_jsonable() for r in self.roots],
            "targets": [str(t) for t in self.targets],
            "margin": str(self.margin),
            "xi0": self.xi0_text,
            "xi0_decimal": self.xi0,
            "epsilon0_lower_bound": self.epsilon0,
            "obstruction_k": self.obstruction_k,
            "J": self.J,
            "certificate": self.certificate.to_jsonable(),
        }


def _mask_unit_circle_roots(mask: MaskSpec, delta_cap: Fraction
                            ) -> tuple[int, list[MaskRoot]]:
    """All real zeros of H on [0, D0) for rational translations.

    With z = exp(-2 pi i w / D0), H becomes a polynomial P(z) with
    rational coefficients; real zeros of H correspond to unit-circle
    roots of P.  Cyclotomic factors give exact rational zeros l/n * D0;
    the remaining self-reciprocal factors are transformed by
    y = z + 1/z into exact polynomials over Q whose roots in (-2, 2) are
    isolated by Sturm bisection and mapped back through arccos with
    outward rounding.
    """
    import sympy

    exps = mask.translations
    if not all(d.is_rational for d in exps):
        raise NonRationalTranslations("decay probe needs rational translations")
    fracs = [d.as_fraction() for d in exps]
    D0 = 1
    for f in fracs:
        D0 = D0 * f.denominator // math.gcd(D0, f.denominator)
    coeffs: dict[int, Fraction] = {}
    for f, (_, c) in zip(fracs, mask.H.items()):
        e = int(f * D0)
        coeffs[e] = coeffs.get(e, Fraction(0)) + c
    low = min(coeffs)
    poly = [Fraction(0)] * (max(coeffs) - low + 1)
    for e, c in coeffs.items():
        poly[e - low] = c
    z = sympy.symbols("z")
    P = sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator)
                                  for c in poly])), z)
    roots: list[MaskRoot] = []
    _, factors = P.factor_list()
    for fac, _mult in factors:
        deg = fac.degree()
        if deg == 0:
            continue
        order = _cyclotomic_order(fac, deg)
        if order is not None:
            for l in range(order):
                if math.gcd(l, order) == 1 and order > 1:
                    roots.append(MaskRoot(Fraction(l, order) * D0, Fraction(0),
                                          True, f"cyclotomic({order})"))
            continue
        roots.extend(_self_reciprocal_roots(fac, D0, delta_cap))
    roots.sort(key=lambda r: r.value)
    return D0, roots


def _cyclotomic_order(fac, deg: int) -> Optional[int]:
    """The n with fac = Phi_n, or None (coefficient-list comparison)."""
    import sympy

    z = fac.gens[0]
    coeffs = [sympy.Rational(c) for c in fac.monic().all_coeffs()]
    bound = 2 * deg * deg + 6
    for n in range(1, bound + 1):
        if sympy.totient(n) == deg:
            cyc = sympy.Poly(sympy.cyclotomic_poly(n, z), z)
            if [sympy.Rational(c) for c in cyc.all_coeffs()] == coeffs:
                return n
    return None


def _self_reciprocal_roots(fac, D0: int, delta_cap: Fraction) -> list[MaskRoot]:
    """Unit-circle roots of a non-cyclotomic irreducible factor.

    Only self-reciprocal factors can have them (a unit-circle root z0
    makes 1/z0 = conj(z0) a root too).  The substitution y = z + 1/z
    turns fac(z)/z^(deg/2) into an exact polynomial C(y) over Q with
    simple roots; roots of C in (-2, 2) are isolated by Sturm bisection,
    narrowed by sign bisection, and pulled back to the angle pair
    {u, 1-u} via y = 2 cos(2 pi u) with outward rounding.
    """
    cs = [Fraction(int(c.numerator), int(c.denominator))
          for c in reversed(fac.all_coeffs())]  # ascending
    deg = len(cs) - 1
    if cs != list(reversed(cs)) or deg % 2 != 0:
        return []  # not palindromic: no unit-circle roots off +/-1
    D = deg // 2
    # fac(z)/z^D = cs[D] + sum_{t>=1} cs[D+t] (z^t + z^-t), z^t + z^-t = V_t(y)
    y = (Fraction(0), Fraction(1))
    V_prev: polyq.Poly = (Fraction(2),)
    V_cur: polyq.Poly = y
    C: polyq.Poly = (cs[D],)
    for t in range(1, D + 1):
        V = V_cur if t == 1 else polyq.psub(polyq.pmul(y, V_cur), V_prev)
        if t > 1:
            V_prev, V_cur = V_cur, V
        C = polyq.padd(C, polyq.pscale(V, cs[D + t]))

    width0 = Fraction(1, 1 << 16)
    lo, hi = Fraction(-2), Fraction(2)
    while polyq.peval_fraction(C, lo) == 0 or polyq.peval_fraction(C, hi) == 0:
        lo -= width0
        hi += width0

    def refine(ylo: Fraction, yhi: Fraction, target: Fraction):
        if ylo == yhi:
            return ylo, yhi
        slo = 1 if polyq.peval_fraction(C, ylo) > 0 else -1
        while yhi - ylo > target:
            mid = (ylo + yhi) / 2
            v = polyq.peval_fraction(C, mid)
            if v == 0:
                return mid, mid
            if (1 if v > 0 else -1) == slo:
                ylo = mid
            else:
                yhi = mid
        return ylo, yhi

    out = []
    for ylo, yhi in polyq.isolate_real_roots(C, lo, hi, width0):
        for flip in (False, True):
            cur_lo, cur_hi = ylo, yhi
            target = width0
            for _ in range(80):
                clo = max(cur_lo, Fraction(-2))
                chi = min(cur_hi, Fraction(2))
                ulo, uhi = _acos_enclosure(clo, chi)
                if flip:
                    ulo, uhi = 1 - uhi, 1 - ulo
                mid = (ulo + uhi) / 2 * D0
                delta = (uhi - ulo) / 2 * D0
                if delta <= delta_cap:
                    break
                target /= 16
                cur_lo, cur_hi = refine(cur_lo, cur_hi, target)
            else:
                raise RootIsolationFailure(
                    "enclosure refinement did not reach the target width")
            out.append(MaskRoot(mid, delta, False, "algebraic"))
    return out


def _acos_enclosure(ylo: Fraction, yhi: Fraction) -> tuple[Fraction, Fraction]:
    """Outward enclosure of arccos(y/2)/(2 pi) over [ylo, yhi] in (−2, 2)."""
    from .exactreal import _mpf_to_fraction

    with mp.workprec(96):
        hi = mpmath.acos(mpmath.mpf(ylo.numerator) / ylo.denominator / 2) / (2 * mpmath.pi)
        lo = mpmath.acos(mpmath.mpf(yhi.numerator) / yhi.denominator / 2) / (2 * mpmath.pi)
        pad = mpmath.mpf(2) ** -80
        return (_mpf_to_fraction(lo - pad), _mpf_to_fraction(hi + pad))


def decay_probe(mask: MaskSpec, J: int = 200, prec: int = 64) -> DecayReport:
    """Produce xi0 with a certified positive floor for |H| along its orbit.

    Roots of H on [0, D0) are located (exactly for cyclotomic factors,
    by certified enclosures otherwise) and reduced modulo 1; an orbit
    avoidance certificate for those targets gives xi0; then
    eps0 = min_{0 <= j < J} |H(lambda^j xi0)| is bounded from below by
    enclosure evaluation at exactly reduced arguments, and
    obstruction_k = ceil(log(1/eps0)/log lambda).
    """
    lam = mask.lam
    # provisional margin request: refine enclosures against the constant
    # for the final target count (root count is known after isolation)
    D0, roots = _mask_unit_circle_roots(mask, Fraction(1, 10 ** 9))
    targets: list[Fraction] = []
    deltas: list[Fraction] = []
    for r in roots:
        t = r.value % 1
        if r.exact:
            if t not in targets:
                targets.append(t)
                deltas.append(Fraction(0))
        else:
            targets.append(t)
            deltas.append(r.delta)
    if not targets:
        # H has no real zeros: eps0 is the certified minimum of |H| on a
        # period, along the trivial orbit floor; report directly
        eps0 = _orbit_abs_floor(mask, lam.desc.one(), D0, J, prec)
        cert = erdos_construct(lam, [Fraction(1, 2)], 0)
        return DecayReport(D0=D0, roots=(), targets=(), margin=Fraction(0),
                           xi0_text="1", xi0=1.0, epsilon0=eps0,
                           obstruction_k=max(0, _log_ratio_ceil(eps0, lam)),
                           J=J, certificate=cert)

    g, c = erdos_params(lam, len(targets))
    max_delta = max(deltas)
    if max_delta * 4 > c:
        # re-isolate with tighter enclosures
        D0, roots = _mask_unit_circle_roots(mask, c / (4 * max(1, D0)))
        targets, deltas = [], []
        for r in roots:
            t = r.value % 1
            if r.exact and t in targets:
                continue
            targets.append(t)
            deltas.append(r.delta)
        max_delta = max(deltas)
    margin = c - max_delta
    depth = -(-(J + 1) // g)  # ceil
    cert = erdos_construct(lam, targets, depth, c=c)
    xi0 = cert.xi

    eps0 = _orbit_abs_floor(mask, xi0, D0, J, prec)
    if eps0 <= 0:
        raise RootIsolationFailure(
            "certified orbit floor is not positive")  # pragma: no cover
    return DecayReport(
        D0=D0, roots=tuple(roots), targets=tuple(targets), margin=margin,
        xi0_text=xi0.to_text(), xi0=float(xi0), epsilon0=eps0,
        obstruction_k=max(0, _log_ratio_ceil(eps0, lam)), J=J,
        certificate=cert)


def _orbit_abs_floor(mask: MaskSpec, xi0: FieldElement, D0: int, J: int,
                     prec: int) -> float:
    """Certified lower bound of min_{0<=j<J} |H(lambda^j xi0)|.

    Arguments are reduced modulo the exact period D0 before evaluation,
    so the working precision is independent of j.
    """
    lam = mask.lam
    floor = None
    x = xi0
    for _ in range(J):
        arg = x - D0 * (x / D0).floor()
        wp = prec
        while True:
            ball = mask.H.eval_ball(arg, wp)
            low = ball.abs_lower()
            if low > 0 or wp > prec + 4096:
                break
            wp *= 2
        if low <= 0:
            return 0.0
        floor = low if floor is None else min(floor, low)
        x = x * lam
    return float(floor)


def _log_ratio_ceil(eps0: float, lam: FieldElement) -> int:
    """ceil(log(1/eps0) / log lambda) from safe directed bounds."""
    if eps0 >= 1:
        return 0
    lam_lo, _ = iv_endpoints(lam.ball(64))
    val = math.log(1.0 / eps0) / math.log(float(lam_lo))
    return int(math.ceil(val - 1e-12))


# ---------------------------------------------------------------------------
# indecomposability witness for B(x | (1, sqrt(5/2))) under sqrt(10)


@dataclass(frozen=True)
class IndecompWitness:
    """A zero of the candidate first factor whose image under the
    dilation is provably not a zero, so the factor ratio cannot be a
    mask polynomial."""

    P1: int
    P2: int
    w0: int
    first_binomial_is_zero: bool        # 1 - e^(-2 pi i w0/P1) = 0, exactly
    image_in_integer_lattice: bool      # sqrt(10) w0 in Z (exact): always False
    image_in_scaled_lattice: bool       # 5 w0 = k mod P2 with 1<=k<P2 (exact)
    image_covering_binomial_zero: bool  # 1 - e^(-2 pi i 5 w0 / P2) = 0, exactly
    q_factor_abs_lower: float           # |1 - e^(-2 pi i sqrt(10) w0)| > 0

    @property
    def valid(self) -> bool:
        return (self.first_binomial_is_zero
                and not self.image_in_integer_lattice
                and not self.image_in_scaled_lattice
                and self.q_factor_abs_lower > 0)

    def to_jsonable(self) -> dict:
        return {
            "P1": self.P1, "P2": self.P2, "w0": self.w0,
            "first_binomial_is_zero": self.first_binomial_is_zero,
            "image_in_integer_lattice": self.image_in_integer_lattice,
            "image_in_scaled_lattice": self.image_in_scaled_lattice,
            "image_covering_binomial_zero": self.image_covering_binomial_zero,
            "q_factor_abs_lower": self.q_factor_abs_lower,
            "valid": self.valid,
        }


def indecomposability_witness(P1_max: int = 20, P2_max: int = 20,
                              prec: int = 64) -> list[IndecompWitness]:
    """Witnesses refuting every candidate convolution factorization shape.

    If B(x | (1, sqrt(5/2))) split as a convolution of two refinable
    splines, the factor transforms p_1, p_2 would carry binomial factors
    1 - e^(-2 pi i w / P1) and 1 - e^(-2 pi i sqrt(5/2) w / P2) for some
    positive integers P1, P2.  For each trial pair the scan finds
    w0 = I1 * P1 in the zero lattice of the first binomial whose image
    sqrt(10) w0 avoids the zero set {I2/sqrt(10)} u {I3 P2/5 + k/5} of
    the dilated product (exact lattice arithmetic in Q(sqrt(10))), so
    p_1(w0) = 0 while p_1(sqrt(10) w0) != 0 and p_1(sqrt(10) w)/p_1(w)
    cannot be a mask polynomial.
    """
    from .exactreal import field_make

    F = field_make(10, 2)
    theta = F.theta()
    out = []
    for P1 in range(1, P1_max + 1):
        for P2 in range(1, P2_max + 1):
            found = None
            for I1 in range(1, P2 + 1):
                w0 = I1 * P1
                in_int_lattice = (theta * w0).is_integer  # sqrt(10) w0 in Z
                in_scaled = (5 * w0) % P2 != 0  # w0 = I3 P2/5 + k/5, 1<=k<P2
                if not in_int_lattice and not in_scaled:
                    found = w0
                    break
            if found is None:
                raise RootIsolationFailure(
                    f"no witness for P1={P1}, P2={P2}")  # pragma: no cover
            w0 = found
            with _iv_prec(prec):
                ang = 2 * iv.pi * theta.ball(prec) * w0
                ball = ComplexBall(1 - iv.cos(ang), iv.sin(ang))
                q_lower = ball.abs_lower()
            out.append(IndecompWitness(
                P1=P1, P2=P2, w0=w0,
                first_binomial_is_zero=(w0 % P1 == 0),
                image_in_integer_lattice=in_int_lattice,
                image_in_scaled_lattice=(5 * w0) % P2 != 0,
                image_covering_binomial_zero=(5 * w0) % P2 == 0,
                q_factor_abs_lower=q_lower,
            ))
    return out

# ---------------------------------------------------------------------------
# the fixed non-lattice instance


def counterexample_instance():
    """(field, dilation, directions) for B(x | (1, sqrt(5/2))) under
    sqrt(10): the refinable spline whose translation set
    {0..4} u {5/sqrt(10) + 0..4} lies in no arithmetic progression."""
    from .exactreal import field_make

    F = field_make(10, 2)
    th = F.theta()
    return F, th, (F.one(), th / 2)
