"""Exact box-spline and mask types, and the decisions on them.

The types: ``BoxSplineSpec`` (a full-rank direction matrix over
Q(theta)), ``MaskSpec`` (a dilation lambda with a normalized mask
polynomial H), ``MultivariateMaskSpec`` and the integer-dilation
``MultivariateMask``.  ``integer_dilation_box_mask`` and
``bspline_mask``, the cardinal B-spline masks, share one exact
expansion.  Nothing here imports numpy: the float kernels in
``splinecore`` build on these types, not the other way round.  The
stack, each layer importing only from those before it: exactreal ->
enclosure -> qtrig/polyq/powermod -> refinery -> splinecore -> cli.

Is B(x|A) (univariate) or B(x|M) (s-variate) refinable under a dilation
lambda > 1, and with which mask and translations?  The ground truth is
the exact sequential division

    prod_j (1 - E(lambda m_j, w))  /  prod_j (1 - E(m_j, w))

carried out binomial by binomial over residue classes of exponents: it
is unconditionally complete, and a failure yields a residue class with
nonzero coefficient sum as an independently checkable witness.  One
division and one re-multiplication check serve every s >= 1: columns
and exponents are scalars for s = 1 and ``ExponentVector``s in
Q(theta)^s otherwise.  Only an integer dilation of an integer matrix
takes the classical integer-dilation mask instead; a non-integer matrix
under an integer dilation goes through the general division like every
other instance.
The structural view (per-column integer relations lambda m = p m_0,
cycles whose multiplier product is an exact power of lambda, chain
partitions (m_0, lambda m_0, ..., lambda^{k-1} m_0)) is a report
layered on top, not the decider; one relation search and one chain walk
serve scalar columns (s = 1) and vector columns (s >= 2) alike.
Both deciders prepare their columns once and call the same private
stages on them directly: ``_mask_division``, ``_column_relations``,
``_chain_walk`` and ``_mask_identity``.  The public wrappers
``mask_construct_detailed``, ``condition_B``, ``chain_structure`` and
``verify_mask_identity`` prepare their own input and are for outside
callers.

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
from itertools import product
from typing import Collection, Optional, Sequence, Union

from . import polyq
from .enclosure import acos_enclosure
from .errors import (
    CycleInconsistency,
    InvalidLambda,
    NonIntegerMatrix,
    NonRationalTranslations,
    ProbeExhaustion,
    RankDeficient,
    RefinabilityError,
    RootIsolationFailure,
)
from .exactreal import (
    ExactReal,
    FieldDescriptor,
    FieldElement,
    QQ,
    _common_field,
    _json_element,
    _json_field,
    _json_rational,
    field_make,
)
from .powermod import ErdosCertificate, erdos_construct, erdos_params
from .qtrig import (
    BinomialDivisionWitness,
    QTrigPoly,
    _dot,
    _exponent,
    _lattice,
    _zero_exponent,
    geometric,
)


# ---------------------------------------------------------------------------
# direction matrices


class BoxSplineSpec:
    """An s x n direction matrix of field elements with full rank s.

    ``columns[j]`` is the j-th direction m_j, a length-s tuple of entries
    lifted into ``desc``.  Rank is checked by exact Gaussian elimination
    over the field.
    """

    __slots__ = ("desc", "s", "columns")

    def __init__(self, desc: FieldDescriptor, columns: Sequence[Sequence[ExactReal]]):
        cols = []
        for col in columns:
            vec = tuple([desc.lift(x) for x in col])
            if all(x.is_zero for x in vec):
                raise RankDeficient("zero column in direction matrix")
            cols.append(vec)
        if not cols:
            raise RankDeficient("empty direction matrix")
        s = len(cols[0])
        if any(len(c) != s for c in cols):
            raise ValueError("columns have inconsistent dimension")
        self.desc = desc
        self.s = s
        self.columns = tuple(cols)
        if _rank(cols, s) != s:
            raise RankDeficient(f"direction matrix has rank < {s}")

    @staticmethod
    def univariate(desc: FieldDescriptor, directions: Sequence[ExactReal]) -> "BoxSplineSpec":
        return BoxSplineSpec(desc, [[d] for d in directions])

    @property
    def n(self) -> int:
        return len(self.columns)

    def directions_1d(self) -> tuple[FieldElement, ...]:
        if self.s != 1:
            raise ValueError("not a univariate spec")
        return tuple(col[0] for col in self.columns)

    def is_integer_matrix(self) -> bool:
        return all(x.is_integer for col in self.columns for x in col)

    def __repr__(self) -> str:
        cols = "; ".join(",".join(x.to_text() for x in col) for col in self.columns)
        return f"BoxSplineSpec(s={self.s}, columns=[{cols}])"


def _rank(cols, s: int) -> int:
    """Rank of the s x n matrix with the field-element columns ``cols``."""
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(s)]
    rank = 0
    col = 0
    n = len(cols)
    while rank < s and col < n:
        piv = next((r for r in range(rank, s) if not rows[r][col].is_zero), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(s):
            if r != rank and not rows[r][col].is_zero:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# masks


class MaskSpec:
    """A dilation lambda > 1 with a normalized mask polynomial H, H(0) = 1.

    lambda is lifted into H's field.  The refinement coefficients are
    c_j = lambda * h_j (so that sum_j c_j = lambda exactly) and the
    translations d_j are the sorted exponents of H.
    """

    __slots__ = ("lam", "H")

    def __init__(self, lam: ExactReal, H: QTrigPoly):
        lam = H.desc.lift(lam)
        if not lam > 1:
            raise InvalidLambda("mask dilation must be > 1")
        if H.coefficient_sum() != 1:
            raise ValueError("mask must satisfy H(0) = sum h_j = 1")
        self.lam = lam
        self.H = H

    @property
    def desc(self) -> FieldDescriptor:
        return self.H.desc

    @property
    def translations(self) -> tuple[FieldElement, ...]:
        return self.H.exponents()

    @property
    def mask_coefficients(self) -> tuple[Fraction, ...]:
        return tuple([c for _, c in self.H.items()])

    @property
    def refinement_coefficients(self) -> tuple[FieldElement, ...]:
        return tuple(self.lam * h for h in self.mask_coefficients)

    def support(self) -> tuple[FieldElement, FieldElement]:
        """[d_0/(lambda-1), d_N/(lambda-1)], the solution support hull."""
        d = self.translations
        lm1 = self.lam - 1
        return d[0] / lm1, d[-1] / lm1

    def to_jsonable(self) -> dict:
        desc = self.desc
        return {
            "field": {"n": desc.n, "k": desc.k},
            "lambda": [str(q) for q in self.lam.coeffs],
            "lambda_text": self.lam.to_text(),
            "terms": [
                {"coefficient": str(c), "exponent": [str(q) for q in d.coeffs],
                 "exponent_text": d.to_text(), "exponent_decimal": f"{float(d):.17g}"}
                for d, c in self.H.items()
            ],
        }

    @staticmethod
    def from_jsonable(data: dict) -> "MaskSpec":
        """The mask of ``to_jsonable``; ValueError on any other shape."""
        desc = _json_field(data, "mask")
        terms = data.get("terms")
        if not (isinstance(terms, list) and all(isinstance(t, dict) for t in terms)):
            raise ValueError("mask terms must be a list of objects")
        H: dict[FieldElement, Fraction] = {}
        for t in terms:
            d = _json_element(desc, t.get("exponent"), "mask")
            if d in H:  # a dict would keep only the last coefficient
                raise ValueError(f"mask exponent {d.to_text()} repeats")
            H[d] = _json_rational(t.get("coefficient"), "mask")
        return MaskSpec(_json_element(desc, data.get("lambda"), "mask"), QTrigPoly(desc, H))

    def __repr__(self) -> str:
        return f"MaskSpec(lambda={self.lam.to_text()}, H={self.H.to_text()})"


@dataclass(frozen=True)
class MultivariateMask:
    """Mask of an s-variate refinement equation B(x) = sum c_j B(m x - j).

    ``terms`` maps integer translation vectors j to mask coefficients
    h_j with sum h_j = 1; the refinement coefficients are
    c_j = m^s * h_j.
    """

    m: int
    s: int
    terms: dict[tuple[int, ...], Fraction]

    def to_jsonable(self) -> dict:
        return {
            "dilation": self.m,
            "s": self.s,
            "terms": [
                {"translation": list(j), "h": str(c),
                 "c": str(c * self.m ** self.s)}
                for j, c in sorted(self.terms.items())
            ],
        }


def integer_dilation_box_mask(spec: BoxSplineSpec, m: int):
    """Exact mask of B(x|M) under an integer dilation m >= 2.

    Expands H(w) = m^(-n) prod_j sum_{t=0}^{m-1} exp(-2 pi i t w.m_j)
    as a product of ``geometric`` factors, with scalar exponents for
    s = 1 and ``ExponentVector`` exponents otherwise.  Univariate specs
    give a MaskSpec; s >= 2 gives a MultivariateMask whose refinement
    coefficients c_j = m^s h_j equal m^(s-n) #{alpha : M alpha = j}.
    """
    if m < 2:
        raise InvalidLambda("integer dilation must be >= 2")
    if not spec.is_integer_matrix():
        raise NonIntegerMatrix("integer-dilation mask needs an integer matrix")
    desc = spec.desc
    H = _dilation_expansion(desc, spec.directions_1d() if spec.s == 1 else spec.columns, m)
    if spec.s == 1:
        return MaskSpec(desc.rational(m), H)
    # each exponent vector d = M alpha is the translation of B(mx - d)
    # integer columns give integer exponents, so H.eden is 1
    return MultivariateMask(m=m, s=spec.s, terms={
        n: Fraction(c, H.den) for n, c in H.rational_exponents()})


def bspline_mask(degree: int, m: int) -> MaskSpec:
    """The cardinal B-spline mask ((1 + z + ... + z^(m-1)) / m)^(degree+1),
    the integer-dilation mask of degree + 1 unit directions."""
    if m < 2:
        raise InvalidLambda("integer dilation must be >= 2")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return MaskSpec(QQ.rational(m), _dilation_expansion(QQ, (QQ.one(),) * (degree + 1), m))


def _dilation_expansion(desc: FieldDescriptor, dirs: Sequence, m: int) -> QTrigPoly:
    """The H(w) of ``integer_dilation_box_mask`` for the directions ``dirs``."""
    H = QTrigPoly.constant(desc, like=_exponent(desc, dirs[0]))
    for d in dirs:
        H = H * geometric(desc, m, d)
    return H.scale(Fraction(1, m ** len(dirs)))


# ---------------------------------------------------------------------------
# input normalization


def _coords(c) -> tuple:
    """A column as a tuple of coordinates: a scalar column has one."""
    return c if isinstance(c, tuple) else (c,)


def _lead(c) -> Optional[int]:
    """Index of the first nonzero coordinate of a column (None if zero)."""
    return next((i for i, x in enumerate(_coords(c)) if not x.is_zero), None)


def _prepare(A: Sequence, lam: ExactReal) -> tuple[FieldElement, tuple, tuple, object]:
    """Lift lambda and the columns into one field, by the field rule of
    ``exactreal``, and normalize signs.

    A column is a scalar (Q(theta)) or a tuple of coordinates
    (Q(theta)^s), lifted to an ``ExponentVector``.  Returns (lambda,
    lifted columns, normalized columns, shift): a column whose first
    nonzero coordinate is negative is negated.
    1 - E(-m, w) = -E(-m, w) (1 - E(m, w)), so flipping a sign
    multiplies the mask by E(-(lambda-1) m, w): the true translations
    are the normalized ones minus the returned shift.
    """
    desc = _common_field([lam, *[x for a in A for x in _coords(a)]])
    lam_e = desc.lift(lam)
    cols = tuple(_exponent(desc, a) for a in A)
    if not lam_e > 1:
        raise InvalidLambda("dilation must be > 1")
    norm = []
    shift = _zero_exponent(desc, cols[0])
    for c in cols:
        i0 = _lead(c)
        if i0 is None:
            raise ValueError("directions must be nonzero")
        if _coords(c)[i0].sign() < 0:
            c = -c
            shift = shift + c * (lam_e - 1)
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


def _mask_division(cols: Sequence, lam: FieldElement
                   ) -> tuple[Optional[QTrigPoly], Optional[int],
                              Optional[BinomialDivisionWitness]]:
    """Expand prod (1 - E(lambda m_j)) and divide out each (1 - E(m_j)).

    Columns are lifted and sign-normalized, scalars or vectors.  Returns
    (H, None, None) with H the quotient normalized to H(0) = 1, or
    (None, j, witness) for the first column j whose division fails.  The
    quotient's rational coefficient sum is lambda^n exactly.
    """
    desc = lam.desc
    num = QTrigPoly.constant(desc, like=cols[0])
    for m in cols:
        num = num * QTrigPoly.binomial(desc, m * lam)
    quotient = num
    for idx, m in enumerate(cols):
        verdict = quotient._divide_binomial_classes(m)
        if isinstance(verdict, BinomialDivisionWitness):
            return None, idx, verdict
        quotient = verdict
    total = quotient.coefficient_sum()
    lam_n = lam ** len(cols)
    if not (lam_n.is_rational and lam_n.as_fraction() == total):
        raise CycleInconsistency(
            f"quotient sum {total} != lambda^n = {lam_n}")  # unreachable
    return quotient.scale(1 / total), None, None


def _mask_identity(cols: Sequence, lam: FieldElement, H: QTrigPoly) -> bool:
    """Exact check of prod Q(lambda m_j w) = lambda^n H(w) prod Q(m_j w)
    on lifted, sign-normalized columns, scalars or vectors."""
    lam_n = lam ** len(cols)
    if not lam_n.is_rational:
        return False
    # one binomial at a time: P * (1 - E(m)) = P - E(m) P
    num = QTrigPoly.constant(lam.desc, like=cols[0])
    rhs = H.scale(lam_n.as_fraction())
    for m in cols:
        num = num - num.shift(m * lam)
        rhs = rhs - rhs.shift(m)
    return num == rhs


def mask_construct_detailed(A: Sequence[ExactReal], lam: ExactReal
                            ) -> tuple[Optional[MaskSpec], Optional[MaskWitness],
                                       FieldElement]:
    """The mask of B(x|A) under lambda by sequential binomial division.

    Returns (mask, witness, translation_shift): exactly one of mask and
    witness is set.  H is the quotient normalized to H(0) = 1.
    """
    lam_e, _, cols, shift = _prepare(A, lam)
    H, idx, inner = _mask_division(cols, lam_e)
    if H is None:
        return None, MaskWitness(idx, cols[idx], inner), shift
    return MaskSpec(lam_e, H), None, shift


def mask_construct(A: Sequence[ExactReal], lam: ExactReal) -> Optional[MaskSpec]:
    """The mask of B(x|A) under lambda, or None when not refinable."""
    mask, _, _ = mask_construct_detailed(A, lam)
    return mask


def verify_mask_identity(A: Sequence[ExactReal], lam: ExactReal,
                         mask: MaskSpec) -> bool:
    """Exact check of prod Q(lambda m_j w) = lambda^n H(w) prod Q(m_j w),
    for a mask whose dilation is the instance's lambda."""
    lam_e, _, cols, _ = _prepare(A, lam)
    return mask.lam == lam_e and _mask_identity(cols, lam_e, mask.H)


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


def condition_B(A: Sequence, lam: ExactReal) -> ConditionBResult:
    """For each column m_0, all columns m with m = p m_0 / lambda, p in Z.

    Columns are scalars or vectors (tuples of coordinates).  The first
    listed relation per column is the deterministic successor used by
    chain extraction.
    """
    lam_e, _, cols, _ = _prepare(A, lam)
    return _column_relations(cols, lam_e)


def _column_ratio(a: tuple[tuple[int, ...], int],
                  b: tuple[tuple[int, ...], int]) -> Optional[int]:
    """The integer p with a = p * b, if any, for columns given by their
    lattice forms (N, D) in one field, scalar or vector alike:
    N_a * D_b = p * N_b * D_a in every coordinate."""
    (na, da), (nb, db) = a, b
    i0 = next(i for i, y in enumerate(nb) if y)
    p, r = divmod(na[i0] * db, nb[i0] * da)
    if r or any(x * db != p * y * da for x, y in zip(na, nb)):
        return None
    return p


def _column_relations(cols: Sequence, lam: FieldElement) -> ConditionBResult:
    """condition_B on lifted, sign-normalized columns."""
    desc = lam.desc
    forms = [_lattice(desc, m) for m in cols]
    lam_forms = [_lattice(desc, m * lam) for m in cols]
    relations = []
    violations = []
    for i, m0 in enumerate(forms):
        found = []
        for j, lam_m in enumerate(lam_forms):
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


def _successor_walk(successor: Sequence[int], start: int,
                     stop: Collection[int] = ()) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Walk i -> successor[i] from ``start`` until an index repeats or
    lies in ``stop``.  Returns (the indices walked, the cycle entered,
    beginning where the walk enters it, or () when the walk ran into
    ``stop``)."""
    seen: dict[int, int] = {}  # index -> position on the walk
    i = start
    while i not in seen and i not in stop:
        seen[i] = len(seen)
        i = successor[i]
    walk = tuple(seen)
    return walk, (walk[seen[i]:] if i in seen else ())


def _all_cycles(successor: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of a successor map, each rotated to start at its
    smallest index, listed by that index."""
    cycles = []
    walked: set[int] = set()
    for start in range(len(successor)):
        walk, cyc = _successor_walk(successor, start, walked)
        walked.update(walk)
        if cyc:
            lo = cyc.index(min(cyc))
            cycles.append(cyc[lo:] + cyc[:lo])
    cycles.sort()
    return tuple(cycles)


def chain_structure(A: Sequence, lam: ExactReal) -> ChainStructure:
    """Follow successor relations to a cycle; check the multiplier laws.

    Columns are scalars or vectors (tuples of coordinates).  The cycle
    multipliers satisfy prod p_i = lambda^l exactly, the cumulative
    multipliers divide each other in turn and the last divides
    lambda^l.  When the columns split into chains
    (m_0, lambda m_0, ..., lambda^{k-1} m_0) the partition is returned.
    """
    lam_e, _, cols, _ = _prepare(A, lam)
    return _chain_walk(cols, lam_e, _column_relations(cols, lam_e),
                       minimal_integer_power(lam_e))


def _chain_walk(cols: Sequence, lam_e: FieldElement, condb: ConditionBResult,
                k: Optional[int]) -> ChainStructure:
    """chain_structure on lifted, sign-normalized columns, their
    relations and k = ``minimal_integer_power(lam_e)``."""
    if not condb.ok:
        raise RefinabilityError(
            f"per-column relation fails at columns {condb.violations}")

    successor = tuple(condb.successor(i).target for i in range(len(cols)))
    _, cycle = _successor_walk(successor, 0)
    multipliers = tuple(condb.successor(j).p for j in cycle)
    l = len(cycle)
    prod = 1
    for p in multipliers:
        prod *= p
    lam_l = lam_e ** l
    if not (lam_l.is_rational and lam_l.as_fraction() == prod):
        raise CycleInconsistency(
            f"cycle multiplier product {prod} != lambda^{l}")

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
        sub.append(v * acc * lam_pow.inverse())
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


def decide_univariate(A: Sequence[ExactReal], lam: ExactReal) -> RefinabilityReport:
    """Full univariate decision: division verdict + structural report.

    The columns are prepared once; the division, the relation search,
    the chain walk and the identity check all run on them.
    """
    lam_e, cols, norm_cols, shift = _prepare(A, lam)
    H, idx, inner = _mask_division(norm_cols, lam_e)
    mask = witness = None
    if H is None:
        witness = MaskWitness(idx, norm_cols[idx], inner)
    else:
        mask = MaskSpec(lam_e, H)

    condb = _column_relations(norm_cols, lam_e)
    k = minimal_integer_power(lam_e)
    flags: dict = {"A": k is not None, "B": condb.ok, "C": None, "D": None}
    chains = None
    notes = []
    if condb.ok:
        chains = _chain_walk(norm_cols, lam_e, condb, k)
        flags["C"] = bool(chains.subvector)
        flags["D"] = chains.partition is not None
    if mask is not None and not _mask_identity(norm_cols, lam_e, H):
        raise CycleInconsistency("mask identity failed after division")
    if mask is not None and not condb.ok:
        notes.append("division accepted but a per-column relation is missing")
    return RefinabilityReport(
        refinable=mask is not None,
        lam=lam_e, columns=cols, normalized_columns=norm_cols,
        translation_shift=shift, mask=mask, witness=witness,
        condition_flags=flags, chains=chains, identity_checked=mask is not None,
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
    if d < 0:
        raise ValueError("spline degree d must be >= 0")
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


def coverage_oracle(A: Sequence[ExactReal], lam: ExactReal,
                    bound: int) -> CoverageReport:
    """Finite independent check of denominator-zero coverage.

    Why coverage decides refinability: the instance is refinable iff
    H(w) = lambda^-n prod_l (1 - E(lambda m_l, w)) / prod_j (1 - E(m_j, w))
    is a finite exponential sum.  Each factor 1 - E(a, w), a != 0, has
    simple zeros, exactly on Z/a.  So H is entire iff at every
    denominator zero w = I/m_j, I in Z\\0, the numerator vanishes at
    least as often: #{l : lambda m_l w in Z} >= #{j' : m_j' w in Z}.
    By the quotient theorem for exponential polynomials (Ritt 1929;
    Lax, Duke Math. J. 15, 1948) an entire quotient of two finite
    exponential sums is one, so that inequality is the whole test.

    It reduces to exact divisibility: m_j' (I/m_j) in Z iff
    den(m_j'/m_j) | I when the ratio is rational (never, otherwise), and
    likewise for lambda m_l / m_j.  Signs are symmetric, so positive I
    suffice.  The first uncovered I of column j divides the lcm L of the
    denominators den(m_j'/m_j): with g = gcd(I, L), every such
    denominator divides I iff it divides g, so the denominator
    multiplicity at g equals the one at I, while the numerator
    multiplicity at g is no larger (a divisor of g divides I).  A
    failure at I is thus a failure at g <= I, so the first failing
    (j, I) is the one the full range gives, only the divisors of L up to
    ``bound`` need a test, and a bound >= every L makes the check
    complete.
    """
    lam_e, _, cols, _ = _prepare(A, lam)
    n = len(cols)
    den_mod: list[list[Optional[int]]] = []
    num_mod: list[list[Optional[int]]] = []
    for j in range(n):
        dm, nm = [], []
        for other in range(n):
            ratio = cols[other] / cols[j]
            dm.append(ratio.den if ratio.is_rational else None)
            ratio_n = lam_e * cols[other] / cols[j]
            nm.append(ratio_n.den if ratio_n.is_rational else None)
        den_mod.append(dm)
        num_mod.append(nm)
    for j in range(n):
        period = math.lcm(*(q for q in den_mod[j] if q is not None))
        for I in _divisors_upto(period, bound):
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


def _divisors_upto(n: int, bound: int) -> list[int]:
    """The divisors of n >= 1 that are at most ``bound``, ascending: each
    pair (i, n // i) is found from its smaller member i <= sqrt(n)."""
    found = set()
    for i in range(1, min(bound, math.isqrt(n)) + 1):
        if n % i == 0:
            found.add(i)
            if n // i <= bound:
                found.add(n // i)
    return sorted(found)

# ---------------------------------------------------------------------------
# s-variate masks

MvQTrigPoly = QTrigPoly  # the former s-variate type's name, which tools still look up


@dataclass(frozen=True)
class MvMaskWitness:
    """Why an s-variate division failed: the column, and the failing
    residue class of the s-variate division or, with ``probe`` set, of
    the univariate slice along that probe."""

    column_index: int
    column: tuple
    inner: BinomialDivisionWitness
    probe: Optional[tuple[int, ...]] = None

    def to_jsonable(self) -> dict:
        return {
            "column_index": self.column_index,
            "column": [x.to_text() for x in self.column],
            "probe": None if self.probe is None else list(self.probe),
            "inner": {
                "class_base": [x.to_text() for x in _coords(self.inner.base)],
                "divisor": [x.to_text() for x in _coords(self.inner.divisor)],
                "class_sum": str(self.inner.class_sum),
            },
        }


@dataclass(frozen=True)
class MultivariateMaskSpec:
    """An s-variate mask: dilation lambda plus H with vector exponents."""

    lam: FieldElement
    H: QTrigPoly

    @property
    def s(self) -> int:
        return len(_coords(self.H.exponents()[0]))

    def to_jsonable(self) -> dict:
        desc = self.lam.desc
        return {
            "field": {"n": desc.n, "k": desc.k},
            "s": self.s,
            "lambda": self.lam.to_text(),
            "terms": [
                {"coefficient": str(c),
                 "exponent": [x.to_text() for x in _coords(d)],
                 "exponent_decimal": [f"{float(x):.17g}" for x in _coords(d)]}
                for d, c in self.H.items()
            ],
        }


# ---------------------------------------------------------------------------
# probes and the s-variate decision


def _probe_vectors(s: int):
    """Integer vectors ordered by sup-norm shell, then lexicographically."""
    r = 1
    while True:
        shell = [v for v in product(range(-r, r + 1), repeat=s)
                 if max(abs(x) for x in v) == r]
        shell.sort()
        yield from shell
        r += 1
        if r > 1000:
            raise ProbeExhaustion("no admissible probes with sup-norm <= 1000")


def admissible_probes(spec: BoxSplineSpec) -> list[tuple[int, ...]]:
    """s linearly independent integer probes avoiding every hyperplane
    w . m_j = 0 (exact test), plus two spares."""
    chosen: list[tuple[int, ...]] = []
    independent: list[tuple[FieldElement, ...]] = []  # over QQ
    for w0 in _probe_vectors(spec.s):
        if any(dot.is_zero for dot in _slice_directions(spec.columns, w0)):
            continue
        v = tuple(QQ.rational(x) for x in w0)
        if _rank(independent + [v], spec.s) > len(independent):
            independent.append(v)
            chosen.append(w0)
        elif len(independent) == spec.s and len(chosen) < spec.s + 2:
            chosen.append(w0)
        if len(independent) == spec.s and len(chosen) >= spec.s + 2:
            return chosen
    raise ProbeExhaustion("probe enumeration exhausted")  # pragma: no cover


def _slice_directions(cols: Sequence[tuple], w0: tuple[int, ...]) -> tuple[FieldElement, ...]:
    """The directions w0 . m_j of the univariate slice w -> z * w0."""
    return tuple(_dot(w0, col) for col in cols)


def multivariate_decide(spec: BoxSplineSpec, lam: ExactReal) -> RefinabilityReport:
    """Refinability of B(x|M) for an s-variate direction matrix.

    Integer dilations of integer matrices delegate to the exact
    integer-dilation mask.  Every other instance, including a
    non-integer matrix under an integer dilation, goes through the
    general division: integer probe vectors slice the instance to
    univariate ones (each must be refinable, else the slice's witness is
    the report's), and the s-variate mask comes from the division and
    binomial-by-binomial identity check, run on QTrigPoly with vector
    exponents.  Slices of the s-variate mask must reproduce the
    univariate masks exactly.  Like decide_univariate, it prepares the
    columns once and calls the private stages directly:
    _mask_division, _mask_identity, _column_relations (the relations
    lambda m = p m_0) and _chain_walk (the cycle/chain report).
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
    k = minimal_integer_power(lam_e)
    flags = {"A": k is not None, "B": condb.ok, "C": None, "D": None}
    slice_masks: list[tuple[tuple[int, ...], MaskSpec, FieldElement]] = []
    for w0 in admissible_probes(spec):
        mask_w, witness_w, shift_w = mask_construct_detailed(
            _slice_directions(cols, w0), lam_e)
        if mask_w is None:
            witness = MvMaskWitness(witness_w.column_index,
                                    cols[witness_w.column_index],
                                    witness_w.inner, probe=w0)
            return RefinabilityReport(
                refinable=False, lam=lam_e, columns=spec.columns,
                normalized_columns=cols, translation_shift=shift,
                mask=None, witness=witness, condition_flags=flags,
                chains=None, identity_checked=False,
                notes=(f"slice along probe {w0} is not refinable",))
        slice_masks.append((w0, mask_w, shift_w))

    # s-variate mask by exact division, checked by re-multiplication
    H, idx, inner = _mask_division(cols, lam_e)
    if H is None:
        return RefinabilityReport(
            refinable=False, lam=lam_e, columns=spec.columns,
            normalized_columns=cols, translation_shift=shift, mask=None,
            witness=MvMaskWitness(idx, cols[idx], inner),
            condition_flags=flags, chains=None, identity_checked=False,
            notes=("slices succeeded but the s-variate division failed",))
    if not _mask_identity(cols, lam_e, H):
        raise CycleInconsistency("s-variate mask identity failed")
    mask = MultivariateMaskSpec(lam_e, H)

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
        chains = _chain_walk(cols, lam_e, condb, k)
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
    roots of P.  Each cyclotomic factor Phi_n of the squarefree part R
    gives the exact rational zeros l/n * D0, gcd(l, n) = 1, and is
    divided out; the rest lie on S = gcd(R, reversed R), which the
    substitution y = z + 1/z turns into an exact polynomial over Q whose
    roots in (-2, 2) are isolated by Sturm bisection and mapped back
    through arccos with outward rounding.
    """
    H = mask.H
    try:
        terms = H.rational_exponents()
    except ValueError:
        raise NonRationalTranslations("decay probe needs rational translations") from None
    D0 = H.eden  # the exponents are n / D0
    low = min(n for (n,), _ in terms)
    poly = [Fraction(0)] * (max(n for (n,), _ in terms) - low + 1)
    for (n,), c in terms:
        poly[n - low] = Fraction(c, H.den)
    R = polyq.squarefree_part(poly)
    roots: list[MaskRoot] = []
    # phi(n) >= sqrt(n / 2): a factor Phi_n of R has n <= 2 deg(R)^2
    bound = 2 * polyq.pdeg(R) ** 2 + 6
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:
            for k in range(p, bound + 1, p):
                phi[k] -= phi[k] // p
    cyclotomic: dict[int, polyq.Poly] = {}
    for n in range(1, bound + 1):
        if phi[n] > polyq.pdeg(R):
            continue
        quo, rem = polyq.pdivmod(R, _cyclotomic_poly(n, cyclotomic))
        if not rem:
            R = quo
            roots.extend(MaskRoot(Fraction(l, n) * D0, Fraction(0), True,
                                  f"cyclotomic({n})")
                         for l in range(n) if math.gcd(l, n) == 1)
    S = polyq.pgcd(R, tuple(reversed(R)))
    if polyq.pdeg(S) > 0:
        roots.extend(_self_reciprocal_roots(S, D0, delta_cap))
    roots.sort(key=lambda r: r.value)
    return D0, roots


def _cyclotomic_poly(n: int, cache: dict[int, polyq.Poly]) -> polyq.Poly:
    """Phi_n: z^n - 1 divided by Phi_d for every proper divisor d of n."""
    if n not in cache:
        p = polyq.pnorm([-1] + [0] * (n - 1) + [1])
        for d in range(1, n):
            if n % d == 0:
                p = polyq.pdivmod(p, _cyclotomic_poly(d, cache))[0]
        cache[n] = p
    return cache[n]


def _self_reciprocal_roots(S: polyq.Poly, D0: int, delta_cap: Fraction
                           ) -> list[MaskRoot]:
    """Unit-circle roots of S = gcd(R, reversed R), R squarefree and free
    of cyclotomic factors.

    An irreducible factor with a unit-circle root z0 also has the root
    1/z0 = conj(z0), so it equals its own reversal and divides S.  S is
    monic and equals its reversal up to a sign; as S(1) != 0 the sign is
    +, and as S(-1) != 0 the palindrome has even degree 2D.  The
    substitution y = z + 1/z turns S(z)/z^D into an exact polynomial
    C(y) over Q with simple roots; roots of C in (-2, 2) are isolated by
    Sturm bisection, narrowed by sign bisection, and pulled back to the
    angle pair {u, 1-u} via y = 2 cos(2 pi u) with outward rounding.
    """
    cs = list(S)  # ascending
    D = polyq.pdeg(S) // 2
    # S(z)/z^D = cs[D] + sum_{t>=1} cs[D+t] (z^t + z^-t), z^t + z^-t = V_t(y)
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
    # C(2) = S(1) and C(-2) = +-S(-1) are nonzero: valid Sturm endpoints
    for ylo, yhi in polyq.isolate_real_roots(C, Fraction(-2), Fraction(2), width0):
        for flip in (False, True):
            cur_lo, cur_hi = ylo, yhi
            target = width0
            for _ in range(80):
                ulo, uhi = acos_enclosure(cur_lo, cur_hi)
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


def decay_probe(mask: MaskSpec, J: int = 200, prec: int = 64) -> DecayReport:
    """Produce xi0 with a certified positive floor for |H| along its orbit.

    Roots of H on [0, D0) are located (exactly for cyclotomic factors,
    by certified enclosures otherwise) and reduced modulo 1; an orbit
    avoidance certificate for those targets gives xi0; then
    eps0 = min_{0 <= j < J} |H(lambda^j xi0)| is bounded from below by
    enclosure evaluation at exactly reduced arguments, starting at
    ``prec`` bits, and obstruction_k = ceil(log(1/eps0)/log lambda).
    A double-precision screen of |H| at all J points picks the few whose
    enclosures can hold the minimum; eps0 is the same as from enclosing
    every point (see ``_orbit_abs_floor``).
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    if prec < 1:
        raise ValueError("prec must be >= 1")
    lam = mask.lam
    # provisional margin request: refine enclosures against the constant
    # for the final target count (root count is known after isolation)
    D0, roots = _mask_unit_circle_roots(mask, Fraction(1, 10 ** 9))
    targets, deltas = _root_targets(roots)
    if not targets:
        # H has no real zeros: eps0 is the certified minimum of |H| on a
        # period, along the trivial orbit floor; report directly
        eps0 = _orbit_abs_floor(mask, lam.desc.one(), J, prec)
        cert = erdos_construct(lam, [Fraction(1, 2)], 0)
        return DecayReport(D0=D0, roots=(), targets=(), margin=Fraction(0),
                           xi0_text="1", xi0=1.0, epsilon0=eps0,
                           obstruction_k=_log_ratio_ceil(eps0, lam),
                           J=J, certificate=cert)

    g, c = erdos_params(lam, len(targets))
    max_delta = max(deltas)
    if max_delta * 4 > c:
        # re-isolate with tighter enclosures
        D0, roots = _mask_unit_circle_roots(mask, c / (4 * max(1, D0)))
        targets, deltas = _root_targets(roots)
        max_delta = max(deltas)
    margin = c - max_delta
    depth = -(-(J + 1) // g)  # ceil
    cert = erdos_construct(lam, targets, depth, c=c)
    xi0 = cert.xi

    eps0 = _orbit_abs_floor(mask, xi0, J, prec)
    return DecayReport(
        D0=D0, roots=tuple(roots), targets=tuple(targets), margin=margin,
        xi0_text=xi0.to_text(), xi0=float(xi0), epsilon0=eps0,
        obstruction_k=_log_ratio_ceil(eps0, lam), J=J,
        certificate=cert)


def _root_targets(roots: Sequence[MaskRoot]) -> tuple[list[Fraction], list[Fraction]]:
    """The roots reduced modulo 1 as orbit targets, with their enclosure
    radii; an exact root whose residue is already a target adds none."""
    targets: list[Fraction] = []
    deltas: list[Fraction] = []
    for r in roots:
        t = r.value % 1
        if r.exact and t in targets:
            continue
        targets.append(t)
        deltas.append(r.delta)
    return targets, deltas


def _orbit_abs_floor(mask: MaskSpec, xi0: FieldElement, J: int, prec: int) -> float:
    """Certified lower bound of min_{0<=j<J} |H(lambda^j xi0)|, for H
    with rational translations.

    The J arguments x_j = lambda^j xi0 are reduced exactly modulo the
    period eden of H (its exponents are n/eden with integer n, eden =
    ``H.eden``), so the working precision is independent of j.  The floor
    is the least of the enclosure lower bounds L_j: ``eval_ball`` at
    ``prec`` bits, and at 2*prec, 4*prec, ... while ``abs_lower`` reads
    0 (0.0 for the whole orbit once prec + 4096 bits do not separate
    H(x_j) from zero).  Only the points that a double-precision screen
    cannot rule out are enclosed; the others cannot hold the minimum.

    Screen.  With the integers n of ``H.rational_exponents()`` and
    t_j = x_j/eden, H(x_j) = sum c exp(-2 pi i n t_j).  For rational x_j
    the float t is the correctly rounded quotient, each phase is
    fmod(n*t, 1), and f_j is the hypot of the sums of c*cos(2 pi phase)
    and c*sin(2 pi phase).  This assumes IEEE-754 double arithmetic
    rounded to nearest and a libm ``cos``/``sin`` within 2^-40 of the
    true value (glibc documents 1-2 ulp).  With S = sum |c|, N = max |n|
    and T terms, the rounding of t, of n*t and of 2 pi times the phase
    (the fmod is exact), the libm error, the rounding of c and of the
    sums, and hypot give

        |f_j - |H(x_j)||  <=  S (7 N 2^-51 max(1, |t|) + 2^-39)
                              + (T + 2) 2^-52 S.

    An irrational x_j is not screened: (f_j, delta_j) = (0, inf) always
    encloses it.

    Enclosure.  ``eval_ball`` returns a ball of radius at most
    2^(1-prec) max(1, S), so the two axes lose at most twice that, and
    ``abs_lower`` rounds to nearest (relative 2^-51 with hypot):

        |H(x_j)| - 2^(2-prec) max(1, S) - 2^-50 S  <=  L_j
                                            <=  |H(x_j)| (1 + 2^-51).

    delta_j below exceeds the screen bound plus the enclosure loss.  So
    a point with f_j - delta_j above min_i (f_i + delta_i), attained at
    some i, has L_j > L_i >= 0: it is decided at ``prec`` bits, lies
    above the floor and never reads 0, and the floor (or 0.0) comes out
    exactly as from enclosing every point.  A delta that is too large
    only costs enclosures.
    """
    H, lam = mask.H, mask.lam
    eden = H.eden
    args, x = [], xi0
    while True:
        args.append(x - eden * (x / eden).floor())
        if len(args) == J:
            break
        x = x * lam
    terms = [(n, c / H.den) for (n,), c in H.rational_exponents()]
    S = math.fsum(abs(c) for _, c in terms)
    N = max((abs(n) for n, _ in terms), default=0)
    tail = ((len(terms) + 4) * 2.0 ** -50 * S
            + (math.ldexp(1.0, 3 - prec) + 2.0 ** -48) * max(1.0, S))
    screened = []
    for arg in args:
        if not arg.is_rational:
            screened.append((0.0, math.inf))
            continue
        t = arg.num[0] / (arg.den * eden)
        re = im = 0.0
        for n, c in terms:
            a = math.tau * math.fmod(n * t, 1.0)
            re += c * math.cos(a)
            im += c * math.sin(a)
        delta = S * (8 * N * 2.0 ** -50 * max(1.0, abs(t)) + 2.0 ** -38) + tail
        screened.append((math.hypot(re, im), delta))
    ceiling = min(f + delta for f, delta in screened)
    floor = None
    for arg, (f, delta) in zip(args, screened):
        if f - delta > ceiling:
            continue
        wp = prec
        while True:
            low = H.eval_ball(arg, wp).abs_lower()
            if low > 0 or wp > prec + 4096:
                break
            wp *= 2
        if low <= 0:
            return 0.0
        floor = low if floor is None else min(floor, low)
    return float(floor)


def _log_ratio_ceil(eps0: float, lam: FieldElement) -> int:
    """ceil(log(1/eps0) / log lambda), i.e. the least k >= 0 with
    lambda^k * eps0 >= 1, decided exactly in lambda's field (the float
    eps0 is a dyadic rational)."""
    if not eps0 > 0:
        raise RootIsolationFailure("certified orbit floor is not positive")
    k, x = 0, lam.desc.rational(Fraction(eps0))
    while x < 1:
        k, x = k + 1, x * lam
    return k


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
    F = field_make(10, 2)
    theta = F.theta()
    binomial = QTrigPoly.binomial(F, 1)  # 1 - E(w)
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
            out.append(IndecompWitness(
                P1=P1, P2=P2, w0=w0,
                first_binomial_is_zero=(w0 % P1 == 0),
                image_in_integer_lattice=in_int_lattice,
                image_in_scaled_lattice=(5 * w0) % P2 != 0,
                image_covering_binomial_zero=(5 * w0) % P2 == 0,
                q_factor_abs_lower=binomial.eval_ball(theta * w0, prec).abs_lower(),
            ))
    return out

# ---------------------------------------------------------------------------
# the fixed non-lattice instance


def counterexample_instance():
    """(field, dilation, directions) for B(x | (1, sqrt(5/2))) under
    sqrt(10): the refinable spline whose translation set
    {0..4} u {5/sqrt(10) + 0..4} lies in no arithmetic progression."""
    F = field_make(10, 2)
    th = F.theta()
    return F, th, (F.one(), th / 2)
