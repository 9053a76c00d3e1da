"""Reference exponential sums on Fraction coefficients.

``RefPoly`` keeps a quasi-trigonometric polynomial as a plain dict
exponent -> nonzero ``Fraction``, and does every operation term by term:
sums and products merge the terms in the order they arrive and drop the
zeros, and binomial division tests each term against every class base by
the exact ratio (d - base) / m, in first-seen order.  Exponents are
``FieldElement``s or ``ExponentVector``s, as in ``QTrigPoly``.  It is
slow and plain, so the tests compare ``QTrigPoly``, which keeps integer
numerators over one denominator, with it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from refinable.exactreal import FieldDescriptor, FieldElement
from refinable.qtrig import BinomialDivisionWitness, ExponentVector


def _merged(desc: FieldDescriptor, pairs) -> "RefPoly":
    out: dict = {}
    for d, c in pairs:
        out[d] = out.get(d, Fraction(0)) + c
    return RefPoly(desc, out)


def _lattice_step(diff, m) -> Optional[int]:
    """The integer t with diff = t*m, or None."""
    if isinstance(m, FieldElement):
        t = diff / m
        return t.as_integer() if t.is_integer else None
    i = next(i for i, x in enumerate(m) if not x.is_zero)
    t = diff[i] / m[i]
    if t.is_integer and diff == m * t.as_integer():
        return t.as_integer()
    return None


class RefPoly:
    __slots__ = ("desc", "terms")

    def __init__(self, desc: FieldDescriptor, terms):
        self.desc = desc
        self.terms = {d: Fraction(c) for d, c in terms.items() if c != 0}

    def __add__(self, other: "RefPoly") -> "RefPoly":
        return _merged(self.desc, [*self.terms.items(), *other.terms.items()])

    def __neg__(self) -> "RefPoly":
        return RefPoly(self.desc, {d: -c for d, c in self.terms.items()})

    def __sub__(self, other: "RefPoly") -> "RefPoly":
        return self + -other

    def __mul__(self, other: "RefPoly") -> "RefPoly":
        return _merged(self.desc, [(d1 + d2, c1 * c2)
                                   for d1, c1 in self.terms.items()
                                   for d2, c2 in other.terms.items()])

    def scale(self, q: Fraction) -> "RefPoly":
        return RefPoly(self.desc, {d: c * q for d, c in self.terms.items()})

    def shift(self, e) -> "RefPoly":
        return RefPoly(self.desc, {d + e: c for d, c in self.terms.items()})

    def divide_binomial(self, m: Union[FieldElement, ExponentVector]
                        ) -> Union["RefPoly", BinomialDivisionWitness]:
        """The quotient by 1 - E(m), or the witness of the first class,
        in first-seen order, whose coefficient sum is not zero."""
        classes: list = []
        for d, c in self.terms.items():
            for base, offsets in classes:
                t = _lattice_step(d - base, m)
                if t is not None:
                    offsets[t] = c
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
        return RefPoly(self.desc, out)
