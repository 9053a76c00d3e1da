"""Reference arithmetic in Q(theta) on Fraction coordinates.

``RefElement`` keeps an element as its coordinate vector (q_0, ...,
q_{k-1}) of ``Fraction``s in the power basis 1, theta, ...,
theta^{k-1}, and does every operation coordinate by coordinate: the
schoolbook product folded by theta^k = n, the inverse by Gaussian
elimination on the multiplication matrix, and sign and floor from the
integer enclosures of ``FieldDescriptor.theta_power_bounds`` after
clearing the coordinates to one denominator.  It is slow and plain, so
the tests compare ``FieldElement`` with it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from refinable.exactreal import FieldDescriptor


class RefElement:
    __slots__ = ("desc", "coeffs")

    def __init__(self, desc: FieldDescriptor, coeffs):
        cs = [Fraction(c) for c in coeffs]
        self.desc = desc
        self.coeffs = tuple(cs + [Fraction(0)] * (desc.k - len(cs)))

    def _lift(self, other) -> "RefElement":
        if isinstance(other, RefElement):
            return other
        return RefElement(self.desc, [other])

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        return self.coeffs == self._lift(other).coeffs

    def __add__(self, other) -> "RefElement":
        b = self._lift(other)
        return RefElement(self.desc, [x + y for x, y in zip(self.coeffs, b.coeffs)])

    def __neg__(self) -> "RefElement":
        return RefElement(self.desc, [-x for x in self.coeffs])

    def __sub__(self, other) -> "RefElement":
        return self + -self._lift(other)

    def __mul__(self, other) -> "RefElement":
        b = self._lift(other)
        k, n = self.desc.k, self.desc.n
        out = [Fraction(0)] * k
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(b.coeffs):
                if i + j < k:
                    out[i + j] += x * y
                else:
                    out[i + j - k] += n * x * y
        return RefElement(self.desc, out)

    def inverse(self) -> "RefElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        k = self.desc.k
        theta = RefElement(self.desc, [0, 1]) if k > 1 else None
        cols, cur = [], self
        for _ in range(k):
            cols.append(cur.coeffs)
            if theta is not None:
                cur = cur * theta
        # solve sum_j x_j * (self * theta^j) = 1
        aug = [[cols[j][i] for j in range(k)] + [Fraction(int(i == 0))]
               for i in range(k)]
        for col in range(k):
            piv = next(r for r in range(col, k) if aug[r][col] != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            inv_p = 1 / aug[col][col]
            aug[col] = [v * inv_p for v in aug[col]]
            for r in range(k):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
        return RefElement(self.desc, [aug[i][k] for i in range(k)])

    def __truediv__(self, other) -> "RefElement":
        return self * self._lift(other).inverse()

    def _enclosures(self):
        den = math.lcm(*(c.denominator for c in self.coeffs))
        nums = [c.numerator * (den // c.denominator) for c in self.coeffs]
        p = 64
        while True:
            lo = hi = 0
            for num, (t_lo, t_hi) in zip(nums, self.desc.theta_power_bounds(p)):
                lo += num * (t_lo if num > 0 else t_hi)
                hi += num * (t_hi if num > 0 else t_lo)
            yield lo, hi, den << p
            p *= 2

    def sign(self) -> int:
        if self.is_zero:
            return 0
        if not any(self.coeffs[1:]):
            return 1 if self.coeffs[0] > 0 else -1
        for lo, hi, _ in self._enclosures():
            if lo > 0:
                return 1
            if hi < 0:
                return -1

    def floor(self) -> int:
        if not any(self.coeffs[1:]):
            return math.floor(self.coeffs[0])
        for lo, hi, scale in self._enclosures():
            if lo // scale == hi // scale:
                return lo // scale
