"""Brute-force references for the spline numerics.

``spline_time_eval`` evaluates a univariate box spline by iterated
convolution of scaled indicators, the reference for ``cascade_solve``.
``count_representations`` counts the words alpha with M alpha = j, the
reference for ``integer_dilation_box_mask``.  Neither shares code with
what it checks.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Optional, Sequence

import numpy as np

from refinable.refinery import BoxSplineSpec
from refinable.splinecore import GridFunction


class GridTooCoarse(ValueError):
    """Grid step too large relative to the shortest direction."""


def spline_time_eval(spec: BoxSplineSpec, n_samples: int = 2048,
                     step: Optional[float] = None) -> GridFunction:
    """Ground-truth univariate box-spline values by iterated convolution.

    Each direction m contributes the scaled indicator of [min(0,m),
    max(0,m)] with height 1/|m|; the factors are cell-averaged on the
    grid and convolved with trapezoid weighting (np.convolve * h).
    Support is [sum_j min(0, m_j), sum_j max(0, m_j)].
    """
    dirs = [float(d) for d in spec.directions_1d()]
    lo = sum(min(0.0, d) for d in dirs)
    hi = sum(max(0.0, d) for d in dirs)
    h = float(step) if step is not None else (hi - lo) / (n_samples - 1)
    min_dir = min(abs(d) for d in dirs)
    if h > min_dir / 8:
        raise GridTooCoarse(f"step {h:.3g} > min|m_j|/8 = {min_dir / 8:.3g}")

    def indicator_cells(m: float) -> tuple[float, np.ndarray]:
        a, b = min(0.0, m), max(0.0, m)
        n = int(math.ceil((b - a) / h)) + 1
        xs = a + h * np.arange(n + 1)
        left = np.clip(xs - h / 2, a, b)
        right = np.clip(xs + h / 2, a, b)
        vals = (right - left) / h / (b - a)
        return a, vals

    origin, acc = indicator_cells(dirs[0])
    for d in dirs[1:]:
        o, cells = indicator_cells(d)
        acc = np.convolve(acc, cells) * h
        origin += o
    return GridFunction(origin, h, acc, meta={"kind": "convolution-oracle"})


def count_representations(spec: BoxSplineSpec, m: int, j: Sequence[int]) -> int:
    """#{alpha in {0..m-1}^n : M alpha = j}: the refinement coefficient
    of translation j is m^(s-n) times this count.

    The convention is fixed by the identity Bhat(m w) = H(w) Bhat(w),
    cf. B_0(x) = sum_{t<m} B_0(mx - t).
    """
    target = tuple(int(v) for v in j)
    cols = [[c.as_integer() for c in col] for col in spec.columns]
    count = 0
    for alpha in product(range(m), repeat=spec.n):
        vec = tuple(sum(a * cols[t][i] for t, a in enumerate(alpha))
                    for i in range(spec.s))
        if vec == target:
            count += 1
    return count
