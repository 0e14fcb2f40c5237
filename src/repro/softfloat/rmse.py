"""Error metrics for the §II-C precision study.

All metrics compare a vector of measured binary32 results against an exact
reference.  Both sides may hold anything :class:`float` accepts: floats, or
the :class:`fractions.Fraction` values of
:func:`repro.softfloat.fmac.fmac_chain_exact`.  Each value is rounded to
binary64 once, and the metric is computed in binary64.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.softfloat.ieee754 import ulp

__all__ = ["rmse", "relative_rmse", "max_abs_error", "ulp_error"]


def _as_float_list(values: Sequence) -> list[float]:
    return [float(v) for v in values]


def rmse(measured: Sequence, reference: Sequence) -> float:
    """Root-mean-squared error between measured and reference values."""
    m = _as_float_list(measured)
    r = _as_float_list(reference)
    if len(m) != len(r):
        raise ValueError("measured and reference lengths differ")
    if not m:
        raise ValueError("cannot compute RMSE of empty sequences")
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(m, r)) / len(m))


def relative_rmse(measured: Sequence, reference: Sequence) -> float:
    """RMSE normalised by the RMS magnitude of the reference."""
    r = _as_float_list(reference)
    denom = math.sqrt(sum(v * v for v in r) / len(r)) if r else 0.0
    if denom == 0.0:
        raise ValueError("reference has zero RMS magnitude")
    return rmse(measured, reference) / denom


def max_abs_error(measured: Sequence, reference: Sequence) -> float:
    """Largest absolute deviation from the reference."""
    m = _as_float_list(measured)
    r = _as_float_list(reference)
    if len(m) != len(r):
        raise ValueError("measured and reference lengths differ")
    if not m:
        raise ValueError("cannot compute error of empty sequences")
    return max(abs(a - b) for a, b in zip(m, r))


def ulp_error(measured: Sequence, reference: Sequence) -> np.ndarray:
    """Per-element error expressed in units-in-the-last-place of the reference."""
    m = _as_float_list(measured)
    r = _as_float_list(reference)
    if len(m) != len(r):
        raise ValueError("measured and reference lengths differ")
    out = np.empty(len(m), dtype=np.float64)
    for i, (a, b) in enumerate(zip(m, r)):
        u = ulp(b if b != 0.0 else a)
        out[i] = abs(a - b) / u if u > 0 else 0.0
    return out
