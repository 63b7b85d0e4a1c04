"""Stable special-function primitives: the log-factorial table and the envelope-scaled Laguerre table.

Every series evaluator in this package assembles its factorial-heavy
coefficients in log space and exponentiates once per term; the log-factorial
table here is therefore the single source of those logs.  The table is built
by double-double accumulation of ln(k) so that entries are correctly rounded
and adjacent differences stay consistent with ln(n+1) to ~1e-12 even at
n ~ 10^3.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_factorial_table",
    "laguerre_envelope_table",
]


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


_table = np.zeros(1)
_hi = 0.0
_lo = 0.0


def _grow_table(nmax: int) -> None:
    global _table, _hi, _lo
    old = _table.size - 1
    if nmax <= old:
        return
    grown = np.empty(nmax + 1)
    grown[: old + 1] = _table
    hi, lo = _hi, _lo
    for n in range(old + 1, nmax + 1):
        s, e = _two_sum(hi, math.log(n))
        lo += e
        hi, lo = _two_sum(s, lo)
        grown[n] = hi + lo
    _table, _hi, _lo = grown, hi, lo


def log_factorial_table(nmax: int) -> np.ndarray:
    """Read-only vector [ln(0!), ..., ln(nmax!)] for vectorized coefficient assembly."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if nmax >= _table.size:
        _grow_table(max(nmax, 2 * _table.size))
    view = _table[: nmax + 1]
    view.flags.writeable = False
    return view


def laguerre_envelope_table(max_degree: int, max_order: int, x: np.ndarray) -> np.ndarray:
    """Envelope-scaled table L^m_N(x) e^{-x/2} over all orders and degrees at once.

    Shape (max_order+1, max_degree+1, npts).  Scaling by the Gaussian envelope
    keeps every entry polynomially bounded, so thermal series can run to
    degrees of several hundred at x of several hundred without overflow; the
    recurrence is linear, hence unchanged by the common scale.
    """
    if max_degree < 0 or max_order < 0:
        raise ValueError("degrees and orders must be >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ValueError("Laguerre argument must be finite and >= 0")
    env = np.exp(-0.5 * x)
    orders = np.arange(max_order + 1, dtype=float)[:, None]
    out = np.empty((max_order + 1, max_degree + 1, x.size))
    out[:, 0, :] = env[None, :]
    if max_degree == 0:
        return out
    out[:, 1, :] = (1.0 + orders - x[None, :]) * env[None, :]
    for n in range(1, max_degree):
        out[:, n + 1, :] = ((2 * n + 1 + orders - x[None, :]) * out[:, n, :]
                            - (n + orders) * out[:, n - 1, :]) / (n + 1)
    return out
