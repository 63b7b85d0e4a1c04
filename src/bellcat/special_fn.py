"""Stable special-function primitives: the log-factorial table and the envelope-scaled Laguerre table.

Every series evaluator in this package assembles its factorial-heavy
coefficients in log space and exponentiates once per term; the log-factorial
table here is therefore the single source of those logs.  The table is built
by double-double accumulation of ln(k) so that entries are correctly rounded
and adjacent differences stay consistent with ln(n+1) to ~1e-12 even at
n ~ 10^3.  A pure builder makes it, and `functools.cache` keeps one read-only
table per power-of-two size; the module holds no other state.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import TruncationError

__all__ = [
    "HARD_LOG_FACTORIAL",
    "log_factorial_table",
    "laguerre_envelope_table",
]

# Largest nmax `log_factorial_table` takes: above the 2,512 the series asks for at its hard caps (the
# Fock and thermal caps summed); its table of 2**15 entries builds in about 14 ms on a 2-core box.
HARD_LOG_FACTORIAL = 2**14


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


@functools.cache
def _log_factorials(size: int) -> np.ndarray:
    """Read-only [ln(0!), ..., ln((size - 1)!)], accumulated in double-double from ln(0!) = 0."""
    table = np.zeros(size)
    hi = lo = 0.0
    for n in range(1, size):
        s, e = _two_sum(hi, math.log(n))
        lo += e
        hi, lo = _two_sum(s, lo)
        table[n] = hi + lo
    table.flags.writeable = False
    return table


def log_factorial_table(nmax: int) -> np.ndarray:
    """Read-only vector [ln(0!), ..., ln(nmax!)] for vectorized coefficient assembly; thread-safe.

    A view of the cached table of the next power-of-two size, whose entries
    match every other table's bit for bit; two threads may build it twice.
    An nmax past `HARD_LOG_FACTORIAL` raises TruncationError before any table.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if nmax > HARD_LOG_FACTORIAL:
        raise TruncationError(f"log-factorial table size {nmax} is beyond the hard cap {HARD_LOG_FACTORIAL}")
    return _log_factorials(1 << int(nmax).bit_length())[: nmax + 1]


def laguerre_envelope_table(max_degree: int, max_order: int, x: np.ndarray) -> np.ndarray:
    """Envelope-scaled table L^m_N(x) e^{-x/2} over all orders and degrees at once.

    Shape (max_order+1, max_degree+1, npts).  Scaling by the Gaussian envelope
    keeps every entry polynomially bounded, so thermal series can run to
    degrees of several hundred at x of several hundred without overflow; the
    recurrence is linear, hence unchanged by the common scale.

    The result is the (order, degree, point) view of a degree-major buffer,
    so it is not C-contiguous: each degree step fills one contiguous
    (order, point) block.
    """
    if max_degree < 0 or max_order < 0:
        raise ValueError("degrees and orders must be >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ValueError("Laguerre argument must be finite and >= 0")
    env = np.exp(-0.5 * x)
    out = np.empty((max_degree + 1, max_order + 1, x.size))
    out[0] = env
    if max_degree == 0:
        return out.transpose(1, 0, 2)
    # L_{n+1} = ((2n + 1 + m - x) L_n - (n + m) L_{n-1}) / (n + 1), evaluated left to right; the
    # factors depend only on k = 2n + 1 + m and k = n + m, so their rows k - x and k are formed
    # once, the latter spelled out over the points (a broadcast column multiplies at half speed)
    ks = np.arange(2 * max_degree + max_order, dtype=float)[:, None]
    k_minus_x = ks - x
    k_rows = np.repeat(ks[: max_degree + max_order], x.size, axis=1)
    out[1] = k_minus_x[1 : max_order + 2] * env
    lag = np.empty((max_order + 1, x.size))
    for n in range(1, max_degree):
        np.multiply(k_minus_x[2 * n + 1 : 2 * n + 2 + max_order], out[n], out=out[n + 1])
        np.multiply(k_rows[n : n + max_order + 1], out[n - 1], out=lag)
        out[n + 1] -= lag
        out[n + 1] /= n + 1.0
    return out.transpose(1, 0, 2)
