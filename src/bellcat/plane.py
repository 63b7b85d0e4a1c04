"""Sign-resolved quadrature of W over the plane spanned by the scaled lobes P and iP: a reference for nu.

A point (s, t) of the plane is zeta = (s - i t) P/a, a = |P|, with z_i = sqrt(D_i) zeta_i.  W is a
unit Gaussian across the plane, so I_+- = pi D1 D2 int ds dt max(+-W, 0) (`notes/decisions.md`,
section 8, which gives the rule in full).  The sign changes of W in t are found numerically: a scan,
golden-section refinement of each positive local minimum of the samples, and bisection of each
bracket.  Each row is cut at a fixed grid and at every zero into sign-definite Gauss-Legendre panels,
and the s panels are graded toward the edges of the negative set, found by Newton's method on
W = dW/dt = 0.  Each step of a search evaluates W on all its rows together.  P and D only place the
plane and a only sets the scan density and reach: the module imports no other `bellcat` module and
knows no other formula of the reduction in `bellcat.negativity`.
"""

import math

import numpy as np

__all__ = ["plane_volumes"]

# reach in t, and in s beyond the lobes at +-a: e^{-64} of the Gaussian's peak
_REACH = 8.0
# Gauss-Legendre nodes per panel, in s and in t
_NODES = 8
# times the s panels halve toward each edge of the negative set
_LEVELS = 10
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
# central-difference step and iterations of the edge's Newton solve
_EDGE_STEP = 1e-4
_EDGE_ITERATIONS = 8
# points per call of W: a chunk's temporaries stay in cache, which took a quarter off a whole
# plane_volumes call on a 2-core box (phi-minus and psi-plus, alpha = 1, 0.01 K)
_CHUNK = 2**13


def _golden_minimum(f, lo, hi, iters=20):
    """Position and value of the minimum of f on each [lo, hi], by golden section."""
    x1, x2 = lo + _GOLDEN * (hi - lo), hi - _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        left = f1 < f2
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        x1, x2 = np.where(left, lo + _GOLDEN * (hi - lo), x2), np.where(left, x1, hi - _GOLDEN * (hi - lo))
        f_new = f(np.where(left, x1, x2))
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
    left = f1 < f2
    return np.where(left, x1, x2), np.where(left, f1, f2)


def _bisect_roots(f, lo, hi, iters=12):
    """A zero of f in each sign-changing [lo, hi]: bisection, then the secant of the last bracket."""
    f_lo, f_hi = f(lo), f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        right = np.sign(f_mid) == np.sign(f_lo)
        lo, f_lo = np.where(right, mid, lo), np.where(right, f_mid, f_lo)
        hi, f_hi = np.where(right, hi, mid), np.where(right, f_hi, f_mid)
    return lo - f_lo * (hi - lo) / (f_hi - f_lo)


def _split(breaks, longest):
    """The breakpoints with every gap longer than `longest` cut into equal parts."""
    parts = np.ceil(np.diff(breaks) / longest).astype(int)
    return np.append(np.concatenate([np.linspace(lo, hi, n, endpoint=False)
                                     for lo, hi, n in zip(breaks[:-1], breaks[1:], parts)]), breaks[-1])


def _panel_rule(lo, hi):
    """Gauss-Legendre nodes and weights on each panel [lo, hi], one panel per row."""
    x, w = np.polynomial.legendre.leggauss(_NODES)
    half = 0.5 * (hi - lo)[:, None]
    return 0.5 * (hi + lo)[:, None] + half * x, half * w


def _edges(f, s, t):
    """s of the point near each start (s, t) where W = dW/dt = 0: Newton's method with central differences."""
    d = _EDGE_STEP * np.arange(-1.0, 2.0)
    for _ in range(_EDGE_ITERATIONS):
        v = f(s[:, None, None] + d[:, None], t[:, None, None] + d)
        w0 = v[:, 1, 1]
        ws = (v[:, 2, 1] - v[:, 0, 1]) / (2.0 * _EDGE_STEP)
        wt = (v[:, 1, 2] - v[:, 1, 0]) / (2.0 * _EDGE_STEP)
        wtt = (v[:, 1, 2] - 2.0 * w0 + v[:, 1, 0]) / _EDGE_STEP**2
        wst = (v[:, 2, 2] - v[:, 2, 0] - v[:, 0, 2] + v[:, 0, 0]) / (4.0 * _EDGE_STEP**2)
        det = ws * wtt - wt * wst
        ds, dt = (wt * wt - w0 * wtt) / det, (wst * w0 - ws * wt) / det
        s, t = s + ds, t + dt
    if not np.all(np.abs(ds) <= 1e-12 * np.maximum(np.abs(s), 1.0)):
        raise ArithmeticError(f"the edge of the negative set did not converge: last Newton steps {ds}")
    return s


def plane_volumes(w, lobes, widths) -> tuple[float, float]:
    """I_+ and I_- of W by sign-resolved quadrature over the plane spanned by P and iP.

    `w` is W(x1, y1, x2, y2) on paired coordinate arrays; `lobes` holds the
    scaled lobes P_i and `widths` the widenings D_i of the two modes (module
    docstring).
    """
    lobes = np.asarray(lobes, dtype=complex)
    widths = np.asarray(widths, dtype=float)
    a = float(np.linalg.norm(lobes))
    direction = np.sqrt(widths) * lobes / a

    def f(s, t):
        """W at z = (s - i t) P/a scaled by sqrt(D), on broadcast arrays s and t."""
        s, t = np.broadcast_arrays(s, t)
        shape, s, t = s.shape, s.ravel(), t.ravel()
        out = np.empty(s.size)
        for lo in range(0, s.size, _CHUNK):
            sc, tc = s[lo:lo + _CHUNK], t[lo:lo + _CHUNK]
            out[lo:lo + _CHUNK] = w(*[part for d in direction
                                      for part in (sc * d.real + tc * d.imag, sc * d.imag - tc * d.real)])
        return out.reshape(shape)

    # the t-scan takes 8 points per fringe period pi/a, and at least 8 per unit length
    scan = np.linspace(-_REACH, _REACH, 2 * math.ceil(_REACH * max(8.0 * a / math.pi, 8.0)) + 1)

    def brackets(s):
        """Samples on the rows s, and (row, lo, hi): one t-interval around each sign change of W."""
        vals = f(s[:, None], scan)
        row, k = np.nonzero((vals[:, 1:] < 0) != (vals[:, :-1] < 0))
        # a positive local minimum of the samples may hide a dip below zero between them
        mid = vals[:, 1:-1]
        r, j = np.nonzero((mid >= 0) & (mid <= vals[:, :-2]) & (mid <= vals[:, 2:]))
        t_min, w_min = _golden_minimum(lambda t: f(s[r], t), scan[j], scan[j + 2])
        r, j, t_min = r[w_min < 0], j[w_min < 0], t_min[w_min < 0]
        return vals, (np.concatenate([row, r, r]), np.concatenate([scan[k], scan[j], t_min]),
                      np.concatenate([scan[k + 1], t_min, scan[j + 2]]))

    s_reach = a + _REACH
    coarse = np.linspace(-s_reach, s_reach, 2 * math.ceil(8.0 * s_reach) + 1)
    vals, (row, _, _) = brackets(coarse)
    negative = np.unique(row)
    s_breaks = np.array([-s_reach, s_reach])
    if negative.size:
        # Newton starts midway between the outermost rows with and without a negative value, at the
        # lowest sample of the row with one
        inside = negative[[0, -1]]
        lo_edge, hi_edge = _edges(f, 0.5 * (coarse[inside] + coarse[inside + [-1, 1]]),
                                  scan[np.argmin(vals[inside], axis=1)])
        middle = 0.5 * (lo_edge + hi_edge)
        halving = np.append(0.5 ** np.arange(_LEVELS + 1), 0.0)
        s_breaks = np.unique(np.concatenate([edge_at - (edge_at - start) * halving for start, edge_at in (
            (-s_reach, lo_edge), (middle, lo_edge), (middle, hi_edge), (s_reach, hi_edge))]))
    s_breaks = _split(s_breaks, 1.0)
    s, w_s = (v.ravel() for v in _panel_rule(s_breaks[:-1], s_breaks[1:]))

    # t-panels: a fixed grid of at most half a fringe period and 1/2 on every row, cut at every zero
    # of W on the rows between the edges
    grid = _split(np.array([-_REACH, _REACH]), min(0.5 * math.pi / a, 0.5))
    rows, ts = np.repeat(np.arange(s.size), grid.size), np.tile(grid, s.size)
    if negative.size:
        between = np.flatnonzero((s > lo_edge) & (s < hi_edge))
        _, (row, lo, hi) = brackets(s[between])
        rows = np.concatenate([rows, between[row]])
        ts = np.concatenate([ts, _bisect_roots(lambda t: f(s[between[row]], t), lo, hi)])
    order = np.lexsort((ts, rows))
    rows, ts = rows[order], ts[order]
    panel = np.flatnonzero(rows[1:] == rows[:-1])
    t, w_t = _panel_rule(ts[panel], ts[panel + 1])
    pieces = np.sum(f(s[rows[panel], None], t) * w_t, axis=-1)
    row_plus = np.bincount(rows[panel], np.maximum(pieces, 0.0), minlength=s.size)
    row_minus = np.bincount(rows[panel], np.maximum(-pieces, 0.0), minlength=s.size)
    scale = math.pi * widths[0] * widths[1]
    return scale * float(w_s @ row_plus), scale * float(w_s @ row_minus)
