import cmath
import math

import numpy as np
import pytest

from bellcat.errors import BellCatError, ImaginaryResidueError, QuadratureError, TruncationError
from bellcat.series import TruncationConfig, _mode_h_tables, series_values
from bellcat.special_fn import log_factorial_table
from bellcat.states import STATE_LABELS, BellCatSpec
from bellcat.tfd import thermal_params
from bellcat.wigner import (
    CHI_BROKEN,
    CHI_PRINTED,
    GridAxis,
    PhasePoint,
    SliceDescriptor,
    closed_form_zero_temperature,
    default_cat_cap,
    fock_wigner_kernels,
    hermite_functions,
    wigner_grid,
    wigner_oracle_values,
    wigner_point,
    wigner_values,
)

OMEGA = 2 * math.pi * 5.5e9
T0 = thermal_params(0.0, OMEGA)


def params_for(T):
    return thermal_params(T, OMEGA)


class TestHermiteFunctions:
    def test_ground_state(self):
        xi = np.linspace(-3, 3, 7)
        psi = hermite_functions(4, xi)
        assert np.allclose(psi[0], math.pi**-0.25 * np.exp(-0.5 * xi**2), rtol=1e-14)

    def test_orthonormality_by_quadrature(self):
        xi = np.linspace(-20, 20, 4001)
        psi = hermite_functions(12, xi)
        gram = psi @ psi.T * (xi[1] - xi[0])
        assert np.max(np.abs(gram - np.eye(13))) < 1e-10


class TestFockKernels:
    def test_vacuum_kernel_is_gaussian(self):
        x, y = np.array([0.0, 0.7, -1.3]), np.array([0.0, -0.4, 0.8])
        k = fock_wigner_kernels(2, x, y)
        expected = np.exp(-(x**2 + y**2)) / math.pi
        assert np.max(np.abs(k[:, 0, 0] - expected)) < 1e-12

    def test_one_photon_origin(self):
        k = fock_wigner_kernels(1, np.array([0.0]), np.array([0.0]))
        assert abs(k[0, 1, 1] - (-1.0 / math.pi)) < 1e-12

    def test_conjugate_symmetry(self):
        k = fock_wigner_kernels(5, np.array([0.9]), np.array([0.3]))[0]
        assert np.max(np.abs(k - k.conj().T)) < 1e-12

    def test_normalization_per_diagonal(self):
        # integral of the diagonal kernel over phase space is 1 for every n
        nodes, w = np.polynomial.legendre.leggauss(80)
        L = 9.0
        x, y = np.meshgrid(L * nodes, L * nodes, indexing="ij")
        k = fock_wigner_kernels(3, x.ravel(), y.ravel())
        wts = np.multiply.outer(L * w, L * w).ravel()
        for n in range(4):
            total = float(np.real(np.sum(k[:, n, n] * wts)))
            assert total == pytest.approx(1.0, abs=1e-8)


def trapezoid_kernels(nmax, x, y, half_range, npts):
    """One trapezoid level of the kernel integral on npts + 1 equally spaced nodes."""
    s = np.linspace(-half_range, half_range, npts + 1)
    weight = np.full(npts + 1, 2.0 * half_range / npts)
    weight[0] *= 0.5
    weight[-1] *= 0.5
    out = np.empty((x.size, nmax + 1, nmax + 1), dtype=complex)
    for p in range(x.size):
        ket = hermite_functions(nmax, x[p] - 0.5 * s)
        bra = hermite_functions(nmax, x[p] + 0.5 * s)
        out[p] = (ket * (np.exp(1j * s * y[p]) * weight)) @ bra.T / (2.0 * math.pi)
    return out


def doubled_kernels(nmax, x, y, tol=1e-10):
    """Independent trapezoid levels, doubled until two agree below tol: (kernels, nodes, doublings)."""
    turning = math.sqrt(2.0 * nmax + 1.0)
    half_range = 2.0 * (turning + float(np.max(np.abs(x)))) + 10.0
    freq = turning + float(np.max(np.abs(y))) + 1.0
    npts = 256
    while npts < half_range * freq / math.pi * 1.3:
        npts *= 2
    prev = trapezoid_kernels(nmax, x, y, half_range, npts)
    doublings = 0
    while True:
        npts *= 2
        doublings += 1
        current = trapezoid_kernels(nmax, x, y, half_range, npts)
        if np.max(np.abs(current - prev)) < tol:
            return current, npts, doublings
        prev = current


class TestNestedKernelRefinement:
    @pytest.mark.parametrize("nmax", [0, 5, 19, 40])
    def test_matches_single_level_at_converged_count(self, nmax):
        x = np.array([0.0, 0.9, -2.5, 4.0])
        y = np.array([0.0, 0.3, 1.7, -3.2])
        want, npts, doublings = doubled_kernels(nmax, x, y)
        assert np.max(np.abs(fock_wigner_kernels(nmax, x, y) - want)) < 1e-13
        # converged at the same level: one doubling fewer stops at half the nodes
        with pytest.raises(QuadratureError, match=f"by {npts // 2} nodes"):
            fock_wigner_kernels(nmax, x, y, max_doublings=doublings - 1)
        assert np.max(np.abs(fock_wigner_kernels(nmax, x, y, max_doublings=doublings) - want)) < 1e-13

    @pytest.mark.parametrize("doublings, nodes", [(0, 256), (2, 1024)])
    def test_unconverged_reports_last_node_count(self, doublings, nodes):
        with pytest.raises(QuadratureError, match=f"by {nodes} nodes"):
            fock_wigner_kernels(5, np.array([0.9]), np.array([0.3]), tol=0.0, max_doublings=doublings)


def scattered_h_tables(gamma, q, one_minus_q, cat_cap, thermal_cap):
    """The series' contraction tables as per-band scatter-adds, one thermal row at a time."""
    lf = log_factorial_table(cat_cap + thermal_cap)
    n = np.arange(cat_cap + 1)
    log_mag = (math.log(abs(gamma)) + 0.5 * math.log(one_minus_q)) * (n[:, None] + n[None, :]) \
        - lf[n][:, None] - lf[n][None, :]
    base = np.exp(log_mag) * np.exp(1j * cmath.phase(gamma) * (n[:, None] - n[None, :]))
    n1 = np.arange(thermal_cap + 1)
    if q > 0.0:
        therm = np.exp(n1[None, :] * math.log(q) + lf[n[:, None] + n1[None, :]] - lf[n1][None, :])
    else:
        therm = np.zeros((cat_cap + 1, thermal_cap + 1))
        therm[:, 0] = np.exp(lf[n])
    therm *= np.where((n[:, None] + n1[None, :]) % 2 == 0, 1.0, -1.0)
    sign = np.where(n % 2 == 0, 1.0, -1.0)
    signed = [base, base * sign[None, :], base * sign[:, None], base * sign[:, None] * sign[None, :]]
    shape = (4, cat_cap + 1, cat_cap + thermal_cap + 1)
    h_ket, h_bra, ring_ket, ring_bra = (np.zeros(shape, dtype=complex) for _ in range(4))
    for j0 in range(cat_cap + 1):
        cols = slice(j0, j0 + thermal_cap + 1)
        t_row = therm[j0]
        d_ring = cat_cap - j0
        for st in range(4):
            cs = signed[st]
            h_ket[st, : cat_cap + 1 - j0, cols] += cs[j0:, j0][:, None] * t_row[None, :]
            ring_ket[st, d_ring, cols] += cs[cat_cap, j0] * t_row
            if j0 + 1 <= cat_cap:
                h_bra[st, 1 : cat_cap + 1 - j0, cols] += cs[j0, j0 + 1 :][:, None] * t_row[None, :]
            if d_ring >= 1:
                ring_bra[st, d_ring, cols] += cs[j0, cat_cap] * t_row
    return h_ket, h_bra, ring_ket, ring_bra


class TestSeriesTables:
    @pytest.mark.parametrize("gamma", [1.0, 1 + 1j, 0.3j, 2.0])
    @pytest.mark.parametrize("q", [0.0, 0.3, 0.8])
    @pytest.mark.parametrize("caps", [(1, 1), (12, 30)])
    def test_matches_scattered_bands(self, gamma, q, caps):
        got = _mode_h_tables(gamma, q, 1.0 - q, *caps)
        want = scattered_h_tables(gamma, q, 1.0 - q, *caps)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


class TestParityOrigin:
    @pytest.mark.parametrize("label", sorted(STATE_LABELS))
    @pytest.mark.parametrize("alpha", [1.0, 1 + 1j, 2.0])
    def test_origin_value(self, label, alpha):
        spec = BellCatSpec.from_label(label, alpha)
        w0 = wigner_point(spec, T0, PhasePoint(0, 0, 0, 0))
        assert abs(w0 - spec.sigma / math.pi**2) < 1e-12

    @pytest.mark.parametrize("label", sorted(STATE_LABELS))
    def test_large_amplitude_lobe_does_not_overflow(self, label):
        # at |alpha| = 20 the branch exponents reach 4|alpha|^2 = 1600 and
        # C^2 = e^{-800}/2: only the log-space fold keeps both representable.
        # At the lobe (sqrt2 alpha, sqrt2 k alpha) one diagonal branch carries
        # the whole value, C^2 e^{2|alpha|^2} / pi^2 = 1/(2 pi^2)
        alpha = 20.0
        spec = BellCatSpec.from_label(label, alpha)
        lobe = PhasePoint(math.sqrt(2) * alpha, 0.0, math.sqrt(2) * spec.k * alpha, 0.0)
        assert abs(wigner_point(spec, T0, lobe) - 1.0 / (2.0 * math.pi**2)) < 1e-12


class TestZeroTemperatureClosedForm:
    @pytest.mark.parametrize("label", sorted(STATE_LABELS))
    @pytest.mark.parametrize("alpha", [1.0, 1 + 1j, 2.0])
    def test_series_matches_coherent_algebra(self, label, alpha):
        # both the production Gaussian form and the series reference
        spec = BellCatSpec.from_label(label, alpha)
        rng = np.random.default_rng(hash((label, str(alpha))) % 2**32)
        pts = rng.uniform(-3.5, 3.5, size=(4, 40))
        want = closed_form_zero_temperature(spec, *pts)
        assert np.max(np.abs(wigner_values(spec, T0, *pts) - want)) < 1e-9
        assert np.max(np.abs(series_values(spec, T0, *pts) - want)) < 1e-9

    def test_lobes_and_fringe_ridge(self):
        # the coherent lobes of Phi+ sit on the diagonal x1 = x2 = +-sqrt(2) a;
        # the interference ridge peaks at the origin with value 1/pi^2
        alpha = 1.5
        spec = BellCatSpec.from_label("phi-plus", alpha)
        x = np.linspace(-4, 4, 161)
        diag = wigner_values(spec, T0, x, 0 * x, x, 0 * x)
        want = closed_form_zero_temperature(spec, x, 0 * x, x, 0 * x)
        assert np.max(np.abs(diag - want)) < 1e-10
        lobe = np.argmin(np.abs(x - math.sqrt(2) * alpha))
        origin = np.argmin(np.abs(x))
        assert diag[lobe] > 0.2 * diag.max()
        assert diag[origin] == pytest.approx(1.0 / math.pi**2, rel=1e-9)


class TestOracleAgreement:
    @pytest.mark.parametrize("label", ["phi-minus", "psi-plus"])
    def test_cold_agreement(self, label):
        spec = BellCatSpec.from_label(label, 1 + 1j)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-3, 3, size=(4, 6))
        ws = wigner_values(spec, T0, *pts)
        wo = wigner_oracle_values(spec, T0, *pts)
        assert np.max(np.abs(ws - wo)) < 1e-8

    def test_thermal_agreement(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        params = params_for(1.0)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-3, 3, size=(4, 5))
        ws = wigner_values(spec, params, *pts)
        wo = wigner_oracle_values(spec, params, *pts)
        assert np.max(np.abs(ws - wo)) < 1e-8

    def test_lobe_point(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        params = params_for(0.01)
        pt = PhasePoint(math.sqrt(2), 0.0, math.sqrt(2), 0.0)
        ws = wigner_point(spec, params, pt)
        wo = wigner_oracle_values(spec, params, pt.x1, pt.y1, pt.x2, pt.y2)[0]
        assert abs(ws - wo) < 1e-8


class TestSymmetries:
    def test_mode2_flip_exact(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-4, 4, size=(4, 100))
        for label in ("phi-plus", "phi-minus"):
            spec = BellCatSpec.from_label(label, 1 + 1j)
            partner = spec.flipped_mode2()
            params = params_for(0.7)
            a = wigner_values(spec, params, *pts)
            b = wigner_values(partner, params, pts[0], pts[1], -pts[2], -pts[3])
            assert np.max(np.abs(a - b)) < 1e-12

    def test_zero_temperature_continuity(self):
        spec = BellCatSpec.from_label("psi-minus", 1.0)
        rng = np.random.default_rng(12)
        pts = rng.uniform(-3, 3, size=(4, 20))
        cold = wigner_values(spec, params_for(1e-6), *pts)
        frozen = wigner_values(spec, T0, *pts)
        assert np.max(np.abs(cold - frozen)) < 1e-6

    def test_printed_convention_is_reflected_kernel(self):
        # a property of the series' chi conventions, so the series sits on
        # both sides (against the Gaussian form the two differ by ~3e-11)
        spec = BellCatSpec.from_label("psi-plus", 1 + 1j)
        params = params_for(1.0)
        rng = np.random.default_rng(13)
        pts = rng.uniform(-3, 3, size=(4, 25))
        printed = series_values(spec, params, *pts, chi_mode=CHI_PRINTED)
        reflected = series_values(spec, params, -pts[0], pts[1], -pts[2], pts[3])
        assert np.max(np.abs(printed - reflected)) < 1e-12
        # the production entry point routes the printed convention to the series
        assert np.array_equal(wigner_values(spec, params, *pts, chi_mode=CHI_PRINTED), printed)

    def test_broken_chi_trips_residue_guard(self):
        spec = BellCatSpec.from_label("psi-plus", 1 + 1j)
        params = params_for(1.0)
        rng = np.random.default_rng(14)
        pts = rng.uniform(-2, 2, size=(4, 10))
        with pytest.raises(ImaginaryResidueError):
            series_values(spec, params, *pts, chi_mode=CHI_BROKEN)


class TestTruncationConfig:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            TruncationConfig(epsilon=2e-3)
        with pytest.raises(ValueError):
            TruncationConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            TruncationConfig(cat_cap=0)

    def test_resolution_tracks_temperature(self):
        spec = BellCatSpec.from_label("phi-plus", 1.0)
        cold = TruncationConfig().resolve(spec, T0)
        hot = TruncationConfig().resolve(spec, params_for(2.0))
        assert hot.cat_cap > cold.cat_cap
        assert hot.thermal_cap > cold.thermal_cap
        assert cold.cat_cap == default_cat_cap(spec, T0) == 19

    def test_undersized_caps_raise(self):
        spec = BellCatSpec.from_label("phi-plus", 2.0)
        trunc = TruncationConfig(cat_cap=6)
        x = np.linspace(-3, 3, 9)
        with pytest.raises(TruncationError):
            series_values(spec, T0, x, 0 * x, x, 0 * x, trunc=trunc)

    def test_cap_convergence(self):
        # doubling the resolved caps must not move the values beyond the tail budget
        spec = BellCatSpec.from_label("phi-minus", 1 + 1j)
        params = params_for(1.0)
        rng = np.random.default_rng(15)
        pts = rng.uniform(-3, 3, size=(4, 12))
        base = TruncationConfig().resolve(spec, params)
        double = TruncationConfig(cat_cap=2 * base.cat_cap, thermal_cap=2 * base.thermal_cap)
        a = series_values(spec, params, *pts, trunc=base)
        b = series_values(spec, params, *pts, trunc=double)
        assert np.max(np.abs(a - b)) < 1e-8

    def test_thermal_overflow_raises(self):
        # psi-plus, alpha = 2 at 5 K (caps 159/493): the thermal weights
        # (n+n1)!/n1! q^n1 overflow, which once came out as NaN values
        spec = BellCatSpec.from_label("psi-plus", 2.0)
        x = np.linspace(-3, 3, 5)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BellCatError):
            series_values(spec, params_for(5.0), x, 0 * x, x, 0 * x)
        # the production form is finite there
        assert np.all(np.isfinite(wigner_values(spec, params_for(5.0), x, 0 * x, x, 0 * x)))


class TestGrids:
    def test_grid_matches_pointwise(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        params = params_for(0.01)
        slice_ = SliceDescriptor.centered(("x1", "x2"), 4.0, 9)
        grid = wigner_grid(spec, params, slice_)
        x1s, x2s = grid.axis_values(0), grid.axis_values(1)
        for flat in range(0, grid.values.size, 7):
            i, j = divmod(flat, x2s.size)
            direct = wigner_point(spec, params, PhasePoint(float(x1s[i]), 0.0, float(x2s[j]), 0.0))
            assert abs(grid.values[i, j] - direct) < 1e-12

    def test_same_mode_slice(self):
        spec = BellCatSpec.from_label("phi-plus", 1.0)
        params = params_for(0.01)
        slice_ = SliceDescriptor.centered(("x1", "y1"), 3.0, 7, {"x2": 0.5, "y2": -0.25})
        grid = wigner_grid(spec, params, slice_)
        x1s = grid.axis_values(0)
        direct = wigner_point(spec, params, PhasePoint(float(x1s[2]), float(grid.axis_values(1)[4]), 0.5, -0.25))
        assert abs(grid.values[2, 4] - direct) < 1e-12

    def test_negative_fringes_cold(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        grid = wigner_grid(spec, params_for(0.01), SliceDescriptor.centered(("x1", "x2"), 6.0, 61))
        assert float(grid.values.min()) < 0

    def test_hot_range_shrinks(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        slice_ = SliceDescriptor.centered(("x1", "x2"), 6.0, 31)
        cold = wigner_grid(spec, params_for(0.01), slice_)
        hot = wigner_grid(spec, params_for(10.0), slice_)
        assert np.max(np.abs(hot.values)) < np.max(np.abs(cold.values))

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            GridAxis("x3", -1, 1, 5)
        with pytest.raises(ValueError):
            GridAxis("x1", -1, 1, 1)
        with pytest.raises(ValueError):
            GridAxis("x1", 1, -1, 5)
        with pytest.raises(ValueError):
            SliceDescriptor.centered(("x1", "x1"), 2.0, 5)

    def test_psi_phi_reflection_on_grids(self):
        params = params_for(0.01)
        slice_ = SliceDescriptor.centered(("x1", "x2"), 5.0, 21)
        phi = wigner_grid(BellCatSpec.from_label("phi-plus", 1.0), params, slice_)
        psi = wigner_grid(BellCatSpec.from_label("psi-plus", 1.0), params, slice_)
        # x2 -> -x2 exchanges the two grids (columns reversed; grid is symmetric)
        assert np.max(np.abs(phi.values - psi.values[:, ::-1])) < 1e-12
