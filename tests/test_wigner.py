import cmath
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bellcat.cli
import bellcat.oracle
import bellcat.series
from bellcat.density import HARD_THERMAL_CAP, route_gaps
from bellcat.errors import BellCatError, CutoffError, ImaginaryResidueError, QuadratureError, TruncationError
from bellcat.oracle import (
    closed_form_zero_temperature,
    fock_wigner_kernels,
    hermite_functions,
    oracle_cutoff,
    wigner_oracle_values_many,
)
from bellcat.series import (
    CHI_BROKEN,
    CHI_PRINTED,
    _mode_h_tables,
    convention_diagnostics,
    default_cat_cap,
    default_thermal_cap,
    series_values,
    series_values_many,
)
from bellcat.special_fn import log_factorial_table
from bellcat.states import HARD_FOCK_CUTOFF, STATE_LABELS, BellCatSpec, fock_coefficients
from bellcat.tfd import HBAR, KB, state_modes, thermal_params
from bellcat.wigner import (
    HARD_GRID_POINTS, GridAxis, PhasePoint, SliceDescriptor, wigner_grid, wigner_point, wigner_values,
)
from test_cli import gaussian_w

FREQ_HZ = 5.5e9
OMEGA = 2 * math.pi * FREQ_HZ
T0 = thermal_params(0.0, OMEGA)


def params_for(T):
    return thermal_params(T, OMEGA)


def hermite_one_line(nmax: int, xi) -> np.ndarray:
    """The oscillator eigenfunction table with each recurrence step written as one expression."""
    xi = np.asarray(xi, dtype=float)
    out = np.empty((nmax + 1,) + xi.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * xi * xi)
    if nmax == 0:
        return out
    out[1] = math.sqrt(2.0) * xi * out[0]
    for n in range(1, nmax):
        out[n + 1] = (math.sqrt(2.0 / (n + 1)) * xi * out[n]
                      - math.sqrt(n / (n + 1)) * out[n - 1])
    return out


class TestHermiteFunctions:
    @pytest.mark.parametrize("shape", [(), (37,), (2, 3, 41)])
    @pytest.mark.parametrize("nmax", [0, 1, 2, 5, 128])
    def test_in_place_recurrence_is_bit_identical(self, nmax, shape):
        # 0-d, 1-D and the oracle's stacked (ket/bra, point, node) arguments
        xi = np.random.default_rng(nmax).uniform(-20.0, 20.0, shape)
        got = hermite_functions(nmax, xi)
        assert got.shape == (nmax + 1,) + shape
        assert np.array_equal(got, hermite_one_line(nmax, xi))

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


def dense_kernels(nmax, x, y):
    """The kernels from 4096 nodes over a range wider than any the oracle picks."""
    half_range = 2.0 * (math.sqrt(2.0 * nmax + 1.0) + float(np.max(np.abs(x)))) + 10.0
    return trapezoid_kernels(nmax, x, y, half_range, 4096)


def validate_kernel_calls():
    """(nmax, x, y, s-nodes) of each Fock-kernel call in `validate --quick` and the full battery."""
    calls = []
    kernel_sum = bellcat.oracle._kernel_sum

    def spy(nmax, x, y, s, weight):
        calls.append((nmax, x.copy(), y.copy(), s.copy()))
        return kernel_sum(nmax, x, y, s, weight)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bellcat.oracle, "_kernel_sum", spy)
        for quick in (True, False):
            bellcat.cli._run_checks(quick)
    return calls


class TestKernelQuadratureSize:
    @pytest.mark.parametrize("nmax", [0, 5, 19, 40])
    def test_matches_dense_rule(self, nmax):
        x = np.array([0.0, 0.9, -2.5, 4.0])
        y = np.array([0.0, 0.3, 1.7, -3.2])
        assert np.max(np.abs(fock_wigner_kernels(nmax, x, y) - dense_kernels(nmax, x, y))) < bellcat.oracle._KERNEL_TOL

    def test_count_within_window_at_validate_configs(self):
        # validate's two oracle configs: cutoff 19 at 4 and 8 points, cutoff 128 at 8 points, two
        # kernel calls each.  The count the bound picks, 2 npos nodes on its own range, lies between
        # the smallest count meeting the tolerance on that range and 1.5 times it.  Below the bound's
        # count the error only grows as the count falls (a scan up from 2 finds the same smallest
        # counts), so the first failure scanning down marks the smallest count
        calls = validate_kernel_calls()
        assert sorted({(nmax, x.size) for nmax, x, _, _ in calls}) == [(19, 4), (19, 8), (128, 8)]
        for nmax, x, y, s in calls:
            count, half_range = 2 * (s.size - 1), s[-1]
            want = dense_kernels(nmax, x, y)

            def meets(npts):
                error = np.max(np.abs(trapezoid_kernels(nmax, x, y, half_range, npts) - want))
                return error < bellcat.oracle._KERNEL_TOL

            assert meets(count)
            smallest = count
            while meets(smallest - 2):
                smallest -= 2
            assert count <= 1.5 * smallest, (nmax, x.size, count, smallest)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("axis", range(4))
    def test_non_finite_coordinate_raises(self, axis, bad):
        # the rule is sized from max |y|, which a non-finite coordinate would make inf or nan
        coords = [np.zeros(1) for _ in range(4)]
        coords[axis][0] = bad
        start = time.perf_counter()
        with pytest.raises(ValueError, match="must be finite"):
            fock_wigner_kernels(0, *(coords[:2] if axis < 2 else coords[2:]))
        with pytest.raises(ValueError, match="must be finite"):
            wigner_oracle_values_many([BellCatSpec.from_label("phi-plus", 1.0)], thermal_params(0.0, 3e10), *coords)
        assert time.perf_counter() - start < 0.25

    def test_node_count_past_the_cap_raises_before_any_table(self, monkeypatch):
        # the count grows with max |y|: at y = 1e8 the rule would take about 2.5e8 s-nodes
        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(bellcat.oracle, "_kernel_sum", refuse)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(QuadratureError, match=rf"= 6 x \d+, past the cap {bellcat.oracle._KERNEL_WORK_CAP}"):
                fock_wigner_kernels(5, np.zeros(1), np.array([1e8]))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.25
        assert peak < 1e6

    def test_cap_admits_the_hard_cutoff_in_validate_boxes(self, monkeypatch):
        # validate's widest box, alpha = 1+i at 1 K, at the hard cutoff
        params = params_for(1.0)
        box = math.sqrt(2.0) * abs(1 + 1j) * max(mode.u for mode in params.modes) + 2.0
        sizes = []
        monkeypatch.setattr(bellcat.oracle, "_kernel_sum", lambda nmax, x, y, s, weight: sizes.append(s.size))
        fock_wigner_kernels(HARD_FOCK_CUTOFF, np.array([box, -box]), np.array([-box, box]))
        assert (HARD_FOCK_CUTOFF + 1) * sizes[0] <= bellcat.oracle._KERNEL_WORK_CAP


def kernel_sum_two_calls(nmax, x, y, s, weight):
    """The oracle's quadrature sum with separate Hermite tables for ket and bra and a complex weighted product."""
    out = np.empty((x.size, nmax + 1, nmax + 1), dtype=complex)
    for p in range(x.size):
        ket = hermite_functions(nmax, x[p] - 0.5 * s)
        bra = hermite_functions(nmax, x[p] + 0.5 * s)
        weighted = ket * (np.exp(1j * s * y[p]) * weight)
        half = (weighted.real @ bra.T + 1j * (weighted.imag @ bra.T)) / (2.0 * math.pi)
        out[p] = half + half.conj().T
    return out


class TestKernelSumTables:
    @pytest.mark.parametrize("nmax", [0, 5, 40, 128])
    def test_bit_identical_to_separate_tables(self, nmax, monkeypatch):
        x = np.array([0.0, 0.9, -2.5, 4.0, 1.3])
        y = np.array([0.0, 0.3, 1.7, -3.2, -0.6])
        got = fock_wigner_kernels(nmax, x, y)
        monkeypatch.setattr(bellcat.oracle, "_kernel_sum", kernel_sum_two_calls)
        assert np.array_equal(got, fock_wigner_kernels(nmax, x, y))

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
        # the temperature at which the Gibbs factor is q; both modes of a psi state, amplitudes gamma and -gamma
        params = thermal_params(-HBAR * OMEGA / (KB * math.log(q)) if q > 0.0 else 0.0, OMEGA)
        for amplitude, mode in state_modes(BellCatSpec.from_label("psi-plus", gamma), params):
            got = _mode_h_tables(amplitude, mode, *caps)
            want = scattered_h_tables(amplitude, mode.q, mode.one_minus_q, *caps)
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
        wo = wigner_oracle_values_many([spec], T0, *pts)[0]
        assert np.max(np.abs(ws - wo)) < 1e-8

    def test_thermal_agreement(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        params = params_for(1.0)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-3, 3, size=(4, 5))
        ws = wigner_values(spec, params, *pts)
        wo = wigner_oracle_values_many([spec], params, *pts)[0]
        assert np.max(np.abs(ws - wo)) < 1e-8

    def test_shared_kernels_are_bit_identical(self):
        # `bellcat validate` and criterion 04 evaluate the four states of an (alpha, T) in one
        # call, which computes one pair of kernels for them
        params = params_for(1.0)
        pts = np.random.default_rng(7).uniform(-3, 3, size=(4, 5))
        specs = [BellCatSpec.from_label(label, 1 + 1j) for label in STATE_LABELS]
        cutoff = oracle_cutoff(specs[0], params)
        assert all(oracle_cutoff(spec, params) == cutoff for spec in specs)
        for spec, shared in zip(specs, wigner_oracle_values_many(specs, params, *pts)):
            assert np.array_equal(shared, wigner_oracle_values_many([spec], params, *pts)[0])

    def test_lobe_point(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        params = params_for(0.01)
        pt = PhasePoint(math.sqrt(2), 0.0, math.sqrt(2), 0.0)
        ws = wigner_point(spec, params, pt)
        wo = wigner_oracle_values_many([spec], params, pt.x1, pt.y1, pt.x2, pt.y2)[0][0]
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

    @pytest.mark.parametrize("label, alpha, temp, ratio", [
        ("phi-plus", 1 + 1j, 1.0, 1.0),       # validate's config
        ("psi-minus", 1.0, 0.5, 1.3),         # the two modes build two table sets
        ("phi-minus", 0.7 - 0.4j, 0.0, 1.0),  # T = 0
    ])
    def test_convention_diagnostics_equal_the_separate_calls(self, label, alpha, temp, ratio):
        # the three diagnostics share one set of tables: the Laguerre table is unchanged by x -> -x,
        # and the broken variant's ten points are a prefix of the others'
        spec = BellCatSpec.from_label(label, alpha)
        params = thermal_params(temp, OMEGA, ratio * OMEGA)
        pts = np.random.default_rng(15).uniform(-3, 3, size=(4, 100))
        printed, reflected, broken = convention_diagnostics(spec, params, *pts)
        assert np.array_equal(printed, series_values(spec, params, *pts, chi_mode=CHI_PRINTED))
        assert np.array_equal(reflected, series_values(spec, params, -pts[0], pts[1], -pts[2], pts[3]))
        try:
            series_values(spec, params, *pts[:, :10], chi_mode=CHI_BROKEN)
        except ImaginaryResidueError:
            assert isinstance(broken, ImaginaryResidueError)
        else:
            assert broken is None


# the one-state call of each reference route, under the name the test ids carry
ONE_STATE = {"series_values": series_values,
             "wigner_oracle_values": lambda spec, *args, **kwargs: wigner_oracle_values_many([spec], *args, **kwargs)[0]}
SIZED_SPEC = BellCatSpec.from_label("phi-minus", 1.0)
ORIGIN = (0.0, 0.0, 0.0, 0.0)
# each size parameter of the reference routes: its hard cap and a call at a given size
SIZE_PARAMETERS = {
    "fock_coefficients": (HARD_FOCK_CUTOFF, lambda n: fock_coefficients(SIZED_SPEC, n)),
    "series cat_cap": (HARD_FOCK_CUTOFF, lambda n: series_values(SIZED_SPEC, params_for(1.0), *ORIGIN, cat_cap=n)),
    "series thermal_cap": (HARD_THERMAL_CAP,
                           lambda n: series_values(SIZED_SPEC, params_for(1.0), *ORIGIN, thermal_cap=n)),
    "oracle cutoff": (HARD_FOCK_CUTOFF,
                      lambda n: wigner_oracle_values_many([SIZED_SPEC], params_for(1.0), *ORIGIN, cutoff=n)),
    "hermite_functions": (HARD_FOCK_CUTOFF, lambda n: hermite_functions(n, 0.0)),
    "fock_wigner_kernels": (HARD_FOCK_CUTOFF, lambda n: fock_wigner_kernels(n, np.zeros(1), np.zeros(1))),
    "route_gaps": (HARD_FOCK_CUTOFF, lambda n: route_gaps([SIZED_SPEC], params_for(1.0), n)),
}


def refuse_table_builds(monkeypatch) -> None:
    """Make every table builder of the series and the oracle fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    for name in ("fock_wigner_kernels", "mode_blocks"):
        monkeypatch.setattr(bellcat.oracle, name, refuse)
    for name in ("_stacked_tables", "laguerre_envelope_table"):
        monkeypatch.setattr(bellcat.series, name, refuse)


class TestTruncationConfig:
    def test_cap_bounds(self):
        spec = BellCatSpec.from_label("phi-plus", 1.0)
        for caps in ({"cat_cap": 0}, {"thermal_cap": 0}, {"cat_cap": -3, "thermal_cap": 5}):
            with pytest.raises(ValueError, match="must be >= 1"):
                series_values(spec, T0, 0.0, 0.0, 0.0, 0.0, **caps)

    def test_resolution_tracks_temperature(self):
        spec = BellCatSpec.from_label("phi-plus", 1.0)
        hot = params_for(2.0)
        assert default_cat_cap(spec, hot) > default_cat_cap(spec, T0)
        assert default_thermal_cap(hot) > default_thermal_cap(T0)
        assert default_cat_cap(spec, T0) == 19

    def test_undersized_caps_raise(self):
        spec = BellCatSpec.from_label("phi-plus", 2.0)
        x = np.linspace(-3, 3, 9)
        with pytest.raises(TruncationError):
            series_values(spec, T0, x, 0 * x, x, 0 * x, cat_cap=6)

    def test_cap_convergence(self):
        # doubling the resolved caps must not move the values beyond the tail budget
        spec = BellCatSpec.from_label("phi-minus", 1 + 1j)
        params = params_for(1.0)
        rng = np.random.default_rng(15)
        pts = rng.uniform(-3, 3, size=(4, 12))
        cat_cap, thermal_cap = default_cat_cap(spec, params), default_thermal_cap(params)
        a = series_values(spec, params, *pts, cat_cap=cat_cap, thermal_cap=thermal_cap)
        b = series_values(spec, params, *pts, cat_cap=2 * cat_cap, thermal_cap=2 * thermal_cap)
        assert np.array_equal(a, series_values(spec, params, *pts))
        assert np.max(np.abs(a - b)) < 1e-8

    def test_hot_thermal_weights_stay_finite(self):
        # psi-plus, alpha = 2 at 5 K (caps 159/493): the thermal weights
        # (n+n1)!/n1! q^n1 overflowed here before each band was scaled by its
        # largest; an overflow warning now fails the test
        spec = BellCatSpec.from_label("psi-plus", 2.0)
        x = np.linspace(-3, 3, 5)
        got = series_values(spec, params_for(5.0), x, 0 * x, x, 0 * x)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - wigner_values(spec, params_for(5.0), x, 0 * x, x, 0 * x))) <= 1e-8

    def test_laguerre_overflow_raises_truncation_error(self):
        # psi-plus, alpha = 3 at 5 K with the thermal cap doubled (caps 291/986): the
        # envelope-scaled Laguerre table passes the float range at degree 1277
        spec = BellCatSpec.from_label("psi-plus", 3.0)
        with pytest.raises(TruncationError, match="Laguerre table overflows"):
            series_values(spec, params_for(5.0), 0.0, 0.0, 0.0, 0.0, cat_cap=291, thermal_cap=986)

    @pytest.mark.parametrize("alpha", [30.0, 100.0])
    @pytest.mark.parametrize("route", sorted(ONE_STATE))
    def test_large_amplitudes_raise_before_any_table(self, route, alpha):
        # the default caps here once asked for up to 30 GiB (cat cap ~4400 at |alpha| = 30)
        spec = BellCatSpec.from_label("phi-minus", alpha)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(TruncationError, match=f"beyond the hard cap {HARD_FOCK_CUTOFF}"):
                ONE_STATE[route](spec, params_for(1.0), 0.0, 0.0, 0.0, 0.0)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 100e6

    def test_explicit_caps_past_the_hard_caps_raise_before_any_table(self, monkeypatch):
        refuse_table_builds(monkeypatch)
        # the list forms size their tables from the alpha the states share
        specs = [BellCatSpec.from_label(label, 30.0) for label in ("phi-minus", "psi-plus")]
        with pytest.raises(TruncationError, match=f"hard cap {HARD_FOCK_CUTOFF}"):
            series_values_many(specs, params_for(1.0), 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(TruncationError, match=f"hard cap {HARD_FOCK_CUTOFF}"):
            wigner_oracle_values_many(specs, params_for(1.0), 0.0, 0.0, 0.0, 0.0)
        # a state within the default caps, with an explicit cap past the hard one
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        with pytest.raises(TruncationError, match=f"cap {HARD_FOCK_CUTOFF + 1} is beyond the hard cap"):
            series_values(spec, params_for(1.0), 0.0, 0.0, 0.0, 0.0, cat_cap=HARD_FOCK_CUTOFF + 1, thermal_cap=10)
        with pytest.raises(TruncationError, match=f"cutoff {HARD_FOCK_CUTOFF + 1} is beyond the hard cap"):
            wigner_oracle_values_many([spec], params_for(1.0), 0.0, 0.0, 0.0, 0.0, cutoff=HARD_FOCK_CUTOFF + 1)
        monkeypatch.undo()
        with pytest.raises(TruncationError, match=f"hard cap {HARD_FOCK_CUTOFF}"):
            fock_wigner_kernels(HARD_FOCK_CUTOFF + 1, np.zeros(1), np.zeros(1))
        with pytest.raises(TruncationError, match=f"hard cap {HARD_FOCK_CUTOFF}"):
            hermite_functions(HARD_FOCK_CUTOFF + 1, 0.0)
        with pytest.raises(CutoffError, match="cutoff -1 is negative"):
            hermite_functions(-1, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(SIZE_PARAMETERS))
    def test_sizes_outside_the_caps_raise_before_any_table(self, name):
        # the default caps are sizes these routes derive from |alpha| and T; the two tests around
        # this one reach them through those
        cap, call = SIZE_PARAMETERS[name]

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(st.integers(-10**12, -1) | st.integers(cap + 1, 10**12))
        @example(10**400)   # past the float range, so the message cannot format it as a float
        def check(size):
            tracemalloc.start()
            start = time.perf_counter()
            try:
                with pytest.raises(BellCatError):
                    call(size)
                elapsed = time.perf_counter() - start
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert elapsed < 1.0
            assert peak < 1e6

        check()

    @pytest.mark.parametrize("temp", [1e6, 1e17])
    @pytest.mark.parametrize("route", sorted(ONE_STATE))
    def test_levels_past_the_hard_cap_raise(self, route, temp):
        # at 1e6 K the Gibbs tail needs about 1.4e8 levels; at 1e17 K q = e^{-beta hbar omega}
        # rounds to 1, and the level count divided by -log q = 0
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        with pytest.raises(TruncationError, match="hard cap 2000"):
            ONE_STATE[route](spec, params_for(temp), 0.0, 0.0, 0.0, 0.0)

    def test_slice_past_the_point_cap_raises_before_any_table(self):
        # 2e4 x 2e4 points over one mode's two axes would be about 13 GB of rows
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        slice_ = SliceDescriptor.centered(("x1", "y1"), 6.0, 2 * 10**4)
        times = []
        tracemalloc.start()
        try:
            for _ in range(3):   # the fastest of three, so one preemption of the process cannot fail it
                start = time.perf_counter()
                with pytest.raises(TruncationError, match=f"hard cap of {HARD_GRID_POINTS} points"):
                    wigner_grid(spec, params_for(1.0), slice_)
                times.append(time.perf_counter() - start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert min(times) < 1e-3
        assert peak < 1e6

        # the cap counts points: a slice split across the modes, O(count1 + count2) table entries,
        # evaluates at the cap and raises one point past it
        def split(count):
            return SliceDescriptor(axes=(GridAxis("x1", -6.0, 6.0, 2**10), GridAxis("x2", -6.0, 6.0, count)),
                                   fixed={"y1": 0.0, "y2": 0.0})

        assert wigner_grid(spec, params_for(1.0), split(2**10)).values.size == HARD_GRID_POINTS
        with pytest.raises(TruncationError):
            wigner_grid(spec, params_for(1.0), split(2**10 + 1))


LIST_ROUTES = {"series": (series_values_many, series_values),
               "oracle": (wigner_oracle_values_many, ONE_STATE["wigner_oracle_values"])}
ALL_FOUR = ("phi-plus", "phi-minus", "psi-plus", "psi-minus")


class TestListForms:
    """The list form of each reference route equals its single-state call, bit for bit, and the term-by-term form."""

    @pytest.mark.parametrize("ratio", [1.0, 1.3])
    @pytest.mark.parametrize("temp", [0.0, 1.0])
    @pytest.mark.parametrize("alpha", [1.0, 1 + 1j, 0.7 - 0.4j])
    @pytest.mark.parametrize("route", sorted(LIST_ROUTES))
    def test_four_states(self, route, alpha, temp, ratio):
        # at ratio 1.3 the two modes stop sharing their tables, and a swap of their thermal
        # parameters moves W by several percent against the reference, which reads each frequency itself
        many, single = LIST_ROUTES[route]
        params = thermal_params(temp, OMEGA, ratio * OMEGA)
        pts = np.random.default_rng(11).uniform(-3, 3, size=(4, 5))
        specs = [BellCatSpec.from_label(label, alpha) for label in ALL_FOUR]
        for spec, got in zip(specs, many(specs, params, *pts), strict=True):
            assert np.array_equal(got, single(spec, params, *pts))
            assert np.max(np.abs(got - gaussian_w(spec.label, alpha, temp, *pts, freq2=ratio * FREQ_HZ))) < 1e-8

    @pytest.mark.parametrize("route", sorted(LIST_ROUTES))
    def test_mixed_amplitudes(self, route, monkeypatch):
        # each call builds its tables at the one alpha of its states, so a list mixing two refuses
        # before any table is built; an empty list is still no states
        refuse_table_builds(monkeypatch)
        many, _ = LIST_ROUTES[route]
        params = thermal_params(1.0, OMEGA, 1.3 * OMEGA)
        pts = np.random.default_rng(12).uniform(-3, 3, size=(4, 5))
        specs = [BellCatSpec.from_label(label, alpha) for label, alpha in (("phi-plus", 1.0), ("psi-minus", 1 + 1j))]
        with pytest.raises(ValueError, match="must share one alpha"):
            many(specs, params, *pts)
        assert many([], params, *pts) == []

    @pytest.mark.parametrize("route", sorted(LIST_ROUTES))
    def test_amplitudes_differing_in_a_zero_sign(self, route, monkeypatch):
        # alpha = -1 - 0j has phase -pi and -1 + 0j has +pi: the two compare equal, and the tables of
        # one do not serve the other, so the list is refused as mixed
        refuse_table_builds(monkeypatch)
        many, _ = LIST_ROUTES[route]
        pts = np.random.default_rng(1).uniform(-3, 3, size=(4, 5))
        specs = [BellCatSpec.from_label(label, complex(-1.0, zero)) for label, zero in (("phi-plus", -0.0),
                                                                                        ("psi-plus", 0.0))]
        assert specs[0].alpha == specs[1].alpha
        with pytest.raises(ValueError, match="must share one alpha"):
            many(specs, params_for(1.0), *pts)


SHAPE_SPEC = BellCatSpec.from_label("phi-minus", 1.0)
COORDINATE_ROUTES = {
    "wigner_values": lambda *coords: wigner_values(SHAPE_SPEC, T0, *coords),
    "series_values": lambda *coords: series_values(SHAPE_SPEC, T0, *coords),
    "wigner_oracle_values": lambda *coords: wigner_oracle_values_many([SHAPE_SPEC], T0, *coords)[0],
    "closed_form_zero_temperature": lambda *coords: closed_form_zero_temperature(SHAPE_SPEC, *coords),
}


@pytest.mark.parametrize("route", sorted(COORDINATE_ROUTES))
def test_coordinate_arrays_must_share_one_shape(route):
    # x1 of shape (3,) against shape (1,) broadcast to 3 values in the reference routes
    coords = [np.zeros(3), np.zeros(1), np.zeros(1), np.zeros(1)]
    with pytest.raises(ValueError, match="coordinate arrays must share one shape"):
        COORDINATE_ROUTES[route](*coords)
    assert COORDINATE_ROUTES[route](*[np.zeros(3)] * 4).shape == (3,)


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

    @pytest.mark.parametrize("fixed", [-0.0, 0.37])
    @pytest.mark.parametrize("count", [2, 7])
    @pytest.mark.parametrize("names", list(itertools.permutations(("x1", "y1", "x2", "y2"), 2)))
    def test_every_axis_pair_matches_pointwise(self, names, count, fixed):
        # the one grid path: no, one or both axes per mode, in either order
        spec = BellCatSpec.from_label("psi-minus", 1 + 0.6j)
        params = thermal_params(0.5, OMEGA, 1.3 * OMEGA)
        slice_ = SliceDescriptor.centered(names, 2.5, count, {c: fixed for c in ("x1", "y1", "x2", "y2")
                                                             if c not in names})
        grid = wigner_grid(spec, params, slice_)
        assert grid.values.shape == (count, count)
        a0, a1 = np.meshgrid(grid.axis_values(0), grid.axis_values(1), indexing="ij")
        at = {**slice_.fixed, names[0]: a0, names[1]: a1}
        coords = [np.broadcast_to(at[c], a0.shape).ravel() for c in ("x1", "y1", "x2", "y2")]
        direct = wigner_values(spec, params, *coords).reshape(count, count)
        assert np.max(np.abs(grid.values - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_psi_phi_reflection_on_grids(self):
        params = params_for(0.01)
        slice_ = SliceDescriptor.centered(("x1", "x2"), 5.0, 21)
        phi = wigner_grid(BellCatSpec.from_label("phi-plus", 1.0), params, slice_)
        psi = wigner_grid(BellCatSpec.from_label("psi-plus", 1.0), params, slice_)
        # x2 -> -x2 exchanges the two grids (columns reversed; grid is symmetric)
        assert np.max(np.abs(phi.values - psi.values[:, ::-1])) < 1e-12


class TestSinglePhotonLimit:
    """As |alpha| -> 0 the odd states become one photon in the mode b = (a1 + k a2)/sqrt2."""

    @staticmethod
    def limit(k, x1, y1, x2, y2):
        z1, z2 = x1 + 1j * y1, x2 + 1j * y2
        zb = (z1 + k * z2) / math.sqrt(2.0)
        return (2.0 * np.abs(zb) ** 2 - 1.0) * np.exp(-np.abs(z1) ** 2 - np.abs(z2) ** 2) / math.pi**2

    @pytest.mark.parametrize("modulus", [1e-8, 1e-20, 1e-50])
    @pytest.mark.parametrize("label", ["phi-minus", "psi-minus"])
    def test_values_and_grid_match_fock_one(self, label, modulus):
        spec = BellCatSpec.from_label(label, modulus)
        pts = np.random.default_rng(21).uniform(-2.0, 2.0, size=(4, 2000))
        assert np.max(np.abs(wigner_values(spec, T0, *pts) - self.limit(spec.k, *pts))) <= 1e-15
        for names in (("x1", "x2"), ("y2", "x1"), ("x1", "y1")):
            slice_ = SliceDescriptor.centered(names, 2.0, 21, {c: 0.3 for c in ("x1", "y1", "x2", "y2")
                                                               if c not in names})
            grid = wigner_grid(spec, T0, slice_)
            a0, a1 = np.meshgrid(grid.axis_values(0), grid.axis_values(1), indexing="ij")
            at = {**slice_.fixed, names[0]: a0, names[1]: a1}
            exact = self.limit(spec.k, *(at[c] for c in ("x1", "y1", "x2", "y2")))
            assert np.max(np.abs(grid.values - exact)) <= 1e-15
