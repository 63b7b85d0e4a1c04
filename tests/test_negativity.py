import dataclasses
import functools
import math

import mpmath
import numpy as np
import pytest

import bellcat.negativity
from bellcat.errors import NonFiniteError, NormalizationError
from bellcat.negativity import (
    default_half_width,
    default_nodes,
    integrate_negativity,
    temperature_sweep,
)
from bellcat.states import STATE_LABELS, BellCatSpec
from bellcat.tfd import state_modes, thermal_params
from bellcat.oracle import fock_wigner_kernels
from bellcat.plane import plane_volumes
from bellcat.wigner import wigner_values
from test_cli import gaussian_w

FREQ_HZ = 5.5e9
OMEGA = 2 * math.pi * FREQ_HZ


def params_for(T):
    return thermal_params(T, OMEGA)


class TestQuadratureSpec:
    """The default 4D box and node policies, which the benchmark's reference values and criterion 10 read."""

    def test_defaults_reduce_to_cold_values(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        params = params_for(0.0)
        L = default_half_width(spec, params)
        assert L == pytest.approx(math.sqrt(2) + 7.0, abs=1e-12)
        assert default_nodes(spec, params, L) >= 48


class TestVacuumKernelSanity:
    def test_gaussian_kernel_has_no_negative_volume(self):
        # 2D quadrature of the vacuum kernel: I- = 0, so delta = nu = 0
        nodes, w = np.polynomial.legendre.leggauss(48)
        L = 8.0
        x, y = np.meshgrid(L * nodes, L * nodes, indexing="ij")
        k = fock_wigner_kernels(0, x.ravel(), y.ravel())[:, 0, 0].real
        wts = np.multiply.outer(L * w, L * w).ravel()
        i_plus = float(np.sum(np.maximum(k * wts, 0.0)))
        i_minus = float(np.sum(np.maximum(-k * wts, 0.0)))
        # the quadrature of the kernel leaves only roundoff-scale negatives
        assert i_minus < 1e-14
        assert i_plus == pytest.approx(1.0, abs=1e-10)
        delta = 2 * i_minus / (i_plus - i_minus)
        nu = 2 * i_minus / (i_plus + i_minus)
        assert delta < 1e-13 and nu < 1e-13


class TestIntegration:
    def test_cold_phi_minus(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        r = integrate_negativity(spec, params_for(0.01))
        assert r.nu > 0.1
        assert abs(r.norm_check - 1.0) < 1e-3
        assert abs(r.nu - r.delta / (1.0 + r.delta)) < 1e-6 * r.nu
        assert abs(r.delta - 2.0 * r.i_minus) <= 2.0 * r.i_minus * 2e-3 + 1e-12

    def test_hot_negativity_collapses(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        cold = integrate_negativity(spec, params_for(0.01))
        hot = integrate_negativity(spec, params_for(2.0))
        assert hot.nu < 0.1 * cold.nu

    def test_node_doubling_stability(self, monkeypatch):
        # delta moves by < 1e-12 relative when the reduced rule's s-nodes
        # double, one representative case per state
        params = params_for(0.3)
        specs = [BellCatSpec.from_label(label, 1.0) for label in sorted(STATE_LABELS)]
        default = [integrate_negativity(spec, params).delta for spec in specs]
        monkeypatch.setattr(bellcat.negativity, "_S_NODES", 2 * bellcat.negativity._S_NODES)
        for spec, delta in zip(specs, default):
            assert abs(integrate_negativity(spec, params).delta - delta) < 1e-12 * delta

    def test_full_refinement_stability(self, monkeypatch):
        # doubling both node counts and widening the reach from 7 to 9 keeps
        # delta within the same budget
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        params = params_for(0.3)
        delta = integrate_negativity(spec, params).delta
        monkeypatch.setattr(bellcat.negativity, "_S_NODES", 2 * bellcat.negativity._S_NODES)
        monkeypatch.setattr(bellcat.negativity, "_T_NODES", 2 * bellcat.negativity._T_NODES)
        monkeypatch.setattr(bellcat.negativity, "_REACH", 9.0)
        assert abs(integrate_negativity(spec, params).delta - delta) < 1e-12 * delta

    def test_mode2_flip_invariance(self):
        params = params_for(0.3)
        a = integrate_negativity(BellCatSpec.from_label("phi-plus", 1 + 1j), params)
        b = integrate_negativity(BellCatSpec.from_label("psi-plus", 1 + 1j), params)
        assert abs(a.nu - b.nu) < 1e-9

    def test_normalization_failure_raises(self, monkeypatch):
        # far too few s-nodes: the lobe quadrature misses thermal mass
        monkeypatch.setattr(bellcat.negativity, "_S_NODES", 2)
        with pytest.raises(NormalizationError):
            integrate_negativity(BellCatSpec.from_label("phi-minus", 1.0), params_for(2.0))


# the single-photon limit of the odd states: nu of the Fock state |1>,
# (4 e^{-1/2} - 2) / (4 e^{-1/2} - 1)
NU_SINGLE_PHOTON = (4.0 * math.exp(-0.5) - 2.0) / (4.0 * math.exp(-0.5) - 1.0)


def scaled_lobes(spec, params):
    """P_i = sqrt2 u_i gamma_i / sqrt(D_i) and D_i = (1 + q_i)/(1 - q_i) of both modes."""
    lobes, widths = [], []
    for gamma, mode in state_modes(spec, params):
        d = (1.0 + mode.q) / mode.one_minus_q
        lobes.append(math.sqrt(2.0) * gamma / math.sqrt(mode.one_minus_q) / math.sqrt(d))
        widths.append(d)
    return np.array(lobes), np.array(widths)


# every config the benchmark integrates (its cold cats, and phi-minus, alpha = 1 at the fig4 preset's
# 0.01, 1.03 and 2 K), two with omega2/omega1 = 1.3, and one with omega2/omega1 != 1 above 1 K
PLANE_CONFIGS = [
    *[(label, alpha, 0.01, 1.0) for label in ("phi-minus", "psi-plus") for alpha in (1.0, 1 + 1j, 2.0)],
    ("phi-minus", 1.0, 0.3, 1.3),
    ("psi-plus", 1.0, 0.3, 1.3),
    ("phi-minus", 1.0, float(np.linspace(0.01, 2.0, 40)[20]), 1.0),
    ("phi-minus", 1.0, 2.0, 1.0),
    ("psi-plus", 1 + 1j, 1.5, 0.6),
]
# the plane reference's agreement with integrate_negativity: relative in nu, absolute in the norm
PLANE_NU_GATE = 1e-10
PLANE_NORM_GATE = 1e-12


def plane_config(label, alpha, temp, ratio):
    return BellCatSpec.from_label(label, alpha), thermal_params(temp, OMEGA, ratio * OMEGA)


@pytest.fixture(scope="module")
def plane_reference():
    """nu and I_+ - I_- of the plane reference on every PLANE_CONFIGS entry."""
    out = {}
    for config in PLANE_CONFIGS:
        spec, params = plane_config(*config)
        i_plus, i_minus = plane_volumes(functools.partial(wigner_values, spec, params), *scaled_lobes(spec, params))
        out[config] = (2.0 * i_minus / (i_plus + i_minus), i_plus - i_minus)
    return out


def plane_gaps(config, reference):
    """Relative nu gap and absolute norm gap of integrate_negativity against the plane reference."""
    nu, norm = reference
    r = integrate_negativity(*plane_config(*config))
    return abs(r.nu - nu) / nu, abs(r.norm_check - norm)


class TestReducedRoute:
    """The production reduction to two coordinates (s, t)."""

    @pytest.mark.parametrize("temp, ratio", [(0.01, 1.0), (0.5, 1.3), (2.0, 0.6)])
    @pytest.mark.parametrize("alpha", [2.0, 1 + 1j, 0.7 - 0.4j])
    def test_reduced_form_is_the_wigner_function(self, alpha, temp, ratio):
        # W = e^{-|zeta|^2} [e^{-a^2} cosh(2as) + sigma e^{-c} cos(2at)] / (pi^2 D1 D2 N)
        # with zeta_i = z_i / sqrt(D_i), P = (w1/sqrt(D1), w2/sqrt(D2)) and
        # s + i t = conj(<P, zeta>)/a, pointwise
        params = thermal_params(temp, OMEGA, ratio * OMEGA)
        pts = np.random.default_rng(11).uniform(-4.0, 4.0, size=(4, 200))
        for label in STATE_LABELS:
            spec = BellCatSpec.from_label(label, alpha)
            a, c, _ = bellcat.negativity._reduced_parameters(spec, params)
            lobes, widths = scaled_lobes(spec, params)
            zeta = (pts[[0, 2]] + 1j * pts[[1, 3]]) / np.sqrt(widths)[:, None]
            inner = np.conj(lobes) @ zeta
            norm_sq = np.sum(np.abs(zeta) ** 2, axis=0)
            s, t = inner.real / a, -inner.imag / a
            reduced = (np.exp(-norm_sq) * (np.exp(-a * a) * np.cosh(2 * a * s) + spec.sigma * math.exp(-c)
                                           * np.cos(2 * a * t))
                       / (math.pi**2 * np.prod(widths) * spec.parity_overlap))
            direct = wigner_values(spec, params, *pts)
            assert np.max(np.abs(reduced - direct)) <= 1e-13 * np.max(np.abs(direct))
            # the term-by-term form reads each mode's frequency itself, so it sees a swap of the
            # two modes' thermal parameters, which moves W by 4-38% of its peak at these ratios
            reference = gaussian_w(label, alpha, temp, *pts, freq2=ratio * FREQ_HZ)
            assert np.max(np.abs(reference - direct)) <= 1e-13 * np.max(np.abs(direct))

    @pytest.mark.parametrize("label, alpha, temp, ratio", PLANE_CONFIGS)
    def test_agrees_with_plane_reference(self, label, alpha, temp, ratio, plane_reference):
        config = (label, alpha, temp, ratio)
        nu_gap, norm_gap = plane_gaps(config, plane_reference[config])
        assert nu_gap <= PLANE_NU_GATE
        assert norm_gap <= PLANE_NORM_GATE
        assert abs(plane_reference[config][1] - 1.0) <= PLANE_NORM_GATE

    @pytest.mark.parametrize("name, value", [("_S_NODES", 16), ("_REACH", 3.0), ("_T_NODES", 4)])
    def test_plane_gate_sees_seeded_defects(self, name, value, plane_reference, monkeypatch):
        # each coarsened rule moves nu by 1e-9 to 5e-5 relative on every config
        monkeypatch.setattr(bellcat.negativity, name, value)
        gaps = [plane_gaps(config, reference) for config, reference in plane_reference.items()]
        assert any(nu_gap > PLANE_NU_GATE or norm_gap > PLANE_NORM_GATE for nu_gap, norm_gap in gaps)

    @pytest.mark.parametrize("temp, ratio", [(0.0, 1.0), (0.01, 1.0), (0.3, 1.3), (2.0, 0.7)])
    @pytest.mark.parametrize("modulus", [0.5, 1.0, 2.0])
    def test_invariant_under_phase_and_k(self, modulus, temp, ratio):
        # nu depends on sigma, a and c only: not on the phase of alpha, nor on k
        params = thermal_params(temp, OMEGA, ratio * OMEGA)
        for sigma_pair in (("phi-minus", "psi-minus"), ("phi-plus", "psi-plus")):
            base = integrate_negativity(BellCatSpec.from_label(sigma_pair[0], modulus), params).nu
            for label in sigma_pair:
                for phase in (0.0, 0.3, math.pi / 4, 2.0, -1.1):
                    alpha = modulus * complex(math.cos(phase), math.sin(phase))
                    nu = integrate_negativity(BellCatSpec.from_label(label, alpha), params).nu
                    assert abs(nu - base) <= 1e-13

    @pytest.mark.parametrize("modulus", [1e-8, 1e-4, 1.5e-154, 3e-154])
    @pytest.mark.parametrize("label", ["phi-minus", "psi-minus"])
    def test_odd_states_reach_single_photon_limit(self, label, modulus):
        # 1 + sigma e^{-4|alpha|^2} cancels in floating point here; the
        # cancellation-free form keeps nu and the norm exact.  At 1.5e-154 and
        # 3e-154 the far interval centres j pi / a would overflow when squared
        r = integrate_negativity(BellCatSpec.from_label(label, modulus), params_for(0.01))
        assert abs(r.nu - NU_SINGLE_PHOTON) <= 1e-9
        assert abs(r.norm_check - 1.0) <= 1e-12

    @pytest.mark.parametrize("label", ["phi-plus", "psi-plus"])
    def test_even_states_vanish_at_tiny_amplitude(self, label):
        # the even states tend to the vacuum, which has no negative volume;
        # their centres (j pi - pi/2)/a overflow when squared as well
        r = integrate_negativity(BellCatSpec.from_label(label, 1e-155), params_for(0.01))
        assert r.nu == 0.0
        assert abs(r.norm_check - 1.0) <= 1e-12

    @pytest.mark.parametrize("temp", [0.0, 0.01, 2.0, 20.0])
    @pytest.mark.parametrize("label", sorted(STATE_LABELS))
    def test_large_amplitude_is_finite(self, label, temp):
        # at |alpha| = 20 the unfolded lobe and fringe factors would be e^{+-1600}
        r = integrate_negativity(BellCatSpec.from_label(label, 20.0), params_for(temp))
        assert all(math.isfinite(v) for v in (r.nu, r.delta, r.i_plus, r.i_minus))
        assert 0.0 <= r.nu < 1.0
        assert abs(r.norm_check - 1.0) <= 1e-12

    def test_huge_amplitude_builds_no_large_rule(self, monkeypatch):
        # no rule may grow with |alpha|: numpy builds an n-node Gauss-Legendre
        # rule in O(n^3) time and O(n^2) memory, and n = 7a = 14000 here would
        # need gigabytes
        leggauss = np.polynomial.legendre.leggauss

        def bounded(n):
            if n > bellcat.negativity._S_NODES:
                raise AssertionError(f"a {n}-node Gauss-Legendre rule")
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", bounded)
        bellcat.negativity._leggauss.cache_clear()
        r = integrate_negativity(BellCatSpec.from_label("psi-plus", 1000.0), params_for(0.01))
        assert math.isfinite(r.nu)
        assert abs(r.norm_check - 1.0) <= 1e-12

    @pytest.mark.parametrize("thermal", [0.0, 0.3])
    @pytest.mark.parametrize("a", [1e-4, 0.5, 2.0 * math.sqrt(2.0)])
    @pytest.mark.parametrize("sigma", [-1, 1])
    def test_total_volume_matches_mpmath(self, sigma, a, thermal):
        # int ds dt e^{-s^2-t^2} [e^{-a^2} cosh(2as) + sigma e^{-c} cos(2at)], factor by factor
        # at 30 digits, with c = thermal a^2
        c = thermal * a * a
        with mpmath.workdps(30):
            a_mp, inf = mpmath.mpf(a), mpmath.inf
            gauss = mpmath.quad(lambda x: mpmath.exp(-x * x), [-inf, inf])
            lobe = mpmath.quad(lambda s: mpmath.exp(-s * s - a_mp * a_mp) * mpmath.cosh(2 * a_mp * s),
                               [-inf, -a_mp, 0, a_mp, inf])
            fringe = mpmath.quad(lambda t: mpmath.exp(-t * t) * mpmath.cos(2 * a_mp * t), [-inf, 0, inf])
            total = float(gauss * (lobe + sigma * mpmath.exp(-mpmath.mpf(c)) * fringe))
        got = bellcat.negativity._total_volume(sigma, a, c, a * a - c, bellcat.negativity._S_NODES)
        assert abs(got - total) <= 5e-15 * total

    def test_cached_rules_are_read_only(self):
        for array in bellcat.negativity._leggauss(bellcat.negativity._S_NODES):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_metadata_describes_the_reduced_rule(self):
        spec = BellCatSpec.from_label("psi-plus", 1 + 1j)
        params = params_for(1.0)
        r = integrate_negativity(spec, params)
        assert (r.nodes, r.inner_nodes) == (bellcat.negativity._S_NODES, bellcat.negativity._T_NODES)
        assert r.half_width >= math.sqrt(2.0) * abs(spec.alpha) * max(mode.u for mode in params.modes) + 4.0

    def test_non_finite_volume_raises(self, monkeypatch):
        monkeypatch.setattr(bellcat.negativity, "_negative_volume", lambda *args: math.nan)
        with pytest.raises(NonFiniteError):
            integrate_negativity(BellCatSpec.from_label("phi-minus", 1.0), params_for(0.01))

    def test_truncated_reach_fails_normalization(self, monkeypatch):
        # the total is a quadrature, not an identity: a reach that cuts off
        # the lobes leaves I+ - I- short of 1
        monkeypatch.setattr(bellcat.negativity, "_REACH", 0.5)
        with pytest.raises(NormalizationError):
            integrate_negativity(BellCatSpec.from_label("phi-minus", 1.0), params_for(0.01))


def direct_comb(u, sigma, a):
    """Theta(u) summed term by term with math.fsum over every centre with |t_j| <= 40 + pi/(4a)."""
    phi = 0.0 if sigma < 0 else 0.5 * math.pi
    reach = (40.0 * a + 0.25 * math.pi) / math.pi
    js = range(math.floor(-reach), math.ceil(reach) + 2)
    return np.array([math.fsum(math.exp(-((j * math.pi - phi) / a + v) ** 2) for j in js) for v in u.ravel()])


class TestTheta:
    @pytest.mark.parametrize("a", [0.3, 1.18, 2.0, 4.0, 40.0])
    @pytest.mark.parametrize("sigma", [-1, 1])
    def test_matches_direct_comb(self, sigma, a):
        # the centres are summed below a ~ 1.75 and the Poisson dual above it; both are the same comb
        u = np.linspace(0.0, math.pi / (4.0 * a), 65)[:-1].reshape(4, 16)
        got = bellcat.negativity._theta(u, sigma, a)
        assert got.shape == u.shape
        want = direct_comb(u, sigma, a)
        assert np.max(np.abs(got.ravel() - want) / want) <= 1e-15


class TestIntegrandGuards:
    def test_cold_plateau_holds_to_huge_amplitudes(self):
        # at T = 0, nu has reached its large-|alpha| limit by |alpha| = 20; the s-nodes are placed
        # from the edge s* of the negative set, so s stays exact where s* ~ |alpha| dwarfs the reach
        params = params_for(0.0)
        for label in ("phi-plus", "psi-minus"):
            limit = integrate_negativity(BellCatSpec.from_label(label, 20.0), params).nu
            for amplitude in (1e3, 1e6, 1e10, 1e50, 1e150, 3e153):
                nu = integrate_negativity(BellCatSpec.from_label(label, amplitude), params).nu
                assert abs(nu - limit) <= 1e-15 * limit

    @pytest.mark.parametrize("temp", [1e17, 1e100, 1e150])
    def test_hot_tail_is_finite(self, temp):
        # nu T^2 tends to 9.743e-3 K^2 for phi-minus, alpha = 1, at 5.5 GHz; the widening
        # (1 + q)/(1 - q) takes 1 - q from its expm1 value, as q rounds to 1 from about 2e15 K
        r = integrate_negativity(BellCatSpec.from_label("phi-minus", 1.0), params_for(temp))
        assert abs(r.nu * temp**2 - 9.7434403e-3) <= 1e-9
        assert math.isfinite(r.half_width) and abs(r.norm_check - 1.0) <= 1e-12

    def test_repeated_calls_are_bit_identical(self):
        params = params_for(0.3)
        first, second = (dataclasses.asdict(integrate_negativity(BellCatSpec.from_label("psi-plus", 1 + 1j), params))
                         for _ in range(2))
        assert first == second


class TestSweep:
    def test_monotonic_validation(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        with pytest.raises(ValueError):
            temperature_sweep(spec, [0.5, 0.2], OMEGA)
        with pytest.raises(ValueError):
            temperature_sweep(spec, [-0.1, 0.2], OMEGA)

    def test_entries_cover_failures(self, monkeypatch):
        # an integration that fails at 2 K: the hot entry records its failure
        # and the sweep continues
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        real = bellcat.negativity.integrate_negativity

        def failing_when_hot(spec, params):
            if params.temperature > 1.0:
                raise NormalizationError("I+ - I- = 0.5")
            return real(spec, params)

        monkeypatch.setattr(bellcat.negativity, "integrate_negativity", failing_when_hot)
        entries = temperature_sweep(spec, [0.01, 2.0], OMEGA)
        assert entries[0].ok
        assert not entries[1].ok and "NormalizationError" in entries[1].error

    def test_single_temperature_matches_direct(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        entries = temperature_sweep(spec, [0.05], OMEGA)
        direct = integrate_negativity(spec, params_for(0.05))
        assert entries[0].result.nu == direct.nu
        assert entries[0].result.delta == direct.delta

    def test_zero_temperature_entry_uses_flag(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        entries = temperature_sweep(spec, [0.0, 0.05], OMEGA)
        assert entries[0].ok
        direct = integrate_negativity(spec, params_for(0.0))
        assert entries[0].result.nu == direct.nu
