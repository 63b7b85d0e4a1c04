import dataclasses
import math

import numpy as np
import pytest

import bellcat.negativity
from bellcat.errors import ImaginaryResidueError, NonFiniteError, NormalizationError
from bellcat.negativity import (
    QuadratureSpec,
    _orbit_representatives,
    default_half_width,
    default_inner_density,
    default_nodes,
    integrate_negativity,
    integrate_negativity_grid,
    temperature_sweep,
)
from bellcat.states import STATE_LABELS, BellCatSpec
from bellcat.tfd import thermal_params
from bellcat.wigner import factorize, fock_wigner_kernels, wigner_values

OMEGA = 2 * math.pi * 5.5e9


def params_for(T):
    return thermal_params(T, OMEGA)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes=4)
        with pytest.raises(ValueError):
            QuadratureSpec(half_width=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(inner_density=0.0)

    def test_defaults_reduce_to_cold_values(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        params = params_for(0.0)
        L = default_half_width(spec, params)
        assert L == pytest.approx(math.sqrt(2) + 7.0, abs=1e-12)
        assert default_nodes(spec, params, L) >= 48

    def test_half_width_floor_enforced(self):
        spec = BellCatSpec.from_label("phi-plus", 2.0)
        with pytest.raises(ValueError):
            integrate_negativity_grid(spec, params_for(0.0), QuadratureSpec(nodes=16, half_width=5.0))


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

    def test_node_doubling_stability(self):
        # the grid rule's delta moves by < 1e-3 relative when its Gauss-Legendre
        # nodes double, one representative case per state
        for label in ("phi-minus", "psi-plus", "phi-plus", "psi-minus"):
            spec = BellCatSpec.from_label(label, 1.0)
            params = params_for(0.3)
            r1 = integrate_negativity_grid(spec, params)
            r2 = integrate_negativity_grid(spec, params,
                                           QuadratureSpec(nodes=2 * r1.nodes, half_width=r1.half_width))
            assert abs(r1.delta - r2.delta) < 1e-3 * abs(r2.delta)

    def test_full_refinement_stability(self):
        # doubling the grid rule's inner density as well keeps delta within the same budget
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        params = params_for(0.3)
        r1 = integrate_negativity_grid(spec, params)
        refined = QuadratureSpec(nodes=2 * r1.nodes, half_width=r1.half_width,
                                 inner_density=2.0 * r1.inner_nodes / (2.0 * r1.half_width))
        r2 = integrate_negativity_grid(spec, params, refined)
        assert abs(r1.delta - r2.delta) < 1e-3 * abs(r2.delta)

    def test_mode2_flip_invariance(self):
        params = params_for(0.3)
        a = integrate_negativity(BellCatSpec.from_label("phi-plus", 1 + 1j), params)
        b = integrate_negativity(BellCatSpec.from_label("psi-plus", 1 + 1j), params)
        assert abs(a.nu - b.nu) < 1e-9

    def test_normalization_failure_raises(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        with pytest.raises(NormalizationError):
            # legal but far-too-coarse grid rule: the box misses thermal mass
            integrate_negativity_grid(spec, params_for(2.0), QuadratureSpec(nodes=16, half_width=6.0))


# the single-photon limit of the odd states: nu of the Fock state |1>,
# (4 e^{-1/2} - 2) / (4 e^{-1/2} - 1)
NU_SINGLE_PHOTON = (4.0 * math.exp(-0.5) - 2.0) / (4.0 * math.exp(-0.5) - 1.0)


def refined_grid_nu(spec, params):
    """nu on the default grid rule and on the refined one (box +2, nodes x1.5, density x1.5)."""
    coarse = integrate_negativity_grid(spec, params)
    refined = QuadratureSpec(half_width=coarse.half_width + 2.0, nodes=math.ceil(1.5 * coarse.nodes),
                             inner_density=1.5 * default_inner_density(spec, params))
    return coarse.nu, integrate_negativity_grid(spec, params, refined).nu


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
            inner = 0j
            norm_sq = 0.0
            d_prod = 1.0
            modes = ((spec.alpha, params.exp1, params.one_minus_exp1, pts[0], pts[1]),
                     (spec.k * spec.alpha, params.exp2, params.one_minus_exp2, pts[2], pts[3]))
            for gamma, q, one_minus_q, x, y in modes:
                d = (1.0 + q) / one_minus_q
                zeta = (x + 1j * y) / math.sqrt(d)
                lobe = math.sqrt(2.0) * gamma / math.sqrt(one_minus_q) / math.sqrt(d)
                inner = inner + np.conj(lobe) * zeta
                norm_sq = norm_sq + np.abs(zeta) ** 2
                d_prod *= d
            s, t = inner.real / a, -inner.imag / a
            reduced = (np.exp(-norm_sq) * (np.exp(-a * a) * np.cosh(2 * a * s) + spec.sigma * math.exp(-c)
                                           * np.cos(2 * a * t)) / (math.pi**2 * d_prod * spec.parity_overlap))
            direct = wigner_values(spec, params, *pts)
            assert np.max(np.abs(reduced - direct)) <= 1e-13 * np.max(np.abs(direct))

    @pytest.mark.parametrize("label, alpha, temp, ratio", [
        *[(label, alpha, 0.01, 1.0) for label in ("phi-minus", "psi-plus") for alpha in (1.0, 1 + 1j, 2.0)],
        ("phi-minus", 1.0, 0.3, 1.3),
        ("psi-plus", 1.0, 0.3, 1.3),
    ])
    def test_agrees_with_refined_grid_rule(self, label, alpha, temp, ratio):
        # within the refined grid rule's own measured shift from the default rule
        spec = BellCatSpec.from_label(label, alpha)
        params = thermal_params(temp, OMEGA, ratio * OMEGA)
        coarse, refined = refined_grid_nu(spec, params)
        assert abs(integrate_negativity(spec, params).nu - refined) <= abs(refined - coarse)

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

    @pytest.mark.parametrize("modulus", [1e-8, 1e-4])
    @pytest.mark.parametrize("label", ["phi-minus", "psi-minus"])
    def test_odd_states_reach_single_photon_limit(self, label, modulus):
        # 1 + sigma e^{-4|alpha|^2} cancels in floating point here; the
        # cancellation-free form keeps nu and the norm exact
        r = integrate_negativity(BellCatSpec.from_label(label, modulus), params_for(0.01))
        assert abs(r.nu - NU_SINGLE_PHOTON) <= 1e-9
        assert abs(r.norm_check - 1.0) <= 1e-12

    @pytest.mark.parametrize("temp", [0.0, 0.01, 2.0, 20.0])
    @pytest.mark.parametrize("label", sorted(STATE_LABELS))
    def test_large_amplitude_is_finite(self, label, temp):
        # at |alpha| = 20 the unfolded lobe and fringe factors would be e^{+-1600}
        r = integrate_negativity(BellCatSpec.from_label(label, 20.0), params_for(temp))
        assert all(math.isfinite(v) for v in (r.nu, r.delta, r.i_plus, r.i_minus))
        assert 0.0 <= r.nu < 1.0
        assert abs(r.norm_check - 1.0) <= 1e-12

    def test_metadata_describes_the_reduced_rule(self):
        spec = BellCatSpec.from_label("psi-plus", 1 + 1j)
        params = params_for(1.0)
        r = integrate_negativity(spec, params)
        assert (r.nodes, r.inner_nodes) == (bellcat.negativity._S_NODES, bellcat.negativity._T_NODES)
        assert r.half_width >= math.sqrt(2.0) * abs(spec.alpha) * max(params.u1, params.u2) + 4.0

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


# amplitudes from each symmetry class: y-flip (real or imaginary alpha),
# diagonal (|Re alpha| = |Im alpha|), parity only
FOLD_ALPHAS = [1.0, -2.0, 1j, 1 + 1j, -1 + 1j, 0.7 + 0.3j]


def brute_force_volumes(spec, params, result):
    """I+ and I- from wigner_values on the full product grid of `result`'s rule."""
    n, half_width = result.inner_nodes, result.half_width
    step = 2.0 * half_width / n
    inner = step * (np.arange(n) - 0.5 * (n - 1))
    t, w = np.polynomial.legendre.leggauss(result.nodes)
    x1, y1, x2, y2 = np.meshgrid(inner, inner, half_width * t, half_width * t, indexing="ij")
    weights = step * step * np.multiply.outer(half_width * w, half_width * w)
    values = wigner_values(spec, params, x1.ravel(), y1.ravel(), x2.ravel(), y2.ravel())
    values = values.reshape(x1.shape) * weights
    return float(np.sum(np.maximum(values, 0.0))), float(np.sum(np.maximum(-values, 0.0)))


class TestOrbitFold:
    """The mode-1 orbit fold is exact: it reproduces the unfolded product-grid sum."""

    @pytest.mark.parametrize("inner_nodes", [30, 31])
    @pytest.mark.parametrize("ratio", [1.0, 1.3])
    @pytest.mark.parametrize("temp", [0.01, 1.0])
    @pytest.mark.parametrize("alpha", FOLD_ALPHAS)
    def test_matches_full_grid_sum(self, alpha, temp, ratio, inner_nodes):
        params = thermal_params(temp, OMEGA, ratio * OMEGA)
        half_width = 7.5 if temp < 0.5 else 15.0
        quad = QuadratureSpec(nodes=24, half_width=half_width,
                              inner_density=(inner_nodes - 0.5) / (2.0 * half_width))
        for label in STATE_LABELS:
            spec = BellCatSpec.from_label(label, alpha)
            r = integrate_negativity_grid(spec, params, quad)
            assert r.inner_nodes == inner_nodes
            i_plus, i_minus = brute_force_volumes(spec, params, r)
            assert r.i_plus == pytest.approx(i_plus, rel=1e-12, abs=0.0)
            assert r.i_minus == pytest.approx(i_minus, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 31])
    @pytest.mark.parametrize("alpha", FOLD_ALPHAS)
    def test_orbits_partition_the_grid(self, alpha, n):
        # the group acts on coordinates; the grid is antisymmetric, so each
        # image is again a grid point, found by its exact coordinates
        alpha = complex(alpha)
        maps = [lambda x, y: (x, y), lambda x, y: (-x, -y)]
        if alpha.real == 0.0 or alpha.imag == 0.0:
            maps += [lambda x, y: (x, -y), lambda x, y: (-x, y)]
        if abs(alpha.real) == abs(alpha.imag):
            maps += [lambda x, y: (y, x), lambda x, y: (-y, -x)]
        coord = np.arange(n) - 0.5 * (n - 1)
        index = {float(c): k for k, c in enumerate(coord)}
        reps, sizes = _orbit_representatives(n, alpha)
        assert sizes.sum() == n * n
        covered = set()
        for rep, size in zip(reps, sizes):
            x, y = coord[rep // n], coord[rep % n]
            orbit = {index[float(gx)] * n + index[float(gy)] for gx, gy in (g(x, y) for g in maps)}
            assert len(orbit) == size and min(orbit) == rep
            assert not orbit & covered
            covered |= orbit
        assert covered == set(range(n * n))
        assert np.all(np.diff(reps) > 0)


class TestIntegrandGuards:
    """The grid rule's guards fire through integrate_negativity_grid on every evaluated point."""

    spec = BellCatSpec.from_label("phi-minus", 1.0)
    quad = QuadratureSpec(nodes=24, half_width=7.5, inner_density=2.0)

    def tampered(self, monkeypatch, edit):
        def fake_factorize(*args, **kwargs):
            fac = factorize(*args, **kwargs)
            edit(fac.m1)
            return fac
        monkeypatch.setattr(bellcat.negativity, "factorize", fake_factorize)

    def test_non_finite_table_raises(self, monkeypatch):
        def poison(m1):
            m1[0, m1.shape[1] // 2] = np.nan
        self.tampered(monkeypatch, poison)
        with pytest.raises(NonFiniteError):
            integrate_negativity_grid(self.spec, params_for(0.01), self.quad)

    def test_broken_hermitian_pairing_raises(self, monkeypatch):
        def unpair(m1):
            m1[2] *= 1.0 + 1e-3
        self.tampered(monkeypatch, unpair)
        with pytest.raises(ImaginaryResidueError):
            integrate_negativity_grid(self.spec, params_for(0.01), self.quad)

    def test_repeated_calls_are_bit_identical(self):
        params = params_for(0.3)
        first, second = (dataclasses.asdict(integrate_negativity(BellCatSpec.from_label("psi-plus", 1 + 1j), params))
                         for _ in range(2))
        first.pop("seconds")
        second.pop("seconds")
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
