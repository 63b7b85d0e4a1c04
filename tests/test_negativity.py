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
    default_nodes,
    integrate_negativity,
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
            integrate_negativity(spec, params_for(0.0), QuadratureSpec(nodes=16, half_width=5.0))


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
        # delta moves by < 1e-3 relative when the Gauss-Legendre nodes double,
        # one representative case per state
        for label in ("phi-minus", "psi-plus", "phi-plus", "psi-minus"):
            spec = BellCatSpec.from_label(label, 1.0)
            params = params_for(0.3)
            r1 = integrate_negativity(spec, params)
            r2 = integrate_negativity(spec, params,
                                      QuadratureSpec(nodes=2 * r1.nodes, half_width=r1.half_width))
            assert abs(r1.delta - r2.delta) < 1e-3 * abs(r2.delta)

    def test_full_refinement_stability(self):
        # doubling the inner density as well keeps delta within the same budget
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        params = params_for(0.3)
        r1 = integrate_negativity(spec, params)
        refined = QuadratureSpec(nodes=2 * r1.nodes, half_width=r1.half_width,
                                 inner_density=2.0 * r1.inner_nodes / (2.0 * r1.half_width))
        r2 = integrate_negativity(spec, params, refined)
        assert abs(r1.delta - r2.delta) < 1e-3 * abs(r2.delta)

    def test_mode2_flip_invariance(self):
        params = params_for(0.3)
        a = integrate_negativity(BellCatSpec.from_label("phi-plus", 1 + 1j), params)
        b = integrate_negativity(BellCatSpec.from_label("psi-plus", 1 + 1j), params)
        assert abs(a.nu - b.nu) < 1e-9

    def test_normalization_failure_raises(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        with pytest.raises(NormalizationError):
            # legal but far-too-coarse rule: the box misses thermal mass
            integrate_negativity(spec, params_for(2.0), QuadratureSpec(nodes=16, half_width=6.0))


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
            r = integrate_negativity(spec, params, quad)
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
    """The guards fire through integrate_negativity on every evaluated point."""

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
            integrate_negativity(self.spec, params_for(0.01), self.quad)

    def test_broken_hermitian_pairing_raises(self, monkeypatch):
        def unpair(m1):
            m1[2] *= 1.0 + 1e-3
        self.tampered(monkeypatch, unpair)
        with pytest.raises(ImaginaryResidueError):
            integrate_negativity(self.spec, params_for(0.01), self.quad)

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

    def test_entries_cover_failures(self):
        # a box sized for the cold state loses thermal mass at 2 K: the hot
        # entry records its failure and the sweep continues
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        quad = QuadratureSpec(half_width=8.4)
        entries = temperature_sweep(spec, [0.01, 2.0], OMEGA, quad=quad)
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
