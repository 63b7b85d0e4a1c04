import math

import numpy as np
import pytest

from bellcat.tfd import HBAR, KB, ThermalParams, gibbs_weight, thermal_params

OMEGA_5P5_GHZ = 2 * math.pi * 5.5e9


def temperature_for_exp(target: float, omega: float) -> float:
    """Temperature at which e^{-beta hbar omega} equals `target`."""
    return -HBAR * omega / (KB * math.log(target))


class TestThermalParams:
    def test_zero_temperature_flag(self):
        p = thermal_params(0.0, OMEGA_5P5_GHZ)
        assert p.is_zero_temperature
        assert p.exp1 == 0.0 and p.exp2 == 0.0
        assert p.u1 == 1.0 and p.v1 == 0.0
        assert p.u2 == 1.0 and p.v2 == 0.0
        assert p.z == 1.0

    def test_half_gibbs_factor(self):
        # e^{-beta hbar omega} = 1/2  =>  u = sqrt(2), v = 1
        T = temperature_for_exp(0.5, OMEGA_5P5_GHZ)
        p = thermal_params(T, OMEGA_5P5_GHZ)
        assert p.exp1 == pytest.approx(0.5, rel=1e-14)
        assert p.u1 == pytest.approx(math.sqrt(2), rel=1e-13)
        assert p.v1 == pytest.approx(1.0, rel=1e-13)

    def test_betahw_at_300mK(self):
        # beta hbar omega for T = 0.3 K, omega/2pi = 5.5 GHz, with the CODATA
        # constants: 0.87986..., i.e. 0.8799 to 4 s.f. (0.880 to 3 s.f.)
        p = thermal_params(0.3, OMEGA_5P5_GHZ)
        betahw = -math.log(p.exp1)
        exact = HBAR * OMEGA_5P5_GHZ / (KB * 0.3)
        assert betahw == pytest.approx(exact, rel=1e-12)
        assert betahw == pytest.approx(0.8799, abs=5e-5)

    def test_hyperbolic_identity_random(self):
        # paper regime: T in [1e-2, 1e1] K, f in [0.5, 50] GHz.  Here u^2 stays
        # below ~500 so the 1e-12 absolute identity has float64 headroom.
        rng = np.random.default_rng(1234)
        for _ in range(200):
            T = 10.0 ** rng.uniform(-2, 1)
            f = 10.0 ** rng.uniform(math.log10(0.5e9), math.log10(50e9))
            p = thermal_params(T, 2 * math.pi * f, 2 * math.pi * f * rng.uniform(0.5, 2.0))
            assert abs(p.u1**2 - p.v1**2 - 1.0) < 1e-12
            assert abs(p.u2**2 - p.v2**2 - 1.0) < 1e-12

    def test_hyperbolic_identity_extreme_domain(self):
        # over T in (1e-3, 1e2] K, f in [0.1, 50] GHz the combination u^2 can
        # reach ~2e4 where a float64 product is quantized at u^2 * eps ~ 2e-12;
        # assert the identity at that representational floor
        rng = np.random.default_rng(99)
        for _ in range(200):
            T = 10.0 ** rng.uniform(-3, 2)
            f = 10.0 ** rng.uniform(math.log10(0.1e9), math.log10(50e9))
            p = thermal_params(T, 2 * math.pi * f)
            floor = max(1e-12, 4.0 * 2.3e-16 * p.u1**2)
            assert abs(p.u1**2 - p.v1**2 - 1.0) < floor

    def test_v_monotone_in_temperature(self):
        temps = np.linspace(0.05, 5.0, 25)
        vs = [thermal_params(T, OMEGA_5P5_GHZ).v1 for T in temps]
        assert all(b > a for a, b in zip(vs, vs[1:]))

    def test_partition_function(self):
        T = temperature_for_exp(0.5, OMEGA_5P5_GHZ)
        p = thermal_params(T, OMEGA_5P5_GHZ, 2 * OMEGA_5P5_GHZ)
        assert p.z == pytest.approx(1.0 / (0.5 * 0.75), rel=1e-13)

    def test_rejections(self):
        with pytest.raises(ValueError):
            thermal_params(-0.1, OMEGA_5P5_GHZ)
        with pytest.raises(ValueError):
            thermal_params(1.0, 0.0)
        with pytest.raises(ValueError):
            thermal_params(1.0, -5.0)
        with pytest.raises(ValueError):
            thermal_params(math.nan, OMEGA_5P5_GHZ)

    def test_underflowing_temperature_rejected(self):
        # k_B T is 0.0 in double precision: a usage error, not ZeroDivisionError
        assert KB * 1e-320 == 0.0
        with pytest.raises(ValueError, match="underflows"):
            thermal_params(1e-320, OMEGA_5P5_GHZ)


class TestGibbsWeight:
    def test_zero_temperature(self):
        p = thermal_params(0.0, OMEGA_5P5_GHZ)
        assert gibbs_weight(p, 1, 0) == 1.0
        for n in (1, 2, 17):
            assert gibbs_weight(p, 1, n) == 0.0

    def test_geometric_weights(self):
        T = temperature_for_exp(0.5, OMEGA_5P5_GHZ)
        p = thermal_params(T, OMEGA_5P5_GHZ)
        assert gibbs_weight(p, 1, 3) == pytest.approx(1.0 / 16.0, rel=1e-13)

    def test_partial_sum_deficit_is_geometric(self):
        # sum_{n=0}^{N} w_n = 1 - e^{-(N+1) beta hbar omega} exactly
        p = thermal_params(1.0, OMEGA_5P5_GHZ)
        for N in (0, 3, 10, 40):
            partial = math.fsum(gibbs_weight(p, 1, n) for n in range(N + 1))
            assert abs((1.0 - partial) - p.exp1 ** (N + 1)) < 1e-12

    def test_mode_validation(self):
        p = thermal_params(1.0, OMEGA_5P5_GHZ)
        with pytest.raises(ValueError):
            gibbs_weight(p, 3, 0)
        with pytest.raises(ValueError):
            gibbs_weight(p, 1, -1)
