import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from bellcat.errors import CutoffError, DegenerateStateError, TruncationError
from bellcat.states import (
    HARD_FOCK_CUTOFF,
    STATE_LABELS,
    BellCatSpec,
    bellcat_normalization,
    coherent_overlap_sq,
    fock_coefficients,
    parity_overlap,
)
from bellcat.tfd import thermal_params
from bellcat.series import default_cat_cap

mpmath.mp.dps = 40


def hp_norm(a2: float, sigma: int, scale: int) -> float:
    """[2(1 + sigma e^{-scale a2})]^{-1/2} at 40 digits."""
    return float(1 / mpmath.sqrt(2 * (1 + sigma * mpmath.e ** (-scale * mpmath.mpf(a2)))))


class TestNormalizations:
    def test_bellcat_trivial(self):
        assert bellcat_normalization(0, +1) == pytest.approx(0.5, abs=1e-15)

    def test_bellcat_derived(self):
        assert bellcat_normalization(1, +1) == pytest.approx(hp_norm(1, +1, 4), rel=1e-14)
        assert bellcat_normalization(2, -1) == pytest.approx(hp_norm(4, -1, 4), rel=1e-14)

    def test_degenerate_rejection(self):
        with pytest.raises(DegenerateStateError):
            bellcat_normalization(0.0, -1)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            bellcat_normalization(1.0, 2)

    @pytest.mark.parametrize("alpha", [1e-8, 1e-6, 1e-3])
    def test_small_odd_amplitude_without_cancellation(self, alpha):
        # 1 - e^{-4|alpha|^2} loses all its digits at |alpha| = 1e-8 unless taken through expm1
        spec = BellCatSpec.from_label("phi-minus", alpha)
        norm = bellcat_normalization(alpha, -1)
        assert norm == pytest.approx(1.0 / math.sqrt(2.0 * spec.parity_overlap), rel=1e-14)
        assert norm == pytest.approx(hp_norm(alpha**2, -1, 4), rel=1e-14)
        assert abs(fock_coefficients(spec, 4).norm_deficit) <= 1e-14


class TestOverlap:
    def test_paper_value_at_two(self):
        # e^{-16} = 1.13e-7 to 3 significant figures
        v = coherent_overlap_sq(2)
        assert abs(v * 1e7 - 1.13) < 0.005

    def test_identical_states(self):
        assert coherent_overlap_sq(0) == 1.0

    def test_complex_amplitude(self):
        assert coherent_overlap_sq(1 + 1j) == pytest.approx(float(mpmath.e**-8), rel=1e-14)


class TestAmplitudePastFloatRange:
    # finite parts whose modulus passes the float range: abs() raises OverflowError there
    ALPHA = complex(1.5e308, 1.5e308)

    def test_limits(self):
        for sigma in (+1, -1):
            assert parity_overlap(self.ALPHA, sigma) == 1.0
            assert bellcat_normalization(self.ALPHA, sigma) == 1.0 / math.sqrt(2.0)
        assert coherent_overlap_sq(self.ALPHA) == 0.0

    @pytest.mark.parametrize("alpha", [1.0, 1 + 1j, 0.3 - 0.7j, 1e-150 + 1e-150j, 1e154 + 1e154j])
    def test_finite_moduli_unchanged(self, alpha):
        a2 = abs(alpha) * abs(alpha)
        assert coherent_overlap_sq(alpha) == math.exp(-4.0 * a2)
        assert parity_overlap(alpha, +1) == 1.0 + math.exp(-4.0 * a2)
        assert parity_overlap(alpha, -1) == -math.expm1(-4.0 * a2)


class TestBellCatSpec:
    def test_labels(self):
        for label, (k, sigma) in STATE_LABELS.items():
            spec = BellCatSpec.from_label(label, 1.0)
            assert (spec.k, spec.sigma) == (k, sigma)
            assert spec.label == label

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            BellCatSpec.from_label("phi", 1.0)

    def test_zero_alpha_rejected(self):
        with pytest.raises(DegenerateStateError):
            BellCatSpec(alpha=0.0, k=1, sigma=-1)
        with pytest.raises(DegenerateStateError):
            BellCatSpec(alpha=0.0, k=1, sigma=+1)

    def test_underflowing_odd_amplitude_rejected(self):
        # |alpha|^2 underflows to 0: the odd states' parity overlap is exactly 0
        for k in (+1, -1):
            with pytest.raises(DegenerateStateError):
                BellCatSpec(alpha=1e-200, k=k, sigma=-1)
            assert BellCatSpec(alpha=1e-200, k=k, sigma=+1).parity_overlap == 2.0
        assert BellCatSpec(alpha=1e-150, k=1, sigma=-1).parity_overlap > 0.0

    def test_bad_k_sigma(self):
        with pytest.raises(ValueError):
            BellCatSpec(alpha=1.0, k=0, sigma=1)
        with pytest.raises(ValueError):
            BellCatSpec(alpha=1.0, k=1, sigma=0)

    def test_flipped_mode2(self):
        spec = BellCatSpec.from_label("phi-plus", 1 + 1j)
        assert spec.flipped_mode2().label == "psi-plus"


class TestFockCoefficients:
    def test_phi_plus_origin_coefficient(self):
        # c(0,0) = 2 N_+ e^{-1} for Phi_+ with alpha = 1
        spec = BellCatSpec.from_label("phi-plus", 1.0)
        fc = fock_coefficients(spec, 0)
        expected = 2.0 * bellcat_normalization(1.0, +1) * math.exp(-1.0)
        assert fc.coefficient(0, 0) == pytest.approx(expected, rel=1e-13)

    def test_psi_minus_parity_zeros(self):
        spec = BellCatSpec.from_label("psi-minus", 1.7 - 0.3j)
        fc = fock_coefficients(spec, 12)
        n, m = np.meshgrid(np.arange(13), np.arange(13), indexing="ij")
        even = (n + m) % 2 == 0
        assert np.all(fc.table[even] == 0)

    def test_parity_rule_all_states(self):
        for label in STATE_LABELS:
            spec = BellCatSpec.from_label(label, 0.8 + 0.6j)
            fc = fock_coefficients(spec, 10)
            n, m = np.meshgrid(np.arange(11), np.arange(11), indexing="ij")
            nonzero = fc.table != 0
            assert np.all(((-1.0) ** (n + m))[nonzero] == spec.sigma)

    def test_norm_convergence(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        fc = fock_coefficients(spec, 20)
        assert abs(fc.norm_deficit) < 1e-10
        # monotone nondecreasing truncated norm
        norms = [1.0 - fock_coefficients(spec, c).norm_deficit for c in range(0, 21, 4)]
        assert all(b >= a - 1e-15 for a, b in zip(norms, norms[1:]))

    def test_default_cutoff_policy(self):
        # at T = 0 (u = 1) the cat cap is the pure state's Fock cutoff
        cold = thermal_params(0.0, 2 * math.pi * 5.5e9)
        for alpha in (1.0, 1 + 1j, 2.0, 3.0):
            for sigma in (+1, -1):
                spec = BellCatSpec(alpha=alpha, k=1, sigma=sigma)
                cutoff = default_cat_cap(spec, cold)
                assert cutoff == math.ceil(abs(alpha) ** 2 + 8 * abs(alpha) + 10)
                fc = fock_coefficients(spec, cutoff)
                assert abs(fc.norm_deficit) < 1e-12

    @pytest.mark.parametrize("cutoff, error", [(-1, CutoffError), (HARD_FOCK_CUTOFF + 1, TruncationError),
                                               (10**12, TruncationError)])
    def test_cutoffs_outside_the_caps_raise_before_any_table(self, cutoff, error):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(error):
                fock_coefficients(spec, cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5
        assert fock_coefficients(spec, HARD_FOCK_CUTOFF).table.shape == (HARD_FOCK_CUTOFF + 1,) * 2

    def test_mode2_flip_symmetry(self):
        # coefficients of (k=+1, sigma) at (n, m) equal those of (k=-1, sigma)
        # times (-1)^m
        for sigma in (+1, -1):
            a = 1.1 + 0.4j
            plus = fock_coefficients(BellCatSpec(alpha=a, k=+1, sigma=sigma), 9)
            minus = fock_coefficients(BellCatSpec(alpha=a, k=-1, sigma=sigma), 9)
            m = np.arange(10)
            signs = np.where(m % 2 == 0, 1.0, -1.0)
            assert np.allclose(plus.table, minus.table * signs[None, :], rtol=0, atol=1e-15)

    def test_degenerate_unreachable_through_spec(self):
        # BellCatSpec refuses alpha = 0 at construction, so the degenerate
        # normalization can only be reached through the standalone functions
        with pytest.raises(DegenerateStateError):
            BellCatSpec(alpha=0.0, k=1, sigma=-1)
        with pytest.raises(DegenerateStateError):
            bellcat_normalization(0, -1)
