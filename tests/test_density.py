import math

import numpy as np
import pytest

from bellcat.density import (
    _direct_mode_factor,
    _exp_creation,
    build_density_matrix,
    build_density_operator,
    mode_thermal_blocks,
    route_gap,
)
from bellcat.errors import CutoffError
from bellcat.states import BellCatSpec, bellcat_normalization, fock_coefficients
from bellcat.tfd import thermal_params

OMEGA = 2 * math.pi * 5.5e9


def params_for(T):
    return thermal_params(T, OMEGA)


class TestZeroTemperature:
    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    def test_operator_build_is_pure_projector(self, label):
        spec = BellCatSpec.from_label(label, 1.0)
        params = params_for(0.0)
        rho = build_density_operator(spec, params, 20)
        fc = fock_coefficients(spec, 20)
        psi = fc.table.reshape(-1)
        assert np.max(np.abs(rho.matrix - np.outer(psi, psi.conj()))) < 1e-13
        assert abs(rho.trace_deficit) < 1e-10

    def test_direct_build_matches_projector(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        params = params_for(0.0)
        rho = build_density_matrix(spec, params, 20)
        fc = fock_coefficients(spec, 20)
        psi = fc.table.reshape(-1)
        assert np.max(np.abs(rho.matrix - np.outer(psi, psi.conj()))) < 1e-13

    def test_rank_one(self):
        spec = BellCatSpec.from_label("phi-plus", 0.25)
        rho = build_density_operator(spec, params_for(0.0), 12)
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.abs(eigs[:-1]) < 1e-10)


class TestElementFormula:
    def test_phi_plus_vacuum_element(self):
        # at T = 0 only n=m=nbar=mbar=n1=n2=0 survives: 4 N_+^2 e^{-2|a|^2}
        spec = BellCatSpec.from_label("phi-plus", 1.0)
        value = build_density_matrix(spec, params_for(0.0), 10).matrix[0, 0]
        expected = 4.0 * bellcat_normalization(1.0, +1) ** 2 * math.exp(-2.0)
        assert value.real == pytest.approx(expected, rel=1e-12)
        assert value.imag == 0.0


class TestCreationExponential:
    @pytest.mark.parametrize("cutoff", [0, 1, 5, 12])
    @pytest.mark.parametrize("g", [0.7, -1.3, 1 + 1j, 0.2 - 0.9j])
    def test_matches_factorial_transcription(self, g, cutoff):
        # e^{g a^dag} entry (i, j) = g^{i-j} sqrt(i!/j!) / (i-j)! below the diagonal, 0 above
        plus, minus = _exp_creation(g, cutoff)
        for i in range(cutoff + 1):
            for j in range(cutoff + 1):
                want = (g ** (i - j) * math.sqrt(math.factorial(i) / math.factorial(j))
                        / math.factorial(i - j)) if i >= j else 0.0
                assert abs(plus[i, j] - want) <= 1e-13 * max(1.0, abs(want))
                assert minus[i, j] == (-1) ** (i - j) * plus[i, j]


class TestOracleEquivalence:
    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    @pytest.mark.parametrize("temp", [0.0, 0.5])
    def test_direct_equals_operator(self, label, temp):
        spec = BellCatSpec.from_label(label, 1 + 1j)
        params = params_for(temp)
        assert route_gap(spec, params, 30) < 1e-10


def operator_kron_sum(spec, params, cutoff):
    """The operator route as the whole-matrix expression sum(w * np.kron(a, b)), in the builder's term order."""
    weights, b1, b2 = mode_thermal_blocks(spec, params, cutoff)
    return sum(weights[s, t] * np.kron(b1[s][t], b2[s][t]) for s, t in ((0, 0), (1, 1), (0, 1), (1, 0)))


def direct_kron_sum(spec, params, cutoff):
    """The direct route as the whole-matrix expression, one sign branch after another, times its prefactor."""
    q1, q2, om1, om2 = params.exp1, params.exp2, params.one_minus_exp1, params.one_minus_exp2
    want = np.zeros(((cutoff + 1) ** 2,) * 2, dtype=complex)
    for s in (0, 1):
        for t in (0, 1):
            r1 = _direct_mode_factor(spec.alpha, q1, om1, 1 - 2 * s, 1 - 2 * t, cutoff)
            r2 = _direct_mode_factor(spec.k * spec.alpha, q2, om2, 1 - 2 * s, 1 - 2 * t, cutoff)
            want += (spec.sigma ** (s + t)) * np.kron(r1, r2)
    want *= math.exp(-2.0 * abs(spec.alpha) ** 2) * om1 * om2 / (2.0 * spec.parity_overlap)
    return want


class TestModeBlockParity:
    """The operator route forms only the (+,+) and (+,-) products, because the other two are their parity images."""

    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    @pytest.mark.parametrize("alpha, temp, ratio", [(1.0, 0.0, 1.0), (1 + 1j, 0.5, 1.0), (0.7 + 0.3j, 0.5, 1.3)])
    @pytest.mark.parametrize("cutoff", [0, 3, 12, 30])
    def test_minus_blocks_are_parity_images(self, label, alpha, temp, ratio, cutoff):
        spec = BellCatSpec.from_label(label, alpha)
        weights, b1, b2 = mode_thermal_blocks(spec, thermal_params(temp, OMEGA, ratio * OMEGA), cutoff)
        i, j = np.indices((cutoff + 1, cutoff + 1))
        odd = (i + j) % 2 == 1
        for blocks in (b1, b2):
            assert np.array_equal(blocks[1][1], np.where(odd, -blocks[0][0], blocks[0][0]))
            assert np.array_equal(blocks[1][0], np.where(odd, -blocks[0][1], blocks[0][1]))
        assert weights[1, 1] == weights[0, 0]
        assert weights[1, 0] == weights[0, 1]


class TestKroneckerSums:
    """Both builders equal the whole-matrix expression sum(w * np.kron(a, b)), bit for bit."""

    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    @pytest.mark.parametrize("temp", [0.0, 0.5])
    @pytest.mark.parametrize("cutoff", [3, 12, 20])
    def test_operator_route(self, label, temp, cutoff):
        spec = BellCatSpec.from_label(label, 1 + 1j)
        params = params_for(temp)
        weights, b1, b2 = mode_thermal_blocks(spec, params, cutoff)
        want = sum(weights[s, t] * np.kron(b1[s][t], b2[s][t])
                   for s, t in ((0, 0), (1, 1), (0, 1), (1, 0)))
        got = build_density_operator(spec, params, cutoff, enforce_trace_limit=False).matrix
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    @pytest.mark.parametrize("temp", [0.0, 0.5])
    @pytest.mark.parametrize("cutoff", [3, 12, 20])
    def test_direct_route(self, label, temp, cutoff):
        spec = BellCatSpec.from_label(label, 1 + 1j)
        params = params_for(temp)
        q1, q2, om1, om2 = params.exp1, params.exp2, params.one_minus_exp1, params.one_minus_exp2
        want = np.zeros(((cutoff + 1) ** 2,) * 2, dtype=complex)
        for s in (0, 1):
            for t in (0, 1):
                r1 = _direct_mode_factor(spec.alpha, q1, om1, 1 - 2 * s, 1 - 2 * t, cutoff)
                r2 = _direct_mode_factor(spec.k * spec.alpha, q2, om2, 1 - 2 * s, 1 - 2 * t, cutoff)
                want += (spec.sigma ** (s + t)) * np.kron(r1, r2)
        want *= math.exp(-2.0 * abs(spec.alpha) ** 2) * om1 * om2 / (2.0 * spec.parity_overlap)
        got = build_density_matrix(spec, params, cutoff, enforce_trace_limit=False).matrix
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    @pytest.mark.parametrize("temp", [0.0, 0.5])
    @pytest.mark.parametrize("cutoff", [0, 3, 12, 20])
    def test_both_routes_with_unequal_modes(self, label, temp, cutoff):
        # omega2 / omega1 = 1.3 and a complex alpha give the two modes different blocks
        spec = BellCatSpec.from_label(label, 0.7 + 0.3j)
        params = thermal_params(temp, OMEGA, 1.3 * OMEGA)
        got = build_density_operator(spec, params, cutoff, enforce_trace_limit=False).matrix
        assert np.array_equal(got, operator_kron_sum(spec, params, cutoff))
        got = build_density_matrix(spec, params, cutoff, enforce_trace_limit=False).matrix
        assert np.array_equal(got, direct_kron_sum(spec, params, cutoff))


def trace_gate_outcome(build) -> str | None:
    """The CutoffError message a build raises, or None."""
    try:
        build()
    except CutoffError as exc:
        return str(exc)
    return None


class TestRouteGap:
    """route_gap streams both routes row by row and agrees with the two built matrices."""

    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    @pytest.mark.parametrize("temp", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", [1.0, 1 + 1j])
    @pytest.mark.parametrize("cutoff", [3, 12, 20, 30])
    def test_equals_built_max_difference(self, label, temp, alpha, cutoff):
        spec = BellCatSpec.from_label(label, alpha)
        params = params_for(temp)
        op = build_density_operator(spec, params, cutoff, enforce_trace_limit=False)
        di = build_density_matrix(spec, params, cutoff, enforce_trace_limit=False)
        want = float(np.max(np.abs(op.matrix - di.matrix)))
        assert route_gap(spec, params, cutoff, enforce_trace_limit=False) == want

    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    @pytest.mark.parametrize("temp", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", [1.0, 1 + 1j])
    @pytest.mark.parametrize("cutoff", [3, 12, 20, 30])
    def test_trace_gate_trips_where_builders_do(self, label, temp, alpha, cutoff):
        spec = BellCatSpec.from_label(label, alpha)
        params = params_for(temp)
        built = trace_gate_outcome(lambda: (build_density_operator(spec, params, cutoff),
                                            build_density_matrix(spec, params, cutoff)))
        assert trace_gate_outcome(lambda: route_gap(spec, params, cutoff)) == built

    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    @pytest.mark.parametrize("temp", [0.0, 0.5])
    @pytest.mark.parametrize("cutoff", [0, 3, 12, 20, 30])
    def test_unequal_modes_match_built_matrices(self, label, temp, cutoff):
        spec = BellCatSpec.from_label(label, 0.7 + 0.3j)
        params = thermal_params(temp, OMEGA, 1.3 * OMEGA)
        op = build_density_operator(spec, params, cutoff, enforce_trace_limit=False)
        di = build_density_matrix(spec, params, cutoff, enforce_trace_limit=False)
        want = float(np.max(np.abs(op.matrix - di.matrix)))
        assert route_gap(spec, params, cutoff, enforce_trace_limit=False) == want
        built = trace_gate_outcome(lambda: (build_density_operator(spec, params, cutoff),
                                            build_density_matrix(spec, params, cutoff)))
        assert trace_gate_outcome(lambda: route_gap(spec, params, cutoff)) == built

    def test_trace_gate_trips_below_needed_cutoff(self):
        spec = BellCatSpec.from_label("psi-plus", 1 + 1j)
        with pytest.raises(CutoffError, match=r"trace deficit 2\.288e-02 exceeds"):
            route_gap(spec, params_for(0.5), 20)


class TestDensityInvariants:
    def setup_method(self):
        self.spec = BellCatSpec.from_label("phi-minus", 1.0)
        self.params = params_for(0.5)
        self.rho = build_density_operator(self.spec, self.params, 30)

    def test_hermitian(self):
        assert np.max(np.abs(self.rho.matrix - self.rho.matrix.conj().T)) < 1e-12

    def test_trace_at_most_one(self):
        trace = float(np.real(np.trace(self.rho.matrix)))
        assert trace <= 1.0 + 1e-12
        assert self.rho.trace_deficit == pytest.approx(1.0 - trace, abs=1e-15)

    def test_positive_semidefinite(self):
        eigs = np.linalg.eigvalsh(self.rho.matrix)
        assert eigs[0] > -1e-8

    def test_even_difference_selection_rule(self):
        c = self.rho.cutoff
        n1, n2 = np.divmod(np.arange((c + 1) ** 2), c + 1)
        total = n1 + n2
        odd = (total[:, None] - total[None, :]) % 2 == 1
        # the operator route adds each branch next to its parity image, so these
        # cancel exactly; the direct route sums complex phases, so to rounding
        assert np.all(self.rho.matrix[odd] == 0)
        direct = build_density_matrix(self.spec, self.params, c)
        assert np.max(np.abs(direct.matrix[odd])) < 1e-15

    def test_zero_temperature_continuity(self):
        cold = build_density_operator(self.spec, params_for(1e-6), 20)
        frozen = build_density_operator(self.spec, params_for(0.0), 20)
        assert np.max(np.abs(cold.matrix - frozen.matrix)) < 1e-6

    def test_deficit_shrinks_with_cutoff(self):
        d1 = build_density_operator(self.spec, self.params, 22).trace_deficit
        d2 = build_density_operator(self.spec, self.params, 34).trace_deficit
        assert d2 < d1


class TestCutoffPolicy:
    def test_cutoff_too_small_raises(self):
        spec = BellCatSpec.from_label("phi-plus", 2.0)
        with pytest.raises(CutoffError):
            build_density_operator(spec, params_for(1.0), 8)
        with pytest.raises(CutoffError):
            build_density_matrix(spec, params_for(1.0), 8)

    def test_default_cutoff_keeps_deficit_small(self):
        # full matrices at the default cutoff get large at T = 1 K; the trace
        # of a Kronecker sum factorizes, so check the deficit via mode blocks
        from bellcat.series import default_cat_cap
        from bellcat.density import thermal_levels

        for temp in (0.0, 0.3, 1.0):
            spec = BellCatSpec.from_label("psi-plus", 1 + 1j)
            params = params_for(temp)
            cutoff = default_cat_cap(spec, params) + thermal_levels(params, 1e-9)
            weights, b1, b2 = mode_thermal_blocks(spec, params, cutoff)
            trace = sum(weights[s, t] * np.trace(b1[s][t]) * np.trace(b2[s][t])
                        for s in (0, 1) for t in (0, 1))
            assert abs(1.0 - trace.real) < 1e-6
