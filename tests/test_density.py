import math

import numpy as np
import pytest

import bellcat.density
from bellcat.density import (
    _direct_mode_factor, _direct_mode_factors, _direct_weights, _exp_creation, _trace_deficit, branch_weights,
    mode_blocks, route_gaps,
)
from bellcat.errors import CutoffError
from bellcat.states import BellCatSpec, bellcat_normalization, fock_coefficients
from bellcat.tfd import gibbs_weight, state_modes, thermal_params

OMEGA = 2 * math.pi * 5.5e9


def params_for(T):
    return thermal_params(T, OMEGA)


def kron_sum(terms):
    """The whole-matrix expression sum(w * np.kron(a, b)) of a (weights, factors1, factors2) triple."""
    weights, f1, f2 = terms
    return sum(weights[s, t] * np.kron(f1[s][t], f2[s][t]) for s, t in ((0, 0), (1, 1), (0, 1), (1, 0)))


def operator_terms(spec, params, cutoff):
    """(weights, blocks1, blocks2) of the operator route: rho = sum_{s,t} w[s,t] kron(b1[s][t], b2[s][t])."""
    return (branch_weights(spec),) + tuple(mode_blocks(gamma, mode, cutoff)
                                           for gamma, mode in state_modes(spec, params))


def direct_terms(spec, params, cutoff):
    """(weights, factors1, factors2) of the direct route, laid out as operator_terms returns them."""
    return (_direct_weights(spec),) + tuple(_direct_mode_factors(gamma, mode, cutoff)
                                            for gamma, mode in state_modes(spec, params))


def operator_kron_sum(spec, params, cutoff):
    """The operator route as the whole-matrix expression sum(w * np.kron(a, b))."""
    return kron_sum(operator_terms(spec, params, cutoff))


def direct_kron_sum(spec, params, cutoff):
    """The direct route as the whole-matrix expression, one sign branch after another, times its prefactor."""
    (q1, om1, _, _), (q2, om2, _, _) = params.modes
    want = np.zeros(((cutoff + 1) ** 2,) * 2, dtype=complex)
    for s in (0, 1):
        for t in (0, 1):
            r1 = _direct_mode_factor(spec.alpha, q1, om1, 1 - 2 * s, 1 - 2 * t, cutoff)
            r2 = _direct_mode_factor(spec.k * spec.alpha, q2, om2, 1 - 2 * s, 1 - 2 * t, cutoff)
            want += (spec.sigma ** (s + t)) * np.kron(r1, r2)
    want *= math.exp(-2.0 * abs(spec.alpha) ** 2) * om1 * om2 / (2.0 * spec.parity_overlap)
    return want


def dressed_gibbs(spec, params, cutoff):
    """f rho_beta f^dag on the two-mode space, with f transcribed term by term from the printed dressing operator.

    f = N e^{-|alpha|^2} sum_{n,m} alpha^{n+m} k^m [1 + sigma (-1)^{n+m}] (a1^dag)^n (a2^dag)^m / (n! m! u1^n u2^m);
    a^dag is nilpotent on the truncated space, so the sum over n, m <= cutoff is exact.
    """
    levels = np.arange(cutoff + 1)
    adag = np.diag(np.sqrt(levels[1:]), -1).astype(complex)

    def scaled_powers(u):
        powers = [np.eye(cutoff + 1, dtype=complex)]
        for n in range(1, cutoff + 1):
            powers.append(powers[-1] @ adag / (n * u))
        return powers

    p1, p2 = (scaled_powers(mode.u) for mode in params.modes)
    f = np.zeros(((cutoff + 1) ** 2,) * 2, dtype=complex)
    for n in levels:
        for m in levels:
            coefficient = spec.alpha ** (n + m) * spec.k ** m * (1 + spec.sigma * (-1) ** (n + m))
            if coefficient:
                f += coefficient * np.kron(p1[n], p2[m])
    f *= bellcat_normalization(spec.alpha, spec.sigma) * math.exp(-abs(spec.alpha) ** 2)
    gibbs = np.kron(*(np.diag([gibbs_weight(mode, n) for n in levels]) for mode in params.modes))
    return f @ gibbs @ f.conj().T


def gated_deficit(matrix, cutoff):
    """1 - tr(matrix), through the trace-deficit gate that route_gaps applies."""
    return _trace_deficit(np.trace(matrix), cutoff, True)


class TestZeroTemperature:
    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    def test_operator_build_is_pure_projector(self, label):
        spec = BellCatSpec.from_label(label, 1.0)
        params = params_for(0.0)
        rho = operator_kron_sum(spec, params, 20)
        fc = fock_coefficients(spec, 20)
        psi = fc.table.reshape(-1)
        assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) < 1e-13
        assert abs(gated_deficit(rho, 20)) < 1e-10

    def test_direct_build_matches_projector(self):
        spec = BellCatSpec.from_label("phi-minus", 1.0)
        params = params_for(0.0)
        rho = direct_kron_sum(spec, params, 20)
        gated_deficit(rho, 20)
        fc = fock_coefficients(spec, 20)
        psi = fc.table.reshape(-1)
        assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) < 1e-13

    def test_rank_one(self):
        spec = BellCatSpec.from_label("phi-plus", 0.25)
        rho = operator_kron_sum(spec, params_for(0.0), 12)
        gated_deficit(rho, 12)
        eigs = np.linalg.eigvalsh(rho)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.abs(eigs[:-1]) < 1e-10)


class TestElementFormula:
    def test_phi_plus_vacuum_element(self):
        # at T = 0 only n=m=nbar=mbar=n1=n2=0 survives: 4 N_+^2 e^{-2|a|^2}
        spec = BellCatSpec.from_label("phi-plus", 1.0)
        rho = direct_kron_sum(spec, params_for(0.0), 10)
        gated_deficit(rho, 10)
        value = rho[0, 0]
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
        assert route_gaps([spec], params, 30)[0] < 1e-10


class TestModeBlockParity:
    """The operator route forms only the (+,+) and (+,-) products, because the other two are their parity images."""

    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    @pytest.mark.parametrize("alpha, temp, ratio", [(1.0, 0.0, 1.0), (1 + 1j, 0.5, 1.0), (0.7 + 0.3j, 0.5, 1.3)])
    @pytest.mark.parametrize("cutoff", [0, 3, 12, 30])
    def test_minus_blocks_are_parity_images(self, label, alpha, temp, ratio, cutoff):
        spec = BellCatSpec.from_label(label, alpha)
        weights, b1, b2 = operator_terms(spec, thermal_params(temp, OMEGA, ratio * OMEGA), cutoff)
        i, j = np.indices((cutoff + 1, cutoff + 1))
        odd = (i + j) % 2 == 1
        for blocks in (b1, b2):
            assert np.array_equal(blocks[1][1], np.where(odd, -blocks[0][0], blocks[0][0]))
            assert np.array_equal(blocks[1][0], np.where(odd, -blocks[0][1], blocks[0][1]))
        assert weights[1, 1] == weights[0, 0]
        assert weights[1, 0] == weights[0, 1]

    @pytest.mark.parametrize("gamma, temp, ratio", [(1.0, 0.0, 1.0), (1 + 1j, 0.5, 1.0), (0.7 - 0.4j, 0.5, 1.3)])
    @pytest.mark.parametrize("cutoff", [0, 3, 12, 30])
    def test_minus_amplitude_relabels_the_branches(self, gamma, temp, ratio, cutoff):
        # the reference routes build each mode at +alpha only and read a k = -1 state's mode 2 from it
        for mode in thermal_params(temp, OMEGA, ratio * OMEGA).modes:
            for build in (mode_blocks, _direct_mode_factors):
                plus, minus = build(gamma, mode, cutoff), build(-gamma, mode, cutoff)
                for s in (0, 1):
                    for t in (0, 1):
                        want = plus[1 - s][1 - t]
                        assert np.max(np.abs(minus[s][t] - want)) <= 1e-14 * np.max(np.abs(want))


class TestKroneckerSums:
    """The per-mode factors route_gaps compares assemble, by Kronecker sums, into each route's two-mode matrix.

    Operator route: branch_weights and the mode_blocks of state_modes against
    f rho_beta f^dag with f transcribed from the printed dressing operator.
    Direct route: _direct_weights and the _direct_mode_factors of state_modes,
    each carrying its (1 - q_i), against the printed prefactor applied once
    after the four sign branches.  The references read params.modes in mode
    order themselves.  Measured worst difference 9e-17 over these configs.
    """

    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    @pytest.mark.parametrize("temp", [0.0, 0.5])
    @pytest.mark.parametrize("cutoff", [3, 12, 20])
    def test_operator_route(self, label, temp, cutoff):
        spec = BellCatSpec.from_label(label, 1 + 1j)
        params = params_for(temp)
        assert np.max(np.abs(operator_kron_sum(spec, params, cutoff) - dressed_gibbs(spec, params, cutoff))) < 1e-15

    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    @pytest.mark.parametrize("temp", [0.0, 0.5])
    @pytest.mark.parametrize("cutoff", [3, 12, 20])
    def test_direct_route(self, label, temp, cutoff):
        spec = BellCatSpec.from_label(label, 1 + 1j)
        params = params_for(temp)
        got = kron_sum(direct_terms(spec, params, cutoff))
        assert np.max(np.abs(got - direct_kron_sum(spec, params, cutoff))) < 1e-15

    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    @pytest.mark.parametrize("temp", [0.0, 0.5])
    @pytest.mark.parametrize("cutoff", [0, 3, 12, 20])
    def test_both_routes_with_unequal_modes(self, label, temp, cutoff):
        # omega2 / omega1 = 1.3 and a complex alpha give the two modes different blocks
        spec = BellCatSpec.from_label(label, 0.7 + 0.3j)
        params = thermal_params(temp, OMEGA, 1.3 * OMEGA)
        assert np.max(np.abs(operator_kron_sum(spec, params, cutoff) - dressed_gibbs(spec, params, cutoff))) < 1e-15
        got = kron_sum(direct_terms(spec, params, cutoff))
        assert np.max(np.abs(got - direct_kron_sum(spec, params, cutoff))) < 1e-15


def trace_gate_outcome(build) -> str | None:
    """The CutoffError message a build raises, or None."""
    try:
        build()
    except CutoffError as exc:
        return str(exc)
    return None


class TestRouteGap:
    """route_gaps bounds the whole-matrix max |operator - direct| from per-mode factors, and gates as the traces do."""

    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    @pytest.mark.parametrize("temp", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", [1.0, 1 + 1j])
    @pytest.mark.parametrize("cutoff", [3, 12, 20, 30])
    def test_bounds_whole_matrix_max_difference(self, label, temp, alpha, cutoff):
        spec = BellCatSpec.from_label(label, alpha)
        params = params_for(temp)
        diff = operator_kron_sum(spec, params, cutoff) - direct_kron_sum(spec, params, cutoff)
        assert route_gaps([spec], params, cutoff, enforce_trace_limit=False)[0] >= float(np.max(np.abs(diff)))

    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    @pytest.mark.parametrize("temp", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", [1.0, 1 + 1j])
    @pytest.mark.parametrize("cutoff", [3, 12, 20, 30])
    def test_trace_gate_trips_where_builders_do(self, label, temp, alpha, cutoff):
        spec = BellCatSpec.from_label(label, alpha)
        params = params_for(temp)
        built = trace_gate_outcome(lambda: (gated_deficit(operator_kron_sum(spec, params, cutoff), cutoff),
                                            gated_deficit(direct_kron_sum(spec, params, cutoff), cutoff)))
        assert trace_gate_outcome(lambda: route_gaps([spec], params, cutoff)) == built

    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    @pytest.mark.parametrize("temp", [0.0, 0.5])
    @pytest.mark.parametrize("cutoff", [0, 3, 12, 20, 30])
    def test_unequal_modes_match_built_matrices(self, label, temp, cutoff):
        spec = BellCatSpec.from_label(label, 0.7 + 0.3j)
        params = thermal_params(temp, OMEGA, 1.3 * OMEGA)
        operator, direct = operator_kron_sum(spec, params, cutoff), direct_kron_sum(spec, params, cutoff)
        gap = route_gaps([spec], params, cutoff, enforce_trace_limit=False)[0]
        assert gap >= float(np.max(np.abs(operator - direct)))
        built = trace_gate_outcome(lambda: (gated_deficit(operator, cutoff), gated_deficit(direct, cutoff)))
        assert trace_gate_outcome(lambda: route_gaps([spec], params, cutoff)) == built

    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    def test_flipped_branch_sign_exceeds_gate(self, label, monkeypatch):
        # sigma^(s+t) flipped in the direct weights turns the state into its parity partner
        direct_weights = bellcat.density._direct_weights
        monkeypatch.setattr(bellcat.density, "_direct_weights",
                            lambda spec: direct_weights(spec) * np.array([[1.0, -1.0], [-1.0, 1.0]]))
        spec = BellCatSpec.from_label(label, 1 + 1j)
        assert route_gaps([spec], params_for(0.5), 30, enforce_trace_limit=False)[0] > 1e-10

    @pytest.mark.parametrize("label", ["phi-plus", "phi-minus", "psi-plus", "psi-minus"])
    def test_dropped_one_minus_q_exceeds_gate(self, label, monkeypatch):
        # the factors of amplitude alpha without their (1 - q): route_gaps builds both modes' at
        # +alpha, so both lose it
        direct_mode_factors = bellcat.density._direct_mode_factors
        params = params_for(0.5)

        def dropped(gamma, mode, cutoff):
            factors = direct_mode_factors(gamma, mode, cutoff)
            return [[f / mode.one_minus_q for f in row] for row in factors] if gamma == 1 + 1j else factors

        monkeypatch.setattr(bellcat.density, "_direct_mode_factors", dropped)
        spec = BellCatSpec.from_label(label, 1 + 1j)
        assert route_gaps([spec], params, 30, enforce_trace_limit=False)[0] > 1e-10

    def test_trace_gate_trips_below_needed_cutoff(self):
        spec = BellCatSpec.from_label("psi-plus", 1 + 1j)
        with pytest.raises(CutoffError, match=r"trace deficit 2\.288e-02 exceeds"):
            route_gaps([spec], params_for(0.5), 20)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("temp", [0.0, 1.0])
    @pytest.mark.parametrize("cutoff", [301, 512])
    def test_cutoffs_up_to_the_hard_cap_stay_finite(self, temp, cutoff):
        # sqrt(N!) alone passes the float range from N = 301; the direct factors carry the thermal
        # weights in their log-magnitudes, so every entry stays inside it
        gap = route_gaps([BellCatSpec.from_label("phi-minus", 1.0)], params_for(temp), cutoff)[0]
        assert math.isfinite(gap) and gap < 1e-10


class TestRouteGaps:
    """route_gaps over a list of states equals its call on each state alone, bit for bit."""

    @pytest.mark.parametrize("ratio", [1.0, 1.3])
    @pytest.mark.parametrize("temp", [0.0, 1.0])
    @pytest.mark.parametrize("alpha", [1.0, 1 + 1j, 0.7 - 0.4j])
    def test_list_equals_single_state_calls(self, alpha, temp, ratio):
        # at ratio 1.3 the two modes stop sharing their factors
        params = thermal_params(temp, OMEGA, ratio * OMEGA)
        specs = [BellCatSpec.from_label(label, alpha) for label in ("phi-plus", "phi-minus", "psi-plus", "psi-minus")]
        gaps = route_gaps(specs, params, 20, enforce_trace_limit=False)
        assert gaps == [route_gaps([spec], params, 20, enforce_trace_limit=False)[0] for spec in specs]

    def test_mixed_amplitudes(self, monkeypatch):
        # the factors are built at the one alpha of the states, so a list mixing two refuses before
        # any is built; an empty list is still no states
        def refuse(*args, **kwargs):
            raise AssertionError("a factor was built")

        for name in ("mode_blocks", "_direct_mode_factors"):
            monkeypatch.setattr(bellcat.density, name, refuse)
        params = thermal_params(1.0, OMEGA, 1.3 * OMEGA)
        specs = [BellCatSpec.from_label(label, alpha) for label, alpha in (("phi-plus", 1.0), ("psi-minus", 1 + 1j))]
        with pytest.raises(ValueError, match="must share one alpha"):
            route_gaps(specs, params, 20, enforce_trace_limit=False)
        assert route_gaps([], params, 20) == []

    def test_amplitudes_differing_in_a_zero_sign(self):
        # alpha = -1 - 0j and -1 + 0j compare equal but differ in phase, so the list counts as mixed
        specs = [BellCatSpec.from_label(label, complex(-1.0, zero)) for label, zero in (("phi-plus", -0.0),
                                                                                        ("psi-plus", 0.0))]
        with pytest.raises(ValueError, match="must share one alpha"):
            route_gaps(specs, params_for(1.0), 30, enforce_trace_limit=False)

    def test_builds_each_mode_once(self, monkeypatch):
        # equal frequencies: the two modes share one thermal mode, and every state reads its
        # factors at +alpha, so each builder runs once
        built = []
        for name in ("mode_blocks", "_direct_mode_factors"):
            builder = getattr(bellcat.density, name)

            def spy(gamma, *args, builder=builder, name=name):
                built.append((name, gamma))
                return builder(gamma, *args)

            monkeypatch.setattr(bellcat.density, name, spy)
        specs = [BellCatSpec.from_label(label, 1 + 1j) for label in ("phi-plus", "phi-minus", "psi-plus", "psi-minus")]
        route_gaps(specs, params_for(0.5), 30)
        assert built == [("mode_blocks", 1 + 1j), ("_direct_mode_factors", 1 + 1j)]


class TestDensityInvariants:
    def setup_method(self):
        self.spec = BellCatSpec.from_label("phi-minus", 1.0)
        self.params = params_for(0.5)
        self.cutoff = 30
        self.rho = operator_kron_sum(self.spec, self.params, self.cutoff)
        self.deficit = gated_deficit(self.rho, self.cutoff)

    def test_hermitian(self):
        assert np.max(np.abs(self.rho - self.rho.conj().T)) < 1e-12

    def test_trace_at_most_one(self):
        trace = float(np.real(np.trace(self.rho)))
        assert trace <= 1.0 + 1e-12
        assert self.deficit == pytest.approx(1.0 - trace, abs=1e-15)

    def test_positive_semidefinite(self):
        eigs = np.linalg.eigvalsh(self.rho)
        assert eigs[0] > -1e-8

    def test_even_difference_selection_rule(self):
        c = self.cutoff
        n1, n2 = np.divmod(np.arange((c + 1) ** 2), c + 1)
        total = n1 + n2
        odd = (total[:, None] - total[None, :]) % 2 == 1
        # the operator route adds each branch next to its parity image, so these
        # cancel exactly; the direct route sums complex phases, so to rounding
        assert np.all(self.rho[odd] == 0)
        direct = direct_kron_sum(self.spec, self.params, c)
        gated_deficit(direct, c)
        assert np.max(np.abs(direct[odd])) < 1e-15

    def test_zero_temperature_continuity(self):
        cold = operator_kron_sum(self.spec, params_for(1e-6), 20)
        frozen = operator_kron_sum(self.spec, params_for(0.0), 20)
        gated_deficit(cold, 20)
        gated_deficit(frozen, 20)
        assert np.max(np.abs(cold - frozen)) < 1e-6

    def test_deficit_shrinks_with_cutoff(self):
        d1 = gated_deficit(operator_kron_sum(self.spec, self.params, 22), 22)
        d2 = gated_deficit(operator_kron_sum(self.spec, self.params, 34), 34)
        assert d2 < d1


class TestCutoffPolicy:
    def test_cutoff_too_small_raises(self):
        spec = BellCatSpec.from_label("phi-plus", 2.0)
        with pytest.raises(CutoffError):
            gated_deficit(operator_kron_sum(spec, params_for(1.0), 8), 8)
        with pytest.raises(CutoffError):
            gated_deficit(direct_kron_sum(spec, params_for(1.0), 8), 8)

    def test_default_cutoff_keeps_deficit_small(self):
        # full matrices at the default cutoff get large at T = 1 K; the trace
        # of a Kronecker sum factorizes, so check the deficit via mode blocks
        from bellcat.series import default_cat_cap
        from bellcat.density import thermal_levels

        for temp in (0.0, 0.3, 1.0):
            spec = BellCatSpec.from_label("psi-plus", 1 + 1j)
            params = params_for(temp)
            cutoff = default_cat_cap(spec, params) + thermal_levels(params, 1e-9)
            weights, b1, b2 = operator_terms(spec, params, cutoff)
            trace = sum(weights[s, t] * np.trace(b1[s][t]) * np.trace(b2[s][t])
                        for s in (0, 1) for t in (0, 1))
            assert abs(1.0 - trace.real) < 1e-6
