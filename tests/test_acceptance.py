"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned from the criteria themselves.

Criteria 09a and 10 check the low-temperature physics of the model: 09a the
plateau of nu(T) while k_B T <= hbar omega / 5, and 10 the pure-state
dependence of nu on |alpha| at 0.01 K, where the thermal occupation is 3e-12.
Earlier readings of both (a plateau reaching 0.3 K, the paper's amplitude
ordering already at 0.01 K) contradict the model, whose Wigner function the
closed Gaussian form (the production evaluator), the paper's Laguerre series
and the Fock-kernel oracle agree on (criterion 04); notes/decisions.md holds the derivations, the measurements and
what PAPER.md leaves open.  The paper's ordering is checked where it appears,
at 0.1 K, by test_paper_alpha_ordering_holds_at_100mK.
"""

import json
import math

import numpy as np
import pytest

from bellcat.cli import main as cli_main
from bellcat.density import route_gaps
from bellcat.negativity import (
    default_half_width,
    default_inner_density,
    default_nodes,
    integrate_negativity,
    temperature_sweep,
)
from bellcat.oracle import closed_form_zero_temperature, wigner_oracle_values_many
from bellcat.series import series_values, series_values_many
from bellcat.states import STATE_LABELS, BellCatSpec, coherent_overlap_sq
from bellcat.tfd import HBAR, KB, thermal_params
from bellcat.wigner import PhasePoint, SliceDescriptor, wigner_grid, wigner_point, wigner_values

OMEGA = 2 * math.pi * 5.5e9
ALL_LABELS = sorted(STATE_LABELS)
PAPER_LABELS = ("psi-plus", "phi-minus")
PAPER_ALPHAS = (1.0, 1 + 1j, 2.0)
# largest shift of nu at 0.01 K under simultaneous refinement of the former
# 4D grid rule's box, nodes and inner density and both series caps; the
# reduced integral lay within it of the refined values (notes/decisions.md)
NU_REFINEMENT_SHIFT = 5e-4


def params_for(T):
    return thermal_params(T, OMEGA)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared heavy computations
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def negativity_battery():
    """One integration per paper parameter combination and probe temperature."""
    results = {}
    for label in PAPER_LABELS:
        for alpha in PAPER_ALPHAS:
            for temp in (0.01, 1.0, 2.0):
                spec = BellCatSpec.from_label(label, alpha)
                results[(label, alpha, temp)] = integrate_negativity(spec, params_for(temp))
    return results


@pytest.fixture(scope="module")
def phi_minus_sweep():
    """Criterion 9 sweep: phi-minus, alpha = 1, 21 points over [0.01, 2] K."""
    temps = np.linspace(0.01, 2.0, 21)
    spec = BellCatSpec.from_label("phi-minus", 1.0)
    entries = temperature_sweep(spec, temps, OMEGA)
    assert all(entry.ok for entry in entries), [e.error for e in entries if not e.ok]
    return entries


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_coherent_overlap():
    value = coherent_overlap_sq(2.0)
    ok = abs(value * 1e7 - 1.13) < 0.005
    report("01", ok, f"|<a|-a>|^2 at a=2 is {value:.3e} (want 1.13e-7 to 3 s.f.)")
    assert ok


def test_criterion_02_bogoliubov_identity():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(200):
        T = 10.0 ** rng.uniform(-2, 1)
        f = 10.0 ** rng.uniform(math.log10(0.5e9), math.log10(50e9))
        p = thermal_params(T, 2 * math.pi * f, 2 * math.pi * f * rng.uniform(0.5, 2.0))
        worst = max(worst, *(abs(mode.u**2 - mode.v**2 - 1.0) for mode in p.modes))
    ok = worst < 1e-12
    report("02", ok, f"max |u^2 - v^2 - 1| = {worst:.2e} over 200 samples")
    assert ok


def test_criterion_03_density_oracle_equivalence():
    # entrywise equality of the element-formula and operator routes is
    # cutoff-independent (both truncate identically), so the battery runs at
    # cutoff 30 with the trace gate off; the gate itself is covered in
    # tests/test_density.py.  route_gaps bounds the routes' max entrywise
    # difference from their per-mode factors.
    worst = 0.0
    for label in ALL_LABELS:
        for alpha in PAPER_ALPHAS:
            for temp in (0.0, 0.3, 1.0):
                spec = BellCatSpec.from_label(label, alpha)
                params = params_for(temp)
                worst = max(worst, route_gaps([spec], params, 30, enforce_trace_limit=False)[0])
    ok = worst < 1e-10
    report("03", ok, f"bound on max entrywise |direct - operator| = {worst:.2e} over 36 configs, cutoff 30")
    assert ok


def test_criterion_04_wigner_series_vs_kernel_oracle():
    # three routes at the same points, the series and the oracle each taking the
    # four states of an (alpha, T) in one call, which shares one set of oracle
    # kernels: the production Gaussian form, the paper's Laguerre series and the
    # Fock-kernel oracle, every pair within 1e-8
    rng = np.random.default_rng(48151623)
    worst = {"gaussian-oracle": 0.0, "series-oracle": 0.0, "gaussian-series": 0.0}
    for alpha in (1.0, 1 + 1j):
        for temp in (0.0, 1.0):
            params = params_for(temp)
            box = math.sqrt(2.0) * abs(alpha) * max(mode.u for mode in params.modes) + 2.0
            pts = rng.uniform(-box, box, size=(4, 50))
            specs = [BellCatSpec.from_label(label, alpha) for label in ALL_LABELS]
            for spec, series, oracle in zip(specs, series_values_many(specs, params, *pts),
                                            wigner_oracle_values_many(specs, params, *pts)):
                gaussian = wigner_values(spec, params, *pts)
                for pair, a, b in (("gaussian-oracle", gaussian, oracle), ("series-oracle", series, oracle),
                                   ("gaussian-series", gaussian, series)):
                    worst[pair] = max(worst[pair], float(np.max(np.abs(a - b))))
    ok = max(worst.values()) < 1e-8
    report("04", ok, ", ".join(f"max |{pair.replace('-', ' - ')}| = {value:.2e}" for pair, value in worst.items())
           + " over 16 configs x 50 points")
    assert ok


def test_criterion_05_parity_origin_values():
    worst = 0.0
    params = params_for(0.0)
    origin = PhasePoint(0, 0, 0, 0)
    for label in ALL_LABELS:
        spec = BellCatSpec.from_label(label, 1 + 1j)
        expected = spec.sigma / math.pi**2
        worst = max(worst, abs(wigner_point(spec, params, origin) - expected),
                    abs(wigner_oracle_values_many([spec], params, 0.0, 0.0, 0.0, 0.0)[0][0] - expected))
    ok = worst < 1e-9
    report("05", ok, f"max |W(0) - sigma/pi^2| = {worst:.2e} (Gaussian form and oracle, all states)")
    assert ok


def test_thermal_origin_values_closed_form():
    # Gaussian integral of the Gibbs P-function (Cahill & Glauber) at the
    # origin, derived in notes/decisions.md: with a = |alpha|^2 and mean
    # occupations n_i,
    #   pi^2 W(0) = (e^{-a r} + sigma e^{a r}) / [(1+2n1)(1+2n2)(e^{2a} + sigma e^{-2a})],
    #   r = 1/(1+2n1) + 1/(1+2n2).
    # It reduces to criterion 05 at T = 0 and carries the thermal decay of
    # the central fringe behind criterion 09a.  The production Gaussian form
    # reduces to it at z = 0, so the check runs on the series reference.
    worst = 0.0
    origin = PhasePoint(0, 0, 0, 0)
    for label in ALL_LABELS:
        for alpha in PAPER_ALPHAS:
            spec = BellCatSpec.from_label(label, alpha)
            a = abs(alpha) ** 2
            for temp in (0.05, 0.1, 0.3, 1.0, 2.0):
                for ratio in (1.0, 1.3):
                    omegas = (OMEGA, ratio * OMEGA)
                    n1, n2 = (1.0 / math.expm1(HBAR * w / (KB * temp)) for w in omegas)
                    r = 1.0 / (1.0 + 2.0 * n1) + 1.0 / (1.0 + 2.0 * n2)
                    norm = (1.0 + 2.0 * n1) * (1.0 + 2.0 * n2) * (math.exp(2 * a) + spec.sigma * math.exp(-2 * a))
                    expected = (math.exp(-a * r) + spec.sigma * math.exp(a * r)) / (norm * math.pi**2)
                    got = series_values(spec, thermal_params(temp, *omegas), *([0.0] * 4))[0]
                    worst = max(worst, abs(got - expected))
    ok = worst < 1e-8
    report("05-thermal", ok, f"max |W_series(0) - closed form| = {worst:.2e} over 120 configs, T in [0.05, 2] K")
    assert ok


def test_criterion_06_mode2_flip_symmetry():
    rng = np.random.default_rng(7312)
    pts = rng.uniform(-4, 4, size=(4, 100))
    worst = 0.0
    for label in ("phi-plus", "phi-minus"):
        spec = BellCatSpec.from_label(label, 1 + 1j)
        params = params_for(0.7)
        straight = wigner_values(spec, params, *pts)
        flipped = wigner_values(spec.flipped_mode2(), params, pts[0], pts[1], -pts[2], -pts[3])
        worst = max(worst, float(np.max(np.abs(straight - flipped))))
    ok = worst < 1e-12
    report("06", ok, f"max flip asymmetry = {worst:.2e} on 100-point sample")
    assert ok


def test_criterion_07_normalization(negativity_battery):
    worst = 0.0
    for result in negativity_battery.values():
        worst = max(worst, abs(result.norm_check - 1.0))
    ok = worst < 1e-3
    report("07", ok, f"max |I+ - I- - 1| = {worst:.2e} over {len(negativity_battery)} combinations")
    assert ok


def test_criterion_08_nu_delta_identity(negativity_battery):
    worst = 0.0
    for result in negativity_battery.values():
        worst = max(worst, abs(result.nu - result.delta / (1.0 + result.delta)) / result.nu)
    ok = worst < 1e-6
    report("08", ok, f"max relative |nu - delta/(1+delta)| = {worst:.2e}")
    assert ok


def test_criterion_09a_plateau_to_300mK(phi_minus_sweep):
    # nu(T) is flat only while k_B T << hbar omega.  At 5.5 GHz
    # hbar omega / k_B = 0.264 K, so the mean occupation at 0.3 K is already
    # 0.71 and nu has fallen to 21% of its cold value; the series gives the
    # same fall, and test_thermal_origin_values_closed_form pins it to the
    # closed form that the production Gaussian evaluator reduces to.  The
    # plateau is checked up to T_p = hbar omega / (5 k_B) = 52.8 mK
    # (occupation 0.0068), on sweep points of its own because the shared sweep
    # has none between 0.01 K and 0.11 K.  The name keeps the criterion's id;
    # see notes/decisions.md.
    t_plateau = HBAR * OMEGA / (5.0 * KB)
    spec = BellCatSpec.from_label("phi-minus", 1.0)
    entries = temperature_sweep(spec, np.linspace(0.01, t_plateau, 5)[1:], OMEGA)
    assert all(entry.ok for entry in entries), [e.error for e in entries if not e.ok]
    base = phi_minus_sweep[0].result.nu
    plateau = [base] + [e.result.nu for e in entries]
    spread = max(plateau) - min(plateau)
    ok = spread <= 0.05 * base
    report("09a", ok, f"nu spread over [0.01, {t_plateau:.4f}] K = {spread:.4f} "
                      f"({spread / base:.1%}) vs 5% of nu(0.01K) = {0.05 * base:.4f}")
    assert ok


def test_criterion_09b_gradual_decrease(phi_minus_sweep):
    tail = [e.result.nu for e in phi_minus_sweep if e.temperature >= 0.3]
    tolerance = 2e-3 * tail[0]
    rises = [b - a for a, b in zip(tail, tail[1:]) if b > a + tolerance]
    ok = not rises
    report("09b", ok, f"nu non-increasing on [0.3, 2] K within {tolerance:.2e} (worst rise {max(rises, default=0.0):.2e})")
    assert ok


def test_criterion_09c_almost_absent_at_2K(phi_minus_sweep):
    cold = phi_minus_sweep[0].result.nu
    hot = phi_minus_sweep[-1].result.nu
    ok = hot < 0.1 * cold
    report("09c", ok, f"nu(2 K) = {hot:.5f} vs 0.1 nu(0.01 K) = {0.1 * cold:.5f}")
    assert ok


def test_criterion_10_alpha_ordering_at_10mK(negativity_battery):
    # At 0.01 K the mean occupation is 3.4e-12, so the state is the pure
    # Bell-Cat state to ~1e-11.  nu depends on |alpha| only (a common phase
    # rotation of both modes is a passive unitary that leaves the Gibbs state
    # unchanged), so alpha = 1+i acts as sqrt(2); in the pure state nu rises
    # with |alpha| for both states.
    # Checked here: the integrand is the pure-state closed form on nodes of
    # the 4D grid that the default_* policies size (box, Gauss-Legendre
    # nodes and inner midpoint density), and nu rises
    # strictly with |alpha| with every gap at least 10x NU_REFINEMENT_SHIFT.
    # The paper's ordering is a finite-temperature effect (larger |alpha|
    # decoheres faster), checked by the companion test below; see
    # notes/decisions.md.
    rng = np.random.default_rng(20100)
    params = params_for(0.01)
    worst = 0.0
    for label in PAPER_LABELS:
        for alpha in PAPER_ALPHAS:
            spec = BellCatSpec.from_label(label, alpha)
            half_width = default_half_width(spec, params)
            inner_nodes = math.ceil(2.0 * half_width * default_inner_density(spec, params))
            step = 2.0 * half_width / inner_nodes
            inner = -half_width + step * (np.arange(inner_nodes) + 0.5)
            outer = half_width * np.polynomial.legendre.leggauss(default_nodes(spec, params, half_width))[0]
            # nodes where the state's mass lies, so the comparison is not vacuous
            reach = math.sqrt(2.0) * abs(alpha) + 3.0
            x1, y1 = rng.choice(inner[np.abs(inner) <= reach], size=(2, 300))
            x2, y2 = rng.choice(outer[np.abs(outer) <= reach], size=(2, 300))
            pure = closed_form_zero_temperature(spec, x1, y1, x2, y2)
            worst = max(worst, float(np.max(np.abs(wigner_values(spec, params, x1, y1, x2, y2) - pure))))
    by_modulus = sorted(PAPER_ALPHAS, key=abs)
    nus = {label: [negativity_battery[(label, alpha, 0.01)].nu for alpha in by_modulus]
           for label in PAPER_LABELS}
    min_gap = min(float(np.min(np.diff(values))) for values in nus.values())
    ok = worst < 1e-9 and min_gap >= 10 * NU_REFINEMENT_SHIFT
    report("10", ok,
           f"at 0.01 K max |W - W_pure| = {worst:.2e} on 6x300 grid-rule nodes; nu by |alpha| = 1, sqrt2, 2: "
           + ", ".join(f"{label} {[f'{v:.4f}' for v in values]}" for label, values in nus.items())
           + f"; min gap {min_gap:.4f} vs 10x refinement shift {10 * NU_REFINEMENT_SHIFT:.4f}")
    assert ok


def test_paper_alpha_ordering_holds_at_100mK():
    # companion to criterion 10: where the curves have separated the paper's
    # orderings appear exactly as stated
    nus = {}
    for label in PAPER_LABELS:
        for alpha in PAPER_ALPHAS:
            spec = BellCatSpec.from_label(label, alpha)
            nus[(label, alpha)] = integrate_negativity(spec, params_for(0.1)).nu
    psi_vals = [nus[("psi-plus", a)] for a in PAPER_ALPHAS]
    phi_vals = [nus[("phi-minus", a)] for a in PAPER_ALPHAS]
    psi_ok = nus[("psi-plus", 1 + 1j)] == max(psi_vals)
    phi_ok = nus[("phi-minus", 1.0)] == max(phi_vals)
    ok = psi_ok and phi_ok
    report("10-companion", ok,
           f"at 0.1 K psi-plus by alpha = {[f'{v:.4f}' for v in psi_vals]}, "
           f"phi-minus = {[f'{v:.4f}' for v in phi_vals]}")
    assert ok


def test_criterion_11_figure_slices():
    # the negative-minimum claim anchors to the phi-minus panel: on the
    # default x1-x2 slice at y=0 the even-parity interference ridge of
    # psi-plus is positive (its negative fringes live on the y1-y2 slice,
    # checked as the complement); the dynamic-range shrink applies to both
    details = []
    ok = True
    default_slice = SliceDescriptor.centered(("x1", "x2"), 6.0, 61)
    for label in PAPER_LABELS:
        spec = BellCatSpec.from_label(label, 1.0)
        cold = wigner_grid(spec, params_for(0.01), default_slice)
        hot = wigner_grid(spec, params_for(10.0), default_slice)
        shrinks = float(np.max(np.abs(hot.values))) < float(np.max(np.abs(cold.values)))
        ok = ok and shrinks
        if label == "phi-minus":
            ok = ok and float(cold.values.min()) < 0
        else:
            y_slice = SliceDescriptor.centered(("y1", "y2"), 6.0, 61)
            cold_y = wigner_grid(spec, params_for(0.01), y_slice)
            ok = ok and float(cold_y.values.min()) < 0
            details.append(f"{label}: min on y1-y2 slice = {cold_y.values.min():.3e}")
        details.append(f"{label}: min(cold x1-x2) = {cold.values.min():.3e}, "
                       f"max|W| {np.max(np.abs(cold.values)):.3e} -> {np.max(np.abs(hot.values)):.3e}")
    report("11", ok, "; ".join(details))
    assert ok


def test_criterion_12_determinism(tmp_path):
    wig = ["wigner", "--grid-count", "15", "--half-width", "5.0", "--temp", "0.3"]
    sweep = ["sweep", "--temp-min", "0.05", "--temp-max", "0.15", "--temp-count", "2"]
    neg = ["negativity", "--temp", "0.05"]

    def run_twice(args, name):
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        return a.read_text(), b.read_text()

    wa, wb = run_twice(wig, "wigner")
    sa, sb = run_twice(sweep, "sweep")
    na, nb = run_twice(neg, "negativity")
    pa, pb = json.loads(na), json.loads(nb)
    pa.pop("runtime_s")
    pb.pop("runtime_s")
    ok = wa == wb and sa == sb and pa == pb
    report("12", ok, "wigner CSV and sweep CSV byte-identical; negativity JSON identical "
                     "on every field except wall-clock runtime_s")
    assert ok
