"""Property tests of the production Gaussian evaluator over the whole parameter box.

label x complex alpha (|alpha| <= 3) x T in [0, 20] K x omega2/omega1 in
[0.5, 2], at points spread over the thermally amplified lobes, of the reduced
negativity integral over the same box, and of the two density builds over
label x complex alpha (|alpha| <= 2) x T in [0, 2] K x omega2/omega1 in
[0.5, 2].  Examples are derandomized, so every run checks the same cases.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bellcat.negativity
from bellcat.density import build_density_matrix, build_density_operator
from bellcat.errors import NonFiniteError, TruncationError
from bellcat.negativity import integrate_negativity
from bellcat.series import default_thermal_cap, series_values
from bellcat.states import STATE_LABELS, BellCatSpec
from bellcat.tfd import thermal_params
from bellcat.wigner import default_cat_cap, wigner_values

OMEGA = 2 * math.pi * 5.5e9
# series evaluations above this many table terms per point take seconds each
SERIES_TERM_BUDGET = 30_000

configs = st.fixed_dictionaries({
    "label": st.sampled_from(sorted(STATE_LABELS)),
    "modulus": st.floats(0.05, 3.0),
    "phase": st.floats(0.0, 2 * math.pi),
    "temp": st.one_of(st.just(0.0), st.floats(1e-3, 20.0)),
    "ratio": st.floats(0.5, 2.0),
    "seed": st.integers(0, 2**32 - 1),
})


def setup(cfg, npts=24):
    alpha = cfg["modulus"] * complex(math.cos(cfg["phase"]), math.sin(cfg["phase"]))
    spec = BellCatSpec.from_label(cfg["label"], alpha)
    params = thermal_params(cfg["temp"], OMEGA, cfg["ratio"] * OMEGA)
    box = math.sqrt(2.0) * abs(alpha) * max(params.u1, params.u2) + 2.0
    pts = np.random.default_rng(cfg["seed"]).uniform(-box, box, size=(4, npts))
    return spec, params, pts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(configs)
def test_finite_bounded_and_parity_symmetric(cfg):
    spec, params, pts = setup(cfg)
    w = wigner_values(spec, params, *pts)
    assert np.all(np.isfinite(w))
    # |W| <= 1/pi^2 for any state (Cauchy-Schwarz on the Weyl symbol)
    assert np.max(np.abs(w)) <= (1.0 + 1e-12) / math.pi**2
    # the dressing commutes with the joint parity, so W(-z1, -z2) = W(z1, z2)
    flipped = wigner_values(spec, params, *(-pts))
    assert np.max(np.abs(w - flipped)) <= 1e-15


@settings(max_examples=100, deadline=None, derandomize=True)
@given(configs)
def test_agrees_with_series_where_its_caps_are_feasible(cfg):
    spec, params, pts = setup(cfg, npts=12)
    try:
        cat_cap = default_cat_cap(spec, params)
        thermal_cap = default_thermal_cap(params, 1e-10)
    except TruncationError:
        assume(False)   # beyond the series' hard thermal cap
    assume((cat_cap + 1) * (cat_cap + thermal_cap + 1) <= SERIES_TERM_BUDGET)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            reference = series_values(spec, params, *pts)
    except (TruncationError, NonFiniteError):
        assume(False)   # the series' own tail guard or finite check declined
    # the series' tail guard admits up to 100 x its epsilon = 1e-10
    assert np.max(np.abs(wigner_values(spec, params, *pts) - reference)) <= 1e-8


@settings(max_examples=200, deadline=None, derandomize=True)
@given(configs)
def test_reduced_negativity_is_normalized_and_converged(cfg):
    spec, params, _ = setup(cfg, npts=0)
    result = integrate_negativity(spec, params)
    assert all(math.isfinite(v) for v in (result.nu, result.delta, result.i_plus, result.i_minus))
    assert 0.0 <= result.nu < 1.0
    assert abs(result.norm_check - 1.0) <= 1e-12
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bellcat.negativity, "_S_NODES", 2 * bellcat.negativity._S_NODES)
        mp.setattr(bellcat.negativity, "_T_NODES", 2 * bellcat.negativity._T_NODES)
        doubled = integrate_negativity(spec, params)
    assert abs(doubled.nu - result.nu) <= 1e-12


density_configs = st.fixed_dictionaries({
    "label": st.sampled_from(sorted(STATE_LABELS)),
    "modulus": st.floats(0.05, 2.0),
    "phase": st.floats(0.0, 2 * math.pi),
    "temp": st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
    "ratio": st.floats(0.5, 2.0),
    "cutoff": st.integers(0, 12),
})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(density_configs)
def test_density_builds_agree_at_unequal_frequencies(cfg):
    # each mode carries its own Gibbs factor and amplitude k alpha / u_i; both
    # builds are exact on the truncated space, so no trace gate applies
    alpha = cfg["modulus"] * complex(math.cos(cfg["phase"]), math.sin(cfg["phase"]))
    spec = BellCatSpec.from_label(cfg["label"], alpha)
    params = thermal_params(cfg["temp"], OMEGA, cfg["ratio"] * OMEGA)
    operator = build_density_operator(spec, params, cfg["cutoff"], enforce_trace_limit=False)
    direct = build_density_matrix(spec, params, cfg["cutoff"], enforce_trace_limit=False)
    assert np.max(np.abs(operator.matrix - direct.matrix)) <= 1e-12
