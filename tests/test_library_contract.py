"""Every callable of `bellcat.__all__` returns finite values or raises a `BellCatError`, over the whole float domain.

Drawn, derandomized, with every warning raised as an error: |alpha| from
1e-300 to 1e300 at any phase, T from 0 to 1e300 K, subnormal values
included, each omega from 1e-300 to
1e300 rad/s, phase-space coordinates from -1e300 to 1e300, and grid counts up
to 1e12.  A ValueError passes only where the entry point documents it:
`thermal_params`, and `temperature_sweep` before its first integration, where
a positive k_B T underflows to 0.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bellcat.negativity
from bellcat import (
    KB,
    STATE_LABELS,
    BellCatError,
    BellCatSpec,
    PhasePoint,
    SliceDescriptor,
    TruncationError,
    integrate_negativity,
    temperature_sweep,
    thermal_params,
    wigner_grid,
    wigner_point,
    wigner_values,
)
from bellcat.wigner import HARD_GRID_POINTS

pytestmark = pytest.mark.filterwarnings("error")

EXAMPLES = settings(max_examples=200, deadline=None, derandomize=True)
UNDERFLOW = "underflows"


def log_uniform(low: int, high: int):
    """10**e for e uniform in [low, high], beside hypothesis' own floats of that range, edges included."""
    return st.floats(low, high).map(lambda e: 10.0 ** e) | st.floats(10.0 ** low, 10.0 ** high)


moduli = log_uniform(-300, 300)
phases = st.floats(-math.pi, math.pi)
# 10**-324 rounds to 0, and the exponents just above it give the subnormal temperatures
temperatures = st.just(0.0) | log_uniform(-324, 300)
frequencies = log_uniform(-300, 300)
coordinates = st.floats(-1e300, 1e300) | st.floats(-10.0, 10.0)
labels = st.sampled_from(sorted(STATE_LABELS))


def underflows(temperature: float) -> bool:
    return temperature > 0.0 and KB * temperature == 0.0


def spec_or_none(label: str, modulus: float, phase: float) -> BellCatSpec | None:
    try:
        return BellCatSpec.from_label(label, modulus * complex(math.cos(phase), math.sin(phase)))
    except BellCatError:
        return None


def params_or_none(temperature: float, omega1: float, omega2: float):
    try:
        return thermal_params(temperature, omega1, omega2)
    except BellCatError:
        return None
    except ValueError as exc:
        assert underflows(temperature) and UNDERFLOW in str(exc)
        return None


states = st.builds(spec_or_none, labels, moduli, phases).filter(lambda spec: spec is not None)
thermal = st.builds(params_or_none, temperatures, frequencies, frequencies).filter(lambda p: p is not None)


def finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(value, dtype=float))) for value in values)


@EXAMPLES
@given(labels, moduli, phases)
def test_from_label(label, modulus, phase):
    alpha = modulus * complex(math.cos(phase), math.sin(phase))
    try:
        spec = BellCatSpec.from_label(label, alpha)
    except BellCatError:
        return
    assert finite(spec.alpha.real, spec.alpha.imag, spec.parity_overlap) and spec.parity_overlap > 0.0


@EXAMPLES
@given(temperatures, frequencies, frequencies)
def test_thermal_params(temperature, omega1, omega2):
    try:
        params = thermal_params(temperature, omega1, omega2)
    except BellCatError:
        return
    except ValueError as exc:
        assert underflows(temperature) and UNDERFLOW in str(exc)
        return
    assert finite(params.z, *(value for mode in params.modes for value in mode))


@EXAMPLES
@given(states, thermal, st.lists(st.tuples(coordinates, coordinates, coordinates, coordinates), min_size=1, max_size=4))
def test_wigner_values(spec, params, points):
    try:
        values = wigner_values(spec, params, *np.array(points).T)
    except BellCatError:
        return
    assert values.shape == (len(points),) and finite(values)


@EXAMPLES
@given(states, thermal, coordinates, coordinates, coordinates, coordinates)
def test_wigner_point(spec, params, x1, y1, x2, y2):
    try:
        value = wigner_point(spec, params, PhasePoint(x1, y1, x2, y2))
    except BellCatError:
        return
    assert finite(value)


AXES = [("x1", "y1"), ("x1", "x2"), ("y1", "y2"), ("x2", "y2")]


@EXAMPLES
@given(states, thermal, st.sampled_from(AXES), log_uniform(-300, 300), st.integers(2, 10**12))
def test_wigner_grid(spec, params, axes, half_width, count):
    slice_ = SliceDescriptor.centered(axes, half_width, count)
    if count * count > HARD_GRID_POINTS:
        # refused before any table is built
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(TruncationError, match=f"hard cap of {HARD_GRID_POINTS} points"):
                wigner_grid(spec, params, slice_)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.25 and peak < 1e6
        return
    try:
        grid = wigner_grid(spec, params, slice_)
    except BellCatError:
        return
    assert grid.values.shape == (count, count) and finite(grid.values)


@EXAMPLES
@given(states, thermal)
def test_integrate_negativity(spec, params):
    try:
        result = integrate_negativity(spec, params)
    except BellCatError:
        return
    assert finite(result.delta, result.nu, result.i_plus, result.i_minus, result.norm_check, result.half_width)
    assert 0.0 <= result.nu < 1.0


@EXAMPLES
@given(states, st.lists(temperatures, min_size=1, max_size=3, unique=True), frequencies, frequencies)
@example(BellCatSpec.from_label("phi-minus", 1.0), [0.0, 1e-320], 3.5e10, 3.5e10)   # 0 K comes first
def test_temperature_sweep(spec, temps, omega1, omega2):
    temps = sorted(temps)
    integrated = []
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bellcat.negativity, "integrate_negativity",
                          lambda *args: integrated.append(args) or integrate_negativity(*args))
            entries = temperature_sweep(spec, temps, omega1, omega2)
    except ValueError as exc:
        assert integrated == []
        assert not isinstance(exc, BellCatError)
        assert any(underflows(temp) for temp in temps) and UNDERFLOW in str(exc)
        return
    assert [entry.temperature for entry in entries] == temps
    for entry in entries:
        if entry.ok:
            result = entry.result
            assert finite(result.delta, result.nu, result.i_plus, result.i_minus, result.norm_check)
        else:
            assert entry.error.split(":")[0] in {cls.__name__ for cls in all_bellcat_errors()}


def all_bellcat_errors() -> list[type]:
    found, pending = [], [BellCatError]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found
