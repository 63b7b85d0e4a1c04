"""Checks on every output the workloads produce.

An output that is missing or not finite counts its operation as failed; an
output that is finite but disagrees with the independent evaluator, the
reference nu values or a property the method must have is a problem, and a
run with any problem reports `"correct": false`.
"""

from __future__ import annotations

import math

import numpy as np

from evaluator import ThermalBellCat, hybrid_grid

# 100 x the series' default tail tolerance epsilon = 1e-10: the package's own
# tail guard (_check_tail) lets values through up to this far from the exact sum
VALUE_TOL = 1e-8
NORM_TOL = 1e-3                  # |I+ - I- - 1|, as `bellcat validate` requires
IDENTITY_RTOL = 1e-9             # nu = delta/(1+delta) holds to rounding
CORE_SAMPLES = 64                # integrand nodes drawn near the lobes
EDGE_SAMPLES = 16                # and anywhere on the grid


def parse_slice(text: str) -> tuple[dict[str, str], np.ndarray]:
    """Header fields and the (rows, 5) array of x1, y1, x2, y2, w of a `bellcat wigner` CSV."""
    header: dict[str, str] = {}
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
        elif line and not line.startswith("x1,"):
            rows.append([float(v) for v in line.split(",")])
    data = np.array(rows, dtype=float).reshape(-1, 5)
    return header, data


def check_slice(text: str, state_label: str) -> tuple[bool, list[str]]:
    """(failed, problems) for one slice: every value against the closed form."""
    try:
        header, data = parse_slice(text)
        count = int(header["grid_count"])
        state = ThermalBellCat(header["state"], complex(float(header["alpha_re"]), float(header["alpha_im"])),
                               float(header["temperature_k"]), float(header["freq1_hz"]),
                               float(header["freq2_hz"]))
    except (KeyError, ValueError) as exc:
        return True, [f"unreadable slice CSV: {exc}"]
    nonfinite = int(np.count_nonzero(~np.isfinite(data[:, 4])))
    if nonfinite:
        return True, [f"{nonfinite} of {data.shape[0]} slice values are not finite"]
    problems = []
    if header["state"] != state_label:
        problems.append(f"slice header names state {header['state']}, asked for {state_label}")
    if data.shape[0] != count * count:
        problems.append(f"slice has {data.shape[0]} rows, expected {count * count}")
    err = float(np.max(np.abs(data[:, 4] - state.values(*data[:, :4].T)), initial=0.0))
    if err > VALUE_TOL:
        problems.append(f"slice {header['state']} T={header['temperature_k']}: max |W - closed form| "
                        f"= {err:.3e} > {VALUE_TOL:g}")
    return False, problems


def check_validate(code: int, text: str, command: str) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"{command} exited {code}")
    lines = text.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    passed = [line for line in lines if line.startswith("PASS")]
    problems += [f"validate: {line}" for line in failed]
    if not passed:
        problems.append("validate printed no PASS line")
    return problems


def integrand_nodes(half_width: float, inner_nodes: int, nodes: int, core_radius: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Seeded (4, k) sample of the integration's own nodes: x1, y1 from the inner
    midpoint grid, x2, y2 from the outer Gauss-Legendre grid, mostly near the lobes."""
    inner, _, outer, _ = hybrid_grid(half_width, inner_nodes, nodes)
    picks = []
    for axis in (inner, inner, outer, outer):
        core = np.flatnonzero(np.abs(axis) <= core_radius)
        core = core if core.size else np.arange(axis.size)
        idx = np.concatenate([rng.choice(core, CORE_SAMPLES), rng.integers(0, axis.size, EDGE_SAMPLES)])
        picks.append(axis[idx])
    return np.array(picks)


def check_integration(result, spec, params, reference: dict | None,
                      rng: np.random.Generator, wigner_values) -> list[str]:
    """One integrate_negativity result against the reference nu, the method's
    identities, and the evaluator at sampled nodes of the result's own grid."""
    name = f"{spec.label} alpha={spec.alpha:g} T={params.temperature:g}"
    values = (result.nu, result.delta, result.norm_check)
    if not all(math.isfinite(v) for v in values):
        return [f"{name}: non-finite nu/delta/norm {values}"]
    problems = []
    if abs(result.norm_check - 1.0) > NORM_TOL:
        problems.append(f"{name}: |norm_check - 1| = {abs(result.norm_check - 1.0):.2e} > {NORM_TOL:g}")
    identity = result.delta / (1.0 + result.delta)
    if abs(result.nu - identity) > IDENTITY_RTOL * abs(result.nu):
        problems.append(f"{name}: nu = {result.nu!r} but delta/(1+delta) = {identity!r}")
    if reference is None:
        problems.append(f"{name}: no reference nu (regenerate with python3 bench/reference.py)")
    elif abs(result.nu - reference["nu"]) > reference["tolerance"]:
        problems.append(f"{name}: nu = {result.nu:.8f}, reference {reference['nu']:.8f} "
                        f"+- {reference['tolerance']:.1e}")
    state = ThermalBellCat(spec.label, spec.alpha, params.temperature,
                           params.omega1 / (2 * math.pi), params.omega2 / (2 * math.pi))
    core = math.sqrt(2.0) * abs(spec.alpha) * math.sqrt(1.0 + max(state.n)) + 3.0
    pts = integrand_nodes(result.half_width, result.inner_nodes, result.nodes, core, rng)
    err = float(np.max(np.abs(np.asarray(wigner_values(spec, params, *pts)) - state.values(*pts))))
    if not err <= VALUE_TOL:
        problems.append(f"{name}: integrand at {pts.shape[1]} grid nodes off the closed form by {err:.3e}")
    return problems


def strictly_monotone(values: list[float], rising: bool) -> bool:
    pairs = list(zip(values, values[1:]))
    return all((b > a) if rising else (b < a) for a, b in pairs)
