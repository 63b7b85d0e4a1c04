"""Reference nu values: the independent evaluator integrated on a refined rule.

    python3 bench/reference.py        # rewrites bench/reference_nu.json (~5 min, one core)

For every configuration a workload integrates, the closed form of
`evaluator` is integrated twice on the hybrid rule: once on the package's
default rule (box, outer Gauss-Legendre nodes, inner midpoint density from
`bellcat.negativity.default_*`), once with every parameter refined at once as
in `notes/decisions.md` section 5 (box +2, nodes x1.5, inner density x1.5).
The refined value is the reference; the shift between the two is the
quadrature error of the default rule, and the tolerance is twice that shift
plus 1e-5.  The 1e-5 floor is 20x the largest gap between the series and the
closed form on the same rule (below 5e-7, section 4), so it covers the
series' own truncation, not the quadrature.  No tolerance comes from a value
`bellcat` computed.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_nu.json"
REFINE_BOX = 2.0
REFINE_NODES = 1.5
REFINE_DENSITY = 1.5
TOLERANCE_FLOOR = 1e-5


def config_key(label: str, alpha: complex, temperature: float) -> str:
    alpha = complex(alpha)
    return f"{label} alpha={alpha.real:g}{alpha.imag:+g}i T={temperature:.10g}"


def load() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)["configs"]


def default_rule(label: str, alpha: complex, temperature: float) -> dict:
    """The package's default quadrature rule for this configuration."""
    from bellcat import BellCatSpec, thermal_params
    from bellcat.negativity import default_half_width, default_inner_density, default_nodes
    from evaluator import FREQ_HZ

    spec = BellCatSpec.from_label(label, alpha)
    params = thermal_params(temperature, 2 * math.pi * FREQ_HZ)
    half_width = default_half_width(spec, params)
    density = default_inner_density(spec, params)
    return {"half_width": half_width,
            "nodes": default_nodes(spec, params, half_width),
            "inner_density": density,
            "inner_nodes": math.ceil(2.0 * half_width * density)}


def regenerate() -> dict:
    from evaluator import ThermalBellCat, integrate
    from workloads import integration_configs

    configs = {}
    for label, alpha, temperature in integration_configs():
        t0 = time.perf_counter()
        state = ThermalBellCat(label, alpha, temperature)
        rule = default_rule(label, alpha, temperature)
        coarse = integrate(state, rule["half_width"], rule["inner_nodes"], rule["nodes"])
        half_width = rule["half_width"] + REFINE_BOX
        refined_rule = {"half_width": half_width,
                        "nodes": math.ceil(REFINE_NODES * rule["nodes"]),
                        "inner_nodes": math.ceil(2.0 * half_width * REFINE_DENSITY * rule["inner_density"])}
        fine = integrate(state, refined_rule["half_width"], refined_rule["inner_nodes"], refined_rule["nodes"])
        shift = fine["nu"] - coarse["nu"]
        key = config_key(label, alpha, temperature)
        configs[key] = {
            "state": label, "alpha_re": alpha.real, "alpha_im": alpha.imag, "temperature_k": temperature,
            "nu": fine["nu"],
            "tolerance": 2.0 * abs(shift) + TOLERANCE_FLOOR,
            "refinement_shift": shift,
            "nu_default_rule": coarse["nu"],
            "norm_default_rule": coarse["i_plus"] - coarse["i_minus"],
            "default_rule": rule,
            "refined_rule": refined_rule,
        }
        print(f"{key}: nu = {fine['nu']:.8f}, shift = {shift:+.2e} "
              f"({time.perf_counter() - t0:.0f} s)", flush=True)
    return configs


def main() -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    configs = regenerate()
    payload = {
        "about": "nu of the closed-form evaluator on the refined hybrid rule; regenerate with "
                 "`python3 bench/reference.py`",
        "refinement": {"box_plus": REFINE_BOX, "nodes_times": REFINE_NODES,
                       "inner_density_times": REFINE_DENSITY, "tolerance_floor": TOLERANCE_FLOOR},
        "configs": configs,
    }
    REFERENCE_FILE.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
