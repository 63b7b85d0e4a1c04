"""Negative controls for the benchmark's own checks.

    python3 bench/controls.py     # exit 0 when every control is caught

Each control feeds the checks a corrupted copy of a real output and requires
a rejection, after first requiring the untouched output to pass, so that a
control cannot succeed for the wrong reason:

* a nu shifted by 1e-2 from the value the package computes;
* a slice with one value replaced by NaN;
* a slice whose values are the series at reflected x (chi_mode="printed").

`run.py` runs them at the start of every run; a control that slips through
makes the run report `"correct": false`.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SLICE_ARGV = ("wigner", "--preset", "fig2", "--state", "psi-plus", "--fix-y1", "0.3", "--grid-count", "21")
NU_CONFIG = ("phi-minus", 1.0 + 0j, 0.01)


def _replace_w(text: str, new_w) -> str:
    lines = text.splitlines()
    out, i = [], 0
    for line in lines:
        if line.startswith("#") or line.startswith("x1,") or not line:
            out.append(line)
        else:
            fields = line.split(",")
            out.append(",".join(fields[:4] + [new_w(i, fields)]))
            i += 1
    return "\n".join(out) + "\n"


def run_controls(bellcat) -> list[str]:
    """Problems: each control the checks failed to reject, or whose clean copy they rejected."""
    import numpy as np

    from checks import check_integration, check_slice, parse_slice
    from evaluator import FREQ_HZ
    from reference import config_key, load
    from workloads import run_cli

    problems = []

    # slices: clean, NaN, reflected
    code, text = run_cli(bellcat, SLICE_ARGV)
    failed, found = check_slice(text, "psi-plus")
    if code != 0 or failed or found:
        problems.append(f"control slice does not pass clean: exit {code}, {found}")
    nan_text = _replace_w(text, lambda i, f: "nan" if i == 7 else f[4])
    if not check_slice(nan_text, "psi-plus")[0]:
        problems.append("control: a NaN slice value was not counted as failed")
    _, data = parse_slice(text)
    spec = bellcat.BellCatSpec.from_label("psi-plus", 1.0 + 1.0j)
    params = bellcat.thermal_params(0.01, 2 * math.pi * FREQ_HZ)
    printed = bellcat.wigner_values(spec, params, *data[:, :4].T, chi_mode="printed")
    reflected_text = _replace_w(text, lambda i, f: f"{printed[i]:.16e}")
    failed, found = check_slice(reflected_text, "psi-plus")
    if failed or not found:
        problems.append("control: a slice at reflected x (chi_mode='printed') passed the checks")

    # nu: the package's own default-rule value passes, the same shifted by 1e-2 does not
    label, alpha, temperature = NU_CONFIG
    ref = load()[config_key(label, alpha, temperature)]
    rule = ref["default_rule"]
    spec = bellcat.BellCatSpec.from_label(label, alpha)
    params = bellcat.thermal_params(temperature, 2 * math.pi * FREQ_HZ)
    for shift in (0.0, 1e-2):
        nu = ref["nu_default_rule"] + shift
        fake = SimpleNamespace(nu=nu, delta=nu / (1.0 - nu), norm_check=1.0, half_width=rule["half_width"],
                               nodes=rule["nodes"], inner_nodes=rule["inner_nodes"])
        found = check_integration(fake, spec, params, ref, np.random.default_rng(0), bellcat.wigner_values)
        if shift == 0.0 and found:
            problems.append(f"control nu does not pass clean: {found}")
        if shift != 0.0 and not found:
            problems.append("control: a nu shifted by 1e-2 passed the checks")
    return problems


def main() -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    import bellcat
    import bellcat.cli

    problems = run_controls(bellcat)
    for p in problems:
        print(f"FAIL  {p}")
    print("all negative controls caught" if not problems else f"{len(problems)} control(s) not caught")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
