"""The benchmark's negative controls and reference nu values, checked against the package as it stands.

`bench/controls.py` imports the package from `src/` and calls it the way the
benchmark does (`bellcat.cli.main`, `BellCatSpec`, `thermal_params` and
`wigner_values` with `chi_mode="printed"`).  Running it here makes a change
that removes or renames one of these names fail the test suite, not only the
benchmark run.  Likewise every nu the benchmark integrates must stay inside
the band of `bench/reference_nu.json`, so a change that moves nu out of it
fails here first.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from bellcat.negativity import integrate_negativity
from bellcat.states import BellCatSpec
from bellcat.tfd import thermal_params

ROOT = Path(__file__).resolve().parents[1]
# the benchmark's mode frequency (bench/evaluator.py FREQ_HZ)
BENCH_FREQ_HZ = 5.5e9


def test_bench_controls_pass():
    proc = subprocess.run([sys.executable, "bench/controls.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


REFERENCES = json.loads((ROOT / "bench" / "reference_nu.json").read_text(encoding="utf-8"))["configs"]


@pytest.mark.parametrize("key", sorted(REFERENCES))
def test_nu_inside_benchmark_reference_band(key):
    ref = REFERENCES[key]
    spec = BellCatSpec.from_label(ref["state"], complex(ref["alpha_re"], ref["alpha_im"]))
    params = thermal_params(ref["temperature_k"], 2 * math.pi * BENCH_FREQ_HZ)
    assert abs(integrate_negativity(spec, params).nu - ref["nu"]) <= ref["tolerance"]
