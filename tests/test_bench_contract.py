"""The benchmark's negative controls run against the package as it stands.

`bench/controls.py` imports the package from `src/` and calls it the way the
benchmark does (`bellcat.cli.main`, `BellCatSpec`, `thermal_params` and
`wigner_values` with `chi_mode="printed"`).  Running it here makes a change
that removes or renames one of these names fail the test suite, not only the
benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_controls_pass():
    proc = subprocess.run([sys.executable, "bench/controls.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
