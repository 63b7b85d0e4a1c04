"""What the benchmark measures: workloads, metrics, units, directions, bounds.

    python3 bench/spec.py        # rewrites BENCHMARK.json at the repository root

`run.py` prints exactly these metrics, so this file and BENCHMARK.json
cannot drift apart.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RUN_SECONDS = 20

WORKLOADS = [
    ("fig4_sweep", "the paper's Fig. 4 nu(T) for phi-minus, alpha = 1, at 0.01, 1.03 and 2 K of the "
                   "40-point preset: warm points bound by the series tables, the 0.01 K one by the combine"),
    ("cold_cats", "integrate_negativity at 0.01 K, phi-minus and psi-plus, alpha in {1, 1+i, 2}: "
                  "thermal cap 1, so the rank-4 combine and the reduction dominate and the tables barely show"),
    ("cli_figures", "in-process bellcat wigner for fig1-fig3 and warm x1,y1 slices plus bellcat validate: "
                    "tables and oracle on small point sets, almost no combine; the 5 K slice fails"),
]

# (name, unit, better, bound)
# The timing bounds are the widest allowed: on a shared 2-core Xeon the same
# round drifted by 10-15% between runs minutes apart, with CPU time tracking
# wall time.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("negativity_s", "s", "lower", 0.25),
    ("slice_s", "s", "lower", 0.25),
    ("validate_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit, better)
PER_LAYER = [
    ("wigner.factorize_s", "s", "lower"),
    ("special_fn.laguerre_s", "s", "lower"),
    ("wigner.table_terms", "count", "lower"),
    ("wigner.table_terms_per_s", "1/s", "higher"),
    ("wigner.combine_s", "s", "lower"),
    ("wigner.combine_pairs", "count", "lower"),
    ("wigner.combine_pairs_per_s", "1/s", "higher"),
    ("negativity.reduce_s", "s", "lower"),
    ("negativity.grid_pairs", "count", "lower"),
    ("negativity.integrations", "count", "higher"),
    ("wigner.grid_s", "s", "lower"),
    ("wigner.grid_points", "count", "higher"),
    ("cli.write_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("wigner.nonfinite_values", "count", "lower"),
    ("wigner.oracle_kernels_s", "s", "lower"),
    ("wigner.oracle_points", "count", "higher"),
    ("density.build_s", "s", "lower"),
    ("density.blocks_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def main() -> int:
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
