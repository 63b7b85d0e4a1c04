"""Spans and counts recorded from outside the package.

Each wrapper replaces a public function at the place its callers look it up
(`bellcat.negativity.factorize`, `bellcat.cli.wigner_grid`, ...), so the
package itself is unchanged.  A span records name, parent, start and end; a
layer's self time is its span's duration minus the spans it directly
encloses.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.integrations: list[dict] = []
        self._stack: list[dict] = []

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "id": len(self.spans),
                    "parent": self._stack[-1]["id"] if self._stack else None, "child_s": 0.0}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1]["child_s"] += span["end"] - span["start"]
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Put wrappers on (owner, attribute, span name, hook) targets; absent attributes are skipped."""
        saved = []
        try:
            for owner, attr, name, hook in targets:
                if hasattr(owner, attr):
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def total(self, name: str, parent: str | None = None) -> float:
        """Summed duration of the `name` spans; with `parent`, only those directly inside a `parent` span."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name
                   and (parent is None or (s["parent"] is not None
                                           and self.spans[s["parent"]]["name"] == parent)))

    def self_time(self, name: str) -> float:
        return sum(s["end"] - s["start"] - s["child_s"] for s in self.spans if s["name"] == name)

    def dump(self, path, extra: dict) -> None:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [{"name": s["name"], "id": s["id"], "parent": s["parent"],
                  "start_s": s["start"] - t0, "end_s": s["end"] - t0} for s in self.spans]
        payload = {**extra, "counts": dict(self.counts), "spans": spans}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# hooks: what a call did, read from its arguments and result
# ---------------------------------------------------------------------------


def keep_integration(tracer, span, args, kwargs, result):
    """Keep each integrate_negativity call for the checks and negativity_s."""
    spec, params = args[0], args[1]
    tracer.integrations.append({"spec": spec, "params": params, "result": result,
                                "seconds": span["end"] - span["start"]})
    tracer.counts["negativity.integrations"] += 1
    tracer.counts["negativity.grid_pairs"] += result.inner_nodes ** 2 * result.nodes ** 2


def count_table_terms(tracer, span, args, kwargs, result):
    """points x (cat_cap + 1) x (cat_cap + thermal_cap + 1), both modes."""
    mode1 = args[2] if len(args) > 2 else kwargs["mode1_points"]
    mode2 = args[3] if len(args) > 3 else kwargs["mode2_points"]
    points = np.size(mode1[0]) + np.size(mode2[0])
    trunc = getattr(result, "trunc", None)
    if trunc is not None:
        tracer.counts["wigner.table_terms"] += (
            points * (trunc.cat_cap + 1) * (trunc.cat_cap + trunc.thermal_cap + 1))


def count_combine_pairs(tracer, span, args, kwargs, result):
    """Rows x mode-2 points actually passed to combine_block."""
    fac = args[0]
    rows = args[1] if len(args) > 1 else kwargs.get("rows")
    n1 = fac.m1.shape[1]
    n_rows = n1 if rows is None else np.arange(n1)[rows].size
    tracer.counts["wigner.combine_pairs"] += n_rows * fac.m2.shape[1]


def count_grid(tracer, span, args, kwargs, result):
    values = np.asarray(result.values)
    tracer.counts["wigner.grid_points"] += values.size
    tracer.counts["wigner.nonfinite_values"] += int(np.count_nonzero(~np.isfinite(values)))


def count_oracle_points(tracer, span, args, kwargs, result):
    tracer.counts["wigner.oracle_points"] += np.size(args[1] if len(args) > 1 else kwargs["x"])


def integration_targets(bellcat) -> list:
    """The one wrapper of an untraced run: integrate_negativity, for negativity_s and the checks."""
    return [(bellcat.negativity, "integrate_negativity", "negativity.integrate", keep_integration),
            (bellcat.cli, "integrate_negativity", "negativity.integrate", keep_integration)]


def layer_targets(bellcat) -> list:
    w, c, n = bellcat.wigner, bellcat.cli, bellcat.negativity
    return integration_targets(bellcat) + [
        (n, "factorize", "wigner.factorize", count_table_terms),
        (w, "factorize", "wigner.factorize", count_table_terms),
        (w, "laguerre_envelope_table", "special_fn.laguerre", None),
        (w.ModeFactorization, "combine_block", "wigner.combine", count_combine_pairs),
        (c, "wigner_grid", "wigner.grid", count_grid),
        (c, "cmd_wigner", "cli.wigner", None),
        (c, "cmd_validate", "cli.validate", None),
        (w, "fock_wigner_kernels", "wigner.oracle_kernels", count_oracle_points),
        (w, "mode_thermal_blocks", "density.blocks", None),
        (c, "build_density_operator", "density.build", None),
        (c, "build_density_matrix", "density.build", None),
    ]


def layer_metrics(tracer: Tracer, csv_bytes: int, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    counts = tracer.counts
    factorize_s = tracer.total("wigner.factorize")
    combine_s = tracer.total("wigner.combine")
    return {
        "wigner.factorize_s": factorize_s,
        "special_fn.laguerre_s": tracer.total("special_fn.laguerre"),
        "wigner.table_terms": counts["wigner.table_terms"],
        "wigner.table_terms_per_s": counts["wigner.table_terms"] / factorize_s if factorize_s else 0.0,
        "wigner.combine_s": combine_s,
        "wigner.combine_pairs": counts["wigner.combine_pairs"],
        "wigner.combine_pairs_per_s": counts["wigner.combine_pairs"] / combine_s if combine_s else 0.0,
        "negativity.reduce_s": tracer.self_time("negativity.integrate"),
        "negativity.grid_pairs": counts["negativity.grid_pairs"],
        "negativity.integrations": counts["negativity.integrations"],
        "wigner.grid_s": tracer.total("wigner.grid"),
        "wigner.grid_points": counts["wigner.grid_points"],
        "cli.write_s": tracer.self_time("cli.wigner"),
        "cli.csv_bytes": csv_bytes,
        "wigner.nonfinite_values": counts["wigner.nonfinite_values"],
        "wigner.oracle_kernels_s": tracer.total("wigner.oracle_kernels"),
        "wigner.oracle_points": counts["wigner.oracle_points"],
        "density.build_s": tracer.total("density.build"),
        "density.blocks_s": tracer.total("density.blocks"),
        "trace.overhead_s": overhead_s,
    }
