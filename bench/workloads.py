"""The three workloads: which operations one round runs, made from the seed.

Every round of a run repeats the same operations, so the share of failed
operations is the same in every run.  The seed picks the inputs that do not
change the amount of work: the states and fixed coordinates of the slices,
and (in `checks`) the integration nodes that are sampled against the
independent evaluator.  The operations whose cost depends on their inputs
(temperatures, amplitudes, grid sizes) are fixed, so run-to-run spread stays
small whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import numpy as np

from evaluator import STATES

# the `fig4` preset grid, np.linspace(0.01, 2.0, 40); the subset keeps both ends
FIG4_GRID = np.linspace(0.01, 2.0, 40)
FIG4_TEMPS = tuple(float(FIG4_GRID[i]) for i in (0, 20, 39))   # 0.01, 1.03, 2.0 K
COLD_T = 0.01
COLD_AMPLITUDES = (1.0, 1.0 + 1.0j, 2.0)
COLD_STATES = ("phi-minus", "psi-plus")
# (state, alpha, kelvin, grid count) of the single-mode x1,y1 slices.  The
# probe, about 0.13 s with tables and CSV in equal parts, is what slice_s
# measures on every workload.  Every sub-second slice drifts with the host
# from run to run; a 0.6 s probe (phi-minus, alpha = 2, 1 K) spread more
# than this one, as its larger tables are bound by memory bandwidth.
PROBE_SLICE = ("phi-minus", 1.0, 0.5, 61)
# probes per group on the integration workloads: within one process the
# same probe took 0.09-0.16 s, so slice_s needs a dozen or more of them
# under its median to stay steady from run to run
PROBE_GROUP = 4
WARM_2K = ("psi-plus", 1.0 + 1.0j, 2.0, 121)
WARM_1K = ("phi-minus", 2.0, 1.0, 61)
# the series tables overflow here (np.exp in _mode_h_tables) and every value
# comes out NaN with exit code 0; inputs are fixed so the failure is too
FAILING_SLICE = ("wigner", "--state", "psi-plus", "--alpha-re", "2", "--temp", "5")

WORKLOADS = ("fig4_sweep", "cold_cats", "cli_figures")


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    kind is "sweep" (temperature_sweep; one operation per temperature),
    "integrate" (one integrate_negativity call) or "cli" (one in-process
    `bellcat` command whose standard output is captured).
    """

    kind: str
    label: str = ""
    alpha: complex = 0.0
    temps: tuple[float, ...] = ()
    argv: tuple[str, ...] = ()

    @property
    def count(self) -> int:
        return len(self.temps) if self.kind == "sweep" else 1

    def describe(self) -> str:
        if self.kind == "cli":
            return "bellcat " + " ".join(self.argv)
        return f"{self.kind} {self.label} alpha={self.alpha:g} T={','.join(f'{t:.4g}' for t in self.temps)}"


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _alpha_flags(alpha: complex) -> tuple[str, ...]:
    return ("--alpha-re", _fmt(alpha.real), "--alpha-im", _fmt(alpha.imag))


def preset_slice(rng: np.random.Generator, preset: str) -> Op:
    """A fig1-fig3 slice (x1, x2 at 0.01 K), seeded state and fixed y1, y2."""
    label = str(rng.choice(sorted(STATES)))
    y1, y2 = rng.uniform(-0.5, 0.5, size=2)
    return Op("cli", argv=("wigner", "--preset", preset, "--state", label,
                           "--fix-y1", _fmt(y1), "--fix-y2", _fmt(y2)))


def warm_slice(rng: np.random.Generator, label: str, alpha: complex, temp: float, count: int) -> Op:
    """A single-mode x1,y1 slice, seeded fixed x2, y2."""
    x2, y2 = rng.uniform(-1.0, 1.0, size=2)
    return Op("cli", argv=("wigner", "--state", label, *_alpha_flags(complex(alpha)),
                           "--temp", _fmt(temp), "--slice", "x1,y1", "--grid-count", str(count),
                           "--fix-x2", _fmt(x2), "--fix-y2", _fmt(y2)))


def make_round(workload: str, seed: int) -> list[Op]:
    """The operations of one round of `workload`, in the order they run.

    slice_s is the median over groups of probe slices spread through the
    round, so that they do not all catch the same moment of the host.  The
    integration workloads also run `validate --quick`, which gives them
    validate_s.
    """
    rng = np.random.default_rng(seed)

    def probes() -> list[Op]:
        return [warm_slice(rng, *PROBE_SLICE) for _ in range(PROBE_GROUP)]

    validate_quick = Op("cli", argv=("validate", "--quick"))
    if workload == "fig4_sweep":
        return (probes() + [Op("sweep", label="phi-minus", alpha=1.0, temps=FIG4_TEMPS)]
                + probes() + [validate_quick] + probes())
    if workload == "cold_cats":
        ops = []
        for label in COLD_STATES:
            for alpha in COLD_AMPLITUDES:
                ops += [Op("integrate", label=label, alpha=complex(alpha), temps=(COLD_T,)), *probes()]
        return ops + [validate_quick]
    if workload == "cli_figures":
        # ten slices; the median falls on the four probes
        def probe() -> Op:
            return warm_slice(rng, *PROBE_SLICE)

        return [preset_slice(rng, "fig1"), probe(), preset_slice(rng, "fig2"), warm_slice(rng, *WARM_2K),
                probe(), preset_slice(rng, "fig3"), warm_slice(rng, *WARM_1K), probe(),
                Op("cli", argv=FAILING_SLICE), probe(), Op("cli", argv=("validate",))]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def integration_configs() -> list[tuple[str, complex, float]]:
    """Every (state, alpha, kelvin) any workload integrates, validate's included."""
    configs = [("phi-minus", 1.0 + 0j, T) for T in FIG4_TEMPS]
    configs += [(label, complex(alpha), COLD_T) for label in COLD_STATES for alpha in COLD_AMPLITUDES]
    return sorted(set(configs), key=lambda c: (c[0], abs(c[1]), c[1].imag, c[2]))


def run_cli(bellcat, argv: tuple[str, ...]) -> tuple[int, str]:
    """Exit code and captured standard output of one in-process `bellcat` command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = bellcat.cli.main(list(argv))
        except SystemExit as exc:   # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()
