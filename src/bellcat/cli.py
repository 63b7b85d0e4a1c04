"""Command-line front end: validation suite, grid export, negativity, sweeps.

Units at the boundary: frequencies in Hz, temperatures in kelvin, alpha as two
reals; `_resolve` fills in unset flags once, and `_spec` and `_params` convert
to internal dimensionless quantities.  Arrays go to CSV, scalar summaries to
JSON, so figure reproduction needs no binary tooling.

Exit codes: 0 success, 1 computation or validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__
from .density import route_gaps
from .errors import BellCatError
from .negativity import integrate_negativity, temperature_sweep
from .oracle import closed_form_zero_temperature, wigner_oracle_values_many
from .series import convention_diagnostics, series_values_many
from .states import STATE_LABELS, BellCatSpec
from .tfd import thermal_params
from .wigner import PhasePoint, SliceDescriptor, wigner_grid, wigner_point, wigner_values

_DEFAULT_FREQ = 5.5e9
# most temperatures one sweep takes, about 200 s of integration; checked before the list is made
MAX_SWEEP_TEMPERATURES = 10**6
# the value of each preset-able flag that neither the command line nor a preset sets
_DEFAULTS = {"state": "phi-minus", "alpha_re": 1.0, "alpha_im": 0.0, "temp": 0.01, "freq1": _DEFAULT_FREQ}
_PRESETS = {
    # the published parameter sets: one per figure
    "fig1": {"alpha_re": 1.0, "alpha_im": 0.0, "temp": 0.01},
    "fig2": {"alpha_re": 1.0, "alpha_im": 1.0, "temp": 0.01},
    "fig3": {"alpha_re": 2.0, "alpha_im": 0.0, "temp": 0.01},
    "fig4": {"alpha_re": 1.0, "alpha_im": 0.0,
             "temp_min": 0.01, "temp_max": 2.0, "temp_count": 40},
}

# a negative number, exponent form included; argparse's own pattern (Python 3.11) takes only
# -1 and -1.5, so it read "-1e-05" after a flag as an unknown option instead of the flag's value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellcat",
        description="Thermal Wigner functions and negativity of Bell-Cat states",
    )
    parser.add_argument("--version", action="version", version=f"bellcat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--state", choices=sorted(STATE_LABELS), default=None,
                       help="which Bell-Cat state (default phi-minus)")
        p.add_argument("--alpha-re", type=float, default=None, help="Re(alpha), default 1")
        p.add_argument("--alpha-im", type=float, default=None, help="Im(alpha), default 0")
        p.add_argument("--temp", type=float, default=None, help="temperature in kelvin, default 0.01")
        p.add_argument("--freq1", type=float, default=None, help="mode-1 frequency in Hz (default 5.5e9)")
        p.add_argument("--freq2", type=float, default=None, help="mode-2 frequency in Hz (default freq1)")
        p.add_argument("--preset", choices=sorted(_PRESETS), default=None,
                       help="load a published parameter set; explicit flags still win")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_validate = sub.add_parser("validate", help="run the oracle cross-validation suite")
    p_validate.add_argument("--quick", action="store_true", help="smaller, faster battery")

    p_wigner = sub.add_parser("wigner", help="evaluate a 2D slice of the Wigner function to CSV")
    add_common(p_wigner)
    p_wigner.add_argument("--slice", default="x1,x2", help="the two varying coordinates, e.g. x1,x2")
    p_wigner.add_argument("--grid-count", type=int, default=61, help="points per varying axis (>= 2)")
    p_wigner.add_argument("--half-width", type=float, default=6.0, help="axis half-width")
    for coord in ("x1", "y1", "x2", "y2"):
        p_wigner.add_argument(f"--fix-{coord}", type=float, default=0.0,
                              help=f"fixed value of {coord} when it does not vary")

    p_neg = sub.add_parser("negativity", help="integrate the negativity metrics to JSON")
    add_common(p_neg)

    p_sweep = sub.add_parser("sweep", help="negativity vs temperature to CSV")
    add_common(p_sweep)
    p_sweep.add_argument("--temp-min", type=float, default=None)
    p_sweep.add_argument("--temp-max", type=float, default=None)
    p_sweep.add_argument("--temp-count", type=int, default=None,
                         help=f"number of temperatures, 1 to {MAX_SWEEP_TEMPERATURES} (default 40)")
    # each parser classifies its own arguments, so each gets the pattern
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    # a subcommand's own checks report through its parser, whose usage line names the subcommand
    for p in sub.choices.values():
        p.set_defaults(subparser=p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args returns a fresh namespace and leaves the parser as it was
    return build_parser()


def _resolve(args: argparse.Namespace) -> None:
    """Fill each flag left at its None default from the preset, then `_DEFAULTS`; freq2 falls back to freq1.

    Presets cannot go in through `parse_args(namespace=...)`, whose subparser
    writes its defaults over them, or `set_defaults`, which changes the shared parser.
    """
    for name, value in {**_DEFAULTS, **_PRESETS.get(args.preset, {})}.items():
        if getattr(args, name, None) is None:
            setattr(args, name, value)
    if args.freq2 is None:
        args.freq2 = args.freq1


def _spec(args: argparse.Namespace) -> BellCatSpec:
    return BellCatSpec.from_label(args.state, complex(args.alpha_re, args.alpha_im))


def _params(args: argparse.Namespace):
    return thermal_params(args.temp, 2 * math.pi * args.freq1, 2 * math.pi * args.freq2)


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fmt(value: float) -> str:
    # 17 significant digits: exact float64 round-trip
    return f"{value:.16e}"


def _fmt_all(values) -> list[str]:
    """`_fmt` of each value, in one formatting pass over the whole sequence."""
    values = tuple(values)
    return ("%.16e\n" * len(values) % values).splitlines()


def _csv_lines(columns) -> list[str]:
    """CSV lines of equal-length string columns, one line per row."""
    return list(map(",".join, zip(*columns)))


def cmd_wigner(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    axes = tuple(part.strip() for part in args.slice.split(","))
    if len(axes) != 2:
        parser.error(f"--slice must name two comma-separated coordinates, got {args.slice!r}")
    if args.grid_count < 2:
        parser.error("--grid-count must be >= 2")
    spec, params = _spec(args), _params(args)
    # the axis names are validated by SliceDescriptor
    fixed = {name: getattr(args, f"fix_{name}") for name in ("x1", "y1", "x2", "y2") if name not in axes}
    slice_ = SliceDescriptor.centered(axes, args.half_width, args.grid_count, fixed)
    grid = wigner_grid(spec, params, slice_)

    # axis-major rows: the first axis is constant along a run of n1 rows, the second repeats per run
    a0, a1 = slice_.axes
    n0, n1 = a0.count, a1.count
    column = {name: [_fmt(value)] * (n0 * n1) for name, value in slice_.fixed.items()}
    column[a0.name] = [text for text in _fmt_all(a0.values().tolist()) for _ in range(n1)]
    column[a1.name] = _fmt_all(a1.values().tolist()) * n0
    w = _fmt_all(grid.values.ravel().tolist())

    lines = ["# bellcat-wigner v2",
             f"# state = {args.state}",
             f"# alpha_re = {_fmt(args.alpha_re)}",
             f"# alpha_im = {_fmt(args.alpha_im)}",
             f"# temperature_k = {_fmt(args.temp)}",
             f"# freq1_hz = {_fmt(args.freq1)}",
             f"# freq2_hz = {_fmt(args.freq2)}",
             f"# slice = {axes[0]},{axes[1]}",
             f"# half_width = {_fmt(args.half_width)}",
             f"# grid_count = {args.grid_count}",
             "x1,y1,x2,y2,w"]
    lines += _csv_lines([column["x1"], column["y1"], column["x2"], column["y2"], w])
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_negativity(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    result = integrate_negativity(_spec(args), _params(args))
    payload = {
        "state": args.state,
        "alpha_re": args.alpha_re,
        "alpha_im": args.alpha_im,
        "temperature_k": args.temp,
        "freq1_hz": args.freq1,
        "freq2_hz": args.freq2,
        "delta": result.delta,
        "nu": result.nu,
        "i_plus": result.i_plus,
        "i_minus": result.i_minus,
        "norm_check": result.norm_check,
        "quad": {"nodes": result.nodes, "half_width": result.half_width,
                 "inner_nodes": result.inner_nodes},
        "runtime_s": round(time.perf_counter() - t0, 3),
    }
    _write(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.temp_min is None or args.temp_max is None:
        parser.error("sweep requires --temp-min and --temp-max (or --preset fig4)")
    count = 40 if args.temp_count is None else args.temp_count
    if count < 1:
        parser.error("--temp-count must be >= 1")
    if count > MAX_SWEEP_TEMPERATURES:
        parser.error(f"--temp-count must be <= {MAX_SWEEP_TEMPERATURES}")
    temps = [args.temp_min] if count == 1 else list(np.linspace(args.temp_min, args.temp_max, count))
    entries = temperature_sweep(_spec(args), temps, 2 * math.pi * args.freq1, 2 * math.pi * args.freq2)
    fields = ("delta", "nu", "i_plus", "i_minus", "norm_check")
    columns = [_fmt_all(entry.temperature for entry in entries)]
    columns += [[_fmt(getattr(entry.result, name)) if entry.ok else "nan" for entry in entries]
                for name in fields]
    failed = [entry for entry in entries if not entry.ok]
    for entry in failed:
        print(f"warning: T={entry.temperature} failed: {entry.error}", file=sys.stderr)
    lines = ["temperature_k," + ",".join(fields)] + _csv_lines(columns)
    _write(args.out, "\n".join(lines) + "\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# validation suite
# ---------------------------------------------------------------------------


def _route_config_gaps(labels: list[str], alpha: complex, params, pts: np.ndarray) -> list[float]:
    """max |diff| of Gaussian vs oracle, series vs oracle and Gaussian vs series, over the states at one point set.

    The series and the oracle each take the four states, which share alpha,
    in one call, which builds each mode's tables once, at +alpha, and
    computes one pair of Fock kernels.
    """
    specs = [BellCatSpec.from_label(label, alpha) for label in labels]
    worst = [0.0, 0.0, 0.0]
    for spec, ws, wo in zip(specs, series_values_many(specs, params, *pts),
                            wigner_oracle_values_many(specs, params, *pts)):
        wg = wigner_values(spec, params, *pts)
        for i, (a, b) in enumerate(((wg, wo), (ws, wo), (wg, ws))):
            worst[i] = max(worst[i], float(np.max(np.abs(a - b))))
    return worst


def _run_checks(quick: bool) -> list[tuple[str, bool, str]]:
    """The validation battery, run in report order.

    One seeded generator draws every random point in the order the checks
    run, so each line of the report is the same on every run.
    """
    omega = 2 * math.pi * _DEFAULT_FREQ
    rng = np.random.default_rng(20240811)
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    # density: direct element formula vs operator product
    labels = ["phi-plus", "phi-minus", "psi-plus", "psi-minus"]
    alphas = [1.0] if quick else [1.0, 1 + 1j]
    cutoff = 20 if quick else 30
    worst = max(max(route_gaps([BellCatSpec.from_label(label, alpha) for label in labels],
                               thermal_params(temp, omega), cutoff))
                for alpha in alphas for temp in (0.0, 0.5))
    record("density element formula vs operator product", worst < 1e-10, f"max |diff| <= {worst:.2e}")

    # three routes at the same points: Gaussian (production), series, Fock-kernel oracle;
    # one point set per (alpha, T), shared by the four states
    configs = [(1.0, 0.0)] if quick else [(1.0, 0.0), (1 + 1j, 1.0)]
    npts = 4 if quick else 8
    gaps = []
    for alpha, temp in configs:
        params = thermal_params(temp, omega)
        box = math.sqrt(2.0) * abs(alpha) * max(mode.u for mode in params.modes) + 2.0
        gaps.append(_route_config_gaps(labels, alpha, params, rng.uniform(-box, box, size=(4, npts))))
    names = ("Gaussian vs Fock-kernel oracle", "Laguerre series vs Fock-kernel oracle",
             "Gaussian vs Laguerre series")
    for name, values in zip(names, zip(*gaps)):
        worst = float(np.max(values))
        record(name, worst < 1e-8, f"max |diff| = {worst:.2e}")

    # parity value at the origin
    worst = 0.0
    for label in labels:
        spec = BellCatSpec.from_label(label, 1 + 1j)
        w0 = wigner_point(spec, thermal_params(0.0, omega), PhasePoint(0, 0, 0, 0))
        worst = max(worst, abs(w0 - spec.sigma / math.pi**2))
    record("origin parity value sigma/pi^2 at T=0", worst < 1e-9, f"max |diff| = {worst:.2e}")

    # zero-temperature closed form (coherent-state algebra)
    worst = 0.0
    params = thermal_params(0.0, omega)
    for label in labels:
        spec = BellCatSpec.from_label(label, 1 + 1j)
        cold = rng.uniform(-3.0, 3.0, size=(4, 20))
        worst = max(worst, float(np.max(np.abs(
            wigner_values(spec, params, *cold) - closed_form_zero_temperature(spec, *cold)))))
    record("zero-temperature coherent closed form", worst < 1e-9, f"max |diff| = {worst:.2e}")

    # mode-2 flip symmetry
    pts = rng.uniform(-3.0, 3.0, size=(4, 100))
    spec = BellCatSpec.from_label("phi-plus", 1 + 1j)
    params = thermal_params(1.0, omega)
    flipped = wigner_values(spec.flipped_mode2(), params, pts[0], pts[1], -pts[2], -pts[3])
    straight = wigner_values(spec, params, *pts)
    worst = float(np.max(np.abs(straight - flipped)))
    record("mode-2 flip symmetry", worst < 1e-12, f"max |diff| = {worst:.2e}")

    # series convention diagnostics, from one set of tables: the printed variant equals the series'
    # kernel form at reflected positions, and a broken chi convention must trip the residue guard
    printed, reflected, broken = convention_diagnostics(spec, params, *pts)
    worst = float(np.max(np.abs(printed - reflected)))
    record("printed chi/sign variant == kernel at reflected x", worst < 1e-12, f"max |diff| = {worst:.2e}")
    record("broken chi convention trips the residue guard", broken is not None,
           "no error raised" if broken is None else "ImaginaryResidueError raised")

    # negativity: the identity nu = delta/(1+delta), and the closed-form norm to 1e-12
    result = integrate_negativity(BellCatSpec.from_label("phi-minus", 1.0), thermal_params(0.01, omega))
    rel = abs(result.nu - result.delta / (1.0 + result.delta)) / result.nu
    ok = rel < 1e-6 and abs(result.norm_check - 1.0) < 1e-12 and result.nu > 0
    record("negativity: norm and nu = delta/(1+delta)",
           ok, f"nu = {result.nu:.6f}, |norm-1| = {abs(result.norm_check - 1):.2e}, identity rel = {rel:.2e}")
    return checks


def cmd_validate(quick: bool) -> int:
    t0 = time.perf_counter()
    checks = _run_checks(quick)
    width = max(len(name) for name, _, _ in checks)
    print("series convention: chi = x - i y for ket > bra with sign (-1)^(thermal+min); the")
    print("printed variant reproduces the same function at reflected positions x -> -x.")
    print()
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}  {detail}")
    failed = sum(1 for _, ok, _ in checks if not ok)
    print()
    print(f"{len(checks) - failed}/{len(checks)} checks passed in {time.perf_counter() - t0:.1f}s")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.quick)
    _resolve(args)
    try:
        if args.command == "wigner":
            return cmd_wigner(args, args.subparser)
        if args.command == "negativity":
            return cmd_negativity(args)
        return cmd_sweep(args, args.subparser)
    except BellCatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
