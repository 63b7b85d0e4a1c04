"""Command-line front end: validation suite, grid export, negativity, sweeps.

Units at the boundary: frequencies in Hz, temperatures in kelvin, alpha as two
reals; conversion to internal dimensionless quantities happens exactly once,
in config resolution.  Arrays go to CSV, scalar summaries to JSON, so figure
reproduction needs no binary tooling.

Exit codes: 0 success, 1 computation or validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .density import build_density_matrix, build_density_operator
from .errors import BellCatError, ImaginaryResidueError
from .negativity import integrate_negativity, temperature_sweep
from .series import series_values
from .states import STATE_LABELS, BellCatSpec
from .tfd import thermal_params
from .wigner import (
    CHI_BROKEN,
    CHI_PRINTED,
    PhasePoint,
    SliceDescriptor,
    closed_form_zero_temperature,
    wigner_grid,
    wigner_oracle_values,
    wigner_point,
    wigner_values,
)

_DEFAULT_FREQ = 5.5e9
_PRESETS = {
    # the published parameter sets: one per figure
    "fig1": {"alpha_re": 1.0, "alpha_im": 0.0, "temp": 0.01},
    "fig2": {"alpha_re": 1.0, "alpha_im": 1.0, "temp": 0.01},
    "fig3": {"alpha_re": 2.0, "alpha_im": 0.0, "temp": 0.01},
    "fig4": {"alpha_re": 1.0, "alpha_im": 0.0,
             "temp_min": 0.01, "temp_max": 2.0, "temp_count": 40},
}


@dataclass
class RunConfig:
    state: str
    alpha_re: float
    alpha_im: float
    temp: float
    temp_min: float | None
    temp_max: float | None
    temp_count: int | None
    freq1: float
    freq2: float
    slice_axes: tuple[str, str]
    grid_count: int
    half_width: float
    fixed: dict[str, float]
    out: str | None

    def spec(self) -> BellCatSpec:
        return BellCatSpec.from_label(self.state, complex(self.alpha_re, self.alpha_im))

    def params(self, temperature: float | None = None):
        temp = self.temp if temperature is None else temperature
        return thermal_params(temp, 2 * math.pi * self.freq1, 2 * math.pi * self.freq2)


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
    p_validate.add_argument("--quick", action="store_true", help="smaller battery (~0.1 s instead of 0.5-1 s)")

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
    p_sweep.add_argument("--temp-count", type=int, default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args returns a fresh namespace and leaves the parser as it was
    return build_parser()


def _resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    preset = dict(_PRESETS.get(getattr(args, "preset", None) or "", {}))

    def pick(name: str, fallback):
        explicit = getattr(args, name, None)
        if explicit is not None:
            return explicit
        if name in preset:
            return preset[name]
        return fallback

    slice_raw = getattr(args, "slice", "x1,x2")
    axes = tuple(part.strip() for part in slice_raw.split(","))
    if len(axes) != 2:
        parser.error(f"--slice must name two comma-separated coordinates, got {slice_raw!r}")
    freq1 = pick("freq1", _DEFAULT_FREQ)
    grid_count = getattr(args, "grid_count", 61)
    if grid_count < 2:
        parser.error("--grid-count must be >= 2")
    return RunConfig(
        state=pick("state", "phi-minus"),
        alpha_re=pick("alpha_re", 1.0),
        alpha_im=pick("alpha_im", 0.0),
        temp=pick("temp", 0.01),
        temp_min=pick("temp_min", None),
        temp_max=pick("temp_max", None),
        temp_count=pick("temp_count", None),
        freq1=freq1,
        freq2=pick("freq2", freq1),
        slice_axes=axes,  # validated by SliceDescriptor
        grid_count=grid_count,
        half_width=getattr(args, "half_width", 6.0),
        fixed={c: getattr(args, f"fix_{c}", 0.0) for c in ("x1", "y1", "x2", "y2")},
        out=args.out,
    )


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


def cmd_wigner(cfg: RunConfig) -> int:
    spec = cfg.spec()
    params = cfg.params()
    fixed = {name: cfg.fixed[name] for name in ("x1", "y1", "x2", "y2") if name not in cfg.slice_axes}
    slice_ = SliceDescriptor.centered(cfg.slice_axes, cfg.half_width, cfg.grid_count, fixed)
    grid = wigner_grid(spec, params, slice_)

    # axis-major rows: the first axis is constant along a run of n1 rows, the second repeats per run
    a0, a1 = slice_.axes
    n0, n1 = a0.count, a1.count
    column = {name: [_fmt(value)] * (n0 * n1) for name, value in slice_.fixed.items()}
    column[a0.name] = [text for text in _fmt_all(a0.values().tolist()) for _ in range(n1)]
    column[a1.name] = _fmt_all(a1.values().tolist()) * n0
    w = _fmt_all(grid.values.ravel().tolist())

    lines = ["# bellcat-wigner v2",
             f"# state = {cfg.state}",
             f"# alpha_re = {_fmt(cfg.alpha_re)}",
             f"# alpha_im = {_fmt(cfg.alpha_im)}",
             f"# temperature_k = {_fmt(cfg.temp)}",
             f"# freq1_hz = {_fmt(cfg.freq1)}",
             f"# freq2_hz = {_fmt(cfg.freq2)}",
             f"# slice = {cfg.slice_axes[0]},{cfg.slice_axes[1]}",
             f"# half_width = {_fmt(cfg.half_width)}",
             f"# grid_count = {cfg.grid_count}",
             "x1,y1,x2,y2,w"]
    lines += _csv_lines([column["x1"], column["y1"], column["x2"], column["y2"], w])
    _write(cfg.out, "\n".join(lines) + "\n")
    return 0


def cmd_negativity(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    result = integrate_negativity(cfg.spec(), cfg.params())
    payload = {
        "state": cfg.state,
        "alpha_re": cfg.alpha_re,
        "alpha_im": cfg.alpha_im,
        "temperature_k": cfg.temp,
        "freq1_hz": cfg.freq1,
        "freq2_hz": cfg.freq2,
        "delta": result.delta,
        "nu": result.nu,
        "i_plus": result.i_plus,
        "i_minus": result.i_minus,
        "norm_check": result.norm_check,
        "quad": {"nodes": result.nodes, "half_width": result.half_width,
                 "inner_nodes": result.inner_nodes},
        "runtime_s": round(time.perf_counter() - t0, 3),
    }
    _write(cfg.out, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_sweep(cfg: RunConfig, parser: argparse.ArgumentParser) -> int:
    if cfg.temp_min is None or cfg.temp_max is None:
        parser.error("sweep requires --temp-min and --temp-max (or --preset fig4)")
    count = 40 if cfg.temp_count is None else cfg.temp_count
    if count < 1:
        parser.error("--temp-count must be >= 1")
    if count == 1:
        temps = [cfg.temp_min]
    else:
        temps = list(np.linspace(cfg.temp_min, cfg.temp_max, count))
    entries = temperature_sweep(cfg.spec(), temps, 2 * math.pi * cfg.freq1, 2 * math.pi * cfg.freq2)
    fields = ("delta", "nu", "i_plus", "i_minus", "norm_check")
    columns = [_fmt_all(entry.temperature for entry in entries)]
    columns += [[_fmt(getattr(entry.result, name)) if entry.ok else "nan" for entry in entries]
                for name in fields]
    failed = [entry for entry in entries if not entry.ok]
    for entry in failed:
        print(f"warning: T={entry.temperature} failed: {entry.error}", file=sys.stderr)
    lines = ["temperature_k," + ",".join(fields)] + _csv_lines(columns)
    _write(cfg.out, "\n".join(lines) + "\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# validation suite
# ---------------------------------------------------------------------------


def _run_checks(quick: bool) -> list[tuple[str, bool, str]]:
    omega = 2 * math.pi * _DEFAULT_FREQ
    rng = np.random.default_rng(20240811)
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    # density: direct element formula vs operator product
    labels = ["phi-plus", "phi-minus", "psi-plus", "psi-minus"]
    alphas = [1.0] if quick else [1.0, 1 + 1j]
    temps = [0.0, 0.5]
    worst = 0.0
    for label in labels:
        for alpha in alphas:
            for temp in temps:
                spec = BellCatSpec.from_label(label, alpha)
                params = thermal_params(temp, omega)
                cutoff = 20 if quick else 30
                op = build_density_operator(spec, params, cutoff)
                di = build_density_matrix(spec, params, cutoff)
                worst = max(worst, float(np.max(np.abs(op.matrix - di.matrix))))
    record("density element formula vs operator product", worst < 1e-10, f"max |diff| = {worst:.2e}")

    # three routes at the same points: Gaussian (production), series, Fock-kernel oracle
    worst = {"Gaussian vs Fock-kernel oracle": 0.0, "Laguerre series vs Fock-kernel oracle": 0.0,
             "Gaussian vs Laguerre series": 0.0}
    configs = [(1.0, 0.0)] if quick else [(1.0, 0.0), (1 + 1j, 1.0)]
    npts = 4 if quick else 8
    for label in labels:
        for alpha, temp in configs:
            spec = BellCatSpec.from_label(label, alpha)
            params = thermal_params(temp, omega)
            box = math.sqrt(2.0) * abs(alpha) * max(params.u1, params.u2) + 2.0
            pts = rng.uniform(-box, box, size=(4, npts))
            wg = wigner_values(spec, params, *pts)
            ws = series_values(spec, params, *pts)
            wo = wigner_oracle_values(spec, params, *pts)
            for name, a, b in (("Gaussian vs Fock-kernel oracle", wg, wo),
                               ("Laguerre series vs Fock-kernel oracle", ws, wo),
                               ("Gaussian vs Laguerre series", wg, ws)):
                worst[name] = max(worst[name], float(np.max(np.abs(a - b))))
    for name, value in worst.items():
        record(name, value < 1e-8, f"max |diff| = {value:.2e}")

    # parity value at the origin
    worst = 0.0
    for label in labels:
        spec = BellCatSpec.from_label(label, 1 + 1j)
        w0 = wigner_point(spec, thermal_params(0.0, omega), PhasePoint(0, 0, 0, 0))
        worst = max(worst, abs(w0 - spec.sigma / math.pi**2))
    record("origin parity value sigma/pi^2 at T=0", worst < 1e-9, f"max |diff| = {worst:.2e}")

    # zero-temperature closed form (coherent-state algebra)
    worst = 0.0
    for label in labels:
        spec = BellCatSpec.from_label(label, 1 + 1j)
        pts = rng.uniform(-3.0, 3.0, size=(4, 20))
        params = thermal_params(0.0, omega)
        worst = max(worst, float(np.max(np.abs(
            wigner_values(spec, params, *pts) - closed_form_zero_temperature(spec, *pts)))))
    record("zero-temperature coherent closed form", worst < 1e-9, f"max |diff| = {worst:.2e}")

    # mode-2 flip symmetry
    spec = BellCatSpec.from_label("phi-plus", 1 + 1j)
    params = thermal_params(1.0, omega)
    pts = rng.uniform(-3.0, 3.0, size=(4, 100))
    flipped = wigner_values(spec.flipped_mode2(), params, pts[0], pts[1], -pts[2], -pts[3])
    straight = wigner_values(spec, params, *pts)
    worst = float(np.max(np.abs(straight - flipped)))
    record("mode-2 flip symmetry", worst < 1e-12, f"max |diff| = {worst:.2e}")

    # series printed-convention diagnosis: equals the series' kernel form at reflected positions
    printed = series_values(spec, params, *pts, chi_mode=CHI_PRINTED)
    reflected = series_values(spec, params, -pts[0], pts[1], -pts[2], pts[3])
    worst = float(np.max(np.abs(printed - reflected)))
    record("printed chi/sign variant == kernel at reflected x", worst < 1e-12, f"max |diff| = {worst:.2e}")

    # negative control: a broken chi convention must trip the series' residue guard
    try:
        series_values(spec, params, *pts[:, :10], chi_mode=CHI_BROKEN)
        record("broken chi convention trips the residue guard", False, "no error raised")
    except ImaginaryResidueError:
        record("broken chi convention trips the residue guard", True, "ImaginaryResidueError raised")

    # negativity identity on one integration
    spec = BellCatSpec.from_label("phi-minus", 1.0)
    result = integrate_negativity(spec, thermal_params(0.01, omega))
    rel = abs(result.nu - result.delta / (1.0 + result.delta)) / result.nu
    ok = rel < 1e-6 and abs(result.norm_check - 1.0) < 1e-3 and result.nu > 0
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
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.quick)
    cfg = _resolve_config(args, parser)
    try:
        if args.command == "wigner":
            return cmd_wigner(cfg)
        if args.command == "negativity":
            return cmd_negativity(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, parser)
    except BellCatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
