"""The bellcat benchmark: one workload, one process, every output checked.

    python3 bench/run.py --workload {fig4_sweep,cold_cats,cli_figures} --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is imported from `src/` as it is
in the checkout; nothing is installed.  A run repeats whole rounds of the
workload's operations (see `workloads.py`) and starts another round only
while it is expected to end within `--seconds`; at least one round always
runs.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of `spec.py`; with --trace 1 the run makes one
untraced and one traced round and prints the per-layer metrics.  Lines
before it start with '#' and record the environment, BLAS threads included.
"""

from __future__ import annotations

import os
import sys

# fixed before numpy loads; 1 <= nproc on any box, and on a 2-core Xeon a
# second thread made the largest cold integration no faster and the 2 K one
# slower and less steady
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3

SETUP_CHILD = """
import math, sys
sys.path.insert(0, sys.argv[1])
import bellcat
w = bellcat.wigner_point(bellcat.BellCatSpec.from_label("phi-minus", 1.0),
                         bellcat.thermal_params(0.01, 2 * math.pi * 5.5e9),
                         bellcat.PhasePoint(0.0, 0.0, 0.0, 0.0))
print(repr(w), flush=True)
"""


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(problems: list[str]) -> float:
    """Median wall time from interpreter start to `import bellcat` plus one origin wigner_point."""
    from evaluator import ThermalBellCat

    expected = ThermalBellCat("phi-minus", 1.0, 0.01).origin()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC)], stdout=subprocess.PIPE,
                              text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.communicate()
        try:
            if child.returncode != 0 or abs(float(line) - expected) > 1e-9:
                problems.append(f"setup: origin W = {line.strip()!r}, closed form {expected!r}")
        except ValueError:
            problems.append(f"setup: child printed {line!r}, exit {child.returncode}")
    return statistics.median(times)


@dataclass
class Round:
    """Outcome of one round: timings, operation counts, and what the checks found."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    slice_s: list[float] = field(default_factory=list)
    validate_s: list[float] = field(default_factory=list)
    csv_bytes: int = 0
    sweep_nu: list[float] = field(default_factory=list)


def run_op(bellcat, op, rnd: Round) -> None:
    """Run one operation (timed into rnd.seconds) and check what it returned."""
    from checks import check_slice, check_validate
    from evaluator import FREQ_HZ
    from workloads import run_cli

    omega = 2 * math.pi * FREQ_HZ
    rnd.attempted += op.count
    t0 = time.perf_counter()
    try:
        if op.kind == "sweep":
            spec = bellcat.BellCatSpec.from_label(op.label, op.alpha)
            entries = bellcat.negativity.temperature_sweep(spec, op.temps, omega, omega)
        elif op.kind == "integrate":
            spec = bellcat.BellCatSpec.from_label(op.label, op.alpha)
            params = bellcat.thermal_params(op.temps[0], omega)
            bellcat.negativity.integrate_negativity(spec, params)
        else:
            code, text = run_cli(bellcat, op.argv)
    except bellcat.BellCatError as exc:
        rnd.seconds += time.perf_counter() - t0
        rnd.failed += op.count
        print(f"# failed: {op.describe()}: {type(exc).__name__}: {exc}")
        return
    dt = time.perf_counter() - t0
    rnd.seconds += dt
    print(f"# {dt:8.3f} s  {op.describe()}")

    if op.kind == "sweep":
        bad = [e for e in entries if not e.ok]
        rnd.failed += len(bad)
        for e in bad:
            print(f"# failed: sweep T={e.temperature}: {e.error}")
        rnd.sweep_nu = [e.result.nu for e in entries if e.ok]
    elif op.kind == "integrate":
        pass    # checked from the integration records, after the round
    elif op.argv[0] == "wigner":
        rnd.slice_s.append(dt)
        rnd.csv_bytes += len(text.encode())
        failed, problems = check_slice(text, op.argv[op.argv.index("--state") + 1])
        if failed or code != 0:
            rnd.failed += 1
            print(f"# failed: bellcat {' '.join(op.argv)} (exit {code}): {'; '.join(problems)}")
        else:
            rnd.problems += problems
    elif op.argv[0] == "validate":
        rnd.validate_s.append(dt)
        rnd.problems += check_validate(code, text, op.describe())


def check_integrations(tracer, seed: int, rnd: Round, references: dict, bellcat) -> None:
    import numpy as np

    from checks import check_integration, strictly_monotone
    from reference import config_key
    from workloads import COLD_STATES, COLD_T

    for i, call in enumerate(tracer.integrations):
        spec, params = call["spec"], call["params"]
        key = config_key(spec.label, spec.alpha, params.temperature)
        rng = np.random.default_rng([seed, i])
        rnd.problems += check_integration(call["result"], spec, params, references.get(key), rng,
                                          bellcat.wigner_values)
    if len(rnd.sweep_nu) > 1 and not strictly_monotone(rnd.sweep_nu, rising=False):
        rnd.problems.append(f"fig4 sweep: nu does not fall strictly with T: {rnd.sweep_nu}")
    cold = {}
    for call in tracer.integrations:
        if call["params"].temperature == COLD_T and call["spec"].label in COLD_STATES:
            cold.setdefault(call["spec"].label, {})[abs(call["spec"].alpha)] = call["result"].nu
    for label, by_amp in cold.items():
        if len(by_amp) == 3:
            nus = [by_amp[a] for a in sorted(by_amp)]
            if not strictly_monotone(nus, rising=True):
                rnd.problems.append(f"{label} at 0.01 K: nu does not rise strictly with |alpha|: {nus}")


def run_round(bellcat, ops, targets, seed: int, references: dict):
    from tracing import Tracer

    tracer = Tracer()
    rnd = Round()
    with tracer.installed(targets):
        for op in ops:
            run_op(bellcat, op, rnd)
    check_integrations(tracer, seed, rnd, references, bellcat)
    return rnd, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bellcat" / "__init__.py").is_file():
        print(f"error: no bellcat package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import bellcat
    import bellcat.cli
    import controls
    import reference
    import spec
    import tracing
    import workloads

    print(f"# bench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} bellcat={bellcat.__version__}")
    problems: list[str] = []
    setup_s = measure_setup(problems) if not args.trace else None
    problems += controls.run_controls(bellcat)
    references = reference.load()
    ops = workloads.make_round(args.workload, args.seed)

    rounds: list[Round] = []
    integration_s: list[float] = []
    untraced = tracing.integration_targets(bellcat)
    t_start = time.perf_counter()
    while True:
        rnd, tracer = run_round(bellcat, ops, untraced, args.seed, references)
        rounds.append(rnd)
        integration_s += [c["seconds"] for c in tracer.integrations]
        print(f"# round {len(rounds)}: {rnd.seconds:.3f} s, {rnd.attempted} operations, {rnd.failed} failed")
        elapsed = time.perf_counter() - t_start
        if args.trace or elapsed + rnd.seconds > args.seconds:
            break
    if args.trace:
        rnd, tracer = run_round(bellcat, ops, tracing.layer_targets(bellcat), args.seed, references)
        rounds.append(rnd)
        print(f"# traced round: {rnd.seconds:.3f} s")
        metrics = tracing.layer_metrics(tracer, rnd.csv_bytes, rnd.seconds - rounds[0].seconds)
        integrate_s = tracer.total("negativity.integrate")
        if integrate_s:
            inside = {name: tracer.total(name, parent="negativity.integrate")
                      for name in ("wigner.factorize", "wigner.combine")}
            print(f"# share of integration time ({integrate_s:.3f} s): "
                  f"combine+reduce {(inside['wigner.combine'] + metrics['negativity.reduce_s']) / integrate_s:.3f}, "
                  f"factorize {inside['wigner.factorize'] / integrate_s:.3f}")
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "metrics": metrics})
    else:
        metrics = {
            "wall_s": statistics.median(r.seconds for r in rounds),
            "negativity_s": statistics.median(integration_s),
            "slice_s": statistics.median(s for r in rounds for s in r.slice_s),
            "validate_s": statistics.median(s for r in rounds for s in r.validate_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
    expected = [name for name, *_ in (spec.PER_LAYER if args.trace else spec.END_TO_END)]
    if sorted(metrics) != sorted(expected):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from spec.py's {sorted(expected)}")
    for r in rounds:
        problems += r.problems
    for p in dict.fromkeys(problems):
        print(f"# problem: {p}")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": spec.UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
