import argparse
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bellcat
import bellcat.cli
import bellcat.negativity
import bellcat.oracle
from bellcat.cli import main
from bellcat.errors import NormalizationError
from bellcat.negativity import integrate_negativity
from bellcat.states import STATE_LABELS, BellCatSpec
from bellcat.tfd import HBAR, KB, thermal_params
from bellcat.series import CHI_KERNEL
from bellcat.wigner import SliceDescriptor, wigner_grid

FAST_WIGNER = ["wigner", "--grid-count", "9", "--half-width", "4.0"]


def read(path):
    return path.read_text(encoding="utf-8")


def gaussian_w(label, alpha, temp, x1, y1, x2, y2, freq=5.5e9, freq2=None):
    """W from the P-representation form of notes/decisions.md section 2, term by term.

    W = C^2 sum_{s,t} sigma^{[s<0]+[t<0]} W_B1(z1; s g1, t g1) W_B2(z2; s g2, t g2).
    Each mode's occupation comes from its own frequency in Hz (`freq2` defaults
    to `freq`), not from the package's thermal parameters.  Fine for moderate
    |alpha|; no log-space fold.
    """
    spec = BellCatSpec.from_label(label, alpha)
    n1, n2 = (1.0 / math.expm1(HBAR * 2 * math.pi * f / (KB * temp)) if temp > 0 else 0.0
              for f in (freq, freq if freq2 is None else freq2))
    c2 = math.exp(-2 * abs(alpha) ** 2) / (2 * (1 + spec.sigma * math.exp(-4 * abs(alpha) ** 2)))
    r2 = math.sqrt(2.0)

    def block(z, g, gp, n):
        zc = np.conj(z)
        expo = (-np.abs(z) ** 2 + r2 * g * zc + r2 * np.conj(gp) * z - g * np.conj(gp)
                + (r2 * zc - np.conj(gp)) * (r2 * z - g) * n / (1 + 2 * n))
        return np.exp(expo) / (math.pi * (1 + 2 * n))

    z1, z2 = np.asarray(x1) + 1j * np.asarray(y1), np.asarray(x2) + 1j * np.asarray(y2)
    g1, g2 = alpha / math.sqrt(1 + n1), spec.k * alpha / math.sqrt(1 + n2)
    total = 0
    for s in (1, -1):
        for t in (1, -1):
            weight = spec.sigma ** ((s < 0) + (t < 0))
            total = total + weight * block(z1, s * g1, t * g1, n1) * block(z2, s * g2, t * g2, n2)
    return (c2 * total).real


class TestWignerCommand:
    def test_header_and_columns(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(FAST_WIGNER + ["--state", "phi-minus", "--temp", "0.01", "--out", str(out)]) == 0
        lines = read(out).splitlines()
        assert lines[0] == "# bellcat-wigner v2"
        header_end = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_end] == "x1,y1,x2,y2,w"
        rows = lines[header_end + 1 :]
        assert len(rows) == 81
        first = rows[0].split(",")
        assert len(first) == 5
        # >= 12 significant digits (17 are written, for exact round-trips)
        assert len(first[4].split("e")[0].replace("-", "").replace(".", "")) >= 12
        keys = [line[1:].partition("=")[0].strip() for line in lines[1:header_end]]
        assert keys == ["state", "alpha_re", "alpha_im", "temperature_k", "freq1_hz", "freq2_hz",
                        "slice", "half_width", "grid_count"]

    def test_hot_large_amplitude_slice_is_finite(self, tmp_path):
        # the Laguerre series overflowed here and the command wrote NaN rows
        # with exit 0; the Gaussian form has no overflow at any temperature
        out = tmp_path / "w.csv"
        assert main(["wigner", "--state", "psi-plus", "--alpha-re", "2", "--temp", "5",
                     "--out", str(out)]) == 0
        rows = np.array([[float(v) for v in line.split(",")] for line in read(out).splitlines()
                         if not line.startswith(("#", "x1"))])
        assert rows.shape == (61 * 61, 5)
        assert np.all(np.isfinite(rows))
        want = gaussian_w("psi-plus", 2.0, 5.0, *rows[:, :4].T)
        # values of order 1e-6: compare relative to the slice's peak
        peak = np.max(np.abs(want))
        assert peak > 1e-6
        assert np.max(np.abs(rows[:, 4] - want)) < 1e-12 * peak

    def test_negative_fringes_visible(self, tmp_path):
        out = tmp_path / "w.csv"
        main(FAST_WIGNER + ["--state", "phi-minus", "--temp", "0.01", "--out", str(out)])
        ws = [float(line.split(",")[4]) for line in read(out).splitlines() if not line.startswith(("#", "x1"))]
        assert min(ws) < 0

    def test_fixed_coordinates_repeated(self, tmp_path):
        out = tmp_path / "w.csv"
        main(FAST_WIGNER + ["--fix-y1", "0.5", "--fix-y2", "-0.25", "--out", str(out)])
        rows = [line.split(",") for line in read(out).splitlines() if not line.startswith(("#", "x1"))]
        assert all(float(r[1]) == 0.5 and float(r[3]) == -0.25 for r in rows)

    @pytest.mark.parametrize("axes", list(itertools.permutations(("x1", "y1", "x2", "y2"), 2)))
    def test_rows_match_per_value_writer(self, axes, tmp_path, capsys):
        # the column-wise writer against a transcription of the per-point loop it replaced
        spec = BellCatSpec.from_label("psi-plus", 1 + 0.5j)
        omega = 2 * math.pi * 5.5e9
        params = thermal_params(0.3, omega, omega)
        others = [c for c in ("x1", "y1", "x2", "y2") if c not in axes]
        for count in (2, 7):
            for values in ((-0.0, 1e-300), (1e-300, 123.456), (123.456, -0.0)):
                fixed = dict(zip(others, values))
                argv = ["wigner", "--state", "psi-plus", "--alpha-re", "1", "--alpha-im", "0.5",
                        "--temp", "0.3", "--slice", ",".join(axes), "--grid-count", str(count),
                        "--half-width", "2.5"]
                argv += [arg for name, v in fixed.items() for arg in (f"--fix-{name}", repr(v))]
                out = tmp_path / "w.csv"
                assert main(argv + ["--out", str(out)]) == 0
                assert main(argv) == 0
                assert capsys.readouterr().out == read(out)

                grid = wigner_grid(spec, params, SliceDescriptor.centered(axes, 2.5, count, fixed))
                expected = []
                coords = dict(fixed)
                for i, u in enumerate(grid.axis_values(0)):
                    for j, v in enumerate(grid.axis_values(1)):
                        coords[axes[0]], coords[axes[1]] = float(u), float(v)
                        row = (coords["x1"], coords["y1"], coords["x2"], coords["y2"], float(grid.values[i, j]))
                        expected.append(",".join(f"{x:.16e}" for x in row))
                lines = read(out).splitlines()
                assert lines[10] == "x1,y1,x2,y2,w"
                assert lines[11:] == expected

    def test_small_grid_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["wigner", "--grid-count", "1", "--out", str(tmp_path / "w.csv")])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["wigner", "--does-not-exist", "1"])
        assert exc.value.code == 2

    def test_unknown_state_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["wigner", "--state", "bell"])
        assert exc.value.code == 2

    def test_underflowing_temperature_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert main(FAST_WIGNER + ["--temp", "1e-320", "--out", str(out)]) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("state", ["phi-minus", "psi-minus"])
    def test_underflowing_odd_amplitude_exits_1(self, state, tmp_path, capsys):
        # |alpha|^2 is subnormal at 1e-155 and 1e-160 and underflows to 0 at 1e-200
        out = tmp_path / "w.csv"
        for amplitude in ("1e-155", "1e-160", "1e-200"):
            assert main(FAST_WIGNER + ["--state", state, "--alpha-re", amplitude, "--out", str(out)]) == 1
            assert "DegenerateStateError" in capsys.readouterr().err
            assert not out.exists()

    def test_small_odd_amplitude_is_the_single_photon(self, tmp_path):
        # phi-minus at |alpha| = 1e-50 and T = 0 is one photon in (a1 + a2)/sqrt2:
        # W = (2|z_b|^2 - 1) e^{-|z|^2}/pi^2
        out = tmp_path / "w.csv"
        argv = ["wigner", "--state", "phi-minus", "--alpha-re", "1e-50", "--temp", "0", "--grid-count", "3",
                "--out", str(out)]
        assert main(argv) == 0
        x1, y1, x2, y2, w = np.loadtxt(out, delimiter=",", comments="#", skiprows=11).T
        zb2 = ((x1 + x2) ** 2 + (y1 + y2) ** 2) / 2.0
        exact = (2.0 * zb2 - 1.0) * np.exp(-(x1**2 + y1**2 + x2**2 + y2**2)) / math.pi**2
        assert w.size == 9
        assert np.max(np.abs(w - exact)) <= 1e-15


class TestNegativityCommand:
    def test_json_schema_and_identity(self, tmp_path):
        out = tmp_path / "n.json"
        code = main(["negativity", "--state", "phi-minus", "--temp", "0.01", "--out", str(out)])
        assert code == 0
        payload = json.loads(read(out))
        assert list(payload) == ["state", "alpha_re", "alpha_im", "temperature_k", "freq1_hz",
                                 "freq2_hz", "delta", "nu", "i_plus", "i_minus", "norm_check",
                                 "quad", "runtime_s"]
        assert payload["nu"] > 0
        assert abs(payload["norm_check"] - 1.0) < 1e-3
        assert abs(payload["nu"] - payload["delta"] / (1 + payload["delta"])) < 1e-6 * payload["nu"]
        # the reduced rule: s-nodes, t-nodes per interval, phase-space reach
        direct = integrate_negativity(BellCatSpec.from_label("phi-minus", 1.0),
                                      thermal_params(0.01, 2 * math.pi * 5.5e9))
        assert payload["quad"] == {"nodes": direct.nodes, "half_width": direct.half_width,
                                   "inner_nodes": direct.inner_nodes}

    def test_matches_library_call(self, tmp_path):
        out = tmp_path / "n.json"
        main(["negativity", "--state", "psi-plus", "--temp", "0.05", "--out", str(out)])
        payload = json.loads(read(out))
        direct = integrate_negativity(
            BellCatSpec.from_label("psi-plus", 1.0),
            thermal_params(0.05, 2 * math.pi * 5.5e9),
        )
        assert payload["nu"] == direct.nu
        assert payload["delta"] == direct.delta

    def test_normalization_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # a reach that cuts off the lobes leaves I+ - I- short of 1
        monkeypatch.setattr(bellcat.negativity, "_REACH", 0.5)
        code = main(["negativity", "--state", "phi-minus", "--temp", "2.0",
                     "--out", str(tmp_path / "n.json")])
        assert code == 1
        assert "NormalizationError" in capsys.readouterr().err

    def test_small_odd_amplitude_integrates(self, tmp_path):
        # 1 + sigma e^{-4|alpha|^2} cancels in floating point at alpha = 1e-8; at 1e-150,
        # |alpha|^2 is still a normal float.  0.298798032679059 is the 0.01 K value.
        for amplitude in ("1e-8", "1e-150"):
            out = tmp_path / f"n{amplitude}.json"
            assert main(["negativity", "--state", "phi-minus", "--alpha-re", amplitude, "--out", str(out)]) == 0
            payload = json.loads(read(out))
            assert abs(payload["nu"] - (4 * math.exp(-0.5) - 2) / (4 * math.exp(-0.5) - 1)) < 1e-9
            assert abs(payload["nu"] - 0.298798032679059) < 1e-12

    @pytest.mark.parametrize("state", ["phi-minus", "psi-minus"])
    def test_underflowing_odd_amplitude_exits_1(self, state, tmp_path, capsys):
        # |alpha|^2 is subnormal at 1e-155 and 1e-160 and underflows to 0 at 1e-200
        out = tmp_path / "n.json"
        for amplitude in ("1e-155", "1e-160", "1e-200"):
            assert main(["negativity", "--state", state, "--alpha-re", amplitude, "--out", str(out)]) == 1
            assert "DegenerateStateError" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("base", [["negativity", "--temp", "0.05"],
                                      ["sweep", "--temp-min", "0.05", "--temp-max", "0.1", "--temp-count", "1"]])
    @pytest.mark.parametrize("flag", ["--quad-nodes", "--quad-half-width", "--inner-density"])
    def test_removed_quadrature_flags_are_usage_errors(self, tmp_path, base, flag):
        out = ["--out", str(tmp_path / "out")]
        assert main(base + out) == 0
        with pytest.raises(SystemExit) as exc:
            main(base + [flag, "32"] + out)
        assert exc.value.code == 2


class TestSweepCommand:
    def test_columns_and_consistency(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--state", "phi-minus", "--temp-min", "0.05", "--temp-max", "0.1",
                     "--temp-count", "2", "--out", str(out)])
        assert code == 0
        lines = read(out).splitlines()
        assert lines[0] == "temperature_k,delta,nu,i_plus,i_minus,norm_check"
        assert len(lines) == 3
        temps = [float(line.split(",")[0]) for line in lines[1:]]
        assert temps == sorted(temps)

    def test_single_temperature_matches_negativity(self, tmp_path):
        sweep_out = tmp_path / "s.csv"
        neg_out = tmp_path / "n.json"
        main(["sweep", "--temp-min", "0.05", "--temp-max", "0.05", "--temp-count", "1",
              "--out", str(sweep_out)])
        main(["negativity", "--temp", "0.05", "--out", str(neg_out)])
        row = read(sweep_out).splitlines()[1].split(",")
        payload = json.loads(read(neg_out))
        assert float(row[1]) == pytest.approx(payload["delta"], rel=0, abs=0)
        assert float(row[2]) == pytest.approx(payload["nu"], rel=0, abs=0)

    def test_failed_rows_are_nan_and_exit_1(self, tmp_path, capsys, monkeypatch):
        real = bellcat.negativity.integrate_negativity

        def failing_when_hot(spec, params):
            if params.temperature > 1.0:
                raise NormalizationError("I+ - I- = 0.5")
            return real(spec, params)

        monkeypatch.setattr(bellcat.negativity, "integrate_negativity", failing_when_hot)
        out = tmp_path / "s.csv"
        code = main(["sweep", "--temp-min", "0.05", "--temp-max", "2.0", "--temp-count", "2",
                     "--out", str(out)])
        assert code == 1
        lines = read(out).splitlines()
        assert "nan" in lines[2]

    def test_missing_range_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep"])
        assert exc.value.code == 2

    def test_zero_temp_count_is_usage_error(self, tmp_path, capsys):
        # the sweep's own checks report through its parser, whose usage line names the subcommand
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--temp-min", "0.5", "--temp-max", "2", "--temp-count", "0",
                  "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bellcat sweep ")
        assert err.endswith("bellcat sweep: error: --temp-count must be >= 1\n")

    def test_temp_count_past_the_cap_is_usage_error(self, tmp_path):
        # refused before the temperature list is made: 10**9 of them would be about 8 GB
        argv = ["sweep", "--temp-min", "0.5", "--temp-max", "2",
                "--temp-count", str(bellcat.cli.MAX_SWEEP_TEMPERATURES + 1), "--out", str(tmp_path / "s.csv")]
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        assert elapsed < 0.25
        assert peak < 1e6
        assert not (tmp_path / "s.csv").exists()


def finite_or_clean_error(code, out, err):
    """Exit 0 with finite output, or exit 1 with one `error: <BellCatError subclass>: ...` line and no output."""
    if code == 0:
        text = read(out)
        if text.startswith("{"):
            numbers = [v for v in json.loads(text).values() if isinstance(v, float)]
        else:
            numbers = np.loadtxt(out, delimiter=",", comments="#", skiprows=11).ravel().tolist()
        assert numbers and all(math.isfinite(v) for v in numbers)
        return None
    assert code == 1 and not out.exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    name = err.split(":")[1].strip()
    assert issubclass(getattr(bellcat, name), bellcat.BellCatError)
    return name


class TestOutOfRangeInputs:
    # no traceback and, with warnings raised as errors, no floating-point warning
    def test_slice_past_the_point_cap_exits_1(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert main(["wigner", "--grid-count", "20000", "--slice", "x1,y1", "--out", str(out)]) == 1
        assert "TruncationError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("state", sorted(STATE_LABELS))
    @pytest.mark.parametrize("amplitude", ["1e100", "1e150", "5e153", "1e154", "1.4e154", "1e300",
                                           "1.5e308+1.5e308j"])
    @pytest.mark.parametrize("command", [["negativity"], FAST_WIGNER])
    def test_large_amplitude(self, command, amplitude, state, tmp_path, capsys):
        # up to 1e150 the values are finite (W and nu underflow to 0 at 0.01 K); from 5e153
        # on, 4 |P|^2 overflows and state_constants raises; past the float range |alpha|
        # itself overflows and BellCatSpec raises
        alpha = complex(amplitude)
        imag = ["--alpha-im", repr(alpha.imag)] if alpha.imag else []
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(command + ["--state", state, "--alpha-re", repr(alpha.real), *imag, "--out", str(out)])
        name = finite_or_clean_error(code, out, capsys.readouterr().err)
        assert name == (None if alpha.real <= 1e150 else "NonFiniteError")

    @pytest.mark.parametrize("flags", [["--temp", "1e300"], ["--freq1", "1e-300"]])
    @pytest.mark.parametrize("command", [["negativity"], FAST_WIGNER])
    def test_partition_function_overflow(self, command, flags, tmp_path, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(command + flags + ["--out", str(out)])
        assert finite_or_clean_error(code, out, capsys.readouterr().err) == "NonFiniteError"

    @pytest.mark.parametrize("flags", [["--half-width", "1e200"], ["--fix-y2", "1e160"]])
    def test_huge_coordinates(self, flags, tmp_path, capsys):
        # the squares of the coordinates overflow to inf, and e^{-inf} = 0 is the exact value
        out = tmp_path / "w.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["wigner", "--grid-count", "3", *flags, "--out", str(out)])
        assert finite_or_clean_error(code, out, capsys.readouterr().err) is None
        w = np.loadtxt(out, delimiter=",", comments="#", skiprows=11)[:, 4]
        assert np.count_nonzero(w) == (1 if flags[0] == "--half-width" else 0)

    def test_usage_error_names_the_subcommand(self, capsys):
        # the wigner command's own checks report through its parser, not the top-level one
        with pytest.raises(SystemExit) as exc:
            main(["wigner", "--grid-count", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bellcat wigner ")
        assert err.endswith("bellcat wigner: error: --grid-count must be >= 2\n")

    @pytest.mark.parametrize("width", ["1e308", "inf"])
    def test_axis_span_past_float_range_is_usage_error(self, width, capsys):
        assert main(["wigner", "--grid-count", "3", "--half-width", width]) == 2
        assert capsys.readouterr().err == "usage error: axis span must be finite\n"

    def test_sweep_writes_nan_row_for_overflowing_temperature(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--temp-min", "1", "--temp-max", "1e300", "--temp-count", "2", "--out", str(out)]) == 1
        rows = [line.split(",") for line in read(out).splitlines()[1:]]
        assert all(math.isfinite(float(v)) for v in rows[0])
        assert rows[1][1:] == ["nan"] * 5
        assert "T=1e+300 failed: NonFiniteError" in capsys.readouterr().err


def log_uniform(low_exponent, high_exponent):
    return st.floats(low_exponent, high_exponent).map(lambda exponent: 10.0 ** exponent)


out_of_range_draws = st.fixed_dictionaries({
    "state": st.sampled_from(sorted(STATE_LABELS)),
    "modulus": log_uniform(-300, 300),
    "phase": st.floats(0.0, 2 * math.pi),
    "temps": st.lists(st.one_of(st.just(0.0), log_uniform(-300, 300)), min_size=2, max_size=2),
    "freq1": log_uniform(-300, 300),
    "freq2": log_uniform(-300, 300),
})


def sweep_rows_or_clean_error(code, out, err):
    """A sweep's finite rows, plus for exit 1 a nan row and a `warning: ... <BellCatError subclass>` line per failure.

    Exit 1 without a CSV is `finite_or_clean_error`'s clean error.
    """
    if code == 1 and not out.exists():
        finite_or_clean_error(code, out, err)
        return
    rows = [line.split(",") for line in read(out).splitlines()[1:]]
    failed = [row for row in rows if row[1:] == ["nan"] * 5]
    assert rows and all(math.isfinite(float(v)) for row in rows if row not in failed for v in row)
    assert code == (1 if failed else 0)
    lines = err.splitlines()
    assert len(lines) == len(failed)
    for line in lines:
        assert line.startswith("warning: T=")
        name = line.split(" failed: ")[1].split(":")[0]
        assert issubclass(getattr(bellcat, name), bellcat.BellCatError)


@pytest.mark.parametrize("command", ["wigner", "negativity", "sweep"])
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draw=out_of_range_draws)
def test_random_inputs_end_cleanly_under_warnings_as_errors(command, draw, tmp_path, capsys):
    # |alpha| from 1e-300 to 1e300, T from 0 to 1e300 K, both frequencies from 1e-300 to 1e300 Hz:
    # finite output, or a BellCatError line and exit 1, never a traceback or a floating-point warning;
    # flags go as --flag=value (test_negative_exponent_values_parse_as_separate_arguments checks the other form)
    out = tmp_path / "out"
    out.unlink(missing_ok=True)
    alpha = draw["modulus"] * complex(math.cos(draw["phase"]), math.sin(draw["phase"]))
    low, high = sorted(draw["temps"])
    argv = [command, f"--state={draw['state']}", f"--alpha-re={alpha.real!r}", f"--alpha-im={alpha.imag!r}",
            f"--freq1={draw['freq1']!r}", f"--freq2={draw['freq2']!r}", f"--out={out}"]
    argv += {"wigner": ["--grid-count=3", f"--temp={low!r}"],
             "negativity": [f"--temp={low!r}"],
             "sweep": [f"--temp-min={low!r}", f"--temp-max={high!r}", f"--temp-count={1 + (low < high)}"]}[command]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    err = capsys.readouterr().err
    if command == "sweep":
        sweep_rows_or_clean_error(code, out, err)
    else:
        finite_or_clean_error(code, out, err)


def float_flags() -> list[tuple[str, str]]:
    """(command, flag) of every option that takes a float."""
    parser = bellcat.cli.build_parser()
    commands = next(action.choices for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return [(command, flag) for command, subparser in commands.items()
            for action in subparser._actions if action.type is float for flag in action.option_strings]


@pytest.mark.parametrize("value", ["-1e-05", "-2.5E+3", "-.5e1", "-1.5", "-3"])
@pytest.mark.parametrize("command, flag", float_flags())
def test_negative_exponent_values_parse_as_separate_arguments(command, flag, value):
    # argparse on Python 3.11 reads only -1 and -1.5 as negative numbers, so it took "-1e-05" for an option
    parser = bellcat.cli.build_parser()
    assert parser.parse_args([command, flag, value]) == parser.parse_args([command, f"{flag}={value}"])


@pytest.mark.parametrize("argv", [["--temp", "-1e-05"], ["--temp=-1e-05"]])
def test_negative_temperature_is_usage_error(argv, tmp_path, capsys):
    assert main(["negativity", *argv, "--out", str(tmp_path / "n.json")]) == 2
    assert capsys.readouterr().err == "usage error: temperature must be finite and >= 0 kelvin, got -1e-05\n"


class TestPresets:
    def test_fig4_defines_sweep_range(self, tmp_path):
        # temp-min comes from the preset; the explicit flags trim the hot end
        out = tmp_path / "s.csv"
        code = main(["sweep", "--preset", "fig4", "--temp-max", "0.1", "--temp-count", "2",
                     "--out", str(out)])
        assert code == 0
        lines = read(out).splitlines()
        assert float(lines[1].split(",")[0]) == pytest.approx(0.01)
        assert float(lines[2].split(",")[0]) == pytest.approx(0.1)

    def test_fig2_sets_complex_alpha(self, tmp_path):
        out = tmp_path / "w.csv"
        main(FAST_WIGNER + ["--preset", "fig2", "--out", str(out)])
        text = read(out)
        assert "# alpha_re = 1.0000000000000000e+00" in text
        assert "# alpha_im = 1.0000000000000000e+00" in text

    def test_explicit_flag_overrides_preset(self, tmp_path):
        out = tmp_path / "w.csv"
        main(FAST_WIGNER + ["--preset", "fig3", "--alpha-re", "1.5", "--out", str(out)])
        assert "# alpha_re = 1.5000000000000000e+00" in read(out)


def echoed(preset_argv, key, tmp_path):
    """The value of preset key `key` that a command reports: sweep's temperatures, negativity's JSON otherwise."""
    out = tmp_path / "out"
    if key in ("temp_min", "temp_max", "temp_count"):
        assert main(["sweep", *preset_argv, "--out", str(out)]) == 0
        temps = [float(line.split(",")[0]) for line in read(out).splitlines()[1:]]
        return {"temp_min": temps[0], "temp_max": temps[-1], "temp_count": len(temps)}[key]
    assert main(["negativity", *preset_argv, "--out", str(out)]) == 0
    return json.loads(read(out))["temperature_k" if key == "temp" else key]


PRESET_KEYS = [(preset, key) for preset, values in sorted(bellcat.cli._PRESETS.items()) for key in values]


class TestPresetPrecedence:
    @pytest.mark.parametrize("preset,key", PRESET_KEYS)
    def test_preset_value_unless_flag_given(self, preset, key, tmp_path):
        value = bellcat.cli._PRESETS[preset][key]
        assert echoed(["--preset", preset], key, tmp_path) == value
        # another valid value: 3 temperatures, or the preset's value plus 0.25
        explicit = 3 if key == "temp_count" else value + 0.25
        flag = "--" + key.replace("_", "-")
        assert echoed(["--preset", preset, flag, repr(explicit)], key, tmp_path) == explicit

    @pytest.mark.parametrize("preset", [[], ["--preset", "fig2"]])
    def test_freq1_alone_sets_freq2(self, preset, tmp_path):
        out = tmp_path / "n.json"
        assert main(["negativity", "--freq1", "6e9", "--out", str(out)] + preset) == 0
        payload = json.loads(read(out))
        assert payload["freq1_hz"] == payload["freq2_hz"] == 6e9
        assert main(["negativity", "--freq1", "6e9", "--freq2", "7e9", "--out", str(out)] + preset) == 0
        assert json.loads(read(out))["freq2_hz"] == 7e9


class TestDeterminism:
    def test_wigner_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = FAST_WIGNER + ["--state", "psi-plus", "--temp", "0.3"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert read(a) == read(b)

    def test_sweep_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--temp-min", "0.05", "--temp-max", "0.1", "--temp-count", "2"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert read(a) == read(b)

    def test_negativity_identical_modulo_runtime(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["negativity", "--temp", "0.05"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        pa, pb = json.loads(read(a)), json.loads(read(b))
        pa.pop("runtime_s")
        pb.pop("runtime_s")
        assert pa == pb


class TestParserReuse:
    """`main` parses with one parser per process; no call may leave state for the next."""

    def test_preset_does_not_carry_over(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(FAST_WIGNER + ["--preset", "fig2", "--out", str(out)]) == 0
        assert "# alpha_im = 1.0000000000000000e+00" in read(out)
        assert main(FAST_WIGNER + ["--out", str(out)]) == 0
        assert "# alpha_im = 0.0000000000000000e+00" in read(out)

    @pytest.mark.parametrize("bad", [["--grid-count", "1"], ["--grid-count", "x"], ["--slice", "x1"]])
    def test_usage_error_then_valid_call(self, bad, tmp_path):
        args = FAST_WIGNER + ["--state", "phi-plus", "--temp", "0.2"]
        with pytest.raises(SystemExit) as exc:
            main(args + bad)
        assert exc.value.code == 2
        out = tmp_path / "w.csv"
        assert main(args + ["--out", str(out)]) == 0
        src = os.path.dirname(os.path.dirname(bellcat.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        fresh = subprocess.run([sys.executable, "-m", "bellcat.cli", *args], capture_output=True,
                               env=env, check=True).stdout
        assert out.read_bytes() == fresh


VALIDATE_CHECKS = [
    "density element formula vs operator product",
    "Gaussian vs Fock-kernel oracle",
    "Laguerre series vs Fock-kernel oracle",
    "Gaussian vs Laguerre series",
    "origin parity value sigma/pi^2 at T=0",
    "zero-temperature coherent closed form",
    "mode-2 flip symmetry",
    "printed chi/sign variant == kernel at reflected x",
    "broken chi convention trips the residue guard",
    "negativity: norm and nu = delta/(1+delta)",
]


class TestValidateCommand:
    def test_quick_suite_passes(self, capsys):
        assert main(["validate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "checks passed" in out

    @pytest.mark.parametrize("flags", [[], ["--quick"]])
    def test_every_check_runs_and_passes(self, flags, capsys):
        assert main(["validate"] + flags) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split("  ") for line in lines if line.startswith(("PASS", "FAIL"))]
        assert [row[1].strip() for row in rows] == VALIDATE_CHECKS
        assert [row[0] for row in rows] == ["PASS"] * len(VALIDATE_CHECKS)
        assert lines[-1].startswith(f"{len(VALIDATE_CHECKS)}/{len(VALIDATE_CHECKS)} checks passed in ")

    @pytest.mark.parametrize("runs", [1, 2, 3])
    def test_series_diagnostics_run_on_the_calling_thread(self, runs, capsys, monkeypatch):
        # the battery is one linear pass on the thread that calls main: the diagnostics take
        # the series through its one shared entry, the route configs through its list form,
        # one call per config, and a later run in the same process redoes both
        calls = []

        def spy_on(name):
            route = getattr(bellcat.cli, name)

            def spy(*args, **kwargs):
                calls.append((name, kwargs.get("chi_mode", CHI_KERNEL), threading.current_thread()))
                return route(*args, **kwargs)

            monkeypatch.setattr(bellcat.cli, name, spy)

        spy_on("convention_diagnostics")
        spy_on("series_values_many")
        for _ in range(runs):
            assert main(["validate", "--quick"]) == 0
        assert all(thread is threading.current_thread() for _, _, thread in calls)
        assert [name for name, _, _ in calls if name == "convention_diagnostics"] == ["convention_diagnostics"] * runs
        assert [(name, mode) for name, mode, _ in calls if name == "series_values_many"] == [
            ("series_values_many", CHI_KERNEL)] * runs

    def test_coarse_negativity_rule_fails_the_norm_gate(self, capsys, monkeypatch):
        # 16 tau-nodes move the closed-form total by 2.8e-6, past the 1e-12 gate;
        # the clean rule gives 1.55e-15
        monkeypatch.setattr(bellcat.negativity, "_S_NODES", 16)
        assert main(["validate", "--quick"]) == 1
        rows = [line.split("  ") for line in capsys.readouterr().out.splitlines()
                if line.startswith(("PASS", "FAIL"))]
        assert [row[0] for row in rows] == ["PASS"] * (len(VALIDATE_CHECKS) - 1) + ["FAIL"]
        assert rows[-1][1].strip() == "negativity: norm and nu = delta/(1+delta)"

    @pytest.mark.parametrize("flags, configs, density_calls", [([], 2, 4), (["--quick"], 1, 2)])
    def test_tables_built_once_per_mode_amplitude(self, flags, configs, density_calls, capsys, monkeypatch):
        # at equal frequencies the two modes share one thermal mode, and the four states of a call
        # read every per-mode table at +alpha, so each call builds one; the series builds its Laguerre
        # table once per config and mode point set, and its three convention diagnostics (printed,
        # reflected, broken) share one more set: one contraction table and a Laguerre table per mode
        counts = {}

        def spy_on(module, name):
            builder = getattr(module, name)

            def spy(*args, **kwargs):
                counts[name, module.__name__] = counts.get((name, module.__name__), 0) + 1
                return builder(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)

        spy_on(bellcat.series, "laguerre_envelope_table")
        spy_on(bellcat.series, "_mode_h_tables")
        spy_on(bellcat.oracle, "mode_blocks")
        spy_on(bellcat.density, "mode_blocks")
        spy_on(bellcat.density, "_direct_mode_factors")
        assert main(["validate"] + flags) == 0
        assert counts == {("laguerre_envelope_table", "bellcat.series"): 2 * configs + 2,
                          ("_mode_h_tables", "bellcat.series"): configs + 1,
                          ("mode_blocks", "bellcat.oracle"): configs,
                          ("mode_blocks", "bellcat.density"): density_calls,
                          ("_direct_mode_factors", "bellcat.density"): density_calls}

    @pytest.mark.parametrize("flags, pairs", [([], 2), (["--quick"], 1)])
    def test_one_kernel_pair_per_config(self, flags, pairs, capsys, monkeypatch):
        # the four states of each (alpha, T) config share one point set and one pair of Fock kernels
        cutoffs = []
        fock_wigner_kernels = bellcat.oracle.fock_wigner_kernels

        def spy(nmax, *args, **kwargs):
            cutoffs.append(nmax)
            return fock_wigner_kernels(nmax, *args, **kwargs)

        monkeypatch.setattr(bellcat.oracle, "fock_wigner_kernels", spy)
        assert main(["validate"] + flags) == 0
        assert len(cutoffs) == 2 * pairs
        assert len(set(cutoffs)) == pairs

    @pytest.mark.parametrize("quick, calls, node_points", [(True, 2, 344), (False, 4, 3128)])
    def test_oracle_work_is_pinned(self, quick, calls, node_points, monkeypatch):
        # one trapezoid level per kernel call, sized by the Hermite tail bound: `--quick` runs cutoff 19
        # at 4 points on 45 and 41 s-nodes; the full battery runs cutoff 19 at 8 points on 41 and 44,
        # and cutoff 128 at 8 points on 154 and 152.  A second level or a resized rule changes these
        work = []
        kernel_sum = bellcat.oracle._kernel_sum

        def spy(nmax, x, y, s, weight):
            work.append(s.size * x.size)
            return kernel_sum(nmax, x, y, s, weight)

        monkeypatch.setattr(bellcat.oracle, "_kernel_sum", spy)
        bellcat.cli._run_checks(quick)
        assert (len(work), sum(work)) == (calls, node_points)

    def test_import_does_not_load_thread_pool(self):
        # nothing in the package starts threads, so `import bellcat` need not load a pool
        src = os.path.dirname(os.path.dirname(bellcat.__file__))
        code = "import sys, bellcat; print('concurrent.futures' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True).stdout
        assert out.strip() == "False"
