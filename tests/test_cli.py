import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import bellcat
import bellcat.negativity
from bellcat.cli import main
from bellcat.errors import NormalizationError
from bellcat.negativity import integrate_negativity
from bellcat.states import BellCatSpec
from bellcat.tfd import HBAR, KB, thermal_params
from bellcat.wigner import SliceDescriptor, wigner_grid

FAST_WIGNER = ["wigner", "--grid-count", "9", "--half-width", "4.0"]


def read(path):
    return path.read_text(encoding="utf-8")


def gaussian_w(label, alpha, temp, x1, y1, x2, y2, freq=5.5e9):
    """W from the P-representation form of notes/decisions.md section 2, term by term.

    W = C^2 sum_{s,t} sigma^{[s<0]+[t<0]} W_B1(z1; s g1, t g1) W_B2(z2; s g2, t g2).
    Fine for moderate |alpha|; no log-space fold.
    """
    spec = BellCatSpec.from_label(label, alpha)
    n = 1.0 / math.expm1(HBAR * 2 * math.pi * freq / (KB * temp)) if temp > 0 else 0.0
    c2 = math.exp(-2 * abs(alpha) ** 2) / (2 * (1 + spec.sigma * math.exp(-4 * abs(alpha) ** 2)))
    r2 = math.sqrt(2.0)

    def block(z, g, gp):
        zc = np.conj(z)
        expo = (-np.abs(z) ** 2 + r2 * g * zc + r2 * np.conj(gp) * z - g * np.conj(gp)
                + (r2 * zc - np.conj(gp)) * (r2 * z - g) * n / (1 + 2 * n))
        return np.exp(expo) / (math.pi * (1 + 2 * n))

    z1, z2 = np.asarray(x1) + 1j * np.asarray(y1), np.asarray(x2) + 1j * np.asarray(y2)
    g1, g2 = alpha / math.sqrt(1 + n), spec.k * alpha / math.sqrt(1 + n)
    total = 0
    for s in (1, -1):
        for t in (1, -1):
            weight = spec.sigma ** ((s < 0) + (t < 0))
            total = total + weight * block(z1, s * g1, t * g1) * block(z2, s * g2, t * g2)
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
        # |alpha|^2 = 1e-400 underflows to 0, where the odd state is the null vector
        out = tmp_path / "w.csv"
        assert main(FAST_WIGNER + ["--state", state, "--alpha-re", "1e-200", "--out", str(out)]) == 1
        assert "DegenerateStateError" in capsys.readouterr().err
        assert not out.exists()


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
        # 1 + sigma e^{-4|alpha|^2} cancels in floating point at alpha = 1e-8
        out = tmp_path / "n.json"
        assert main(["negativity", "--state", "phi-minus", "--alpha-re", "1e-8", "--out", str(out)]) == 0
        payload = json.loads(read(out))
        assert abs(payload["nu"] - (4 * math.exp(-0.5) - 2) / (4 * math.exp(-0.5) - 1)) < 1e-9

    @pytest.mark.parametrize("state", ["phi-minus", "psi-minus"])
    def test_underflowing_odd_amplitude_exits_1(self, state, tmp_path, capsys):
        out = tmp_path / "n.json"
        assert main(["negativity", "--state", state, "--alpha-re", "1e-200", "--out", str(out)]) == 1
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

    def test_zero_temp_count_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--temp-min", "0.5", "--temp-max", "2", "--temp-count", "0",
                  "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2


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
