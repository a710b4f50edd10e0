import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import wva
from wva import cli
from wva.cli import (
    ConfigError,
    format_number,
    load_config_file,
    main,
    read_probe_csv,
    scenario_from_table,
)

DATA = Path(__file__).parent / "data"

AW_RE = "1.7320508075688772"
AW_IM = "3.4641016151377544"


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert format_number(0.1942307692307) == "0.194230769231"
        assert format_number(1.0) == "1"
        assert format_number(0.0) == "0"
        assert format_number(-0.0) == "0"

    def test_scientific_windows(self):
        assert format_number(5e-4) == "5.00000000000e-04"
        assert format_number(1.5e7) == "1.50000000000e+07"
        assert format_number(999999.5) == "999999.5"
        assert format_number(1e6) == "1.00000000000e+06"
        assert format_number(1e-3) == "0.001"


class TestConfigParsing:
    def test_file_with_comments(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("# a scenario\ng=0.2\naw_re=1.0  # inline comment\nprobe=optimal\n")
        table = load_config_file(str(path))
        config = scenario_from_table(table)
        assert config.coupling == 0.2
        assert config.aw == 1.0 + 0j
        assert config.probe == "optimal"

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("g=0.2\nbogus=1\n")
        with pytest.raises(ConfigError, match="scenario.cfg:2"):
            load_config_file(str(path))

    def test_exactly_one_selection_mode(self):
        with pytest.raises(ConfigError):
            scenario_from_table({"g": "0.1", "probe": "gaussian"})
        with pytest.raises(ConfigError):
            scenario_from_table(
                {"g": "0.1", "aw_re": "1", "chi": "0.2", "varphi": "0.3", "probe": "gaussian"}
            )

    def test_probe_parameter_consistency(self):
        with pytest.raises(ConfigError):
            scenario_from_table({"aw_re": "1", "probe": "smoothed"})
        with pytest.raises(ConfigError):
            scenario_from_table({"aw_re": "1", "probe": "gaussian", "smoothing": "3"})
        with pytest.raises(ConfigError):
            scenario_from_table({"aw_re": "1", "probe": "file"})

    def test_odd_grid_enforced(self):
        with pytest.raises(ConfigError):
            scenario_from_table({"aw_re": "1", "probe": "gaussian", "n_points": "100"})

    def test_round_trip(self, tmp_path):
        table = {
            "g": "0.25",
            "pre": "1,1",
            "post": "(0.6+0j),(0.8+0j)",
            "obs": "1,0;0,-1",
            "probe": "smoothed",
            "smoothing": "50",
            "n_points": "1025",
            "support_m": "2",
            "n_range": "4",
        }
        config = scenario_from_table(table)
        path = tmp_path / "roundtrip.cfg"
        path.write_text(config.to_text())
        reparsed = scenario_from_table(load_config_file(str(path)))
        assert reparsed.to_text() == config.to_text()

    @given(st.data())
    def test_round_trip_property(self, tmp_path_factory, data):
        # A text strategy per field parser, so every row of the table is drawn.
        entries = st.complex_numbers(allow_nan=False, allow_infinity=False)
        vectors = st.lists(entries, min_size=2, max_size=3)
        matrices = st.integers(2, 3).flatmap(
            lambda d: st.lists(st.lists(entries, min_size=d, max_size=d), min_size=1, max_size=3)
        )
        text_for = {
            cli._finite: st.floats(allow_nan=False, allow_infinity=False).map(repr),
            cli._positive: st.floats(0.0, exclude_min=True, allow_infinity=False).map(repr),
            cli._count: st.integers(1, 10**6).map(str),
            cli._odd_count: st.integers(1, 10**6).map(lambda k: str(2 * k + 1)),
            cli._vector: vectors.map(lambda v: ",".join(map(repr, v))),
            cli._matrix: matrices.map(lambda m: ";".join(",".join(map(repr, r)) for r in m)),
            cli._probe_kind: st.sampled_from(cli._PROBE_KINDS),
            cli._text: st.text("abc_./-0123456789", min_size=1, max_size=12),
        }
        table = {f.key: data.draw(text_for[f.parse], label=f.key) for f in cli._FIELDS}
        # One selection mode, and the probe keys only for the probes that take them.
        modes = [("aw_re", "aw_im"), ("chi", "varphi"), ("pre", "post", "obs")]
        chosen = data.draw(st.sampled_from(modes), label="selection")
        dropped = [key for mode in modes if mode != chosen for key in mode]
        for key, kind in (("smoothing", "smoothed"), ("file", "file")):
            if table["probe"] != kind:
                dropped.append(key)
        for key in ("aw_im", "g", "width", "n_points", "support_m", "n_range", "output"):
            if not data.draw(st.booleans(), label=f"set {key}"):
                dropped.append(key)
        for key in dropped:
            table.pop(key, None)
        config = scenario_from_table(table)
        path = tmp_path_factory.mktemp("roundtrip") / "scenario.cfg"
        path.write_text(config.to_text())
        assert scenario_from_table(load_config_file(str(path))).to_text() == config.to_text()

    def test_flags_override_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.cfg"
        path.write_text("g=0.5\naw_re=2\nprobe=gaussian\nwidth=1\n")
        rc = main(["shift", "--config", str(path), "--g", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "g              0.1" in out


class TestShiftCommand:
    def test_gaussian_matches_analytic_column(self, tmp_path):
        out = tmp_path / "row.csv"
        rc = main(
            [
                "shift",
                "--g",
                "0.1",
                "--aw-re",
                "2",
                "--probe",
                "gaussian",
                "--width",
                "1",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        with open(out, newline="") as handle:
            row = list(csv.DictReader(handle))[0]
        assert float(row["delta_q"]) == pytest.approx(0.194230954135, abs=1e-9)
        assert float(row["analytic_delta_q"]) == pytest.approx(0.194230954135, abs=1e-9)
        assert float(row["abs_diff_delta_q"]) < 1e-9

    def test_optimal_reaches_closed_form(self, capsys):
        rc = main(
            ["shift", "--g", "0.1", "--aw-re", AW_RE, "--aw-im", AW_IM, "--probe", "optimal"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.461880215352  analytic 0.461880215352" in out

    def test_zero_real_part_exits_nonzero(self, capsys):
        rc = main(["shift", "--g", "0.1", "--aw-im", "2", "--probe", "optimal"])
        assert rc == 1
        assert "ZeroRealPart" in capsys.readouterr().err

    def test_mach_zehnder_selection(self, capsys):
        rc = main(
            [
                "shift",
                "--g",
                "0.01",
                "--chi",
                str(math.pi / 6),
                "--varphi",
                str(math.pi / 6),
                "--probe",
                "gaussian",
                "--width",
                "1",
            ]
        )
        assert rc == 0
        # C_w = -1/2 so the involutory observable has weak value -2.
        assert "weak_value     -2" in capsys.readouterr().out


class TestDumpCommand:
    def test_golden_regression(self, tmp_path):
        out = tmp_path / "dump.csv"
        rc = main(
            [
                "dump",
                "--g",
                "0.1",
                "--aw-re",
                AW_RE,
                "--aw-im",
                AW_IM,
                "--probe",
                "optimal",
                "--n-points",
                "257",
                "--n-range",
                "8",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        assert out.read_bytes() == (DATA / "golden_dump.csv").read_bytes()

    def test_dump_families_and_peak(self):
        rows = list(csv.DictReader(open(DATA / "golden_dump.csv", newline="")))
        spaces = {row["space"] for row in rows}
        assert spaces == {
            "momentum_initial",
            "momentum_final",
            "position_initial",
            "position_final",
        }
        finals = [row for row in rows if row["space"] == "position_final"]
        values = np.array([complex(float(r["re"]), float(r["im"])) for r in finals])
        positions = np.array([float(r["coordinate"]) for r in finals])
        shift = wva.max_shift(0.1, complex(float(AW_RE), float(AW_IM)))
        peak = positions[int(np.argmax(np.abs(values)))]
        assert peak == positions[int(np.argmin(np.abs(positions - shift)))]

    def test_gaussian_dump_has_continuous_positions(self, tmp_path):
        out = tmp_path / "gdump.csv"
        rc = main(
            [
                "dump",
                "--g",
                "0.1",
                "--aw-re",
                "2",
                "--probe",
                "gaussian",
                "--width",
                "1",
                "--n-points",
                "801",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.DictReader(open(out, newline="")))
        positions = [float(r["coordinate"]) for r in rows if r["space"] == "position_initial"]
        assert len(positions) == 801

    def test_file_probe_roundtrip(self, tmp_path):
        out = tmp_path / "dump.csv"
        rc = main(
            [
                "dump",
                "--g",
                "0.1",
                "--aw-re",
                AW_RE,
                "--aw-im",
                AW_IM,
                "--probe",
                "optimal",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        value = complex(float(AW_RE), float(AW_IM))
        evo = wva.PostSelectedEvolution(0.1, wva.WeakValue.from_value(value))
        direct = wva.shift_report(evo, wva.optimal_probe(0.1, value))
        from_file = wva.shift_report(evo, read_probe_csv(str(out)))
        assert abs(from_file.delta_q - direct.delta_q) < 1e-9
        assert abs(from_file.delta_p - direct.delta_p) < 1e-9


class TestSweepCommand:
    def test_smoothing_sweep_monotone(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep",
                "--axis",
                "smoothing_s",
                "--g",
                "0.1",
                "--aw-re",
                AW_RE,
                "--aw-im",
                AW_IM,
                "--probe",
                "smoothed",
                "--smoothing",
                "10",
                "--values",
                "10,20,50,100,200",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.DictReader(open(out, newline="")))
        reference = float(rows[0]["analytic_delta_q"])
        gaps = [abs(float(r["delta_q"]) - reference) for r in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_per_row_errors_recorded(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep",
                "--axis",
                "postselection_angle",
                "--g",
                "0.1",
                "--pre",
                "1,1",
                "--post",
                "1,0",
                "--obs",
                "1,0;0,-1",
                "--probe",
                "optimal",
                "--start",
                str(3 * math.pi / 4 - 0.2),
                "--stop",
                str(3 * math.pi / 4),
                "--count",
                "3",
                "--output",
                str(out),
            ]
        )
        assert rc == 1  # the final row hits exact orthogonality
        rows = list(csv.DictReader(open(out, newline="")))
        assert rows[-1]["error"] == "OrthogonalSelection"
        assert all(r["error"] == "" for r in rows[:-1])
        assert rows[0]["overlap_times_q_final"] != ""

    def test_grid_sweep_and_determinism(self, tmp_path):
        args = [
            "sweep",
            "--axis",
            "grid_n",
            "--g",
            "0.5",
            "--aw-re",
            "1",
            "--aw-im",
            "1",
            "--probe",
            "gaussian",
            "--width",
            "1",
            "--values",
            "11,21,41",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--output", str(first)]) == 0
        assert main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert b"\r\n" not in first.read_bytes()
        rows = list(csv.DictReader(open(first, newline="")))
        reference = [float(r["analytic_delta_q"]) for r in rows]
        errors = [abs(float(r["delta_q"]) - ref) for r, ref in zip(rows, reference)]
        assert errors[0] / errors[1] >= 8.0


class TestOptimizeCommand:
    def test_trace_and_probe_outputs(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        probe_path = tmp_path / "probe.csv"
        rc = main(
            [
                "optimize",
                "--g",
                "0.1",
                "--aw-re",
                "2",
                "--probe",
                "optimal",
                "--output",
                str(trace_path),
                "--probe-output",
                str(probe_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged      true" in out
        rows = list(csv.DictReader(open(trace_path, newline="")))
        assert float(rows[-1]["objective"]) == pytest.approx(0.125, abs=1e-3 * 0.125)
        # the gauge-fixed probe dump can be re-read as a file probe
        probe = read_probe_csv(str(probe_path))
        target = wva.optimal_probe(0.1, 2.0, n_points=513)
        mismatch = np.max(np.abs(np.abs(probe.values) - np.abs(target.values)))
        assert mismatch < 1e-2 * np.max(np.abs(target.values))

    def test_iteration_budget_of_one(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        rc = main(
            [
                "optimize",
                "--g",
                "0.1",
                "--aw-re",
                "2",
                "--probe",
                "optimal",
                "--max-iters",
                "1",
                "--output",
                str(trace_path),
            ]
        )
        assert rc == 0
        rows = list(csv.DictReader(open(trace_path, newline="")))
        assert len(rows) == 1

    def test_seed_variation(self, capsys):
        finals = []
        for seed in ("1", "2", "3"):
            rc = main(
                [
                    "optimize",
                    "--g",
                    "0.1",
                    "--aw-re",
                    AW_RE,
                    "--aw-im",
                    AW_IM,
                    "--probe",
                    "optimal",
                    "--init",
                    "random",
                    "--seed",
                    seed,
                ]
            )
            assert rc == 0
            for line in capsys.readouterr().out.splitlines():
                if line.startswith("objective"):
                    finals.append(float(line.split()[1]))
        assert max(finals) - min(finals) < 1e-3 * max(finals)


class TestMachZehnderCommand:
    def test_prints_weak_values(self, capsys):
        rc = main(
            ["mach-zehnder", "--chi", str(math.pi / 6), "--varphi", str(math.pi / 6)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "C_w            -0.5 0j" in out
        assert "A_w            -2 0j" in out

    def test_orthogonal_angles_exit_nonzero(self, capsys):
        rc = main(
            ["mach-zehnder", "--chi", str(math.pi / 3), "--varphi", str(math.pi / 6)]
        )
        assert rc == 1
        assert "OrthogonalSelection" in capsys.readouterr().err


def _probe_file(tmp_path, name, rows):
    path = tmp_path / name
    lines = ["space,coordinate,re,im"] + [f"momentum_initial,{q},{re},0" for q, re in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "case",
    [
        "missing_config",
        "missing_probe_file",
        "non_numeric_cell",
        "width_inf",
        "width_nan",
        "smoothing_negative",
        "smoothing_nan",
        "three_samples",
        "four_samples",
    ],
)
def test_bad_input_is_a_config_error(case, tmp_path, capsys):
    file_probe = ["shift", "--aw-re", "2", "--probe", "file", "--file"]
    smoothed = ["shift", "--aw-re", "2", "--probe", "smoothed", "--smoothing"]
    argv = {
        "missing_config": ["shift", "--config", str(tmp_path / "missing.cfg")],
        "missing_probe_file": file_probe + [str(tmp_path / "missing.csv")],
        "non_numeric_cell": file_probe + [_probe_file(tmp_path, "bad.csv", [(0, "abc")])],
        "width_inf": ["shift", "--aw-re", "2", "--width", "inf"],
        "width_nan": ["shift", "--aw-re", "2", "--width", "nan"],
        "smoothing_negative": smoothed + ["-1"],
        "smoothing_nan": smoothed + ["nan"],
        "three_samples": file_probe + [_probe_file(tmp_path, "p3.csv", [(q, 1) for q in range(3)])],
        "four_samples": file_probe + [_probe_file(tmp_path, "p4.csv", [(q, 1) for q in range(4)])],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--probe", "smoothed", "--smoothing", "1e-6"],  # 8.4e9 points
        ["--probe", "optimal", "--support-m", "100000000"],  # 4.1e11 points
    ],
)
def test_oversized_grid_is_refused_before_allocation(argv, capsys):
    assert main(["shift", "--aw-re", "2", *argv]) == 1
    assert "GridTooLarge" in capsys.readouterr().err
