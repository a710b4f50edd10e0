import csv
import importlib.util
import io
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from wva.system import SCALE_RANGE

DATA = Path(__file__).parent / "data"


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _subprocess_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this ``wva``."""
    src = str(Path(wva.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _reference_format(x: float) -> str:
    """The output number format as specified, written with f-strings."""
    if x == 0:
        return "0"
    if abs(x) < 1e-3 or abs(x) >= 1e6:
        return f"{x:.11e}"
    return f"{x:.12g}"


def _sample_lines(space, coordinates, values) -> str:
    """CSV lines of a dump section, one ``format_number`` call per cell."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(
        [space, format_number(q), format_number(v.real), format_number(v.imag)]
        for q, v in zip(coordinates, values)
    )
    return text.getvalue()


# Floats at the edges of the number formats: signed zeros and infinities, nan,
# subnormals, the largest doubles, and the scientific-notation thresholds with
# their neighbours.
_EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7e308, -1.7e308, sys.float_info.max,
    *(sign * math.nextafter(edge, toward) for edge in (1e-3, 1e6)
      for toward in (0.0, edge, math.inf) for sign in (1.0, -1.0)),
]
_CELLS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())


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

    @given(st.lists(st.tuples(_CELLS, _CELLS, _CELLS), max_size=40))
    def test_block_is_format_number_per_cell(self, rows):
        table = np.array(rows, dtype=float).reshape(-1, 3)
        assert [format_number(x) for x in table.ravel()] == [_reference_format(x) for x in table.ravel()]
        values = table[:, 1] + 0j
        values.imag = table[:, 2]
        expected = _sample_lines("position_final", table[:, 0], values)
        assert cli._csv_block("position_final", *table.T) == expected


class TestConfigParsing:
    def test_file_with_comments(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("# a scenario\ng=0.2\naw_re=1.0  # inline comment\nprobe=optimal\n")
        table = load_config_file(str(path))
        config = scenario_from_table(table)
        assert config.coupling == 0.2
        assert config.aw == 1.0 + 0j
        assert config.probe == "optimal"

    def test_config_file_may_start_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_bytes("g=0.2\naw_re=1.0\n".encode("utf-8-sig"))
        assert load_config_file(str(path)) == {"g": "0.2", "aw_re": "1.0"}

    def test_probe_file_may_start_with_a_byte_order_mark(self, tmp_path):
        plain = _probe_file(tmp_path, "probe.csv", [(q, 1 + q * (4 - q)) for q in range(5)])
        marked = tmp_path / "marked.csv"
        marked.write_bytes(Path(plain).read_text().encode("utf-8-sig"))
        probe, expected = read_probe_csv(str(marked)), read_probe_csv(plain)
        assert np.array_equal(probe.grid.points, expected.grid.points)
        assert np.array_equal(probe.values, expected.values)

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
            cli._scale: st.floats(*wva.probe.SCALE_RANGE).map(repr),
            cli._count: st.integers(1, 10**6).map(str),
            cli._odd_count: st.integers(1, 10**6).map(lambda k: str(2 * k + 1)),
            cli._vector: vectors.map(lambda v: ",".join(map(repr, v))),
            cli._matrix: matrices.map(lambda m: ";".join(",".join(map(repr, r)) for r in m)),
            cli._probe_kind: st.sampled_from(cli._PROBE_KINDS),
            cli._path: st.text("abc_./-0123456789", min_size=1, max_size=12),
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
        row = _read_rows(out)[0]
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
    # In-process on the host's BLAS pool, and in a fresh ``wva`` process on
    # the one-thread pool that ``import wva`` starts.
    @pytest.mark.parametrize("run", ["in_process", "subprocess"])
    def test_golden_regression(self, run, tmp_path):
        out = tmp_path / "dump.csv"
        argv = [
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
        if run == "in_process":
            rc = main(argv)
        else:
            rc = subprocess.run(
                [sys.executable, "-m", "wva.cli", *argv], env=_subprocess_env(), capture_output=True, timeout=120
            ).returncode
        assert rc == 0
        assert out.read_bytes() == (DATA / "golden_dump.csv").read_bytes()

    def test_dump_families_and_peak(self):
        rows = _read_rows(DATA / "golden_dump.csv")
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
        rows = _read_rows(out)
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

    def test_stdout_and_output_file_bytes_agree(self, tmp_path):
        argv = ["dump", "--probe", "smoothed", "--smoothing", "30", "--aw-re", "2", "--aw-im", "-0.5"]
        out = tmp_path / "dump.csv"
        assert main(argv + ["--output", str(out)]) == 0
        done = subprocess.run(
            [sys.executable, "-m", "wva.cli", *argv], env=_subprocess_env(), capture_output=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == out.read_bytes()

    def test_dump_into_a_closed_pipe_exits_quietly(self):
        # ``wva dump ... | head -1``: the reader leaves after the header line.
        argv = ["dump", "--probe", "gaussian", "--g", "0.1", "--width", "1", "--aw-re", "2"]
        with subprocess.Popen(
            [sys.executable, "-m", "wva.cli", *argv],
            env=_subprocess_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as child:
            assert child.stdout.readline() == b"space,coordinate,re,im\n"
            child.stdout.close()  # the rest of the ~500 kB dump meets a closed pipe
            err = child.stderr.read()
            child.wait(timeout=120)
        assert child.returncode == 1
        assert err == b""

    def test_largest_gaussian_dump_stays_small(self, tmp_path):
        # The largest dump of the (g, W) acceptance grids: 12,517 lines.
        argv = ["dump", "--probe", "gaussian", "--g", "1", "--width", "8", "--aw-re", "2",
                "--output", str(tmp_path / "dump.csv")]
        assert main(argv) == 0  # caches and lazy imports are filled outside the count
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20


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
        rows = _read_rows(out)
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
        rows = _read_rows(out)
        assert rows[-1]["error"] == "OrthogonalSelection"
        assert all(r["error"] == "" for r in rows[:-1])
        assert rows[0]["overlap_times_q_final"] != ""

    def test_smoothing_rate_outside_the_scale_range_is_a_row_config_error(self, tmp_path, capsys):
        # Both rates once ended the whole sweep in a traceback.
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--axis", "smoothing_s", "--aw-re", "2", "--probe", "smoothed", "--smoothing", "10",
                "--values", "1e308,5e-324,10", "--output", str(out)]
        assert main(argv) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert [r["error"] for r in _read_rows(out)] == ["ConfigError", "ConfigError", ""]

    def test_grid_counts_below_three_are_row_config_errors(self, tmp_path, capsys):
        # Both were once clamped to a 3-point grid, whose rows printed
        # delta_q 0.2 (analytic 0.194230954135) with exit 0.
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--axis", "grid_n", "--aw-re", "2", "--probe", "gaussian",
                "--values", "-100,0,4000", "--output", str(out)]
        assert main(argv) == 1
        assert "Traceback" not in capsys.readouterr().err
        rows = _read_rows(out)
        assert [(r["delta_q"], r["error"]) for r in rows[:2]] == [("", "ConfigError")] * 2
        assert rows[2]["error"] == ""
        assert float(rows[2]["delta_q"]) == pytest.approx(float(rows[2]["analytic_delta_q"]), rel=1e-9)

    @pytest.mark.parametrize(
        "axis, selection",
        [
            ("smoothing_s", ["--aw-re", "2", "--probe", "gaussian"]),
            ("postselection_angle", ["--aw-re", "2"]),
            ("postselection_angle", ["--pre", "1,1,0", "--post", "1,0,0", "--obs", "1,0,0;0,-1,0;0,0,1"]),
            # Errors of the selection, which a sweep builds once, still end every row.
            ("postselection_angle", ["--pre", "0,0", "--post", "1,0", "--obs", "1,0;0,-1"]),
            ("postselection_angle", ["--pre", "1,1", "--post", "1,0", "--obs", "2,0;0,-1"]),
        ],
        ids=[
            "smoothing_s-gaussian", "angle-aw", "angle-three-level", "angle-zero-pre", "angle-non-involutory-obs"
        ],
    )
    def test_axis_off_its_selection_or_probe_is_a_row_config_error(self, axis, selection, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", axis, *selection, "--values", "0.1,0.2", "--output", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert [(r["delta_q"], r["error"]) for r in _read_rows(out)] == [("", "ConfigError")] * 2

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
            "21,129,257",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--output", str(first)]) == 1
        assert main(args + ["--output", str(second)]) == 1
        assert first.read_bytes() == second.read_bytes()
        assert b"\r\n" not in first.read_bytes()
        rows = _read_rows(first)
        # 21 points at g = 0.5 read 7.5e-2 of the probe's weight.
        assert [(r["delta_q"], r["error"]) for r in rows[:1]] == [("", "UnderResolvedGrid")]
        assert [r["delta_q"] for r in rows[1:]] == [rows[1]["analytic_delta_q"]] * 2

    def test_gaussian_grid_sweep_prints_only_certified_shifts(self, tmp_path):
        # 3, 5 and 7 points once printed 0.2, 0.199716835448 and 0.1984652138
        # against 0.194230954135, with exit 0.
        out = tmp_path / "sweep.csv"
        values = "3,5,7,9,17,33,65,129,257"
        argv = ["sweep", "--axis", "grid_n", "--probe", "gaussian", "--aw-re", "2", "--values", values]
        assert main([*argv, "--output", str(out)]) == 1
        rows = _read_rows(out)
        assert [r["error"] for r in rows] == ["UnderResolvedGrid"] * 7 + ["", ""]
        assert [r["delta_q"] for r in rows] == [""] * 7 + ["0.194230954135"] * 2

    _VECTORS = ["--pre", "1,1", "--obs", "1,0;0,-1"]
    _ORTHOGONAL = 3 * math.pi / 4  # cos + sin of it is 1e-16: an exactly orthogonal selection

    @pytest.mark.parametrize(
        "selection, axis, values, row_flags",
        [
            (
                [*_VECTORS, "--post", "1,0"],
                "postselection_angle",
                [_ORTHOGONAL - 0.3, _ORTHOGONAL - 1e-4, _ORTHOGONAL],
                lambda v: ["--post", f"{math.cos(v)!r},{math.sin(v)!r}"],
            ),
            (
                ["--chi", "0.3", "--varphi", "0.2"],
                "postselection_angle",
                [0.2, math.pi / 2 - 0.31, math.pi / 2 - 0.3],
                lambda v: ["--varphi", repr(v)],
            ),
            (["--aw-re", AW_RE, "--aw-im", AW_IM], "coupling_g", [0.05, 0.1, 0.4], lambda v: ["--g", repr(v)]),
        ],
        ids=["vector-angle", "mach-zehnder-angle", "coupling"],
    )
    def test_rows_are_the_shift_of_their_scenarios(self, selection, axis, values, row_flags, tmp_path, capsys):
        # A sweep builds its selection or its weak value once; each row must
        # still print what ``shift`` prints for that row's scenario.
        out = tmp_path / "sweep.csv"
        flags = ["--probe", "optimal", *selection]
        main(["sweep", "--axis", axis, *flags, "--values", ",".join(map(repr, values)), "--output", str(out)])
        columns = ["delta_q", "delta_p", "weight", "analytic_delta_q"]
        for row, value in zip(_read_rows(out), values, strict=True):
            shift_out = tmp_path / "shift.csv"
            code = main(["shift", *flags, *row_flags(value), "--output", str(shift_out)])
            error = capsys.readouterr().err.partition(":")[0]
            if code == 0:
                assert [row[c] for c in columns] == [_read_rows(shift_out)[0][c] for c in columns]
                assert row["error"] == ""
            else:
                assert row["error"] == error != ""
        assert row["error"] == ("OrthogonalSelection" if axis == "postselection_angle" else "")

    @pytest.mark.parametrize("extent", [1, 2, 3])
    def test_batched_rows_are_the_bytes_of_shift(self, extent, tmp_path, capsys, monkeypatch):
        # The optimal-probe rows of an angle sweep are evaluated as one batch;
        # rows refused at every stage sit between rows that pass, and every
        # cell must be what ``shift`` gives for the row's scenario.  No theta
        # row is refused at the shipped halving tolerance (their estimates are
        # at rounding level), so the first of these lower ones that refuses
        # some rows and passes others stands in for an UnderResolvedGrid row.
        rng = random.Random(30 + extent)
        values = [self._ORTHOGONAL + rng.choice([-1, 1]) * 10 ** rng.uniform(-6, -0.5) for _ in range(8)]
        values[2:2] = [self._ORTHOGONAL]  # OrthogonalSelection
        values[6:6] = [math.pi / 4]  # A = 0: ZeroRealPart
        flags = ["--probe", "optimal", "--g", "3", *self._VECTORS, "--support-m", str(extent)]
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--axis", "postselection_angle", *flags, "--post", "1,0",
                "--values", ",".join(map(repr, values))]
        for tol in (1e-16, 7e-17, 5e-17, 3e-17, 2e-17, 1e-17):
            monkeypatch.setattr(wva.probe, "HALVING_TOL", tol)
            assert main([*argv, "--output", str(out)]) == 1
            rows = _read_rows(out)
            if {"", "UnderResolvedGrid"} <= {row["error"] for row in rows}:
                break
        else:
            pytest.fail("no tolerance splits the rows")
        assert {"OrthogonalSelection", "ZeroRealPart"} <= {row["error"] for row in rows}
        pre, obs = wva.SystemState(np.array([1.0, 1.0])), wva.Observable(np.array([[1.0, 0.0], [0.0, -1.0]]))
        columns = ["delta_q", "delta_p", "weight", "analytic_delta_q"]
        for row, value in zip(rows, values, strict=True):
            shift_out = tmp_path / "shift.csv"
            post = f"{math.cos(value)!r},{math.sin(value)!r}"
            code = main(["shift", *flags, "--post", post, "--output", str(shift_out)])
            error = capsys.readouterr().err.partition(":")[0]
            if code != 0:
                assert [row[c] for c in [*columns, "overlap_times_q_final", "error"]] == [""] * 5 + [error]
                continue
            assert [row[c] for c in columns] == [_read_rows(shift_out)[0][c] for c in columns]
            # ``shift`` prints q_final to 12 digits; its report gives the exact one.
            wv = wva.compute_weak_value(pre, wva.SystemState(np.array([math.cos(value), math.sin(value)])), obs)
            probe = wva.optimal_probe(3.0, wv.value, None, extent)
            report = wva.shift_report(wva.PostSelectedEvolution(3.0, wv), probe)
            assert row["overlap_times_q_final"] == format_number(abs(wv.overlap) * report.q_final)
            assert row["error"] == ""

    def test_a_sweep_holds_one_batch_of_nodes_at_a_time(self, tmp_path):
        # Unbounded, the one batch of a 1,000-row sweep peaked at 44 MiB; the
        # bench's 9-row sweep is one batch either way.  At 6,000 rows a list
        # of the CSV rows alone, 0.78 KB each, would pass 4 MiB: rows are
        # written as they are reported.
        out = str(tmp_path / "sweep.csv")
        for count, mib in ((9, 1.0), (6000, 4.0)):
            angles = ",".join(repr(self._ORTHOGONAL + offset) for offset in np.geomspace(1e-3, 3e-2, count).tolist())
            argv = ["sweep", "--axis", "postselection_angle", "--g", "0.1", *self._VECTORS, "--post", "1,0",
                    "--probe", "optimal", "--values", angles, "--output", out]
            if count == 9:
                assert main(argv) == 0  # caches are filled outside the count
            tracemalloc.start()
            try:
                assert main(argv) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= mib * 2**20

    @pytest.mark.parametrize(
        "argv, built",
        [
            (["--axis", "postselection_angle", *_VECTORS, "--post", "1,0"],
             {"scenario_weak_value": 0, "Observable": 1, "SystemState": 1}),
            (["--axis", "postselection_angle", "--chi", "0.3", "--varphi", "0.2"],
             {"scenario_weak_value": 0, "Observable": 0, "SystemState": 0}),
            (["--axis", "coupling_g", *_VECTORS, "--post", "1,0"],
             {"scenario_weak_value": 1, "Observable": 1, "SystemState": 2}),
        ],
        ids=["vector-angle", "mach-zehnder-angle", "coupling"],
    )
    def test_what_does_not_change_along_the_axis_is_built_once(self, argv, built, tmp_path, monkeypatch):
        calls = dict.fromkeys(built, 0)

        def counted(name):
            original = getattr(cli, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return call

        for name in built:
            monkeypatch.setattr(cli, name, counted(name))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--probe", "optimal", "--values", "0.1,0.2,0.3", "--output", str(out)]) == 0
        assert calls == built

    @pytest.mark.parametrize(
        "pre, obs, errors",
        [
            ("1,1", "1,0;0,-1", {"OrthogonalSelection"}),
            ("1,0.3-0.2j", "0,-1j;1j,0", set()),  # no real post-selection is orthogonal to it
            ("1,1", "1,0,0;0,-1,0;0,0,1", {"DimensionMismatch"}),
        ],
        ids=["pauli-z", "pauli-y", "3-level"],
    )
    def test_angle_rows_take_the_weak_value_of_their_post_selected_state(self, pre, obs, errors):
        # The rows share the pre-selected amplitudes and their image under the
        # observable, and skip the post-selected state's checks; each row's
        # weak value, or its error, must still be that of the row's own state.
        rng = random.Random(32)
        angles = [rng.uniform(-10.0, 10.0) for _ in range(300)]
        angles += [self._ORTHOGONAL + rng.choice([-1, 1]) * 10 ** rng.uniform(-16, -1) for _ in range(300)]
        angles += [self._ORTHOGONAL, self._ORTHOGONAL - 1e-9, self._ORTHOGONAL + 1e-9, 0.0, math.pi / 2, 1e-310]
        config = scenario_from_table({"pre": pre, "post": "1,0", "obs": obs, "probe": "optimal"})
        _, weak_value = cli._sweep_rule(config, "postselection_angle")
        pre_state, observable = wva.SystemState(config.pre), wva.Observable(config.obs)
        raised = set()
        for angle in angles:
            post = wva.SystemState(np.array([math.cos(angle), math.sin(angle)]))
            try:
                expected = wva.compute_weak_value(pre_state, post, observable)
            except wva.errors.WvaError as exc:
                with pytest.raises(type(exc)) as info:
                    weak_value(angle)
                assert str(info.value) == str(exc)
                raised.add(type(exc).__name__)
                continue
            row = weak_value(angle)
            assert (repr(row.value), repr(row.overlap)) == (repr(expected.value), repr(expected.overlap))
        assert raised == errors

    def test_mach_zehnder_angle_rows_build_no_observable(self, tmp_path, monkeypatch):
        # Every Mach-Zehnder setup shares one observable, built at import.
        built = []
        check = wva.system.Observable.__post_init__
        monkeypatch.setattr(wva.system.Observable, "__post_init__", lambda obs: built.append(1) or check(obs))
        out = tmp_path / "sweep.csv"
        argv = ["--axis", "postselection_angle", "--chi", "0.3", "--varphi", "0.2", "--probe", "optimal"]
        assert main(["sweep", *argv, "--values", "0.1,0.2,0.3", "--output", str(out)]) == 0
        assert len(_read_rows(out)) == 3
        assert built == []


class TestOptimizeCommand:
    def test_trace_and_probe_outputs(self, tmp_path, capsys, monkeypatch):
        trace_path = tmp_path / "trace.csv"
        probe_path = tmp_path / "probe.csv"
        fixed = []  # the gauge-fixed probe that --probe-output writes
        monkeypatch.setattr(cli, "gauge_fix", lambda probe: fixed.append(wva.gauge_fix(probe)) or fixed[-1])
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
        rows = _read_rows(trace_path)
        assert float(rows[-1]["objective"]) == pytest.approx(0.125, abs=1e-3 * 0.125)
        # the gauge-fixed probe dump can be re-read as a file probe
        assert probe_path.read_text() == "space,coordinate,re,im\n" + _sample_lines(
            "momentum_initial", fixed[0].grid.points, fixed[0].values
        )
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
        rows = _read_rows(trace_path)
        assert len(rows) == 1

    def test_seed_variation(self, capsys, monkeypatch, maximize_once):
        monkeypatch.setattr(cli, "maximize", maximize_once)
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

    @pytest.mark.parametrize(
        "aw_re, aw_im", [("-2", "0"), ("-2", "0.13"), ("-0.36", "0.13"), ("-" + AW_RE, AW_IM)]
    )
    def test_negative_real_part_reaches_closed_form(
        self, aw_re, aw_im, capsys, monkeypatch, maximize_once
    ):
        # For Re A < 0 the closed-form shift is negative; see the library test.
        monkeypatch.setattr(cli, "maximize", maximize_once)
        assert main(["optimize", "--g", "0.1", "--aw-re", aw_re, "--aw-im", aw_im]) == 0
        fields = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert fields["converged"] == "true"
        reference = float(fields["reference"])
        assert reference < 0.0
        assert float(fields["abs_gap"]) <= 1e-3 * abs(reference)

    def test_zero_real_part_is_refused_before_the_ascent(self, capsys, monkeypatch):
        def started(*args):
            raise AssertionError("the ascent started")

        monkeypatch.setattr(wva.optimizer, "_initial_circle_vector", started)
        assert main(["optimize", "--g", "0.1", "--aw-re", "1e-13", "--aw-im", "1"]) == 1
        assert capsys.readouterr().err.startswith("ZeroRealPart")


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


def _bytes_file(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize(
    "case",
    [
        "missing_config",
        "missing_probe_file",
        "non_numeric_cell",
        "width_inf",
        "width_nan",
        "width_zero_square",
        "width_subnormal_square",
        "smoothing_negative",
        "smoothing_nan",
        "smoothing_huge",
        "smoothing_subnormal",
        "dump_smoothing_huge",
        "dump_smoothing_subnormal",
        "three_samples",
        "four_samples",
        "non_utf8_config",
        "non_utf8_probe_file",
        "max_iters_zero",
        "step_zero",
        "step_nan",
        "step_inf",
        "tol_zero",
        "tol_inf",
        "seed_negative",
        "chi_nan",
        "chi_inf",
        "varphi_nan",
        "shift_output_unwritable",
        "sweep_output_unwritable",
        "dump_output_unwritable",
        "optimize_output_unwritable",
        "optimize_probe_output_directory",
        "optimize_outputs_one_file",
        "single_entry_vector",
        "ragged_matrix",
        "chi_without_varphi",
        "pre_without_post_and_obs",
        "config_line_without_equals",
        "non_involutory_obs",
        "probe_file_wrong_header",
        "probe_file_six_samples",
        "probe_file_non_uniform",
        "sweep_values_unparsable",
        "sweep_without_range",
        "sweep_count_one",
        "sweep_single_value",
        "sweep_values_infinite",
        "dump_file_probe_n_points",
        "optimize_file_key",
        "optimize_smoothing_key",
        "shift_optimal_width",
        "shift_n_range",
        "dump_gaussian_n_range",
        "optimize_width",
        "shift_empty_file_key",
        "shift_empty_output",
        "dump_empty_output",
        "optimize_empty_probe_output",
        "empty_config",
        "file_probe_empty_file",
    ],
)
def test_bad_input_is_a_config_error(case, tmp_path, capsys):
    file_probe = ["shift", "--aw-re", "2", "--probe", "file", "--file"]
    smoothed = ["shift", "--aw-re", "2", "--probe", "smoothed", "--smoothing"]
    optimize = ["optimize", "--aw-re", "2", "--init", "random"]
    sweep = ["sweep", "--aw-re", "2", "--axis", "coupling_g"]
    nowhere = str(tmp_path / "missing" / "out.csv")
    argv = {
        "missing_config": ["shift", "--config", str(tmp_path / "missing.cfg")],
        "missing_probe_file": file_probe + [str(tmp_path / "missing.csv")],
        "non_numeric_cell": file_probe + [_probe_file(tmp_path, "bad.csv", [(0, "abc")])],
        "width_inf": ["shift", "--aw-re", "2", "--width", "inf"],
        "width_nan": ["shift", "--aw-re", "2", "--width", "nan"],
        "width_zero_square": ["shift", "--aw-re", "2", "--width", "1e-300"],
        "width_subnormal_square": ["shift", "--aw-re", "2", "--width", "1e-160"],
        "smoothing_negative": smoothed + ["-1"],
        "smoothing_nan": smoothed + ["nan"],
        "smoothing_huge": smoothed + ["1e308"],  # was ZeroDivisionError
        "smoothing_subnormal": smoothed + ["5e-324"],  # was OverflowError
        "dump_smoothing_huge": ["dump", "--aw-re", "2", "--probe", "smoothed", "--smoothing", "1e308"],
        "dump_smoothing_subnormal": ["dump", "--aw-re", "2", "--probe", "smoothed", "--smoothing", "5e-324"],
        "three_samples": file_probe + [_probe_file(tmp_path, "p3.csv", [(q, 1) for q in range(3)])],
        "four_samples": file_probe + [_probe_file(tmp_path, "p4.csv", [(q, 1) for q in range(4)])],
        "non_utf8_config": ["shift", "--config", _bytes_file(tmp_path, "bad.cfg", b"g=0.1\naw_re=2\xff\n")],
        "non_utf8_probe_file": file_probe
        + [_bytes_file(tmp_path, "bad.csv", b"space,coordinate,re,im\nmomentum_initial,0,1\xff,0\n")],
        "max_iters_zero": optimize + ["--max-iters", "0"],
        "step_zero": optimize + ["--step", "0"],
        "step_nan": optimize + ["--step", "nan"],
        "step_inf": optimize + ["--step", "inf"],  # was three RuntimeWarnings and exit 0
        "tol_zero": optimize + ["--tol", "0"],
        "tol_inf": optimize + ["--tol", "inf"],  # was "converged true" after no step, exit 0
        "seed_negative": optimize + ["--seed", "-1"],
        "chi_nan": ["mach-zehnder", "--chi", "nan", "--varphi", "0.3"],
        "chi_inf": ["mach-zehnder", "--chi", "inf", "--varphi", "0.3"],
        "varphi_nan": ["mach-zehnder", "--chi", "0.3", "--varphi", "nan"],
        # An output that cannot be opened is refused before any work: the
        # report, sweep rows, dump or optimizer run were once done first.
        "shift_output_unwritable": ["shift", "--aw-re", "2", "--output", nowhere],
        "sweep_output_unwritable": ["sweep", "--aw-re", "2", "--axis", "coupling_g", "--values", "0.1,0.2",
                                    "--output", nowhere],
        "dump_output_unwritable": ["dump", "--aw-re", "2", "--output", nowhere],
        "optimize_output_unwritable": optimize + ["--output", nowhere],
        "optimize_probe_output_directory": optimize + ["--output", str(tmp_path / "trace.csv"),
                                                       "--probe-output", str(tmp_path)],
        "optimize_outputs_one_file": optimize + ["--output", str(tmp_path / "both.csv"),
                                                 "--probe-output", str(tmp_path / "both.csv")],
        "single_entry_vector": ["shift", "--pre", "1"],
        "ragged_matrix": ["shift", "--obs", "1,0;0,-1,0"],
        "chi_without_varphi": ["shift", "--chi", "0.3"],
        "pre_without_post_and_obs": ["shift", "--pre", "1,1"],
        "config_line_without_equals": ["shift", "--config", _bytes_file(tmp_path, "eq.cfg", b"aw_re=2\ng 0.1\n")],
        "non_involutory_obs": ["shift", "--pre", "1,1", "--post", "1,0", "--obs", "2,0;0,2"],
        "probe_file_wrong_header": file_probe
        + [_bytes_file(tmp_path, "head.csv", b"space,q,re,im\n" + b"momentum_initial,0,1,0\n" * 5)],
        "probe_file_six_samples": file_probe + [_probe_file(tmp_path, "p6.csv", [(q, 1) for q in range(6)])],
        "probe_file_non_uniform": file_probe
        + [_probe_file(tmp_path, "pu.csv", [(q, 1) for q in (0, 1, 2, 3, 5)])],
        "sweep_values_unparsable": sweep + ["--values", "0.1,abc"],
        "sweep_without_range": sweep,
        "sweep_count_one": sweep + ["--start", "0.1", "--stop", "0.2", "--count", "1"],
        "sweep_single_value": sweep + ["--values", "0.1"],
        "sweep_values_infinite": sweep + ["--values", "0.1,inf"],
        # A file probe keeps its own grid, and optimize searches its own probe:
        # each was once accepted and ignored.
        "dump_file_probe_n_points": ["dump", "--aw-re", "2", "--probe", "file", "--n-points", "5", "--file",
                                     _probe_file(tmp_path, "p5.csv", [(q, 1) for q in range(5)])],
        "optimize_file_key": optimize + ["--probe", "file", "--file", str(tmp_path / "missing.csv")],
        "optimize_smoothing_key": optimize + ["--probe", "smoothed", "--smoothing", "3"],
        # Keys that the command does not read with the probe, each once
        # ignored with exit 0; an empty file key once counted as none.
        "shift_optimal_width": ["shift", "--probe", "optimal", "--aw-re", "2", "--width", "3"],
        "shift_n_range": ["shift", "--aw-re", "2", "--n-range", "5"],
        "dump_gaussian_n_range": ["dump", "--probe", "gaussian", "--aw-re", "2", "--n-range", "3"],
        "optimize_width": ["optimize", "--aw-re", "2", "--width", "3"],
        "shift_empty_file_key": ["shift", "--aw-re", "2", "--file", ""],
        # An empty path once meant no file: no CSV, stdout, no probe, no
        # config; with probe=file it was refused naming no key.
        "shift_empty_output": ["shift", "--aw-re", "2", "--output", ""],
        "dump_empty_output": ["dump", "--aw-re", "2", "--output", ""],
        "optimize_empty_probe_output": optimize + ["--probe-output", ""],
        "empty_config": ["shift", "--config", "", "--aw-re", "2"],
        "file_probe_empty_file": file_probe + [""],
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "ConfigError" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key", ["output", "file"])
def test_a_nul_byte_in_a_path_is_a_config_error(key, tmp_path, capsys):
    # ``open`` and ``os.path.samefile`` refuse an embedded NUL byte with a
    # ValueError, which once ended the command in a traceback.
    config = tmp_path / "nul.cfg"
    config.write_bytes(b"aw_re=2\nprobe=file\n" if key == "file" else b"aw_re=2\n")
    with open(config, "ab") as handle:
        handle.write(f"{key}=a\0b\n".encode())
    assert main(["shift", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert f"ConfigError: field '{key}': must be a non-empty path with no NUL byte" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv, key",
    [
        (["shift", "--aw-re", "2", "--output", ""], "output"),
        (["optimize", "--aw-re", "2", "--probe-output", ""], "probe_output"),
        (["shift", "--config", "", "--aw-re", "2"], "config"),
        (["shift", "--probe", "file", "--aw-re", "2", "--file", ""], "file"),
    ],
)
def test_an_empty_path_is_refused_by_its_key(argv, key, capsys):
    assert main(argv) == 2
    assert f"ConfigError: field '{key}': must be a non-empty path" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["shift", "--probe", "file", "--file", "p.csv", "--aw-re", "2", "--output", "p.csv"], "--file and --output"),
        (["dump", "--probe", "file", "--file", "p.csv", "--aw-re", "2", "--output", "./p.csv"], "--file and --output"),
        (["sweep", "--axis", "coupling_g", "--values", "0.1,0.2", "--probe", "file", "--file", "p.csv",
          "--aw-re", "2", "--output", "link.csv"], "--file and --output"),
        (["shift", "--config", "c.cfg", "--output", "c.cfg"], "--config and --output"),
        (["shift", "--config", "out.cfg"], "--config and --output"),
        (["optimize", "--aw-re", "2", "--output", "t.csv", "--probe-output", "./t.csv"], "--output and --probe-output"),
    ],
)
def test_an_output_that_names_an_input_is_refused_unopened(argv, flags, tmp_path, monkeypatch, capsys):
    # The output was once opened first: a probe file was emptied and then
    # refused for its missing header, and a config was overwritten, exit 0.
    monkeypatch.chdir(tmp_path)
    assert main(["dump", "--probe", "gaussian", "--aw-re", "2", "--n-points", "129", "--output", "p.csv"]) == 0
    (tmp_path / "link.csv").symlink_to(tmp_path / "p.csv")
    (tmp_path / "c.cfg").write_text("aw_re=2\n")
    (tmp_path / "out.cfg").write_text("aw_re=2\noutput=out.cfg\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ConfigError: {flags} name the same file\n"
    assert captured.out == ""
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize(
    "flags, named",
    [(["--start", "0.3", "--stop", "0.5", "--count", "3"], "--start/--stop/--count"), (["--count", "0"], "--count")],
    ids=["range", "count"],
)
def test_sweep_values_with_range_flags_are_a_config_error(flags, named, capsys):
    # Each once exited 0 with the rows of --values, the range flags ignored.
    argv = ["sweep", "--axis", "coupling_g", "--probe", "optimal", "--aw-re", "2", "--values", "0.1,0.2", *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ConfigError: --values and {named} are alternatives: give one\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["shift", "--aw-re", "2", "--probe", "smoothed", "--smoothing", "1e-6"],  # 8.4e9 points
        # 4.3e9 points under the resolution law; 4,097 printed -5299 against 5e6.
        ["shift", "--aw-re", "1", "--aw-im", "1e4", "--probe", "smoothed", "--smoothing", "30"],
        ["shift", "--aw-re", "2", "--probe", "optimal", "--support-m", "100000000"],  # 1.7e9 theta nodes
        ["dump", "--aw-re", "2", "--probe", "optimal", "--n-range", "100000000"],  # 2e8 positions
        ["sweep", "--aw-re", "2", "--axis", "coupling_g", "--start", "0.1", "--stop", "0.2",
         "--count", "100000000"],
    ],
)
def test_oversized_grid_is_refused_before_allocation(argv, capsys):
    assert main(argv) == 1
    assert "GridTooLarge" in capsys.readouterr().err


@pytest.mark.parametrize("n_points", ["3", "5"])
def test_optimizer_grid_without_three_window_modes_is_a_domain_error(n_points, capsys):
    assert main(["optimize", "--aw-re", "2", "--n-points", n_points]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("UnderResolvedGrid: position window holds fewer than three modes")
    assert captured.out == ""


@pytest.mark.parametrize(
    "n_points, message",
    [("5", "the probe: on 5 nodes the halving estimates"), ("7", "7 points have no nested Simpson rule: it needs 4k + 1")],
)
def test_shift_refuses_a_gaussian_count_it_cannot_certify(n_points, message, capsys):
    assert main(["shift", "--probe", "gaussian", "--aw-re", "2", "--n-points", n_points]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"UnderResolvedGrid: {message}")
    assert captured.out == ""


@pytest.mark.parametrize("aw_re, aw_im", [("1", "30"), ("1e-3", "1")])
def test_smoothed_shift_takes_its_point_count_from_the_weak_value(aw_re, aw_im, capsys):
    # 4,097 interior points gave 44.997 and 106.39; the closed form of the
    # hard-support probe is 45.1 and 100.00005, 1.06e-3 above the smoothed one.
    value = complex(float(aw_re), float(aw_im))
    argv = ["shift", "--probe", "smoothed", "--smoothing", "30", "--aw-re", aw_re, "--aw-im", aw_im]
    assert main(argv) == 0
    default = float(_report(capsys.readouterr().out)["delta_q"])
    doubled = wva.smoothed_optimal_probe(0.1, value, 30.0, 2 * wva.recommended_support_points(value) - 1)
    report = wva.shift_report(wva.PostSelectedEvolution(0.1, wva.WeakValue.from_value(value)), doubled)
    assert default == pytest.approx(report.delta_q, rel=1e-7)
    assert default == pytest.approx(wva.max_shift(0.1, value), rel=1.1e-3)


def test_smoothed_shift_refuses_even_a_count_at_the_resolution_law(tmp_path, capsys):
    # 4,097 interior points once printed delta_q 106.392405046 with exit 0;
    # the count of the law, 40,001, gives 99.8940564664 (closed form
    # 100.00005), which the probe picks itself.
    argv = ["--probe", "smoothed", "--smoothing", "30", "--aw-re", "1e-3", "--aw-im", "1"]
    least = wva.recommended_support_points(1e-3 + 1.0j)
    assert least == 40001
    for count in ("4097", str(least)):
        assert main(["shift", *argv, "--n-points", count]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("ConfigError: n_points") and "probe=smoothed" in captured.err
        assert captured.out == ""
    assert main(["shift", *argv]) == 0
    assert _report(capsys.readouterr().out)["delta_q"] == "99.8940564664"
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--axis", "grid_n", *argv, "--values", f"4097,{least}", "--output", str(out)]) == 1
    assert [r["error"] for r in _read_rows(out)] == ["ConfigError", "ConfigError"]
    # A dump's samples are exact at any count.
    assert main(["dump", *argv, "--n-points", "4097", "--n-range", "2", "--output", str(tmp_path / "d.csv")]) == 0


def test_smoothed_zero_real_part_is_named_before_the_grid_is_sized(capsys):
    # Sized by the resolution law first, this grid would be GridTooLarge.
    assert main(["shift", "--probe", "smoothed", "--smoothing", "30", "--aw-re", "1e-13", "--aw-im", "1"]) == 1
    assert capsys.readouterr().err.startswith("ZeroRealPart")


def test_exports_are_pinned():
    # An export is added or removed on purpose, by editing this list.
    assert sorted(wva.__all__) == [
        "AscentCore", "DegenerateDenominator", "DimensionMismatch",
        "GaussianShiftPrediction", "GridTooLarge", "MomentumGrid", "NodeSamples", "NonFinite", "Observable",
        "OptimizerConfig", "OptimizerTrace", "OrthogonalSelection",
        "PostSelectedEvolution", "ProbeWavefunction", "QuadratureNodes", "ScaleOutOfRange",
        "ShiftReport", "SystemState", "UnderResolvedGrid", "WeakValue",
        "WvaError", "ZeroNorm", "ZeroRealPart", "analytic", "apply_postselection",
        "compute_weak_value", "errors", "evolution", "evolution_factor",
        "evolution_factor_and_derivative", "expectation",
        "extrapolate_orthogonality_limit", "gauge_fix",
        "gaussian_exact_shifts", "gaussian_probe", "inverse_fourth_factor_integral",
        "inverse_square_factor_integral", "mach_zehnder_setup", "mach_zehnder_weak_value",
        "max_shift", "maximize", "numeric_derivative", "optimal_initial_momentum", "optimal_probe",
        "optimizer", "periodic_representative", "position_amplitudes", "probe",
        "recommended_support_points", "shift_lower_bound",
        "shift_report", "smoothed_optimal_probe", "system",
    ]


_TRACED_MODULES = (wva.cli, wva.probe, wva.expectation)


def _bench_tracing(monkeypatch):
    """``bench/tracing.py``, loaded from its file, with every attribute that it
    wraps put back at teardown, so that an ``instrument`` call failing midway
    leaves no wrapper behind."""
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module in _TRACED_MODULES:
        for name, value in dict(vars(module)).items():
            monkeypatch.setattr(module, name, value)
    monkeypatch.setattr(wva.probe.MomentumGrid, "integrate", wva.probe.MomentumGrid.integrate)
    return tracing


def test_benchmark_wrap_points_exist_and_are_restored(monkeypatch):
    # bench/tracing.py wraps these functions by name; a rename would break
    # only a traced benchmark run.
    tracing = _bench_tracing(monkeypatch)
    before = [dict(vars(module)) for module in _TRACED_MODULES]
    integrate = wva.probe.MomentumGrid.integrate

    saved = tracing.instrument(tracing.Tracer(), wva, cold_integrate=True)
    wrapped = [getattr(owner, attr) is not original for owner, attr, original in saved]
    tracing.restore(saved)
    assert wrapped and all(wrapped)
    for module, namespace in zip(_TRACED_MODULES, before):
        after = vars(module)
        assert after.keys() == namespace.keys() and all(after[k] is v for k, v in namespace.items())
    assert wva.probe.MomentumGrid.integrate is integrate


def test_traced_file_probe_shift_takes_one_stencil_span(monkeypatch, tmp_path, capsys):
    # A file probe takes its derivative when it is read, not in the report;
    # the traced benchmark must still see that one stencil call.
    probe_file = tmp_path / "probe.csv"
    assert main(["dump", "--aw-re", "2", "--probe", "gaussian", "--n-points", "201", "--output", str(probe_file)]) == 0
    tracing = _bench_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    saved = tracing.instrument(tracer, wva)
    try:
        assert main(["shift", "--aw-re", "2", "--probe", "file", "--file", str(probe_file)]) == 0
    finally:
        tracing.restore(saved)
    names = [span[0] for span in tracer.spans]
    assert names.count("probe.numeric_derivative") == 1
    assert names.count("expectation.shift_report") == 1


def test_tracing_leaves_the_shared_parser_clean(monkeypatch, capsys):
    # The parser is cached around the function object, not the module
    # attribute that tracing rebinds, so no traced call wraps its parse_args.
    tracing = _bench_tracing(monkeypatch)
    cli._parser.cache_clear()  # built while the tracing wrappers are installed
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    saved = tracing.instrument(tracer, wva)
    try:
        assert main(["shift", "--aw-re", "2"]) == 0
    finally:
        tracing.restore(saved)
    assert "parse_args" not in vars(cli._parser())
    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()


def test_shared_parser_keeps_no_option_from_an_earlier_call(monkeypatch, capsys):
    configs = []
    maximize = cli.maximize
    monkeypatch.setattr(cli, "maximize", lambda config, evo: configs.append(config) or maximize(config, evo))
    optimize = ["optimize", "--aw-re", "2", "--n-points", "65", "--max-iters", "2"]
    assert main([*optimize, "--seed", "5", "--init", "random"]) == 0
    assert main(optimize) == 0
    assert [(c.seed, c.init) for c in configs] == [(5, "random"), (0, "gaussian")]


def test_shared_parser_recovers_from_a_usage_error(capsys):
    for argv in (["shift", "--no-such-flag"], ["sweep", "--aw-re", "2"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert main(["shift", "--aw-re", "2"]) == 0
        assert "delta_q" in capsys.readouterr().out


def test_shared_parser_prints_the_same_help_every_call(capsys):
    texts = []
    for parse in (main, main, cli.build_parser().parse_args):
        with pytest.raises(SystemExit) as exit_info:
            parse(["shift", "--help"])
        assert exit_info.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] and texts[0] == texts[1] == texts[2]


def test_commands_in_one_process_print_what_they_print_alone(capsys):
    commands = (
        ["sweep", "--aw-re", "2", "--axis", "coupling_g", "--values", "0.05,0.1"],
        ["shift", "--aw-re", "2"],
    )
    for argv in commands:
        assert main(argv) == 0
        alone = subprocess.run(
            [sys.executable, "-m", "wva.cli", *argv], env=_subprocess_env(), capture_output=True, text=True, timeout=120
        )
        assert alone.returncode == 0, alone.stderr
        assert capsys.readouterr().out == alone.stdout


def test_import_builds_no_parser():
    # A parser built at import would add to every cli process's start-up.
    script = "import wva.cli; print(wva.cli._parser.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-c", script], env=_subprocess_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


def _refuse_p_grids(monkeypatch):
    def refuse(grid):
        raise AssertionError(f"a {grid.n_points}-point p-grid was built")

    monkeypatch.setattr(wva.probe.MomentumGrid, "__post_init__", refuse)


@pytest.mark.parametrize("probe", ["optimal", "smoothed", "file"])
@pytest.mark.parametrize("source", ["flag", "key"])
def test_shift_and_sweep_refuse_a_point_count_off_the_p_grid_probes(probe, source, tmp_path, monkeypatch, capsys):
    # An optimal probe reports its shift on theta nodes, a smoothed one on the
    # count of its own resolution law, a file probe on its own grid.
    chosen = _probe_flags(probe, tmp_path)
    count = ["--n-points", "4097"]
    if source == "key":
        config = tmp_path / "points.cfg"
        config.write_text("n_points=4097\n")
        count = ["--config", str(config)]
    _refuse_p_grids(monkeypatch)
    assert main(["shift", *chosen, *count]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ConfigError: n_points") and f"probe={probe}" in captured.err
    assert captured.out == ""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--axis", "grid_n", *chosen, "--values", "3,4097", "--output", str(out)]) == 1
    assert [(r["delta_q"], r["error"]) for r in _read_rows(out)] == [("", "ConfigError")] * 2


def _probe_flags(probe, tmp_path):
    """Flags of a probe of each kind at A = 2."""
    flags = ["--probe", probe, "--aw-re", "2"]
    if probe == "smoothed":
        flags += ["--smoothing", "30"]
    if probe == "file":
        flags += ["--file", _probe_file(tmp_path, "probe.csv", [(q / 1000, 1) for q in range(5)])]
    return flags


def _assert_extent_refused(capsys, probe):
    captured = capsys.readouterr()
    assert captured.err.startswith("ConfigError: support_m") and f"probe={probe}" in captured.err
    assert captured.out == ""


_EXTENT_FREE_PROBES = pytest.mark.parametrize("probe", ["gaussian", "smoothed", "file"])


@_EXTENT_FREE_PROBES
def test_shift_refuses_a_support_extent_off_the_optimal_probe(probe, tmp_path, capsys):
    # The smoothed probe once printed its extent-1 shift, 0.124920505715, with exit 0.
    chosen = _probe_flags(probe, tmp_path)
    assert main(["shift", *chosen, "--support-m", "3"]) == 2
    _assert_extent_refused(capsys, probe)
    assert main(["shift", *chosen, "--support-m", "1"]) == 0


@_EXTENT_FREE_PROBES
def test_dump_refuses_a_support_extent_off_the_optimal_probe(probe, tmp_path, capsys):
    out = tmp_path / "dump.csv"
    assert main(["dump", *_probe_flags(probe, tmp_path), "--support-m", "2", "--output", str(out)]) == 2
    _assert_extent_refused(capsys, probe)


@_EXTENT_FREE_PROBES
def test_sweep_rows_refuse_a_support_extent_off_the_optimal_probe(probe, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--axis", "coupling_g", *_probe_flags(probe, tmp_path), "--support-m", "3",
            "--values", "0.1,0.2", "--output", str(out)]
    assert main(argv) == 1
    assert [(r["delta_q"], r["error"]) for r in _read_rows(out)] == [("", "ConfigError")] * 2


def test_optimize_takes_a_support_extent_with_the_default_probe(capsys):
    argv = ["optimize", "--aw-re", "2", "--support-m", "3", "--n-points", "769", "--max-iters", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("converged")


# The probes with which each command reads each key that only some scenarios
# read, written out here rather than taken from the CLI's own table.  A sweep
# row reads what ``shift`` reads.
_PROBES_THAT_READ = {
    ("shift", "width"): {"gaussian"},
    ("shift", "smoothing"): {"smoothed"},
    ("shift", "file"): {"file"},
    ("shift", "n_points"): {"gaussian"},
    ("shift", "support_m"): {"optimal"},
    ("shift", "n_range"): set(),
    ("dump", "width"): {"gaussian"},
    ("dump", "smoothing"): {"smoothed"},
    ("dump", "file"): {"file"},
    ("dump", "n_points"): {"gaussian", "optimal", "smoothed"},
    ("dump", "support_m"): {"optimal"},
    ("dump", "n_range"): {"optimal", "smoothed"},
    # optimize searches its own probe, and reads only the keys of its grid;
    # the smoothing and file keys of the other two probes are refused first.
    ("optimize", "width"): set(),
    ("optimize", "smoothing"): set(),
    ("optimize", "file"): set(),
    ("optimize", "n_points"): {"gaussian", "optimal"},
    ("optimize", "support_m"): {"gaussian", "optimal"},
    ("optimize", "n_range"): set(),
}


@pytest.mark.parametrize("key", ["width", "smoothing", "file", "n_points", "support_m", "n_range"])
@pytest.mark.parametrize("probe", ["gaussian", "optimal", "smoothed", "file"])
@pytest.mark.parametrize("command", ["shift", "sweep", "dump", "optimize"])
def test_a_command_refuses_exactly_the_keys_it_does_not_read_with_the_probe(command, probe, key, tmp_path, capsys):
    # Each of these was once ignored with exit 0 somewhere: width with an
    # optimal probe, n_range in shift and in a Gaussian dump, width in optimize.
    reads = probe in _PROBES_THAT_READ["shift" if command == "sweep" else command, key]
    probe_csv = _probe_file(tmp_path, "other.csv", [(q / 1000, 2) for q in range(5)])
    value = {"width": "2", "smoothing": "20", "file": probe_csv, "n_points": "129", "support_m": "2", "n_range": "3"}
    argv = [command, *_probe_flags(probe, tmp_path), "--" + key.replace("_", "-"), value[key]]
    out = tmp_path / "out.csv"
    argv += {
        "shift": [],
        "sweep": ["--axis", "coupling_g", "--values", "0.1,0.2", "--output", str(out)],
        "dump": ["--output", str(out)],
        "optimize": ["--max-iters", "1"],
    }[command]
    code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if reads:
        assert code == 0, captured.err
    elif command == "sweep" and key not in ("smoothing", "file"):
        # A smoothing or file key off its probe fails the scenario as a whole.
        assert code == 1
        assert [(r["delta_q"], r["error"]) for r in _read_rows(out)] == [("", "ConfigError")] * 2
    else:
        assert code == 2
        assert captured.err.startswith("ConfigError: ")
        assert captured.out == ""


@pytest.mark.parametrize("probe", ["gaussian", "optimal", "smoothed", "file"])
def test_every_command_that_runs_a_probe_accepts_its_serialized_default_scenario(probe, tmp_path, capsys):
    # to_text() writes width, support_m and n_range into every scenario, so
    # only a key set away from its default may count as set.
    probe_csv = _probe_file(tmp_path, "probe.csv", [(q / 1000, 1) for q in range(5)])
    extra = {"smoothed": {"smoothing": 30.0}, "file": {"probe_file": probe_csv}}
    config = cli.ScenarioConfig(aw=2 + 0j, probe=probe, **extra.get(probe, {}))
    assert "width=1.0" in config.to_text() and "n_range=16" in config.to_text()
    path = tmp_path / "default.cfg"
    path.write_text(config.to_text())
    out = tmp_path / "out.csv"
    commands = [
        ["shift"],
        ["sweep", "--axis", "coupling_g", "--values", "0.1,0.2"],
        ["dump"],
    ]
    if probe in ("gaussian", "optimal"):  # optimize refuses the smoothing and file keys
        commands.append(["optimize", "--max-iters", "1", "--n-points", "129"])
    for command in commands:
        assert main([*command, "--config", str(path), "--output", str(out)]) == 0, capsys.readouterr().err
        capsys.readouterr()


def test_the_read_table_names_only_real_keys_probes_and_commands():
    # A misspelled key would leave the real key unchecked.
    assert set(cli._READ_BY) <= {field.key for field in cli._FIELDS}
    for readers in cli._READ_BY.values():
        assert set(readers) <= {"shift", "dump", "optimize"}
        for probes in readers.values():
            assert set(probes) <= set(cli._PROBE_KINDS)


def test_negative_values_in_scientific_notation_and_lists(tmp_path, capsys):
    assert main(["shift", "--aw-re", "2", "--aw-im", "-1e-3"]) == 0
    spaced = capsys.readouterr().out
    assert main(["shift", "--aw-re", "2", "--aw-im=-1e-3"]) == 0
    assert capsys.readouterr().out == spaced
    assert "weak_value     2 -0.001j" in spaced

    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--axis", "coupling_g", "--aw-re", "2", "--values", "-1,0.1", "--output", str(out)]
    assert main(argv) == 1
    rows = _read_rows(out)
    assert [(r["axis_value"], r["error"]) for r in rows] == [("-1", "ConfigError"), ("0.1", "")]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device whose writes fail")
@pytest.mark.parametrize(
    "argv, to_stdout",
    [
        (["shift", "--aw-re", "2"], False),
        (["dump", "--probe", "gaussian", "--aw-re", "2"], False),
        (["sweep", "--axis", "coupling_g", "--aw-re", "2", "--values", "0.1,0.2"], False),
        (["optimize", "--aw-re", "2", "--n-points", "65", "--max-iters", "5"], False),
        (["shift", "--aw-re", "2"], True),
        (["dump", "--probe", "gaussian", "--aw-re", "2"], True),
        (["sweep", "--axis", "coupling_g", "--aw-re", "2", "--values", "0.1,0.2"], True),
        (["optimize", "--aw-re", "2", "--n-points", "65", "--max-iters", "5"], True),
        (["mach-zehnder", "--chi", "0.3", "--varphi", "0.2"], True),
    ],
    ids=lambda v: (v[0] if isinstance(v, list) else ("stdout" if v else "output")),
)
def test_a_full_device_is_a_config_error(argv, to_stdout):
    # Each once ended in an OSError traceback, raised as the output was
    # written or closed, or as stdout was flushed at exit.
    with open("/dev/full", "w") as full:
        child = subprocess.run(
            [sys.executable, "-m", "wva.cli", *argv, *([] if to_stdout else ["--output", "/dev/full"])],
            env=_subprocess_env(),
            stdout=full if to_stdout else subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    path = "stdout" if to_stdout else "/dev/full"
    assert (child.returncode, child.stderr) == (2, f"ConfigError: {path}: No space left on device\n")


def _report(out: str) -> dict[str, str]:
    """Label -> first value of each line of a ``shift`` report."""
    return {line.split()[0]: line.split()[1] for line in out.splitlines()}


def test_near_orthogonal_optimal_shift_is_reported(capsys):
    # 40,000,001 p-grid points under the resolution law; 594 theta nodes.
    value = 1e-6 + 1.0j
    assert main(["shift", "--probe", "optimal", "--aw-re", "1e-6", "--aw-im", "1"]) == 0
    report = _report(capsys.readouterr().out)
    assert float(report["delta_q"]) == pytest.approx(wva.max_shift(0.1, value), rel=1e-9)
    delta_p = -wva.optimal_initial_momentum(0.1, value)
    assert float(report["delta_p"]) == pytest.approx(delta_p, abs=1e-9 * math.pi / 0.2)


@pytest.mark.parametrize(
    "aw_re, aw_im, support_m",
    [("1e-9", "1", "1"), ("1e-12", "1", "1"), ("1", "1e4", "2"), ("1", "1e4", "4"), ("2", "30", "2")],
)
def test_optimal_shift_resolves_near_orthogonal_and_even_supports(aw_re, aw_im, support_m, capsys):
    # The count-doubling rule (up to 65,536 intervals per period) ended all
    # but 2 + 30i at extent 2 in UnderResolvedGrid; that one took 8,194 nodes.
    value = complex(float(aw_re), float(aw_im))
    argv = ["shift", "--probe", "optimal", "--aw-re", aw_re, "--aw-im", aw_im, "--support-m", support_m]
    assert main(argv) == 0
    report = _report(capsys.readouterr().out)
    # Printed to 12 significant digits.
    assert float(report["delta_q"]) == pytest.approx(wva.max_shift(0.1, value), rel=1e-11)
    delta_p = -wva.optimal_initial_momentum(0.1, value, int(support_m))
    assert float(report["delta_p"]) == pytest.approx(delta_p, abs=1e-11 * math.pi / 0.2)


def test_default_optimal_shift_and_sweep_build_no_p_grid(tmp_path, monkeypatch, capsys):
    _refuse_p_grids(monkeypatch)
    assert main(["shift", "--probe", "optimal", "--aw-re", AW_RE, "--aw-im", AW_IM]) == 0
    argv = ["sweep", "--axis", "postselection_angle", "--pre", "1,1", "--post", "1,0", "--obs", "1,0;0,-1",
            "--probe", "optimal", "--values", "2.3571,2.3562", "--output", str(tmp_path / "sweep.csv")]
    assert main(argv) == 0


def test_optimal_shift_prints_the_momentum_oracle(capsys):
    assert main(["shift", "--probe", "optimal", "--aw-re", AW_RE, "--aw-im", AW_IM]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("delta_p"))
    fields = line.split()
    assert fields[2] == "analytic" and float(fields[3]) == pytest.approx(float(fields[1]), abs=1e-11)
    assert float(fields[5]) < 1e-11
    # An even support ends in half periods; its delta_p has a closed form too.
    assert main(["shift", "--probe", "optimal", "--aw-re", "2", "--aw-im", "1", "--support-m", "2"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("delta_p"))
    fields = line.split()
    assert fields[2] == "analytic" and float(fields[5]) < 1e-11
    assert float(fields[3]) == pytest.approx(-wva.optimal_initial_momentum(0.1, 2.0 + 1.0j, 2), rel=1e-11)


def test_tiny_coupling_is_a_domain_error(tmp_path, capsys):
    # At g = 1e-300 the derivative samples underflow; the shift once printed 0.
    assert main(["shift", "--probe", "optimal", "--aw-re", "2", "--g", "1e-300"]) == 1
    captured = capsys.readouterr()
    assert "ScaleOutOfRange" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--probe", "optimal", "--aw-re", "2", "--axis", "coupling_g", "--values", "1e-300,0.1"]
    assert main(argv + ["--output", str(out)]) == 1
    rows = _read_rows(out)
    assert [r["error"] for r in rows] == ["ScaleOutOfRange", ""]
    assert rows[0]["delta_q"] == "" and float(rows[1]["delta_q"]) == pytest.approx(0.125, rel=1e-12)


def test_import_loads_no_fft_or_polynomial_module():
    # ``cli`` and in-process ``sweep`` runs pay for every module imported.
    script = "import sys, wva, wva.cli; print(len(sys.modules), 'numpy.fft' in sys.modules, 'numpy.polynomial' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", script], env=_subprocess_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    count, fft, polynomial = done.stdout.split()
    assert (fft, polynomial) == ("False", "False")
    assert int(count) <= 226


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# The threads of the process right after the imports, and whether they left
# os.environ as it was.
_THREADS_AFTER_IMPORT = """
import os
before = dict(os.environ)
{imports}
print(len(os.listdir("/proc/self/task")), dict(os.environ) == before)
"""


def _threads_after(imports: str, **variables: str) -> int:
    env = {k: v for k, v in _subprocess_env().items() if k not in _BLAS_THREAD_VARIABLES}
    done = subprocess.run(
        [sys.executable, "-c", _THREADS_AFTER_IMPORT.format(imports=imports)],
        env={**env, **variables}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    threads, unchanged = done.stdout.split()
    assert unchanged == "True"
    return int(threads)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
    reason="needs per-thread listings and two CPUs",
)
def test_blas_pool_has_one_thread_only_when_wva_loads_numpy():
    numpy_alone = _threads_after("import numpy")
    if numpy_alone < 2:
        pytest.skip("numpy's BLAS starts no helper thread on import")
    # A cli process runs no OpenBLAS helper thread ...
    assert _threads_after("import wva") == 1
    # ... but a host that loaded numpy first, or set a thread count, keeps its pool.
    assert _threads_after("import numpy; import wva") == numpy_alone
    assert _threads_after("import wva", OPENBLAS_NUM_THREADS="2") == 2
    assert _threads_after("import wva", OMP_NUM_THREADS="2") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["shift", "--probe", "optimal", "--aw-re", "1e160"],  # was OverflowError in max_shift
        ["shift", "--probe", "gaussian", "--aw-re", "1e154"],  # was a non-finite shift report
        ["shift", "--probe", "optimal", "--aw-re", "1e100", "--aw-im", "1e100"],
        ["dump", "--probe", "gaussian", "--aw-re", "1e160"],
        ["optimize", "--aw-re", "1e160", "--n-points", "65", "--max-iters", "1"],
    ],
)
def test_weak_value_beyond_the_scale_range_is_a_domain_error(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("ScaleOutOfRange: |weak value|")
    assert captured.out == ""


def test_sweep_rows_carry_the_weak_value_scale_error(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--probe", "optimal", "--aw-re", "1e160", "--axis", "coupling_g", "--output", str(out)]
    assert main(argv + ["--values", "0.1,0.2"]) == 1
    rows = _read_rows(out)
    assert [(r["delta_q"], r["error"]) for r in rows] == [("", "ScaleOutOfRange")] * 2
    # The weak value is computed once per sweep, but a row meets it only
    # after its own coupling has been parsed.
    assert main(argv + ["--values=-1,0.1"]) == 1
    assert [r["error"] for r in _read_rows(out)] == ["ConfigError", "ScaleOutOfRange"]


@pytest.mark.parametrize("probe", ["optimal", "gaussian"])
def test_weak_value_at_the_scale_limit_reports_its_shift(probe, capsys):
    assert main(["shift", "--probe", probe, "--aw-re", "1e100"]) == 0
    report = _report(capsys.readouterr().out)
    expected = wva.max_shift(0.1, 1e100) if probe == "optimal" else wva.gaussian_exact_shifts(0.1, 1.0, 1e100).delta_q
    assert float(report["delta_q"]) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ["shift", "--g", "1e100", "--aw-re", "1e-12", "--aw-im", "1e100"],  # max_shift is inf
        ["shift", "--g", "1e100", "--aw-re", "1e-6", "--aw-im", "1e60"],  # was a ValueError traceback
        ["shift", "--aw-re", "1", "--aw-im", "1e100"],  # was a RuntimeWarning and a nan estimate
        ["sweep", "--aw-re", "1e-6", "--aw-im", "1e60", "--axis", "coupling_g", "--values", "1e100,0.1"],
    ],
)
def test_optimal_shift_beyond_the_scale_range_is_a_domain_error(argv, capsys):
    assert main([*argv, "--probe", "optimal"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    if argv[0] == "shift":
        assert captured.err.startswith("ScaleOutOfRange: |max_shift|") and captured.out == ""
    else:
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [(r["delta_q"], r["error"]) for r in rows] == [("", "ScaleOutOfRange")] * 2


_LOG_SCALE = st.floats(math.log10(SCALE_RANGE[0]), math.log10(SCALE_RANGE[1]))


@settings(max_examples=50, deadline=None)
@given(
    log_g=_LOG_SCALE,
    log_real=st.floats(-12.0, 100.0),
    imag=st.one_of(st.just(0.0), st.floats(-100.0, 100.0).map(lambda e: 10.0**e)),
    signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
)
@example(log_g=100.0, log_real=-12.0, imag=1e100, signs=(1.0, 1.0))
def test_optimal_shift_ends_in_a_report_or_a_domain_error(log_g, log_real, imag, signs):
    # Every input inside the documented ranges; a warning is an error here.
    aw = complex(signs[0] * 10.0**log_real, signs[1] * imag)
    argv = ["shift", "--probe", "optimal", f"--g={10.0**log_g!r}", f"--aw-re={aw.real!r}", f"--aw-im={aw.imag!r}"]
    assert main(argv) in (0, 1)


@pytest.mark.parametrize(
    "row, message",
    [
        ("momentum_initial,0.5,abc,0", "cannot parse 'abc'"),
        ("momentum_initial,0.5,1,inf", "must be finite, got 'inf'"),
        ("momentum_initial,nan,1,0", "must be finite, got 'nan'"),
        ("momentum_initial,0.5,1", "cannot parse None"),
    ],
)
def test_bad_probe_cell_names_its_line(row, message, tmp_path):
    lines = ["space,coordinate,re,im", "momentum_initial,0,1,0", "position_initial,0,x,y", row]
    lines += [f"momentum_initial,{q},1,0" for q in range(1, 6)]
    path = tmp_path / "probe.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:4': {message}")):
        read_probe_csv(str(path))


def test_probe_file_reads_the_momentum_rows_of_a_dump_and_names_a_bad_one_after_the_other_sections(tmp_path):
    path = tmp_path / "probe.csv"
    assert main(["dump", "--probe", "gaussian", "--g", "0.1", "--width", "1", "--aw-re", "2", "--output", str(path)]) == 0
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row[0] == "momentum_initial"]
    table = np.array([row[1:] for row in rows], dtype=float)
    probe = read_probe_csv(str(path))
    assert (probe.grid.p_min, probe.grid.p_max, probe.grid.n_points) == (table[0, 0], table[-1, 0], len(table))
    raw = table[:, 1] + 1j * table[:, 2]
    np.testing.assert_allclose(probe.values, raw / np.sqrt(probe.grid.integrate(np.abs(raw) ** 2)), rtol=1e-15)
    text = path.read_text()
    assert text.splitlines()[-1].startswith("position_final,")
    path.write_text(text + "momentum_initial,0.5,abc,0\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:{text.count(chr(10)) + 1}': cannot parse 'abc'")):
        read_probe_csv(str(path))


@pytest.mark.parametrize("scale", [2.0**600, 2.0**-1000])
def test_file_probe_at_any_scale_prints_the_bytes_of_unit_rows(scale, tmp_path, capsys):
    # Its weight once overflowed (a traceback) or underflowed (a false
    # ZeroNorm); scaling by a power of two first is exact.
    printed = []
    for value in (1.0, scale):
        path = tmp_path / f"{value!r}.csv"
        rows = [f"momentum_initial,{(k - 4) / 400.0!r},{value!r},0" for k in range(9)]
        path.write_text("\n".join(["space,coordinate,re,im", *rows]) + "\n")
        assert main(["shift", "--probe", "file", "--file", str(path), "--aw-re", "2"]) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]


_EXTREME_VALUES = ("5e-324", "1e-300", "1e-100", "1e100", "1e300", "1e308", "-1e308")
_EXTREME_BASES = (
    ["shift", "--aw-re", "2", "--probe", "gaussian"],
    ["shift", "--aw-re", "2", "--probe", "optimal"],
    ["shift", "--aw-re", "2", "--probe", "smoothed", "--smoothing", "30"],
    ["dump", "--aw-re", "2", "--probe", "gaussian"],
    ["dump", "--aw-re", "2", "--probe", "optimal", "--n-range", "2"],
    ["optimize", "--aw-re", "2", "--max-iters", "2", "--n-points", "65"],
)


def _extreme_cases() -> list[list[str]]:
    """Each numeric flag of each command at the extremes of double precision,
    alone or beside a plain value; a later flag overrides the base's."""
    cases = [
        base + [flag, value]
        for base in _EXTREME_BASES
        for flag in ("--g", "--aw-re", "--aw-im", "--width", "--smoothing")
        for value in _EXTREME_VALUES
    ]
    for value in _EXTREME_VALUES:
        for chi, varphi in ((value, value), (value, "0.3"), ("0.3", value)):
            cases.append(["mach-zehnder", "--chi", chi, "--varphi", varphi])
            cases.append(["shift", "--probe", "optimal", "--chi", chi, "--varphi", varphi])
        for pre in (f"1,{value}", f"{value},{value}"):
            cases.append(["shift", "--pre", pre, "--post", "1,0.5", "--obs", "1,0;0,-1"])
        cases.append(["sweep", "--aw-re", "2", "--axis", "coupling_g", "--values", f"0.1,{value}"])
        cases.append(["sweep", "--probe", "optimal", "--chi", "0.3", "--varphi", "0.5",
                      "--axis", "postselection_angle", "--values", f"0.5,{value}"])
        for flag in ("--step", "--tol"):
            cases.append(_EXTREME_BASES[-1] + [flag, value])
    return cases


def test_no_command_ends_in_a_traceback_at_the_extremes_of_its_numeric_flags(capsys):
    # Each case ends as a report (0), a domain error (1) or a configuration
    # error (2).  OverflowError, ZeroDivisionError and ValueError once escaped
    # from grid sizing at couplings of 5e-324, 1e-300 and 1e308, and from the
    # Mach-Zehnder angle sum at 1e308.
    escaped = []
    for argv in _extreme_cases():
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - every escape is the failure reported
            escaped.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
        else:
            assert code in (0, 1, 2), argv
        capsys.readouterr()
    assert escaped == []
