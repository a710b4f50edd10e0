"""Tests of the benchmark itself: its references agree with ``wva``, and each
workload's checker accepts a real output and rejects a broken one.

Run from the root of the repository:  python3 -m pytest bench/selftest.py
(The file name keeps it out of the repository's default test collection.)
"""

import io
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import wva  # noqa: E402
import wva.cli  # noqa: E402


def execute(op):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = wva.cli.main(list(op.argv))
    files = {path: Path(path).read_text() for path in op.files}
    return workloads.Outputs(code, buf.getvalue(), "", files)


def with_file(out, path, text):
    return workloads.Outputs(out.returncode, out.stdout, out.stderr, {**out.files, path: text})


def change_digit(value: str) -> str:
    """The same number with its first digit after the leading one changed."""
    i = next(k for k in range(2, len(value)) if value[k].isdigit())
    return value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1 :]


def change_report(stdout: str, label: str) -> str:
    """A report with one digit of the value on the ``label`` line changed."""
    lines = stdout.splitlines(keepends=True)
    i = next(k for k, line in enumerate(lines) if line.split()[:1] == [label])
    value = lines[i].split()[1]
    lines[i] = lines[i].replace(value, change_digit(value), 1)
    return "".join(lines)


@pytest.mark.parametrize("aw", [2.0 + 0j, 1.0 + 1.0j, workloads.A_FIG, 2.0 + 30.0j, -3.0 + 0.5j])
def test_optimal_shift_agrees(aw):
    assert checks.optimal_shift(0.1, aw) == pytest.approx(wva.max_shift(0.1, aw), rel=1e-14)


@pytest.mark.parametrize("g,w,aw", [(0.1, 1.0, 2.0 + 0j), (0.5, 4.0, 1j), (1.0, 8.0, workloads.A_FIG), (0.01, 0.5, 1 + 1j)])
def test_gaussian_shifts_agree(g, w, aw):
    dq, dp, d = checks.gaussian_shifts(g, w, aw)
    ref = wva.gaussian_exact_shifts(g, w, aw)
    assert (dq, dp, d) == pytest.approx((ref.delta_q, ref.delta_p, ref.denominator), rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("chi,phi", [(0.3, 0.9), (1.1, 0.25), (math.pi / 4, math.pi / 4 - 0.1)])
def test_mach_zehnder_agrees(chi, phi):
    assert checks.mach_zehnder_value(chi, phi) == pytest.approx(wva.mach_zehnder_weak_value(chi, phi).value.real, rel=1e-13)


@pytest.mark.parametrize("offset", [1e-3, 7e-3, 3e-2])
def test_sweep_weak_value_agrees(offset):
    theta = 3 * math.pi / 4 + offset
    wv = wva.compute_weak_value(
        wva.SystemState([1, 1]), wva.SystemState([math.cos(theta), math.sin(theta)]), wva.Observable([[1, 0], [0, -1]])
    )
    assert checks.sweep_weak_value(theta) == pytest.approx(wv.value.real, rel=1e-12)
    assert checks.sweep_overlap(theta) == pytest.approx(abs(wv.overlap), rel=1e-12)


def cli_ops(tmp_path):
    cycle = workloads.cli_workload(3, tmp_path).cycle
    with redirect_stdout(io.StringIO()):
        wva.cli.main(workloads.file_probe_dump_argv(str(tmp_path / "probe.csv")))
    return {op.kind: op for op in cycle}


def test_cli_shift_checks(tmp_path):
    ops = cli_ops(tmp_path)
    for kind in ("shift_optimal", "shift_optimal_large", "shift_gaussian", "shift_file"):
        out = execute(ops[kind])
        ops[kind].check(out)
        broken = workloads.Outputs(0, change_report(out.stdout, "delta_q"), "", {})
        with pytest.raises(checks.CheckFailed):
            ops[kind].check(broken)


def test_cli_mach_zehnder_check(tmp_path):
    op = cli_ops(tmp_path)["mach_zehnder"]
    out = execute(op)
    op.check(out)
    with pytest.raises(checks.CheckFailed):
        op.check(workloads.Outputs(0, change_report(out.stdout, "C_w"), "", {}))


def test_cli_figure_dump_check(tmp_path):
    op = cli_ops(tmp_path)["figure_dump"]
    out = execute(op)
    op.check(out)
    path, text = next(iter(out.files.items()))
    lines = text.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("momentum_initial"))
    space, coord, re_part, im_part = lines[row].strip().split(",")
    lines[row] = f"{space},{coord},{float(re_part) + 0.01!r},{im_part}\n"
    with pytest.raises(checks.CheckFailed):
        op.check(with_file(out, path, "".join(lines)))


def test_cli_missing_config_is_judged(tmp_path):
    op = cli_ops(tmp_path)["missing_config"]
    typed = workloads.Outputs(2, "", f"ConfigError: {tmp_path}/missing.cfg: no such file\n", {})
    traceback = workloads.Outputs(1, "", "Traceback (most recent call last):\nFileNotFoundError: x\n", {})
    assert op.succeeded(typed)
    assert not op.succeeded(traceback)


def test_sweep_check(tmp_path):
    op = workloads.sweep_workload(5, tmp_path).cycle[0]
    out = execute(op)
    op.check(out)
    path, text = next(iter(out.files.items()))
    lines = text.splitlines(keepends=True)
    fields = lines[3].split(",")
    fields[2] = change_digit(fields[2])
    lines[3] = ",".join(fields)
    with pytest.raises(checks.CheckFailed):
        op.check(with_file(out, path, "".join(lines)))


def test_dump_check(tmp_path):
    op = workloads.dump_workload(5, tmp_path).cycle[0]
    out = execute(op)
    op.check(out)
    path, text = next(iter(out.files.items()))
    lines = text.splitlines(keepends=True)
    finals = [i for i, line in enumerate(lines) if line.startswith("momentum_final")]
    row = finals[len(finals) // 2]
    space, coord, re_part, im_part = lines[row].strip().split(",")
    lines[row] = f"{space},{coord},{float(re_part) * (1 + 1e-6)!r},{im_part}\n"
    with pytest.raises(checks.CheckFailed):
        op.check(with_file(out, path, "".join(lines)))


def test_optimize_check(tmp_path):
    op = cli_ops(tmp_path)["optimize"]
    out = execute(op)
    op.check(out)
    trace_path = op.files[0]
    lines = out.files[trace_path].splitlines()
    index, objective, _ = lines[-1].split(",")
    stalled = "\n".join(lines[:-1] + [f"{index},{objective},0.001"]) + "\n"
    with pytest.raises(checks.CheckFailed):
        op.check(with_file(out, trace_path, stalled))
    with pytest.raises(checks.CheckFailed):
        op.check(workloads.Outputs(0, out.stdout.replace("converged      true", "converged      false"), "", out.files))


def test_every_workload_repeats_from_its_seed(tmp_path):
    for make in workloads.WORKLOADS.values():
        assert [op.argv for op in make(11, tmp_path).cycle] == [op.argv for op in make(11, tmp_path).cycle]
        assert [op.argv for op in make(11, tmp_path).cycle] != [op.argv for op in make(12, tmp_path).cycle]


def test_importtime_totals_sum_outermost_pieces():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:       100 |        150 |   scipy",
        "import time:        70 |         70 |     scipy.sparse._base",
        "import time:        30 |        100 |   scipy.sparse",
        "import time:        10 |        560 | wva",
    ])
    totals = run.importtime_totals(text)
    assert totals["wva"] == pytest.approx(560e-6)
    assert totals["numpy"] == pytest.approx(300e-6)
    assert totals["scipy"] == pytest.approx(250e-6)


def test_self_time_subtracts_children():
    trace = {
        "spans": [
            ["expectation.shift_report", 0.0, 10.0, -1, 0],
            ["evolution.postselect", 2.0, 5.0, 0, 0],
            ["expectation.shift_report", 20.0, 21.0, -1, 1],
        ],
        "tallies": {"0": {"cli.format": [0.5, 7]}},
        "counters": {},
    }
    ops = tracing.per_op_layers(trace)
    assert ops[0]["expectation.shift_report"] == pytest.approx(7.0)
    assert ops[0]["evolution.postselect"] == pytest.approx(3.0)
    assert ops[0]["cli.format.count"] == 7
    metrics = tracing.layer_metrics(ops)
    assert metrics["expectation.shift_report_s"] == pytest.approx(4.0)
    assert metrics["evolution.postselect_s"] == pytest.approx(3.0)
    assert metrics["optimizer.maximize_s"] == 0.0
