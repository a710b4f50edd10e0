"""Benchmark of ``wva`` end to end (``--trace 0``) and per module (``--trace 1``).

Usage, from the root of a checkout:

    python3 bench/run.py --workload {cli,sweep,dump} --seed N --seconds S --trace {0,1}

Each workload is a closed loop: one client, one operation at a time, in this
process (``sweep``, ``dump``) or in a fresh interpreter per
operation (``cli``).  The seed makes the inputs; ``wva`` is imported from
``src/`` of the checkout and receives only those inputs.  Every output is
checked against references in ``checks.py``.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics.
Scratch files go to ``.bench_runs/`` in the checkout; a traced run leaves its
spans there as ``trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "cpu_s_per_op": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "import.wva_s": "s", "import.numpy_s": "s", "import.scipy_s": "s", "import.modules": "count",
    "cli.parse_s": "s", "cli.format_s": "s", "cli.write_s": "s", "cli.rows": "count",
    "system.weak_value_s": "s", "probe.build_s": "s", "probe.grid_points": "count",
    "probe.integrate_cold_s": "s", "probe.numeric_derivative_s": "s", "probe.position_s": "s",
    "probe.position_evals": "count", "evolution.postselect_s": "s", "expectation.shift_report_s": "s",
    "expectation.shift_rel_err": "ratio", "optimizer.maximize_s": "s", "optimizer.iterations": "count",
    "optimizer.s_per_iteration": "s", "optimizer.gap_rel": "ratio", "optimizer.gauge_fix_s": "s",
    "trace.overhead_s": "s",
}


class Record:
    """One timed operation and how it ended."""

    def __init__(self, op, wall: float, cpu: float, maxrss_kb: int, traced: bool) -> None:
        self.op, self.wall, self.cpu, self.maxrss_kb, self.traced = op, wall, cpu, maxrss_kb, traced
        self.failed = False
        self.error = ""


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(cmd: list[str], stdout_path: Path, stderr_path: Path):
    """Run a child to its end; returns (exit code, its own resource usage)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def measure_setup(name: str, seed: int, workdir: Path) -> float:
    """Wall time of one fresh interpreter that does what precedes the first
    operation: ``import wva``, and for in-process workloads also
    ``import wva.cli`` and the input generation."""
    if name == "cli":
        code = "import wva"
    else:
        code = (
            f"import sys, pathlib; sys.path.insert(0, {str(BENCH)!r}); import wva, wva.cli, workloads; "
            f"workloads.WORKLOADS[{name!r}]({seed}, pathlib.Path({str(workdir)!r}))"
        )
    t0 = perf_counter()
    code_rc, _ = spawn([sys.executable, "-c", code], workdir / "setup.out", workdir / "setup.err")
    if code_rc != 0:
        raise RuntimeError("set-up child failed: " + (workdir / "setup.err").read_text()[-500:])
    return perf_counter() - t0


def _read_outputs(op, returncode: int, stdout: str, stderr: str):
    files = {}
    for path in op.files:
        try:
            files[path] = Path(path).read_text(encoding="utf-8")
        except FileNotFoundError:
            files[path] = ""
    return workloads.Outputs(returncode, stdout, stderr, files)


def run_child_op(op, workdir: Path, traced: bool, spans_path: Path):
    """One ``cli`` operation: a fresh interpreter running ``wva.cli``."""
    if traced:
        cmd = [sys.executable, str(BENCH / "trace_child.py"), str(spans_path), "--", *op.argv]
    else:
        cmd = [sys.executable, "-m", "wva.cli", *op.argv]
    out_path, err_path = workdir / "op.out", workdir / "op.err"
    t0 = perf_counter()
    returncode, usage = spawn(cmd, out_path, err_path)
    wall = perf_counter() - t0
    record = Record(op, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, traced)
    outputs = _read_outputs(op, returncode, out_path.read_text(), err_path.read_text())
    return record, outputs


def run_in_process_op(op, main, traced: bool):
    """One in-process operation: ``wva.cli.main`` with stdout captured."""
    buf = io.StringIO()
    stderr = ""
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    try:
        with redirect_stdout(buf):
            returncode = main(list(op.argv))
    except Exception:  # an operation that raises counts as failed
        returncode, stderr = 1, traceback.format_exc()
    wall = perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    record = Record(op, wall, cpu, after.ru_maxrss, traced)
    return record, _read_outputs(op, returncode, buf.getvalue(), stderr)


def judge(record: Record, outputs) -> bool:
    """Sets ``failed``; returns False when a completed operation's output is wrong."""
    if not record.op.succeeded(outputs):
        record.failed = True
        return True
    try:
        record.op.check(outputs)
    except (checks.CheckFailed, ValueError, KeyError, IndexError) as exc:  # malformed output is wrong output
        record.error = f"{record.op.kind}: {type(exc).__name__}: {exc}"
        return False
    return True


def relabel(chunk: dict, op_index: int) -> dict:
    """A child's trace (operation 0) renumbered as operation ``op_index``."""
    spans = [[name, start, end, parent, op_index] for name, start, end, parent, _ in chunk["spans"]]
    return {
        "spans": spans,
        "tallies": {str(op_index): chunk["tallies"].get("0", {})},
        "counters": {str(op_index): chunk["counters"].get("0", {})},
    }


def run_workload(workload, seconds: float, trace: bool, workdir: Path, setup=None):
    """Warm up, then whole rounds until ``seconds`` of operation time have
    passed.  A traced run alternates untraced and traced rounds.  ``setup``,
    if given, is called ``SETUP_REPEATS`` times between rounds, spread evenly
    over the operation time, so that the set-up samples see the same
    stretches of machine speed as the operations."""
    import wva
    import wva.cli

    records: list[Record] = []
    chunks: list[dict] = []
    errors: list[str] = []
    tracer = tracing.Tracer()
    spans_path = workdir / "spans.json"

    def one(op, traced: bool) -> Record:
        if workload.in_process:
            if traced:
                tracer.begin_op(len(records))
            record, outputs = run_in_process_op(op, wva.cli.main, traced)
        else:
            spans_path.unlink(missing_ok=True)
            record, outputs = run_child_op(op, workdir, traced, spans_path)
            if traced:
                chunks.append(relabel(json.loads(spans_path.read_text()), len(records)))
        if not judge(record, outputs):
            errors.append(record.error)
        return record

    warmup = [one(workload.cycle[i % len(workload.cycle)], False).wall for i in range(workload.warmup)]
    busy = 0.0
    position = 0
    rounds = [0, 0]
    setups: list[float] = []
    while busy < seconds or (trace and 0 in rounds):
        if setup is not None and len(setups) < SETUP_REPEATS and busy >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup())
        traced = trace and rounds[0] > rounds[1]
        saved = tracing.instrument(tracer, wva) if traced and workload.in_process else []
        try:
            for _ in range(workload.round_size):
                record = one(workload.cycle[position % len(workload.cycle)], traced)
                records.append(record)
                busy += record.wall
                position += 1
        finally:
            tracing.restore(saved)
        rounds[int(traced)] += 1
    while setup is not None and len(setups) < SETUP_REPEATS:
        setups.append(setup())
    if workload.in_process:
        chunks.append(tracer.dump())
    return records, chunks, errors, warmup, setups


def import_metrics(workdir: Path) -> dict[str, float]:
    """Cumulative import times from ``python -X importtime -c "import wva"``
    (medians of fresh interpreters) and the module count after ``import wva``."""
    samples: dict[str, list[float]] = {"wva": [], "numpy": [], "scipy": []}
    for _ in range(IMPORTTIME_REPEATS):
        spawn([sys.executable, "-X", "importtime", "-c", "import wva"], workdir / "imp.out", workdir / "imp.err")
        totals = importtime_totals((workdir / "imp.err").read_text())
        for package in samples:
            samples[package].append(totals.get(package, 0.0))
    spawn([sys.executable, "-c", "import sys, wva; print(len(sys.modules))"], workdir / "mods.out", workdir / "mods.err")
    metrics = {f"import.{package}_s": statistics.median(v) for package, v in samples.items()}
    metrics["import.modules"] = float(int((workdir / "mods.out").read_text()))
    return metrics


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def importtime_totals(stderr: str) -> dict[str, float]:
    """Seconds per top-level package: the cumulative times of its outermost
    entries (a package imported in pieces, like ``scipy`` and then
    ``scipy.sparse``, has several)."""
    entries = []
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            entries.append((len(match.group(3)), match.group(4), int(match.group(2))))
    totals: dict[str, float] = {}
    ancestors: list[tuple[int, str]] = []
    # The listing is post-order; reversed, every entry follows its parent.
    for depth, name, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".")[0]
        if all(a.split(".")[0] != package for _, a in ancestors):
            totals[package] = totals.get(package, 0.0) + cumulative_us * 1e-6
        ancestors.append((depth, name))
    return totals


def end_to_end(records: list[Record], setups: list[float], in_process: bool) -> dict[str, float]:
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if in_process else max(r.maxrss_kb for r in records)
    return {
        "setup_s": statistics.median(setups),
        "cpu_s_per_op": sum(r.cpu for r in records) / len(records),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }


def wall_lines(records: list[Record]) -> list[str]:
    """Wall-time figures printed for information: on this kind of shared
    host they spread between runs by more than any bound allows (README)."""
    walls = [r.wall for r in records]
    lines = [f"wall_p50_s {statistics.median(walls):.6g} s, ops_per_s {len(walls) / sum(walls):.6g} 1/s"
             f" over {len(walls)} operations (not gated metrics)"]
    if len(walls) >= 100:
        lines.append(f"wall_p90_s {statistics.quantiles(walls, n=10)[-1]:.6g} s (not a gated metric)")
    return lines


def trace_overhead(records: list[Record]) -> float:
    """Traced minus untraced median wall, per kind of operation; the median
    over kinds, so that a mix of commands compares like with like."""
    diffs = []
    for kind in sorted({r.op.kind for r in records}):
        traced = [r.wall for r in records if r.op.kind == kind and r.traced]
        plain = [r.wall for r in records if r.op.kind == kind and not r.traced]
        if traced and plain:
            diffs.append(statistics.median(traced) - statistics.median(plain))
    return statistics.median(diffs)


def machine_line() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    env = " ".join(f"{k}={os.environ.get(k, 'unset')}" for k in ("OPENBLAS_NUM_THREADS", "WVA_THREADS"))
    return (f"machine: python {platform.python_version()}, numpy {np.__version__}, blas {blas_text}, "
            f"nproc {len(os.sched_getaffinity(0))}, {env}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wva" / "__init__.py").is_file():
        print(f"bench: no wva package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wva
    import wva.cli

    if Path(wva.__file__).resolve().parent != SRC / "wva":
        print(f"bench: imported wva from {wva.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workdir = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.workload == "cli":
            with redirect_stdout(io.StringIO()):
                wva.cli.main(workloads.file_probe_dump_argv(str(workdir / "probe.csv")))
        setup = None if args.trace else (lambda: measure_setup(args.workload, args.seed, workdir))
        records, chunks, errors, warmup, setups = run_workload(workload, args.seconds, bool(args.trace), workdir, setup)
        if args.trace:
            ops: dict[int, dict[str, float]] = {}
            for chunk in chunks:
                ops.update(tracing.per_op_layers(chunk))
            metrics = import_metrics(workdir)
            metrics.update(tracing.layer_metrics(ops))
            metrics["trace.overhead_s"] = trace_overhead(records)
            units = PER_LAYER_UNITS
            RUNS.mkdir(exist_ok=True)
            tracing.write(RUNS / f"trace-{args.workload}-seed{args.seed}.json",
                          {"workload": args.workload, "seed": args.seed, "chunks": chunks})
        else:
            metrics = end_to_end(records, setups, workload.in_process)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r.failed for r in records)
    failed_kinds = sorted({r.op.kind for r in records if r.failed})
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(machine_line())
    print(f"operations: attempted {len(records)}, failed {failed}" + (f" ({', '.join(failed_kinds)})" if failed else ""))
    if warmup:
        print("warm-up walls (s): " + " ".join(f"{w:.4f}" for w in warmup))
    if not args.trace:
        print("\n".join(wall_lines(records)))
    for message in errors[:5]:
        print(f"WRONG OUTPUT {message}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:<28} {value:.6g} {units[name]}")
    result = {
        "correct": not errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
