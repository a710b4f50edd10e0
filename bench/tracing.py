"""Spans around the calls into ``wva``'s public functions, from outside the package.

``instrument`` swaps wrapped functions into the module namespaces that call
them and ``restore`` swaps the originals back.  A span records its name,
start, end, parent and operation id; spans stay in memory until the run
writes them out.  ``format_number`` and CSV row writes are called thousands
of times per operation, so they are tallied per operation (time and count)
rather than given a span each.

The layer of a span is its name.  A layer's time in an operation is the sum
of its spans' self times, a self time being the span's duration minus the
time its child spans cover.  Spans assume one thread (``WVA_THREADS`` unset).
This module imports no numpy, so a traced fresh interpreter imports it where
``wva`` does.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

LAYER_TIMES = {
    "cli.parse_s": "cli.parse",
    "system.weak_value_s": "system.weak_value",
    "probe.build_s": "probe.build",
    "probe.numeric_derivative_s": "probe.numeric_derivative",
    "probe.position_s": "probe.position",
    "evolution.postselect_s": "evolution.postselect",
    "expectation.shift_report_s": "expectation.shift_report",
    "optimizer.maximize_s": "optimizer.maximize",
    "optimizer.gauge_fix_s": "optimizer.gauge_fix",
}
TALLY_TIMES = {"cli.format_s": "cli.format", "cli.write_s": "cli.write"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.tallies: dict[int, dict[str, list[float]]] = {}
        self.counters: dict[int, dict[str, float]] = {}

    def begin_op(self, op: int) -> None:
        self.op = op
        self.tallies[op] = {}
        self.counters[op] = {}

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def tally(self, name: str, seconds: float, count: int) -> None:
        entry = self.tallies[self.op].setdefault(name, [0.0, 0])
        entry[0] += seconds
        entry[1] += count

    def count(self, name: str, value: float, combine=lambda old, new: old + new) -> None:
        counters = self.counters[self.op]
        counters[name] = combine(counters[name], value) if name in counters else value

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "tallies": {str(k): v for k, v in self.tallies.items()},
            "counters": {str(k): v for k, v in self.counters.items()},
        }


def _span(tracer: Tracer, name: str, fn, after=None):
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


class _TimedWriter:
    def __init__(self, writer, tracer: Tracer) -> None:
        self._writer = writer
        self._tracer = tracer

    def writerow(self, row):
        t0 = perf_counter()
        result = self._writer.writerow(row)
        self._tracer.tally("cli.write", perf_counter() - t0, 1)
        return result

    def writerows(self, rows):
        rows = list(rows)
        t0 = perf_counter()
        result = self._writer.writerows(rows)
        self._tracer.tally("cli.write", perf_counter() - t0, len(rows))
        return result


def _grid_points(tracer, args, probe) -> None:
    tracer.count("probe.grid_points", probe.grid.n_points)


def _position_evals(tracer, args, result) -> None:
    tracer.count("probe.position_evals", result.size * args[0].grid.n_points)


def _closed_form_shift(evo) -> float:
    """g (|A|^2 + 1) / (2 Re A), typed out here so tracing imports no numpy."""
    return evo.coupling * (abs(evo.weak.value) ** 2 + 1.0) / (2.0 * evo.weak.value.real)


def _shift_error(tracer, args, report) -> None:
    evo, probe = args
    if probe.label == "optimal":
        closed = _closed_form_shift(evo)
        tracer.count("expectation.shift_rel_err", abs(report.delta_q - closed) / abs(closed), max)


def _optimizer_result(tracer, args, trace) -> None:
    _, evo = args
    last_iter, last_shift, _ = trace.iterations[-1]
    closed = _closed_form_shift(evo)
    tracer.count("optimizer.iterations", last_iter)
    tracer.count("optimizer.gap_rel", abs(last_shift - closed) / abs(closed), max)


def instrument(tracer: Tracer, wva, cold_integrate: bool = False) -> list[tuple]:
    """Install the wrappers; returns what ``restore`` needs to undo them."""
    cli, probe, expectation = wva.cli, wva.probe, wva.expectation

    def build_parser_traced(build):
        def wrapper():
            parser = build()
            parser.parse_args = _span(tracer, "cli.parse", parser.parse_args)
            return parser
        return wrapper

    def format_traced(fn):
        def wrapper(x):
            t0 = perf_counter()
            result = fn(x)
            tracer.tally("cli.format", perf_counter() - t0, 1)
            return result
        return wrapper

    def writer_traced(fn):
        return lambda handle: _TimedWriter(fn(handle), tracer)

    points = [
        (cli, "build_parser", lambda f: _span(tracer, "cli.parse", build_parser_traced(f))),
        (cli, "scenario_from_args", lambda f: _span(tracer, "cli.parse", f)),
        (cli, "scenario_weak_value", lambda f: _span(tracer, "system.weak_value", f)),
        (cli, "compute_weak_value", lambda f: _span(tracer, "system.weak_value", f)),
        (cli, "mach_zehnder_weak_value", lambda f: _span(tracer, "system.weak_value", f)),
        (cli, "optimal_probe", lambda f: _span(tracer, "probe.build", f, _grid_points)),
        (cli, "gaussian_probe", lambda f: _span(tracer, "probe.build", f, _grid_points)),
        (probe, "numeric_derivative", lambda f: _span(tracer, "probe.numeric_derivative", f)),
        (cli, "position_amplitudes", lambda f: _span(tracer, "probe.position", f, _position_evals)),
        (cli, "apply_postselection", lambda f: _span(tracer, "evolution.postselect", f)),
        (expectation, "apply_postselection", lambda f: _span(tracer, "evolution.postselect", f)),
        (cli, "shift_report", lambda f: _span(tracer, "expectation.shift_report", f, _shift_error)),
        (cli, "maximize", lambda f: _span(tracer, "optimizer.maximize", f, _optimizer_result)),
        (cli, "gauge_fix", lambda f: _span(tracer, "optimizer.gauge_fix", f)),
        (cli, "format_number", format_traced),
        (cli, "_csv_writer", writer_traced),
    ]
    if cold_integrate:
        points.append((probe.MomentumGrid, "integrate", lambda f: _first_complex_integrate(tracer, f)))
    saved = []
    for owner, attr, wrap in points:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))
    return saved


def _first_complex_integrate(tracer: Tracer, integrate):
    def wrapper(grid, samples):
        if "probe.integrate_cold" in tracer.counters[tracer.op] or samples.dtype.kind != "c":
            return integrate(grid, samples)
        t0 = perf_counter()
        result = integrate(grid, samples)
        tracer.count("probe.integrate_cold", [grid.n_points, perf_counter() - t0])
        return result
    return wrapper


def restore(saved: list[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def write(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


# ---------------------------------------------------------------- analysis

def per_op_layers(trace: dict) -> dict[int, dict[str, float]]:
    """Self time per layer per operation, plus the tallies and counters."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    ops: dict[int, dict[str, float]] = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        layers = ops.setdefault(int(op), {})
        layers[name] = layers.get(name, 0.0) + (end - start) - child_time[i]
    for op, tallies in trace["tallies"].items():
        layers = ops.setdefault(int(op), {})
        for name, (seconds, count) in tallies.items():
            layers[name] = seconds
            layers[name + ".count"] = count
    for op, counters in trace["counters"].items():
        ops.setdefault(int(op), {}).update(counters)
    return ops


def layer_metrics(ops: dict[int, dict[str, float]]) -> dict[str, float]:
    """Median over the operations in which each layer ran; 0 where none did."""

    def median_of(key: str, pick=lambda v: v) -> float:
        values = [pick(layers[key]) for layers in ops.values() if key in layers]
        return float(statistics.median(values)) if values else 0.0

    metrics = {name: median_of(layer) for name, layer in LAYER_TIMES.items()}
    metrics.update({name: median_of(tally) for name, tally in TALLY_TIMES.items()})
    metrics["cli.rows"] = median_of("cli.write.count")
    metrics["probe.grid_points"] = median_of("probe.grid_points")
    metrics["probe.position_evals"] = median_of("probe.position_evals")
    errors = [layers["expectation.shift_rel_err"] for layers in ops.values() if "expectation.shift_rel_err" in layers]
    metrics["expectation.shift_rel_err"] = max(errors) if errors else 0.0
    gaps = [layers["optimizer.gap_rel"] for layers in ops.values() if "optimizer.gap_rel" in layers]
    metrics["optimizer.gap_rel"] = max(gaps) if gaps else 0.0
    metrics["optimizer.iterations"] = median_of("optimizer.iterations")
    per_step = [layers["optimizer.maximize"] / layers["optimizer.iterations"]
                for layers in ops.values() if layers.get("optimizer.iterations")]
    metrics["optimizer.s_per_iteration"] = float(statistics.median(per_step)) if per_step else 0.0
    cold = [layers["probe.integrate_cold"] for layers in ops.values() if "probe.integrate_cold" in layers]
    if cold:
        largest = max(n for n, _ in cold)
        metrics["probe.integrate_cold_s"] = float(statistics.median(t for n, t in cold if n == largest))
    else:
        metrics["probe.integrate_cold_s"] = 0.0
    return metrics
