"""Command-line front end: shift reports, wavefunction dumps, parameter
sweeps, optimizer runs, and interferometer weak values.

Scenarios are described by a flat key=value config file plus command-line
overrides (flags win).  One table of fields defines every key: its flag, its
parser and domain check, and its line in a serialized scenario.  All numeric
output is printed with 12 significant digits, scientific notation outside
[1e-3, 1e6), so CSV artifacts are stable regression fixtures.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .analytic import gaussian_exact_shifts, max_shift
from .errors import WvaError
from .evolution import PostSelectedEvolution, apply_postselection
from .expectation import shift_report
from .optimizer import OptimizerConfig, gauge_fix, maximize
from .probe import (
    MomentumGrid,
    ProbeWavefunction,
    optimal_probe,
    gaussian_probe,
    position_amplitudes,
    recommended_gaussian_grid,
    recommended_support_points,
    smoothed_optimal_probe,
    smoothed_support_grid,
)
from .system import (
    Observable,
    SystemState,
    WeakValue,
    compute_weak_value,
    mach_zehnder_setup,
    mach_zehnder_weak_value,
)


class ConfigError(Exception):
    """Invalid scenario configuration (bad key, value, or combination)."""


def format_number(x: float) -> str:
    """12 significant digits; scientific for |x| < 1e-3 or >= 1e6."""
    if x == 0:
        return "0"
    ax = abs(x)
    if ax < 1e-3 or ax >= 1e6:
        return f"{x:.11e}"
    return f"{x:.12g}"


def _open(path: str, mode: str = "r"):
    """Open a user-named file; a missing or unwritable one is a configuration error."""
    try:
        return open(path, mode, newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc


def _checked(convert: Callable, ok: Callable, need: str) -> Callable:
    """Field parser: ``convert`` the text (or number), then require ``ok`` of it."""

    def parse(text, key: str):
        try:
            value = convert(text)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field '{key}': cannot parse {text!r}") from exc
        if not ok(value):
            raise ConfigError(f"field '{key}': must be {need}, got {text!r}")
        return value

    return parse


_PROBE_KINDS = ("gaussian", "optimal", "smoothed", "file")

_finite = _checked(float, math.isfinite, "finite")
_positive = _checked(float, lambda x: 0.0 < x < math.inf, "positive and finite")
_count = _checked(int, lambda n: n >= 1, "a positive integer")
_odd_count = _checked(int, lambda n: n >= 3 and n % 2 == 1, "odd and at least 3")
_entry = _checked(lambda text: complex(text.strip()), cmath.isfinite, "a finite complex number")
_probe_kind = _checked(str, _PROBE_KINDS.__contains__, f"one of {_PROBE_KINDS}")


def _text(text: str, key: str) -> str:
    return text


def _vector(text: str, key: str) -> np.ndarray:
    parts = [t for t in text.split(",") if t.strip()]
    if len(parts) < 2:
        raise ConfigError(f"field '{key}': need at least two comma-separated entries")
    return np.array([_entry(t, key) for t in parts])


def _matrix(text: str, key: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    matrix = [_vector(r, key) for r in rows]
    width = len(matrix[0])
    if any(len(r) != width for r in matrix):
        raise ConfigError(f"field '{key}': ragged matrix rows")
    return np.array(matrix)


class _Field(NamedTuple):
    key: str  # config key; the flag is --key with '-' for '_'
    attr: str  # ScenarioConfig field; "aw.real"/"aw.imag" are the parts of ``aw``
    parse: Callable  # (text or number, key) -> value; raises ConfigError
    help: str


# The order is that of serialized scenarios and of the flags in --help; the
# shift CSV opens with the first four keys.
_FIELDS = (
    _Field("probe", "probe", _probe_kind, f"probe family: {', '.join(_PROBE_KINDS)}"),
    _Field("g", "coupling", _positive, "coupling constant"),
    _Field("aw_re", "aw.real", _finite, "weak value, real part"),
    _Field("aw_im", "aw.imag", _finite, "weak value, imaginary part"),
    _Field("chi", "chi", _finite, "injection angle (radians)"),
    _Field("varphi", "varphi", _finite, "polarizer angle (radians)"),
    _Field("pre", "pre", _vector, "pre-selected state, comma-separated complex entries"),
    _Field("post", "post", _vector, "post-selected state, comma-separated complex entries"),
    _Field("obs", "obs", _matrix, "observable matrix, ';'-separated rows"),
    _Field("width", "width", _positive, "gaussian momentum width"),
    _Field("smoothing", "smoothing", _positive, "smoothing rate for probe=smoothed"),
    _Field("file", "probe_file", _text, "probe CSV for probe=file"),
    _Field("n_points", "n_points", _odd_count, "grid points (odd)"),
    _Field("support_m", "support_extent", _count, "support multiplier"),
    _Field("n_range", "n_range", _count, "discrete position range"),
    _Field("output", "output", _text, "output CSV path (default: stdout or none)"),
)

_CONFIG_KEYS = frozenset(field.key for field in _FIELDS)


def _show(value) -> str:
    """Config-file text of a field value, read back exactly by its parser."""
    if isinstance(value, np.ndarray) and value.ndim == 2:
        return ";".join(_show(row) for row in value)
    if isinstance(value, np.ndarray):
        return ",".join(repr(complex(z)) for z in value)
    return str(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified measurement scenario.

    Exactly one selection mode (explicit weak value, interferometer angles,
    or explicit state/observable vectors) and exactly one probe choice.
    """

    coupling: float = 0.1
    aw: complex | None = None
    chi: float | None = None
    varphi: float | None = None
    pre: np.ndarray | None = None
    post: np.ndarray | None = None
    obs: np.ndarray | None = None
    probe: str = "gaussian"
    width: float = 1.0
    smoothing: float | None = None
    probe_file: str | None = None
    n_points: int | None = None
    support_extent: int = 1
    n_range: int = 16
    output: str | None = None

    def selection_mode(self) -> str:
        explicit = self.aw is not None
        angles = self.chi is not None or self.varphi is not None
        vectors = self.pre is not None or self.post is not None or self.obs is not None
        chosen = [m for m, on in (("aw", explicit), ("mach_zehnder", angles), ("vectors", vectors)) if on]
        if len(chosen) != 1:
            raise ConfigError(
                "exactly one selection mode required: aw_re/aw_im, chi/varphi, or pre/post/obs"
            )
        mode = chosen[0]
        if mode == "mach_zehnder" and (self.chi is None or self.varphi is None):
            raise ConfigError("mach-zehnder selection needs both chi and varphi")
        if mode == "vectors" and (self.pre is None or self.post is None or self.obs is None):
            raise ConfigError("vector selection needs pre, post, and obs")
        return mode

    def validate(self) -> None:
        """Checks across fields; each field's own domain is checked by its parser."""
        self.selection_mode()
        if (self.probe == "smoothed") != (self.smoothing is not None):
            raise ConfigError("probe=smoothed needs the smoothing key, and no other probe takes it")
        if (self.probe == "file") != bool(self.probe_file):
            raise ConfigError("probe=file needs the file key, and no other probe takes it")

    def to_text(self) -> str:
        """Serialize as a config file; parsing it back yields an identical
        scenario (the round-trip contract)."""
        lines = []
        for field in _FIELDS:
            name, _, part = field.attr.partition(".")
            value = getattr(self, name)
            if value is not None:
                lines.append(f"{field.key}={_show(getattr(value, part) if part else value)}")
        return "\n".join(lines) + "\n"


def load_config_file(path: str) -> dict[str, str]:
    """Parse a UTF-8 key=value file ('#' comments, blank lines allowed)."""
    table: dict[str, str] = {}
    with _open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            table[key] = value.strip()
    return table


def scenario_from_table(table: dict[str, str]) -> ScenarioConfig:
    """Build and validate a scenario from a flat key=value mapping."""
    kwargs: dict = {}
    for field in _FIELDS:
        if field.key in table:
            kwargs[field.attr] = field.parse(table[field.key], field.key)
    if "aw.real" in kwargs or "aw.imag" in kwargs:
        kwargs["aw"] = complex(kwargs.pop("aw.real", 0.0), kwargs.pop("aw.imag", 0.0))
    config = ScenarioConfig(**kwargs)
    config.validate()
    return config


def scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    """Merge config file (if any) with command-line overrides; flags win."""
    table: dict[str, str] = {}
    if getattr(args, "config", None):
        table.update(load_config_file(args.config))
    for field in _FIELDS:
        value = getattr(args, field.key)
        if value is not None:
            table[field.key] = value
    return scenario_from_table(table)


def scenario_weak_value(config: ScenarioConfig) -> WeakValue:
    mode = config.selection_mode()
    if mode == "aw":
        return WeakValue.from_value(config.aw)
    if mode == "mach_zehnder":
        pre, post, obs = mach_zehnder_setup(config.chi, config.varphi)
        return compute_weak_value(pre, post, obs)
    try:
        pre, post, obs = SystemState(config.pre), SystemState(config.post), Observable(config.obs)
    except ValueError as exc:
        raise ConfigError(f"pre/post/obs: {exc}") from exc
    return compute_weak_value(pre, post, obs)


_DUMP_HEADER = ["space", "coordinate", "re", "im"]


def read_probe_csv(path: str) -> ProbeWavefunction:
    """Load a probe from a dump file (its initial momentum-space rows)."""
    coords: list[float] = []
    values: list[complex] = []
    with _open(path) as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != _DUMP_HEADER:
            raise ConfigError(f"{path}: expected header {','.join(_DUMP_HEADER)}")
        for row in reader:
            if row["space"] == "momentum_initial":
                where = f"{path}:{reader.line_num}"
                q, re_part, im_part = (_finite(row[name], where) for name in _DUMP_HEADER[1:])
                coords.append(q)
                values.append(complex(re_part, im_part))
    if len(coords) < 5:
        raise ConfigError(f"{path}: the derivative stencil needs five momentum_initial samples")
    if len(coords) % 2 == 0:
        raise ConfigError(f"{path}: momentum sample count must be odd")
    p = np.array(coords)
    spacing = np.diff(p)
    if spacing.min() <= 0 or (spacing.max() - spacing.min()) > 1e-6 * spacing.mean():
        raise ConfigError(f"{path}: momentum samples must be uniformly increasing")
    grid = MomentumGrid(p[0], p[-1], len(coords))
    return ProbeWavefunction.normalized(grid, np.array(values), label="file")


def scenario_probe(config: ScenarioConfig, weak_value: WeakValue) -> ProbeWavefunction:
    if config.probe == "gaussian":
        if config.n_points is None:
            grid = recommended_gaussian_grid(config.coupling, config.width)
        else:
            half = 7.5 * config.width
            grid = MomentumGrid(-half, half, config.n_points)
        return gaussian_probe(config.width, grid)
    if config.probe == "optimal":
        n = config.n_points
        if n is None:
            n = recommended_support_points(weak_value.value, config.support_extent)
        return optimal_probe(config.coupling, weak_value.value, n, config.support_extent)
    if config.probe == "smoothed":
        grid = smoothed_support_grid(
            config.coupling, config.smoothing, config.n_points or 4097
        )
        return smoothed_optimal_probe(config.coupling, weak_value.value, config.smoothing, grid)
    return read_probe_csv(config.probe_file)


def analytic_reference(
    config: ScenarioConfig, weak_value: WeakValue
) -> tuple[float | None, float | None]:
    """Closed-form (delta_q, delta_p) reference for the scenario's probe."""
    if config.probe == "gaussian":
        prediction = gaussian_exact_shifts(config.coupling, config.width, weak_value.value)
        return prediction.delta_q, prediction.delta_p
    if config.probe in ("optimal", "smoothed"):
        return max_shift(config.coupling, weak_value.value), None
    return None, None


def _csv_writer(handle):
    return csv.writer(handle, lineterminator="\n")


@contextmanager
def _csv_output(path: str | None):
    """CSV writer on the file at ``path``, or on stdout when no path is set."""
    if not path:
        yield _csv_writer(sys.stdout)
        return
    with _open(path, "w") as handle:
        yield _csv_writer(handle)


def _optional(value: float | None) -> str:
    return "" if value is None else format_number(value)


def cmd_shift(config: ScenarioConfig) -> int:
    wv = scenario_weak_value(config)
    evo = PostSelectedEvolution(config.coupling, wv)
    probe = scenario_probe(config, wv)
    report = shift_report(evo, probe)
    ref_q, ref_p = analytic_reference(config, wv)
    diff_q = None if ref_q is None else abs(report.delta_q - ref_q)
    diff_p = None if ref_p is None else abs(report.delta_p - ref_p)

    print(f"probe          {probe.label}")
    print(f"g              {format_number(config.coupling)}")
    print(f"weak_value     {format_number(wv.value.real)} {format_number(wv.value.imag)}j")
    print(f"q_initial      {format_number(report.q_initial)}")
    print(f"q_final        {format_number(report.q_final)}")
    print(f"p_initial      {format_number(report.p_initial)}")
    print(f"p_final        {format_number(report.p_final)}")
    for name, value, ref, diff in (
        ("delta_q", report.delta_q, ref_q, diff_q),
        ("delta_p", report.delta_p, ref_p, diff_p),
    ):
        if ref is None:
            print(f"{name}        {format_number(value)}")
        else:
            print(
                f"{name}        {format_number(value)}  analytic {format_number(ref)}"
                f"  |diff| {format_number(diff)}"
            )
    print(f"weight         {format_number(report.weight)}")

    if config.output:
        # The scenario as run, under the first four config keys.
        scenario = (
            probe.label,
            format_number(config.coupling),
            format_number(wv.value.real),
            format_number(wv.value.imag),
        )
        columns = [
            *zip((field.key for field in _FIELDS), scenario),
            ("q_initial", format_number(report.q_initial)),
            ("q_final", format_number(report.q_final)),
            ("p_initial", format_number(report.p_initial)),
            ("p_final", format_number(report.p_final)),
            ("delta_q", format_number(report.delta_q)),
            ("delta_p", format_number(report.delta_p)),
            ("weight", format_number(report.weight)),
            ("analytic_delta_q", _optional(ref_q)),
            ("analytic_delta_p", _optional(ref_p)),
            ("abs_diff_delta_q", _optional(diff_q)),
            ("abs_diff_delta_p", _optional(diff_p)),
        ]
        with _csv_output(config.output) as writer:
            writer.writerow([name for name, _ in columns])
            writer.writerow([value for _, value in columns])
    return 0


def _sample_rows(space: str, coordinates, values) -> list[list[str]]:
    return [
        [space, format_number(q), format_number(v.real), format_number(v.imag)]
        for q, v in zip(coordinates, values)
    ]


def _dump_rows(config: ScenarioConfig) -> list[list[str]]:
    wv = scenario_weak_value(config)
    evo = PostSelectedEvolution(config.coupling, wv)
    probe = scenario_probe(config, wv)
    evolved = apply_postselection(evo, probe)
    final_values = evolved.values / math.sqrt(evolved.weight)
    final_probe = ProbeWavefunction.normalized(probe.grid, final_values, label="final")

    if config.probe in ("optimal", "smoothed"):
        # Discrete position samples on the comb q = 2 g n.
        positions = 2.0 * config.coupling * np.arange(-config.n_range, config.n_range + 1)
    else:
        # Continuous position samples covering initial and shifted densities.
        sigma = 1.0 / (2.0 * config.width) if config.probe == "gaussian" else 2.0
        ref_q, _ = analytic_reference(config, wv)
        center = ref_q if ref_q is not None else 0.0
        lo = min(0.0, center) - 8.0 * sigma
        hi = max(0.0, center) + 8.0 * sigma
        positions = np.linspace(lo, hi, 801)
    return [
        *_sample_rows("momentum_initial", probe.grid.points, probe.values),
        *_sample_rows("momentum_final", probe.grid.points, final_values),
        *_sample_rows("position_initial", positions, position_amplitudes(probe, positions)),
        *_sample_rows("position_final", positions, position_amplitudes(final_probe, positions)),
    ]


def cmd_dump(config: ScenarioConfig) -> int:
    rows = _dump_rows(config)
    with _csv_output(config.output) as writer:
        writer.writerow(_DUMP_HEADER)
        writer.writerows(rows)
    return 0


_SWEEP_AXES = ("postselection_angle", "smoothing_s", "coupling_g", "grid_n")


def _parsed(config: ScenarioConfig, **changes) -> ScenarioConfig:
    """``replace`` with each new value checked by its field's parser."""
    for field in _FIELDS:
        if field.attr in changes:
            changes[field.attr] = field.parse(changes[field.attr], field.key)
    return replace(config, **changes)


def _sweep_scenario(config: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    if axis == "coupling_g":
        return _parsed(config, coupling=value)
    if axis == "smoothing_s":
        if config.probe != "smoothed":
            raise ConfigError("axis=smoothing_s needs probe=smoothed")
        return _parsed(config, smoothing=value)
    if axis == "grid_n":
        n = int(round(value))
        if n % 2 == 0:
            n += 1
        return replace(config, n_points=max(n, 3))
    # postselection_angle
    if config.selection_mode() == "mach_zehnder":
        return replace(config, varphi=value)
    if config.selection_mode() == "vectors":
        if config.pre is None or len(config.pre) != 2:
            raise ConfigError("postselection_angle sweep needs a two-level explicit selection")
        return replace(config, post=np.array([math.cos(value), math.sin(value)]))
    raise ConfigError("postselection_angle sweep needs mach-zehnder or vector selection")


def _sweep_row(config: ScenarioConfig, axis: str, value: float) -> list[str]:
    row = [axis, format_number(value)]
    try:
        variant = _sweep_scenario(config, axis, value)
        variant.validate()
        wv = scenario_weak_value(variant)
        evo = PostSelectedEvolution(variant.coupling, wv)
        probe = scenario_probe(variant, wv)
        report = shift_report(evo, probe)
        ref_q, _ = analytic_reference(variant, wv)
        overlap_q = (
            format_number(abs(wv.overlap) * report.q_final)
            if axis == "postselection_angle"
            else ""
        )
        row += [
            format_number(report.delta_q),
            format_number(report.delta_p),
            format_number(report.weight),
            _optional(ref_q),
            overlap_q,
            "",
        ]
    except (WvaError, ConfigError) as exc:
        row += ["", "", "", "", "", type(exc).__name__]
    return row


def _sweep_values(args: argparse.Namespace) -> list[float]:
    if args.values:
        try:
            values = [float(t) for t in args.values.split(",") if t.strip()]
        except ValueError as exc:
            raise ConfigError(f"--values: cannot parse {args.values!r}") from exc
    else:
        if args.start is None or args.stop is None or args.count is None:
            raise ConfigError("sweep needs either --values or --start/--stop/--count")
        if args.count < 2:
            raise ConfigError("sweep needs at least 2 samples")
        values = list(np.linspace(args.start, args.stop, args.count))
    if len(values) < 2:
        raise ConfigError("sweep needs at least 2 samples")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError("sweep values must be finite")
    return values


def cmd_sweep(config: ScenarioConfig, axis: str, values: list[float]) -> int:
    rows = [_sweep_row(config, axis, value) for value in values]
    with _csv_output(config.output) as writer:
        writer.writerow(
            [
                "axis",
                "axis_value",
                "delta_q",
                "delta_p",
                "weight",
                "analytic_delta_q",
                "overlap_times_q_final",
                "error",
            ]
        )
        writer.writerows(rows)
    return 0 if all(row[-1] == "" for row in rows) else 1


def cmd_optimize(config: ScenarioConfig, args: argparse.Namespace) -> int:
    wv = scenario_weak_value(config)
    evo = PostSelectedEvolution(config.coupling, wv)
    n = config.n_points if config.n_points is not None else 513
    grid = MomentumGrid.for_support(config.coupling, n, config.support_extent)
    optimizer_config = OptimizerConfig(
        grid=grid,
        max_iters=args.max_iters,
        step=args.step,
        tol=args.tol,
        seed=args.seed,
        init=args.init,
    )
    trace = maximize(optimizer_config, evo)
    reference = max_shift(config.coupling, wv.value)
    last_iter, last_objective, last_norm = trace.iterations[-1]

    print(f"converged      {str(trace.converged).lower()}")
    print(f"iterations     {last_iter}")
    print(f"objective      {format_number(last_objective)}")
    print(f"reference      {format_number(reference)}")
    print(f"abs_gap        {format_number(abs(last_objective - reference))}")
    print(f"grad_norm      {format_number(last_norm)}")

    if config.output:
        with _csv_output(config.output) as writer:
            writer.writerow(["iter", "objective", "grad_norm"])
            for index, value, norm in trace.iterations:
                writer.writerow([str(index), format_number(value), format_number(norm)])
    if args.probe_output:
        fixed = gauge_fix(trace.final_probe)
        with _csv_output(args.probe_output) as writer:
            writer.writerow(_DUMP_HEADER)
            writer.writerows(_sample_rows("momentum_initial", grid.points, fixed.values))
    return 0


def cmd_mach_zehnder(chi: float, varphi: float) -> int:
    wv = mach_zehnder_weak_value(chi, varphi)
    print(f"C_w            {format_number(wv.value.real)} {format_number(wv.value.imag)}j")
    a_w = 2.0 * wv.value - 1.0
    print(f"A_w            {format_number(a_w.real)} {format_number(a_w.imag)}j")
    print(f"overlap        {format_number(wv.overlap.real)} {format_number(wv.overlap.imag)}j")
    print(f"success_prob   {format_number(wv.success_probability)}")
    return 0


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value scenario file")
    for field in _FIELDS:
        parser.add_argument("--" + field.key.replace("_", "-"), help=field.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wva",
        description="Weak-measurement probe shifts, wavefunction dumps, sweeps, optimizer runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("shift", "compute a shift report and compare with the closed forms"),
        ("dump", "emit wavefunction samples as CSV"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_scenario_arguments(p)

    p_sweep = sub.add_parser("sweep", help="sweep one axis, one CSV row per sample")
    _add_scenario_arguments(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    p_sweep.add_argument("--start", type=float)
    p_sweep.add_argument("--stop", type=float)
    p_sweep.add_argument("--count", type=int)
    p_sweep.add_argument("--values", help="comma-separated explicit axis values")

    p_opt = sub.add_parser("optimize", help="variational search for the optimal probe")
    _add_scenario_arguments(p_opt)
    p_opt.add_argument("--max-iters", dest="max_iters", type=int, default=4000)
    p_opt.add_argument("--step", type=float, default=1.0)
    p_opt.add_argument("--tol", type=float, default=1e-5)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--init", choices=["gaussian", "random"], default="gaussian")
    p_opt.add_argument("--probe-output", dest="probe_output", help="gauge-fixed probe CSV")

    p_mz = sub.add_parser("mach-zehnder", help="print the interferometer weak value")
    p_mz.add_argument("--chi", type=float, required=True)
    p_mz.add_argument("--varphi", type=float, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "mach-zehnder":
            return cmd_mach_zehnder(args.chi, args.varphi)
        config = scenario_from_args(args)
        if args.command == "shift":
            return cmd_shift(config)
        if args.command == "dump":
            return cmd_dump(config)
        if args.command == "sweep":
            return cmd_sweep(config, args.axis, _sweep_values(args))
        if args.command == "optimize":
            return cmd_optimize(config, args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2
    except WvaError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
