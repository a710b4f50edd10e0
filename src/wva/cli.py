"""Command-line front end: shift reports, wavefunction dumps, parameter
sweeps, optimizer runs, and interferometer weak values.

Scenarios are described by a flat key=value config file plus command-line
overrides (flags win).  One table of fields defines every key: its flag, its
parser and domain check, its line in a serialized scenario, and which commands
read it.  All numeric output is printed with 12 significant digits, scientific
notation outside [1e-3, 1e6), so CSV artifacts are stable regression fixtures.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import itertools
import math
import os
import re
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from .analytic import gaussian_exact_shifts, max_shift, optimal_initial_momentum
from .errors import WvaError
from .evolution import PostSelectedEvolution, apply_postselection
from .expectation import ShiftReport, optimal_shift_reports, shift_report
from .optimizer import OptimizerConfig, gauge_fix, maximize
from .probe import (
    MomentumGrid,
    ProbeWavefunction,
    check_point_budget,
    optimal_probe,
    gaussian_probe,
    position_amplitudes,
    recommended_support_points,
    smoothed_optimal_probe,
)
from .system import (
    SCALE_RANGE,
    Observable,
    SystemState,
    WeakValue,
    _angle_amplitudes,
    _selected,
    _weak_value,
    all_finite,
    compute_weak_value,
    mach_zehnder_setup,
    mach_zehnder_weak_value,
)


class ConfigError(Exception):
    """Invalid scenario configuration (bad key, value, or combination)."""


# Number formats by kind: zero (-0.0 included), scientific and general.  The
# zero format is the literal "0" and takes no argument of a ``%`` format.
_FORMATS = ("0", "%.11e", "%.12g")
_SCIENTIFIC_BELOW, _SCIENTIFIC_FROM = 1e-3, 1e6


def format_number(x: float) -> str:
    """12 significant digits; scientific for |x| < 1e-3 or >= 1e6."""
    if x == 0:
        return _FORMATS[0]
    if abs(x) < _SCIENTIFIC_BELOW or abs(x) >= _SCIENTIFIC_FROM:
        return _FORMATS[1] % x
    return _FORMATS[2] % x


@cache
def _line_formats(label: str, n_columns: int) -> np.ndarray:
    """The CSV line format for each combination of the kinds of its cells,
    indexed by the kinds read as base-3 digits, first column first."""
    lines = (
        ",".join((label.replace("%", "%%"), *cells)) + "\n"
        for cells in itertools.product(_FORMATS, repeat=n_columns)
    )
    formats = np.array(list(lines), dtype=object)
    formats.flags.writeable = False  # shared by every call
    return formats


def _csv_block(label: str, *columns: np.ndarray) -> str:
    """CSV lines ``label,x1,x2,...``, one per row of the float ``columns``;
    the same text as :func:`format_number` on every cell, written by one
    ``%`` format.  ``label`` is a plain CSV field: no comma, quote or line
    break."""
    table = np.column_stack(columns)
    size = np.abs(table)
    kinds = np.where(
        table == 0, 0, np.where((size < _SCIENTIFIC_BELOW) | (size >= _SCIENTIFIC_FROM), 1, 2)
    )
    digits = 3 ** np.arange(table.shape[1] - 1, -1, -1)
    template = "".join(_line_formats(label, table.shape[1])[kinds @ digits].tolist())
    return template % tuple(table[kinds != 0].tolist())


def _file_error(path: str, exc: OSError) -> ConfigError:
    return ConfigError(f"{path}: {exc.strerror or exc}")


@dataclass(frozen=True)
class _Output:
    """A user-named file open for writing, whose failed write is a
    configuration error naming it."""

    handle: TextIO
    path: str

    def write(self, text: str) -> int:
        try:
            return self.handle.write(text)
        except OSError as exc:
            raise _file_error(self.path, exc) from exc


@contextmanager
def _open(path: str, mode: str = "r"):
    """Open a user-named UTF-8 file; one that cannot be opened, read, written
    or closed, or a read one that is not UTF-8, is a configuration error.  A
    byte-order mark at the start of a file read is skipped; files are written
    without one, through an :class:`_Output`, so that an error raised by other
    code in the ``with`` block is not taken for this file's."""
    try:
        handle = open(path, mode, newline="", encoding="utf-8-sig" if mode == "r" else "utf-8")
    except OSError as exc:
        raise _file_error(path, exc) from exc
    try:
        if mode != "r":
            yield _Output(handle, path)
            return
        try:
            yield handle
        except UnicodeDecodeError as exc:  # text is decoded as it is read
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except OSError as exc:
            raise _file_error(path, exc) from exc
    finally:
        try:
            handle.close()  # writes what is still buffered
        except OSError as exc:
            raise _file_error(path, exc) from exc


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
_scale = _checked(
    float, lambda x: SCALE_RANGE[0] <= x <= SCALE_RANGE[1], "within [{:g}, {:g}]".format(*SCALE_RANGE)
)
_count = _checked(int, lambda n: n >= 1, "a positive integer")
_odd_count = _checked(int, lambda n: n >= 3 and n % 2 == 1, "odd and at least 3")
_entry = _checked(lambda text: complex(text.strip()), cmath.isfinite, "a finite complex number")
_probe_kind = _checked(str, _PROBE_KINDS.__contains__, f"one of {_PROBE_KINDS}")
_path = _checked(str, lambda path: path and "\0" not in path, "a non-empty path with no NUL byte")


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
    _Field("width", "width", _scale, "gaussian momentum width"),
    _Field("smoothing", "smoothing", _scale, "smoothing rate of the smoothed probe"),
    _Field("file", "probe_file", _path, "probe CSV, as written by dump"),
    _Field("n_points", "n_points", _odd_count, "odd count of p-grid points (shift and sweep certify 4k + 1)"),
    _Field("support_m", "support_extent", _count, "support extent in periods pi/g"),
    _Field("n_range", "n_range", _count, "discrete positions q = 2gn, |n| <= n_range"),
    _Field("output", "output", _path, "output CSV path (default: stdout or none)"),
)

_CONFIG_KEYS = frozenset(field.key for field in _FIELDS)

# The probes with which ``shift`` (and each ``sweep`` row), ``dump`` and
# ``optimize`` read each key that only some scenarios read; a command absent
# from a key's entry never reads it.  Only a Gaussian probe is sampled on a set
# p-grid in a shift report: an optimal probe reports it on theta nodes, a
# smoothed one on the count of its resolution law, a file probe on its own
# grid.  A dump samples every probe but a file one on a set p-grid, and only
# the comb probes on discrete positions.  ``optimize`` searches its own probe.
_READ_BY: dict[str, dict[str, tuple[str, ...]]] = {
    "width": {"shift": ("gaussian",), "dump": ("gaussian",)},
    "smoothing": {"shift": ("smoothed",), "dump": ("smoothed",)},
    "file": {"shift": ("file",), "dump": ("file",)},
    "n_points": {"shift": ("gaussian",), "dump": ("gaussian", "optimal", "smoothed"), "optimize": _PROBE_KINDS},
    "support_m": {"shift": ("optimal",), "dump": ("optimal",), "optimize": _PROBE_KINDS},
    "n_range": {"dump": ("optimal", "smoothed")},
}


def _help(field: _Field) -> str:
    """The field's --help text, with the commands and probes that read it."""
    uses = [
        ("shift, sweep" if command == "shift" else command)
        + ("" if probes == _PROBE_KINDS else f" with probe={'/'.join(probes)}")
        for command, probes in _READ_BY.get(field.key, {}).items()
    ]
    return f"{field.help} (read by {'; '.join(uses)})" if uses else field.help


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
        if (self.probe == "file") != (self.probe_file is not None):
            raise ConfigError("probe=file needs the file key, and no other probe takes it")

    def require_read(self, command: str) -> None:
        """Refuse a key of :data:`_READ_BY` that is set away from its default
        and that ``command`` does not read with this scenario's probe.  Not a
        :meth:`validate` check: which keys are read depends on the command."""
        for field in _FIELDS:
            if field.key not in _READ_BY:
                continue
            probes = _READ_BY[field.key].get(command, ())
            if self.probe not in probes and getattr(self, field.attr) != getattr(ScenarioConfig, field.attr):
                where = f"only with probe={'/'.join(probes)}" if probes else "with no probe"
                raise ConfigError(f"{field.key}: {command} reads it {where} (here probe={self.probe})")

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
    if getattr(args, "config", None) is not None:
        table.update(load_config_file(_path(args.config, "config")))
    for field in _FIELDS:
        value = getattr(args, field.key)
        if value is not None:
            table[field.key] = value
    return scenario_from_table(table)


@contextmanager
def _selection_checked():
    """A state or observable that its class refuses is a configuration error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"pre/post/obs: {exc}") from exc


def scenario_weak_value(config: ScenarioConfig) -> WeakValue:
    mode = config.selection_mode()
    if mode == "aw":
        return WeakValue.from_value(config.aw)
    if mode == "mach_zehnder":
        pre, post, obs = mach_zehnder_setup(config.chi, config.varphi)
        return compute_weak_value(pre, post, obs)
    with _selection_checked():
        pre, post, obs = SystemState(config.pre), SystemState(config.post), Observable(config.obs)
    return compute_weak_value(pre, post, obs)


_DUMP_HEADER = ["space", "coordinate", "re", "im"]


def read_probe_csv(path: str) -> ProbeWavefunction:
    """Load a probe from a dump file (its initial momentum-space rows).

    Only the lines that start with ``momentum_initial,`` go through the CSV
    parser; the other three sections are most of a dump's lines.
    """
    with _open(path) as handle:
        if next(csv.reader([handle.readline()]), None) != _DUMP_HEADER:
            raise ConfigError(f"{path}: expected header {','.join(_DUMP_HEADER)}")
        numbered = [(n, text) for n, text in enumerate(handle, 2) if text.startswith("momentum_initial,")]
    cells = [row[1:4] for row in csv.reader(text for _, text in numbered)]
    try:  # every row has three cells exactly when there are 3 * len(cells) of them
        flat = np.fromiter(map(float, itertools.chain.from_iterable(cells)), float, 3 * len(cells))
    except ValueError:  # a short row, or a cell that is no number
        flat = None
    if flat is None or not all_finite(flat):
        # Name the first bad cell, as the field parser words it.
        for (line, _), row in zip(numbered, cells):
            for text in row + [None] * (3 - len(row)):
                _finite(text, f"{path}:{line}")
    table = flat.reshape(-1, 3)
    if len(cells) < 5:
        raise ConfigError(f"{path}: the derivative stencil needs five momentum_initial samples")
    if len(cells) % 2 == 0:
        raise ConfigError(f"{path}: momentum sample count must be odd")
    p = table[:, 0]
    spacing = np.diff(p)
    if spacing.min() <= 0 or (spacing.max() - spacing.min()) > 1e-6 * spacing.mean():
        raise ConfigError(f"{path}: momentum samples must be uniformly increasing")
    grid = MomentumGrid(p[0], p[-1], len(p))
    values = np.ascontiguousarray(table[:, 1:]).view(complex).ravel()
    return ProbeWavefunction.normalized(grid, values, label="file")


def scenario_probe(config: ScenarioConfig, weak_value: WeakValue) -> ProbeWavefunction:
    if config.probe == "gaussian":
        return gaussian_probe(config.coupling, config.width, config.n_points)
    if config.probe == "optimal":
        return optimal_probe(config.coupling, weak_value.value, config.n_points, config.support_extent)
    if config.probe == "smoothed":
        return smoothed_optimal_probe(config.coupling, weak_value.value, config.smoothing, config.n_points)
    return read_probe_csv(config.probe_file)


def analytic_reference(
    config: ScenarioConfig, weak_value: WeakValue
) -> tuple[float | None, float | None]:
    """Closed-form (delta_q, delta_p) reference for the scenario's probe."""
    if config.probe == "gaussian":
        prediction = gaussian_exact_shifts(config.coupling, config.width, weak_value.value)
        return prediction.delta_q, prediction.delta_p
    if config.probe == "optimal":
        delta_p = -optimal_initial_momentum(config.coupling, weak_value.value, config.support_extent)
        return max_shift(config.coupling, weak_value.value), delta_p
    if config.probe == "smoothed":
        return max_shift(config.coupling, weak_value.value), None
    return None, None


def _csv_writer(handle):
    return csv.writer(handle, lineterminator="\n")


# Commands open their output files before they compute, so that a path that
# cannot be opened is a configuration error before any work or output.


def _same_file(path: str, other: str) -> bool:
    try:
        return os.path.samefile(path, other)
    except OSError:  # one is not there yet: compare where the paths lead
        return os.path.realpath(path) == os.path.realpath(other)


def _refuse_overwrites(args: argparse.Namespace, config: ScenarioConfig) -> None:
    """Refuse an output path that names an input file or another output,
    before any file is opened for writing, which would empty it."""
    seen = [(flag, path) for flag, path in (("--config", args.config), ("--file", config.probe_file)) if path]
    for flag, path in (("--output", config.output), ("--probe-output", getattr(args, "probe_output", None))):
        if path:
            for other, other_path in seen:
                if _same_file(path, other_path):
                    raise ConfigError(f"{other} and {flag} name the same file")
            seen.append((flag, path))


def _output_file(path: str | None):
    """The file at ``path`` opened for writing, or None when no path is set."""
    return _open(path, "w") if path else nullcontext()


def _output(path: str | None):
    """The file at ``path`` opened for writing, or stdout when no path is set."""
    return _output_file(path) if path else nullcontext(sys.stdout)


def _optional(value: float | None) -> str:
    return "" if value is None else format_number(value)


# The report's values as ``shift`` prints them and names its CSV columns.
_REPORTED = ("q_initial", "q_final", "p_initial", "p_final", "delta_q", "delta_p", "weight")


def cmd_shift(config: ScenarioConfig) -> int:
    with _output_file(config.output) as handle:
        config.require_read("shift")
        wv = scenario_weak_value(config)
        probe = scenario_probe(config, wv)
        report = shift_report(PostSelectedEvolution(config.coupling, wv), probe)
        references = dict(zip(("delta_q", "delta_p"), analytic_reference(config, wv)))
        # Each value with its closed form and their |difference|, where it has one.
        rows = []
        for name in _REPORTED:
            value, ref = getattr(report, name), references.get(name)
            rows.append((name, value, ref, None if ref is None else abs(value - ref)))

        print(f"{'probe':<15}{probe.label}")
        print(f"{'g':<15}{format_number(config.coupling)}")
        print(f"{'weak_value':<15}{format_number(wv.value.real)} {format_number(wv.value.imag)}j")
        for name, value, ref, diff in rows:
            tail = "" if ref is None else f"  analytic {format_number(ref)}  |diff| {format_number(diff)}"
            print(f"{name:<15}{format_number(value)}{tail}")

        if handle is not None:
            # The scenario as run, under the first four config keys.
            scenario = (
                probe.label,
                format_number(config.coupling),
                format_number(wv.value.real),
                format_number(wv.value.imag),
            )
            compared = [row for row in rows if row[0] in references]
            columns = [
                *zip((field.key for field in _FIELDS), scenario),
                *((name, format_number(value)) for name, value, _, _ in rows),
                *((f"analytic_{name}", _optional(ref)) for name, _, ref, _ in compared),
                *((f"abs_diff_{name}", _optional(diff)) for name, _, _, diff in compared),
            ]
            writer = _csv_writer(handle)
            writer.writerow([name for name, _ in columns])
            writer.writerow([value for _, value in columns])
        return 0


def _write_samples(handle, sections) -> None:
    """Write a dump CSV: the header, then one block of ``space,q,re,im``
    lines per ``(space, coordinates, values)`` section, one section at a time."""
    handle.write(",".join(_DUMP_HEADER) + "\n")
    for space, coordinates, values in sections:
        handle.write(_csv_block(space, coordinates, values.real, values.imag))


def _dump_sections(config: ScenarioConfig) -> list[tuple[str, np.ndarray, np.ndarray]]:
    config.require_read("dump")
    wv = scenario_weak_value(config)
    if config.probe == "optimal" and config.n_points is None:
        # A dump samples on a p-grid, which the position transform needs.
        config = replace(config, n_points=recommended_support_points(wv.value, config.support_extent))
    evo = PostSelectedEvolution(config.coupling, wv)
    probe = scenario_probe(config, wv)
    evolved = apply_postselection(evo, probe)
    norm = math.sqrt(evolved.weight)
    final_values = evolved.values / norm
    final_probe = ProbeWavefunction.normalized(probe.grid, final_values, evolved.derivative / norm, "final")

    if config.probe in ("optimal", "smoothed"):
        # Discrete position samples on the comb q = 2 g n.
        check_point_budget(2 * config.n_range + 1, "position samples")
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
        ("momentum_initial", probe.grid.points, probe.values),
        ("momentum_final", probe.grid.points, final_values),
        ("position_initial", positions, position_amplitudes(probe, positions)),
        ("position_final", positions, position_amplitudes(final_probe, positions)),
    ]


def cmd_dump(config: ScenarioConfig) -> int:
    with _output(config.output) as handle:
        _write_samples(handle, _dump_sections(config))
    return 0


_SWEEP_AXES = ("postselection_angle", "smoothing_s", "coupling_g", "grid_n")


def _parsed(config: ScenarioConfig, **changes) -> ScenarioConfig:
    """``replace`` with each new value checked by its field's parser."""
    for field in _FIELDS:
        if field.attr in changes:
            changes[field.attr] = field.parse(changes[field.attr], field.key)
    return replace(config, **changes)


def _sweep_scenario(config: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    """The scenario of a ``coupling_g``, ``smoothing_s`` or ``grid_n`` row, its keys checked."""
    if axis == "coupling_g":
        variant = _parsed(config, coupling=value)
    elif axis == "smoothing_s":
        variant = _parsed(config, smoothing=value)
    else:
        n = int(round(value))  # a --start/--stop/--count range gives non-integers
        variant = _parsed(config, n_points=n + 1 - n % 2)
    variant.require_read("shift")
    return variant


# A sweep row's scenario, keys checked, and its weak value, each from its axis value.
_SweepRule = tuple[Callable[[float], ScenarioConfig], Callable[[float], WeakValue]]


def _sweep_rule(config: ScenarioConfig, axis: str) -> _SweepRule:
    """How each row of a sweep gets its scenario and its weak value.

    Only the weak value depends on the post-selection angle, so every angle
    row runs the sweep's own scenario, its keys checked once.  Its weak
    value is that of the state (cos v, sin v) on a two-level vector
    selection, whose pre-selected amplitudes and their image under the
    observable are built once, or that of polarizer angle v on a
    Mach-Zehnder selection.  The weak value of the other axes is the
    sweep's, computed once.  An error of the whole sweep is not kept: each
    row meets it again, at the step where it does on its own; but an angle
    sweep's refused selection or keys are every row's ConfigError.
    """
    if axis != "postselection_angle":
        shared = cache(partial(scenario_weak_value, config))
        return partial(_sweep_scenario, config, axis), lambda value: shared()
    mode = config.selection_mode()
    try:
        if mode == "aw" or mode == "vectors" and len(config.pre) != 2:
            need = "a two-level explicit" if mode == "vectors" else "mach-zehnder or vector"
            raise ConfigError(f"postselection_angle sweep needs {need} selection")
        config.require_read("shift")
    except ConfigError as exc:
        error = exc

        def refuse(angle: float):
            raise error.with_traceback(None)  # or each raise would lengthen its traceback

        return refuse, refuse
    if mode == "mach_zehnder":
        return (lambda angle: config), lambda angle: compute_weak_value(*mach_zehnder_setup(config.chi, angle))

    @cache
    def selected() -> tuple[np.ndarray, np.ndarray]:
        with _selection_checked():
            pre, obs = SystemState(config.pre), Observable(config.obs)
        return _selected(pre, 2, obs)

    return (lambda angle: config), lambda angle: _weak_value(*selected(), _angle_amplitudes(angle))


def _prepared(rule: _SweepRule, value: float) -> tuple[ScenarioConfig, WeakValue] | Exception:
    """The row's scenario, its keys checked, and weak value; or the error."""
    scenario, weak_value = rule
    try:
        return scenario(value), weak_value(value)
    except (WvaError, ConfigError) as exc:
        return exc


def _shift_report(item) -> ShiftReport | Exception:
    """A prepared row's own shift report, or the error that ends it."""
    if isinstance(item, Exception):
        return item
    config, wv = item
    try:
        return shift_report(PostSelectedEvolution(config.coupling, wv), scenario_probe(config, wv))
    except (WvaError, ConfigError) as exc:
        return exc


def _theta_batch(item) -> tuple[float, int] | None:
    """The coupling and extent of a row whose probe is on theta nodes."""
    if isinstance(item, Exception) or item[0].probe != "optimal" or item[0].n_points is not None:
        return None
    return item[0].coupling, item[0].support_extent


def _sweep_reports(prepared: Iterable) -> Iterator[tuple]:
    """Each prepared row with its shift report, or the error that ended it, in
    order: a run of rows on theta nodes with one coupling and extent from one
    :func:`optimal_shift_reports`, any other row on its own.  A run is read
    as it is reported: it holds at most a batch of prepared rows."""
    for batch, run in itertools.groupby(prepared, _theta_batch):
        if batch is None:
            yield from ((item, _shift_report(item)) for item in run)
        else:
            run, ahead = itertools.tee(run)
            yield from zip(run, optimal_shift_reports(batch[0], (wv for _, wv in ahead), batch[1]))


def _sweep_row(axis: str, value: float, item, report: ShiftReport | Exception) -> list[str]:
    row = [axis, format_number(value)]
    try:
        if isinstance(report, Exception):
            raise report
        variant, wv = item
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
    ranged = ["--" + flag for flag in ("start", "stop", "count") if getattr(args, flag) is not None]
    if args.values is not None and ranged:
        raise ConfigError(f"--values and {'/'.join(ranged)} are alternatives: give one")
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
        check_point_budget(args.count, "sweep samples")
        values = list(np.linspace(args.start, args.stop, args.count))
    if len(values) < 2:
        raise ConfigError("sweep needs at least 2 samples")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError("sweep values must be finite")
    return values


def cmd_sweep(config: ScenarioConfig, axis: str, values: list[float]) -> int:
    """One CSV row per axis value, each with the shift report of ``shift``
    on that row's scenario, or the name of the error that ended the row.

    Built once per sweep (:func:`_sweep_rule`): the weak value of a
    ``coupling_g``, ``smoothing_s`` or ``grid_n`` sweep; on the angle axis,
    the key check and, for a vector selection, the pre-selected amplitudes
    and their image under the observable.  Built by each row: a variant
    scenario holding its parsed axis value, its keys checked (the angle
    axis needs none), its weak value, and then either its own probe and
    shift report or, for an optimal probe on theta nodes, only the probe's
    checks and theta panels.  Built once per batch of such rows
    (consecutive, with one coupling and extent, up to ``BATCH_NODES`` theta
    nodes; see :func:`wva.expectation.optimal_shift_reports`): the theta
    nodes, the probes, the post-selected states, their integrands and sums,
    of which each row meets its own checks.  An angle sweep is such a run; a
    ``coupling_g`` sweep is batches of one.  The header is written first and
    each row as it is reported: a sweep holds one batch of rows at a time.
    """
    with _output(config.output) as handle:
        writer = _csv_writer(handle)
        header = "axis,axis_value,delta_q,delta_p,weight,analytic_delta_q,overlap_times_q_final,error"
        writer.writerow(header.split(","))
        prepared = map(partial(_prepared, _sweep_rule(config, axis)), values)
        failed = False
        for value, pair in zip(values, _sweep_reports(prepared)):
            row = _sweep_row(axis, value, *pair)
            writer.writerow(row)
            failed = failed or row[-1] != ""
    return 1 if failed else 0


def cmd_optimize(config: ScenarioConfig, args: argparse.Namespace) -> int:
    probe_output = None if args.probe_output is None else _path(args.probe_output, "probe_output")
    config.require_read("optimize")
    wv = scenario_weak_value(config)
    evo = PostSelectedEvolution(config.coupling, wv)
    n = config.n_points if config.n_points is not None else 513
    grid = MomentumGrid.for_support(config.coupling, n, config.support_extent)
    optimizer_config = OptimizerConfig(
        grid=grid,
        max_iters=_count(args.max_iters, "max_iters"),
        step=_positive(args.step, "step"),
        tol=_positive(args.tol, "tol"),
        seed=_checked(int, lambda n: n >= 0, "a non-negative integer")(args.seed, "seed"),
        init=args.init,
    )
    with _output_file(config.output) as trace_file, _output_file(probe_output) as probe_file:
        trace = maximize(optimizer_config, evo)
        reference = max_shift(config.coupling, wv.value)
        last_iter, last_objective, last_norm = trace.iterations[-1]

        print(f"converged      {str(trace.converged).lower()}")
        print(f"iterations     {last_iter}")
        print(f"objective      {format_number(last_objective)}")
        print(f"reference      {format_number(reference)}")
        print(f"abs_gap        {format_number(abs(last_objective - reference))}")
        print(f"grad_norm      {format_number(last_norm)}")

        if trace_file is not None:
            writer = _csv_writer(trace_file)
            writer.writerow(["iter", "objective", "grad_norm"])
            for index, value, norm in trace.iterations:
                writer.writerow([str(index), format_number(value), format_number(norm)])
        if probe_file is not None:
            fixed = gauge_fix(trace.final_probe)
            _write_samples(probe_file, [("momentum_initial", grid.points, fixed.values)])
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
        parser.add_argument("--" + field.key.replace("_", "-"), help=_help(field))


_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -1e-3`` into ``--flag=-1e-3``.

    argparse takes a token that starts with '-' for an option unless it is a
    plain negative number such as -1 or -.5, so a value in scientific
    notation or a list such as ``--values -1,0.1`` would be refused.  No
    option of ``wva`` starts with a digit, so such a token is the value of
    the flag before it.
    """
    joined: list[str] = []
    for token in argv:
        flag = joined[-1] if joined else ""
        if _NEGATIVE_VALUE.match(token) and flag.startswith("--") and "=" not in flag:
            joined[-1] = f"{flag}={token}"
        else:
            joined.append(token)
    return joined


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
    # Parsed by the field parsers in cmd_optimize, so a bad value is a ConfigError.
    p_opt.add_argument("--max-iters", dest="max_iters", default=4000)
    p_opt.add_argument("--step", default=1.0)
    p_opt.add_argument("--tol", default=1e-5)
    p_opt.add_argument("--seed", default=0)
    p_opt.add_argument("--init", choices=["gaussian", "random"], default="gaussian")
    p_opt.add_argument("--probe-output", dest="probe_output", help="gauge-fixed probe CSV")

    p_mz = sub.add_parser("mach-zehnder", help="print the interferometer weak value")
    p_mz.add_argument("--chi", required=True)
    p_mz.add_argument("--varphi", required=True)

    return parser


# Wraps the function object, so a later rebinding of ``build_parser`` does not
# reach the shared parser.
_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one command.  The argument parser is built at the first call and
    shared by every later call in the process; parsing never mutates it.
    ``build_parser()`` returns a fresh parser on each call."""
    args = _parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        code = _run(args)
        sys.stdout.flush()
    except OSError as exc:
        # Only a write to stdout gets here: every file error is a ConfigError.
        # Its reader has gone (``wva dump | head``, exit 1 in silence) or its
        # device is full.  Point stdout at devnull so that the flush at exit
        # finds nothing to fail on.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 1
        print(f"ConfigError: {_file_error('stdout', exc)}", file=sys.stderr)
        return 2
    return code


def _run(args: argparse.Namespace) -> int:
    """Run the parsed command, one of the five that the parser's required
    subcommands admit; a typed error is reported on stderr as its exit code
    (2 for configuration, 1 for a domain error)."""
    try:
        if args.command == "mach-zehnder":
            return cmd_mach_zehnder(_finite(args.chi, "chi"), _finite(args.varphi, "varphi"))
        config = scenario_from_args(args)
        _refuse_overwrites(args, config)
        if args.command == "shift":
            return cmd_shift(config)
        if args.command == "dump":
            return cmd_dump(config)
        if args.command == "sweep":
            return cmd_sweep(config, args.axis, _sweep_values(args))
        return cmd_optimize(config, args)
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2
    except WvaError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
