"""Reference values and output checkers for the benchmark.

Everything here is written apart from ``wva``: the closed forms are typed out
again from the paper and from Wu & Li, PRA 83, 052106 (2011), and the
quadrature is a plain composite Simpson rule.  A checker returns nothing when
an output is right and raises :class:`CheckFailed` otherwise.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def optimal_shift(coupling: float, weak_value: complex) -> float:
    """Shift of the back-action-cancelling probe, g (|A|^2 + 1) / (2 Re A)."""
    return coupling * (abs(weak_value) ** 2 + 1.0) / (2.0 * weak_value.real)


def gaussian_shifts(coupling: float, width: float, weak_value: complex) -> tuple[float, float, float]:
    """Full-order (delta_q, delta_p, D) of a Gaussian probe with momentum width W.

    D = 1 + (1 - |A|^2)(e^{-2 g^2 W^2} - 1) / 2 is also the post-selection
    weight, the Gaussian average of |cos gp - i A sin gp|^2.
    """
    damping = math.exp(-2.0 * coupling**2 * width**2)
    denominator = 1.0 + 0.5 * (1.0 - abs(weak_value) ** 2) * (damping - 1.0)
    delta_q = coupling * weak_value.real / denominator
    delta_p = 2.0 * coupling * width**2 * weak_value.imag * damping / denominator
    return delta_q, delta_p, denominator


def mach_zehnder_value(chi: float, phi: float) -> float:
    """Weak value C_w = -sin(chi) sin(phi) / cos(chi + phi) of the second-arm projector."""
    return -math.sin(chi) * math.sin(phi) / math.cos(chi + phi)


def sweep_weak_value(theta: float) -> float:
    """Weak value of diag(1, -1) between pre (1, 1) and post (cos t, sin t)."""
    c, s = math.cos(theta), math.sin(theta)
    return (c - s) / (c + s)


def sweep_overlap(theta: float) -> float:
    """|<post|pre>| for the sweep's selection."""
    return abs(math.cos(theta) + math.sin(theta)) / math.sqrt(2.0)


def intercept(samples: list[tuple[float, float]], n_smallest: int = 5) -> float:
    """Least-squares line through the samples with the smallest abscissae,
    evaluated at zero."""
    pts = sorted(samples)[:n_smallest]
    n = len(pts)
    mx = sum(x for x, _ in pts) / n
    my = sum(y for _, y in pts) / n
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return my - (sxy / sxx) * mx


def simpson(values: np.ndarray, spacing: float) -> float:
    """Composite Simpson rule on an odd number of uniform samples."""
    if values.size < 3 or values.size % 2 == 0:
        raise CheckFailed(f"Simpson needs an odd sample count >= 3, got {values.size}")
    return float(spacing / 3.0 * (values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(value: float, reference: float, rel: float, what: str) -> None:
    _require(
        abs(value - reference) <= rel * abs(reference) + 1e-12,
        f"{what} = {value!r}, reference {reference!r} (relative tolerance {rel})",
    )


# ---------------------------------------------------------------- stdout

def report_fields(stdout: str) -> dict[str, str]:
    """First value after each label of a ``wva`` report on stdout."""
    fields = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 2:
            fields.setdefault(parts[0], parts[1])
    return fields


def _field(fields: dict[str, str], name: str) -> float:
    try:
        return float(fields[name])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"report has no numeric {name!r}") from exc


def check_shift(stdout: str, delta_q: float, delta_p: float | None = None, rel: float = 1e-6) -> None:
    """A ``shift`` report whose delta_q (and delta_p, if given) match references."""
    fields = report_fields(stdout)
    _close(_field(fields, "delta_q"), delta_q, rel, "delta_q")
    if delta_p is not None:
        _close(_field(fields, "delta_p"), delta_p, rel, "delta_p")


def check_mach_zehnder(stdout: str, chi: float, phi: float) -> None:
    fields = report_fields(stdout)
    _close(_field(fields, "C_w"), mach_zehnder_value(chi, phi), 1e-9, "C_w")
    imag = next((line.split()[2] for line in stdout.splitlines() if line.startswith("C_w")), "")
    _require(imag.endswith("j") and float(imag[:-1]) == 0.0, f"C_w imaginary part {imag!r} is not 0")


def check_typed_config_error(returncode: int, stderr: str) -> bool:
    """True when a bad configuration ended as a typed error: exit 2, a
    ``ConfigError`` line and no traceback."""
    return returncode == 2 and "ConfigError" in stderr and "Traceback" not in stderr


# ---------------------------------------------------------------- CSV

def dump_spaces(text: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Rows of a ``dump`` CSV grouped by space: (coordinates, complex values).
    The rows hold no quoted fields, so they are split on commas directly."""
    header, *lines = text.splitlines()
    _require(header == "space,coordinate,re,im", "dump header is wrong")
    grouped: dict[str, list[str]] = {}
    for line in lines:
        name, _, numbers = line.partition(",")
        grouped.setdefault(name, []).append(numbers)
    spaces = {}
    for name, rows in grouped.items():
        fields = ",".join(rows).split(",")
        _require(len(fields) == 3 * len(rows), f"{name} rows do not all have four fields")
        arr = np.array(fields, dtype=float).reshape(-1, 3)
        spaces[name] = (arr[:, 0], arr[:, 1] + 1j * arr[:, 2])
    expected = {"momentum_initial", "momentum_final", "position_initial", "position_final"}
    _require(set(spaces) == expected, f"dump spaces {sorted(spaces)} differ from {sorted(expected)}")
    return spaces


def _uniform_spacing(coords: np.ndarray) -> float:
    steps = np.diff(coords)
    _require(steps.size > 0 and steps.min() > 0, "coordinates are not increasing")
    _require(steps.max() - steps.min() <= 1e-6 * steps.mean(), "coordinates are not uniform")
    return float((coords[-1] - coords[0]) / (coords.size - 1))


def check_figure_dump(text: str, coupling: float, weak_value: complex) -> None:
    """The figure dump: momentum rows Simpson-normalized, and the peak of the
    discrete final position samples at the comb point nearest the shift."""
    spaces = dump_spaces(text)
    for name in ("momentum_initial", "momentum_final"):
        p, values = spaces[name]
        norm = simpson(np.abs(values) ** 2, _uniform_spacing(p))
        _require(abs(norm - 1.0) <= 1e-8, f"{name} Simpson norm {norm!r} is not 1")
    q, values = spaces["position_final"]
    _require(np.allclose(q, 2.0 * coupling * np.round(q / (2.0 * coupling)), rtol=0, atol=1e-9),
             "position_final is not on the comb q = 2 g n")
    shift = optimal_shift(coupling, weak_value)
    peak = q[int(np.argmax(np.abs(values)))]
    nearest = q[int(np.argmin(np.abs(q - shift)))]
    _require(peak == nearest, f"position_final peaks at {peak!r}, comb point nearest the shift is {nearest!r}")


def check_gaussian_dump(text: str, coupling: float, width: float, weak_value: complex) -> None:
    """A Gaussian ``dump`` against the Gaussian, its product with the
    evolution factor, and the normal position density of deviation 1/(2W)."""
    spaces = dump_spaces(text)
    p, initial = spaces["momentum_initial"]
    gauss = (2.0 * math.pi * width**2) ** -0.25 * np.exp(-(p**2) / (4.0 * width**2))
    peak = float(gauss.max())
    err = float(np.max(np.abs(initial - gauss)))
    _require(err <= 1e-9 * peak, f"momentum_initial is {err:.3e} off the Gaussian (peak {peak:.3e})")

    p_final, final = spaces["momentum_final"]
    _require(np.array_equal(p_final, p), "momentum_final is not on the momentum_initial grid")
    _, _, weight = gaussian_shifts(coupling, width, weak_value)
    gp = coupling * p
    factor = np.cos(gp) - 1j * weak_value * np.sin(gp)
    expected = gauss * np.abs(factor) / math.sqrt(weight)
    err = float(np.max(np.abs(np.abs(final) - expected)))
    scale = float(expected.max())
    _require(err <= 1e-9 * scale, f"|momentum_final| is {err:.3e} off its closed form (peak {scale:.3e})")

    q, amplitudes = spaces["position_initial"]
    sigma = 1.0 / (2.0 * width)
    density = np.exp(-(q**2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))
    err = float(np.max(np.abs(np.abs(amplitudes) ** 2 - density)))
    scale = float(density.max())
    _require(err <= 1e-6 * scale, f"|position_initial|^2 is {err:.3e} off the normal density (peak {scale:.3e})")


def check_sweep(text: str, coupling: float, angles: list[float]) -> None:
    """A post-selection-angle sweep of the optimal probe: every delta_q at
    the closed form, and |overlap| q_final extrapolating to g/2 within 1%."""
    rows = list(csv.DictReader(io.StringIO(text)))
    _require(len(rows) == len(angles), f"sweep has {len(rows)} rows for {len(angles)} angles")
    samples = []
    for row, theta in zip(rows, angles):
        _require(row["error"] == "", f"sweep row at {theta!r} reports {row['error']!r}")
        _close(float(row["axis_value"]), theta, 1e-11, "axis_value")
        _close(float(row["delta_q"]), optimal_shift(coupling, complex(sweep_weak_value(theta))), 1e-6, f"delta_q at {theta!r}")
        samples.append((sweep_overlap(theta), float(row["overlap_times_q_final"])))
    limit = intercept(samples)
    _require(abs(limit - coupling / 2.0) <= 0.01 * coupling / 2.0,
             f"orthogonality limit {limit!r} is not within 1% of g/2 = {coupling / 2.0!r}")


def check_optimize(stdout: str, trace_text: str, probe_text: str, coupling: float,
                   weak_value: complex, n_points: int, tol: float = 1e-5) -> None:
    """An ``optimize`` run that converged to within 1e-3 of the closed form,
    with a trace that ends below the gradient tolerance and a normalized probe."""
    fields = report_fields(stdout)
    _require(fields.get("converged") == "true", "optimizer did not report convergence")
    rows = list(csv.DictReader(io.StringIO(trace_text)))
    _require(len(rows) > 0, "optimizer trace is empty")
    last = rows[-1]
    _require(int(last["iter"]) == int(_field(fields, "iterations")), "trace and report disagree on iterations")
    _require(float(last["grad_norm"]) < tol, f"trace ends at gradient norm {last['grad_norm']} >= {tol}")
    reference = optimal_shift(coupling, weak_value)
    _close(float(last["objective"]), reference, 1e-3, "final shift")
    _close(_field(fields, "objective"), reference, 1e-3, "reported shift")
    reader = csv.reader(io.StringIO(probe_text))
    _require(next(reader, None) == ["space", "coordinate", "re", "im"], "probe header is wrong")
    arr = np.array([row[1:] for row in reader], dtype=float)
    _require(arr.shape == (n_points, 3), f"probe has {arr.shape[0]} rows, expected {n_points}")
    norm = simpson(arr[:, 1] ** 2 + arr[:, 2] ** 2, _uniform_spacing(arr[:, 0]))
    _require(abs(norm - 1.0) <= 1e-8, f"optimized probe Simpson norm {norm!r} is not 1")
