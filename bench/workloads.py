"""Workload inputs, generated from the seed with the standard library alone.

A workload is a cycle of operations and a round size.  A run repeats whole
rounds of the cycle, so the share of operations that fail is the same in
every run.  Each operation is one ``wva`` command line; ``check`` is what the
runner calls with the command's outputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

G_FIG = 0.1
A_FIG = complex(math.sqrt(3.0), 2.0 * math.sqrt(3.0))
COUPLINGS = (0.01, 0.05, 0.1, 0.5, 1.0)
WIDTHS = (0.5, 1.0, 2.0, 4.0, 8.0)
WEAK_VALUES = (1.0 + 0j, 2.0 + 0j, 1j, 1.0 + 1.0j, A_FIG)
# The probe file for ``shift --probe file`` is this Gaussian dump.
FILE_PROBE = (0.1, 1.0, 2.0 + 0j)
OPTIMIZE_N = 513
# Optimizer seeds verified to converge at A = 2 within the default 4000 steps.
OPTIMIZER_SEEDS = tuple(range(12))


@dataclass(frozen=True)
class Outputs:
    returncode: int
    stdout: str
    stderr: str
    files: dict[str, str]


def _exit_zero(out: Outputs) -> bool:
    return out.returncode == 0


def _no_check(out: Outputs) -> None:
    return None


@dataclass(frozen=True)
class Op:
    """One command.  An operation for which ``succeeded`` is false counts as
    failed; for the others ``check`` raises ``checks.CheckFailed`` on a wrong
    output.  ``files`` are the output files the check reads."""

    kind: str
    argv: tuple[str, ...]
    check: Callable[[Outputs], None]
    files: tuple[str, ...] = ()
    succeeded: Callable[[Outputs], bool] = _exit_zero


@dataclass(frozen=True)
class Workload:
    in_process: bool
    cycle: tuple[Op, ...]
    round_size: int
    warmup: int


def _num(x: float) -> str:
    return repr(float(x))


def _aw(a: complex) -> list[str]:
    return ["--aw-re", _num(a.real), "--aw-im", _num(a.imag)]


def criterion_08_angles(offsets) -> list[float]:
    return [3.0 * math.pi / 4.0 + o for o in offsets]


def sweep_op(coupling: float, angles: list[float], out: str) -> Op:
    argv = (
        "sweep", "--axis", "postselection_angle", "--g", _num(coupling),
        "--pre", "1,1", "--post", "1,0", "--obs", "1,0;0,-1", "--probe", "optimal",
        "--values", ",".join(_num(a) for a in angles), "--output", out,
    )
    return Op("sweep", argv, lambda o: checks.check_sweep(o.files[out], coupling, angles), (out,))


def file_probe_dump_argv(path: str) -> list[str]:
    g, w, a = FILE_PROBE
    return ["dump", "--probe", "gaussian", "--g", _num(g), "--width", _num(w), *_aw(a), "--output", path]


def cli_workload(seed: int, workdir: Path) -> Workload:
    """Fresh ``python -m wva.cli`` processes over a seeded cycle of small commands."""
    rng = random.Random(seed)
    figure = str(workdir / "figure.csv")
    sweep_csv = str(workdir / "sweep.csv")
    probe_csv = str(workdir / "probe.csv")
    missing = str(workdir / "missing.cfg")
    trace = str(workdir / "trace.csv")
    probe_opt = str(workdir / "probe_opt.csv")
    g_file, w_file, a_file = FILE_PROBE
    chi, phi = rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.2)
    a_big = 2.0 + 30.0j
    a_opt = 2.0 + 0j
    start = rng.choice(OPTIMIZER_SEEDS)
    cycle = [
        Op("shift_optimal", ("shift", "--probe", "optimal", "--g", _num(G_FIG), *_aw(A_FIG)),
           lambda o: checks.check_shift(o.stdout, checks.optimal_shift(G_FIG, A_FIG))),
        Op("shift_optimal_large", ("shift", "--probe", "optimal", "--g", _num(G_FIG), *_aw(a_big)),
           lambda o: checks.check_shift(o.stdout, checks.optimal_shift(G_FIG, a_big))),
        Op("shift_gaussian", ("shift", "--probe", "gaussian", "--g", _num(G_FIG), "--width", "1.0", *_aw(2.0 + 0j)),
           lambda o: checks.check_shift(o.stdout, *checks.gaussian_shifts(G_FIG, 1.0, 2.0 + 0j)[:2])),
        Op("mach_zehnder", ("mach-zehnder", "--chi", _num(chi), "--varphi", _num(phi)),
           lambda o: checks.check_mach_zehnder(o.stdout, chi, phi)),
        Op("figure_dump", ("dump", "--g", _num(G_FIG), *_aw(A_FIG), "--probe", "optimal",
                           "--n-points", "257", "--n-range", "8", "--output", figure),
           lambda o: checks.check_figure_dump(o.files[figure], G_FIG, A_FIG), (figure,)),
        sweep_op(G_FIG, criterion_08_angles(_geomspace(1e-3, 3e-2, 9)), sweep_csv),
        Op("shift_file", ("shift", "--probe", "file", "--file", probe_csv, "--g", _num(g_file), *_aw(a_file)),
           lambda o: checks.check_shift(o.stdout, *checks.gaussian_shifts(g_file, w_file, a_file)[:2])),
        Op("optimize", ("optimize", "--g", _num(G_FIG), *_aw(a_opt), "--n-points", str(OPTIMIZE_N),
                        "--init", "random", "--seed", str(start), "--output", trace, "--probe-output", probe_opt),
           lambda o: checks.check_optimize(o.stdout, o.files[trace], o.files[probe_opt], G_FIG, a_opt, OPTIMIZE_N),
           (trace, probe_opt)),
        Op("missing_config", ("shift", "--config", missing),
           _no_check, succeeded=lambda o: checks.check_typed_config_error(o.returncode, o.stderr)),
    ]
    rng.shuffle(cycle)
    return Workload(False, tuple(cycle), round_size=len(cycle), warmup=0)


def _geomspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]


def sweep_workload(seed: int, workdir: Path) -> Workload:
    """In-process near-orthogonal sweeps: 9 offsets per operation, one drawn
    log-uniformly from each ninth of [1e-3, 3e-2] so every operation spans
    the same range of grid sizes (4,097 to 40,001 points)."""
    rng = random.Random(seed)
    edges = [math.log(e) for e in _geomspace(1e-3, 3e-2, 10)]
    out = str(workdir / "sweep.csv")
    cycle = []
    for k in range(32):
        coupling = (0.1, 0.2)[k % 2]
        offsets = [math.exp(rng.uniform(edges[i], edges[i + 1])) for i in range(9)]
        cycle.append(sweep_op(coupling, criterion_08_angles(offsets), out))
    rng.shuffle(cycle)
    return Workload(True, tuple(cycle), round_size=1, warmup=10)


def dump_workload(seed: int, workdir: Path) -> Workload:
    """In-process Gaussian dumps from the (g, W, A) acceptance grids: each of
    the 25 (g, W) pairs once per cycle, with a seeded A and a seeded order.
    The pair sets the grid size, so every run does the same mix of work."""
    rng = random.Random(seed)
    out = str(workdir / "dump.csv")
    cycle = []
    for g in COUPLINGS:
        for w in WIDTHS:
            a = rng.choice(WEAK_VALUES)
            argv = ("dump", "--probe", "gaussian", "--g", _num(g), "--width", _num(w), *_aw(a), "--output", out)
            check = (lambda g, w, a: lambda o: checks.check_gaussian_dump(o.files[out], g, w, a))(g, w, a)
            cycle.append(Op("dump_gaussian", argv, check, (out,)))
    rng.shuffle(cycle)
    return Workload(True, tuple(cycle), round_size=1, warmup=3)


WORKLOADS = {
    "cli": cli_workload,
    "sweep": sweep_workload,
    "dump": dump_workload,
}
