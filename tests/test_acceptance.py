"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 5's "no iterate ever exceeds" clause is asserted exactly as stated
and fails for the real weak value 2: whenever 2 (Re A)^2 > |A|^2 + 1 even the
plain weak-regime Gaussian shift g Re A exceeds g (|A|^2 + 1) / (2 Re A), so
no search path from a Gaussian start can stay below that value.  See
test_criterion_05b and the shift-landscape tests for the executable
counterexample; every other clause of criterion 5 passes.
"""

import csv
import math
from pathlib import Path

import numpy as np

import wva
from wva.cli import format_number, main

DATA = Path(__file__).parent / "data"


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


G_FIG = 0.1
AW_FIG = math.sqrt(3) + 2.0 * math.sqrt(3) * 1j

COUPLINGS = (0.01, 0.05, 0.1, 0.5, 1.0)
WIDTHS = (0.5, 1.0, 2.0, 4.0, 8.0)
WEAK_VALUES = (1.0 + 0j, 2.0 + 0j, 1j, 1.0 + 1.0j, AW_FIG)


def evo_for(value, coupling):
    return wva.PostSelectedEvolution(coupling, wva.WeakValue.from_value(value))


def test_criterion_01_optimal_shift_reproduction():
    reference = G_FIG * (abs(AW_FIG) ** 2 + 1.0) / (2.0 * AW_FIG.real)
    probe = wva.optimal_probe(G_FIG, AW_FIG)
    report = wva.shift_report(evo_for(AW_FIG, G_FIG), probe)
    assert abs(report.delta_q - reference) <= 1e-6 * reference
    assert abs(report.q_initial) <= 1e-6
    print(
        f"[criterion 01] PASS - pipeline delta_q={report.delta_q:.9f} vs "
        f"closed form {reference:.9f}, q_initial={report.q_initial:.2e}"
    )


def test_criterion_02_gaussian_backaction_oracle():
    checked = 0
    for coupling in COUPLINGS:
        for width in WIDTHS:
            for value in WEAK_VALUES:
                prediction = wva.gaussian_exact_shifts(coupling, width, value)
                probe = wva.gaussian_probe(coupling, width)
                report = wva.shift_report(evo_for(value, coupling), probe)
                # atol is the double-precision quadrature floor: shifts whose
                # true size is ~1e-13 (damping e^{-2 g^2 W^2} underflowing)
                # cannot be resolved relatively by any fixed-precision rule.
                assert np.isclose(
                    report.delta_q, prediction.delta_q, rtol=1e-6, atol=1e-11
                ), (coupling, width, value, "delta_q")
                assert np.isclose(
                    report.delta_p, prediction.delta_p, rtol=1e-6, atol=1e-11
                ), (coupling, width, value, "delta_p")
                checked += 1
    assert checked == 125
    print(f"[criterion 02] PASS - {checked} (g, W, A) cells match the exact shifts")


def test_criterion_03_weak_regime_limits():
    width = 1.0
    coupling = 1e-3
    for value in (2.0 + 0j, 1.0 + 1.0j, AW_FIG):
        probe = wva.gaussian_probe(coupling, width)
        report = wva.shift_report(evo_for(value, coupling), probe)
        assert abs(report.delta_q / (coupling * value.real) - 1.0) <= 1e-3
    for value in (1j, 1.0 + 1.0j, AW_FIG):
        probe = wva.gaussian_probe(coupling, width)
        report = wva.shift_report(evo_for(value, coupling), probe)
        assert abs(report.delta_p / (2.0 * coupling * width**2 * value.imag) - 1.0) <= 1e-3

    couplings = (1e-2, 1e-3, 1e-4)
    q_deviations = []
    p_deviations = []
    for coupling in couplings:
        probe = wva.gaussian_probe(coupling, width)
        report = wva.shift_report(evo_for(AW_FIG, coupling), probe)
        q_deviations.append(abs(report.delta_q / (coupling * AW_FIG.real) - 1.0))
        p_deviations.append(
            abs(report.delta_p / (2.0 * coupling * width**2 * AW_FIG.imag) - 1.0)
        )
    q_slope = np.polyfit(np.log(couplings), np.log(q_deviations), 1)[0]
    p_slope = np.polyfit(np.log(couplings), np.log(p_deviations), 1)[0]
    assert abs(q_slope - 2.0) <= 0.1
    assert abs(p_slope - 2.0) <= 0.1
    print(
        f"[criterion 03] PASS - weak-regime ratios hold at g=1e-3; "
        f"deviation slopes {q_slope:.3f} (q), {p_slope:.3f} (p)"
    )


def test_criterion_04_factor_integral_identities():
    checked = 0
    for coupling in COUPLINGS:
        grid = wva.MomentumGrid.for_support(coupling, 4097)
        for value in WEAK_VALUES:
            if abs(complex(value).real) < 1e-12:
                continue
            density = np.abs(wva.evolution_factor(coupling, value, grid.points)) ** 2
            quad_sq = float(grid.integrate(1.0 / density))
            quad_fourth = float(grid.integrate(1.0 / density**2))
            ref_sq = wva.inverse_square_factor_integral(coupling, value)
            ref_fourth = wva.inverse_fourth_factor_integral(coupling, value)
            assert abs(quad_sq - ref_sq) <= 1e-7 * ref_sq, (coupling, value)
            assert abs(quad_fourth - ref_fourth) <= 1e-7 * ref_fourth, (coupling, value)
            checked += 1
    print(f"[criterion 04] PASS - {checked} inverse-factor integrals match closed forms")


def _acceptance_runs(maximize):
    grid = wva.MomentumGrid.for_support(0.1, 513)
    for value in (2.0 + 0j, AW_FIG):
        for init, seed in (("gaussian", 0), ("random", 1), ("random", 2), ("random", 3)):
            config = wva.OptimizerConfig(grid=grid, init=init, seed=seed)
            trace = maximize(config, evo_for(value, 0.1))
            yield value, init, seed, trace


def test_criterion_05a_variational_convergence(maximize_once):
    for value, init, seed, trace in _acceptance_runs(maximize_once):
        reference = wva.max_shift(0.1, value)
        final = trace.iterations[-1][1]
        assert trace.converged, (value, init, seed)
        assert abs(final - reference) <= 1e-3 * reference, (value, init, seed, final)
        assert final <= reference + 1e-6, (value, init, seed, final)
    print("[criterion 05a] PASS - 8 runs converge to the closed-form shift (1e-3) "
          "and never report a converged shift above it")


def test_criterion_05b_no_iterate_exceeds(maximize_once):
    # Asserted exactly as specified.  Unattainable for the real weak value 2:
    # the shift functional's value on ordinary Gaussian-like states already
    # exceeds the closed-form stationary value there (see the module
    # docstring and ledger), so transits cross above it.
    for value, init, seed, trace in _acceptance_runs(maximize_once):
        bound = wva.max_shift(0.1, value) + 1e-6
        worst = max(objective for _, objective, _ in trace.iterations)
        assert worst <= bound, (
            f"A={value}, init={init}, seed={seed}: iterate shift {worst:.6f} "
            f"exceeds {bound:.6f}; with 2 (Re A)^2 > |A|^2 + 1 the closed form "
            f"is not an upper bound for general probes"
        )
    print("[criterion 05b] PASS - no iterate exceeded the closed-form shift")


def test_criterion_05c_stationarity_of_analytic_optimum():
    for value in (2.0 + 0j, AW_FIG):
        probe = wva.optimal_probe(0.1, value, n_points=513)
        x = wva.periodic_representative(probe)
        norm = wva.AscentCore(probe.grid, evo_for(value, 0.1)).projected_gradient_norm(x)
        assert norm < 1e-5, (value, norm)
    print("[criterion 05c] PASS - projected gradient at the analytic optimum < 1e-5")


def test_criterion_06_smoothing_convergence():
    reference = wva.max_shift(G_FIG, AW_FIG)
    gaps = []
    for product in (1.0, 2.0, 5.0, 10.0, 20.0):
        smoothing = product / G_FIG
        probe = wva.smoothed_optimal_probe(G_FIG, AW_FIG, smoothing)
        report = wva.shift_report(evo_for(AW_FIG, G_FIG), probe)
        gaps.append(abs(report.delta_q - reference))
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 0.01 * reference
    print(
        "[criterion 06] PASS - smoothing gaps strictly decrease "
        f"({', '.join(f'{gap:.2e}' for gap in gaps)}); last = "
        f"{gaps[-1] / reference:.2e} of the closed form"
    )


def test_criterion_07_shift_bounds():
    rng = np.random.default_rng(2026)
    coupling = 0.1
    for _ in range(200):
        value = complex(
            rng.uniform(0.05, 5.0) * rng.choice([-1.0, 1.0]), rng.uniform(-5.0, 5.0)
        )
        lower = wva.shift_lower_bound(coupling, value)
        assert abs(wva.max_shift(coupling, value)) >= lower - 1e-12
        assert lower >= coupling - 1e-15
    for value in (1.0, -1.0):
        assert abs(wva.max_shift(coupling, value)) == coupling
        assert wva.shift_lower_bound(coupling, value) == coupling
    print("[criterion 07] PASS - bound chain holds on 200 draws, tight at A = +/-1")


def _orthogonality_limits(tmp_path, offsets):
    """(g, extrapolated limit) of an optimal-probe post-selection-angle sweep
    at the angles 3 pi/4 + offsets, for g = 0.1 and 0.2."""
    limits = []
    for coupling in (0.1, 0.2):
        angles = 3.0 * math.pi / 4.0 + offsets
        out = tmp_path / f"sweep_{coupling}.csv"
        rc = main(
            [
                "sweep",
                "--axis",
                "postselection_angle",
                "--g",
                str(coupling),
                "--pre",
                "1,1",
                "--post",
                "1,0",
                "--obs",
                "1,0;0,-1",
                "--probe",
                "optimal",
                "--values",
                ",".join(repr(float(a)) for a in angles),
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        rows = _read_rows(out)
        samples = []
        for row in rows:
            theta = float(row["axis_value"])
            overlap = abs(math.cos(theta) + math.sin(theta)) / math.sqrt(2.0)
            samples.append((overlap, float(row["overlap_times_q_final"])))
        limits.append((coupling, wva.extrapolate_orthogonality_limit(samples)))
    return limits


def test_criterion_08_orthogonality_extrapolation(tmp_path):
    for coupling, limit in _orthogonality_limits(tmp_path, np.geomspace(1e-3, 3e-2, 9)):
        assert abs(limit - coupling / 2.0) <= 0.01 * (coupling / 2.0), (coupling, limit)
    print("[criterion 08] PASS - sweep products extrapolate to g/2 within 1%")


def test_criterion_08_near_orthogonality(tmp_path):
    # Offsets down to 1e-7 (|A| about 1e7): 4e8 p-grid points under the
    # resolution law, 33 theta nodes.
    for coupling, limit in _orthogonality_limits(tmp_path, np.geomspace(1e-7, 1e-3, 9)):
        assert abs(limit - coupling / 2.0) <= 0.01 * (coupling / 2.0), (coupling, limit)
    print("[criterion 08] PASS - near-orthogonal sweep products extrapolate to g/2 within 1%")


def test_criterion_09_mach_zehnder_agreement():
    angles = np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)
    checked = 0
    for chi in angles:
        for phi in angles:
            if abs(math.cos(chi + phi)) < 1e-6:
                continue
            closed = wva.mach_zehnder_weak_value(chi, phi)
            pre, post, obs = wva.mach_zehnder_setup(chi, phi)
            matrix = wva.compute_weak_value(pre, post, obs)
            assert abs(closed.value - (matrix.value + 1.0) / 2.0) <= 1e-12 * max(
                1.0, abs(closed.value)
            )
            checked += 1
    wing = wva.mach_zehnder_weak_value(math.pi / 4.0, math.pi / 4.0 - 1e-4)
    assert abs(wing.value) > 1e3
    print(
        f"[criterion 09] PASS - {checked} grid points agree to 1e-12; "
        f"|C_w| = {abs(wing.value):.0f} on the divergence wing"
    )


def test_criterion_10_figure_data(tmp_path):
    out = tmp_path / "dump.csv"
    rc = main(
        [
            "dump",
            "--g",
            "0.1",
            "--aw-re",
            repr(AW_FIG.real),
            "--aw-im",
            repr(AW_FIG.imag),
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
    golden = (DATA / "golden_dump.csv").read_bytes()
    assert out.read_bytes() == golden

    rows = _read_rows(out)
    spaces = {row["space"] for row in rows}
    assert spaces == {
        "momentum_initial",
        "momentum_final",
        "position_initial",
        "position_final",
    }

    # peak of the discrete final samples sits at the comb point nearest the
    # mean final position
    finals = [row for row in rows if row["space"] == "position_final"]
    values = np.array([complex(float(r["re"]), float(r["im"])) for r in finals])
    positions = np.array([float(r["coordinate"]) for r in finals])
    shift = wva.max_shift(G_FIG, AW_FIG)
    assert positions[int(np.argmax(np.abs(values)))] == positions[
        int(np.argmin(np.abs(positions - shift)))
    ]

    # series coefficients satisfy the completeness (unitarity) sum: those of
    # the phase-removed final state, flat on the support, over the comb of
    # spacing 2g are sqrt(2g) times its position amplitudes at q = 2 g n
    grid = wva.MomentumGrid.for_support(G_FIG, 4097)
    flat = wva.ProbeWavefunction.normalized(grid, np.ones(grid.n_points, dtype=complex))
    coefficients = math.sqrt(2.0 * G_FIG) * wva.position_amplitudes(flat, 2.0 * G_FIG * np.arange(-8, 9))
    total = float(np.sum(np.abs(coefficients) ** 2))
    assert abs(total - 1.0) <= 1e-8

    # 12-significant-digit stability: every numeric field re-renders
    # identically after a float round trip
    for row in rows:
        for field in ("coordinate", "re", "im"):
            assert format_number(float(row[field])) == row[field]
    print(
        "[criterion 10] PASS - golden dump regression, peak location, "
        f"series completeness = {total:.12f}, 12-digit stability"
    )
