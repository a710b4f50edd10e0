import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wva
from wva import (
    MomentumGrid,
    NodeSamples,
    PostSelectedEvolution,
    ProbeWavefunction,
    ShiftReport,
    UnderResolvedGrid,
    WeakValue,
    ZeroNorm,
    gaussian_exact_shifts,
    gaussian_probe,
    max_shift,
    optimal_initial_momentum,
    optimal_probe,
    shift_report,
)
from wva.evolution import apply_postselection
from wva.probe import ZERO_NORM_FLOOR

G = 0.1
AW = math.sqrt(3) + 2.0 * math.sqrt(3) * 1j


def evo_for(value, coupling=G):
    return PostSelectedEvolution(coupling, WeakValue.from_value(value))


class TestExpectQ:
    def test_gaussian_is_centered(self):
        probe = gaussian_probe(G, 1.0)
        assert NodeSamples(probe.grid, probe.values, probe.derivative).means()[0] == pytest.approx(
            0.0, abs=1e-8
        )

    def test_linear_phase_shifts_mean(self):
        probe = gaussian_probe(G, 1.0)
        grid = probe.grid
        a = 1.37
        values = probe.values * np.exp(-1j * a * grid.points)
        derivative = (probe.derivative - 1j * a * probe.values) * np.exp(
            -1j * a * grid.points
        )
        assert NodeSamples(grid, values, derivative).means()[0] == pytest.approx(a, abs=1e-8)

    def test_optimal_probe_final_mean(self):
        # g (|A|^2 + 1) / (2 Re A) = 0.1 * 16 / (2 sqrt 3) = 0.4618802...
        from wva import apply_postselection

        probe = optimal_probe(G, AW)
        evolved = apply_postselection(evo_for(AW), probe)
        mean = NodeSamples(evolved.grid, evolved.values, evolved.derivative).means()[0]
        assert mean == pytest.approx(0.461880215352, abs=1e-6)

    def test_zero_norm_raises(self):
        grid = MomentumGrid(-1.0, 1.0, 21)
        zeros = np.zeros(21, dtype=complex)
        with pytest.raises(ZeroNorm):
            NodeSamples(grid, zeros, zeros).means()[0]

    def test_imaginary_residual_small_for_analytic_probes(self):
        probe = optimal_probe(G, AW)
        residual = NodeSamples(probe.grid, probe.values, probe.derivative).means()[2]
        assert abs(residual) < 1e-6


class TestMeanMomentum:
    def test_gaussian_is_centered(self):
        probe = gaussian_probe(G, 1.0)
        assert shift_report(evo_for(AW), probe).p_initial == pytest.approx(0.0, abs=1e-10)

    def test_momentum_shift_against_closed_form(self):
        width = 1.0
        probe = gaussian_probe(G, width)
        delta_p = shift_report(evo_for(AW), probe).delta_p
        assert delta_p == pytest.approx(
            gaussian_exact_shifts(G, width, AW).delta_p, abs=1e-6
        )

    def test_weak_regime_momentum_shift(self):
        coupling = 1e-3
        width = 1.0
        probe = gaussian_probe(coupling, width)
        report = shift_report(evo_for(1j, coupling), probe)
        assert report.delta_p == pytest.approx(2.0 * coupling * width**2, abs=1e-6)


class TestShiftReport:
    def test_weak_regime_position_shift(self):
        coupling = 1e-3
        probe = gaussian_probe(coupling, 1.0)
        report = shift_report(evo_for(2.0, coupling), probe)
        assert abs(report.delta_q / (coupling * 2.0) - 1.0) < 1e-3

    def test_exact_gaussian_shift(self):
        # Frozen from the closed form: 0.2 / (1 - 1.5 (e^{-0.02} - 1)).
        probe = gaussian_probe(G, 1.0)
        report = shift_report(evo_for(2.0), probe)
        assert report.delta_q == pytest.approx(0.194230954134853, abs=1e-5)

    def test_unimodular_weak_value_has_no_backaction(self):
        value = complex(math.cos(0.7), math.sin(0.7))
        probe = gaussian_probe(G, 1.0)
        report = shift_report(evo_for(value), probe)
        assert report.delta_q == pytest.approx(G * value.real, abs=1e-10)

    def test_deltas_are_exact_differences(self):
        probe = gaussian_probe(G, 1.0)
        report = shift_report(evo_for(AW), probe)
        assert report.delta_q == report.q_final - report.q_initial
        assert report.delta_p == report.p_final - report.p_initial

    def test_report_validates_consistency(self):
        with pytest.raises(ValueError):
            ShiftReport(0.0, math.inf, 0.0, 0.0, 1.0)

    def test_gauge_invariance_of_shift(self):
        probe = gaussian_probe(G, 1.0)
        grid = probe.grid
        base = shift_report(evo_for(AW), probe)
        a = 3.7
        translated = ProbeWavefunction.normalized(
            grid,
            probe.values * np.exp(-1j * a * grid.points),
            (probe.derivative - 1j * a * probe.values) * np.exp(-1j * a * grid.points),
        )
        moved = shift_report(evo_for(AW), translated)
        assert moved.delta_q == pytest.approx(base.delta_q, abs=1e-8)
        assert moved.q_initial == pytest.approx(base.q_initial + a, abs=1e-8)


    def test_file_probe_takes_one_stencil_derivative_per_report(self, monkeypatch):
        # A probe without an analytic derivative (as read from a CSV file)
        # feeds the stencil derivative to both states of the report.
        calls = []
        stencil = wva.probe.numeric_derivative

        def counted(values, grid):
            calls.append(values.size)
            return stencil(values, grid)

        monkeypatch.setattr(wva.probe, "numeric_derivative", counted)
        source = gaussian_probe(G, 1.0)
        probe = ProbeWavefunction.normalized(source.grid, source.values)
        report = shift_report(evo_for(AW), probe)
        assert calls == [4001]
        assert report.delta_q == pytest.approx(
            shift_report(evo_for(AW), source).delta_q, rel=1e-6
        )

    @pytest.mark.parametrize("value", [2.0, -0.5 + 3.0j, AW])
    def test_optimal_probe_weight_is_overlap_squared_times_real_part(self, value):
        # Under from_value the overlap is one, so the weight is |Re A| and
        # exceeds one: it is not a success probability.
        report = shift_report(evo_for(value), optimal_probe(G, value))
        assert report.weight == pytest.approx(abs(complex(value).real), rel=1e-12)

    @pytest.mark.parametrize("angles", [(0.3, 1.2), (0.7, 0.9), (1.1, 0.5)])
    def test_optimal_probe_weight_under_a_physical_selection(self, angles):
        weak = wva.compute_weak_value(*wva.mach_zehnder_setup(*angles))
        report = shift_report(PostSelectedEvolution(G, weak), optimal_probe(G, weak.value))
        expected = abs(weak.overlap) ** 2 * abs(weak.value.real)
        assert report.weight == pytest.approx(expected, rel=1e-12)
        assert 0.0 < report.weight <= 1.0


class TestQuadratureConvergence:
    def test_simpson_order_against_closed_form(self):
        # Halving the spacing must cut the error by at least 8x while it sits
        # above the rounding floor.  (For this family the integrands are
        # nearly band-limited, so convergence is faster than fourth order and
        # bottoms out quickly; the coarse window shows the decay.)  The means
        # are the quadratures themselves: a shift report refuses every one of
        # these grids, the 11 points for want of a nested rule.
        coupling, width, value = 0.5, 1.0, 1.0 + 1.0j
        prediction = gaussian_exact_shifts(coupling, width, value)
        q_errors = []
        p_errors = []
        evo = evo_for(value, coupling)
        for n, refusal in ((11, "11 points have no nested"), (21, "the probe: on 21"), (41, "the probe: on 41")):
            probe = gaussian_probe(coupling, width, n)
            (q_initial, p_initial, _), (q_final, p_final, _) = probe.means(), apply_postselection(evo, probe).means()
            q_errors.append(abs(q_final - q_initial - prediction.delta_q))
            p_errors.append(abs(p_final - p_initial - prediction.delta_p))
            with pytest.raises(UnderResolvedGrid, match=refusal):
                shift_report(evo, probe)
        assert q_errors[-1] > 1e-15  # still above the exact-cancellation floor
        for errors in (q_errors, p_errors):
            assert errors[0] / errors[1] >= 8.0
            assert errors[1] / errors[2] >= 8.0


class TestShiftLandscape:
    def test_optimal_family_attains_max_shift(self):
        report = shift_report(evo_for(AW), optimal_probe(G, AW))
        assert report.delta_q == pytest.approx(max_shift(G, AW), rel=1e-6)

    def test_gaussian_exceeds_closed_form_shift_for_dominant_real_part(self):
        # The closed-form "maximum" bounds the back-action-cancelling family,
        # not every probe: whenever 2 (Re A)^2 > |A|^2 + 1 the weak-regime
        # Gaussian shift g Re A already exceeds g (|A|^2 + 1) / (2 Re A).
        coupling, value = 1e-3, 2.0
        probe = gaussian_probe(coupling, 1.0)
        report = shift_report(evo_for(value, coupling), probe)
        assert report.delta_q > max_shift(coupling, value) + 1e-6

    def test_random_smooth_probes_near_optimum_stay_below(self):
        # Small smooth perturbations of the optimal probe keep the shift near
        # the closed-form value (first-order drift is bounded by the initial
        # mean-position gradient).
        rng = np.random.default_rng(12)
        probe = optimal_probe(G, AW, n_points=2049)
        grid = probe.grid
        reference = max_shift(G, AW)
        for _ in range(10):
            modes = rng.integers(-20, 21, size=6)
            bump = np.zeros(grid.n_points, dtype=complex)
            for m in modes:
                bump += (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(
                    2j * math.pi * m * (grid.points - grid.p_min) / (grid.p_max - grid.p_min)
                )
            bump /= math.sqrt(float(grid.integrate(np.abs(bump) ** 2)))
            eps = 1e-4
            perturbed = ProbeWavefunction.normalized(
                grid, probe.values + eps * bump
            )
            report = shift_report(evo_for(AW), perturbed)
            assert abs(report.delta_q - reference) < 100.0 * eps


class TestThetaNodeReport:
    @settings(max_examples=40, deadline=None)
    @given(
        log_real=st.floats(-12.0, 3.0),
        real_sign=st.sampled_from([-1.0, 1.0]),
        imag=st.floats(-1e3, 1e3),
        overlap_modulus=st.floats(1e-3, 1.0),
        overlap_phase=st.floats(-math.pi, math.pi),
        extent=st.integers(1, 4),
    )
    # Under the count-doubling rule the 256- and 512-interval rules agreed to
    # 5e-12 of pi/2g here, both 2.7e-9 off.
    @example(log_real=0.021484375, real_sign=-1.0, imag=217.0, overlap_modulus=1.0, overlap_phase=0.0, extent=1)
    @example(log_real=-4.0, real_sign=-1.0, imag=0.001953125, overlap_modulus=1.0, overlap_phase=0.0, extent=1)
    # Refused under the count-doubling rule: the step of p(theta) sits a/2
    # from a window end at |A| near 1, mid window at |A| < 1.
    @example(log_real=-9.0, real_sign=1.0, imag=1.0, overlap_modulus=1.0, overlap_phase=0.0, extent=1)
    @example(log_real=-12.0, real_sign=1.0, imag=1.0, overlap_modulus=1.0, overlap_phase=0.0, extent=1)
    @example(log_real=-4.0, real_sign=1.0, imag=1e-10, overlap_modulus=1.0, overlap_phase=0.0, extent=1)
    @example(log_real=-4.0, real_sign=-1.0, imag=1e-10, overlap_modulus=1.0, overlap_phase=0.0, extent=1)
    def test_report_meets_the_closed_forms(
        self, log_real, real_sign, imag, overlap_modulus, overlap_phase, extent
    ):
        value = complex(real_sign * 10.0**log_real, imag)
        overlap = overlap_modulus * complex(math.cos(overlap_phase), math.sin(overlap_phase))
        weak = WeakValue(value, overlap)
        report = shift_report(PostSelectedEvolution(G, weak), optimal_probe(G, value, None, extent))
        assert report.delta_q == pytest.approx(max_shift(G, value), rel=1e-12)
        expected = -optimal_initial_momentum(G, value, extent)
        assert report.delta_p == pytest.approx(expected, abs=1e-12 * math.pi / (2 * G))
        assert report.weight == pytest.approx(overlap_modulus**2 * abs(value.real), rel=1e-12)

    def test_evolution_the_probe_does_not_cancel_is_refused(self):
        # The evolved state is exact on the support nodes only when it is flat.
        with pytest.raises(UnderResolvedGrid, match="post-selected"):
            shift_report(evo_for(AW + 1.0), optimal_probe(G, AW, None))

    def test_the_evolved_state_reads_the_one_halving_tolerance(self, monkeypatch):
        # Its halving estimates are 1e-17 to 2e-16 of their scales, not zero;
        # in a shift report the probe's own check would refuse first.
        evolved = apply_postselection(evo_for(AW), optimal_probe(G, AW, None))
        evolved.check_resolved("the post-selected state")
        monkeypatch.setattr("wva.probe.HALVING_TOL", 1e-30)
        with pytest.raises(UnderResolvedGrid, match="the post-selected state: on 17 nodes"):
            evolved.check_resolved("the post-selected state")

    def test_weight_below_the_absolute_floor_is_reported(self):
        # The weight |overlap|^2 |Re A| = 6.1e-15 is below ZERO_NORM_FLOOR, but
        # the overlap cancels from every quotient.
        value, overlap = -1e-10 + 0.0j, 0.0078
        weak = WeakValue(value, overlap)
        report = shift_report(PostSelectedEvolution(G, weak), optimal_probe(G, value, None))
        assert report.weight < ZERO_NORM_FLOOR
        assert report.weight == pytest.approx(overlap**2 * abs(value.real), rel=1e-12)
        assert report.delta_q == pytest.approx(max_shift(G, value), rel=1e-12)

    @pytest.mark.parametrize("overlap", [1.0, 1e-3, 1e-170])
    def test_annihilated_state_is_refused_relative_to_the_overlap(self, overlap):
        # A narrow probe on the zero of B = cos gp + 2 sin gp (A = 2i) keeps
        # about 1e-18 of its norm, at any overlap; at 1e-170 both the weight
        # and |overlap|^2 underflow to zero.
        value, width = 2.0j, 1e-8
        center = -math.atan(0.5) / G
        grid = MomentumGrid(center - 12.0 * width, center + 12.0 * width, 401)
        offset = grid.points - center
        values = np.exp(-(offset**2) / (4.0 * width**2)).astype(complex)
        probe = ProbeWavefunction.normalized(grid, values, -offset / (2.0 * width**2) * values)
        weak = WeakValue(value, overlap)
        with pytest.raises(ZeroNorm):
            shift_report(PostSelectedEvolution(G, weak), probe)


# 200 shift reports at A = 2 + 30i on 40,001 points, with the CPU time of
# every thread of the process read from /proc before and after the loop.
# numpy is imported before wva, so the host owns a threaded BLAS pool.
_THREAD_CPU_SCRIPT = """
import os
import time
import numpy
import wva

def cpu_ticks():
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks[int(tid)] = int(fields[11]) + int(fields[12])  # utime + stime
    return ticks

value = 2.0 + 30.0j
probe = wva.optimal_probe(0.1, value, n_points=40001)
evo = wva.PostSelectedEvolution(0.1, wva.WeakValue.from_value(value))
wva.shift_report(evo, probe)
# An idle BLAS helper thread spins for a while after start-up before it
# sleeps; wait that out so the loop is charged only for threads it wakes.
time.sleep(1.0)
before = cpu_ticks()
for _ in range(200):
    wva.shift_report(evo, probe)
after = cpu_ticks()
main = os.getpid()
others = sum(t - before.get(tid, 0) for tid, t in after.items() if tid != main)
print(after[main] - before[main], others)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs per-thread CPU times")
def test_shift_reports_keep_quadrature_on_the_calling_thread():
    # A threaded BLAS dot product in the quadrature wakes helper threads that
    # spin for as long as the loop runs, about doubling its CPU time.
    src = str(Path(wva.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _THREAD_CPU_SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    main_ticks, other_ticks = map(int, done.stdout.split())
    assert main_ticks > 0
    assert other_ticks < 0.1 * main_ticks
