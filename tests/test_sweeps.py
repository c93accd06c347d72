import math

import numpy as np
import pytest

import optoepr as oe
from optoepr.spectrum import eof_array, epr_variance_array
from optoepr.sweeps import SweepSpec, peak_statistics, run_sweep


class TestPeakStatistics:
    def test_single_parabola(self):
        omega = np.linspace(-1.0, 1.0, 201)
        curve = 5.0 - 4.0 * omega**2
        stats = peak_statistics(omega, curve)
        assert stats.peak_eof == pytest.approx(5.0, rel=1e-9)
        assert stats.peak_omegas == pytest.approx((0.0,), abs=1e-9)
        # half maximum at 5 - 4 w^2 = 2.5 -> w = sqrt(0.625)
        assert stats.fwhm == pytest.approx(2 * math.sqrt(0.625), rel=1e-3)

    def test_twin_peaks(self):
        omega = np.linspace(-2.0, 2.0, 801)
        curve = np.exp(-((np.abs(omega) - 1.0) ** 2) / 0.05)
        stats = peak_statistics(omega, curve)
        assert len(stats.peak_omegas) == 2
        assert stats.peak_omegas[0] == pytest.approx(-1.0, abs=1e-3)
        assert stats.peak_omegas[1] == pytest.approx(1.0, abs=1e-3)


class TestRunSweep:
    def test_single_value_sweep_equals_direct_spectrum(self, optimum_params,
                                                       optimum_derived, omega_grid):
        spec = SweepSpec(axis="temperature", values=(300.0,), base=optimum_params,
                         omega_grid=omega_grid)
        result = run_sweep(spec)
        assert len(result.rows) == 1
        direct = eof_array(epr_variance_array(optimum_derived, omega_grid))
        assert np.allclose(result.rows[0].eof, direct, rtol=1e-9)

    def test_temperature_insensitive_peak_and_narrowing_width(self, optimum_params,
                                                              omega_grid):
        spec = SweepSpec(axis="temperature", values=(4.0, 77.0, 300.0),
                         base=optimum_params, omega_grid=omega_grid)
        rows = run_sweep(spec).rows
        peaks = [r.peak_eof for r in rows]
        assert (max(peaks) - min(peaks)) < 0.01 * max(peaks)
        fwhm_4, fwhm_77, fwhm_300 = (r.fwhm for r in rows)
        assert fwhm_300 < fwhm_77 < fwhm_4

    def test_q_insensitivity(self, optimum_params, omega_grid):
        spec = SweepSpec(axis="Q", values=(300.0, 3000.0, 30000.0),
                         base=optimum_params, omega_grid=omega_grid)
        rows = run_sweep(spec).rows
        peaks = [r.peak_eof for r in rows]
        assert (max(peaks) - min(peaks)) < 0.03 * max(peaks)

    def test_strong_driving_splits_peaks(self, optimum_params, omega_grid):
        spec = SweepSpec(axis="alpha", values=(2000.0, 3000.0, 4000.0),
                         base=optimum_params, omega_grid=omega_grid)
        rows = run_sweep(spec).rows
        separations = []
        for row in rows:
            assert row.error is None
            assert len(row.peak_omegas) == 2
            lo, hi = row.peak_omegas
            assert lo == pytest.approx(-hi, rel=1e-6)
            separations.append(hi - lo)
        assert separations[0] < separations[1] < separations[2]

    def test_row_order_independent(self, optimum_params, omega_grid):
        up = run_sweep(SweepSpec(axis="temperature", values=(4.0, 300.0),
                                 base=optimum_params, omega_grid=omega_grid))
        down = run_sweep(SweepSpec(axis="temperature", values=(300.0, 4.0),
                                   base=optimum_params, omega_grid=omega_grid))
        assert up.rows[0].peak_eof == down.rows[1].peak_eof
        assert up.rows[1].peak_eof == down.rows[0].peak_eof

    def test_error_rows_recorded_not_fatal(self, paper_params, paper_derived, omega_grid):
        # second value pushes Delta_2' through zero: no valid operating point
        big = paper_params.omega_m + 2.0 * paper_derived.delta
        spec = SweepSpec(axis="d", values=(1e6, big), base=paper_params,
                         omega_grid=omega_grid)
        rows = run_sweep(spec).rows
        assert rows[0].error is None
        assert rows[1].error is not None
        assert math.isnan(rows[1].peak_eof)

    def test_peak_eof_monotone_in_alpha_with_reoptimized_d(self, paper_params,
                                                           paper_derived, omega_grid):
        peaks = []
        for alpha in (500.0, 1000.0, 2000.0):
            tuned = oe.operating_point_params(paper_params, alpha,
                                              paper_derived.delta, paper_derived.d)
            derived = oe.solve_steady_state(tuned)
            at_opt = oe.retuned_d(tuned, oe.optimum_d(derived).d_o)
            derived_opt = oe.solve_steady_state(at_opt)
            stats = peak_statistics(omega_grid,
                                    eof_array(epr_variance_array(derived_opt, omega_grid)))
            peaks.append(stats.peak_eof)
        assert peaks[0] < peaks[1] < peaks[2]

    def test_adiabatic_response_model_accepted(self, optimum_params, omega_grid):
        spec = SweepSpec(axis="temperature", values=(4.0, 300.0), base=optimum_params,
                         omega_grid=omega_grid, model="adiabatic_response")
        rows = run_sweep(spec).rows
        assert [r.value for r in rows] == [4.0, 300.0]
        for row in rows:
            assert row.error is None
            assert row.peak_eof > 0.0

    def test_spec_validation(self, paper_params, omega_grid):
        with pytest.raises(ValueError):
            SweepSpec(axis="bogus", values=(1.0,), base=paper_params, omega_grid=omega_grid)
        with pytest.raises(ValueError):
            SweepSpec(axis="d", values=(), base=paper_params, omega_grid=omega_grid)
        with pytest.raises(ValueError):
            SweepSpec(axis="d", values=(1.0, 3.0, 2.0), base=paper_params,
                      omega_grid=omega_grid)


class TestFindOptimumD:
    def test_matches_closed_form_within_five_percent(self, paper_params, paper_derived):
        d_o = oe.optimum_d(paper_derived).d_o
        d_star = oe.find_optimum_d_numeric(paper_params, (0.3 * d_o, 3.0 * d_o))
        assert abs(d_star - d_o) / d_o < 0.05

    def test_scaling_with_gamma(self, paper_params, paper_derived):
        # doubling gamma rescales the optimum consistently with the closed form
        d_o_1 = oe.optimum_d(paper_derived).d_o
        d_star_1 = oe.find_optimum_d_numeric(paper_params, (0.3 * d_o_1, 3.0 * d_o_1))
        wide = paper_params.scaled(gamma=2 * paper_params.gamma)
        wide = oe.operating_point_params(wide, 1000.0, paper_derived.delta, paper_derived.d)
        d_o_2 = oe.optimum_d(oe.solve_steady_state(wide)).d_o
        d_star_2 = oe.find_optimum_d_numeric(wide, (0.3 * d_o_2, 3.0 * d_o_2))
        assert d_star_2 / d_star_1 == pytest.approx(d_o_2 / d_o_1, rel=0.10)

    def test_degenerate_bracket_returns_point(self, paper_params, paper_derived):
        d_o = oe.optimum_d(paper_derived).d_o
        assert oe.find_optimum_d_numeric(paper_params, (d_o, d_o)) == d_o

    def test_invalid_bracket(self, paper_params):
        with pytest.raises(oe.BracketError):
            oe.find_optimum_d_numeric(paper_params, (2e6, 1e6))


class TestSensitivityAnalysis:
    def test_zero_jitter_zero_degradation(self, paper_params):
        report = oe.sensitivity_analysis(paper_params, 0.0, 0.0)
        assert report.degradation == 0.0
        assert report.worst_peak_eof == report.baseline_peak_eof

    def test_detuning_jitter_keeps_entanglement_high(self, paper_params):
        report = oe.sensitivity_analysis(paper_params, 0.02 * paper_params.gamma, 0.0)
        assert report.baseline_peak_eof == pytest.approx(5.0, abs=0.1)
        assert report.worst_peak_eof > 4.0
        assert report.degradation < 0.25

    def test_power_jitter_shifts_d_through_intensity_term(self, paper_params,
                                                          paper_derived):
        report = oe.sensitivity_analysis(paper_params, 0.0, 0.01)
        d_o = oe.optimum_d(paper_derived).d_o
        expected_shift = (4.0 * paper_params.eta**2 * paper_params.omega_m
                          * paper_derived.alpha**2 * 0.01)
        drifts = {c.label: abs(c.d - d_o) for c in report.cases if "power" in c.label}
        assert drifts
        for drift in drifts.values():
            assert drift == pytest.approx(expected_shift, rel=0.05)
        assert report.worst_peak_eof > 4.5

    def test_negative_jitter_rejected(self, paper_params):
        with pytest.raises(ValueError):
            oe.sensitivity_analysis(paper_params, -1.0, 0.0)


class TestPowerFluctuation:
    def test_power_fluct_row_matches_power_jitter_case(self, paper_params, paper_derived,
                                                        omega_grid):
        at_opt = oe.retuned_d(paper_params, oe.optimum_d(paper_derived).d_o)
        rows = run_sweep(SweepSpec(axis="power_fluct", values=(0.01,), base=at_opt,
                                   omega_grid=omega_grid)).rows
        report = oe.sensitivity_analysis(paper_params, 0.0, 0.01, omega_grid=omega_grid)
        jitter = {case.label: case for case in report.cases}["power+jitter"]
        assert rows[0].error is None
        assert rows[0].peak_eof == jitter.peak_eof
        assert rows[0].derived.d == jitter.d
