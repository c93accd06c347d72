import math

import numpy as np
import pytest

import optoepr as oe
from optoepr.constants import HBAR, K_B
from optoepr.params import TWO_PI, gamma_m_from_q

OMEGA_M = TWO_PI * 73.5e6


class TestThermalOccupancy:
    def test_zero_temperature_is_exactly_zero(self):
        assert oe.thermal_occupancy(OMEGA_M, 0.0) == 0.0

    def test_room_temperature(self):
        # Bose-Einstein at 2pi x 73.5 MHz, 300 K
        assert oe.thermal_occupancy(OMEGA_M, 300.0) == pytest.approx(8.50e4, rel=1e-3)

    def test_liquid_nitrogen(self):
        assert oe.thermal_occupancy(OMEGA_M, 77.0) == pytest.approx(2.183e4, rel=1e-3)

    def test_monotone_in_temperature(self):
        temps = np.linspace(0.1, 400.0, 200)
        values = [oe.thermal_occupancy(OMEGA_M, t) for t in temps]
        assert np.all(np.diff(values) > 0)

    def test_monotone_decreasing_in_frequency(self):
        freqs = np.linspace(0.5 * OMEGA_M, 5 * OMEGA_M, 100)
        values = [oe.thermal_occupancy(w, 300.0) for w in freqs]
        assert np.all(np.diff(values) < 0)

    def test_high_temperature_expansion(self):
        # k_B T >> hbar w: n ~ k_B T / (hbar w) - 1/2 to better than 1e-3 relative
        for T in (77.0, 300.0, 1000.0):
            n = oe.thermal_occupancy(OMEGA_M, T)
            classical = K_B * T / (HBAR * OMEGA_M) - 0.5
            assert abs(n - classical) < 1e-3 * n

    @pytest.mark.parametrize("T", [1e-6, 1e-300, 5e-324])
    def test_underflowing_occupancy_is_zero(self, T):
        # hbar w / (k_B T) is far past the overflow of expm1 (at T = 5e-324, k_B T is 0)
        assert oe.thermal_occupancy(OMEGA_M, T) == 0.0

    def test_bose_einstein_form(self):
        for T in (1e-3, 0.05, 4.0, 300.0, 1e6):
            assert oe.thermal_occupancy(OMEGA_M, T) == 1.0 / math.expm1(HBAR * OMEGA_M / (K_B * T))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            oe.thermal_occupancy(-1.0, 300.0)
        with pytest.raises(ValueError):
            oe.thermal_occupancy(OMEGA_M, -1.0)


class TestDriveConversions:
    def test_zero_power_zero_amplitude(self):
        assert oe.power_to_amplitude(0.0, TWO_PI * 3e14, TWO_PI * 3.2e6) == 0.0

    def test_ten_milliwatt_example(self):
        omega = oe.power_to_amplitude(10e-3, TWO_PI * 3e14, TWO_PI * 3.2e6)
        assert omega == pytest.approx(2.0114e12, rel=5e-3)

    @pytest.mark.parametrize("P", [-1e-3, math.nan])
    def test_negative_or_nan_power_rejected(self, P):
        with pytest.raises(oe.ParameterError, match="drive powers must be >= 0"):
            oe.power_to_amplitude(P, TWO_PI * 3e14, TWO_PI * 3.2e6)

    def test_round_trip_identity(self):
        omega_L = TWO_PI * 3e14
        gamma = TWO_PI * 3.2e6
        for P in np.geomspace(1e-9, 1.0, 25):
            back = oe.amplitude_to_power(oe.power_to_amplitude(P, omega_L, gamma), omega_L, gamma)
            assert back == pytest.approx(P, rel=1e-12)


class TestNormalModeDrives:
    def test_exact_balance(self):
        assert oe.normal_mode_drives(1.0, 1.0, 1.0, -1.0) == (2.0, 2.0)

    def test_single_drive(self):
        assert oe.normal_mode_drives(1.0, 1.0, 0.0, 0.0) == (2.0, 0.0)

    def test_unbalanced_symmetric_pair_rejected(self):
        with pytest.raises(oe.ConstraintViolated):
            oe.normal_mode_drives(1.0, 0.9, 1.0, -1.0)

    def test_unbalanced_antisymmetric_pair_rejected(self):
        with pytest.raises(oe.ConstraintViolated):
            oe.normal_mode_drives(1.0, 1.0, 1.0, -0.9)


class TestDetunings:
    OMEGA_P = TWO_PI * 3e14
    NU = TWO_PI * 1e8

    def test_on_resonance(self):
        # exact up to one ulp of the optical-frequency scale (~0.25 rad/s)
        d1, d2 = oe.detunings(self.OMEGA_P + self.NU, self.OMEGA_P - self.NU, self.OMEGA_P, self.NU)
        assert d1 == pytest.approx(0.0, abs=1.0) and d2 == pytest.approx(0.0, abs=1.0)

    def test_equal_lasers(self):
        d1, d2 = oe.detunings(self.OMEGA_P, self.OMEGA_P, self.OMEGA_P, self.NU)
        assert d1 == -self.NU and d2 == self.NU

    def test_signed_arithmetic(self):
        d1, d2 = oe.detunings(self.OMEGA_P + self.NU - 5e8, self.OMEGA_P - self.NU + 5e8,
                              self.OMEGA_P, self.NU)
        assert d1 == pytest.approx(-5e8, abs=1.0) and d2 == pytest.approx(5e8, abs=1.0)

    def test_sum_invariant_under_common_shift(self):
        d1a, d2a = oe.detunings(self.OMEGA_P + 1e8, self.OMEGA_P - 2e8, self.OMEGA_P, self.NU)
        shift = 3.7e9
        d1b, d2b = oe.detunings(self.OMEGA_P + 1e8 + shift, self.OMEGA_P - 2e8 + shift,
                                self.OMEGA_P + shift, self.NU)
        assert d1a + d2a == pytest.approx(d1b + d2b, abs=1e-6)


class TestEtaFromGeometry:
    def test_doubling_radius_halves_eta(self):
        a = oe.eta_from_geometry(1e15, 1e8, 1e-12, 38e-6)
        b = oe.eta_from_geometry(1e15, 1e8, 1e-12, 2 * 38e-6)
        assert b == pytest.approx(a / 2, rel=1e-12)

    def test_quadrupling_mass_halves_eta(self):
        a = oe.eta_from_geometry(1e15, 1e8, 1e-12, 38e-6)
        b = oe.eta_from_geometry(1e15, 1e8, 4e-12, 38e-6)
        assert b == pytest.approx(a / 2, rel=1e-12)

    def test_inverse_construction(self):
        # choose m so that x_zpf / R = 1e-4 (omega_m / omega_p) => eta = 1e-4
        omega_p, omega_m, R = TWO_PI * 3e14, OMEGA_M, 38e-6
        x_target = 1e-4 * (omega_m / omega_p) * R
        m = HBAR / (omega_m * x_target**2)
        assert oe.eta_from_geometry(omega_p, omega_m, m, R) == pytest.approx(1e-4, rel=1e-12)


# Each argument of the helpers that checked it with a comparison a NaN fails, set to
# NaN in turn: each raises as power_to_amplitude and gamma_m_from_q do for a NaN.
NAN_ARGUMENTS = {
    "thermal_occupancy": (oe.thermal_occupancy, (OMEGA_M, 300.0),
                          ["omega_m must be > 0", "T must be >= 0"]),
    "amplitude_to_power": (oe.amplitude_to_power, (2e12, TWO_PI * 3e14, TWO_PI * 3.2e6),
                           ["Omega must be >= 0"] + ["omega_L and gamma must be > 0"] * 2),
    "eta_from_geometry": (oe.eta_from_geometry, (TWO_PI * 3e14, OMEGA_M, 1e-12, 38e-6),
                          ["all arguments must be > 0"] * 4),
}


@pytest.mark.parametrize("helper, position", [(name, i) for name, (_, args, _) in
                                              NAN_ARGUMENTS.items() for i in range(len(args))])
def test_nan_argument_rejected(helper, position):
    function, args, messages = NAN_ARGUMENTS[helper]
    assert math.isfinite(function(*args))
    args = args[:position] + (math.nan,) + args[position + 1:]
    with pytest.raises(ValueError, match=messages[position]):
        function(*args)


# Every helper's arguments, each set in turn to +-inf and NaN: each raises its own class,
# exactly, whichever check (a sign or finiteness) the value fails first.
NON_FINITE_ARGUMENTS = {
    "thermal_occupancy": (oe.thermal_occupancy, (OMEGA_M, 300.0), ValueError),
    "amplitude_to_power": (oe.amplitude_to_power, (2e12, TWO_PI * 3e14, TWO_PI * 3.2e6),
                           ValueError),
    "eta_from_geometry": (oe.eta_from_geometry, (TWO_PI * 3e14, OMEGA_M, 1e-12, 38e-6),
                          ValueError),
    "power_to_amplitude": (oe.power_to_amplitude, (10e-3, TWO_PI * 3e14, TWO_PI * 3.2e6),
                           oe.ParameterError),
    "normal_mode_drives": (oe.normal_mode_drives, (1.0, 1.0, 1.0, -1.0), oe.ParameterError),
    "gamma_m_from_q": (gamma_m_from_q, (OMEGA_M, 1e4), oe.ParameterError),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("helper, position", [(name, i) for name, (_, args, _) in
                                              NON_FINITE_ARGUMENTS.items()
                                              for i in range(len(args))])
def test_non_finite_argument_rejected(helper, position, value):
    function, args, error = NON_FINITE_ARGUMENTS[helper]
    assert all(map(math.isfinite, np.atleast_1d(function(*args))))
    args = args[:position] + (value,) + args[position + 1:]
    with pytest.raises(ValueError) as raised:
        function(*args)
    assert raised.type is error


# Finite arguments outside a helper's domain, each with the ParameterError message of
# the check in PhysicalParams or DriveSpec that would reject the value it returned.
OUT_OF_DOMAIN_ARGUMENTS = [
    (gamma_m_from_q, (-1.0, 10.0), "omega_m must be strictly positive"),
    (gamma_m_from_q, (0.0, 10.0), "omega_m must be strictly positive"),
    (oe.normal_mode_drives, (-1.0, -1.0, -1.0, 1.0), "drive amplitudes must be >= 0"),
    (oe.normal_mode_drives, (-1.0, -1.0, 1.0, -1.0), "drive amplitudes must be >= 0"),
    (oe.normal_mode_drives, (1.0, 1.0, -1.0, 1.0), "drive amplitudes must be >= 0"),
]


@pytest.mark.parametrize("function, args, message", OUT_OF_DOMAIN_ARGUMENTS,
                         ids=lambda v: v.__name__ if callable(v) else None)
def test_out_of_domain_argument_rejected(function, args, message):
    with pytest.raises(oe.ParameterError, match=message):
        function(*args)


def test_zero_drives_accepted():
    # the undriven cavity is in the domain: a drive of 0 is not negative
    assert oe.normal_mode_drives(0.0, 0.0, 0.0, 0.0) == (0.0, 0.0)


class TestPhysicalParamsValidation:
    def test_gamma_m_must_be_below_omega_m(self, paper_params):
        with pytest.raises(ValueError, match="gamma_m"):
            paper_params.scaled(gamma_m=2.0 * paper_params.omega_m)

    def test_eta_bounds(self, paper_params):
        with pytest.raises(ValueError):
            paper_params.scaled(eta=0.0)
        with pytest.raises(ValueError):
            paper_params.scaled(eta=1.5)

    def test_laser_must_be_near_cavity(self, paper_params):
        drive = paper_params.drive
        bad = oe.DriveSpec(Delta_1=20 * paper_params.omega_m - paper_params.nu,
                           Delta_2=drive.Delta_2,
                           omega_1=drive.omega_1, omega_2=drive.omega_2)
        with pytest.raises(ValueError, match="sideband"):
            paper_params.scaled(drive=bad)

    @pytest.mark.parametrize("name", ["omega_1", "omega_2"])
    def test_negative_drive_amplitude_rejected(self, paper_params, name):
        drive = paper_params.drive
        fields = dict(Delta_1=drive.Delta_1, Delta_2=drive.Delta_2,
                      omega_1=drive.omega_1, omega_2=drive.omega_2)
        fields[name] = -1.0
        with pytest.raises(oe.ParameterError, match="drive amplitudes must be >= 0"):
            oe.DriveSpec(**fields)

    @pytest.mark.parametrize("name", ["omega_p", "omega_m", "gamma", "gamma_m", "nu", "eta",
                                      "T", "R", "n0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_field_rejected_by_name(self, paper_params, name, value):
        with pytest.raises(oe.ParameterError, match=f"{name} must be finite"):
            paper_params.scaled(**{name: value})

    @pytest.mark.parametrize("name", ["Delta_1", "omega_1"])
    def test_non_finite_drive_rejected_by_name(self, paper_params, name):
        drive = paper_params.drive
        fields = dict(Delta_1=drive.Delta_1, Delta_2=drive.Delta_2,
                      omega_1=drive.omega_1, omega_2=drive.omega_2)
        fields[name] = math.nan
        with pytest.raises(oe.ParameterError, match=f"{name} must be finite"):
            oe.DriveSpec(**fields)

    @pytest.mark.parametrize("q_factor", [0.0, -3.0, math.nan, math.inf])
    def test_gamma_m_from_q_rejects_q_by_name(self, q_factor):
        with pytest.raises(oe.ParameterError, match="q_factor must be finite and > 0"):
            gamma_m_from_q(OMEGA_M, q_factor)
        assert gamma_m_from_q(OMEGA_M, 3e4) == OMEGA_M / 3e4

    @pytest.mark.parametrize("target, name", [
        (dict(target_alpha=math.nan), "target_alpha"),
        (dict(target_alpha=math.inf), "target_alpha"),
        (dict(target_delta=math.nan), "target_delta"),
        (dict(target_d=math.nan), "target_d"),
    ])
    def test_operating_point_targets_rejected_by_name(self, paper_params, target, name):
        kwargs = dict(target_alpha=1000.0, target_delta=TWO_PI * 1e7,
                      target_d=0.07 * paper_params.gamma)
        kwargs.update(target)
        with pytest.raises(oe.ParameterError, match=f"{name} must be finite"):
            oe.operating_point_params(paper_params, **kwargs)


class TestValidateRegime:
    def test_paper_defaults_pass(self, paper_params, paper_derived):
        report = oe.validate_regime(paper_params, paper_derived,
                                    omega_max=0.1 * paper_derived.delta)
        assert report.overall_pass
        names = {c.name for c in report.checks}
        assert {"rwa", "elimination", "mode_spacing"} <= names

    def test_rwa_fails_when_delta_reaches_omega_m(self, paper_params, paper_derived):
        from dataclasses import replace
        bad = replace(paper_derived, delta=paper_params.omega_m)
        report = oe.validate_regime(paper_params, bad, omega_max=1e5)
        rwa = next(c for c in report.checks if c.name == "rwa")
        assert not rwa.passed and rwa.ratio == pytest.approx(1.0)
        assert not report.overall_pass

    def test_mode_spacing_fails_at_fsr_drive(self, paper_params, paper_derived):
        fsr = paper_params.free_spectral_range()
        drive = oe.DriveSpec(Delta_1=paper_params.drive.Delta_1,
                             Delta_2=paper_params.drive.Delta_2,
                             omega_1=fsr, omega_2=fsr)
        loud = paper_params.scaled(drive=drive)
        report = oe.validate_regime(loud, paper_derived, omega_max=1e5)
        spacing = next(c for c in report.checks if c.name == "mode_spacing")
        assert not spacing.passed and spacing.ratio == pytest.approx(1.0)

    def test_deterministic_and_pure(self, paper_params, paper_derived):
        a = oe.validate_regime(paper_params, paper_derived, omega_max=1e5)
        b = oe.validate_regime(paper_params, paper_derived, omega_max=1e5)
        assert a == b
