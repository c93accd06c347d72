"""Laboratory parameters, unit conventions and validity-regime checks.

All frequencies and rates are stored as angular quantities [rad/s], and the
drive as its two lasers' detunings from their normal modes and its two
normal-mode amplitudes.  Linear frequencies (Hz) and laser powers (W) are
accepted only at configuration boundaries, where Hz are multiplied by 2*pi
once and powers converted to amplitudes once (:func:`power_to_amplitude`),
whose photon energy alone needs the absolute laser frequencies
(:meth:`PhysicalParams.laser_frequencies`).  Types are immutable after
construction and all operations are pure functions, so everything here is
safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .constants import C, HBAR, K_B
from .errors import ConstraintViolated, ParameterError

TWO_PI = 2.0 * math.pi

# Balance tolerance for the normal-mode drive conditions.
DRIVE_BALANCE_TOL = 1e-9

# "Much greater than" is operationalised as a ratio of at least this value.
DEFAULT_REGIME_THRESHOLD = 5.0


def _require_finite(error, **values: float) -> None:
    """``error`` naming the first of ``values`` that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise error(f"{name} must be finite, got {value!r}")


def gamma_m_from_q(omega_m: float, q_factor: float) -> float:
    """Mechanical decay rate omega_m / Q; ParameterError unless omega_m is finite and
    > 0 and Q is finite and > 0."""
    if not (math.isfinite(q_factor) and q_factor > 0):
        raise ParameterError(f"q_factor must be finite and > 0, got {q_factor!r}")
    _require_finite(ParameterError, omega_m=omega_m)
    if omega_m <= 0:
        raise ParameterError("omega_m must be strictly positive")
    return omega_m / q_factor


@dataclass(frozen=True)
class DriveSpec:
    """Four-laser drive reduced to the two normal-mode drives.

    Attributes
    ----------
    Delta_1, Delta_2 : float
        Signed bare detunings of the lasers driving mode 1 (at omega_p + nu)
        and mode 2 (at omega_p - nu) from their modes [rad/s].
    omega_1, omega_2 : float
        Drive amplitudes of the two normal modes [rad/s].
    """

    Delta_1: float
    Delta_2: float
    omega_1: float
    omega_2: float

    def __post_init__(self):
        _require_finite(ParameterError, Delta_1=self.Delta_1, Delta_2=self.Delta_2,
                        omega_1=self.omega_1, omega_2=self.omega_2)
        if not (self.omega_1 >= 0 and self.omega_2 >= 0):
            raise ParameterError("drive amplitudes must be >= 0")


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory-frame constants of the device and its drives.

    Attributes
    ----------
    omega_p : float
        Cavity resonance angular frequency [rad/s].
    omega_m : float
        Mechanical resonance angular frequency [rad/s].
    gamma : float
        Cavity amplitude decay rate [rad/s].
    gamma_m : float
        Mechanical decay rate [rad/s].
    nu : float
        Coupling rate between the two degenerate cavity modes [rad/s].
    eta : float
        Dimensionless optomechanical coupling parameter, 0 < eta < 1.
    T : float
        Bath temperature [K].
    R : float
        Cavity radius [m].
    n0 : float
        Refractive index of the cavity material.
    drive : DriveSpec
    """

    omega_p: float
    omega_m: float
    gamma: float
    gamma_m: float
    nu: float
    eta: float
    T: float
    R: float
    n0: float
    drive: DriveSpec

    def __post_init__(self):
        _require_finite(ParameterError, omega_p=self.omega_p, omega_m=self.omega_m,
                        gamma=self.gamma, gamma_m=self.gamma_m, nu=self.nu, eta=self.eta,
                        T=self.T, R=self.R, n0=self.n0)
        for name in ("omega_p", "omega_m", "gamma", "gamma_m", "nu", "R", "n0"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be strictly positive")
        if self.T < 0:
            raise ParameterError("T must be >= 0")
        if not 0 < self.eta < 1:
            raise ParameterError("eta must satisfy 0 < eta < 1")
        if self.gamma_m >= self.omega_m:
            raise ParameterError("gamma_m must be << omega_m; got gamma_m >= omega_m")
        for name, offset in (("omega_l", self.nu + self.drive.Delta_1),
                             ("omega_lp", self.drive.Delta_2 - self.nu)):
            if abs(offset) >= 10.0 * self.omega_m:
                raise ParameterError(
                    f"{name} is {abs(offset):.3e} rad/s from omega_p; the sideband "
                    f"expansion requires |omega_L - omega_p| < 10 omega_m"
                )

    @property
    def q_factor(self) -> float:
        return self.omega_m / self.gamma_m

    def drive_amplitudes(self) -> tuple[float, float]:
        """Normal-mode drive amplitudes (Omega_1, Omega_2) [rad/s]."""
        return self.drive.omega_1, self.drive.omega_2

    def drive_powers(self) -> tuple[float, float]:
        """Input laser powers (P_1, P_2) [W]."""
        return tuple(amplitude_to_power(amplitude, omega_L, self.gamma) for amplitude, omega_L
                     in zip(self.drive_amplitudes(), self.laser_frequencies()))

    def laser_frequencies(self) -> tuple[float, float]:
        """(omega_p + nu + Delta_1, omega_p - nu + Delta_2), formed only for photon energies."""
        return (self.omega_p + self.nu + self.drive.Delta_1,
                self.omega_p - self.nu + self.drive.Delta_2)

    def free_spectral_range(self) -> float:
        """Distance between adjacent cavity modes, c/(R n0) [rad/s-equivalent]."""
        return C / (self.R * self.n0)

    def scaled(self, **changes) -> "PhysicalParams":
        """Copy with selected fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    ratio: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of the approximation-validity checks; report-only, never raises."""

    checks: tuple[RegimeCheck, ...]
    overall_pass: bool

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: ratio = {c.ratio:.3g} (threshold {c.threshold:g})")
        lines.append(f"  overall: {'pass' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines)


def thermal_occupancy(omega_m: float, T: float) -> float:
    """Bose-Einstein occupancy of a bath mode at angular frequency omega_m.

    Returns exactly 0 for T = 0 and wherever exp(-hbar omega_m / (k_B T))
    underflows, where ``math.expm1`` would overflow or k_B T is itself 0.
    ValueError unless both are finite, omega_m > 0 and T >= 0.
    """
    if not omega_m > 0:
        raise ValueError("omega_m must be > 0")
    if not T >= 0:
        raise ValueError("T must be >= 0")
    _require_finite(ValueError, omega_m=omega_m, T=T)
    k_t = K_B * T
    if k_t == 0.0:
        return 0.0
    try:
        return 1.0 / math.expm1(HBAR * omega_m / k_t)
    except OverflowError:
        return 0.0


def power_to_amplitude(P: float, omega_L: float, gamma: float) -> float:
    """Drive amplitude Omega = 2 sqrt(P gamma / (hbar omega_L)) [rad/s].

    The one conversion of a drive power: the configuration's ``p1_w``/``p2_w``
    and the power excursions of :mod:`optoepr.sweeps` both go through it.
    ParameterError unless all three are finite, P >= 0 and omega_L, gamma > 0.
    """
    if not P >= 0:
        raise ParameterError("drive powers must be >= 0")
    if not (omega_L > 0 and gamma > 0):
        raise ParameterError("omega_L and gamma must be > 0")
    _require_finite(ParameterError, P=P, omega_L=omega_L, gamma=gamma)
    return 2.0 * math.sqrt(P * gamma / (HBAR * omega_L))


def amplitude_to_power(Omega: float, omega_L: float, gamma: float) -> float:
    """Inverse of :func:`power_to_amplitude`: P = hbar omega_L Omega^2 / (4 gamma).

    ValueError unless all three are finite, Omega >= 0 and omega_L, gamma > 0.
    """
    if not Omega >= 0:
        raise ValueError("Omega must be >= 0")
    if not (omega_L > 0 and gamma > 0):
        raise ValueError("omega_L and gamma must be > 0")
    _require_finite(ValueError, Omega=Omega, omega_L=omega_L, gamma=gamma)
    return HBAR * omega_L * Omega**2 / (4.0 * gamma)


def normal_mode_drives(Omega_a: float, Omega_b: float, Omega_ap: float,
                       Omega_bp: float) -> tuple[float, float]:
    """Combine the four laser amplitudes into the two normal-mode drives.

    The symmetric/antisymmetric balance conditions Omega_a = Omega_b and
    Omega_a' = -Omega_b' must hold to ``DRIVE_BALANCE_TOL`` of the normal-mode
    drive they form; otherwise each laser would drive both normal modes and
    the two-drive reduction is physically inconsistent.

    Returns
    -------
    (Omega_1, Omega_2) = (Omega_a + Omega_b, Omega_a' - Omega_b')

    Raises ParameterError for an amplitude that is not finite or for a
    negative normal-mode drive, which no :class:`DriveSpec` can hold.
    """
    _require_finite(ParameterError, Omega_a=Omega_a, Omega_b=Omega_b, Omega_ap=Omega_ap,
                    Omega_bp=Omega_bp)
    if abs(Omega_a - Omega_b) > DRIVE_BALANCE_TOL * abs(Omega_a + Omega_b):
        raise ConstraintViolated(
            f"symmetric drive unbalanced: |Omega_a - Omega_b| = {abs(Omega_a - Omega_b):.3e}"
        )
    if abs(Omega_ap + Omega_bp) > DRIVE_BALANCE_TOL * abs(Omega_ap - Omega_bp):
        raise ConstraintViolated(
            f"antisymmetric drive unbalanced: |Omega_a' + Omega_b'| = {abs(Omega_ap + Omega_bp):.3e}"
        )
    drives = Omega_a + Omega_b, Omega_ap - Omega_bp
    if not (drives[0] >= 0 and drives[1] >= 0):
        raise ParameterError("drive amplitudes must be >= 0")
    return drives


def detunings(omega_L: float, omega_Lp: float, omega_p: float, nu: float) -> tuple[float, float]:
    """Signed detunings of the lasers from the two normal modes.

    Delta_1 = omega_L - omega_p - nu (mode at omega_p + nu),
    Delta_2 = omega_L' - omega_p + nu (mode at omega_p - nu).
    """
    return omega_L - omega_p - nu, omega_Lp - omega_p + nu


def eta_from_geometry(omega_p: float, omega_m: float, m: float, R: float) -> float:
    """Dimensionless coupling (omega_p/omega_m) x_zpf / R with x_zpf = sqrt(hbar/(m omega_m))."""
    if not all(v > 0 for v in (omega_p, omega_m, m, R)):
        raise ValueError("all arguments must be > 0")
    _require_finite(ValueError, omega_p=omega_p, omega_m=omega_m, m=m, R=R)
    x_zpf = math.sqrt(HBAR / (m * omega_m))
    return (omega_p / omega_m) * x_zpf / R


def validate_regime(params: PhysicalParams, derived, omega_max: float) -> RegimeReport:
    """Evaluate the approximation-validity ratios for a solved operating point.

    Checks (each ratio must reach DEFAULT_REGIME_THRESHOLD = 5):

    * ``rwa``            omega_m / max(delta, d, gamma, gamma_m)
    * ``elimination``    delta / max(omega_max, gamma_m)
    * ``mode_spacing``   FSR / max(Omega_1, Omega_2) with FSR = c/(R n0)
    * ``linearization``  |Delta_j| / (2 eta^2 omega_m (|alpha_1|^2 + |alpha_2|^2)), both modes

    Parameters
    ----------
    derived : DerivedParams
        Output of ``solve_steady_state(params)``.
    omega_max : float
        Largest sideband frequency magnitude the caller intends to evaluate.
    """
    checks = []

    def add(name, ratio):
        checks.append(RegimeCheck(name, ratio, DEFAULT_REGIME_THRESHOLD,
                                  ratio >= DEFAULT_REGIME_THRESHOLD))

    add("rwa", params.omega_m / max(abs(derived.delta), abs(derived.d), params.gamma, params.gamma_m))
    add("elimination", derived.delta / max(abs(omega_max), params.gamma_m))

    omega_1, omega_2 = params.drive_amplitudes()
    biggest_drive = max(omega_1, omega_2)
    fsr = params.free_spectral_range()
    add("mode_spacing", math.inf if biggest_drive == 0 else fsr / biggest_drive)

    shift = 2.0 * params.eta**2 * params.omega_m * derived.n_total
    for name, dj in (("linearization_1", params.drive.Delta_1),
                     ("linearization_2", params.drive.Delta_2)):
        add(name, math.inf if shift == 0 else abs(dj) / shift)

    return RegimeReport(tuple(checks), all(c.passed for c in checks))
