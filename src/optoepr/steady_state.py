"""Classical steady state of the driven cavity and the linearized-model parameters.

The c-number displacements (alpha_1, alpha_2, beta) satisfy

    alpha_j = (Omega_j / 2) / (Delta_j + 2 eta^2 omega_m N + i gamma / 2),
    N       = |alpha_1|^2 + |alpha_2|^2,
    beta    ~= -eta * N,

so N obeys the scalar self-consistency equation

    N = sum_j (Omega_j^2 / 4) / ((Delta_j + 2 eta^2 omega_m N)^2 + gamma^2 / 4).

Every root lies in [0, sum_j Omega_j^2 / gamma^2].  Clearing the
denominators turns the equation into a polynomial of degree 5 in N, so the
solver takes all its real roots in that interval from the eigenvalues of its
companion matrix and polishes each with one Newton step on the rational form.
Several roots mean optical bistability.  The operating point is the
smallest root inside the window Delta_1' < 0 < Delta_2' that the
two-sideband scheme needs; ``multistable`` records that the equation had
more than one root, whether or not the others lie in the window.

:func:`solve_steady_state` solves one parameter set at a time and raises
its error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoSteadyState, ParameterError, SignConventionViolated
from .params import DriveSpec, PhysicalParams, thermal_occupancy

# Symmetric-amplitude requirement of the output model.  Drive-power
# excursions at the percent level unbalance the amplitudes by a few 1e-4,
# which the robustness analyses must be able to evaluate; the state asymmetry
# this induces is far below the standard-form residual tolerance.
ALPHA_MATCH_RTOL = 1e-3

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)   # the smallest normal float


@dataclass(frozen=True)
class DerivedParams:
    """Parameters of the linearized model, all in rad/s unless noted.

    Attributes
    ----------
    alpha_1, alpha_2 : complex
        Intracavity displacement amplitudes (dimensionless photon amplitudes).
    beta : float
        Mechanical displacement (real part; the imaginary part is dropped and
        its magnitude recorded in ``beta_imag_dropped``).
    Delta_1p, Delta_2p : float
        Intensity-shifted detunings; the operating point has Delta_1p < 0 < Delta_2p.
    delta : float
        Residual mechanical detuning (Delta_2p - Delta_1p)/2 - omega_m, > 0.
    d : float
        Common normal-mode offset -(Delta_1p + Delta_2p)/2, the entanglement knob.
    g : float
        Effective parametric rate eta^2 |alpha|^2 omega_m^2 / delta.
    gamma_m_tilde : float
        Effective mechanical noise rate (eta |alpha| omega_m / delta)^2 gamma_m.
    n_m : float
        Thermal occupancy of the mechanical bath.
    multistable : bool
        True when the intensity equation had more than one root.
    """

    alpha_1: complex
    alpha_2: complex
    beta: float
    beta_imag_dropped: float
    Delta_1p: float
    Delta_2p: float
    delta: float
    d: float
    g: float
    gamma_m_tilde: float
    n_m: float
    gamma: float
    gamma_m: float
    omega_m: float
    eta: float
    multistable: bool

    @property
    def g_prime(self) -> float:
        """g + d."""
        return self.g + self.d

    @property
    def alpha(self) -> float:
        """Common amplitude |alpha| used by the adiabatic model."""
        return 0.5 * (abs(self.alpha_1) + abs(self.alpha_2))

    @property
    def n_total(self) -> float:
        return abs(self.alpha_1) ** 2 + abs(self.alpha_2) ** 2

    def alpha_mismatch(self) -> float:
        """Relative mismatch between |alpha_1| and |alpha_2|."""
        a1, a2 = abs(self.alpha_1), abs(self.alpha_2)
        scale = max(a1, a2)
        return 0.0 if scale == 0 else abs(a1 - a2) / scale


def _intensity_roots(omega_1, omega_2, delta_1, delta_2, c, gamma):
    """All real roots of N = sum_j (Omega_j^2/4) / D_j(N) in [0, upper], ascending.

    D_j(N) = (Delta_j + c N)^2 + gamma^2/4 and upper = sum_j Omega_j^2 / gamma^2.
    Multiplying through by D_1 D_2 gives the quintic

        N D_1 D_2 - (Omega_1^2/4) D_2 - (Omega_2^2/4) D_1 = 0,

    solved in u = N / upper from the eigenvalues of its companion matrix,
    built as ``np.roots`` builds it.  Leading coefficients below machine
    epsilon times the largest change the polynomial on [0, 1] by less than
    its rounding, so they are dropped: a vanishing coupling (c -> 0) lowers
    the degree instead of pushing companion-matrix eigenvalues to infinity.
    The equation has a root in [0, upper], and none at 0, where the quintic
    is -(Omega_1^2 D_2 + Omega_2^2 D_1)/4 < 0; so the degree stays at least 1
    and no zero root is split off, as ``np.roots`` would.  D_1 D_2 is
    multiplied by ``np.convolve``, which sums through BLAS; a written-out
    product would differ from it in the last bit.  Each real root in [0, 1]
    is polished with one Newton step on the rational form.  Every root lies
    in (0, 1], and one next to 1 (|Delta_j + c N| << gamma) may be computed
    a few ulp above it, so eigenvalues up to 4 eps above 1 are kept.  An
    ``upper`` below the smallest normal float is the undriven cavity, root 0:
    its subnormal products lose the digits that keep the root in the bracket.
    """
    upper = (omega_1 * omega_1 + omega_2 * omega_2) / gamma**2
    if upper < _TINY:
        return [0.0]
    s = c * upper
    d1, d2 = ([s * s, 2.0 * dj * s, dj * dj + gamma * gamma / 4.0] for dj in (delta_1, delta_2))
    poly = [upper * x for x in np.convolve(d1, d2).tolist()] + [0.0]   # upper u D_1 D_2
    a1, a2 = omega_1 * omega_1 / 4.0, omega_2 * omega_2 / 4.0
    for i in range(3):
        poly[3 + i] -= a1 * d2[i] + a2 * d1[i]
    floor = _EPS * max(map(abs, poly))
    poly = poly[next(i for i, x in enumerate(poly) if abs(x) > floor):]
    companion = np.diag(np.ones(len(poly) - 2), -1)
    companion[0] = -np.array(poly[1:]) / poly[0]
    roots = []
    for N in sorted(upper * z.real for z in np.linalg.eigvals(companion).tolist()
                    if z.imag == 0.0 and 0.0 <= z.real <= 1.0 + 4.0 * _EPS):
        f, slope = N, 1.0
        for om, dj in ((omega_1, delta_1), (omega_2, delta_2)):
            shifted = dj + c * N
            den = shifted * shifted + gamma * gamma / 4.0
            term = (om * om / 4.0) / den
            f -= term
            slope += term * 2.0 * c * shifted / den
        roots.append(N - f / slope)
    return roots


def solve_steady_state(params: PhysicalParams) -> DerivedParams:
    """Solve the displacement steady state and derive the linearized-model parameters.

    Finds every intensity root (see :func:`_intensity_roots`) and keeps the
    smallest one inside the window Delta_1' < 0 < Delta_2'.  Both shifted
    detunings Delta_j' = Delta_j + 2 eta^2 omega_m N grow with N, so the
    window is an interval of N and each root is tested on its own.
    ``multistable`` is set when the equation has more than one root.  Unequal
    cavity amplitudes warn, at the caller's line.

    Raises
    ------
    NoSteadyState
        If no root exists in the physical bracket (cannot happen: a drive too
        weak for the bracket to be a normal float leaves the cavity empty, and
        any other has a root there; kept as a guard).
    SignConventionViolated
        If no root lies in the window Delta_1' < 0 < Delta_2', or if
        delta <= 0 (delta does not depend on N), i.e. the drive frequencies
        are inconsistent with the two-sideband arrangement the model assumes.
    """
    omega_1, omega_2 = params.drive_amplitudes()
    delta_1, delta_2 = params.drive.Delta_1, params.drive.Delta_2
    eta2wm2 = 2.0 * params.eta**2 * params.omega_m
    roots = _intensity_roots(omega_1, omega_2, delta_1, delta_2, eta2wm2, params.gamma)
    if not roots:
        raise NoSteadyState("no intensity root in [0, sum Omega^2/gamma^2]")
    multistable = len(roots) > 1
    # with no root in the window, the smallest one fails the sign check below
    N = next((N for N in roots if delta_1 + eta2wm2 * N < 0.0 < delta_2 + eta2wm2 * N), roots[0])

    shift = eta2wm2 * N
    d1p = delta_1 + shift
    d2p = delta_2 + shift
    alpha_1 = (omega_1 / 2.0) / (d1p + 1j * params.gamma / 2.0)
    alpha_2 = (omega_2 / 2.0) / (d2p + 1j * params.gamma / 2.0)

    # beta from the mechanical c-number balance; imaginary part ~ gamma_m/(2 omega_m).
    denom = params.omega_m**2 + params.gamma_m**2 / 4.0
    beta = -params.eta * params.omega_m * N * params.omega_m / denom
    beta_imag = params.eta * params.omega_m * N * (params.gamma_m / 2.0) / denom

    if d1p >= 0.0 or d2p <= 0.0:
        raise window_error(d1p, d2p)
    delta = 0.5 * (d2p - d1p) - params.omega_m
    d = -0.5 * (d1p + d2p)
    if delta <= 0.0:
        raise SignConventionViolated(f"elimination requires delta > 0; got {delta:.4e}")

    a1, a2 = abs(alpha_1), abs(alpha_2)
    alpha = 0.5 * (a1 + a2)
    g = params.eta**2 * alpha**2 * params.omega_m**2 / delta
    gamma_m_tilde = (params.eta * alpha * params.omega_m / delta) ** 2 * params.gamma_m

    derived = DerivedParams(
        alpha_1=alpha_1,
        alpha_2=alpha_2,
        beta=beta,
        beta_imag_dropped=beta_imag,
        Delta_1p=d1p,
        Delta_2p=d2p,
        delta=delta,
        d=d,
        g=g,
        gamma_m_tilde=gamma_m_tilde,
        n_m=thermal_occupancy(params.omega_m, params.T),
        gamma=params.gamma,
        gamma_m=params.gamma_m,
        omega_m=params.omega_m,
        eta=params.eta,
        multistable=multistable,
    )
    if derived.alpha_mismatch() > ALPHA_MATCH_RTOL:
        warnings.warn(f"unequal cavity amplitudes |alpha_1| = {a1:.6g}, |alpha_2| = {a2:.6g}; "
                      "the adiabatic output model assumes alpha_1 = alpha_2", stacklevel=2)
    return derived


def window_error(d1p: float, d2p: float) -> SignConventionViolated:
    """The error of an operating point outside the window Delta_1' < 0 < Delta_2'."""
    return SignConventionViolated(
        f"operating point requires Delta_1' < 0 < Delta_2'; got {d1p:.4e}, {d2p:.4e}")


def steady_state_residual(params: PhysicalParams, derived: DerivedParams) -> float:
    """Largest residual |i Delta_j a_j + 2i eta^2 w_m a_j N - (gamma/2) a_j - i Omega_j/2|.

    Diagnostic for the root quality; < 1e-10 |Omega_j| for a converged solve.
    """
    omega_1, omega_2 = params.drive_amplitudes()
    delta_1, delta_2 = params.drive.Delta_1, params.drive.Delta_2
    N = derived.n_total
    worst = 0.0
    for om, dj, aj in ((omega_1, delta_1, derived.alpha_1), (omega_2, delta_2, derived.alpha_2)):
        res = (1j * dj * aj + 2j * params.eta**2 * params.omega_m * aj * N
               - params.gamma / 2.0 * aj - 1j * om / 2.0)
        if om > 0:
            worst = max(worst, abs(res) / om)
    return worst


def amplitude_to_drive(target_alpha: float, Delta_j: float, params: PhysicalParams) -> float:
    """Drive amplitude Omega_j that puts |alpha_j| at ``target_alpha``.

    ``Delta_j`` is the mode's intensity-shifted detuning Delta_j' at the
    operating point.  At that detuning the single-mode response
    |alpha_j| = (Omega_j / 2) / |Delta_j' + i gamma / 2| is linear in the
    drive, so the closed form Omega_j = target_alpha sqrt(gamma^2 + 4 Delta_j'^2)
    is exact; :func:`operating_point_params` fixes the shift itself under the
    symmetric configuration alpha_1 = alpha_2 = target_alpha.  Squares are
    products (``**`` is libm's ``pow``, not correctly rounded): 2^k rates scale Omega_j exactly.
    """
    if not (math.isfinite(target_alpha) and target_alpha > 0):
        raise ParameterError(f"target_alpha must be finite and > 0, got {target_alpha!r}")
    return target_alpha * math.sqrt(params.gamma * params.gamma + 4.0 * (Delta_j * Delta_j))


def operating_point_params(base: PhysicalParams, target_alpha: float,
                           target_delta: float, target_d: float) -> PhysicalParams:
    """Re-derive the drive's detunings and amplitudes hitting a requested operating point.

    Chooses the effective detunings Delta_1' = -(omega_m + delta + d) and
    Delta_2' = omega_m + delta - d, backs out the bare detunings the drive
    holds by removing the intensity shift at N = 2 target_alpha^2, and sets
    the drive amplitudes so that |alpha_1| = |alpha_2| = target_alpha exactly
    at that root.
    """
    if not (math.isfinite(target_delta) and target_delta > 0):
        raise ParameterError(f"target_delta must be finite and > 0, got {target_delta!r}")
    if not math.isfinite(target_d):
        raise ParameterError(f"target_d must be finite, got {target_d!r}")
    d1p_t = -(base.omega_m + target_delta + target_d)
    d2p_t = base.omega_m + target_delta - target_d
    if d2p_t <= 0:
        raise SignConventionViolated(
            f"target d = {target_d:.4e} too large: Delta_2' = {d2p_t:.4e} would not be positive"
        )

    shift = 2.0 * base.eta**2 * base.omega_m * (2.0 * target_alpha**2)
    drive = DriveSpec(Delta_1=d1p_t - shift, Delta_2=d2p_t - shift,
                      omega_1=amplitude_to_drive(target_alpha, d1p_t, base),
                      omega_2=amplitude_to_drive(target_alpha, d2p_t, base))
    return base.scaled(drive=drive)


def retuned_d(params: PhysicalParams, new_d: float) -> PhysicalParams:
    """Move the offset d to ``new_d``, holding delta and the common amplitude.

    Both effective detunings shift by the same amount -(new_d - d); the
    drive amplitudes are rebalanced at the same time so that
    |alpha_1| = |alpha_2| stays at the current common value (detuning and
    power are always tuned together to keep the amplitudes equal).
    """
    derived = solve_steady_state(params)
    return operating_point_params(params, target_alpha=derived.alpha,
                                  target_delta=derived.delta, target_d=new_d)
