"""The closed-form output model point by point, as the reference for the batched kernel.

This is the closed form evaluated one point at a time, as a chain: the
transfer functions G, H, I and Delta at one sideband frequency, the 4x4
standard-form covariance of the formulas in the ``optoepr.spectrum`` module
docstring, and the entanglement metrics of one point.  It takes nothing from
the kernel: each point is evaluated alone in Python floats, its failures
raised by name.  Squares are formed as products, in the association order
the kernel uses, because numpy squares an array by a product while Python's
``**`` calls ``pow``, which is not correctly rounded.  So
``spectrum.closed_form_grid`` is checked against it to the last bit: n and
k_x at every point where the kernel names no failure, and the same failure
class where it names one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from optoepr.errors import DegenerateResponse, DomainError, PhysicsError
from optoepr.spectrum import StandardForm, eof, squeezing_db
from optoepr.steady_state import ALPHA_MATCH_RTOL, DerivedParams


@dataclass(frozen=True)
class TransferPoint:
    """Complex transfer functions of the output model at one sideband frequency."""

    omega: float
    G: complex
    H: complex
    I: complex
    Delta_of_omega: complex


@dataclass(frozen=True)
class EntMetrics:
    """Entanglement metrics of a symmetric two-mode Gaussian state."""

    epr_variance: float
    S_db: float
    eof: float
    entangled: bool
    log_negativity: float


@dataclass(frozen=True)
class SpectrumPoint:
    omega: float
    standard_form: StandardForm | None
    metrics: EntMetrics | None
    flags: tuple[str, ...]


def require_symmetric(derived: DerivedParams):
    if derived.alpha_mismatch() > ALPHA_MATCH_RTOL:
        raise DomainError(
            f"output model requires |alpha_1| = |alpha_2|; relative mismatch "
            f"{derived.alpha_mismatch():.3e} exceeds {ALPHA_MATCH_RTOL:g}"
        )


def denominator(derived: DerivedParams, omega):
    """Delta(omega) and whether it has vanished (numpy-polymorphic in omega)."""
    g, gp, gamma = derived.g, derived.g_prime, derived.gamma
    Dw = (-1j * omega + gamma / 2.0) ** 2 + gp * gp - g * g
    return Dw, abs(Dw) < 1e-30 * (gamma * gamma + omega * omega)


def transfer_functions(derived: DerivedParams, omega: float) -> TransferPoint:
    """Evaluate G, H, I and Delta at one sideband frequency.

    Raises DomainError for unequal amplitudes, and DegenerateResponse if
    |Delta(omega)| is vanishingly small relative to gamma^2 + omega^2,
    signalling a parametric instability outside the model's regime.
    """
    require_symmetric(derived)
    g, gp, gamma = derived.g, derived.g_prime, derived.gamma
    Dw, degenerate = denominator(derived, omega)
    if degenerate:
        raise DegenerateResponse(f"response denominator vanished at omega = {omega:.6e}")
    u_minus_v = omega * omega + gamma * gamma / 4.0 + g * g - gp * gp
    s = math.sqrt(derived.gamma * derived.gamma_m_tilde)
    return TransferPoint(
        omega=omega,
        G=(u_minus_v - 1j * gp * gamma) / Dw,
        H=1j * g * gamma / Dw,
        I=(-1j * omega + gamma / 2.0 - 1j * (gp - g)) * s / Dw,
        Delta_of_omega=Dw,
    )


def closed_form_covariance(tp: TransferPoint, n_m: float,
                           derived: DerivedParams) -> tuple[np.ndarray, StandardForm]:
    """The 4x4 spectral covariance (standard form) at tp.omega and its summary.

    The matrix is over (X1, P1, X2, P2); k_p = -k_x exactly for this closed
    form.  ``n_m`` overrides the occupancy stored in ``derived``.
    """
    g, gp, gamma, omega = derived.g, derived.g_prime, derived.gamma, tp.omega
    therm = gamma * derived.gamma_m_tilde * (2.0 * n_m + 1.0)
    w2, g2, gp2, quarter = omega * omega, g * g, gp * gp, gamma * gamma / 4.0
    u_minus_v = w2 + quarter + g2 - gp2
    re_D = quarter - w2 + gp2 - g2
    abs_D2 = re_D * re_D + w2 * gamma * gamma
    mech = ((omega + gp - g) * (omega + gp - g) + quarter) * therm
    n = (u_minus_v * u_minus_v + (gp2 + g2) * gamma * gamma + mech) / abs_D2
    v14 = -2.0 * g * gamma * u_minus_v / abs_D2
    v24 = (2.0 * gp * g * gamma * gamma + mech) / abs_D2
    k_x = float(np.hypot(v14, v24))
    V = np.array([
        [n, 0.0, k_x, 0.0],
        [0.0, n, 0.0, -k_x],
        [k_x, 0.0, n, 0.0],
        [0.0, -k_x, 0.0, n],
    ])
    return V, StandardForm(n=float(n), k_x=k_x, k_p=-k_x, residual=0.0)


def epr_combination_variances(sf: StandardForm) -> tuple[float, float]:
    """Direct quadrature-combination variances (squeezed, anti-squeezed).

    <d^2(X1 -/+ X2)> and <d^2(P1 +/- P2)> evaluate to 2(n - k_x) and
    2(n + k_x) in this normalization.
    """
    return 2.0 * (sf.n - sf.k_x), 2.0 * (sf.n + sf.k_x)


def log_negativity(x: float) -> float:
    """Logarithmic negativity max(0, -log2 x) of a symmetric state; NaN stays NaN."""
    return 0.0 if x >= 1.0 else -math.log2(x)


def ent_metrics(sf: StandardForm) -> EntMetrics:
    """All entanglement metrics of a standard-form covariance."""
    x = sf.n - sf.k_x
    if x <= 0:
        raise DomainError(f"unphysical standard form: n - k_x = {x:g} <= 0")
    return EntMetrics(
        epr_variance=x,
        S_db=squeezing_db(x),
        eof=eof(x),
        entangled=x < 1.0,
        log_negativity=log_negativity(x),
    )


def spectrum(derived: DerivedParams, omega_grid) -> list[SpectrumPoint]:
    """The closed-form output state point by point over a frequency grid.

    A point whose chain raises a physics error records it as an
    ``error:<class>`` flag, with no standard form and no metrics; points with
    |omega| >= delta carry the elimination-band flag first.
    """
    points = []
    for omega in np.asarray(omega_grid, dtype=float).tolist():
        flags = ("omega_outside_elimination_band",) if abs(omega) >= derived.delta else ()
        try:
            _, sf = closed_form_covariance(transfer_functions(derived, omega), derived.n_m,
                                           derived)
            metrics = ent_metrics(sf)
        except PhysicsError as exc:
            sf = metrics = None
            flags += (f"error:{type(exc).__name__}",)
        points.append(SpectrumPoint(omega, sf, metrics, flags))
    return points
