"""An arbitrary-precision reference for the output models' EPR variance x = n - k_x.

Each field of a ``DerivedParams`` is converted to mpmath exactly (every binary64
value is an mpf), and every derived quantity is formed in mpmath from those
fields: g' as g + d, not from the rounded ``g_prime`` property, and the common
amplitude |alpha| as the mean of |alpha_1| and |alpha_2|.  Nothing is taken from
the package's kernels, so the double paths are checked against numbers whose
only error is the working precision (:data:`DIGITS` significant digits).

Three models are covered:

* the closed form, from the formulas of the ``optoepr.spectrum`` module docstring
  (:func:`closed_form_x`);
* ``rwa3``, the 3-mode rotating-wave system {a1, a2^dag, a_m}, and
  ``adiabatic_response``, the eliminated two-mode model (a1, a2^dag): each drift
  is built from the fields and solved by LU at each sideband +-w, the output rows
  at -w are mirrored into the partner rows (:func:`output_rows`), and the
  covariance comes from the weighted Gram of the 4x6 map of
  (a1_out, a1_out^dag, a2_out, a2_out^dag), as in ``optoepr.langevin``
  (:func:`model_x`).
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 50

# Input order (a1_in, a1_in^dag, a2_in, a2_in^dag, a_m_in, a_m_in^dag); each
# input's partner swaps o and o^dag.
_PARTNER = (1, 0, 3, 2, 5, 4)
# The 3-mode system's inputs (a1_in, a2_in^dag, a_m_in) among the six.
_RWA3_INPUTS = (0, 3, 4)


def mp_fields(derived) -> dict:
    """The fields the reference reads, as exact mpmath numbers, with g' and |alpha|."""
    f = {name: mp.mpf(getattr(derived, name))
         for name in ("g", "d", "gamma", "gamma_m", "gamma_m_tilde", "n_m", "delta",
                      "eta", "omega_m")}
    f["g_prime"] = f["g"] + f["d"]
    f["alpha"] = (abs(mp.mpc(derived.alpha_1.real, derived.alpha_1.imag))
                  + abs(mp.mpc(derived.alpha_2.real, derived.alpha_2.imag))) / 2
    return f


def closed_form_x(derived, omega) -> mp.mpf:
    """n - k_x of the closed form at one sideband frequency."""
    with mp.workdps(DIGITS):
        f = mp_fields(derived)
        w = mp.mpf(omega)
        g, gp, gamma = f["g"], f["g_prime"], f["gamma"]
        therm = gamma * f["gamma_m_tilde"] * (2 * f["n_m"] + 1)
        u_minus_v = w**2 + gamma**2 / 4 + g**2 - gp**2
        mech = ((w + gp - g)**2 + gamma**2 / 4) * therm
        abs_D2 = abs((-1j * w + gamma / 2)**2 + gp**2 - g**2)**2
        n = (u_minus_v**2 + (gp**2 + g**2) * gamma**2 + mech) / abs_D2
        v14 = -2 * g * gamma * u_minus_v / abs_D2
        v24 = (2 * gp * g * gamma**2 + mech) / abs_D2
        return n - mp.sqrt(v14**2 + v24**2)


def _resolvent_columns(M, coupling, omega):
    """The columns of (-i w - M)^-1 diag(coupling), each by one LU solve."""
    k = M.rows
    A = -1j * omega * mp.eye(k) - M
    return [mp.lu_solve(A, mp.matrix([coupling[j] if i == j else 0 for i in range(k)]))
            for j in range(k)]


def _rwa3_rows(f, omega):
    """Rows (a1, a2^dag) of sqrt(gamma) (-i w - M)^-1 diag(l), over the six inputs."""
    d, gamma, gamma_m = f["d"], f["gamma"], f["gamma_m"]
    kappa = f["eta"] * f["omega_m"] * f["alpha"]
    M = mp.matrix([[-1j * d - gamma / 2, 0, -1j * kappa],
                   [0, 1j * d - gamma / 2, 1j * kappa],
                   [-1j * kappa, -1j * kappa, 1j * f["delta"] - gamma_m / 2]])
    columns = _resolvent_columns(M, (mp.sqrt(gamma), mp.sqrt(gamma), mp.sqrt(gamma_m)), omega)
    rows = [[mp.mpc(0)] * 6 for _ in range(2)]
    for r in range(2):
        for j, l in enumerate(_RWA3_INPUTS):
            rows[r][l] = mp.sqrt(gamma) * columns[j][r]
    return rows


def _adiabatic_rows(f, omega):
    """Rows (a1, a2^dag) of the eliminated model's sqrt(gamma) A^-1 over the six inputs:
    gamma A^-1 on a1_in and a2_in^dag, and the correlated thermal column
    sqrt(gamma gamma_m~) (A^-1_0 - A^-1_1) on a_m_in."""
    g, gp, gamma = f["g"], f["g_prime"], f["gamma"]
    M = -mp.matrix([[gamma / 2 + 1j * gp, 1j * g], [-1j * g, gamma / 2 - 1j * gp]])
    columns = _resolvent_columns(M, (1, 1), omega)
    thermal = mp.sqrt(gamma * f["gamma_m_tilde"])
    rows = [[mp.mpc(0)] * 6 for _ in range(2)]
    for r in range(2):
        rows[r][0] = gamma * columns[0][r]
        rows[r][3] = gamma * columns[1][r]
        rows[r][4] = thermal * (columns[0][r] - columns[1][r])
    return rows


_GENERATORS = {"rwa3": _rwa3_rows, "adiabatic_response": _adiabatic_rows}


def output_rows(derived, omega, model) -> list:
    """The rows (a1_out, a2_out^dag) at ``omega`` and their partner rows
    (a1_out^dag, a2_out), the rows at -omega mirrored: [[T_0, T_3], [T_1, T_2]] of
    the 4x6 map, each row over the six inputs, at :data:`DIGITS` digits."""
    with mp.workdps(DIGITS):
        f = mp_fields(derived)
        w = mp.mpf(omega)
        plus, minus = _GENERATORS[model](f, w), _GENERATORS[model](f, -w)
        for rows in (plus, minus):
            rows[0][0] -= 1   # a_out = -a_in + sqrt(gamma) a
            rows[1][3] -= 1
        # the row of o^dag at w is the conjugate of o's at -w, partner inputs swapped
        return [plus, [[mp.conj(row[_PARTNER[l]]) for l in range(6)] for row in minus]]


def model_x(derived, omega, model) -> mp.mpf:
    """n - k_x of an exact model (``rwa3`` or ``adiabatic_response``) at one sideband."""
    (t0, t3), (t1, t2) = output_rows(derived, omega, model)
    with mp.workdps(DIGITS):
        T = [t0, t1, t2, t3]
        n_m = mp.mpf(derived.n_m)
        weights = [mp.mpf(1) / 2] * 4 + [n_m + mp.mpf(1) / 2] * 2

        def gram(i, k):
            return mp.fsum(weights[l] * T[i][l] * mp.conj(T[k][l]) for l in range(6))
        n1 = mp.re(gram(0, 0) + gram(1, 1))
        n2 = mp.re(gram(3, 3) + gram(2, 2))
        cross = (gram(0, 3) + gram(2, 1) + mp.conj(gram(3, 0)) + mp.conj(gram(1, 2))) / 2
        return (n1 + n2) / 2 - abs(cross)


def rwa3_x(derived, omega) -> mp.mpf:
    """n - k_x of the 3-mode rotating-wave model at one sideband frequency."""
    return model_x(derived, omega, "rwa3")


def adiabatic_response_x(derived, omega) -> mp.mpf:
    """n - k_x of the eliminated two-mode model at one sideband frequency."""
    return model_x(derived, omega, "adiabatic_response")
