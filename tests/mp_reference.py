"""An arbitrary-precision reference for the output models' EPR variance x = n - k_x.

Each field of a ``DerivedParams`` is converted to mpmath exactly (every binary64
value is an mpf), and every derived quantity is formed in mpmath from those
fields: g' as g + d, not from the rounded ``g_prime`` property, and the common
amplitude |alpha| as the mean of |alpha_1| and |alpha_2|.  Nothing is taken from
the package's kernels, so the double paths are checked against numbers whose
only error is the working precision (:data:`DIGITS` significant digits).

Two models are covered:

* the closed form, from the formulas of the ``optoepr.spectrum`` module docstring
  (:func:`closed_form_x`);
* ``rwa3``, the 3-mode rotating-wave system {a1, a2^dag, a_m}: its drift is built
  from the fields and solved by LU at each sideband +-w, the output maps are
  mirrored into the 4x6 map of (a1_out, a1_out^dag, a2_out, a2_out^dag), and the
  covariance comes from the weighted Gram of its rows, as in ``optoepr.langevin``
  (:func:`rwa3_x`).
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


def _rwa3_rows(f, omega):
    """Rows (a1, a2^dag) of sqrt(gamma) (-i w - M)^-1 diag(l), over the six inputs."""
    d, gamma, gamma_m = f["d"], f["gamma"], f["gamma_m"]
    kappa = f["eta"] * f["omega_m"] * f["alpha"]
    M = mp.matrix([[-1j * d - gamma / 2, 0, -1j * kappa],
                   [0, 1j * d - gamma / 2, 1j * kappa],
                   [-1j * kappa, -1j * kappa, 1j * f["delta"] - gamma_m / 2]])
    coupling = (mp.sqrt(gamma), mp.sqrt(gamma), mp.sqrt(gamma_m))
    A = -1j * omega * mp.eye(3) - M
    columns = [mp.lu_solve(A, mp.matrix([coupling[j] if i == j else 0 for i in range(3)]))
               for j in range(3)]
    rows = [[mp.mpc(0)] * 6 for _ in range(2)]
    for r in range(2):
        for j, l in enumerate(_RWA3_INPUTS):
            rows[r][l] = mp.sqrt(gamma) * columns[j][r]
    return rows


def rwa3_x(derived, omega) -> mp.mpf:
    """n - k_x of the 3-mode rotating-wave model at one sideband frequency."""
    with mp.workdps(DIGITS):
        f = mp_fields(derived)
        w = mp.mpf(omega)
        plus, minus = _rwa3_rows(f, w), _rwa3_rows(f, -w)
        plus[0][0] -= 1   # a_out = -a_in + sqrt(gamma) a
        plus[1][3] -= 1
        minus[0][0] -= 1
        minus[1][3] -= 1
        # the row of o^dag at w is the conjugate of o's at -w, partner inputs swapped
        mirror = [[mp.conj(row[_PARTNER[l]]) for l in range(6)] for row in minus]
        T = [plus[0], mirror[0], mirror[1], plus[1]]
        weights = [mp.mpf(1) / 2] * 4 + [f["n_m"] + mp.mpf(1) / 2] * 2

        def gram(i, k):
            return mp.fsum(weights[l] * T[i][l] * mp.conj(T[k][l]) for l in range(6))
        n1 = mp.re(gram(0, 0) + gram(1, 1))
        n2 = mp.re(gram(3, 3) + gram(2, 2))
        cross = (gram(0, 3) + gram(2, 1) + mp.conj(gram(3, 0)) + mp.conj(gram(1, 2))) / 2
        return (n1 + n2) / 2 - abs(cross)
