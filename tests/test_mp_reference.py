"""The double paths against the arbitrary-precision reference."""

import mpmath as mp
import numpy as np
import pytest

import optoepr as oe
from optoepr import langevin
from tests import mp_reference as ref
from tests.test_langevin import OP74, six_columns

# 41 points over +-2 gamma; the closed form and adiabatic_response succeed at all
# of them and rwa3 at the 15 where its state is symmetric (NotSymmetricState elsewhere).
POINTS = 41
RTOL = 1e-12
# The eliminated model's rows at the strong-drive point OP74, relative to each
# sideband's largest entry: with its determinant formed from d they read 3.3e-16
# there; the resolvent whose determinant cancels g'^2 - g^2 read 3.4e-11.
ROWS_RTOL = 1e-14


@pytest.mark.parametrize("model, reference, compared", [
    ("adiabatic", ref.closed_form_x, 41), ("rwa3", ref.rwa3_x, 15),
    ("adiabatic_response", ref.adiabatic_response_x, 41)])
def test_x_as_the_reference(model, reference, compared, paper_derived):
    grid = oe.default_omega_grid(paper_derived.gamma, POINTS)
    ev = oe.evaluate(paper_derived, grid, model)
    ok = ~ev.failed
    assert np.count_nonzero(ok) == compared
    with mp.workdps(ref.DIGITS):
        worst = max(abs(mp.mpf(float(x)) / reference(paper_derived, w) - 1)
                    for w, x in zip(grid[ok], ev.x[ok]))
    assert worst <= RTOL


def test_adiabatic_rows_at_strong_drive():
    grid = oe.default_omega_grid(OP74.gamma, POINTS)
    rows = six_columns(langevin._output_rows(OP74, grid, "adiabatic_response"))
    for k, omega in enumerate(grid):
        expected = ref.output_rows(OP74, omega, "adiabatic_response")
        got = (rows[k], rows[POINTS + k])   # the pair at omega, its partner pair
        with mp.workdps(ref.DIGITS):
            scale = max(abs(v) for pair in expected for row in pair for v in row)
            worst = max(abs(mp.mpc(complex(g)) - e)
                        for pair_got, pair in zip(got, expected)
                        for row_got, row in zip(pair_got, pair)
                        for g, e in zip(row_got, row))
        assert worst <= ROWS_RTOL * scale, (omega, float(worst / scale))
