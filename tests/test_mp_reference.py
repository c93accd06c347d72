"""The double paths against the arbitrary-precision reference, at the paper point."""

import mpmath as mp
import numpy as np
import pytest

import optoepr as oe
from tests import mp_reference as ref

# 41 points over +-2 gamma; the closed form succeeds at all of them and rwa3 at
# the 15 where its state is symmetric (NotSymmetricState elsewhere).
POINTS = 41
RTOL = 1e-12


@pytest.mark.parametrize("model, reference, compared", [
    ("adiabatic", ref.closed_form_x, 41), ("rwa3", ref.rwa3_x, 15)])
def test_x_as_the_reference(model, reference, compared, paper_derived):
    grid = oe.default_omega_grid(paper_derived.gamma, POINTS)
    ev = oe.evaluate(paper_derived, grid, model)
    ok = ~ev.failed
    assert np.count_nonzero(ok) == compared
    with mp.workdps(ref.DIGITS):
        worst = max(abs(mp.mpf(float(x)) / reference(paper_derived, w) - 1)
                    for w, x in zip(grid[ok], ev.x[ok]))
    assert worst <= RTOL
