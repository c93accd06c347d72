import math

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import optoepr as oe
from optoepr.errors import DomainError
from optoepr.params import TWO_PI
from optoepr.spectrum import (_CLOSED_FORM_FIELDS, Evaluation, _closed_form, closed_form_grid,
                              degenerate_mask, eof_array, epr_columns, metric_columns, offset_x,
                              spectrum_flags)
from optoepr.steady_state import DerivedParams
from tests import closed_form_reference as ref


def reference_eof_array(x):
    """eof_array as it was before its x < 1 subset was copied only once, as a reference."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError(f"EPR variance must be > 0, got {x[x <= 0].flat[0]:g}")
    out = np.where(np.isnan(x), np.nan, 0.0)
    mask = x < 1.0
    if np.any(mask):
        root = np.sqrt(x[mask])
        c_plus = (1.0 / root + root) ** 2 / 4.0
        c_minus = (1.0 / root - root) ** 2 / 4.0
        term = c_plus * np.log2(c_plus)
        nz = c_minus > 0
        term[nz] -= c_minus[nz] * np.log2(c_minus[nz])
        out[mask] = term
    return out


# EPR variances: NaN, exactly 1, near 0, around 1 and separable values.
VARIANCES = st.one_of(st.just(math.nan), st.just(1.0), st.floats(1e-300, 1e-6),
                      st.floats(1e-6, 1.0, exclude_max=True), st.floats(1.0, 1e6))

GAMMA = TWO_PI * 3.2e6


# Closed-form fields of one row: g from 0 to strong drive, g' = g + d with |d| up to
# a few gamma, and a bath from none to hot.
CLOSED_FORM_ROWS = st.tuples(st.floats(0.0, 2e10), st.floats(-1e8, 1e8), st.floats(1e5, 1e9),
                             st.floats(0.0, 1e7), st.floats(0.0, 1e7))


def make_derived(g=3.394334e7, d=None, gamma=GAMMA, gamma_m_tilde=8316.118,
                 n_m=85046.93, delta=TWO_PI * 1e7, alpha=1000.0):
    """Hand-built linearized-model parameters for formula-level tests."""
    if d is None:
        d = 0.07 * gamma
    omega_m = TWO_PI * 73.5e6
    return DerivedParams(
        alpha_1=complex(alpha), alpha_2=complex(alpha), beta=-2e-4 * alpha**2,
        beta_imag_dropped=0.0,
        Delta_1p=-(omega_m + delta + d), Delta_2p=omega_m + delta - d,
        delta=delta, d=d, g=g, g_prime=g + d, gamma_m_tilde=gamma_m_tilde,
        n_m=n_m, gamma=gamma, gamma_m=omega_m / 30000.0, omega_m=omega_m,
        eta=1e-4, multistable=False,
    )


class TestTransferFunctions:
    def test_undriven_cavity_is_pure_phase(self):
        derived = make_derived(g=0.0, gamma_m_tilde=0.0, alpha=0.0)
        for omega in (0.0, 0.3 * GAMMA, 2.0 * GAMMA):
            tp = ref.transfer_functions(derived, omega)
            assert tp.H == 0.0
            assert tp.I == 0.0
            assert abs(tp.G) == pytest.approx(1.0, rel=1e-12)

    def test_beam_splitter_identity_101_points(self, paper_derived):
        # |G|^2 - |H|^2 = 1, exact algebra of the printed coefficients
        for omega in np.linspace(-GAMMA, GAMMA, 101):
            tp = ref.transfer_functions(paper_derived, omega)
            assert abs(tp.G) ** 2 - abs(tp.H) ** 2 == pytest.approx(1.0, rel=1e-12)

    def test_commutator_defect_bounded_by_noise_rate(self, paper_derived):
        # with mechanical noise present the defect is |I|^2 <= 5 gamma_m~/gamma
        bound = 5.0 * paper_derived.gamma_m_tilde / paper_derived.gamma
        for omega in np.linspace(-GAMMA, GAMMA, 41):
            tp = ref.transfer_functions(paper_derived, omega)
            defect = abs(tp.G) ** 2 - abs(tp.H) ** 2 + abs(tp.I) ** 2 - 1.0
            assert abs(defect) <= bound

    def test_delta_of_omega_definition(self, paper_derived):
        omega = 0.4 * GAMMA
        tp = ref.transfer_functions(paper_derived, omega)
        expected = ((-1j * omega + paper_derived.gamma / 2) ** 2
                    + paper_derived.g_prime**2 - paper_derived.g**2)
        assert tp.Delta_of_omega == pytest.approx(expected)

    def test_degenerate_response_raises(self):
        # g'^2 - g^2 = -gamma^2/4 puts a response zero on the real axis;
        # values chosen exactly representable so Delta(0) is a float zero
        derived = make_derived(g=2.0, d=-2.0, gamma=4.0, gamma_m_tilde=0.0, n_m=0.0)
        with pytest.raises(oe.DegenerateResponse):
            ref.transfer_functions(derived, 0.0)

    def test_degenerate_response_flagged_per_point_on_grid(self):
        # the batched closed form flags the response zero at omega = 0 only
        derived = make_derived(g=2.0, d=-2.0, gamma=4.0, gamma_m_tilde=0.0, n_m=0.0)
        ev = oe.evaluate(derived, [0.0, 1.0, -1.0], "adiabatic")
        assert list(ev.error) == ["DegenerateResponse", "", ""]
        assert np.isnan(ev.x[0])
        assert np.all(np.isfinite(ev.x[1:]))

    def test_failure_names_from_standard_form(self):
        # a point failed upstream keeps its name even where n - k_x <= 0 as well
        n, k_x = np.array([2.0, 1.0, 1.0, 3.0]), np.array([1.0, 1.0, 2.0, 1.0])
        ev = Evaluation.from_standard_form(n, k_x, np.array([False, False, True, True]),
                                           "DegenerateResponse")
        assert list(ev.error) == ["", "DomainError", "DegenerateResponse", "DegenerateResponse"]
        assert list(ev.failed) == [False, True, True, True]
        assert ev.x[0] == 1.0 and np.all(np.isnan(ev.x[1:]))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_frequency_is_a_domain_error(self, paper_derived):
        # x is NaN at an infinite or NaN frequency: not a positive number, so the point
        # fails by name, as Evaluation promises NaN only where a point failed
        ev = oe.evaluate(paper_derived, [0.0, math.inf, math.nan], "adiabatic")
        assert list(ev.error) == ["", "DomainError", "DomainError"]
        assert list(ev.failed) == [False, True, True]
        assert ev.x[0] > 0 and np.all(np.isnan(ev.x[1:]))
        nan_x = Evaluation.from_standard_form(np.array([1.0, np.nan]), np.array([0.5, 0.5]),
                                              np.array([False, False]), "DegenerateResponse")
        assert list(nan_x.error) == ["", "DomainError"]


def assert_as_the_scalar_chain(ev, derived, omegas):
    """An evaluation of ``derived`` by :func:`closed_form_grid` equals the point-by-point
    reference chain: n, k_x and x to the last bit where it names no failure, and the
    class the chain raises where it names one (its ``error:`` flag)."""
    points = ref.spectrum(derived, omegas)
    assert spectrum_flags(derived, omegas, ev.error) == [p.flags for p in points]
    assert np.array_equal(ev.failed, ev.error != "")
    good = ~ev.failed
    for name, column in (("n", [p.standard_form.n for p in points if p.standard_form]),
                         ("k_x", [p.standard_form.k_x for p in points if p.standard_form]),
                         ("x", [p.metrics.epr_variance for p in points if p.metrics])):
        assert same_bits(getattr(ev, name)[good], np.array(column, dtype=float))


class TestClosedFormRows:
    @pytest.mark.parametrize("count", [1, 5])
    def test_rows_equal_single_evaluations(self, paper_derived, optimum_derived, count):
        rows = [paper_derived, optimum_derived,
                make_derived(g=2.0, d=-2.0, gamma=4.0, gamma_m_tilde=0.0, n_m=0.0),
                replace(make_derived(), alpha_2=complex(1100.0)), make_derived()][:count]
        omegas = np.array([0.0, 1.0, -1.0, 3e5, -2e7, 4e7])
        block = closed_form_grid(rows, omegas)
        assert block.x.shape == (count, len(omegas))
        for k, derived in enumerate(rows):
            alone = closed_form_grid(derived, omegas)
            for name in ("n", "k_x", "x"):
                assert np.array_equal(getattr(block, name)[k], getattr(alone, name), equal_nan=True)
            assert list(block.error[k]) == list(alone.error)
            assert np.array_equal(block.failed[k], alone.failed)
        if count == 5:
            assert set(block.error[2]) == {"DegenerateResponse", ""}
            assert set(block.error[3]) == {"DomainError"}

    @pytest.mark.parametrize("count", [1, 5])
    def test_x_and_failures_as_the_named_evaluation(self, paper_derived, optimum_derived, count):
        # every row of a block as the scalar chain, which names each failure by raising it
        rows = [paper_derived, optimum_derived,
                make_derived(g=2.0, d=-2.0, gamma=4.0, gamma_m_tilde=0.0, n_m=0.0),
                replace(make_derived(), alpha_2=complex(1100.0)), make_derived()][:count]
        omegas = np.array([0.0, 1.0, -1.0, 3e5, -2e7, 4e7])
        block = closed_form_grid(rows, omegas)
        for k, derived in enumerate(rows):
            row = Evaluation(**{f: getattr(block, f)[k] for f in ("n", "k_x", "x", "error", "failed")})
            assert_as_the_scalar_chain(row, derived, omegas)

    def test_scalar_chain_to_the_bit(self, paper_derived, optimum_derived, omega_grid):
        # the default 2001-point grid at the paper point and at its optimum, where no
        # point fails, then rows failing with DegenerateResponse and DomainError
        for derived in (paper_derived, optimum_derived):
            ev = closed_form_grid(derived, omega_grid)
            assert len(omega_grid) == 2001 and not ev.failed.any()
            assert_as_the_scalar_chain(ev, derived, omega_grid)
        failing = [(make_derived(g=2.0, d=-2.0, gamma=4.0, gamma_m_tilde=0.0, n_m=0.0),
                    np.array([0.0, 1.0, -1.0]), {"DegenerateResponse", ""}),
                   (replace(make_derived(), alpha_2=complex(1100.0)), omega_grid[::100],
                    {"DomainError"}),
                   # g / gamma = 5000 at half its optimum d: x = n - k_x rounds to <= 0
                   # at most of these points
                   (make_derived(g=1e11, d=250.0, gamma=2e7, gamma_m_tilde=0.0, n_m=0.0),
                    np.linspace(-1e4, 1e4, 21), {"DomainError", ""})]
        for derived, omegas, names in failing:
            ev = closed_form_grid(derived, omegas)
            assert set(ev.error) == names
            assert_as_the_scalar_chain(ev, derived, omegas)
        with pytest.raises(oe.DegenerateResponse):
            ref.transfer_functions(failing[0][0], 0.0)
        with pytest.raises(oe.DomainError):
            ref.transfer_functions(failing[1][0], 0.0)
        with pytest.raises(oe.DomainError):
            ref.ent_metrics(ref.closed_form_covariance(
                ref.transfer_functions(failing[2][0], 0.0), 0.0, failing[2][0])[1])


    def test_offset_rows_as_the_moved_rows(self, paper_derived):
        # an offset moves d and g' = g + d alone; g' = 0 = gamma^2/4 - g^2 degenerates at omega = 0
        omegas = np.array([0.0, 1.0, -1.0, 3e5, -2e7, 4e7])
        for derived, d in ((paper_derived, [1e5, 1.2e6, -3e5]),
                           (make_derived(g=2.0, gamma=4.0, gamma_m_tilde=0.0, n_m=0.0), [1.0, -2.0])):
            moved = [replace(derived, d=dk, g_prime=derived.g + dk) for dk in d]
            x_at = offset_x(derived, d)
            x, abs_D2 = x_at(omegas)
            degenerate = degenerate_mask(abs_D2, derived.gamma**2, omegas)
            ev = closed_form_grid(moved, omegas)
            assert np.array_equal(ev.failed, degenerate | (x <= 0))
            assert np.array_equal(x[~ev.failed], ev.x[~ev.failed])
            assert np.array_equal(degenerate, ev.error == "DegenerateResponse")
            per_row = np.vstack([omegas * (k + 1) for k in range(len(d))])
            x, _ = x_at(per_row)
            for k, row in enumerate(moved):
                alone = closed_form_grid(row, per_row[k])
                assert np.array_equal(x[k][~alone.failed], alone.x[~alone.failed])
        assert degenerate.tolist() == [[False] * 6, [True] + [False] * 5]

    @pytest.mark.parametrize("at", ["paper", "optimum"])
    def test_each_grid_point_alone_as_on_the_grid(self, paper_derived, optimum_derived,
                                                  omega_grid, at):
        # a frequency evaluated alone, as a float or a 0-d array, has the bits it has on
        # the grid: every square is a product, so no 0-d ** 2 becomes a pow
        derived = paper_derived if at == "paper" else optimum_derived
        grid = closed_form_grid(derived, omega_grid)
        for i, w in enumerate(omega_grid.tolist()):
            for omega in (w, np.float64(w), np.array(w)):
                alone = closed_form_grid(derived, omega)
                assert all(same_bits(getattr(alone, name), getattr(grid, name)[i])
                           for name in ("n", "k_x", "x"))
                assert alone.error == grid.error[i] and alone.failed == grid.failed[i]

    @given(CLOSED_FORM_ROWS, st.lists(st.floats(-1e8, 1e8), min_size=1, max_size=4), st.data())
    def test_evaluator_rows_as_the_moved_rows(self, fields, d, data):
        # the evaluator's rows on a grid, on a (K, M) block and at one frequency are the
        # moved rows' closed_form_grid, to the bit wherever that x is not blanked
        g, _, gamma, gamma_m_tilde, n_m = fields
        derived = make_derived(g=g, gamma=gamma, gamma_m_tilde=gamma_m_tilde, n_m=n_m)
        moved = [replace(derived, d=dk, g_prime=derived.g + dk) for dk in d]
        frequencies = st.floats(-1e9, 1e9)
        grid = data.draw(hnp.arrays(float, data.draw(st.integers(1, 8)), elements=frequencies))
        block = data.draw(hnp.arrays(float, (len(d), data.draw(st.integers(1, 8))),
                                     elements=frequencies))
        point = np.array(data.draw(frequencies))
        x_at = offset_x(derived, d)
        for omegas, per_row in ((grid, [grid] * len(d)), (block, block), (point, [point] * len(d))):
            x, abs_D2 = x_at(omegas)
            assert x.shape == abs_D2.shape == (len(d),) + (omegas.shape[-1:] or (1,))
            degenerate = degenerate_mask(abs_D2, derived.gamma**2, omegas)
            for k, row in enumerate(moved):
                alone = closed_form_grid(row, per_row[k])
                kept = ~np.atleast_1d(alone.failed)
                assert same_bits(x[k][kept], np.atleast_1d(alone.x)[kept])
                assert np.array_equal(np.atleast_1d(alone.error == "DegenerateResponse"),
                                      degenerate[k])


def reference_covariance_entries(fields, omega):
    """n, V14, V24 and |Delta|^2 of the closed form's five numbers ``fields`` (in
    ``_CLOSED_FORM_FIELDS`` order) as the closed form formed them before its repeated
    subexpressions were formed once, every square a product, as the reference."""
    g, gp, gamma, gamma_m_tilde, n_m = fields
    therm = gamma * gamma_m_tilde * (2.0 * n_m + 1.0)
    w2 = omega * omega
    u_minus_v = w2 + gamma * gamma / 4.0 + g * g - gp * gp
    re_D = gamma * gamma / 4.0 - w2 + gp * gp - g * g
    abs_D2 = re_D * re_D + w2 * gamma * gamma
    shift = omega + gp - g
    mech_factor = shift * shift + gamma * gamma / 4.0
    n = (u_minus_v * u_minus_v + (gp * gp + g * g) * gamma * gamma + mech_factor * therm) / abs_D2
    v14 = -2.0 * g * gamma * u_minus_v / abs_D2
    v24 = (2.0 * gp * g * gamma * gamma + mech_factor * therm) / abs_D2
    return n, v14, v24, abs_D2


def reference_standard_form(fields, gamma2, omegas):
    """n, k_x, x, |Delta|^2 and the degenerate mask as the closed form formed them in one
    pass, as the reference."""
    n, v14, v24, abs_D2 = reference_covariance_entries(fields, omegas)
    k_x = np.hypot(v14, v24)
    bound = 1e-30 * (gamma2 + omegas * omegas)
    return n, k_x, n - k_x, abs_D2, abs_D2 < bound * bound


def same_bits(got, expected):
    """Whether two arrays (or floats) have the same shape, dtype and bytes."""
    got, expected = np.asarray(got), np.asarray(expected)
    return (got.shape == expected.shape and got.dtype == expected.dtype
            and got.tobytes() == expected.tobytes())


def fields_of(derived):
    """The closed form's five numbers of one operating point."""
    return tuple(getattr(derived, name) for name in _CLOSED_FORM_FIELDS)


def columns(rows):
    """The closed form's five numbers of ``rows`` as (K, 1) columns."""
    return tuple(np.array([getattr(d, name) for d in rows])[:, None]
                 for name in _CLOSED_FORM_FIELDS)


class TestClosedFormKernel:
    """The closed-form kernel against the formulas it was written as, to the last bit."""

    # the last two lie just outside and inside the degenerate row's vanishing denominator
    ROW_OMEGAS = np.array([0.0, 1.0, -1.0, 3e5, -2e7, 4e7, 1e-20, -1e-35])

    def assert_as_the_reference(self, fields, gamma2, omegas):
        with np.errstate(all="ignore"):
            got = _closed_form(*fields)(np.asarray(omegas, dtype=float))
            *expected, ref_degenerate = reference_standard_form(fields, gamma2, omegas)
        assert all(map(same_bits, got, expected))
        assert same_bits(degenerate_mask(got[3], gamma2, omegas), ref_degenerate)

    def scalar_rows(self, paper_derived, optimum_derived):
        return [paper_derived, optimum_derived, make_derived(),
                make_derived(g=2.0, d=-2.0, gamma=4.0, gamma_m_tilde=0.0, n_m=0.0)]

    def test_scalar_rows(self, paper_derived, optimum_derived):
        grid = oe.default_omega_grid(paper_derived.gamma, 201)
        for derived in self.scalar_rows(paper_derived, optimum_derived):
            for omegas in (grid, self.ROW_OMEGAS, 0.3 * GAMMA, np.float64(-0.7 * GAMMA)):
                self.assert_as_the_reference(fields_of(derived), derived.gamma**2, omegas)
        abs_D2 = _closed_form(*fields_of(derived))(self.ROW_OMEGAS)[3]
        assert degenerate_mask(abs_D2, derived.gamma**2, self.ROW_OMEGAS).tolist() == \
            [True] + [False] * 6 + [True]

    def test_columns_of_every_field(self, paper_derived, optimum_derived):
        rows = self.scalar_rows(paper_derived, optimum_derived)
        # every field differs between rows
        rows += [replace(make_derived(g=5e9, d=-3e6, gamma=1.3e8), gamma_m_tilde=2e4, n_m=7.5)]
        gamma2 = np.array([d.gamma**2 for d in rows])[:, None]
        for omegas in (oe.default_omega_grid(paper_derived.gamma, 201), self.ROW_OMEGAS):
            self.assert_as_the_reference(columns(rows), gamma2, omegas)

    @given(st.lists(CLOSED_FORM_ROWS, min_size=1, max_size=4), st.data())
    def test_blocks(self, rows, data):
        fields = np.array(rows).T[:, :, None]
        params = (fields[0], fields[0] + fields[1], fields[2], fields[3], fields[4])
        omegas = data.draw(hnp.arrays(float, (len(rows), data.draw(st.integers(1, 8))),
                                      elements=st.floats(-1e9, 1e9)))
        gamma2 = np.array([gamma**2 for gamma in fields[2, :, 0].tolist()])[:, None]
        self.assert_as_the_reference(params, gamma2, omegas)


class TestClosedFormCovariance:
    def test_vacuum_limit(self):
        derived = make_derived(g=0.0, gamma_m_tilde=0.0, alpha=0.0)
        ev = closed_form_grid(derived, 0.2 * GAMMA)
        assert float(ev.n) == pytest.approx(1.0, rel=1e-12)
        assert float(ev.k_x) == pytest.approx(0.0, abs=1e-12)
        V, _ = ref.closed_form_covariance(ref.transfer_functions(derived, 0.2 * GAMMA), 0.0,
                                          derived)
        assert np.allclose(V, np.eye(4), atol=1e-12)

    def test_optimum_point_epr_variance(self, optimum_derived):
        # at d = d_o, omega = 0 the thermal terms cancel: n - k_x = 4 (d_o/gamma)^2
        x = float(closed_form_grid(optimum_derived, 0.0).x)
        assert x == pytest.approx(0.0210, rel=0.02)
        d_over_gamma = optimum_derived.d / optimum_derived.gamma
        assert x == pytest.approx(4 * d_over_gamma**2, rel=5e-3)

    def test_thermal_insensitivity_at_optimum(self, optimum_derived):
        hot = replace(optimum_derived, n_m=2 * optimum_derived.n_m)
        x1, x2 = (float(closed_form_grid(derived, 0.0).x) for derived in (optimum_derived, hot))
        assert abs(x2 - x1) < 5e-3 * x1

    def test_matrix_is_standard_form(self, paper_derived):
        tp = ref.transfer_functions(paper_derived, 0.5 * GAMMA)
        V, sf = ref.closed_form_covariance(tp, paper_derived.n_m, paper_derived)
        expected = np.array([
            [sf.n, 0, sf.k_x, 0],
            [0, sf.n, 0, -sf.k_x],
            [sf.k_x, 0, sf.n, 0],
            [0, -sf.k_x, 0, sf.n],
        ])
        assert np.allclose(V, expected, rtol=1e-12)
        assert sf.k_p == -sf.k_x
        assert sf.residual == 0.0

    def test_spectral_symmetry_optical_sector(self, paper_derived):
        # the optical part of the closed form is exactly even in omega;
        # its thermal factor (omega + g' - g)^2 is not (the exact response
        # covariance is even -- see the langevin tests), so evenness of the
        # closed-form entries is checked with the mechanical noise off
        from dataclasses import replace
        derived = replace(paper_derived, gamma_m_tilde=0.0)
        omegas = np.linspace(0.1 * GAMMA, 2 * GAMMA, 7)
        x_plus = oe.evaluate(derived, omegas, "adiabatic").x
        x_minus = oe.evaluate(derived, -omegas, "adiabatic").x
        assert np.allclose(x_plus, x_minus, rtol=1e-12)

    def test_direct_combination_variances(self, paper_derived):
        tp = ref.transfer_functions(paper_derived, 0.0)
        _, sf = ref.closed_form_covariance(tp, paper_derived.n_m, paper_derived)
        squeezed, anti = ref.epr_combination_variances(sf)
        assert squeezed == pytest.approx(2 * (sf.n - sf.k_x))
        assert anti == pytest.approx(2 * (sf.n + sf.k_x))


class TestEntanglementOfFormation:
    def test_separability_boundary(self):
        assert oe.eof(1.0) == 0.0

    def test_paper_value(self):
        assert oe.eof(0.0210) == pytest.approx(5.01, abs=0.02)

    def test_separable_clamped(self):
        assert oe.eof(2.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(oe.DomainError):
            oe.eof(0.0)
        with pytest.raises(oe.DomainError):
            oe.eof(-0.1)

    def test_strictly_decreasing_on_unit_interval(self):
        xs = np.linspace(1e-4, 1.0 - 1e-9, 1000)
        values = [oe.eof(x) for x in xs]
        assert np.all(np.diff(values) < 0)

    def test_positive_iff_entangled(self):
        for x in (0.01, 0.5, 0.999):
            assert oe.eof(x) > 0.0
        for x in (1.0, 1.5, 10.0):
            assert oe.eof(x) == 0.0

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.01, 0.2, 0.9, 1.0, 3.0])
        assert np.allclose(eof_array(xs), [oe.eof(x) for x in xs], rtol=1e-12)

    @given(hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=2, max_side=12),
                      elements=VARIANCES))
    def test_bits_match_the_reference(self, x):
        assert np.array_equal(eof_array(x), reference_eof_array(x), equal_nan=True)

    def test_domain_error_names_the_first_bad_value(self):
        with pytest.raises(DomainError, match="got -0.5"):
            eof_array(np.array([[0.5, math.nan], [-0.5, 0.0]]))


class TestSqueezing:
    def test_vacuum_is_zero_db(self):
        assert oe.squeezing_db(1.0) == 0.0

    def test_decade(self):
        assert oe.squeezing_db(0.1) == pytest.approx(10.0, abs=1e-12)

    def test_paper_value(self):
        assert oe.squeezing_db(0.0210) == pytest.approx(16.8, abs=0.1)

    def test_anti_squeezing_not_clamped(self):
        assert oe.squeezing_db(2.0) < 0.0

    def test_strictly_decreasing(self):
        xs = np.geomspace(1e-4, 1e2, 500)
        values = [oe.squeezing_db(x) for x in xs]
        assert np.all(np.diff(values) < 0)

    def test_domain_error(self):
        with pytest.raises(oe.DomainError):
            oe.squeezing_db(0.0)


class TestMetricColumns:
    def test_columns_as_the_per_element_functions_to_the_bit(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([np.exp(rng.uniform(-30.0, 5.0, 199_997)),
                            [math.nan, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]])
        rng.shuffle(x)
        xs = x.tolist()
        cols = metric_columns(x)
        expected = {"epr_variance": x, "S_db": np.array([oe.squeezing_db(v) for v in xs]),
                    "log_negativity": np.array([ref.log_negativity(v) for v in xs])}
        for name, column in expected.items():
            assert np.array_equal(np.array(cols[name]).view(np.uint64), column.view(np.uint64))
        assert np.array_equal(np.array(cols["eof"]), eof_array(x), equal_nan=True)

    def test_epr_columns_are_metric_columns_without_log_negativity(self):
        x = np.array([0.02, math.nan, 1.0, 3.5, 1e-9])
        cols = metric_columns(x)
        del cols["log_negativity"]
        assert list(epr_columns(x)) == ["epr_variance", "S_db", "eof"]
        assert all(same_bits(epr_columns(x)[k], v) for k, v in cols.items())
        with pytest.raises(DomainError):
            epr_columns(np.array([0.5, -2.0]))

    def test_domain_error_as_the_scalar_one(self):
        with pytest.raises(DomainError) as scalar:
            oe.squeezing_db(-2.0)
        with pytest.raises(DomainError) as column:
            metric_columns(np.array([0.5, math.nan, -2.0, 0.0]))
        assert str(column.value) == str(scalar.value)


class TestMetricConsistency:
    def test_log_negativity_matches_squeezing(self, paper_derived):
        cols = metric_columns(closed_form_grid(paper_derived, [0.0, 0.3 * GAMMA, GAMMA]).x)
        for x, log_negativity, S_db in zip(cols["epr_variance"], cols["log_negativity"],
                                           cols["S_db"]):
            if x < 1.0:
                assert log_negativity == pytest.approx(S_db / (10 * math.log10(2)), rel=1e-9)

    def test_entangled_flag(self):
        derived = make_derived()
        tp = ref.transfer_functions(derived, 0.0)
        _, sf = ref.closed_form_covariance(tp, derived.n_m, derived)
        m = ref.ent_metrics(sf)
        assert m.entangled == (m.epr_variance < 1.0)


class TestOptimumD:
    def test_paper_defaults(self, paper_derived):
        opt = oe.optimum_d(paper_derived)
        assert opt.d_o / paper_derived.gamma == pytest.approx(0.073, abs=0.003)
        assert opt.d_o == pytest.approx(1.46e6, rel=5e-3)
        assert opt.S_o_db == pytest.approx(16.8, abs=0.1)
        assert opt.eof_o == pytest.approx(5.0, abs=0.05)
        assert not opt.unbounded

    def test_weak_coupling_limit(self):
        derived = make_derived(g=0.0, gamma_m_tilde=0.0, alpha=0.0)
        opt = oe.optimum_d(derived)
        assert opt.d_o == pytest.approx(GAMMA / 2, rel=1e-12)
        assert opt.S_o_db == pytest.approx(0.0, abs=1e-9)
        assert opt.eof_o == 0.0

    def test_lossless_limit_flagged_unbounded(self):
        from dataclasses import replace
        derived = replace(make_derived(), gamma=0.0)
        opt = oe.optimum_d(derived)
        assert opt.d_o == 0.0
        assert opt.unbounded
        assert math.isinf(opt.S_o_db)


class TestSpectrum:
    """The closed-form spectrum as the CLI forms it: ``evaluate`` and ``spectrum_flags``."""

    def test_empty_grid(self, paper_derived):
        ev = oe.evaluate(paper_derived, [], "adiabatic")
        assert ev.x.shape == (0,)
        assert spectrum_flags(paper_derived, [], ev.error) == []

    def test_peak_near_zero_at_optimum(self, optimum_derived, omega_grid):
        eofs = eof_array(oe.evaluate(optimum_derived, omega_grid, "adiabatic").x)
        peak_omega = omega_grid[int(np.argmax(eofs))]
        assert abs(peak_omega) < 0.05 * optimum_derived.gamma

    def test_strong_driving_splits_peak(self, paper_params, paper_derived, omega_grid):
        strong = oe.operating_point_params(paper_params, 3000.0,
                                           paper_derived.delta, paper_derived.d)
        derived = oe.solve_steady_state(strong)
        eofs = eof_array(oe.evaluate(derived, omega_grid, "adiabatic").x)
        peak_omega = omega_grid[int(np.argmax(eofs))]
        assert abs(peak_omega) > 0.5 * derived.gamma

    def test_elimination_band_flag(self, paper_derived):
        omegas = [0.0, 2.0 * paper_derived.delta]
        flags = spectrum_flags(paper_derived, omegas,
                               oe.evaluate(paper_derived, omegas, "adiabatic").error)
        assert flags[0] == ()
        assert "omega_outside_elimination_band" in flags[1]

    def test_order_preserving_and_deterministic(self, paper_derived, omega_grid):
        a = oe.evaluate(paper_derived, omega_grid[:50], "adiabatic")
        b = oe.evaluate(paper_derived, omega_grid[:50], "adiabatic")
        whole = oe.evaluate(paper_derived, omega_grid, "adiabatic")
        for name in ("n", "k_x", "x"):
            assert same_bits(getattr(a, name), getattr(b, name))
            assert same_bits(getattr(a, name), getattr(whole, name)[:50])
