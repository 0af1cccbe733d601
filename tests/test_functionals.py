"""Level-set functionals on radial solutions and 2-D levels: frozen oracles and identities."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcapflow import functionals, geometry, numerics, radial, solver2d, verify
from pcapflow.functionals import (
    F_p,
    G_p,
    FunctionalParams,
    geroch_rhs,
    hawking_mass,
    hawking_series,
    minkowski_M,
    q_p_pointwise,
    radial_level,
)
from pcapflow.numerics import CumulativeIntegral
from pcapflow.verify import write_csv

from conftest import cell_by_cell

TS20 = tuple(np.linspace(0.0, 2.0, 20))


class TestParams:
    def test_thresholds(self):
        par = FunctionalParams(3, 1.5, 2.0, (0.0, 1.0))
        assert par.monotone_threshold == pytest.approx(0.75)
        assert par.termwise_threshold == pytest.approx(0.75)
        par = FunctionalParams(3, 1.2, 2.0, (0.0, 1.0))
        assert par.monotone_threshold == pytest.approx(0.9)
        assert par.termwise_threshold == pytest.approx(0.9)

    def test_guarantee_is_strict(self):
        at = FunctionalParams(3, 1.5, 0.75, (0.0, 1.0))
        above = FunctionalParams(3, 1.5, 0.85, (0.0, 1.0))
        assert not at.monotonicity_guaranteed
        assert above.monotonicity_guaranteed

    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionalParams(2, 1.5, 2.0, (0.0, 1.0))
        with pytest.raises(ValueError):
            FunctionalParams(3, 0.9, 2.0, (0.0, 1.0))
        with pytest.raises(ValueError):
            FunctionalParams(3, 1.5, 0.0, (0.0, 1.0))
        with pytest.raises(ValueError):
            FunctionalParams(3, 1.5, 2.0, (1.0, 0.5))
        with pytest.raises(ValueError):
            FunctionalParams(3, 1.5, 2.0, (0.0,))

    @pytest.mark.parametrize(
        "t_grid",
        [(0.0, 0.5, math.nan), (math.nan, 0.5), (0.0, math.nan, 1.0), (0.0, 0.5, math.inf), (-math.inf, 0.5), (0.0, math.inf, math.inf)],
    )
    def test_non_finite_t_grid_is_a_config_error(self, t_grid):
        # NaN passes every comparison test, and inf is strictly increasing
        with pytest.raises(numerics.ConfigError, match="^t_grid: ") as info:
            FunctionalParams(3, 1.5, 2.0, t_grid)
        assert info.value.fieldname == "t_grid"


class TestFp:
    def test_flat_harmonic_is_constant(self, euclid3):
        # p = 2, alpha = 2 on flat space with the scale-invariant datum:
        # boundary term is identically -2 pi
        pot = radial.solve_wp(euclid3, 1.0, 8.0, 2.0, phi_R=math.log(8.0))
        series = F_p(pot, FunctionalParams(3, 2.0, 2.0, TS20))
        assert np.allclose(series.values, -2.0 * math.pi, rtol=1e-10)
        assert np.all(series.bulk == 0.0)

    def test_flat_gradient_power_is_constant(self, euclid3):
        pot = radial.solve_wp(euclid3, 1.0, 8.0, 2.0, phi_R=math.log(8.0))
        series = G_p(pot, FunctionalParams(3, 2.0, 2.0, TS20))
        assert np.allclose(series.values, 4.0 * math.pi, rtol=1e-10)

    def test_flat_gradient_power_general_exponents(self, euclid3):
        # scale-invariant datum: G_p = |S^2| (n-p)^(alpha+p-1) r0^(3-p-alpha)
        p, alpha = 1.5, 2.5
        pot = radial.solve_wp(euclid3, 1.0, 8.0, p, phi_R=(3.0 - p) * math.log(8.0))
        series = G_p(pot, FunctionalParams(3, p, alpha, TS20))
        expect = 4.0 * math.pi * (3.0 - p) ** (alpha + p - 1.0)
        assert np.allclose(series.values, expect, rtol=1e-9)

    def test_derivative_identity_residual(self, euclid3):
        pot = radial.solve_wp(euclid3, 1.0, 8.0, 2.0, phi_R=math.log(8.0))
        series = F_p(pot, FunctionalParams(3, 2.0, 2.0, TS20))
        good = series.residual[1:-1]
        assert np.all(good < 1e-8)

    def test_monotone_on_curved_model(self, schw1):
        pot = radial.solve_wp(schw1, 2.2, 12.0, 1.5)
        ts = tuple(np.linspace(0.0, pot.phi_R * 0.8, 25))
        series = F_p(pot, FunctionalParams(3, 1.5, 2.0, ts))
        diffs = np.diff(series.values)
        assert np.all(diffs > -1e-8 * (1.0 + np.abs(series.values[:-1])))

    def test_requires_matching_kind_and_dimension(self, euclid3):
        w1 = radial.solve_w1(euclid3, 1.0, 8.0)
        with pytest.raises(ValueError, match="kind"):
            F_p(w1, FunctionalParams(3, 1.5, 2.0, TS20))
        pot = radial.solve_wp(geometry.euclidean(4), 1.0, 8.0, 1.5)
        with pytest.raises(ValueError, match="dimension"):
            F_p(pot, FunctionalParams(3, 1.5, 2.0, TS20))

    def test_rejects_mismatched_p_radial(self, euclid3):
        pot = radial.solve_wp(euclid3, 1.0, 8.0, 1.5)
        params = FunctionalParams(3, 2.0, 2.0, TS20)
        for series in (F_p, G_p):
            with pytest.raises(ValueError, match="p = 1.5"):
                series(pot, params)
        with pytest.raises(ValueError, match="p = 1.5"):
            functionals.Q_p_integral(pot, params, 0.5)

    def test_rejects_mismatched_n_radial(self, euclid3):
        # each functional reads n from its solution, not only F_p: G_p and
        # Q_p_integral would otherwise compute with n = 4 on this potential
        pot = radial.solve_wp(euclid3, 1.0, 8.0, 1.5)
        params = FunctionalParams(4, 1.5, 2.0, TS20)
        for series in (F_p, G_p):
            with pytest.raises(ValueError, match="'p-potential' in dimension 3"):
                series(pot, params)
        with pytest.raises(ValueError, match="'p-potential' in dimension 3"):
            functionals.Q_p_integral(pot, params, 0.5)

    def test_rejects_mismatched_p_field(self, euclid3):
        pot = radial.solve_wp(euclid3, 1.0, 4.0, 1.5)
        field = solver2d.field_from_radial(solver2d.sphere_domain(1.0, 4.0), (32, 16), pot)
        params = FunctionalParams(3, 2.0, 2.0, tuple(np.linspace(0.2, 0.8, 4) * field.w_range()[1]))
        for series in (F_p, G_p):
            with pytest.raises(ValueError, match="'2-D field' with p = 1.5"):
                series(field, params)
        with pytest.raises(ValueError, match="'2-D field' with p = 1.5"):
            functionals.Q_p_integral(field, params, params.t_grid[0])


class TestF1:
    """F_1 is F_p at p = 1, on the flow potential of solve_w1."""

    def test_flat_values_both_exponents(self, euclid3):
        # alpha = 1 and alpha = 2 both give the constant -8 pi on flat space
        assert functionals.F_1 is F_p
        pot = radial.solve_w1(euclid3, 1.0, 8.0)
        for alpha in (1.0, 2.0):
            series = F_p(pot, FunctionalParams(3, 1.0, alpha, TS20))
            assert series.name == "F_1"
            assert np.allclose(series.values, -8.0 * math.pi, rtol=1e-10)

    def test_h_form_agrees(self, radial_model_set):
        # F_p's boundary term reads H; on the flow H = |grad w1|, which turns
        # it into the closed form -(1/alpha) e^{lam t} area |grad w1|^alpha
        for model, r0, R in radial_model_set:
            pot = radial.solve_w1(model, r0, R)
            ts = np.linspace(0.0, min(2.0, 0.8 * pot.phi_R), 15)
            lev = radial_level(pot, ts)
            for alpha in (1.0, 2.0, 3.0):
                series = F_p(pot, FunctionalParams(3, 1.0, alpha, tuple(ts)))
                lam = alpha / 2.0 - 1.0
                closed = -(1.0 / alpha) * np.exp(lam * ts) * lev.integrate(lev.grad**alpha) - series.bulk
                assert np.max(np.abs(series.values / closed - 1.0)) < 1e-13, (model.label, alpha)
                assert np.all(series.rhs_qp == 0.0)

    def test_nondecreasing_on_cone(self, cone_half):
        pot = radial.solve_w1(cone_half, 1.0, 8.0)
        series = F_p(pot, FunctionalParams(3, 1.0, 2.0, TS20))
        assert np.all(np.diff(series.values) > -1e-8 * (1.0 + np.abs(series.values[:-1])))

    def test_validation(self, euclid3):
        pot = radial.solve_w1(euclid3, 1.0, 8.0)
        with pytest.raises(ValueError, match="imcf"):
            F_p(pot, FunctionalParams(3, 1.5, 2.0, TS20))
        with pytest.raises(ValueError, match="alpha"):
            FunctionalParams(3, 1.0, 0.5, TS20)
        wp = radial.solve_wp(euclid3, 1.0, 8.0, 1.5)
        with pytest.raises(ValueError, match="kind"):
            F_p(wp, FunctionalParams(3, 1.0, 2.0, TS20))
        with pytest.raises(ValueError, match="p > 1"):
            G_p(pot, FunctionalParams(3, 1.0, 2.0, TS20))


class TestHawking:
    def test_mass_two_black_hole(self):
        m = geometry.schwarzschild(2.0)
        pot = radial.solve_w1(m, 4.2, 20.0)
        ts = np.linspace(0.0, 3.0, 20)
        series = hawking_series(pot, ts)
        assert np.max(series.values) - np.min(series.values) < 1e-9
        assert np.allclose(series.values, 2.0, atol=1e-9)

    def test_flat_space_vanishes(self, euclid3):
        pot = radial.solve_w1(euclid3, 1.0, 8.0)
        series = hawking_series(pot, TS20)
        assert np.max(np.abs(series.values)) < 1e-12

    def test_cone_saturates_geroch_rate(self, cone_half):
        # rotationally symmetric levels saturate the Geroch inequality, so
        # the central-difference derivative must match the right side
        pot = radial.solve_w1(cone_half, 1.0, 8.0)
        series = hawking_series(pot, TS20)
        good = slice(1, -1)
        assert np.all(
            series.residual[good] < 1e-6 * (1.0 + np.abs(series.rhs_qp[good]))
        )
        assert np.all(np.diff(series.values) > 0.0)

    def test_hawking_mass_validation(self):
        with pytest.raises(ValueError):
            hawking_mass(-1.0, 0.0)

    def test_series_requires_flow_solution(self, euclid3):
        wp = radial.solve_wp(euclid3, 1.0, 8.0, 1.5)
        with pytest.raises(ValueError, match="kind"):
            hawking_series(wp, TS20)

    def test_series_requires_three_dimensions(self):
        w1 = radial.solve_w1(geometry.euclidean(4), 1.0, 8.0)
        with pytest.raises(ValueError, match="defined for n = 3"):
            hawking_series(w1, TS20)


class TestLevelBuilds:
    """A series builds the levels of its grid once and those of its
    central-difference stencil once, and a later series on the same
    potential and levels reuses both builds."""

    @pytest.fixture
    def builds(self, monkeypatch):
        sizes = []
        build = functionals.radial_level

        def counted(pot, t):
            sizes.append(np.size(t))
            return build(pot, t)

        monkeypatch.setattr(functionals, "radial_level", counted)
        return sizes

    def test_two_builds_per_series(self, builds, schw1):
        def wp():
            return radial.solve_wp(schw1, 2.2, 12.0, 1.5)

        def w1():
            return radial.solve_w1(schw1, 2.2, 12.0)

        runs = [
            (wp, lambda pot: F_p(pot, FunctionalParams(3, 1.5, 2.0, TS20))),
            (wp, lambda pot: G_p(pot, FunctionalParams(3, 1.5, 2.0, TS20))),
            (w1, lambda pot: F_p(pot, FunctionalParams(3, 1.0, 2.0, TS20))),
            (w1, lambda pot: hawking_series(pot, TS20)),
        ]
        for solve, run in runs:
            pot = solve()
            builds.clear()
            run(pot)
            assert builds == [20, 36]  # the grid, then t +- d at the 18 inner levels
            run(pot)
            assert builds == [20, 36]  # the second series reuses both builds

    def test_sweep_builds_once_per_potential(self, builds, monkeypatch):
        """The monotonicity sweep runs F_p at up to three alpha per potential
        on one level grid: two builds per potential, and the same table, bit
        for bit, as when each alpha gets a freshly solved potential."""
        _, tables = verify.monotonicity_suite()
        assert builds == [40, 76] * 9  # nine potentials: the grid, then the stencil
        fp = functionals.F_p

        def fresh(pot, params):
            return fp(radial.solve_wp(pot.manifold, pot.r0, pot.R, pot.p), params)

        monkeypatch.setattr(functionals, "F_p", fresh)
        builds.clear()
        _, unshared = verify.monotonicity_suite()
        assert len(builds) == 2 * len(tables["sweep"][1])  # one grid and one stencil build per alpha
        assert unshared == tables

    def test_inequality_suite_builds_each_grid_once(self, builds):
        """The area, Minkowski and Hawking checks of a model share one build
        of its 40 levels."""
        verify.inequality_suite()
        assert builds == [40, 76] * 5  # five models: the grid, then the Hawking stencil

    def test_hawking_suite_reads_its_scalar_curvature_off_the_series(self, monkeypatch, schw1):
        sizes = []
        level_radius = radial.RadialPotential.level_radius

        def counted(pot, t):
            sizes.append(np.size(t))
            return level_radius(pot, t)

        monkeypatch.setattr(radial.RadialPotential, "level_radius", counted)
        report, _ = verify.hawking_suite(schw1, 2.2, 12.0)
        assert sizes == [20, 36]  # the grid, then the stencil
        assert report.checks[0].values["guaranteed"] is True

    def test_two_extractions_per_2d_series(self, monkeypatch, euclid3):
        sizes = []
        extract = solver2d.extract_level

        def counted(fieldv, t):
            sizes.append(np.size(t))
            return extract(fieldv, t)

        monkeypatch.setattr(solver2d, "extract_level", counted)
        pot = radial.solve_wp(euclid3, 1.0, 4.0, 1.5)
        field = solver2d.field_from_radial(solver2d.sphere_domain(1.0, 4.0), (32, 16), pot)
        ts = tuple(np.linspace(0.2, 0.8, 10) * field.w_range()[1])
        F_p(field, FunctionalParams(3, 1.5, 2.0, ts))
        assert sizes == [10, 16]  # the grid, then t +- d at the 8 inner levels


class TestRicciBulk:
    """The bulk integrand evaluates the potential only where Ric(nu, nu) is
    nonzero, and there it is the full product of the F_p bulk term."""

    @pytest.mark.parametrize("model_name", ["euclid3", "cone_half"])
    def test_no_potential_under_zero_ricci(self, request, monkeypatch, model_name):
        pot = radial.solve_wp(request.getfixturevalue(model_name), 1.0, 8.0, 1.5)
        params = FunctionalParams(3, 1.5, 2.0, TS20)
        assert np.all(F_p(pot, params).bulk == 0.0)
        levels = radial_level(pot, np.asarray(TS20))
        calls = []
        monkeypatch.setattr(pot, "_w_grad", lambda r: calls.append(r))
        bulk = functionals._ricci_bulk(pot, params)(levels)
        assert np.all(bulk == 0.0) and calls == []

    def test_curved_bulk_is_the_full_product(self, schw1):
        pot = radial.solve_wp(schw1, 2.2, 12.0, 1.5)
        params = FunctionalParams(3, 1.5, 2.0, TS20)
        series = F_p(pot, params)
        lam = params.alpha / (3.0 - params.p) - 1.0

        def product(r):
            return (
                np.exp(lam * pot.w(r))
                * geometry.unit_sphere_area(3)
                * schw1.h(r) ** 2.0
                * pot.grad_norm(r) ** (params.alpha + params.p - 2.0)
                * schw1.f(r)
                * geometry.ricci_radial(schw1, r)
            )

        reference = CumulativeIntegral(product, pot.r0, (pot.r0, pot.R), 1e-11)(pot.level_radius(series.t))
        assert np.all(reference[1:] < 0.0)
        np.testing.assert_allclose(series.bulk, reference, rtol=1e-15, atol=0.0)

    def test_table_on_the_tail_panels_matches_integrate(self, schw1):
        # the table starts on the potential's refined tail edges, so a query
        # between them is as accurate as a quadrature run to that radius
        pot = radial.solve_wp(schw1, 2.2, 12.0, 1.1)
        params = FunctionalParams(3, 1.1, 2.0, TS20)
        lam = params.alpha / (3.0 - params.p) - 1.0

        def product(r):
            w, grad = pot._w_grad(r)
            return (
                np.exp(lam * w)
                * geometry.unit_sphere_area(3)
                * schw1.h(r) ** 2.0
                * grad ** (params.alpha + params.p - 2.0)
                * schw1.f(r)
                * geometry.ricci_radial(schw1, r)
            )

        rs = np.linspace(2.2, 12.0, 34)[1:]
        table = functionals._ricci_bulk(pot, params)(SimpleNamespace(r=rs[:, None]))
        reference = [numerics.integrate(product, 2.2, r, 1e-14) for r in rs]
        np.testing.assert_allclose(table, reference, rtol=1e-12, atol=0.0)


class TestMinkowski:
    @pytest.mark.parametrize("aperture", [0.25, 0.5, 0.75])
    def test_cone_value(self, aperture):
        # M_1 = 2 sqrt(pi) a on the aperture-a cone, at every level
        m = geometry.cone(3, aperture)
        pot = radial.solve_w1(m, 1.0, 8.0)
        for t in (0.0, 1.5):
            lev = radial_level(pot, t)
            assert minkowski_M(lev, 1.0) == pytest.approx(
                2.0 * math.sqrt(math.pi) * aperture, rel=1e-12
            )
            assert minkowski_M(lev, 2.0) == pytest.approx(
                4.0 * math.pi * aperture**2, rel=1e-12
            )

    def test_flat_space_saturates_volume_ratio_bound(self, euclid3):
        pot = radial.solve_w1(euclid3, 1.0, 8.0)
        lev = radial_level(pot, 0.7)
        bound_scale = euclid3.avr * geometry.unit_sphere_area(3)
        for alpha in (1.0, 2.0):
            assert minkowski_M(lev, alpha) == pytest.approx(
                bound_scale ** (alpha / 2.0), rel=1e-12
            )


class TestPointwiseCombinations:
    @given(
        p=st.floats(min_value=1.05, max_value=2.0, allow_nan=False),
        extra=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        grad=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        H=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        tang=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        hring=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_q_p_nonnegative_above_threshold(self, p, extra, grad, H, tang, hring):
        alpha = max(2.0 - p, (3.0 - p) / 2.0) + extra
        assert q_p_pointwise(3, p, alpha, grad, H, tang, hring) >= -1e-12

    def test_q_p_vanishes_on_round_equality_case(self):
        # H = (n-1)/(n-p) |grad w| with umbilic levels: every term is zero
        for p in (1.2, 1.7):
            grad = 0.8
            H = 2.0 / (3.0 - p) * grad
            assert q_p_pointwise(3, p, 2.0, grad, H) == 0.0

    @given(
        alpha=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
        grad=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        H=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        tang=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        hring=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_q_1_nonnegative(self, alpha, grad, H, tang, hring):
        # at p = 1 the (H - grad)^2/(p-1) term is dropped, whatever H is
        q = q_p_pointwise(3, 1.0, alpha, grad, H, tang, hring)
        assert q >= 0.0
        assert q == (alpha - 1.0) * tang + hring


class TestLevelData:
    def test_round_levels_have_sphere_topology(self, schw1, cone_half):
        for model, r0 in ((schw1, 2.2), (cone_half, 1.0)):
            pot = radial.solve_w1(model, r0, 8.0)
            lev = radial_level(pot, 0.5)
            assert lev.chi_proxy == pytest.approx(2.0, rel=1e-12)

    def test_round_level_is_one_sample(self, schw1):
        # a round level is one sample weighted by its sphere's area, so its
        # integral is the rule area * value, bit for bit
        pot = radial.solve_wp(schw1, 2.2, 12.0, 1.5)
        ts = np.linspace(0.2, 0.8, 5) * pot.phi_R
        area = geometry.cross_section(schw1, pot.level_radius(ts))[0]
        lev = radial_level(pot, ts)
        assert lev.r.shape == lev.weights.shape == lev.H.shape == (5, 1)
        assert np.array_equal(lev.area, area)
        for values in (lev.H, lev.grad**2.5, lev.scalar_induced):
            assert np.array_equal(lev.integrate(values), area * values[:, 0])
        one = radial_level(pot, ts[2])
        assert one.r.shape == (1,) and one.integrate(one.H) == area[2] * one.H[0]

    def test_two_dimensional_levels_match_radial(self, euclid3):
        # a 2-D field seeded with the exact flat potential: its extracted
        # levels must give the radial values up to the level-extraction error
        p = 1.5
        pot = radial.solve_wp(euclid3, 1.0, 4.0, p, phi_R=(3.0 - p) * math.log(4.0))
        field = solver2d.field_from_radial(solver2d.sphere_domain(1.0, 4.0), (128, 64), pot)
        ts = np.linspace(0.2, 0.8, 5) * field.w_range()[1]
        params = FunctionalParams(3, p, 2.0, tuple(ts))
        assert np.max(np.abs(G_p(field, params).values / G_p(pot, params).values - 1.0)) < 1e-2
        curves = field.level(ts)
        assert np.max(np.abs(minkowski_M(curves, 2.0) / minkowski_M(radial_level(pot, ts), 2.0) - 1.0)) < 1e-2
        assert np.max(np.abs(geroch_rhs(curves) - geroch_rhs(radial_level(pot, ts)))) < 3e-3
        four = FunctionalParams(4, p, 2.0, tuple(ts))
        with pytest.raises(ValueError, match="'2-D field' in dimension 3"):
            G_p(field, four)
        with pytest.raises(ValueError, match="'2-D field' in dimension 3"):
            functionals.Q_p_integral(field, four, ts[0])

    def test_geroch_rhs_requires_positive_h(self, euclid3):
        lev = radial_level(radial.solve_w1(euclid3, 1.0, 8.0), 0.5)
        bad = replace(lev, H=np.zeros_like(lev.H), scalar=0.0)
        with pytest.raises(ValueError):
            geroch_rhs(bad)


class TestCsv:
    def test_round_trip(self, tmp_path, euclid3):
        pot = radial.solve_wp(euclid3, 1.0, 8.0, 2.0)
        series = F_p(pot, FunctionalParams(3, 2.0, 2.0, (0.0, 0.5, 1.0)))
        path = tmp_path / "series.csv"
        write_csv(path, *series.table())
        lines = path.read_text().splitlines()
        assert lines[0] == "t,value,bulk_term,rhs_Qp,residual"
        assert len(lines) == 4
        back = np.array([[float(x) for x in ln.split(",")[:2]] for ln in lines[1:]])
        assert np.array_equal(back[:, 0], series.t)
        assert np.array_equal(back[:, 1], series.values)

    def test_cell_formats(self, tmp_path):
        path = tmp_path / "cells.csv"
        row = (0.1, np.float64(1.0 / 3.0), np.float32(0.5), -0.0, math.nan, -math.inf, 3, np.int64(7), True, "x")
        write_csv(path, list("abcdefghij"), [row])
        assert path.read_bytes() == b"a,b,c,d,e,f,g,h,i,j\n0.10000000000000001,0.33333333333333331,0.5,-0,nan,-inf,3,7,True,x\n"

    def test_float_table_matches_the_cell_rule(self, tmp_path):
        rng = np.random.default_rng(5)
        floats = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3))
        floats[0] = [math.nan, math.inf, -0.0]
        # repeats, both zeros in one column, NaNs with a sign bit and with payloads
        floats[1:9] = floats[10:18]
        floats[20:24, 0] = [0.0, -0.0, 0.0, -0.0]
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF00000DEADBEEF], np.uint64)
        floats[24:28, 1] = nans.view(np.float64)
        rows = floats.tolist() + [
            (np.float64(0.1), np.float32(0.5), -math.inf),
            (np.float32(-0.0), 0.1, np.float32(1 / 3)),
        ]
        expected = cell_by_cell(["a", "b", "c"], rows)
        path = tmp_path / "table.csv"
        write_csv(path, ["a", "b", "c"], rows)
        assert path.read_bytes() == expected
        # the same table as a float array: its columns are read from rows.T
        write_csv(path, ["a", "b", "c"], np.array(rows, dtype=float))
        assert path.read_bytes() == expected
        # a row template has one format per column, so a column of floats and ints is refused
        mixed = rows + [(3, np.int64(7), "x"), (True, np.float64(math.nan), 0.25)]
        with pytest.raises(ValueError, match="mixes float and non-float"):
            write_csv(path, ["a", "b", "c"], mixed)

    def test_rows_of_other_lengths(self, tmp_path):
        path = tmp_path / "ragged.csv"
        for empty in ([], np.empty((0, 2))):
            write_csv(path, ["a", "b"], empty)
            assert path.read_bytes() == b"a,b\n"
        for rows in ([(1.5,), (2.5, 3.5)], [(1.5, 2.5), (3.5,)]):
            with pytest.raises(ValueError, match="unequal length"):
                write_csv(path, ["a", "b"], rows)
