"""Level-set functionals on radial solutions and 2-D levels: frozen oracles and identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcapflow import functionals, geometry, radial, solver2d
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
from pcapflow.verify import write_csv

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
                closed = -(1.0 / alpha) * np.exp(lam * ts) * lev.area * lev.grad**alpha - series.bulk
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


class TestLevelBuilds:
    """A series builds the levels of its grid once and those of its
    central-difference stencil once."""

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
        wp = radial.solve_wp(schw1, 2.2, 12.0, 1.5)
        w1 = radial.solve_w1(schw1, 2.2, 12.0)
        runs = [
            lambda: F_p(wp, FunctionalParams(3, 1.5, 2.0, TS20)),
            lambda: G_p(wp, FunctionalParams(3, 1.5, 2.0, TS20)),
            lambda: F_p(w1, FunctionalParams(3, 1.0, 2.0, TS20)),
            lambda: hawking_series(w1, TS20),
        ]
        for run in runs:
            builds.clear()
            run()
            assert builds == [20, 36]  # the grid, then t +- d at the 18 inner levels

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
        bound_scale = geometry.avr(euclid3) * geometry.unit_sphere_area(3)
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
        with pytest.raises(ValueError, match="three dimensional"):
            G_p(field, four)
        with pytest.raises(ValueError, match="three dimensional"):
            functionals.Q_p_integral(field, four, ts[0])

    def test_geroch_rhs_requires_positive_h(self, euclid3):
        lev = radial_level(radial.solve_w1(euclid3, 1.0, 8.0), 0.5)
        bad = functionals.RadialLevel(
            t=lev.t, r=lev.r, n=3, area=lev.area, grad=lev.grad,
            H=0.0, ricci=0.0, scalar=0.0, scalar_induced=lev.scalar_induced,
        )
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
