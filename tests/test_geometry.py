"""Model geometry: curvature formulas, proper distance, volume ratios."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcapflow import geometry
from pcapflow.geometry import (
    cone,
    euclidean,
    mean_curvature_sphere,
    proper_distance,
    ricci_radial,
    scalar_curvature,
    schwarzschild,
    tabulated,
    unit_sphere_area,
)


def schwarzschild_table(lo=2.05, hi=20.0, num=400):
    m = schwarzschild(1.0)
    rs = np.linspace(lo, hi, num)
    return [(r, m.f(r), m.h(r)) for r in rs]


class TestSphereArea:
    def test_low_dimensions(self):
        assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert unit_sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)


class TestEuclidean:
    def test_flat_curvature(self):
        m = euclidean(3)
        for r in (0.5, 1.0, 7.0):
            assert ricci_radial(m, r) == pytest.approx(0.0, abs=1e-14)
            assert scalar_curvature(m, r) == pytest.approx(0.0, abs=1e-14)

    def test_sphere_mean_curvature(self):
        m = euclidean(3)
        assert mean_curvature_sphere(m, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_proper_distance_is_coordinate_gap(self):
        m = euclidean(3)
        assert proper_distance(m, 1.0, 5.0) == pytest.approx(4.0, rel=1e-12)

    def test_avr_is_one(self):
        assert euclidean(3).avr == pytest.approx(1.0, rel=1e-14)


class TestCone:
    def test_curvature(self):
        # cross-sections are round spheres of radius a*r: the radial sectional
        # curvature vanishes and the tangential one is (1 - a^2)/(a r)^2
        m = cone(3, aperture=0.5)
        assert ricci_radial(m, 2.0) == pytest.approx(0.0, abs=1e-14)
        assert scalar_curvature(m, 2.0) == pytest.approx(6.0 / 4.0, rel=1e-12)
        assert m.nonneg_ricci

    def test_avr_is_aperture_power(self):
        assert cone(3, 0.5).avr == pytest.approx(0.25, rel=1e-14)
        assert cone(3, 0.75).avr == pytest.approx(0.5625, rel=1e-14)

    def test_aperture_validation(self):
        with pytest.raises(ValueError):
            cone(3, aperture=0.0)
        with pytest.raises(ValueError):
            cone(3, aperture=1.2)
        with pytest.raises(ValueError):
            cone(2, aperture=0.5)


class TestSchwarzschild:
    def test_horizon_is_domain_boundary(self):
        m = schwarzschild(1.0)
        assert m.r_min == 2.0
        # a radius the program computed is no config's fault: a plain ValueError
        with pytest.raises(ValueError, match=r"^schwarzschild\(m=1\): r=1\.9 outside \[2\.0, inf\]$"):
            m.check_radius(1.9)

    def test_radial_ricci(self):
        # Ric(nu, nu) = -2m/r^3
        m = schwarzschild(1.0)
        assert ricci_radial(m, 4.0) == pytest.approx(-0.03125, rel=1e-12)

    def test_scalar_flat(self):
        m = schwarzschild(1.0)
        for r in (2.5, 4.0, 10.0):
            assert abs(scalar_curvature(m, r)) < 1e-12

    def test_sphere_mean_curvature(self):
        m = schwarzschild(1.0)
        assert mean_curvature_sphere(m, 4.0) == pytest.approx(
            2.0 * math.sqrt(0.5) / 4.0, rel=1e-12
        )
        # minimal at the horizon
        assert mean_curvature_sphere(m, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_proper_distance_from_horizon(self):
        # frozen from an independent quadrature of (1 - 2/r)^(-1/2)
        m = schwarzschild(1.0)
        assert proper_distance(m, 2.0, 4.0) == pytest.approx(4.591174298785276, rel=1e-8)

    def test_proper_distance_away_from_horizon(self):
        m = schwarzschild(1.0)
        got = proper_distance(m, 3.0, 6.0)
        # d/dr of r*sqrt(1-2/r) + 2*asinh(sqrt(r/2 - 1)) is (1-2/r)^(-1/2)
        def anti(r):
            return r * math.sqrt(1.0 - 2.0 / r) + 2.0 * math.asinh(math.sqrt(r / 2.0 - 1.0))

        assert got == pytest.approx(anti(6.0) - anti(3.0), rel=1e-10)

    def test_avr_is_one(self):
        assert schwarzschild(1.0).avr == pytest.approx(1.0, rel=1e-12)

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            schwarzschild(0.0)
        with pytest.raises(ValueError):
            schwarzschild(-1.0)


class TestTabulated:
    def test_matches_source_model(self):
        m = schwarzschild(1.0)
        tab = tabulated(3, schwarzschild_table(), label="schw-table")
        for r in (2.5, 5.0, 11.0, 19.0):
            assert tab.f(r) == pytest.approx(m.f(r), rel=1e-8)
            assert tab.h(r) == pytest.approx(m.h(r), rel=1e-10)
            assert tab.dh(r) == pytest.approx(m.dh(r), abs=1e-6)
        assert proper_distance(tab, 3.0, 10.0) == pytest.approx(
            proper_distance(m, 3.0, 10.0), rel=1e-7
        )

    def test_range_guard(self):
        # the evaluators judge radii by check_radius's rule, 1e-12 relative
        tab = tabulated(3, schwarzschild_table())
        r_hi = tab.r_max
        with pytest.raises(ValueError, match=r"^tabulated: r=1\.0 outside \[2\.05, 20\.0\]$"):
            tab.f(1.0)
        with pytest.raises(ValueError, match=r"^tabulated: r=25\.0 outside \[2\.05, 20\.0\]$"):
            tab.h(25.0)
        with pytest.raises(ValueError, match=r"^tabulated: r=20\.000000002 outside \[2\.05, 20\.0\]$"):
            tab.dh(np.array([3.0, r_hi * (1.0 + 1e-10)]))
        assert tab.h(r_hi * (1.0 + 1e-13)) == pytest.approx(tab.h(r_hi), rel=1e-12)

    def test_avr_is_stated_not_sampled(self):
        # f = 2, h = r: (h/r)^2 is 1 at every radius, but geodesic spheres of
        # radius s = 2r have area 4 pi (s/2)^2, so the AVR is 0.25; a table
        # cannot tell it
        rows = [(r, 2.0, r) for r in np.linspace(1.0, 100.0, 200)]
        assert tabulated(3, rows).avr is None

    def test_rejects_a_dip_between_samples(self):
        # one row 0.002 below its predecessor: h' reaches -0.61 between the
        # knots, while 128 evenly spread samples all see h' > 0
        rs = np.linspace(1.0, 5.0, 401)
        hs = rs.copy()
        hs[200] = hs[199] - 0.002
        with pytest.raises(ValueError, match="h'"):
            tabulated(3, [(r, 1.0, h) for r, h in zip(rs, hs)])

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError, match="at least 4"):
            tabulated(3, [(1.0, 1.0, 1.0), (2.0, 1.0, 2.0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            tabulated(3, [(1.0, 1.0, 1.0), (1.0, 1.0, 1.5), (2.0, 1.0, 2.0), (3.0, 1.0, 3.0)])
        with pytest.raises(ValueError, match="positive"):
            tabulated(3, [(1.0, 1.0, 1.0), (2.0, -1.0, 2.0), (3.0, 1.0, 3.0), (4.0, 1.0, 4.0)])
        # decreasing h: coordinate spheres would flow inward
        rows = [(r, 1.0, 3.0 - 0.5 * r) for r in (1.0, 2.0, 3.0, 4.0)]
        with pytest.raises(ValueError, match="h'"):
            tabulated(3, rows)

    def test_rows_take_numbers_only(self):
        good = [(r, 1.0, r) for r in (1.0, 2.0, 3.0, 4.0)]
        bad_rows = [("1.5", 1.0, 1.0), (2.0, True, 2.0), {"r": 3.0, "f": 1.0, "h": "3"}, (4.0, 1.0), 4.0]
        for k, bad in zip((0, 1, 2, 3, 3), bad_rows):
            rows = list(good)
            rows[k] = bad
            with pytest.raises(ValueError, match="tabulated row .* must hold three numbers r, f and h"):
                tabulated(3, rows)

    def test_dimension_at_least_three(self):
        with pytest.raises(ValueError, match="dimension must be at least 3"):
            tabulated(2, [(r, 1.0, r) for r in (1.0, 2.0, 3.0, 4.0)])

    def test_dict_rows_accepted(self):
        rows = [{"r": r, "f": 1.0, "h": r} for r in (1.0, 2.0, 3.0, 4.0)]
        tab = tabulated(3, rows)
        assert tab.h(2.5) == pytest.approx(2.5, rel=1e-12)


class TestNonnegRicciFlag:
    def test_tangential_ricci_is_checked(self):
        # f = 1, h = 1.5 r: Ric(nu,nu) = 0, but K2 = (1 - 2.25)/(1.5 r)^2, so
        # the tangential Ricci curvature K1 + K2 is -0.139 at r = 2
        model = geometry.RadialManifold(
            n=3,
            f=lambda r: 1.0 + 0.0 * r,
            h=lambda r: 1.5 * r,
            df=lambda r: 0.0 * r,
            dh=lambda r: 1.5 + 0.0 * r,
            d2h=lambda r: 0.0 * r,
            r_min=0.0,
            label="flared",
            nonneg_ricci=True,
        )
        assert ricci_radial(model, 2.0) == 0.0
        assert scalar_curvature(model, 2.0) == pytest.approx(-2.5 / 9.0, rel=1e-12)
        with pytest.raises(ValueError, match="flared: flagged nonneg-Ricci but tangential Ric < 0"):
            geometry._validate_samples(model, 1e-6, 100.0)

    def test_flagged_builtin_models_build(self):
        assert euclidean(3).nonneg_ricci and euclidean(4).nonneg_ricci
        for n in (3, 4):
            for aperture in (0.25, 0.5, 0.75, 1.0):
                assert cone(n, aperture).nonneg_ricci


class TestCurvatureConsistency:
    @given(r=st.floats(min_value=2.3, max_value=15.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_schwarzschild_closed_forms(self, r):
        # the warped-product formulas reproduce Schwarzschild's closed forms
        m = schwarzschild(1.0)
        assert ricci_radial(m, r) == pytest.approx(-2.0 / r**3, rel=1e-9, abs=1e-12)
        assert mean_curvature_sphere(m, r) == pytest.approx((2.0 / r) * math.sqrt(1.0 - 2.0 / r), rel=1e-11)
        assert scalar_curvature(m, r) == pytest.approx(0.0, abs=1e-12)

    @given(r=st.floats(min_value=0.2, max_value=20.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_cone_derivatives_consistent(self, r):
        m = cone(3, 0.7)
        s = 1e-5 * (1.0 + r)
        fd = (m.h(r + s) - m.h(r - s)) / (2.0 * s)
        assert m.dh(r) == pytest.approx(fd, rel=1e-6)
