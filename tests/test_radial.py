"""Radial potentials: profiles, flux, capacity, curvature identities."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcapflow import geometry, numerics, radial
from pcapflow.geometry import cone, euclidean, mean_curvature_sphere, schwarzschild
from pcapflow.numerics import ConfigError, SolverError
from pcapflow.radial import (
    KIND_EPS,
    KIND_IMCF,
    KIND_P,
    capacity,
    solve_w1,
    solve_wp,
    solve_wp_eps,
)

from conftest import grad_norm_fd

RS = np.linspace(1.05, 7.6, 50)


def euclid_wp_exact(r, p, r0=1.0):
    # scale-invariant datum: w = (3-p) ln r on flat space
    return (3.0 - p) * math.log(r / r0)


class TestSolveWp:
    def test_euclid_profile_oracle(self, euclid3):
        # scale-invariant datum (the default is matched to the flow potential)
        pot = solve_wp(euclid3, 1.0, 8.0, 1.5, phi_R=1.5 * math.log(8.0))
        # frozen closed form (3-p) ln 2 at r=2
        assert pot.w(2.0) == pytest.approx(1.0397207708399179, rel=1e-12)
        for r in RS:
            assert pot.w(r) == pytest.approx(euclid_wp_exact(r, 1.5), rel=1e-11, abs=1e-13)
            assert pot.grad_norm(r) == pytest.approx(1.5 / r, rel=1e-10)

    def test_boundary_values(self, schw1):
        pot = solve_wp(schw1, 2.2, 12.0, 1.7)
        assert pot.w(2.2) == pytest.approx(0.0, abs=1e-12)
        assert pot.w(12.0) == pytest.approx(pot.phi_R, rel=1e-11)
        assert pot.u(2.2) == pytest.approx(1.0, rel=1e-12)
        assert pot.u(12.0) == pytest.approx(math.exp(-pot.phi_R / 0.7), rel=1e-11)

    def test_explicit_datum(self, euclid3):
        pot = solve_wp(euclid3, 1.0, 8.0, 2.0, phi_R=1.0)
        assert pot.phi_R == 1.0
        assert pot.w(8.0) == pytest.approx(1.0, rel=1e-12)

    def test_small_p_tail_accuracy(self, schw1):
        # p near 1: the profile integrand spans dozens of decades; compare
        # u against an independent quadrature at a few radii
        from scipy.integrate import quad

        p = 1.05
        pot = solve_wp(schw1, 2.2, 12.0, p)
        kappa = 2.0 / (p - 1.0)
        fn = lambda s: schw1.f(s) * schw1.h(s) ** -kappa
        norm = quad(fn, 2.2, 12.0, epsabs=0.0, epsrel=1e-12, limit=400)[0]
        u_R = math.exp(-pot.phi_R / (p - 1.0))
        for r in (2.5, 5.0, 9.0, 11.5):
            tail = quad(fn, r, 12.0, epsabs=0.0, epsrel=1e-12, limit=400)[0]
            expect = u_R + (1.0 - u_R) * tail / norm
            assert pot.u(r) == pytest.approx(expect, rel=1e-9)

    def test_underflowing_datum_solves(self, euclid3):
        # u_R = exp(-phi_R/(p-1)) = e^-5000 underflows; w comes from log u
        p, k = 1.01, 200.0
        pot = solve_wp(euclid3, 1.0, 8.0, p, phi_R=50.0)
        rs = np.array([1.0, 1.5, 3.0, 7.9, 8.0])
        # u = u_R + (1 - u_R) (r^{1-k} - 8^{1-k}) / (1 - 8^{1-k}), as logs
        with np.errstate(divide="ignore"):
            log_tail = (1.0 - k) * np.log(rs) + np.log1p(-((rs / 8.0) ** (k - 1.0))) - math.log1p(-(8.0 ** (1.0 - k)))
        exact = -(p - 1.0) * np.logaddexp(-50.0 / (p - 1.0), log_tail)
        assert np.allclose(pot.w(rs), exact, rtol=1e-13, atol=1e-14)
        assert pot.w(8.0) == 50.0
        assert pot.u(8.0) == 0.0  # the true value, e^-5000, is below the smallest double

    def test_p_range_validation(self, euclid3):
        for bad in (1.0, 0.5, 2.5):
            with pytest.raises(ValueError):
                solve_wp(euclid3, 1.0, 8.0, bad)

    def test_annulus_validation(self, euclid3, schw1):
        with pytest.raises(ValueError):
            solve_wp(euclid3, 2.0, 2.0, 1.5)
        with pytest.raises(geometry.DomainError):
            solve_wp(schw1, 1.5, 8.0, 1.5)

    def test_level_radius_roundtrip(self, schw1):
        pot = solve_wp(schw1, 2.2, 12.0, 1.5)
        for t in np.linspace(0.0, pot.phi_R, 9):
            r = pot.level_radius(t)
            assert pot.w(r) == pytest.approx(t, abs=1e-10)
        with pytest.raises(ValueError):
            pot.level_radius(pot.phi_R + 1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_is_rejected(self, euclid3, schw1, t):
        # NaN passes every comparison test, so the range check names it too
        for pot in (solve_w1(euclid3, 1.0, 4.0), solve_wp(schw1, 2.2, 12.0, 1.5)):
            with pytest.raises(ValueError, match=r"^level t=(nan|inf|-inf) outside \[0, "):
                pot.level_radius(t)
            with pytest.raises(ValueError, match=r"^level t=(nan|inf|-inf) outside \[0, "):
                pot.level_radius(np.array([0.1, t]))


class TestNewtonCap:
    """A root find that runs out of steps raises SolverError naming its job
    rather than return the entries that still move."""

    def test_level_radius_with_a_wrong_slope(self, schw1):
        # a slope ten times too steep makes each step a tenth of Newton's, so
        # the entries contract by 0.9 a step and still move after 200 steps
        pot = solve_wp(schw1, 2.2, 12.0, 1.5)
        w_grad = pot._w_grad
        pot._w_grad = lambda r: (w_grad(r)[0], 10.0 * w_grad(r)[1])
        with pytest.raises(SolverError, match=r"^level_radius: 5 entries still moving after 200 steps$"):
            pot.level_radius(np.linspace(0.1, 0.9, 5) * pot.phi_R)

    def test_both_loops_raise_at_a_lowered_cap(self, schw1, monkeypatch):
        pot = solve_wp(schw1, 2.2, 12.0, 1.5)
        ts = np.linspace(0.1, 0.9, 5) * pot.phi_R
        log_m = np.linspace(-8.0, 2.0, 7)
        monkeypatch.setattr(numerics, "_ROOT_STEPS", 1)
        with pytest.raises(SolverError, match=r"^level_radius: \d+ entries still moving after 1 steps$"):
            pot.level_radius(ts)
        with pytest.raises(SolverError, match=r"^regularized slope: \d+ entries still moving after 1 steps$"):
            radial._regularized_log_slope(log_m, 1.5, 1e-3)

    def test_shooting_with_a_wrong_slope(self, euclid3, monkeypatch):
        # a drop slope a thousand times too steep leaves the flux constant
        # moving after the step cap: the shooting's own error says so
        integrate = radial.integrate
        monkeypatch.setattr(radial, "integrate", lambda *args: integrate(*args) * np.array([1.0, 1e3]))
        with pytest.raises(radial.ShootingError, match=r"^flux constant: 1 entries still moving after 200 steps$"):
            radial.solve_wp_eps(euclid3, 1.0, 3.0, 1.5, 1e-2)


class TestNearOne:
    """The p -> 1 limit: the log tail has no underflow to hit."""

    @pytest.mark.parametrize("p", [1.0 + 1e-3, 1.0 + 1e-4, 1.0 + 1e-5])
    def test_flat_scale_invariant(self, euclid3, p):
        pot = solve_wp(euclid3, 1.0, 4.0, p, phi_R=(3.0 - p) * math.log(4.0))
        rs = np.linspace(1.0, 4.0, 257)
        assert np.max(np.abs(pot.w(rs) - (3.0 - p) * np.log(rs))) < 1e-12
        ts = np.linspace(0.0, pot.phi_R, 33)
        assert np.allclose(pot.level_radius(ts), np.exp(ts / (3.0 - p)), rtol=1e-13, atol=0.0)
        # |grad w| loses about kappa*eps: the exponent is kappa ln h
        kappa = 2.0 / (p - 1.0)
        assert np.allclose(pot.grad_norm(rs), (3.0 - p) / rs, rtol=kappa * 1e-14, atol=0.0)

    @pytest.mark.parametrize("p", [1.5, 1.1, 1.01])
    def test_schwarzschild_u_against_mpmath(self, schw1, p):
        # u = u_R + (1 - u_R) T(r) / T(r0), T(r) = int_r^R f h^-kappa at 30 digits
        r0, R = 2.2, 12.0
        pot = solve_wp(schw1, r0, R, p)
        radii = list(np.geomspace(r0, R, 17))
        with mpmath.workdps(30):
            kappa = 2 / (mpmath.mpf(p) - 1)
            fn = lambda s: (1 - 2 / s) ** mpmath.mpf(-0.5) * s ** (-kappa)
            tails = [mpmath.mpf(0)]
            for a, b in zip(radii[-2::-1], radii[:0:-1]):
                pts = [a * (b / a) ** (mpmath.mpf(j) / 40) for j in range(41)]
                tails.insert(0, tails[0] + mpmath.quad(fn, pts, method="gauss-legendre"))
            u_R = mpmath.exp(-2 * mpmath.log(mpmath.mpf(R) / mpmath.mpf(r0)) / (mpmath.mpf(p) - 1))
            exact = [u_R + (1 - u_R) * t / tails[0] for t in tails]
            worst = max(abs(mpmath.mpf(v) / e - 1) for v, e in zip(pot.u(np.array(radii)), exact))
        assert worst < 1e-13

    @pytest.mark.parametrize("p", [1.5, 1.1, 1.01])
    def test_level_radius_on_dense_levels(self, euclid3, schw1, p):
        # flat scale-invariant datum: w = (3-p) ln r, so r(t) = e^{t/(3-p)}
        pot = solve_wp(euclid3, 1.0, 4.0, p, phi_R=(3.0 - p) * math.log(4.0))
        ts = np.linspace(0.0, pot.phi_R, 257)
        assert np.allclose(pot.level_radius(ts), np.exp(ts / (3.0 - p)), rtol=1e-13, atol=0.0)
        pot = solve_wp(schw1, 2.2, 12.0, p)
        ts = np.linspace(0.0, pot.phi_R, 257)
        assert np.allclose(pot.w(pot.level_radius(ts)), ts, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize(("model", "r0", "R", "p"), [("schw1", 2.2, 12.0, 1.1), ("schw1", 2.2, 12.0, 1.5), ("euclid3", 1.0, 8.0, 1.01)])
    def test_level_radius_does_not_depend_on_the_batch(self, request, model, r0, R, p):
        # each entry stops at its own converged Newton step, and the table
        # behind w is elementwise, so a level's radius is the same bit for bit
        # in one call, in pairs and one by one
        pot = solve_wp(request.getfixturevalue(model), r0, R, p)
        ts = np.linspace(0.0, 0.95 * pot.phi_R, 33)
        whole = pot.level_radius(ts)
        pairs = np.concatenate([pot.level_radius(ts[i : i + 2]) for i in range(0, ts.size, 2)])
        assert np.array_equal(whole, pairs)
        assert np.array_equal(whole, [pot.level_radius(t) for t in ts])

    def test_array_calls_equal_scalar_calls(self, schw1):
        pots = [solve_wp(schw1, 2.2, 8.0, 1.3), solve_w1(schw1, 2.2, 8.0), solve_wp_eps(schw1, 2.2, 8.0, 1.3, 1e-3)]
        rs = np.linspace(2.2, 8.0, 7)
        for pot in pots:
            names = ["w", "grad_norm"] + (["u"] if pot.kind != KIND_IMCF else [])
            names += ["theta"] if pot.kind == KIND_EPS else []
            for name in names:
                fn = getattr(pot, name)
                arr = fn(rs)
                assert arr.shape == rs.shape
                assert all(isinstance(fn(r), float) for r in rs)
                # numpy's array loops may round differently from its scalar ones
                assert np.allclose(arr, [fn(r) for r in rs], rtol=1e-14, atol=1e-15), name
            ts = np.linspace(0.0, pot.phi_R, 7)
            assert np.allclose(pot.level_radius(ts), [pot.level_radius(t) for t in ts], rtol=1e-14, atol=0.0)
            assert np.allclose(pot.w(pot.level_radius(ts)), ts, rtol=0.0, atol=1e-12)


class TestSolveW1:
    def test_euclid_closed_form(self, euclid3):
        pot = solve_w1(euclid3, 1.0, 8.0)
        assert pot.kind == KIND_IMCF
        for r in RS:
            assert pot.w(r) == pytest.approx(2.0 * math.log(r), rel=1e-13, abs=1e-13)
            assert pot.grad_norm(r) == pytest.approx(2.0 / r, rel=1e-13)
        assert pot.level_radius(2.0 * math.log(2.0)) == pytest.approx(2.0, rel=1e-10)

    def test_gradient_is_mean_curvature(self, schw1):
        pot = solve_w1(schw1, 2.2, 12.0)
        for r in (2.5, 4.0, 9.0):
            assert pot.grad_norm(r) == pytest.approx(
                mean_curvature_sphere(schw1, r), rel=1e-12
            )

    def test_rejects_inward_flow(self):
        # a dip in h means coordinate spheres are not outward minimizing;
        # the table is rejected where it is built, before any flow runs
        rs = np.linspace(1.0, 4.0, 60)
        hs = rs + 0.5 * np.sin(2.5 * (rs - 1.0))
        with pytest.raises(ValueError, match="h'"):
            geometry.tabulated(3, [(r, 1.0, h) for r, h in zip(rs, hs)])

    def test_starts_at_a_throat(self):
        # f = 1, h = 1 + (r-1)^2: h'(r0) = 0 at r0 = r_min, and h' > 0 above
        model = geometry.RadialManifold(
            n=3,
            f=lambda r: 1.0 + 0.0 * r,
            h=lambda r: 1.0 + (r - 1.0) ** 2,
            df=lambda r: 0.0 * r,
            dh=lambda r: 2.0 * (r - 1.0),
            d2h=lambda r: 2.0 + 0.0 * r,
            r_min=1.0,
            label="throat",
        )
        pot = solve_w1(model, 1.0, 4.0)
        rs = np.linspace(1.0, 4.0, 31)
        assert np.array_equal(pot.w(rs), 2.0 * np.log(1.0 + (rs - 1.0) ** 2))
        assert pot.grad_norm(1.0) == 0.0
        ts = np.linspace(0.0, pot.phi_R, 7)
        assert np.allclose(pot.w(pot.level_radius(ts)), ts, rtol=0.0, atol=1e-12)


class TestRegularized:
    def test_theta_range_and_limit(self, euclid3):
        pot = solve_wp_eps(euclid3, 1.0, 3.0, 1.5, 1e-3)
        assert pot.kind == KIND_EPS
        thetas = [pot.theta(r) for r in np.linspace(1.0, 3.0, 20)]
        assert all(0.0 < th < 1e-2 for th in thetas)
        # the degeneracy indicator is largest where the potential is flattest
        assert thetas[0] < 1e-6
        assert max(thetas) == thetas[-1]

    def test_approaches_unregularized(self, euclid3):
        pot = solve_wp(euclid3, 1.0, 3.0, 1.5)
        sups = []
        for eps in (1e-2, 1e-3):
            pote = solve_wp_eps(euclid3, 1.0, 3.0, 1.5, eps)
            sups.append(max(abs(pote.w(r) - pot.w(r)) for r in np.linspace(1.0, 3.0, 40)))
        assert sups[1] < sups[0]
        assert sups[1] < 1e-4

    def test_flux_bracketing_reuses_base(self, schw1):
        pot = solve_wp_eps(schw1, 2.2, 8.0, 1.3, 1e-3)
        assert pot.flux > 0.0
        assert pot.u(2.2) == pytest.approx(1.0, rel=1e-10)
        assert pot.u(8.0) == pytest.approx(math.exp(-pot.phi_R / 0.3), rel=1e-9)

    @pytest.mark.parametrize(("model", "r0", "R", "p", "eps"), [("schw1", 2.2, 12.0, 1.5, 1e-3), ("euclid3", 1.0, 3.0, 1.2, 1e-2)])
    def test_slope_does_not_depend_on_the_batch(self, request, model, r0, R, p, eps):
        # each radius stops at its own converged Newton step on the slope,
        # so grad_norm and theta are the same bit for bit in one call and
        # one by one
        pot = solve_wp_eps(request.getfixturevalue(model), r0, R, p, eps)
        rs = np.linspace(r0, R, 33)
        for name in ("grad_norm", "theta"):
            fn = getattr(pot, name)
            assert np.array_equal(fn(rs), [fn(r) for r in rs]), name

    @pytest.mark.parametrize("p", [1.001, 1.01, 1.5, 2.0])
    @pytest.mark.parametrize("eps", [1e-1, 1e-4, 1e-8])
    def test_regularized_slope_solves_down_to_p_near_one(self, p, eps):
        # where q >> eps the slope F' is p - 1, so rounding in F moves y by
        # about eps_mach |y| / (p - 1); the steps stop above that noise
        log_m = np.linspace(-40.0, 10.0, 501)
        y = radial._regularized_log_slope(log_m, p, eps)
        log_flux = radial._log_flux(y, p, 2.0 * math.log(eps))[0]
        assert np.all(np.abs(log_flux - log_m) <= 1e-13 * (1.0 + np.abs(log_m)))

    def test_eps_validation(self, euclid3):
        # one bad value each; the annulus and p are checked by the p-solve
        # that the shooting starts from
        for args, error, field in (
            ((1.0, 3.0, 1.5, 0.0), ConfigError, "eps"),
            ((3.0, 3.0, 1.5, 1e-3), geometry.DomainError, "R"),
            ((1.0, 3.0, 2.5, 1e-3), ConfigError, "p"),
        ):
            with pytest.raises(ConfigError) as info:
                solve_wp_eps(euclid3, *args)
            assert (info.type, info.value.fieldname) == (error, field), args

    def test_theta_requires_eps_kind(self, euclid3):
        pot = solve_wp(euclid3, 1.0, 3.0, 1.5)
        with pytest.raises(ValueError):
            pot.theta(2.0)


class TestCurvatureIdentity:
    """Mean curvature of the level spheres from the potential itself.

    For the p-potential H = g - (p-1) g'/(f g) with g = |grad w|; the
    regularized potential carries the extra factor 1 + (2-p) theta/(p-1).
    Both must match the geometric (n-1) h'/(f h) pointwise.  g' is a central
    difference of the solved |grad w|, so a wrong profile fails the identity.
    """

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
    def test_p_potential_identity(self, radial_model_set, p):
        for model, r0, R in radial_model_set:
            pot = solve_wp(model, r0, R, p)
            for r in np.linspace(r0 * 1.001, R * 0.999, 50):
                g = pot.grad_norm(r)
                dg = grad_norm_fd(pot, r)
                lhs = g - (p - 1.0) * dg / (model.f(r) * g)
                assert lhs == pytest.approx(mean_curvature_sphere(model, r), rel=1e-6)

    def test_regularized_identity(self, euclid3, schw1):
        for model, r0, R in ((euclid3, 1.0, 4.0), (schw1, 2.2, 8.0)):
            pot = solve_wp_eps(model, r0, R, 1.5, 1e-3)
            for r in np.linspace(r0 * 1.001, R * 0.999, 50):
                g = pot.grad_norm(r)
                dg = grad_norm_fd(pot, r)
                th = pot.theta(r)
                lhs = (g - 0.5 * dg / (model.f(r) * g)) * (1.0 + 0.5 * th / 0.5)
                assert lhs == pytest.approx(mean_curvature_sphere(model, r), rel=1e-6)


class TestCapacity:
    def test_unit_balls_in_flat_space(self, euclid3):
        # normalized condenser capacity of B_1 against B_2
        pot = solve_wp(euclid3, 1.0, 2.0, 2.0)
        assert capacity(pot) == pytest.approx(2.0, rel=1e-9)

    def test_full_annulus_default(self, schw1):
        pot = solve_wp(schw1, 2.2, 12.0, 1.5)
        val = capacity(pot)
        assert val == pytest.approx(capacity(pot, 0.0, pot.phi_R), rel=1e-12)

    def test_custom_cross_sections_agree(self, euclid3):
        pot = solve_wp(euclid3, 1.0, 8.0, 1.5)
        T = pot.phi_R
        a = capacity(pot, 0.0, T, taus=(0.0, 0.5 * T, 0.75 * T))
        b = capacity(pot, 0.0, T, taus=(0.1 * T, 0.9 * T))
        assert a == pytest.approx(b, rel=1e-8)

    def test_requires_p_kind(self, euclid3):
        pot = solve_w1(euclid3, 1.0, 8.0)
        with pytest.raises(ValueError):
            capacity(pot)

    def test_window_validation(self, euclid3):
        pot = solve_wp(euclid3, 1.0, 8.0, 1.5)
        with pytest.raises(ValueError):
            capacity(pot, 1.0, 0.5)
        # a cross section beyond phi_R is a level that level_radius rejects
        with pytest.raises(ValueError, match="outside"):
            capacity(pot, taus=(0.0, 1.01 * pot.phi_R))


class TestPotentialProperties:
    @given(
        p=st.floats(min_value=1.05, max_value=2.0, allow_nan=False),
        frac=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_u_w_consistency(self, p, frac):
        model = euclidean(3)
        pot = solve_wp(model, 1.0, 4.0, p)
        r = 1.0 + 3.0 * frac
        assert pot.u(r) == pytest.approx(math.exp(-pot.w(r) / (p - 1.0)), rel=1e-11)
        assert pot.grad_norm(r) >= 0.0

    @given(
        lo=st.floats(min_value=0.0, max_value=0.45, allow_nan=False),
        gap=st.floats(min_value=0.05, max_value=0.5, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_w_monotone_in_r(self, lo, gap):
        model = cone(3, 0.6)
        pot = solve_wp(model, 1.0, 5.0, 1.4)
        r1 = 1.0 + 4.0 * lo
        r2 = 1.0 + 4.0 * min(lo + gap, 1.0)
        assert pot.w(r2) >= pot.w(r1) - 1e-12
