"""Quadrature, cumulative integrals, root finding and the banded SPD solve."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcapflow.numerics import (
    BracketError,
    CumulativeIntegral,
    QuadratureError,
    Tolerance,
    find_root,
    integrate,
    natural_cubic_spline,
    solve_spd,
)

TIGHT = Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_iter=200)


class TestTolerance:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=0.0)
        with pytest.raises(ValueError):
            Tolerance(rel_tol=-1e-8)
        with pytest.raises(ValueError):
            Tolerance(max_iter=0)


class TestIntegrate:
    def test_cubic_is_exact(self):
        # Simpson integrates cubics exactly on a single panel
        val = integrate(lambda x: x**3 - 2.0 * x**2 + 5.0, 0.0, 2.0)
        assert val == pytest.approx(4.0 - 16.0 / 3.0 + 10.0, rel=1e-14)

    def test_sine(self):
        assert integrate(math.sin, 0.0, math.pi, TIGHT) == pytest.approx(2.0, rel=1e-12)

    def test_gaussian(self):
        val = integrate(lambda x: math.exp(-x * x), -3.0, 3.0, TIGHT)
        assert val == pytest.approx(math.sqrt(math.pi) * math.erf(3.0), rel=1e-12)

    def test_empty_interval(self):
        assert integrate(math.exp, 1.5, 1.5) == 0.0

    def test_bounds_out_of_order(self):
        with pytest.raises(ValueError, match="out of order"):
            integrate(math.sin, 1.0, 0.0)

    def test_nonfinite_integrand(self):
        with pytest.raises(ValueError, match="not finite"):
            integrate(lambda x: 1.0 / x if x else float("inf"), 0.0, 1.0)

    def test_depth_exhaustion_carries_best_estimate(self):
        # integrable endpoint singularity (finite by fiat at 0): the panels
        # touching the origin never meet their error budget, so refinement
        # bottoms out and the leftover must surface with a usable estimate
        spike = lambda x: x**-0.5 if x else 0.0
        with pytest.raises(QuadratureError) as err:
            integrate(spike, 0.0, 1.0, TIGHT)
        assert err.value.best_estimate == pytest.approx(2.0, rel=1e-4)

    @given(
        coeffs=st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=4,
            max_size=4,
        ),
        a=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        width=st.floats(min_value=1e-3, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_polynomials_to_degree_three(self, coeffs, a, width):
        b = a + width
        c0, c1, c2, c3 = coeffs

        def poly(x):
            return c0 + c1 * x + c2 * x**2 + c3 * x**3

        def anti(x):
            return c0 * x + c1 * x**2 / 2.0 + c2 * x**3 / 3.0 + c3 * x**4 / 4.0

        scale = 1.0 + sum(abs(c) for c in coeffs) * (1.0 + abs(a) + abs(b)) ** 4
        assert abs(integrate(poly, a, b) - (anti(b) - anti(a))) < 1e-10 * scale


class TestCumulativeIntegral:
    def test_matches_antiderivative_both_directions(self):
        cum = CumulativeIntegral(math.cos, 0.0, TIGHT)
        for x in [2.0, 0.5, -1.0, 3.0, 0.5, -2.5]:
            assert cum(x) == pytest.approx(math.sin(x), abs=1e-12)

    def test_base_point_is_zero(self):
        cum = CumulativeIntegral(math.exp, 1.0)
        assert cum(1.0) == 0.0

    def test_repeat_query_is_cached(self):
        calls = []

        def fn(x):
            calls.append(x)
            return x * x

        cum = CumulativeIntegral(fn, 0.0)
        first = cum(2.0)
        n_calls = len(calls)
        assert cum(2.0) == first
        assert len(calls) == n_calls

    def test_sided_keeps_tiny_tails_accurate(self):
        # steeply decaying integrand: querying near a far-side anchor makes
        # nearest-anchor differencing cancel two big chunk values, while
        # sided accumulation rebuilds the tiny tail from same-sign chunks
        def tail(x):
            # integral of s^-40 from x to 10
            return (x**-39 - 10.0**-39) / 39.0

        # purely relative tolerance: an absolute floor would let the tiny
        # tail chunks be accepted at garbage relative accuracy
        tol = Tolerance(abs_tol=1e-300, rel_tol=1e-12, max_iter=200)
        sided = CumulativeIntegral(lambda s: s**-40, 10.0, tol, sided=True)
        plain = CumulativeIntegral(lambda s: s**-40, 10.0, tol)
        for cum in (sided, plain):
            cum(2.0)  # big full-span chunk; nearest anchor to 2.5 is now 2.0
        got = -sided(2.5)
        assert got == pytest.approx(tail(2.5), rel=1e-9)
        plain_err = abs(-plain(2.5) - tail(2.5))
        assert plain_err > abs(got - tail(2.5))


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: 2.0 * x - 1.0, 0.0, 3.0) == pytest.approx(0.5, abs=1e-13)

    def test_dottie_number(self):
        root = find_root(lambda x: math.cos(x) - x, 0.0, 1.0)
        assert root == pytest.approx(0.7390851332151607, abs=1e-12)

    def test_endpoint_root_returned_exactly(self):
        assert find_root(lambda x: x - 2.0, 2.0, 5.0) == 2.0

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, 0.0, 1.0)

    def test_bracket_out_of_order(self):
        with pytest.raises(ValueError):
            find_root(math.sin, 1.0, -1.0)

    @given(
        a=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
        b=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_cubic(self, a, b):
        fn = lambda x: x**3 + a * x + b
        root = find_root(fn, -10.0, 10.0)
        assert abs(fn(root)) < 1e-8 * (1.0 + abs(b) + 300.0 + 10.0 * a)


class TestSolveSpd:
    @staticmethod
    def _dense(band):
        """Symmetric matrix whose lower band is ``band`` (LAPACK storage)."""
        n = band.shape[1]
        a = np.zeros((n, n))
        for d in range(band.shape[0]):
            a += np.diag(band[d, : n - d], -d)
            if d:
                a += np.diag(band[d, : n - d], d)
        return a

    def test_tridiagonal_oracle(self):
        # second-difference system with unit load: parabola 2.5 4 4.5 4 2.5
        band = np.array([[2.0] * 5, [-1.0] * 4 + [0.0]])
        res = solve_spd(band, np.ones(5))
        assert np.allclose(res.x, [2.5, 4.0, 4.5, 4.0, 2.5], atol=1e-13)
        assert res.iterations == 1

    def test_random_spd_systems(self):
        rng = np.random.default_rng(11)
        for n, bands in ((3, 1), (17, 4), (64, 10), (200, 35)):
            band = np.asfortranarray(rng.standard_normal((bands + 1, n)))
            band[0] = 0.0
            band[0] = np.abs(self._dense(band)).sum(axis=1) + 1.0  # diagonally dominant
            a = self._dense(band)
            b = rng.standard_normal(n)
            x = solve_spd(band, b).x
            assert np.linalg.norm(x - np.linalg.solve(a, b)) < 1e-12 * np.linalg.norm(x)

    def test_indefinite_operator_rejected(self):
        band = np.array([[2.0, -1.0, 2.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="positive definite"):
            solve_spd(band, np.ones(3))


class TestSpline:
    def test_interpolates_nodes(self):
        x = np.linspace(0.0, 3.0, 7)
        y = np.sin(x)
        s = natural_cubic_spline(x, y)
        assert np.allclose(s(x), y, atol=1e-13)

    def test_natural_boundary_conditions(self):
        x = np.linspace(0.0, 3.0, 7)
        s = natural_cubic_spline(x, np.sin(x))
        d2 = s.derivative(2)
        assert abs(d2(x[0])) < 1e-9
        assert abs(d2(x[-1])) < 1e-9
