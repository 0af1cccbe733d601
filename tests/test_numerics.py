"""Quadrature, cumulative integrals, root finding, the banded SPD solve and
the BLAS thread cap."""

import contextlib
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcapflow import numerics, radial, solver2d
from pcapflow.numerics import (
    CumulativeIntegral,
    QuadratureError,
    find_root,
    integrate,
    natural_cubic_spline,
    single_threaded_blas,
    solve_spd,
    within,
)

TIGHT = 1e-13


class TestIntegrate:
    def test_cubic_is_exact(self):
        # both Gauss-Legendre rules of a panel integrate cubics exactly, so
        # a single panel passes and returns the exact value
        val = integrate(lambda x: x**3 - 2.0 * x**2 + 5.0, 0.0, 2.0)
        assert val == pytest.approx(4.0 - 16.0 / 3.0 + 10.0, rel=1e-14)

    def test_sine(self):
        assert integrate(np.sin, 0.0, math.pi, TIGHT) == pytest.approx(2.0, rel=1e-12)

    def test_gaussian(self):
        val = integrate(lambda x: np.exp(-x * x), -3.0, 3.0, TIGHT)
        assert val == pytest.approx(math.sqrt(math.pi) * math.erf(3.0), rel=1e-12)

    def test_narrow_peak_is_refined_locally(self):
        # one panel cannot resolve a peak of width 0.02; halving only the
        # failing panels must reach it without refining the flat part
        points = []

        def peak(x):
            points.append(x.size)
            return np.exp(-((x - 0.3) / 0.02) ** 2)

        val = integrate(peak, 0.0, 1.0, TIGHT)
        assert val == pytest.approx(0.02 * math.sqrt(math.pi), rel=1e-12)
        assert sum(points) < 30 * 40

    def test_kink_converges(self):
        # |x - 0.3| has a kink inside the first panel; local halving settles it
        val = integrate(lambda x: np.abs(x - 0.3), 0.0, 1.0, TIGHT)
        assert val == pytest.approx(0.5 * (0.3**2 + 0.7**2), rel=1e-13)

    def test_cancelling_integral_ends_in_one_panel(self):
        # the odd sine integrates to 0 on [-1, 1]; no relative target is
        # reachable, and the rounding floor must end the refinement at once
        points = []
        val = integrate(lambda x: points.append(x.size) or np.sin(x), -1.0, 1.0, TIGHT)
        assert points == [30]
        assert abs(val) < 1e-17

    def test_empty_interval(self):
        assert integrate(np.exp, 1.5, 1.5) == 0.0

    def test_bounds_out_of_order(self):
        with pytest.raises(ValueError, match="out of order"):
            integrate(np.sin, 1.0, 0.0)

    def test_nonfinite_integrand(self):
        # the caller's input was valid; the integrand it built broke down
        with pytest.raises(numerics.SolverError, match=r"^integrand not finite inside \["):
            integrate(lambda x: np.where(x < 0.5, 1.0 / x, np.inf), 0.0, 1.0)
        with pytest.raises(numerics.SolverError, match=r"^integrand not finite inside \["):
            CumulativeIntegral(lambda x: np.where(x < 0.5, 1.0, np.nan), 0.0, (0.0, 1.0))

    def test_depth_exhaustion_carries_best_estimate(self):
        # integrable endpoint singularity: the panels touching the origin
        # never meet their error budget, so halving stops at rounding width
        # and the leftover must surface with a usable estimate
        spike = lambda x: np.where(x > 0.0, x, 1.0) ** -0.5
        with pytest.raises(QuadratureError) as err:
            integrate(spike, 0.0, 1.0, TIGHT)
        assert err.value.best_estimate == pytest.approx(2.0, rel=1e-4)

    def test_rounding_noise_is_accepted(self):
        # a cancelling difference carries noise of about 1e-13 relative;
        # no refinement removes it, so it must not be chased past 1e-14
        rng = np.random.default_rng(5)

        def noisy(x):
            return np.cos(x) * (1.0 + 1e-13 * rng.standard_normal(x.shape))

        points = []
        val = integrate(lambda x: points.append(x.size) or noisy(x), 0.0, 1.0, 1e-14)
        assert val == pytest.approx(math.sin(1.0), rel=1e-12)
        assert sum(points) < 30 * 64

    def test_rows_match_each_row_alone(self):
        # one run refines until every row passes: each row meets its own
        # target, however small its integral next to the others
        def rows(x):
            return np.array([np.cos(x), 1e-9 * np.exp(-((x - 0.3) / 0.02) ** 2), x**-3])

        sums = integrate(rows, 0.1, 2.0, TIGHT)
        assert sums.shape == (3,)
        for k, total in enumerate(sums):
            assert total == pytest.approx(integrate(lambda x: rows(x)[k], 0.1, 2.0, TIGHT), rel=TIGHT)

    def test_breaks_sum_the_pieces(self):
        # |x - 0.3| kinks at the break, so each piece is a polynomial
        kink = lambda x: np.array([np.abs(x - 0.3), np.sin(5.0 * x)])
        points = []
        sums = integrate(lambda x: points.append(x.size) or kink(x), 0.0, 1.0, TIGHT, breaks=[0.3, 0.6])
        pieces = [integrate(kink, a, b, TIGHT) for a, b in ((0.0, 0.3), (0.3, 0.6), (0.6, 1.0))]
        np.testing.assert_allclose(sums, np.sum(pieces, axis=0), rtol=TIGHT, atol=0.0)
        assert sums[0] == pytest.approx(0.5 * (0.3**2 + 0.7**2), rel=TIGHT)
        assert points == [90]  # three panels, one round

    def test_row_zero_on_some_panels(self):
        # a row masked to the first piece is zero on the rest; it passes
        # there and keeps its relative target on its own support
        def rows(x):
            return np.array([np.exp(x), np.where(x <= 0.5, np.sin(x), 0.0)])

        sums = integrate(rows, 0.0, 2.0, TIGHT, breaks=[0.5])
        np.testing.assert_allclose(sums, [math.e**2 - 1.0, 1.0 - math.cos(0.5)], rtol=1e-12, atol=0.0)
        everywhere_zero = integrate(lambda x: np.array([np.exp(x), 0.0 * x]), 0.0, 2.0, TIGHT)
        assert everywhere_zero[1] == 0.0

    def test_one_failing_row_raises(self):
        # the singular row stalls at rounding width; the smooth rows converge
        # but the run still reports the failure, with every row's estimate
        spike = lambda x: np.where(x > 0.0, x, 1.0) ** -0.5
        with pytest.raises(QuadratureError, match="rounding width") as err:
            integrate(lambda x: np.array([np.cos(x), spike(x), x]), 0.0, 1.0, TIGHT)
        np.testing.assert_allclose(err.value.best_estimate, [math.sin(1.0), 2.0, 0.5], rtol=1e-4)
        # noise far above rounding in one row fails every halving of it
        rng = np.random.default_rng(7)
        noisy = lambda x: np.array([np.cos(x), np.cos(x) * (1.0 + 1e-6 * rng.standard_normal(x.shape))])
        with pytest.raises(QuadratureError, match="still fail"):
            integrate(noisy, 0.0, 1.0, TIGHT)

    def test_empty_interval_has_the_row_shape(self):
        sums = integrate(lambda x: np.array([x, x, x]), 1.5, 1.5, breaks=[1.5])
        assert sums.shape == (3,) and np.all(sums == 0.0)

    def test_breaks_out_of_order(self):
        with pytest.raises(ValueError, match="out of order"):
            integrate(np.sin, 0.0, 1.0, breaks=[0.6, 0.3])
        with pytest.raises(ValueError, match="out of order"):
            integrate(np.sin, 0.0, 1.0, breaks=[1.5])

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

    @given(
        k=st.floats(min_value=0.5, max_value=200.0, allow_nan=False),
        a=st.floats(min_value=0.5, max_value=3.0, allow_nan=False),
        width=st.floats(min_value=1e-2, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_power_decay_against_mpmath(self, k, a, width):
        # x^-k spans up to hundreds of decades: the p -> 1 profile integrand
        b = a + width
        with mpmath.workdps(40):
            ma, mb, mk = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(k)
            exact = float(mpmath.log(mb / ma) if k == 1.0 else (ma ** (1 - mk) - mb ** (1 - mk)) / (mk - 1))
        val = integrate(lambda x: x**-k, a, b, 1e-12)
        assert val == pytest.approx(exact, rel=1e-12)


class TestCumulativeIntegral:
    def test_matches_antiderivative_both_directions(self):
        cum = CumulativeIntegral(np.cos, 0.0, (-3.0, 3.0), TIGHT)
        xs = np.array([2.0, 0.5, -1.0, 3.0, 0.5, -2.5])
        assert np.allclose(cum(xs), np.sin(xs), rtol=0.0, atol=1e-13)
        for x in xs:
            assert cum(x) == pytest.approx(math.sin(x), abs=1e-13)

    def test_base_point_is_zero(self):
        cum = CumulativeIntegral(np.exp, 1.0, (1.0, 2.0))
        assert cum(1.0) == 0.0

    @pytest.mark.parametrize("log", [False, True])
    def test_queries_call_no_integrand(self, log):
        # the build is the only call of fn; a query evaluates the stored
        # panel interpolants
        calls = []

        def fn(x):
            calls.append(x.size)
            return 2.0 * np.log(x) if log else x * x

        cum = CumulativeIntegral(fn, 0.0, (0.0, 3.0), log=log)
        built = len(calls)
        xs = np.array([1.0, 2.0, 3.0])
        values = np.exp(cum(xs)) if log else cum(xs)
        assert cum(2.0) == cum(2.0)
        assert built > 0 and len(calls) == built
        assert values == pytest.approx(xs**3 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("log", [False, True])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_next_to_the_anchor_against_mpmath(self, side, log):
        # a point t half-widths from a panel's anchor-side edge adds
        # half * t * G(t - 1), so partial integrals down to 1e-12 of the
        # table width keep their relative accuracy on either side of x0; the
        # panels span a quarter e-fold in s, as the radial tails do, so their
        # interpolants resolve s^-3 to rounding
        edges = np.exp(np.arange(-3, 5) / 4.0)
        x0, width = 1.0, edges[-1] - edges[0]
        cum = CumulativeIntegral(lambda s: -3.0 * np.log(s) if log else s**-3.0, x0, edges, 1e-12, log=log)
        for offset in (1e-12, 3.7e-9, 2e-6, 1e-3):
            x = x0 + side * offset * width
            value = cum(x)
            with mpmath.workdps(40):
                exact = (1 - mpmath.mpf(x) ** -2) / 2  # the integral of s^-3 from 1 to x
                got = mpmath.sign(exact) * mpmath.exp(value) if log else mpmath.mpf(value)
                assert abs(got / exact - 1) <= 1e-14, (x, value)

    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=30), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_single_queries(self, xs, log):
        # a query is elementwise: its value does not depend on the batch, also
        # across the chunks of a long array
        fn = (lambda s: -s * s) if log else np.cos
        cum = CumulativeIntegral(fn, 0.5, np.linspace(-3.0, 3.0, 5), TIGHT, log=log)
        single = np.array([cum(x) for x in xs])
        assert np.array_equal(cum(np.array(xs)), single)
        reps = 1 + 1000 // len(xs)
        assert np.array_equal(cum(np.tile(xs, reps)), np.tile(single, reps))

    def test_outside_the_table(self):
        cum = CumulativeIntegral(np.exp, 1.0, (1.0, 2.0))
        with pytest.raises(ValueError, match=r"^x=2\.5 outside \[1\.0, 2\.0\]$"):
            cum(2.5)

    def test_tail_keeps_tiny_values_accurate(self):
        # steeply decaying integrand summed from the outer anchor: every
        # value is a sum of same-sign panels, so the relative error stays
        # bounded where the tail is 1e-24 of the full integral
        def tail(x):
            # integral of s^-40 from x to 10
            return (x**-39 - 10.0**-39) / 39.0

        cum = CumulativeIntegral(lambda s: s**-40, 10.0, np.geomspace(10.0, 2.0, 8), 1e-12)
        xs = np.array([2.0, 2.5, 5.0, 9.0, 9.99])
        assert np.allclose(-cum(xs), tail(xs), rtol=1e-13, atol=0.0)
        assert cum.at_edges[0] == pytest.approx(-tail(2.0), rel=1e-13)
        assert cum.at_edges[-1] == 0.0

    def test_log_mode_far_below_underflow(self):
        # the log of int_x^2 s^-k ds for k = 2e4: every value underflows
        k = 2e4
        cum = CumulativeIntegral(lambda s: -k * np.log(s), 2.0, np.geomspace(2.0, 1.0, 2000), TIGHT, log=True)
        xs = np.array([1.0, 1.2, 1.9, 1.999])
        exact = -(k - 1.0) * np.log(xs) - math.log(k - 1.0) + np.log1p(-((xs / 2.0) ** (k - 1.0)))
        assert np.allclose(cum(xs), exact, rtol=1e-13, atol=0.0)
        assert cum(2.0) == -np.inf

    def test_mpmath_oracle_schwarzschild_profile(self):
        # tail of f h^-kappa on Schwarzschild [2.2, 12] at p = 1.1 (kappa = 20)
        kappa = 20.0
        fn = lambda s: (1.0 - 2.0 / s) ** -0.5 * s**-kappa
        cum = CumulativeIntegral(fn, 12.0, np.geomspace(12.0, 2.2, 10), 1e-12)
        with mpmath.workdps(40):
            mf = lambda s: (1 - 2 / s) ** mpmath.mpf(-0.5) * s ** (-kappa)
            for x in (2.2, 3.0, 7.5, 11.0):
                exact = -mpmath.quad(mf, mpmath.linspace(x, 12, 30))
                assert abs(cum(x) / float(exact) - 1.0) < 1e-14


class TestWithin:
    """The one range rule: a pad of 1e-12 (1 + |end|) at each end."""

    def test_clamps_inside_the_pad_and_keeps_the_shape(self):
        x = within(np.array([[1.0 - 1e-12, 2.0], [3.0, 3.0 + 3e-12]]), 1.0, 3.0, "r")
        assert np.array_equal(x, [[1.0, 2.0], [3.0, 3.0]])
        assert type(within(2, 1.0, 3.0, "r")) is np.float64
        assert within(1e300, 2.0, math.inf, "r") == 1e300
        assert within(np.array([]), 1.0, 3.0, "r").shape == (0,)

    @pytest.mark.parametrize("x", [1.0 - 3e-12, 3.0 + 5e-12, math.nan, -math.inf])
    def test_beyond_the_pad_is_a_value_error(self, x):
        with pytest.raises(ValueError, match=rf"^r={re.escape(str(x))} outside \[1\.0, 3\.0\]$"):
            within(np.array([2.0, x]), 1.0, 3.0, "r")


def _dottie(x, k):
    return x - np.cos(x), 1.0 + np.sin(x)


class TestFindRoot:
    """Safeguarded Newton steps on (value, slope) functions that increase on
    their brackets."""

    def test_linear(self):
        root = find_root(lambda x, k: (2.0 * x - 1.0, np.full_like(x, 2.0)), 3.0, 0.0, 3.0)
        assert root == 0.5 and isinstance(root, float)

    def test_dottie_number(self):
        assert find_root(_dottie, 0.0, 0.0, 1.0) == pytest.approx(0.7390851332151607, abs=1e-15)

    def test_endpoint_root_returned_exactly(self):
        # an exact zero takes a step of 0 and stops there
        assert find_root(lambda x, k: (x - 2.0, np.ones_like(x)), 2.0, 2.0, 5.0) == 2.0
        assert find_root(lambda x, k: (x**3 - 8.0, 3.0 * x**2), 2.0, 0.0, 5.0) == 2.0

    def test_running_out_of_steps_is_a_breakdown(self, monkeypatch):
        # the entries still moving are not returned quietly; the error names the job
        monkeypatch.setattr(numerics, "_ROOT_STEPS", 2)
        with pytest.raises(numerics.SolverError, match=r"^dottie: 3 entries still moving after 2 steps$"):
            find_root(_dottie, np.zeros(3), 0.0, 1.0, job="dottie")

    @pytest.mark.parametrize(
        "value, slope, lo, hi, match",
        [
            # a NaN value inside a bracket moved its upper end down to 5.7e-14
            (np.nan, 1.0, 0.0, 1.0, r"^probe: non-finite value nan at x=0\.5$"),
            (np.nan, 1.0, -math.inf, math.inf, r"^probe: non-finite value nan at x=0\.5$"),
            (np.inf, 1.0, -math.inf, math.inf, r"^probe: non-finite value inf at x=0\.5$"),
        ],
    )
    def test_non_finite_value_is_a_breakdown(self, value, slope, lo, hi, match):
        fn = lambda x, k: (np.full_like(x, value), np.full_like(x, slope))
        with pytest.raises(numerics.SolverError, match=match):
            find_root(fn, 0.5, lo, hi, job="probe")

    def test_non_finite_root_is_a_breakdown(self):
        # a NaN slope with no bracket bisects to -inf, where the value is
        # finite; the step there is NaN, so the entry stops at -inf
        fn = lambda x, k: (np.tanh(x - 0.3), np.full_like(x, np.nan))
        with pytest.raises(numerics.SolverError, match=r"^probe: 1 entries stopped at a non-finite x$"):
            find_root(fn, 0.5, job="probe")

    def test_nan_slope_in_a_finite_bracket_bisects(self):
        fn = lambda x, k: (x - 0.3, np.full_like(x, np.nan))
        assert find_root(fn, 0.5, 0.0, 1.0) == pytest.approx(0.3, rel=0.0, abs=1e-13)

    def test_bracket_out_of_order(self):
        with pytest.raises(ValueError):
            find_root(lambda x, k: (np.sin(x), np.cos(x)), 0.0, 1.0, -1.0)

    def test_entries_do_not_depend_on_their_batch(self):
        # each entry reads its own target through k, and stops on its own step
        targets = np.linspace(-30.0, 50.0, 33)

        def cubic(t):
            return lambda x, k: (x**3 + x - t[k], 3.0 * x**2 + 1.0)

        together = find_root(cubic(targets), np.zeros(33), -10.0, 10.0)
        alone = [find_root(cubic(np.array([t])), 0.0, -10.0, 10.0) for t in targets]
        assert together.tolist() == alone
        assert np.all(np.abs(together**3 + together - targets) < 1e-12 * (1.0 + np.abs(targets)))

    def test_tol_per_entry(self):
        # an array tol gives each entry its own stop, as separate calls would
        tols = np.array([0.3, 0.1, 1e-2, 1e-13])
        together = find_root(_dottie, np.zeros(4), 0.0, 1.0, tols)
        alone = [find_root(_dottie, 0.0, 0.0, 1.0, tol) for tol in tols]
        assert together.tolist() == alone
        assert len(set(alone)) == 4

    @pytest.mark.parametrize(
        "fn, x, lo, hi, tol, root",
        [
            # one Newton step of 1e200 from 1e190
            (lambda x, k: (x - 1e200, np.ones_like(x)), 1e190, -math.inf, math.inf, 1e186, 1e200),
            # bisection (NaN slope) from steps of 5e299 down to tol
            (lambda x, k: (x - 3e250, np.full_like(x, np.nan)), 1e299, 1.0, 1e300, 1e286, 3e250),
        ],
    )
    def test_huge_steps_do_not_overflow(self, fn, x, lo, hi, tol, root):
        # the stop test squares steps past 1e154; the suite's warnings are errors
        assert abs(find_root(fn, x, lo, hi, tol) - root) <= tol

    def test_multiple_root_converges_within_the_cap(self):
        # at a triple root a Newton step contracts the error by 2/3 only: the
        # root lands within the cap (76 steps) and within tol
        c = 1.0 / 3.0
        root = find_root(lambda x, k: ((x - c) ** 3, 3.0 * (x - c) ** 2), 2.0, -1.0, 2.0)
        assert abs(root - c) < 1e-13

    @given(
        a=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
        b=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_cubic(self, a, b):
        # a simple root from a start whose Newton step may leave the bracket
        fn = lambda x, k: (x**3 + a * x + b, 3.0 * x**2 + a)
        root = find_root(fn, 0.0, -10.0, 10.0)
        assert abs(fn(root, 0)[0]) < 1e-8 * (1.0 + abs(b) + 300.0 + 10.0 * a)
        d = 1e-12 * (1.0 + abs(root))
        assert fn(root, 0)[0] == 0.0 or fn(root - d, 0)[0] < 0.0 < fn(root + d, 0)[0]

    @pytest.mark.parametrize("tol", [1e-13, 1e-9, 1e-5])
    @pytest.mark.parametrize(
        "fn, lo, hi",
        [
            (lambda x, k: (x**3 + x - 1.0, 3.0 * x**2 + 1.0), -10.0, 10.0),
            (lambda x, k: (np.exp(x) - 2.0, np.exp(x)), -3.0, 5.0),
            # triple root: Newton steps shrink by 2/3 only
            (lambda x, k: ((x - 1.0 / 3.0) ** 3, 3.0 * (x - 1.0 / 3.0) ** 2), -1.0, 2.0),
            # steep step: Newton leaves the bracket until it is narrow
            (lambda x, k: (np.tanh(50.0 * (x - 0.3)), 50.0 / np.cosh(50.0 * (x - 0.3)) ** 2), -1.0, 1.0),
            (lambda x, k: (x - 1e3, np.ones_like(x)), 0.0, 4e3),
        ],
    )
    def test_root_is_within_tol_of_a_sign_change(self, fn, lo, hi, tol):
        x = find_root(fn, 0.5 * (lo + hi), lo, hi, tol)
        d = tol * (1.0 + abs(x))
        assert lo <= x <= hi
        assert fn(x, 0)[0] == 0.0 or (fn(x - d, 0)[0] > 0.0) != (fn(x + d, 0)[0] > 0.0)

    def test_flat_eps_shooting_takes_few_quadratures(self, monkeypatch, euclid3):
        # each Newton step of the shooting of solve_wp_eps is one adaptive
        # quadrature of the drop 1 - u(R; C) and its slope in log C
        calls = []

        def counted(*args):
            calls.append(args)
            return integrate(*args)

        monkeypatch.setattr(radial, "integrate", counted)
        for eps in (1e-2, 1e-3, 1e-4):
            calls.clear()
            pot = radial.solve_wp_eps(euclid3, 1.0, 3.0, 1.5, eps)
            assert 1 <= len(calls) <= 3
            assert abs(pot.w(1.0)) < 1e-12  # the shot lands: u(r0) = 1

    @pytest.mark.parametrize("p, eps", [(2.0, 1e-2), (2.0, 1e-7), (1.5, 1e-7)])
    def test_eps_shooting_brackets_when_the_regularization_vanishes(self, monkeypatch, euclid3, p, eps):
        # at p = 2 the regularized slope is the unregularized one, and at a
        # tiny eps it differs by ~eps^2: the defect at the unregularized flux
        # is then quadrature noise of either sign, and the shot must still
        # land on the unregularized potential, in one step
        calls = []
        monkeypatch.setattr(radial, "integrate", lambda *args: calls.append(args) or integrate(*args))
        pot = radial.solve_wp_eps(euclid3, 1.0, 3.0, p, eps)
        assert len(calls) == 1
        base = radial.solve_wp(euclid3, 1.0, 3.0, p)
        rs = np.linspace(1.0, 3.0, 101)[:-1]
        assert pot.flux == pytest.approx(base.flux, rel=1e-12)
        assert np.max(np.abs(pot.w(rs) - base.w(rs))) < 1e-11


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

    def test_kept_factor_solves_a_second_right_side(self):
        rng = np.random.default_rng(12)
        for n, bands in ((3, 1), (17, 4), (64, 10), (200, 35)):
            band = np.asfortranarray(rng.standard_normal((bands + 1, n)))
            band[0] = 0.0
            band[0] = np.abs(self._dense(band)).sum(axis=1) + 1.0  # diagonally dominant
            a = self._dense(band)
            res = solve_spd(band, rng.standard_normal(n))
            b = rng.standard_normal(n)
            y = res.solve(b)
            assert np.linalg.norm(y - np.linalg.solve(a, b)) < 1e-12 * np.linalg.norm(y)
            b[n // 2] = math.nan
            with pytest.raises(ValueError, match="infs or NaNs"):
                res.solve(b)

    def test_band_and_right_side_layouts(self):
        # a Fortran-ordered band is factored in place, any other is copied;
        # a right side is never overwritten, and two columns solve as two
        c_band = np.array([[2.0] * 5, [-1.0] * 4 + [0.0]])
        f_band = np.asfortranarray(c_band)
        rhs = np.ones(5)
        res = solve_spd(c_band, rhs)
        assert not np.shares_memory(res.factor, c_band) and c_band[0, 0] == 2.0
        assert np.shares_memory(solve_spd(f_band, rhs).factor, f_band) and f_band[0, 0] != 2.0
        assert np.array_equal(rhs, np.ones(5))
        both = res.solve(np.stack([rhs, 2.0 * rhs], axis=1))
        assert np.array_equal(both[:, 0], res.x) and np.array_equal(both[:, 1], res.solve(2.0 * rhs))
        for n in (4, 6):
            with pytest.raises(ValueError, match="right side of shape"):
                res.solve(np.ones(n))

    def test_indefinite_operator_rejected(self):
        # the leading 2x2 block [[2, 1], [1, -1]] has determinant -3
        band = np.array([[2.0, -1.0, 2.0], [1.0, 1.0, 0.0]])
        with pytest.raises(numerics.SolverError, match="^banded Cholesky: 2-th leading minor not positive definite$"):
            solve_spd(band, np.ones(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, bad):
        band = np.array([[2.0] * 3, [-1.0, -1.0, 0.0]])
        rhs = np.ones(3)
        rhs[1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_spd(band, rhs)
        band[0, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_spd(band, np.ones(3))


class TestSolveSpdScipyFallback(TestSolveSpd):
    """The same cases where NumPy bundles no OpenBLAS with LAPACK, so
    SciPy's LAPACK factors."""

    @pytest.fixture(autouse=True)
    def _without_numpys_lapack(self, monkeypatch):
        monkeypatch.setattr(numerics, "_lapack_cholesky", lambda: None)


@pytest.mark.skipif(numerics._lapack_cholesky() is None, reason="NumPy bundles no OpenBLAS with LAPACK")
def test_shipped_hessian_band_agrees_on_both_lapack_paths(monkeypatch):
    # the last Hessian of the 64 x 32 ellipsoid solve, the grid that the
    # shipped ellipsoid config solves before its own 128 x 64
    bands = []

    def recording_solve_spd(band, rhs):
        bands.append((band.copy(order="F"), rhs.copy()))
        return solve_spd(band, rhs)

    monkeypatch.setattr(solver2d, "solve_spd", recording_solve_spd)
    solver2d.solve_2d(solver2d.ellipsoid_domain(1.3, 1.0, R=4.0), p=1.5, u_R=0.05, shape=(64, 32))
    band, rhs = bands[-1]
    paths = []
    for lapack in (numerics._lapack_cholesky(), None):
        monkeypatch.setattr(numerics, "_lapack_cholesky", lambda lapack=lapack: lapack)
        res = solve_spd(band.copy(order="F"), rhs)
        paths.append((res.factor, res.x, res.solve(band[0])))
    for numpys, scipys in zip(*paths):
        assert np.max(np.abs(numpys - scipys)) <= 1e-15 * np.max(np.abs(scipys))


_BLAS = numerics._openblas("threads")


def _blas_threads():
    return [get() for get, _ in _BLAS]


@contextlib.contextmanager
def _caller_threads(count):
    """Run the block with NumPy's OpenBLAS library on ``count`` threads."""
    saved = _blas_threads()
    for _, set_threads in _BLAS:
        set_threads(count)
    try:
        yield
    finally:
        for (_, set_threads), n in zip(_BLAS, saved):
            set_threads(n)


@pytest.mark.skipif(not _BLAS, reason="no OpenBLAS library in the NumPy wheel")
class TestSingleThreadedBlas:
    def test_caps_every_library_nests_and_restores(self):
        with _caller_threads(2):
            with single_threaded_blas():
                with single_threaded_blas():
                    assert _blas_threads() == [1] * len(_BLAS)
                assert _blas_threads() == [1] * len(_BLAS)
            assert _blas_threads() == [2] * len(_BLAS)

    def test_restores_after_an_exception(self):
        with _caller_threads(2):
            with pytest.raises(ZeroDivisionError):
                with single_threaded_blas():
                    1.0 / 0.0
            assert _blas_threads() == [2] * len(_BLAS)

    def test_solve_2d_runs_on_one_thread(self, monkeypatch):
        seen = {"factor": [], "back-solve": []}

        def recording_solve_spd(band, rhs):
            seen["factor"].append(_blas_threads())
            return solve_spd(band, rhs)

        def recording_back_solve(result, rhs):
            seen["back-solve"].append(_blas_threads())
            return back_solve(result, rhs)

        back_solve = numerics.SpdResult.solve
        monkeypatch.setattr(solver2d, "solve_spd", recording_solve_spd)
        monkeypatch.setattr(numerics.SpdResult, "solve", recording_back_solve)
        dom = solver2d.ellipsoid_domain(1.3, 1.0, R=4.0)
        with _caller_threads(2):
            fieldv = solver2d.solve_2d(dom, p=1.5, u_R=0.05, shape=(32, 16))
            assert _blas_threads() == [2] * len(_BLAS)
        assert fieldv.converged
        for kind, counts in seen.items():
            assert counts and all(c == [1] * len(_BLAS) for c in counts), kind

    def test_solve_2d_ignores_the_callers_thread_count(self):
        # 143 x 129 unknowns: OpenBLAS splits dot products this long between
        # two threads, and uncapped the final residual norm then rounds
        # differently
        dom = solver2d.ellipsoid_domain(1.3, 1.0, R=4.0)
        fields = []
        for count in (1, 2):
            with _caller_threads(count):
                fields.append(solver2d.solve_2d(dom, p=1.5, u_R=0.05, shape=(144, 128)))
        one, two = fields
        assert np.array_equal(one.u, two.u)
        assert (one.outer_iterations, one.residual_rel) == (two.outer_iterations, two.residual_rel)


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
