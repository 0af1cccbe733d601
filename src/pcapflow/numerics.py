"""Shared numerical kernels.

Adaptive Simpson quadrature, bracketed scalar root finding, natural cubic
splines and a banded Cholesky solve for symmetric positive definite
systems.  Every radial and level-set integral in the package routes
through :func:`integrate` so that accuracy budgets live in one place.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import cho_solve_banded, cholesky_banded

__all__ = [
    "Tolerance",
    "QuadratureError",
    "BracketError",
    "SpdResult",
    "integrate",
    "find_root",
    "solve_spd",
    "natural_cubic_spline",
    "CumulativeIntegral",
    "DEFAULT_TOL",
    "ROOT_TOL",
]


@dataclass(frozen=True)
class Tolerance:
    """Accuracy budget shared by the iterative kernels."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_TOL = Tolerance()
ROOT_TOL = Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_iter=200)

_MAX_DEPTH = 60


class QuadratureError(RuntimeError):
    """Adaptive refinement ran out of depth.  Carries the best estimate."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


class BracketError(ValueError):
    """Root finder called on a bracket without a sign change."""


def _adapt(fn, a, fa, m, fm, b, fb, whole, eps, depth, bad):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = fn(lm)
    frm = fn(rm)
    if not (math.isfinite(flm) and math.isfinite(frm)):
        raise ValueError(f"integrand not finite inside [{a}, {b}]")
    left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    err = left + right - whole
    if abs(err) <= 15.0 * eps or depth <= 0:
        if depth <= 0 and abs(err) > 15.0 * eps:
            bad.append(abs(err))
        # one Richardson step: Simpson pairs carry an err/15 correction
        return left + right + err / 15.0
    return _adapt(fn, a, fa, lm, flm, m, fm, left, 0.5 * eps, depth - 1, bad) + _adapt(
        fn, m, fm, rm, frm, b, fb, right, 0.5 * eps, depth - 1, bad
    )


def integrate(fn: Callable[[float], float], a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Adaptive Simpson quadrature of ``fn`` over [a, b].

    Exact for polynomials up to degree three on a single panel. Raises
    QuadratureError (carrying the best estimate) when the refinement depth
    is exhausted before the error target max(abs_tol, rel_tol*|I|) is met,
    and ValueError on non-finite integrand values.
    """
    a = float(a)
    b = float(b)
    if a > b:
        raise ValueError(f"integration bounds out of order: [{a}, {b}]")
    if a == b:
        return 0.0
    fa = fn(a)
    fb = fn(b)
    m = 0.5 * (a + b)
    fm = fn(m)
    if not (math.isfinite(fa) and math.isfinite(fm) and math.isfinite(fb)):
        raise ValueError(f"integrand not finite on [{a}, {b}]")
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    eps = max(tol.abs_tol, tol.rel_tol * abs(whole))
    bad: list[float] = []
    result = _adapt(fn, a, fa, m, fm, b, fb, whole, eps, _MAX_DEPTH, bad)
    # depth-exhausted panels are only fatal if their combined leftover error
    # blows the global budget (point noise in fn otherwise trips this forever)
    if bad and sum(bad) > eps:
        raise QuadratureError(
            f"quadrature on [{a}, {b}] did not reach tolerance {eps:.3e}; "
            f"unresolved panel error sum {sum(bad):.3e} (worst {max(bad):.3e})",
            best_estimate=result,
        )
    return result


class CumulativeIntegral:
    """Memoized cumulative integral ``x -> integral of fn from x0 to x``.

    Each new evaluation point only integrates the gap to the nearest
    previously visited point, so monotone sweeps (level radii, Ricci
    accumulation) stay cheap while remaining adaptive.

    With ``sided=True`` the anchor is always taken on the x0 side of x, so
    for one-signed integrands every value is a sum of same-sign chunks.
    That keeps the *relative* error bounded even when the integrand spans
    many decades and the tail is smaller than any single chunk error --
    nearest-anchor differencing would cancel catastrophically there.
    """

    def __init__(
        self,
        fn: Callable[[float], float],
        x0: float,
        tol: Tolerance = DEFAULT_TOL,
        sided: bool = False,
    ):
        self.fn = fn
        self.tol = tol
        self.sided = sided
        self._x0 = float(x0)
        self._xs = [float(x0)]
        self._vals = [0.0]

    def __call__(self, x: float) -> float:
        x = float(x)
        i = bisect.bisect_left(self._xs, x)
        if i < len(self._xs) and self._xs[i] == x:
            return self._vals[i]
        candidates = []
        if i > 0:
            candidates.append(i - 1)
        if i < len(self._xs):
            candidates.append(i)
        if self.sided:
            # anchors strictly between x and x0 (x0 itself always qualifies)
            if x < self._x0:
                candidates = [i] if i < len(self._xs) else []
            else:
                candidates = [i - 1] if i > 0 else []
        j = min(candidates, key=lambda k: abs(self._xs[k] - x))
        xa, va = self._xs[j], self._vals[j]
        if x > xa:
            val = va + integrate(self.fn, xa, x, self.tol)
        else:
            val = va - integrate(self.fn, x, xa, self.tol)
        self._xs.insert(i, x)
        self._vals.insert(i, val)
        return val


def find_root(fn: Callable[[float], float], lo: float, hi: float, tol: Tolerance = ROOT_TOL) -> float:
    """Bracketed root of a scalar function: bisection refined by secant steps.

    Alternating secant/bisection guarantees the bracket at least halves every
    other iteration.  Raises BracketError when fn(lo), fn(hi) share a sign.
    """
    lo = float(lo)
    hi = float(hi)
    if lo > hi:
        raise ValueError("bracket out of order")
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}")
    use_secant = True
    for _ in range(tol.max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol.abs_tol + tol.rel_tol * abs(mid):
            break
        x = mid
        if use_secant and fhi != flo:
            cand = hi - fhi * (hi - lo) / (fhi - flo)
            pad = 1e-3 * (hi - lo)
            if lo + pad < cand < hi - pad:
                x = cand
        use_secant = not use_secant
        fx = fn(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    return lo if abs(flo) <= abs(fhi) else hi


@dataclass
class SpdResult:
    """Outcome of a banded SPD solve: one Cholesky factorization."""

    x: np.ndarray
    iterations: int


def solve_spd(band: np.ndarray, rhs: np.ndarray) -> SpdResult:
    """Solve A x = rhs for a symmetric positive definite band matrix A.

    ``band`` holds the lower band in LAPACK storage, ``band[i - j, j] =
    A[i, j]`` for ``0 <= i - j < band.shape[0]``.  A Fortran-ordered float
    array is factored in place, so its contents are lost; any other is
    copied first.  A matrix that is not positive definite raises
    ``numpy.linalg.LinAlgError`` (a ``ValueError``).
    """
    factor = cholesky_banded(band, lower=True, overwrite_ab=True)
    return SpdResult(cho_solve_banded((factor, True), rhs), iterations=1)


def natural_cubic_spline(x, y) -> CubicSpline:
    """Cubic spline with natural boundary conditions (vanishing second derivative)."""
    return CubicSpline(np.asarray(x, dtype=float), np.asarray(y, dtype=float), bc_type="natural")
