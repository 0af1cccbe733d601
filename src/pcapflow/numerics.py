"""Shared numerical kernels.

Adaptive panel Gauss-Legendre quadrature on array integrands (one-shot
integrals and cumulative tables), safeguarded Newton root finding on
arrays (also of every sign change in a sample), natural cubic splines, a
banded Cholesky solve for symmetric positive definite systems whose result
keeps its factor for further right sides, a context that runs BLAS on one
thread, and Simpson weights.
Every radial integral in the package routes through :func:`integrate` or
:class:`CumulativeIntegral` so that accuracy budgets live in one place,
every radial root through :func:`find_root`, and the weights of a 2-D
level come from :func:`simpson_weights`.
The budget is one relative tolerance plus a rounding floor: a panel passes
when its error estimate is below ``rel_tol`` of the integral or below 64
eps times its integral of |fn|, so integrals that cancel to zero still end.
An integrand of :func:`integrate` may return k rows, several integrals over
one interval; each row is tested against its own integral, and a panel is
kept once every row passes it.  Its ``breaks`` start the run on several
pieces, so that one run covers an interval cut at kinks or at the ends of
the rows' supports.

SciPy is imported only for the spline, inside the function that calls
it: its import, which loads a second OpenBLAS beside NumPy's, outlasts most
configs' runs and adds about 25 MB of resident memory, and no shipped
config needs it.  For the same reason the banded Cholesky calls LAPACK in
the OpenBLAS library of NumPy's wheel through ``ctypes``, and falls back on
``scipy.linalg`` only where NumPy bundles no such library;
:func:`find_root` is written here rather than taken from
``scipy.optimize``, and the Simpson weights are NumPy rather than
``scipy.integrate``.

:func:`within` is the one range rule of the package: every radius and
level (a potential's annulus, a model's range, a table's range, a level's
[0, phi_R]) is judged, clamped and shaped by it.  Its pad is relative to
each end, 1e-12 (1 + |end|), so it neither grows with the span of a wide
annulus nor turns infinite at an infinite end.  Every other
exception class of the package derives from exactly one of two bases:
:class:`ConfigError`, bad input, which names the config field at fault
(exit 64), and :class:`SolverError`, a breakdown on valid input (exit 2),
which every kernel here raises whatever the library below it raised.  An
argument out of a kernel's range is the program's fault: a ValueError.

Each panel carries a 20-point and a 10-point Gauss-Legendre sum of the
same integrand; their difference bounds the error of the 10-point sum, so
the 20-point sum that is kept is far more accurate than the test demands.
A panel that fails its test is halved, and all pending panels of a round
are evaluated in one call of the integrand.  A round costs the integrand's
overhead more than its points, so a caller saves rounds by starting on
panels already fitted to the integrand, by putting several integrands
into one run, or both.  A cumulative table keeps 20
floats per panel, the Chebyshev coefficients of the panel's interpolant
integrated from its anchor-side edge, so its build is the only call of
the integrand and a query is a polynomial evaluation.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ConfigError",
    "SolverError",
    "QuadratureError",
    "SpdResult",
    "integrate",
    "simpson_weights",
    "find_root",
    "sign_changes",
    "solve_spd",
    "single_threaded_blas",
    "natural_cubic_spline",
    "CumulativeIntegral",
    "within",
]

_ROOT_STEPS = 200  # iteration cap of find_root

# the kept rule and the coarse rule of the per-panel error estimate, on [-1, 1]
_X, _W = np.polynomial.legendre.leggauss(20)
_XC, _WC = np.polynomial.legendre.leggauss(10)
_NODES = np.concatenate([_X, _XC])
_DEGREES = np.arange(float(_X.size))  # of the Chebyshev series of a table panel
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)
# integrand points per call, and series terms per step of a table query,
# so temporaries stay small on long tables and long queries
_CHUNK = 8192


class ConfigError(ValueError):
    """Bad input, named by the code that uses it; ``pcapflow run`` exits 64."""

    def __init__(self, message: str, fieldname: str):
        super().__init__(f"{fieldname}: {message}")
        self.message, self.fieldname = message, fieldname


class SolverError(RuntimeError):
    """A solver broke down on valid input; ``pcapflow run`` exits 2."""


class QuadratureError(SolverError):
    """Refinement could not meet the error test: panels reached rounding
    width, or too many failed at once.  Carries the best estimate."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


def within(x, lo, hi, what: str):
    """x clamped to [lo, hi]: an array for an array x, a NumPy float64 for a
    number.  A value beyond an end by more than 1e-12 (1 + |end|), NaN
    included, raises ValueError ``<what>=<value> outside [<lo>, <hi>]``; an
    infinite end is allowed.  An argument out of range is the fault of the
    code that computed it, never of a config."""
    x = np.asarray(x, dtype=float)
    inside = (x >= lo - 1e-12 * (1.0 + abs(lo))) & (x <= hi + 1e-12 * (1.0 + abs(hi)))
    if not inside.all():
        raise ValueError(f"{what}={float(x[~inside].flat[0])} outside [{lo}, {hi}]")
    # np.clip's wrapper costs as much as both comparisons
    return np.minimum(np.maximum(x, lo), hi)[()]


def _gauss(fn, a: np.ndarray, b: np.ndarray, log: bool):
    """Gauss-Legendre sums of fn over the intervals from a to b (either
    order; the sum is signed).  Returns the 20-point sums, the 10-point sums,
    the rounding floor of the 20-point sums and fn at the 20 nodes of each
    interval (in increasing order of the nodes on [-1, 1]).  Each has a
    leading row axis when fn returns k rows, shape (k, N) for N abscissae:
    (k, intervals) for the sums and floors and (k, intervals, 20) for the
    node values.

    In log mode fn returns the log of a nonnegative integrand (-inf allowed)
    and the sums are log|integral| of exp(fn); the floor is then relative.
    Intervals go to fn in chunks of at most _CHUNK points.
    """
    rows = max(1, _CHUNK // _NODES.size)
    parts = [_gauss_rows(fn, a[i : i + rows], b[i : i + rows], log) for i in range(0, max(len(a), 1), rows)]
    *sums, at_nodes = zip(*parts)
    return (*(np.concatenate(col, axis=-1) for col in sums), np.concatenate(at_nodes, axis=-2))


def _gauss_rows(fn, a, b, log):
    half = 0.5 * (b - a)
    x = 0.5 * (a + b)[:, None] + half[:, None] * _NODES
    v = np.atleast_1d(np.asarray(fn(x.ravel()), dtype=float))
    v = np.broadcast_to(v, v.shape[:-1] + (x.size,)).reshape(v.shape[:-1] + x.shape)
    bad = np.isnan(v) | (v == np.inf) if log else ~np.isfinite(v)
    if np.any(bad):
        where = x[np.argwhere(bad)[0][-2]]
        raise SolverError(f"integrand not finite inside [{where.min()}, {where.max()}]")
    n = len(_X)
    if not log:
        fine = half * (v[..., :n] @ _W)
        crude = half * (v[..., n:] @ _WC)
        return fine, crude, 64.0 * _EPS * np.abs(half) * (np.abs(v[..., :n]) @ _W), v[..., :n]
    top = v.max(axis=-1)
    top = np.where(np.isfinite(top), top, 0.0)
    e = np.exp(v - top[..., None])
    with np.errstate(divide="ignore"):
        shift = top + np.log(np.abs(half))
        fine = shift + np.log(e[..., :n] @ _W)
        crude = shift + np.log(e[..., n:] @ _WC)
    floor = 64.0 * _EPS * (1.0 + np.max(np.abs(np.where(np.isfinite(v), v, 0.0)), axis=-1))
    return fine, crude, floor, v[..., :n]


def _panels(fn, edges, rel_tol: float, log: bool, local: bool):
    """Refine the panels between consecutive increasing ``edges`` until each
    passes its error test; returns the leaves (lo, hi, integral, fn at the
    20 nodes) sorted by lo, the last two with a leading row axis when fn
    returns k rows.

    Each row is tested on its own: |20-point - 10-point| <= max(target,
    floor), where ``local`` targets rel_tol of the panel's own integral,
    and otherwise each panel gets its width's share of rel_tol*|row total|;
    in log mode the target is rel_tol on the log difference, and the floor
    is relative.  A panel is kept when every row passes it.

    A halving gains about 2^-20 on a smooth integrand.  A row that gained
    less than a factor 8 over the panel it was halved from, with an error
    below sqrt(eps) of its integral of |fn|, is rounding noise (a cancelling
    difference, say) that no refinement removes, and passes.  Panels that
    reach rounding width without passing are given up, and the error of
    each row that failed counts against that row's budget; QuadratureError
    is raised when any row's exceeds its budget, or when more than 16 times
    the initial panels (plus 1024) are pending at once, which only a noisy
    or pathological integrand reaches.
    """
    edges = np.asarray(edges, dtype=float)
    span = edges[-1] - edges[0]
    min_width = 16.0 * _EPS * max(abs(edges[0]), abs(edges[-1]), span)
    lo, hi = edges[:-1], edges[1:]
    max_pending = 16 * lo.size + 1024
    parent = np.inf  # error of the panel each one was halved from, per row
    done_lo, done_hi, done_v, done_nodes = [], [], [], []
    total = 0.0
    stuck = 0.0
    while lo.size:
        if lo.size > max_pending:
            raise QuadratureError(
                f"quadrature on [{edges[0]}, {edges[-1]}]: {lo.size} panels still fail their error test",
                best_estimate=total,
            )
        fine, crude, floor, at_nodes = _gauss(fn, lo, hi, log)
        with np.errstate(invalid="ignore"):
            err = np.nan_to_num(np.abs(fine - crude), nan=0.0)
        if log:
            target = rel_tol
            magnitude = 1.0
        else:
            magnitude = floor / (64.0 * _EPS)  # the panel's integral of |fn|
            if local:
                target = rel_tol * np.abs(fine)
            else:
                target = rel_tol * np.abs(total + fine.sum(axis=-1))[..., None] * ((hi - lo) / span)
        noise = (err > parent / 8.0) & (err <= _SQRT_EPS * magnitude)
        ok = (err <= np.maximum(target, floor)) | noise
        narrow = hi - lo <= min_width
        keep = ok.reshape(-1, lo.size).all(axis=0) | narrow
        stuck = stuck + np.where(narrow & ~ok, err, 0.0).sum(axis=-1)
        done_lo.append(lo[keep])
        done_hi.append(hi[keep])
        done_v.append(fine[..., keep])
        done_nodes.append(at_nodes[..., keep, :])
        if not log:
            total = total + fine[..., keep].sum(axis=-1)
        mid = 0.5 * (lo + hi)[~keep]
        lo, hi = np.concatenate([lo[~keep], mid]), np.concatenate([mid, hi[~keep]])
        parent = np.tile(err[..., ~keep], 2)
    lo, hi = np.concatenate(done_lo), np.concatenate(done_hi)
    v, at_nodes = np.concatenate(done_v, axis=-1), np.concatenate(done_nodes, axis=-2)
    order = np.argsort(lo)
    budget = rel_tol if log else rel_tol * np.abs(total)
    if np.any(stuck > budget):
        wanted, left = (", ".join(f"{x:.3e}" for x in np.ravel(per_row)) for per_row in (budget, stuck))
        raise QuadratureError(
            f"quadrature on [{edges[0]}, {edges[-1]}] did not reach tolerance {wanted}; "
            f"panels at rounding width leave error {left}",
            best_estimate=total,
        )
    return lo[order], hi[order], v[..., order], at_nodes[..., order, :]


def integrate(
    fn: Callable[[np.ndarray], np.ndarray], a: float, b: float, rel_tol: float = 1e-10, breaks=()
) -> float | np.ndarray:
    """Adaptive panel Gauss-Legendre quadrature of ``fn`` over [a, b].

    ``fn`` maps an array of N abscissae to N values, or to k rows of them,
    shape (k, N); the result is a float, or the array of the k row
    integrals.  Each row has its own error target, rel_tol times its
    |integral|, shared among the panels by width, and a panel is refined
    until every row passes it.  ``breaks`` are increasing points inside
    [a, b] where the initial panels end, so that one run covers every piece
    between them: placed at a kink or at the edge of a row's support, they
    keep the refinement from chasing it to rounding width.
    Raises SolverError on non-finite integrand values and QuadratureError
    (carrying the best estimate) when panels reach rounding width without
    meeting a row's target.
    """
    edges = np.array([a, *breaks, b], dtype=float)
    if np.any(np.diff(edges) < 0.0):
        raise ValueError(f"integration bounds out of order: {edges.tolist()}")
    if edges[0] == edges[-1]:
        zeros = np.zeros(np.shape(fn(edges[:1]))[:-1])
        return float(zeros) if zeros.ndim == 0 else zeros
    sums = _panels(fn, edges, rel_tol, log=False, local=False)[2].sum(axis=-1)
    return float(sums) if sums.ndim == 0 else sums


@functools.cache
def _mean_antiderivative() -> np.ndarray:
    """The 20x20 matrix from a panel's integrand at the 20 Gauss nodes to
    the Chebyshev coefficients of its mean antiderivative on [-1, 1],
    G(xi) = (integral of P from -1 to xi) / (1 + xi), P the degree-19
    interpolant of the node values.

    G(xi) is the mean of P(-1 + s (1 + xi)) over s in [0, 1], a 10-point
    Gauss sum (exact on degree 19), taken at the 20 Chebyshev points of the
    first kind, where the cosine transform to coefficients is exact.  P
    goes through the Lagrange basis in product form.  The matrix is built
    in extended precision where the platform has it: built in doubles, its
    entries are off by up to 2.5 eps, which tripled the median error of
    queries on a smooth panel (6.7e-16 against 2.2e-16).
    """
    real = np.longdouble
    nodes, coarse, weights = (np.asarray(a, dtype=real) for a in (_X, _XC, _WC))
    n = nodes.size
    theta = (np.arange(n, dtype=real) + real(0.5)) * (np.arccos(real(-1.0)) / n)
    y = real(-1.0) + real(0.5) * np.multiply.outer(real(1.0) + np.cos(theta), real(1.0) + coarse)
    gap = y[..., None] - nodes
    ones = np.ones(gap.shape[:-1] + (1,), dtype=real)
    # the product of (y - X_i) over i != j, as prefix times suffix products
    below = np.cumprod(np.concatenate([ones, gap[..., :-1]], axis=-1), axis=-1)
    above = np.cumprod(np.concatenate([ones, gap[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
    spread = nodes[:, None] - nodes
    np.fill_diagonal(spread, real(1.0))
    lagrange = below * above / spread.prod(axis=1)
    at_points = real(0.5) * np.einsum("m,imj->ij", weights, lagrange)
    transform = (real(2.0) / n) * np.cos(np.outer(np.arange(n, dtype=real), theta))
    transform[0] *= real(0.5)
    return (transform @ at_points).astype(float)


class CumulativeIntegral:
    """Cumulative integral ``x -> integral of fn from x0 to x`` over a table.

    ``edges`` are the initial panel edges of the table range (x0 is added
    if missing).  The panels are refined once, each to rel_tol of its own
    integral, and summed outward from the anchor x0.  The build is the only
    call of ``fn``: each panel keeps 20 floats, the Chebyshev coefficients
    of its mean antiderivative G, measured from its anchor-side edge, and
    a query is a polynomial evaluation.  A point at t half-widths from that
    edge adds half * t * G to the sum up to the edge, so partial integrals
    next to the anchor keep their relative accuracy.  Calls take scalars or
    arrays inside the table range, judged by :func:`within`.  Sums away
    from x0 only add panels of one sign for a one-signed integrand, so tiny
    tails keep their relative accuracy too.  The error test bounds
    whole-panel integrals, so between edges a query is as accurate as the
    panel's degree-19 interpolant, about rel_tol of the panel's integral on
    a panel that barely passed; a caller that needs rounding accuracy there
    gives narrow initial edges, as ``radial`` does for its tails.

    With ``log=True``, ``fn`` returns the log of a positive integrand and
    calls return log|integral from x0 to x| (``-inf`` at x0), summed by
    log-sum-exp, so integrands far below the smallest double stay usable;
    each panel's G is then scaled by its largest integrand value.

    ``edges`` and ``at_edges`` hold the refined panel edges (increasing) and
    the cumulative values there.  A non-finite integrand value raises
    SolverError, as in :func:`integrate`.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], x0: float, edges, rel_tol: float = 1e-10, log: bool = False):
        self.log = log
        e = np.union1d(np.asarray(edges, dtype=float), [float(x0)])
        if e.size < 2:
            raise ValueError("the table needs an interval")
        lo, hi, v, at_nodes = _panels(fn, e, rel_tol, log, local=True)
        self.edges = np.append(lo, hi[-1])
        # sums from the anchor outward: up from x0 on the right, down on the left
        right = lo >= x0
        a = int(np.argmax(right)) if right.any() else lo.size
        if log:
            up = np.logaddexp.accumulate(v[a:])
            down = np.logaddexp.accumulate(v[:a][::-1])[::-1]
            start = -np.inf
        else:
            up = np.cumsum(v[a:])
            down = -np.cumsum(v[:a][::-1])[::-1]
            start = 0.0
        self._before = np.concatenate([np.append(down[1:], start)[:a], np.insert(up[:-1], 0, start)[: lo.size - a]])
        self._near = np.where(right, lo, hi)  # anchor-side edge of each panel
        self._half = 0.5 * np.where(right, hi - lo, lo - hi)  # signed, away from the anchor
        self.at_edges = np.concatenate([down, [start], up])
        # the Gauss nodes are symmetric, so a left panel's nodes read from
        # its anchor-side edge are its row reversed
        at_nodes = np.where(right[:, None], at_nodes, at_nodes[:, ::-1])
        if log:
            top = at_nodes.max(axis=1)
            top = np.where(np.isfinite(top), top, 0.0)
            at_nodes = np.exp(at_nodes - top[:, None])
            self._shift = top + np.log(np.abs(self._half))
        self._coef = at_nodes @ _mean_antiderivative().T

    def __call__(self, x):
        xa = np.asarray(within(x, self.edges[0], self.edges[-1], "x"))
        flat = xa.ravel()
        rows = max(1, _CHUNK // _DEGREES.size)
        out = np.concatenate([self._values(flat[i : i + rows]) for i in range(0, max(flat.size, 1), rows)])
        return out.reshape(xa.shape)[()]

    def _values(self, x):
        """The table at x: G(xi) = sum of c_k cos(k theta) with xi = t - 1 =
        cos(theta), theta taken from t and 2 - t so it is accurate at both
        edges; elementwise, so a point's value does not depend on its batch."""
        k = np.minimum(np.maximum(np.searchsorted(self.edges, x, side="right") - 1, 0), self._half.size - 1)
        t = np.minimum(np.maximum((x - self._near[k]) / self._half[k], 0.0), 2.0)
        theta = 2.0 * np.arctan2(np.sqrt(2.0 - t), np.sqrt(t))
        mean = np.add.reduce(self._coef[k] * np.cos(theta[:, None] * _DEGREES), axis=1)
        if self.log:
            with np.errstate(divide="ignore"):
                return np.logaddexp(self._before[k], self._shift[k] + np.log(t * mean))
        return self._before[k] + self._half[k] * (t * mean)


def simpson_weights(x) -> np.ndarray:
    """Weights of the composite Simpson rule on the uniform grid x, so that
    ``np.sum(y * simpson_weights(x), axis=-1)`` integrates samples y of x:
    d/3 (1, 4, 2, 4, ..., 2, 4, 1) for step d and an even number N of
    intervals.  For odd N the rule runs over the first N-1 intervals and the
    end correction d/12 (-1, 8, 5) on the last three samples covers the last
    interval, as ``scipy.integrate.simpson`` does."""
    x = np.asarray(x, dtype=float)
    d = x[1] - x[0]
    last = (x.size - 1) // 2 * 2  # the end of the even part
    weights = np.zeros(x.size)
    weights[1:last:2] = 4.0 * d / 3.0
    weights[2:last:2] = 2.0 * d / 3.0
    weights[[0, last]] = d / 3.0
    if last < x.size - 1:
        weights[-3:] += d / 12.0 * np.array([-1.0, 8.0, 5.0])
    return weights


def find_root(fn: Callable, x, lo=-math.inf, hi=math.inf, tol=1e-13, job: str = "find_root"):
    """Roots of increasing functions by safeguarded Newton steps, elementwise.

    ``fn(x, k)`` returns (value, slope) at the points x of the entries k
    (indices into the flattened start ``x``), so an entry can read its own
    target.  The caller orients fn to increase on each entry's bracket
    [lo, hi]; lo, hi and ``tol`` are scalars or arrays of x's shape.  A
    Newton step that leaves the bracket bisects it instead, and every step
    moves the bracket's lower end to x where the value is negative, its
    upper end otherwise.  An entry stops on its own step s, so its root does
    not depend on the other entries: once s is at most its ``tol`` and the
    error left after it, bounded by s r/(1 - r) while the steps shrink by
    the ratio r = s/(previous step), is too.  Near a simple root r is of order s, so a tol well above the
    rounding noise of fn still returns the root to rounding; at a root of
    multiplicity m Newton steps shrink by r = (m - 1)/m only, and the second
    test keeps the root within tol.  An infinite bracket suits steps that cannot
    overshoot (fn concave below the root, or convex above it).  Entries
    still moving after _ROOT_STEPS steps raise SolverError naming ``job``,
    and so do a non-finite value of fn and a root that comes out
    non-finite; a non-finite slope only turns its step into a bisection.
    A scalar x returns a float.
    """
    x = np.array(x, dtype=float)
    out = x.reshape(-1)
    lo, hi, tol = (np.full(out.size, v) if np.ndim(v) == 0 else np.array(v, dtype=float).ravel() for v in (lo, hi, tol))
    if (lo > hi).any():
        raise ValueError(f"{job}: bracket out of order")
    live = np.arange(out.size)  # the entries still stepping
    last = np.full(out.size, math.inf)  # each entry's previous step
    for _ in range(_ROOT_STEPS):
        if not live.size:
            break
        at = out[live]
        value, slope = fn(at, live)
        if not np.isfinite(value).all():
            bad = np.flatnonzero(~np.isfinite(value))[0]
            raise SolverError(f"{job}: non-finite value {value[bad]} at x={at[bad]}")
        below = value < 0.0
        a = np.where(below, at, lo[live])
        b = np.where(below, hi[live], at)
        lo[live], hi[live] = a, b
        # a side of the second stop test that overflows to inf still compares
        # right against a finite one; both overflow only for tol above 1e154
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            nxt = at - value / slope
            nxt = np.where((nxt >= a) & (nxt <= b), nxt, 0.5 * (a + b))
            out[live] = nxt
            step = np.abs(nxt - at)
            # s r/(1 - r) <= tol with r = s/last is s (s + tol) <= tol last
            tol_live = tol[live]
            moving = (step > tol_live) | (step * (step + tol_live) > tol_live * last[live])
            last[live] = step
            live = live[moving]
    if live.size:
        raise SolverError(f"{job}: {live.size} entries still moving after {_ROOT_STEPS} steps")
    if not np.isfinite(out).all():
        raise SolverError(f"{job}: {np.count_nonzero(~np.isfinite(out))} entries stopped at a non-finite x")
    return float(x) if x.ndim == 0 else x


def sign_changes(fn: Callable, a: float, b: float, samples: int) -> list[float]:
    """Roots on (a, b] of ``fn``, which returns (value, slope) at an array of
    points: one per sign change between neighbours of ``samples`` equispaced
    samples, all refined in one :func:`find_root` call from their secant
    starts, each oriented by its left sample.  Sign changes the samples miss
    are lost."""
    rs = np.linspace(a, b, samples + 1)[1:]
    v = fn(rs)[0]
    k = np.flatnonzero((v[:-1] < 0.0) != (v[1:] < 0.0))
    sign = np.where(v[k] < 0.0, 1.0, -1.0)
    start = rs[k] - v[k] * (rs[k + 1] - rs[k]) / (v[k + 1] - v[k])

    def oriented(r, j):
        return tuple(sign[j] * part for part in fn(r))

    return find_root(oriented, start, rs[k], rs[k + 1], job="kink").tolist()


def _back_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with a lower banded Cholesky factor: two triangular solves, on
    a copy of rhs."""
    x = np.array(rhs, dtype=float, order="F")
    if not np.isfinite(x).all():
        raise ValueError("array must not contain infs or NaNs")
    if x.shape[:1] != factor.shape[1:]:
        raise ValueError(f"right side of shape {x.shape} for a factor of shape {factor.shape}")
    lapack = _lapack_cholesky()
    if lapack is None:
        from scipy.linalg import cho_solve_banded

        return cho_solve_banded((factor, True), x, overwrite_b=True, check_finite=False)
    factor = np.require(factor, float, "FA")
    n, kd = factor.shape[1], factor.shape[0] - 1
    info = lapack[1](_COL_MAJOR, b"L", n, kd, x[:1].size, factor.ctypes.data, kd + 1, x.ctypes.data, max(n, 1))
    if info < 0:
        raise ValueError(f"dpbtrs: illegal value in argument {-info}")
    return x


@dataclass
class SpdResult:
    """Outcome of a banded SPD solve: one Cholesky factorization, whose
    lower factor is kept for further right sides."""

    x: np.ndarray
    iterations: int
    factor: np.ndarray = field(repr=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A y = rhs with the kept factor, without factoring again.  A
        right side holding an inf or NaN raises ``ValueError``, as in
        :func:`solve_spd`."""
        return _back_solve(self.factor, rhs)


def solve_spd(band: np.ndarray, rhs: np.ndarray) -> SpdResult:
    """Solve A x = rhs for a symmetric positive definite band matrix A.

    This is the one place that factors: the result keeps the lower
    Cholesky factor, and its ``solve`` answers further right sides.
    ``band`` holds the lower band in LAPACK storage, ``band[i - j, j] =
    A[i, j]`` for ``0 <= i - j < band.shape[0]``.  A Fortran-ordered float
    array is factored in place, so its contents are lost; any other is
    copied first.  The right side is copied, never overwritten.  A matrix
    that is not positive definite raises ``SolverError``; a band or right
    side holding an inf or NaN raises ``ValueError``.  Each input is
    scanned for them once: the factor, LAPACK's own output, is not scanned
    again.

    LAPACK's dpbtrf and dpbtrs factor and solve, from the OpenBLAS library
    that NumPy ships in its wheel, so that no second BLAS is loaded.  Where
    NumPy bundles no such library (a build on Accelerate, MKL or a system
    BLAS), SciPy's ``cholesky_banded`` and ``cho_solve_banded`` run the
    same two routines from SciPy's LAPACK.
    """
    ab = np.require(band, float, "FAW")
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    lapack = _lapack_cholesky()
    if lapack is None:
        from scipy.linalg import cholesky_banded

        try:
            ab = cholesky_banded(ab, lower=True, overwrite_ab=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"banded Cholesky: {exc}") from exc
    else:
        info = lapack[0](_COL_MAJOR, b"L", ab.shape[1], ab.shape[0] - 1, ab.ctypes.data, ab.shape[0])
        if info > 0:
            raise SolverError(f"banded Cholesky: {info}-th leading minor not positive definite")
        if info < 0:
            raise ValueError(f"dpbtrf: illegal value in argument {-info}")
    return SpdResult(_back_solve(ab, rhs), iterations=1, factor=ab)


_COL_MAJOR = 102  # LAPACKE's layout code for Fortran order
_INT, _LAPACK_INT, _PTR = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p
# entry points of an OpenBLAS library by use, each a pair of (name, result
# type, argument types) in the spellings tried in order: the copy in NumPy's
# wheel, whose names carry a scipy_ prefix and a 64 suffix for its 64-bit
# integers, then, for the thread counts only, a plain build, whose LAPACK
# integers may be 32 bits wide.  LAPACKE's _work entry points take the
# arrays as given; its plain ones scan them for NaN once more.
_OPENBLAS_SYMBOLS = {
    "threads": (
        (("scipy_openblas_get_num_threads64_", _INT, []), ("scipy_openblas_set_num_threads64_", None, [_INT])),
        (("openblas_get_num_threads", _INT, []), ("openblas_set_num_threads", None, [_INT])),
    ),
    # dpbtrf(layout, uplo, n, kd, ab, ldab), dpbtrs(layout, uplo, n, kd, nrhs, ab, ldab, b, ldb)
    "cholesky": (
        (
            ("scipy_LAPACKE_dpbtrf_work64_", _LAPACK_INT, [_INT, ctypes.c_char, *[_LAPACK_INT] * 2, _PTR, _LAPACK_INT]),
            ("scipy_LAPACKE_dpbtrs_work64_", _LAPACK_INT, [_INT, ctypes.c_char, *[_LAPACK_INT] * 3, *[_PTR, _LAPACK_INT] * 2]),
        ),
    ),
}


@functools.cache
def _openblas_libraries() -> tuple:
    """The OpenBLAS libraries that NumPy ships in its wheel, opened; empty
    for other BLAS builds."""
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    return tuple(ctypes.CDLL(path) for path in glob.glob(os.path.join(libs, "*openblas*")))


@functools.cache
def _openblas(use: str) -> tuple:
    """Per library of :func:`_openblas_libraries`, the pair of entry points
    for ``use`` (a key of _OPENBLAS_SYMBOLS) in the first spelling that the
    library exports, typed; a library that exports none is skipped."""
    found = []
    for lib in _openblas_libraries():
        for spelling in _OPENBLAS_SYMBOLS[use]:
            pair = [getattr(lib, name, None) for name, _, _ in spelling]
            if None not in pair:
                for fn, (_, restype, argtypes) in zip(pair, spelling):
                    fn.restype, fn.argtypes = restype, argtypes
                found.append(tuple(pair))
                break
    return tuple(found)


def _lapack_cholesky():
    """(dpbtrf, dpbtrs) of NumPy's OpenBLAS, or None where NumPy bundles no
    OpenBLAS that exports them."""
    pairs = _openblas("cholesky")
    return pairs[0] if pairs else None


@contextlib.contextmanager
def single_threaded_blas():
    """Run the block with NumPy's OpenBLAS library on one thread, and give
    it its previous thread count back on exit.

    The vector and matrix products of the 2-D solve (the ``_Mesh``
    matmuls) are too small to split: a second thread makes them no faster,
    and idle threads spin on a core while they run.  The banded Cholesky
    of :func:`solve_spd` runs in the same library, so the cap holds for it
    too.  The thread count is process-wide, so NumPy BLAS calls on other
    threads are capped too while the block runs.  A no-op where no OpenBLAS
    library is found.
    """
    controls = _openblas("threads")
    saved = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, saved):
            set_threads(count)


def natural_cubic_spline(x, y):
    """Natural cubic spline (vanishing second derivative), a SciPy ``CubicSpline``."""
    from scipy.interpolate import CubicSpline

    return CubicSpline(np.asarray(x, dtype=float), np.asarray(y, dtype=float), bc_type="natural")
