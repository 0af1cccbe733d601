"""Level-set functionals along radial potentials and 2-D fields.

For a potential w with level radii r_t this module evaluates, with
lam = alpha/(n-p) - 1 and G = |grad w|:

    F_p(t) = e^{lam t} int_{w=t} G^{a+p-2} [ G ((n-1)/(n-p) - 1/a) - H ]
             - int_0^t e^{lam s} int_{w=s} G^{a+p-3} Ric(nu,nu) ds
    G_p(t) = e^{lam t} int_{w=t} G^{a+p-1}
    Q_p    = (a-(2-p)) |grad^T G|^2/G^2 + |h-ring|^2
             + (a - (n-p)/(n-1)) (H - (n-1)/(n-p) G)^2 / (p-1)

together with the p = 1 analogue F_1, the Hawking mass, the normalized
Minkowski functional and the Geroch right-hand side.  The derivative
identity d F_p/dt = e^{lam t} int G^{a+p-3} Q_p is reported as a residual
column (central differences against the Q_p integral).

A level is a ``RadialLevel`` (round, from ``radial_level``) or a
``solver2d.LevelCurve`` (extracted from a 2-D field).  Both expose
``integrate`` and the same per-point data, so each functional has one body
for radial potentials and 2-D fields alike.  On radial potentials every
series is evaluated on the whole level grid at once: ``radial_level`` and
the functionals take arrays of levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import geometry, radial
from .numerics import CumulativeIntegral, Tolerance

__all__ = [
    "FunctionalParams",
    "MonotoneSeries",
    "RadialLevel",
    "radial_level",
    "F_p",
    "G_p",
    "Q_p_integral",
    "F_1",
    "hawking_mass",
    "hawking_series",
    "minkowski_M",
    "geroch_rhs",
    "q_p_pointwise",
    "q_1_pointwise",
]

BULK_TOL = Tolerance(abs_tol=1e-11, rel_tol=1e-11, max_iter=200)


@dataclass(frozen=True)
class FunctionalParams:
    """Exponent bundle (n, p, alpha) and the level grid for a series."""

    n: int
    p: float
    alpha: float
    t_grid: tuple[float, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("dimension must be at least 3")
        if not (1.0 <= self.p <= 2.0):
            raise ValueError(f"p={self.p} outside [1, 2]")
        if self.p >= self.n:
            raise ValueError("need p < n")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        ts = np.asarray(self.t_grid, dtype=float)
        if ts.size < 2 or np.any(np.diff(ts) <= 0.0) or ts[0] < 0.0:
            raise ValueError("t_grid must be strictly increasing and nonnegative")
        object.__setattr__(self, "t_grid", tuple(float(t) for t in ts))

    @property
    def monotone_threshold(self) -> float:
        return (self.n - self.p) / (self.n - 1.0)

    @property
    def termwise_threshold(self) -> float:
        return max(2.0 - self.p, self.monotone_threshold)

    @property
    def monotonicity_guaranteed(self) -> bool:
        if self.p == 1.0:
            return self.alpha >= 1.0
        return self.alpha > self.monotone_threshold

    @property
    def termwise_nonnegative(self) -> bool:
        return self.alpha >= self.termwise_threshold - 1e-12


@dataclass
class MonotoneSeries:
    """A functional sampled on a level grid, with identity diagnostics.

    ``bulk`` is the accumulated Ricci integral subtracted from the boundary
    term; ``rhs_qp`` the derivative-identity right side; ``residual`` the
    central-difference defect |dF/dt - rhs| (nan where not computed).
    """

    name: str
    t: np.ndarray
    values: np.ndarray
    bulk: np.ndarray
    rhs_qp: Optional[np.ndarray] = None
    residual: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        m = len(self.t)
        if len(self.values) != m or len(self.bulk) != m:
            raise ValueError("series columns must share the grid length")

    def table(self):
        """(header, rows) with columns t, value, bulk_term, rhs_Qp, residual."""
        missing = np.full(len(self.t), np.nan)
        rhs = self.rhs_qp if self.rhs_qp is not None else missing
        res = self.residual if self.residual is not None else missing
        header = ["t", "value", "bulk_term", "rhs_Qp", "residual"]
        return header, list(zip(self.t, self.values, self.bulk, rhs, res))


@dataclass(frozen=True)
class RadialLevel:
    """Geometric data of the round level sets of a radial potential: floats
    for one level, arrays (one entry per level) for an array of levels.

    It shares the level interface of ``solver2d.LevelCurve``: ``integrate``
    and the per-point fields below, so every functional has one body."""

    t: float
    r: float
    n: int
    area: float
    grad: float
    H: float
    ricci: float
    scalar: float
    scalar_induced: float

    # round levels are umbilic and |grad w| is constant on them
    grad_tangential = 0.0
    H_tangential = 0.0
    hring_sq = 0.0

    def integrate(self, values):
        """Surface integral over the level of a quantity constant on it."""
        return self.area * values

    @property
    def willmore(self) -> float:
        return self.area * self.H * self.H

    @property
    def chi_proxy(self) -> float:
        """(1/4 pi) int Sc^T over the level (2 for sphere topology)."""
        return self.area * self.scalar_induced / (4.0 * math.pi)


def radial_level(pot: radial.RadialPotential, t) -> RadialLevel:
    model = pot.manifold
    r = pot.level_radius(t)
    area, scal_ind = geometry.cross_section(model, r)
    return RadialLevel(
        t=np.asarray(t, dtype=float)[()],
        r=r,
        n=model.n,
        area=area,
        grad=pot.grad_norm(r),
        H=geometry.mean_curvature_sphere(model, r),
        ricci=geometry.ricci_radial(model, r),
        scalar=geometry.scalar_curvature(model, r),
        scalar_induced=scal_ind,
    )


def q_p_pointwise(
    n: int,
    p: float,
    alpha: float,
    grad: float,
    H: float,
    tangential_sq: float = 0.0,
    hring_sq: float = 0.0,
) -> float:
    """The nonnegative-combination integrand for p > 1.

    ``tangential_sq`` is |grad^T |grad w||^2 / |grad w|^2 at the point.
    """
    third = (alpha - (n - p) / (n - 1.0)) / (p - 1.0) * (H - (n - 1.0) / (n - p) * grad) ** 2
    return (alpha - (2.0 - p)) * tangential_sq + hring_sq + third


def q_1_pointwise(alpha: float, H: float, tangential_H_sq: float = 0.0, hring_sq: float = 0.0) -> float:
    """p = 1 analogue: (alpha-1)|grad^T H|^2/H^2 + |h-ring|^2."""
    return (alpha - 1.0) * tangential_H_sq / (H * H) + hring_sq


def _require_kind(pot: radial.RadialPotential, kinds: tuple[str, ...], what: str) -> None:
    if pot.kind not in kinds:
        raise ValueError(f"{what} requires a solution of kind {kinds}, got '{pot.kind}'")


def _validate(solution, params: FunctionalParams, what: str) -> str:
    """Reject a solution ``what`` cannot use; return its model label."""
    if isinstance(solution, radial.RadialPotential):
        _require_kind(solution, (radial.KIND_P, radial.KIND_EPS), what)
        return solution.manifold.label
    if params.n != 3:
        raise ValueError("2-D fields are three dimensional")
    return solution.domain.label


def _over_levels(solution, t, fn):
    """fn(level) for each level {w = t}: the radial levels all at once, the
    2-D levels one extracted curve at a time."""
    if isinstance(solution, radial.RadialPotential):
        return fn(radial_level(solution, t))
    ts = np.asarray(t, dtype=float)
    return np.array([fn(solution.level(s)) for s in ts.ravel()]).reshape(ts.shape)[()]


def _boundary(level, params: FunctionalParams):
    """e^{lam t} times the boundary term of F_p on a level:
    e^{lam t} int G^{a+p-2} (G ((n-1)/(n-p) - 1/a) - H)."""
    n, p, alpha = params.n, params.p, params.alpha
    G = level.grad
    density = G ** (alpha + p - 2.0) * (G * ((n - 1.0) / (n - p) - 1.0 / alpha) - level.H)
    return np.exp((alpha / (n - p) - 1.0) * level.t) * level.integrate(density)


def _ricci_bulk(solution, params: FunctionalParams):
    """t -> int_0^t e^{lam s} int_{w=s} G^{a+p-3} Ric(nu,nu) ds, as the
    radial integral of e^{lam w} |S^{n-1}| h^{n-1} G^{a+p-2} f Ric from r0
    to the level radius (one cumulative table; p = 1 gives the F_1 bulk).
    The 2-D solver's ambient space is flat, so there the term is zero."""
    if not isinstance(solution, radial.RadialPotential):
        return lambda t: np.zeros_like(np.asarray(t, dtype=float))
    pot = solution
    model = pot.manifold
    n, p, alpha = params.n, params.p, params.alpha
    if model.n != n:
        raise ValueError(f"params.n={n} does not match the model dimension {model.n}")
    lam = alpha / (n - p) - 1.0
    sphere = geometry.unit_sphere_area(n)

    def integrand(r):
        return (
            np.exp(lam * pot.w(r))
            * sphere
            * model.h(r) ** (n - 1.0)
            * pot.grad_norm(r) ** (alpha + p - 2.0)
            * model.f(r)
            * geometry.ricci_radial(model, r)
        )

    cum = CumulativeIntegral(integrand, pot.r0, (pot.r0, pot.R), BULK_TOL)
    return lambda t: cum(pot.level_radius(t))


def Q_p_integral(solution, params: FunctionalParams, t):
    """int_{w=t} |grad w|^{alpha+p-3} Q_p  (no exponential prefactor);
    the levels may come as an array."""
    n, p, alpha = params.n, params.p, params.alpha
    _validate(solution, params, "Q_p_integral")

    def integral(lev):
        tang_sq = (lev.grad_tangential / lev.grad) ** 2
        qp = q_p_pointwise(n, p, alpha, lev.grad, lev.H, tang_sq, lev.hring_sq)
        return lev.integrate(lev.grad ** (alpha + p - 3.0) * qp)

    return _over_levels(solution, t, integral)


def _finish_series(name, ts, values, bulk, rhs, fval, step, meta) -> MonotoneSeries:
    """Assemble a series and fill the central-difference residual column
    (``fval`` takes an array of levels); meta["derivative_step"] is the
    smallest difference step used."""
    residual = np.full(len(ts), np.nan)
    if len(ts) > 2:
        gaps = np.diff(ts)
        d = np.minimum(step, 0.45 * np.minimum(gaps[:-1], gaps[1:]))
        inner = ts[1:-1]
        deriv = (fval(inner + d) - fval(inner - d)) / (2.0 * d)
        residual[1:-1] = np.abs(deriv - rhs[1:-1])
        meta["derivative_step"] = float(np.min(d))
    return MonotoneSeries(
        name=name,
        t=np.asarray(ts, dtype=float),
        values=np.asarray(values, dtype=float),
        bulk=np.asarray(bulk, dtype=float),
        rhs_qp=np.asarray(rhs, dtype=float),
        residual=residual,
        meta=meta,
    )


def F_p(solution, params: FunctionalParams, derivative_step: float = 1e-3) -> MonotoneSeries:
    """The level-set functional F_p on the grid, with identity diagnostics."""
    ts = np.asarray(params.t_grid, dtype=float)
    meta = {
        "p": params.p,
        "alpha": params.alpha,
        "monotonicity_guaranteed": params.monotonicity_guaranteed,
        "termwise_nonnegative": params.termwise_nonnegative,
        "model": _validate(solution, params, "F_p"),
    }
    lam = params.alpha / (params.n - params.p) - 1.0

    def boundary(t):
        return _over_levels(solution, t, lambda lev: _boundary(lev, params))

    bulk = _ricci_bulk(solution, params)
    bulks = bulk(ts)
    values = boundary(ts) - bulks
    rhs = np.exp(lam * ts) * Q_p_integral(solution, params, ts)
    return _finish_series("F_p", ts, values, bulks, rhs, lambda t: boundary(t) - bulk(t), derivative_step, meta)


def G_p(solution, params: FunctionalParams, derivative_step: float = 1e-3) -> MonotoneSeries:
    """Gradient-power functional G_p; residual column checks
    (p-1) dG_p/dt = G_p + alpha * (boundary term of F_p)."""
    ts = np.asarray(params.t_grid, dtype=float)
    n, p, alpha = params.n, params.p, params.alpha
    lam = alpha / (n - p) - 1.0
    meta = {"p": p, "alpha": alpha, "model": _validate(solution, params, "G_p")}

    def gval(t):
        return _over_levels(
            solution, t, lambda lev: np.exp(lam * lev.t) * lev.integrate(lev.grad ** (alpha + p - 1.0))
        )

    values = gval(ts)
    rhs = (values + alpha * _over_levels(solution, ts, lambda lev: _boundary(lev, params))) / (p - 1.0)
    return _finish_series("G_p", ts, values, np.zeros_like(values), rhs, gval, derivative_step, meta)


def F_1(pot: radial.RadialPotential, params: FunctionalParams, derivative_step: float = 1e-3) -> MonotoneSeries:
    """The p = 1 level-set functional along the inverse-mean-curvature flow.

    Computed from |grad w1| and, independently, from the sphere mean
    curvature (the two agree identically for exact flows); the H-form is
    kept in ``meta['h_form_values']``.
    """
    _require_kind(pot, (radial.KIND_IMCF,), "F_1")
    if params.p != 1.0:
        raise ValueError("F_1 requires p = 1 in params")
    if params.alpha < 1.0:
        raise ValueError("F_1 requires alpha >= 1")
    n, alpha = params.n, params.alpha
    model = pot.manifold
    ts = np.asarray(params.t_grid, dtype=float)
    lam = alpha / (n - 1.0) - 1.0
    bulk = _ricci_bulk(pot, params)

    def boundary(t, use_H: bool = False):
        lev = radial_level(pot, t)
        g = lev.H if use_H else lev.grad
        return -(1.0 / alpha) * np.exp(lam * t) * lev.area * g**alpha

    bulks = bulk(ts)
    values = boundary(ts) - bulks
    h_form = boundary(ts, use_H=True) - bulks
    rhs = np.zeros_like(values)  # round levels: grad^T H = 0 and h-ring = 0
    meta = {
        "alpha": alpha,
        "model": model.label,
        "monotonicity_guaranteed": alpha >= 1.0,
        "h_form_values": h_form,
    }
    return _finish_series("F_1", ts, values, bulks, rhs, lambda t: boundary(t) - bulk(t), derivative_step, meta)


def hawking_mass(area, willmore):
    """sqrt(area/16 pi) (1 - willmore/16 pi), willmore = int H^2 (elementwise)."""
    if np.any(np.asarray(area) <= 0.0):
        raise ValueError("area must be positive")
    return np.sqrt(area / (16.0 * math.pi)) * (1.0 - willmore / (16.0 * math.pi))


def hawking_series(pot: radial.RadialPotential, t_grid, derivative_step: float = 1e-3) -> MonotoneSeries:
    """Hawking mass along the flow; rhs column is the Geroch right side."""
    _require_kind(pot, (radial.KIND_IMCF,), "hawking_series")
    if pot.manifold.n != 3:
        raise ValueError("the Hawking mass is defined for n = 3")
    ts = np.asarray(t_grid, dtype=float)

    def mval(t):
        lev = radial_level(pot, t)
        return hawking_mass(lev.area, lev.willmore)

    values = mval(ts)
    rhs = geroch_rhs(radial_level(pot, ts))
    return _finish_series(
        "hawking_mass",
        ts,
        values,
        np.zeros_like(values),
        rhs,
        mval,
        derivative_step,
        {"model": pot.manifold.label},
    )


def minkowski_M(level, alpha: float, area_hull: Optional[float] = None) -> float:
    """Normalized Minkowski functional
    |area_hull|^{alpha/(n-1)-1} int |H/(n-1)|^alpha."""
    n = level.n
    if area_hull is None:
        area_hull = level.area
    return area_hull ** (alpha / (n - 1.0) - 1.0) * level.integrate(np.abs(level.H / (n - 1.0)) ** alpha)


def geroch_rhs(level) -> float:
    """sqrt(area/(16 pi)^3) (4 pi (2 - chi) + int 2|grad^T H|^2/H^2 + |h-ring|^2 + Sc)."""
    if level.n != 3:
        raise ValueError("the Geroch right side is defined for n = 3")
    if np.any(level.H <= 0.0):
        raise ValueError("mean curvature must be positive on the level")
    integral = level.integrate(2.0 * level.H_tangential**2 / level.H**2 + level.hring_sq + level.scalar)
    return np.sqrt(level.area / (16.0 * math.pi) ** 3) * (4.0 * math.pi * (2.0 - level.chi_proxy) + integral)
