"""Level-set functionals along radial potentials and 2-D fields.

For a potential w with level radii r_t this module evaluates, with
lam = alpha/(n-p) - 1 and G = |grad w|:

    F_p(t) = e^{lam t} int_{w=t} G^{a+p-2} [ G ((n-1)/(n-p) - 1/a) - H ]
             - int_0^t e^{lam s} int_{w=s} G^{a+p-3} Ric(nu,nu) ds
    G_p(t) = e^{lam t} int_{w=t} G^{a+p-1}
    Q_p    = (a-(2-p)) |grad^T G|^2/G^2 + |h-ring|^2
             + (a - (n-p)/(n-1)) (H - (n-1)/(n-p) G)^2 / (p-1)

together with the Hawking mass, the normalized Minkowski functional and
the Geroch right-hand side.  The derivative identity
d F_p/dt = e^{lam t} int G^{a+p-3} Q_p is reported as a residual column
(central differences against the Q_p integral).

p = 1 is a case of F_p, not a separate functional: on the flow potential of
``radial.solve_w1`` (whose p is 1) F_p is the functional F_1 of the inverse
mean curvature flow, and Q_p drops its last term, which vanishes there since
H = |grad w|.  ``F_1`` is another name for ``F_p``.  A solution is accepted
iff its dimension is ``params.n`` (3 for a 2-D field) and its p is
``params.p``.

A level is a ``geometry.Level`` (round from ``radial_level``, or extracted
from a 2-D field; one level or many), so each functional has one body.  A
series builds the levels of its grid once and the levels of its
central-difference stencil once, and evaluates its value, right side and
bulk term on them: each build is one ``radial_level`` or one
``field.level`` call on an array of levels.  A radial potential
keeps its builds, so a later series or ``levels`` call reuses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry, radial
from .numerics import ConfigError, CumulativeIntegral

__all__ = [
    "FunctionalParams",
    "MonotoneSeries",
    "radial_level",
    "levels",
    "F_p",
    "G_p",
    "Q_p_integral",
    "F_1",
    "hawking_mass",
    "hawking_series",
    "minkowski_M",
    "geroch_rhs",
    "q_p_pointwise",
]


@dataclass(frozen=True)
class FunctionalParams:
    """Exponent bundle (n, p, alpha) and the level grid for a series."""

    n: int
    p: float
    alpha: float
    t_grid: tuple[float, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ConfigError(f"dimension {self.n} must be at least 3", "n")
        if not (1.0 <= self.p <= 2.0):
            raise ConfigError(f"p={self.p} outside [1, 2]", "p")
        if not (self.alpha >= 1.0 if self.p == 1.0 else self.alpha > 0.0) or math.isinf(self.alpha):
            bound = "at least 1 at p = 1" if self.p == 1.0 else "positive"
            raise ConfigError(f"alpha={self.alpha} must be finite and {bound}", "alpha")
        ts = np.asarray(self.t_grid, dtype=float)
        if ts.size < 2 or not np.isfinite(ts).all() or np.any(np.diff(ts) <= 0.0) or ts[0] < 0.0:
            raise ConfigError("t_grid must be finite, strictly increasing and nonnegative", "t_grid")
        object.__setattr__(self, "t_grid", tuple(float(t) for t in ts))

    @property
    def monotone_threshold(self) -> float:
        return (self.n - self.p) / (self.n - 1.0)

    @property
    def termwise_threshold(self) -> float:
        return max(2.0 - self.p, self.monotone_threshold)

    @property
    def monotonicity_guaranteed(self) -> bool:
        # at p = 1 the threshold is 1 and alpha >= 1 is enforced above
        return self.p == 1.0 or self.alpha > self.monotone_threshold


@dataclass
class MonotoneSeries:
    """A functional sampled on a level grid, with identity diagnostics.

    ``bulk`` is the accumulated Ricci integral subtracted from the boundary
    term; ``rhs_qp`` the derivative-identity right side; ``residual`` the
    central-difference defect |dF/dt - rhs| (nan at the end levels).
    """

    name: str
    t: np.ndarray
    values: np.ndarray
    bulk: np.ndarray
    rhs_qp: np.ndarray
    residual: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        m = len(self.t)
        if any(len(col) != m for col in (self.values, self.bulk, self.rhs_qp, self.residual)):
            raise ValueError("series columns must share the grid length")

    def table(self):
        """(header, rows), rows a float array with columns t, value,
        bulk_term, rhs_Qp, residual."""
        header = ["t", "value", "bulk_term", "rhs_Qp", "residual"]
        return header, np.column_stack([self.t, self.values, self.bulk, self.rhs_qp, self.residual])


def radial_level(pot: radial.RadialPotential, t) -> geometry.Level:
    """The round levels {w = t}: one sample each, weighted by the area of
    its sphere."""
    model = pot.manifold
    r = np.asarray(pot.level_radius(t))[..., None]
    area, scal_ind = geometry.cross_section(model, r)
    return geometry.Level(
        t=np.asarray(t, dtype=float)[()],
        n=model.n,
        r=r,
        weights=area,
        grad=pot.grad_norm(r),
        H=geometry.mean_curvature_sphere(model, r),
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
    """The nonnegative-combination integrand.

    ``tangential_sq`` is |grad^T |grad w||^2 / |grad w|^2 at the point.  At
    p = 1 the last term, (H - (n-1)/(n-p) |grad w|)^2 / (p-1), is dropped:
    the flow has H = |grad w|, and what is left is the F_1 integrand.
    """
    q = (alpha - (2.0 - p)) * tangential_sq + hring_sq
    if p == 1.0:
        return q
    return q + (alpha - (n - p) / (n - 1.0)) / (p - 1.0) * (H - (n - 1.0) / (n - p) * grad) ** 2


def _validate(solution, params: FunctionalParams, what: str) -> None:
    """Reject a solution whose dimension is not ``params.n`` (a 2-D field is
    three dimensional) or whose p is not ``params.p`` (the flow potential of
    ``radial.solve_w1`` has p = 1)."""
    if isinstance(solution, radial.RadialPotential):
        kind, n = solution.kind, solution.manifold.n
    else:
        kind, n = "2-D field", 3
    if n != params.n:
        raise ValueError(f"{what} at n = {params.n} got a solution of kind '{kind}' in dimension {n}")
    if solution.p != params.p:
        raise ValueError(f"{what} at p = {params.p} got a solution of kind '{kind}' with p = {solution.p}")


def levels(solution, t):
    """The levels {w = t} of a radial potential or a 2-D field; a radial
    potential keeps each ``radial_level`` build for later calls on the same t."""
    if not isinstance(solution, radial.RadialPotential):
        return solution.level(t)
    t = np.asarray(t, dtype=float)
    key = (t.shape, t.tobytes())
    lev = solution._levels.get(key)
    if lev is None:
        lev = solution._levels[key] = radial_level(solution, t)
    return lev


def _boundary(level, params: FunctionalParams):
    """e^{lam t} times the boundary term of F_p on a level:
    e^{lam t} int G^{a+p-2} (G ((n-1)/(n-p) - 1/a) - H)."""
    n, p, alpha = params.n, params.p, params.alpha
    G = level.grad
    density = G ** (alpha + p - 2.0) * (G * ((n - 1.0) / (n - p) - 1.0 / alpha) - level.H)
    return np.exp((alpha / (n - p) - 1.0) * level.t) * level.integrate(density)


def _no_bulk(level):
    return np.zeros_like(level.t)


def _ricci_bulk(solution, params: FunctionalParams):
    """level -> int_0^t e^{lam s} int_{w=s} G^{a+p-3} Ric(nu,nu) ds, as the
    radial integral of e^{lam w} |S^{n-1}| h^{n-1} G^{a+p-2} f Ric from r0
    to the level radius (one cumulative table).
    A p-potential's table starts on the refined panel edges of its tail
    (its seed radii), on which the potential is already resolved: most
    panels pass in the first round, and a query between edges is as
    accurate as a quadrature to its radius.  The flow potential's seed is
    256 uniform radii, and its table starts on the one panel [r0, R].
    The integrand evaluates Ric first and the potential (w and G from one
    tail evaluation) only where Ric is nonzero; elsewhere it is Ric itself,
    the signed zero the full product would give.  On flat space and cones
    Ric is zero everywhere and no potential is evaluated at all.
    The 2-D solver's ambient space is flat, so there the term is zero."""
    if not isinstance(solution, radial.RadialPotential):
        return _no_bulk
    pot = solution
    model = pot.manifold
    n, p, alpha = params.n, params.p, params.alpha
    lam = alpha / (n - p) - 1.0
    sphere = geometry.unit_sphere_area(n)

    def integrand(r):
        ric = geometry.ricci_radial(model, r)
        live = ric != 0.0
        if np.any(live):
            s = r[live]
            w, grad = pot._w_grad(pot._check(s))
            ric[live] = (
                np.exp(lam * w) * sphere * model.h(s) ** (n - 1.0) * grad ** (alpha + p - 2.0) * model.f(s) * ric[live]
            )
        return ric

    edges = (pot.r0, pot.R) if pot.kind == radial.KIND_IMCF else pot._seed[0]
    cum = CumulativeIntegral(integrand, pot.r0, edges, 1e-11)
    return lambda lev: cum(lev.r[..., 0])


def _qp_integral(level, params: FunctionalParams):
    """int_{w=t} |grad w|^{alpha+p-3} Q_p on a level."""
    tang_sq = (level.grad_tangential / level.grad) ** 2
    qp = q_p_pointwise(params.n, params.p, params.alpha, level.grad, level.H, tang_sq, level.hring_sq)
    return level.integrate(level.grad ** (params.alpha + params.p - 3.0) * qp)


def Q_p_integral(solution, params: FunctionalParams, t):
    """int_{w=t} |grad w|^{alpha+p-3} Q_p  (no exponential prefactor);
    the levels may come as an array."""
    _validate(solution, params, "Q_p_integral")
    return _qp_integral(levels(solution, t), params)


def _series(name, solution, t_grid, value, rhs, step, meta, bulk=_no_bulk) -> MonotoneSeries:
    """The series value(lev) - bulk(lev) with the columns bulk(lev) and
    rhs(lev) on the levels of ``t_grid``, and the central-difference residual
    |d(value - bulk)/dt - rhs| on the stencil t +- d at the inner levels.

    The grid's levels are built once and the stencil's once; d is ``step``,
    cut to 0.45 of the smaller neighbouring gap, and meta["derivative_step"]
    is the smallest d used."""
    ts = np.asarray(t_grid, dtype=float)
    lev = levels(solution, ts)
    vals, bulks, rhs_col = value(lev), bulk(lev), rhs(lev)
    residual = np.full(len(ts), np.nan)
    if len(ts) > 2:
        gaps = np.diff(ts)
        d = np.minimum(step, 0.45 * np.minimum(gaps[:-1], gaps[1:]))
        inner = ts[1:-1]
        stencil = levels(solution, np.concatenate([inner + d, inner - d]))
        above, below = np.split(value(stencil) - bulk(stencil), 2)
        residual[1:-1] = np.abs((above - below) / (2.0 * d) - rhs_col[1:-1])
        meta["derivative_step"] = float(np.min(d))
    return MonotoneSeries(name, ts, vals - bulks, bulks, rhs_col, residual, meta)


def F_p(solution, params: FunctionalParams, derivative_step: float = 1e-3) -> MonotoneSeries:
    """The level-set functional F_p on the grid, with identity diagnostics."""
    _validate(solution, params, "F_p")
    lam = params.alpha / (params.n - params.p) - 1.0

    def rhs(lev):
        return np.exp(lam * lev.t) * _qp_integral(lev, params)

    def boundary(lev):
        return _boundary(lev, params)

    name = "F_1" if params.p == 1.0 else "F_p"
    bulk = _ricci_bulk(solution, params)
    return _series(name, solution, params.t_grid, boundary, rhs, derivative_step, {"p": params.p}, bulk)


def G_p(solution, params: FunctionalParams, derivative_step: float = 1e-3) -> MonotoneSeries:
    """Gradient-power functional G_p; residual column checks
    (p-1) dG_p/dt = G_p + alpha * (boundary term of F_p)."""
    n, p, alpha = params.n, params.p, params.alpha
    if p == 1.0:
        raise ValueError("G_p requires p > 1")
    _validate(solution, params, "G_p")
    lam = alpha / (n - p) - 1.0

    def gval(lev):
        return np.exp(lam * lev.t) * lev.integrate(lev.grad ** (alpha + p - 1.0))

    def rhs(lev):
        return (gval(lev) + alpha * _boundary(lev, params)) / (p - 1.0)

    return _series("G_p", solution, params.t_grid, gval, rhs, derivative_step, {"p": p})


# the flow functional F_1 is F_p at p = 1; the name stays for its callers
F_1 = F_p


def hawking_mass(area, willmore):
    """sqrt(area/16 pi) (1 - willmore/16 pi), willmore = int H^2 (elementwise)."""
    if np.any(np.asarray(area) <= 0.0):
        raise ValueError("area must be positive")
    return np.sqrt(area / (16.0 * math.pi)) * (1.0 - willmore / (16.0 * math.pi))


def hawking_series(pot: radial.RadialPotential, t_grid, derivative_step: float = 1e-3) -> MonotoneSeries:
    """Hawking mass along the flow; rhs column is the Geroch right side."""
    if pot.kind != radial.KIND_IMCF:
        raise ValueError(f"hawking_series requires a solution of kind '{radial.KIND_IMCF}', got '{pot.kind}'")

    def mass(lev):
        return hawking_mass(lev.area, lev.willmore)

    return _series("hawking_mass", pot, t_grid, mass, geroch_rhs, derivative_step, {})


def minkowski_M(level, alpha: float) -> float:
    """Normalized Minkowski functional
    |Sigma|^{alpha/(n-1)-1} int |H/(n-1)|^alpha of the level Sigma."""
    n = level.n
    return level.area ** (alpha / (n - 1.0) - 1.0) * level.integrate(np.abs(level.H / (n - 1.0)) ** alpha)


def geroch_rhs(level) -> float:
    """sqrt(area/(16 pi)^3) (4 pi (2 - chi) + int 2|grad^T H|^2/H^2 + |h-ring|^2 + Sc)."""
    if level.n != 3:
        raise ValueError("the Geroch right side is defined for n = 3")
    if np.any(level.H <= 0.0):
        raise ValueError("mean curvature must be positive on the level")
    integral = level.integrate(2.0 * level.H_tangential**2 / level.H**2 + level.hring_sq + level.scalar)
    return np.sqrt(level.area / (16.0 * math.pi) ** 3) * (4.0 * math.pi * (2.0 - level.chi_proxy) + integral)
