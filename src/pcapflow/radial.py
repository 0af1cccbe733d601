"""Radial potentials on warped-product models.

On g = f^2 dr^2 + h^2 g_{S^{n-1}} every solver here reduces to an ODE in r.
With u = e^{-w/(p-1)} the p-harmonic equation integrates to the flux relation

    h^{n-1} |u'/f|^{p-2} (u'/f) = -C,

so u(r) = u_R + B * T(r) with the tail T(r) = int_r^R f h^{-(n-1)/(p-1)}
and C = B^{p-1}.  T is tabulated on panels as log T, so u = e^{-w/(p-1)}
is never formed where it would underflow: w = -(p-1) log u comes straight
from log-sum-exp.  The regularized problem replaces |s|^{p-2} s by
(s^2 + eps^2)^{(p-2)/2} s and is solved by shooting on C, recovering the
slope from the (monotone) regularized flux relation at every radius.  The
inverse-mean-curvature potential is explicit: w1 = (n-1) ln(h(r)/h(r0)),
and its |grad w1| is the sphere mean curvature of ``geometry``.  That the
coordinate spheres flow outward (h' > 0) is checked once, where the model
is built, and no solver here checks it again.

Every evaluator takes a radius or an array of radii (a level or an array of
levels for ``level_radius``) and answers in its shape: an array, or a NumPy
float64 for a number.  ``numerics.within`` judges and clamps them against
the annulus [r0, R] or the levels [0, phi_R]: a value within 1e-12 (1 +
|end|) of an end is answered at that end, and one farther out, NaN
included, is the fault of the code that computed it, a ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import geometry
from .numerics import ConfigError, CumulativeIntegral, SolverError, find_root, integrate, within

__all__ = [
    "RadialPotential",
    "ShootingError",
    "CapacityConsistencyError",
    "solve_wp",
    "solve_w1",
    "solve_wp_eps",
    "capacity",
    "check_annulus",
]

KIND_P = "p-potential"
KIND_IMCF = "imcf"
KIND_EPS = "eps-regularized"

# the log tails are refined to 1e-12 relative per panel; the integrand spans
# many decades when p is near 1 (h^{-kappa}, kappa = (n-1)/(p-1)), so any
# absolute floor would accept tail panels at garbage relative accuracy
_TAIL_TOL = 1e-12

# bounds per initial tail panel: e-folds of h^{-kappa}, and ln of the ratio
# of h across it
_EFOLDS_PER_PANEL = 4.0
_LOG_H_PER_PANEL = 0.25
# most panels a quadrature over a potential starts on (``RadialPotential.panels``)
_MAX_PANELS = 16

class ShootingError(SolverError):
    """The shooting iteration for the regularized flux constant failed."""


class CapacityConsistencyError(SolverError):
    """The capacity read off at several cross sections disagrees."""


@dataclass
class RadialPotential:
    """A solved radial level-set potential with quadrature-backed evaluators.

    w increases from w(r0) = 0 to w(R) = phi_R; grad_norm is |grad w|;
    u = e^{-w/(p-1)} for p > 1 (the flow potential has p = 1 and no u);
    theta is the regularization weight eps^2 / (|grad u|^2 + eps^2) for the
    eps kind.  ``kind`` is read from p and eps: p = 1 is the flow, an eps
    marks the regularized potential, and anything else is a p-potential.
    ``w_grad`` returns w and |grad w| together, from one evaluation of the
    tail where there is one.  ``panels`` marks where a quadrature over the
    potential starts, for every kind.  How the potential is stored is this
    module's own: ``_seed`` holds increasing radii (a p-potential's refined
    tail edges) and the values of w there, which bracket the root finds of
    ``level_radius``.
    """

    manifold: geometry.RadialManifold
    r0: float
    R: float
    phi_R: float
    p: float
    eps: Optional[float] = None
    flux: Optional[float] = None
    _w: Callable[[np.ndarray], np.ndarray] = field(default=None, repr=False)
    _w_grad: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(default=None, repr=False)
    _u: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    _theta: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    _seed: Optional[tuple[np.ndarray, np.ndarray]] = field(default=None, repr=False)

    @property
    def kind(self) -> str:
        if self.p == 1.0:
            return KIND_IMCF
        return KIND_P if self.eps is None else KIND_EPS

    def _check(self, r):
        return within(r, self.r0, self.R, "r")

    def w(self, r):
        return self._w(self._check(r))

    def grad_norm(self, r):
        return self._w_grad(self._check(r))[1]

    def w_grad(self, r):
        """(w, |grad w|) from one evaluation of the tail."""
        return self._w_grad(self._check(r))

    @property
    def panels(self) -> np.ndarray:
        """Increasing radii from r0 to R where a quadrature over the
        potential starts: the seed radii, evenly thinned to at most
        _MAX_PANELS panels.  A p-potential's seed is its refined tail edges,
        whose count grows like kappa = (n-1)/(p-1) while an integrand of w
        and |grad w| stays smooth."""
        rs = self._seed[0]
        m = rs.size - 1
        return rs[np.round(np.linspace(0, m, min(m, _MAX_PANELS) + 1)).astype(int)]

    def u(self, r):
        if self._u is None:
            raise ValueError(f"u is not defined for kind '{self.kind}'")
        return self._u(self._check(r))

    def theta(self, r):
        if self._theta is None:
            raise ValueError(f"theta is only defined for the {KIND_EPS} kind")
        return self._theta(self._check(r))

    def level_radius(self, t):
        """Radius of the level set {w = t}: ``find_root`` on w - t, whose
        slope is dw/dr = f |grad w|, from the secant start inside the seed
        bracket around t, to the tolerance 1e-14 max(1, hi) of that bracket's
        upper end hi, so a level near r0 of a wide annulus is found to
        rounding too."""
        t = within(t, 0.0, self.phi_R, "level t")
        rs, ws = self._seed
        t_flat = t.ravel()
        k = np.clip(np.searchsorted(ws, t_flat) - 1, 0, len(rs) - 2)
        lo, hi, wlo, whi = rs[k], rs[k + 1], ws[k], ws[k + 1]
        start = lo + (hi - lo) * np.clip((t_flat - wlo) / np.where(whi > wlo, whi - wlo, 1.0), 0.0, 1.0)

        def defect(r, j):
            w, grad = self._w_grad(r)
            return w - t_flat[j], self.manifold.f(r) * grad

        r = find_root(defect, start, lo, hi, 1e-14 * np.maximum(1.0, hi), "level_radius").reshape(t.shape)
        return np.where(t <= 0.0, self.r0, np.where(t >= self.phi_R, self.R, r))[()]


def _default_phi(model: geometry.RadialManifold, r0: float, R: float) -> float:
    """Outer datum matched to the inverse-mean-curvature potential."""
    return (model.n - 1) * math.log(model.h(R) / model.h(r0))


def check_annulus(model: geometry.RadialManifold, r0: float, R: float) -> None:
    """[r0, R] finite, inside the working range, with f(r0) finite and
    h(r0) > 0, for every potential: none may start on a horizon (f infinite,
    H = 0) or a tip.  An infinite R, the exterior problem, is not solved here.
    The one place a config's radii are judged: a ConfigError names r0 or R."""
    for name, r in (("r0", r0), ("R", R)):
        if not math.isfinite(r):
            raise ConfigError(f"{name}={r} must be finite", name)
        try:
            model.check_radius(r)
        except ValueError as exc:
            raise ConfigError(str(exc), name) from None
    if not r0 < R:
        raise ConfigError(f"need r0 < R, got [{r0}, {R}]", "R")
    if not math.isfinite(model.f(r0)):
        raise ConfigError(f"f({r0}) is not finite; start the annulus strictly inside the working range", "r0")
    if not model.h(r0) > 0.0:
        raise ConfigError(f"h({r0}) = 0; start the annulus away from the tip", "r0")


def _tail_edges(model: geometry.RadialManifold, r0: float, R: float, kappa: float) -> np.ndarray:
    """Initial tail panels on [r0, R], geometric in r, each about
    _EFOLDS_PER_PANEL e-folds of h^{-kappa} and _LOG_H_PER_PANEL of ln h at
    most.  The queries of a tail evaluate its panels' interpolants, and the
    second bound makes them resolve a low-kappa tail (p near 2) to rounding;
    for kappa >= 16 (p <= 1.125 at n = 3) the first bound is the tighter."""
    log_ratio = math.log(model.h(R) / model.h(r0))
    count = max(2, math.ceil(kappa * log_ratio / _EFOLDS_PER_PANEL), math.ceil(log_ratio / _LOG_H_PER_PANEL))
    edges = np.geomspace(r0, R, count + 1) if r0 > 0.0 else np.linspace(r0, R, count + 1)
    edges[0], edges[-1] = r0, R
    return edges


def _log_tail_potential(model, r0, R, p, phi_R, tail, shift, log_slope, **extra) -> RadialPotential:
    """Potential with u = u_R + int_r^R f q, where log q = log_slope(r) and
    the log of the tail is shift + tail(r) (``tail`` a log-mode
    CumulativeIntegral anchored at R).  w, u and |grad w| = (p-1) q / u come
    from logs, so nothing underflows."""
    log_uR = -phi_R / (p - 1.0)

    def log_u(r):
        return np.logaddexp(log_uR, shift + tail(r))

    def w_grad(r):
        lu = log_u(r)
        return -(p - 1.0) * lu, (p - 1.0) * np.exp(log_slope(r) - lu)

    return RadialPotential(
        manifold=model,
        r0=float(r0),
        R=float(R),
        phi_R=float(phi_R),
        p=float(p),
        _w=lambda r: -(p - 1.0) * log_u(r),
        _w_grad=w_grad,
        _u=lambda r: np.exp(log_u(r)),
        _seed=(tail.edges, -(p - 1.0) * np.logaddexp(log_uR, shift + tail.at_edges)),
        **extra,
    )


def solve_wp(
    model: geometry.RadialManifold,
    r0: float,
    R: float,
    p: float,
    phi_R: Optional[float] = None,
) -> RadialPotential:
    """Radial p-capacitary potential on the annulus [r0, R], p in (1, 2]."""
    check_annulus(model, r0, R)
    if not (1.0 < p <= 2.0):
        raise ConfigError(f"p={p} outside (1, 2]", "p")
    if phi_R is None:
        phi_R = _default_phi(model, r0, R)
    if not phi_R > 0.0:
        raise ConfigError(f"phi_R={phi_R} must be positive", "phi_R")
    kappa = (model.n - 1.0) / (p - 1.0)
    tail = CumulativeIntegral(
        lambda s: np.log(model.f(s)) - kappa * np.log(model.h(s)),
        R,
        _tail_edges(model, r0, R, kappa),
        _TAIL_TOL,
        log=True,
    )
    # u = u_R + B T(r) with B = (1 - u_R) / T(r0)
    log_B = math.log1p(-math.exp(-phi_R / (p - 1.0))) - float(tail(r0))

    def log_slope(r):
        return log_B - kappa * np.log(model.h(r))

    return _log_tail_potential(model, r0, R, p, phi_R, tail, log_B, log_slope, flux=math.exp((p - 1.0) * log_B))


def solve_w1(model: geometry.RadialManifold, r0: float, R: float) -> RadialPotential:
    """Inverse-mean-curvature potential w1 = (n-1) ln(h(r)/h(r0)).

    Coordinate spheres flow outward, h' > 0 above r_min, by the model's
    construction (``geometry``), so r0 may be a throat with h'(r0) = 0;
    |grad w1| equals the sphere mean curvature.  Its p is 1, the limit of
    the p-potentials.
    """
    check_annulus(model, r0, R)
    n = model.n
    rs = np.linspace(r0, R, 256)
    h0 = model.h(r0)

    def w(r):
        return (n - 1.0) * np.log(model.h(r) / h0)

    grad = functools.partial(geometry.mean_curvature_sphere, model)

    return RadialPotential(
        manifold=model,
        r0=float(r0),
        R=float(R),
        phi_R=_default_phi(model, r0, R),
        p=1.0,
        _w=w,
        _w_grad=lambda r: (w(r), grad(r)),
        _seed=(rs, w(rs)),
    )


def _log_flux(y: np.ndarray, p: float, log_eps2: float):
    """The log of the regularized flux (q^2 + eps^2)^((p-2)/2) q at q = e^y,
    as (p-1) y + (p-2)/2 log(1 + eps^2 e^{-2y}) so nothing cancels as p -> 1,
    and its derivative in y, in [p-1, 1] and falling (the log is concave)."""
    d = log_eps2 - 2.0 * y
    lift = np.logaddexp(0.0, d)
    return (p - 1.0) * y + 0.5 * (p - 2.0) * lift, (p - 1.0) + (2.0 - p) * np.exp(d - lift)


def _regularized_log_slope(log_m: np.ndarray, p: float, eps: float) -> np.ndarray:
    """log q for (q^2 + eps^2)^((p-2)/2) q = m, elementwise over log m.

    In y = log q the defect F(y) = _log_flux(y) - log m is increasing and
    concave, so the Newton steps of ``find_root`` from the unregularized
    start y0 = log m / (p-1), where F <= 0 for p <= 2, rise monotonically
    to the root and need no bracket.
    """
    log_m = np.asarray(log_m, dtype=float)
    target = log_m.ravel()
    log_eps2 = 2.0 * math.log(eps)

    def defect(y, k):
        value, slope = _log_flux(y, p, log_eps2)
        return value - target[k], slope

    return find_root(defect, log_m / (p - 1.0), tol=1e-10, job="regularized slope")


def solve_wp_eps(model: geometry.RadialManifold, r0: float, R: float, p: float, eps: float) -> RadialPotential:
    """Regularized radial potential: shooting on the flux constant C.

    u(R; C) = u_R pins C through the drop 1 - u(R; C) = int f q dr, q = e^y
    the regularized slope.  Its slope in L = log C is int f q / F'(y) dr,
    as dy/dL = 1/F'(y) (F of ``_regularized_log_slope``), and one two-row
    quadrature gives both, started on the refined tail panels of the
    unregularized potential, whose slope the regularized one follows.  The
    drop is convex in L (y'' = -F''(y) y'^3 >= 0) and at least 1 - u_R at
    the unregularized flux C0 (for p <= 2 the regularized slope is the
    steeper), so the Newton steps of ``find_root`` from log C0 fall
    monotonically to the root with no bracket: 2 or 3 quadratures on the
    flat annulus [1, 3] at p = 1.5, one where the regularization vanishes.
    The annulus and p are checked by ``solve_wp``, whose default datum is
    the outer datum here.  A breakdown of the shooting, a non-finite drop
    integrand included, raises ShootingError.
    """
    if not 0.0 < eps < math.inf:
        raise ConfigError(f"eps={eps} must be positive and finite", "eps")
    base = solve_wp(model, r0, R, p)
    phi_R = base.phi_R
    n = model.n
    u_R = math.exp(-phi_R / (p - 1.0))
    log_eps2 = 2.0 * math.log(eps)

    def log_q(r, log_C):
        return _regularized_log_slope(log_C - (n - 1.0) * np.log(model.h(r)), p, eps)

    def drop_defect(log_C, _):
        def rows(s):
            y = log_q(s, log_C)
            fq = model.f(s) * np.exp(y)
            return np.array([fq, fq / _log_flux(y, p, log_eps2)[1]])

        drop, slope = integrate(rows, r0, R, _TAIL_TOL, base._seed[0][1:-1])
        return drop - (1.0 - u_R), slope

    try:
        log_C = find_root(drop_defect, math.log(base.flux), tol=1e-10, job="flux constant")
    except SolverError as exc:
        raise ShootingError(str(exc)) from exc

    log_slope = functools.partial(log_q, log_C=log_C)
    kappa = (n - 1.0) / (p - 1.0)
    tail = CumulativeIntegral(
        lambda s: np.log(model.f(s)) + log_slope(s), R, _tail_edges(model, r0, R, kappa), _TAIL_TOL, log=True
    )

    def theta(r):
        y = log_slope(r)
        return np.exp(log_eps2 - np.logaddexp(2.0 * y, log_eps2))

    return _log_tail_potential(
        model, r0, R, p, phi_R, tail, 0.0, log_slope,
        eps=float(eps), flux=math.exp(log_C), _theta=theta,
    )


def capacity(
    pot: RadialPotential,
    t: float = 0.0,
    T: Optional[float] = None,
    taus: Optional[tuple[float, ...]] = None,
) -> float:
    """Normalized p-capacity of the condenser ({w <= t}, {w < T}).

    Read off the flux at several cross sections tau:

        cap = e^{-tau} h(r_tau)^{n-1} (|grad w|(r_tau)/(n-p))^{p-1}
              / (e^{-t/(p-1)} - e^{-T/(p-1)})^{p-1},

    which is tau-independent for the exact potential; the values must agree
    to 1e-8 relative or CapacityConsistencyError is raised.  Normalized so
    the unit ball against all of flat R^n has capacity h(r0)^{n-1}.  The
    levels t < T are judged against [0, phi_R] by ``numerics.within``.
    """
    if pot.kind != KIND_P:
        raise ValueError("capacity requires a p-potential")
    p = pot.p
    n = pot.manifold.n
    if T is None:
        T = pot.phi_R
    t, T = within([t, T], 0.0, pot.phi_R, "level")
    if not t < T:
        raise ValueError(f"need t < T, got t={t}, T={T}")
    if taus is None:
        taus = (0.0, 0.5 * T, 0.75 * T)
    taus = np.asarray(taus, dtype=float)
    r_tau = pot.level_radius(taus)
    flux = np.exp(-taus) * pot.manifold.h(r_tau) ** (n - 1.0) * (pot.grad_norm(r_tau) / (n - p)) ** (p - 1.0)
    # (e^{-t/(p-1)} - e^{-T/(p-1)})^{p-1}, through logs so p near 1 cannot underflow
    denom = math.exp(-t + (p - 1.0) * math.log1p(-math.exp(-(T - t) / (p - 1.0))))
    caps = flux / denom
    spread = (np.max(caps) - np.min(caps)) / max(abs(caps[0]), 1e-300)
    if spread > 1e-8:
        raise CapacityConsistencyError(
            f"capacity values disagree across cross sections: {caps.tolist()} (relative spread {spread:.3e})"
        )
    return float(np.mean(caps))
