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
and its |grad w1| is the sphere mean curvature of ``geometry``.

Every evaluator takes a radius or an array of radii (a level or an array of
levels for ``level_radius``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import geometry
from .numerics import CumulativeIntegral, find_root, integrate

__all__ = [
    "RadialPotential",
    "NotOutwardMinimizing",
    "ShootingError",
    "CapacityConsistencyError",
    "solve_wp",
    "solve_w1",
    "solve_wp_eps",
    "capacity",
]

KIND_P = "p-potential"
KIND_IMCF = "imcf"
KIND_EPS = "eps-regularized"

# the log tails are refined to 1e-12 relative per panel; the integrand spans
# many decades when p is near 1 (h^{-kappa}, kappa = (n-1)/(p-1)), so any
# absolute floor would accept tail panels at garbage relative accuracy
_TAIL_TOL = 1e-12

# e-folds of h^{-kappa} per initial tail panel
_EFOLDS_PER_PANEL = 4.0


class NotOutwardMinimizing(RuntimeError):
    """h' <= 0 somewhere: coordinate spheres fail to flow outward."""


class ShootingError(RuntimeError):
    """The shooting iteration for the regularized flux constant failed."""


class CapacityConsistencyError(RuntimeError):
    """The capacity read off at several cross sections disagrees."""


def _scalar_or_array(fn):
    """Evaluate fn on an array; return a float for a scalar argument."""

    @functools.wraps(fn)
    def wrapped(self, x):
        out = fn(self, np.asarray(x, dtype=float))
        return float(out) if np.ndim(x) == 0 else out

    return wrapped


@dataclass
class RadialPotential:
    """A solved radial level-set potential with quadrature-backed evaluators.

    w increases from w(r0) = 0 to w(R) = phi_R; grad_norm is |grad w|;
    u = e^{-w/(p-1)} for p > 1 (the flow potential has p = 1 and no u);
    theta is the regularization weight eps^2 / (|grad u|^2 + eps^2) for the
    eps kind.
    ``_w_grad`` returns w and |grad w| together, from one evaluation of the
    tail where there is one.  ``_seed`` holds increasing radii and the values of w there, which
    bracket the Newton steps of ``level_radius``.
    """

    manifold: geometry.RadialManifold
    kind: str
    r0: float
    R: float
    phi_R: float
    p: Optional[float] = None
    eps: Optional[float] = None
    flux: Optional[float] = None
    _w: Callable[[np.ndarray], np.ndarray] = field(default=None, repr=False)
    _w_grad: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(default=None, repr=False)
    _u: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    _theta: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    _seed: Optional[tuple[np.ndarray, np.ndarray]] = field(default=None, repr=False)

    def _check(self, r: np.ndarray) -> np.ndarray:
        pad = 1e-9 * (self.R - self.r0)
        if np.any(r < self.r0 - pad) or np.any(r > self.R + pad):
            bad = r[(r < self.r0 - pad) | (r > self.R + pad)].flat[0]
            raise geometry.DomainError(f"r={bad} outside the annulus [{self.r0}, {self.R}]")
        return np.clip(r, self.r0, self.R)

    @_scalar_or_array
    def w(self, r):
        return self._w(self._check(r))

    @_scalar_or_array
    def grad_norm(self, r):
        return self._w_grad(self._check(r))[1]

    @_scalar_or_array
    def u(self, r):
        if self._u is None:
            raise ValueError(f"u is not defined for kind '{self.kind}'")
        return self._u(self._check(r))

    @_scalar_or_array
    def theta(self, r):
        if self._theta is None:
            raise ValueError(f"theta is only defined for the {KIND_EPS} kind")
        return self._theta(self._check(r))

    @_scalar_or_array
    def level_radius(self, t):
        """Radius of the level set {w = t}: safeguarded Newton steps with
        dw/dr = f |grad w|, inside the seed bracket around t."""
        if np.any(t < -1e-12) or np.any(t > self.phi_R + 1e-12):
            bad = t[(t < -1e-12) | (t > self.phi_R + 1e-12)].flat[0]
            raise ValueError(f"level t={bad} outside [0, {self.phi_R}]")
        rs, ws = self._seed
        k = np.clip(np.searchsorted(ws, t) - 1, 0, len(rs) - 2)
        lo, hi, wlo, whi = rs[k], rs[k + 1], ws[k], ws[k + 1]
        r = lo + (hi - lo) * np.clip((t - wlo) / np.where(whi > wlo, whi - wlo, 1.0), 0.0, 1.0)
        step_tol = 1e-14 * max(1.0, self.R)
        for _ in range(100):
            w, grad = self._w_grad(r)
            below = w < t
            lo = np.where(below, r, lo)
            hi = np.where(below, hi, r)
            with np.errstate(divide="ignore", invalid="ignore"):
                nxt = r - (w - t) / (self.manifold.f(r) * grad)
            nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
            done = np.abs(nxt - r) <= step_tol
            r = nxt
            if np.all(done):
                break
        return np.where(t <= 0.0, self.r0, np.where(t >= self.phi_R, self.R, r))


def _default_phi(model: geometry.RadialManifold, r0: float, R: float) -> float:
    """Outer datum matched to the inverse-mean-curvature potential."""
    return (model.n - 1) * math.log(model.h(R) / model.h(r0))


def _check_annulus(model: geometry.RadialManifold, r0: float, R: float, p: float) -> None:
    """[r0, R] inside the working range with h(r0) > 0, and f(r0) finite for the
    p-potentials (p > 1); the flow potential may start on the horizon, where H = 0."""
    model.check_radius(r0)
    model.check_radius(R)
    if not r0 < R:
        raise geometry.DomainError(f"need r0 < R, got [{r0}, {R}]")
    if p > 1.0 and not math.isfinite(model.f(r0)):
        raise geometry.DomainError(
            f"f({r0}) is not finite; start the annulus strictly inside the working range"
        )
    if not model.h(r0) > 0.0:
        raise geometry.DomainError(f"h({r0}) = 0; start the annulus away from the tip")


def _tail_edges(model: geometry.RadialManifold, r0: float, R: float, kappa: float) -> np.ndarray:
    """Initial tail panels on [r0, R], geometric in r, about
    _EFOLDS_PER_PANEL e-folds of h^{-kappa} each."""
    efolds = kappa * math.log(model.h(R) / model.h(r0))
    count = max(2, math.ceil(efolds / _EFOLDS_PER_PANEL))
    edges = np.geomspace(r0, R, count + 1) if r0 > 0.0 else np.linspace(r0, R, count + 1)
    edges[0], edges[-1] = r0, R
    return edges


def _log_tail_potential(model, r0, R, p, phi_R, tail, shift, log_slope, kind, **extra) -> RadialPotential:
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
        kind=kind,
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
    _check_annulus(model, r0, R, p)
    if not (1.0 < p <= 2.0):
        raise ValueError(f"p={p} outside (1, 2]")
    if phi_R is None:
        phi_R = _default_phi(model, r0, R)
    if not phi_R > 0.0:
        raise ValueError(f"phi_R={phi_R} must be positive")
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

    return _log_tail_potential(model, r0, R, p, phi_R, tail, log_B, log_slope, KIND_P, flux=math.exp((p - 1.0) * log_B))


def solve_w1(model: geometry.RadialManifold, r0: float, R: float) -> RadialPotential:
    """Inverse-mean-curvature potential w1 = (n-1) ln(h(r)/h(r0)).

    Requires h' > 0 on [r0, R] (coordinate spheres strictly outward
    minimizing); |grad w1| equals the sphere mean curvature.  Its p is 1,
    the limit of the p-potentials.
    """
    _check_annulus(model, r0, R, 1.0)
    n = model.n
    rs = np.linspace(r0, R, 256)
    slopes = model.dh(rs)
    if np.any(slopes <= 0.0):
        bad = rs[np.argmax(slopes <= 0.0)]
        raise NotOutwardMinimizing(f"h'(r) <= 0 at r={bad}: flow is not outward minimizing")
    h0 = model.h(r0)

    def w(r):
        return (n - 1.0) * np.log(model.h(r) / h0)

    grad = functools.partial(geometry.mean_curvature_sphere, model)

    return RadialPotential(
        manifold=model,
        kind=KIND_IMCF,
        r0=float(r0),
        R=float(R),
        phi_R=_default_phi(model, r0, R),
        p=1.0,
        _w=w,
        _w_grad=lambda r: (w(r), grad(r)),
        _seed=(rs, w(rs)),
    )


def _regularized_log_slope(log_m: np.ndarray, p: float, eps: float) -> np.ndarray:
    """log q for (q^2 + eps^2)^((p-2)/2) q = m, elementwise over log m.

    In y = log q the defect F(y) = (p-2)/2 log(e^{2y} + eps^2) + y - log m
    is increasing (F' in [p-1, 1]) and concave, so Newton steps from the
    unregularized start y0 = log m / (p-1), where F <= 0 for p <= 2, rise
    monotonically to the root.
    """
    y = log_m / (p - 1.0)
    log_eps2 = 2.0 * math.log(eps)
    for _ in range(100):
        s = np.logaddexp(2.0 * y, log_eps2)
        defect = 0.5 * (p - 2.0) * s + y - log_m
        slope = 1.0 - (2.0 - p) * np.exp(2.0 * y - s)
        step = defect / slope
        y = y - step
        if np.all(np.abs(step) <= 1e-14 * np.maximum(1.0, np.abs(y))):
            break
    return y


def solve_wp_eps(
    model: geometry.RadialManifold,
    r0: float,
    R: float,
    p: float,
    eps: float,
    phi_R: Optional[float] = None,
) -> RadialPotential:
    """Regularized radial potential: shooting on the flux constant C.

    u(R; C) is strictly decreasing in C, so the boundary condition pins C by
    a log-parametrized bracketed root find.  Each evaluation of u(R; C) is
    one adaptive quadrature of the drop 1 - u(R; C), made once per C: one
    per step of the bracketing from the unregularized flux and of
    ``find_root`` (Brent's method), 5 or 6 in all on the flat annulus [1, 3]
    at p = 1.5.
    """
    _check_annulus(model, r0, R, p)
    if not (1.0 < p <= 2.0):
        raise ValueError(f"p={p} outside (1, 2]")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if phi_R is None:
        phi_R = _default_phi(model, r0, R)
    n = model.n
    u_R = math.exp(-phi_R / (p - 1.0))
    C0 = solve_wp(model, r0, R, p, phi_R).flux

    def log_q(r, log_C):
        return _regularized_log_slope(log_C - (n - 1.0) * np.log(model.h(r)), p, eps)

    # the bracketing and find_root evaluate the ends of the bracket again
    @functools.cache
    def u_end_defect(log_C: float) -> float:
        drop = integrate(lambda s: model.f(s) * np.exp(log_q(s, log_C)), r0, R, _TAIL_TOL)
        return (1.0 - drop) - u_R

    # u(R; C0) <= u_R for the regularized slope in exact arithmetic, but at
    # p = 2 or a tiny eps the defect at C0 is quadrature noise of either sign
    lo_exp, hi_exp = math.log(C0), math.log(C0)
    for _ in range(80):
        if u_end_defect(lo_exp) >= 0.0:
            break
        lo_exp -= math.log(2.0)
    else:
        raise ShootingError("could not bracket the flux constant from below")
    for _ in range(80):
        if u_end_defect(hi_exp) <= 0.0:
            break
        hi_exp += math.log(2.0)
    else:
        raise ShootingError("could not bracket the flux constant from above")
    log_C = find_root(u_end_defect, lo_exp, hi_exp)

    def log_slope(r):
        return log_q(r, log_C)

    kappa = (n - 1.0) / (p - 1.0)
    tail = CumulativeIntegral(
        lambda s: np.log(model.f(s)) + log_slope(s), R, _tail_edges(model, r0, R, kappa), _TAIL_TOL, log=True
    )

    def theta(r):
        y = log_slope(r)
        return np.exp(2.0 * math.log(eps) - np.logaddexp(2.0 * y, 2.0 * math.log(eps)))

    return _log_tail_potential(
        model, r0, R, p, phi_R, tail, 0.0, log_slope, KIND_EPS,
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
    the unit ball against all of flat R^n has capacity h(r0)^{n-1}.
    """
    if pot.kind != KIND_P:
        raise ValueError("capacity requires a p-potential")
    p = pot.p
    n = pot.manifold.n
    if T is None:
        T = pot.phi_R
    if not (0.0 <= t < T <= pot.phi_R + 1e-12):
        raise ValueError(f"need 0 <= t < T <= phi_R, got t={t}, T={T}, phi_R={pot.phi_R}")
    if taus is None:
        taus = (0.0, 0.5 * T, 0.75 * T)
    taus = np.asarray(taus, dtype=float)
    if np.any(taus < 0.0) or np.any(taus > pot.phi_R + 1e-12):
        raise ValueError(f"taus {taus.tolist()} outside [0, phi_R]")
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
