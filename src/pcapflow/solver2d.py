"""Axisymmetric solver for the regularized p-Laplace problem in flat 3-space.

The unknown is u with div(a(|grad u|) grad u) = 0, a(q) = (q^2+eps^2)^((p-2)/2),
u = 1 on the inner star-shaped boundary r = rho(theta) and u = u_R on the
outer sphere r = R; the potential is w = -(p-1) ln u.  The annular region is
mapped to the unit square by r(sigma, theta) = (1 - sigma) rho(theta) + sigma R,
where the physical gradient picks up a shear:

    u_r = u_sigma / r_sigma,     u_theta|_r = u_thetahat - u_sigma r_theta / r_sigma,

with r_sigma = dr/dsigma and r_theta = dr/dtheta at fixed sigma.  The map
lives in one function, ``_map``, which returns r, r_sigma and r_theta; the
Gauss-point geometry of ``_Mesh``, the nodal radii and mapped gradient of
``Field2D``, the initial profile of ``_newton`` and the nodal data of
``field_from_radial`` all read it.

The discretization is bilinear Galerkin on the mapped rectangles (the
vanishing r^2 sin(theta) weight handles the axis without ghost rows).  At a
Gauss point the mapped gradient of shape function k factors as
(alpha xi_k, beta eta_k + gamma xi_k): xi_k, eta_k are the reference
derivatives, alpha = 1/(dsigma r_sigma), beta = 1/(dtheta r) and
gamma = -(r_theta/r_sigma)/(dsigma r), so the energy gradient and Hessian
are small matrix products per element.  The discrete solution minimizes the
convex energy

    E(u) = int (|grad u|^2 + eps^2)^(p/2) / p

over the interior nodal values; Newton's method with backtracking on E finds
it, each step one banded Cholesky solve with the symmetric positive definite
Hessian (Barrett & Liu, "Finite element approximation of the p-Laplacian",
Math. Comp. 61 (1993)).  Newton stops on the relative Newton decrement
(Boyd & Vandenberghe, "Convex Optimization" (2004), 9.5).

A step first back-solves its gradient with the last step's Cholesky factor
(a chord step; Kelley, "Iterative Methods for Linear and Nonlinear
Equations" (1995), 5.4) and measures that direction's decrement.  Below
tol/2 it ends the solve: if the Hessian there is within a factor 1 +- 3/4
of the factored one, the true decrement is below tol.  At most the square
of the previous step's decrement, the contraction of a Newton step, it is
line-searched as a Newton direction is.  Otherwise the old factor is
dropped before the new Hessian is assembled and factored.  Near the
solution, where a finer grid of a sequence starts, the Hessian barely
moves, so most fine-grid steps factor nothing; ``Field2D.factorizations``
lists the factorizations per grid.

A domain symmetric about the equator (rho(pi - theta) = rho(theta)) has an
energy that is even under theta -> pi - theta, so from a symmetric start
every Newton iterate is symmetric.  On such a domain with Ntheta even,
``_newton`` solves on the element columns theta in [0, pi/2] only, with the
volume weight doubled for the mirror image; the equator needs no boundary
condition, as it is the natural one of the Galerkin form.  The energy, the
Newton directions, the decrements and the line search are the full grid's
restricted to symmetric vectors, and u and the nodal load are mirrored back
to the full grid.  The band is Ntheta/2 + 3 wide with half the rows, so a
Cholesky factorization costs about an eighth of the full grid's.
``_mirrored`` decides it from rho and rho' at every theta the mesh samples;
any other domain, and any odd Ntheta, solves on the full grid.

``solve_2d`` sequences the grids: while both dimensions are even and halve
to at least 16, it solves the half grid first, coarsest first, and starts
each finer grid from the coarser w = -(p-1) ln u prolonged by 2:1 cubic
interpolation (nested iteration; Brandt, Math. Comp. 31 (1977)).  The
coarsest grid starts from the radial p-harmonic profile of the inner radius
rho(theta).  By mesh independence (Allgower, Boehmer, Potra & Rheinboldt,
SIAM J. Numer. Anal. 23 (1986)) each finer grid then needs a few Newton
steps, three or four on the shipped and benchmarked grids, where a cold
start needs more the finer the grid and the nearer p is to 1 (24 at 384x192
and p = 1.05, against 3 after the coarse grids' 15 + 7 + 4).
``Field2D.newton_steps`` lists the steps per grid.

Levels of w are extracted per polar ray (star-shapedness makes w monotone
along rays), a whole array of levels in one pass, and each extracted curve
carries the full second-order data: |grad w|, the PDE-consistent mean curvature

    H = (|grad w| - (p-1) <grad|grad w|, grad w>/|grad w|^2) (1 + (2-p)/(p-1) theta_eps),

the parallel-circle curvature kappa_phi = nu_cyl/(r sin theta), the meridian
curvature kappa_m = H - kappa_phi, |h-ring|^2 = (kappa_m - kappa_phi)^2/2 (all
three from ``_curvatures``, which ``divergence_residuals`` applies to the
nodes) and the tangential derivatives of |grad w| and H along the meridian.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import geometry
from .numerics import ConfigError, SolverError, simpson_weights, single_threaded_blas, solve_spd

__all__ = [
    "AxisymmetricDomain",
    "Field2D",
    "LevelCurve",
    "Solver2DError",
    "NonMonotoneRayError",
    "LevelRangeError",
    "sphere_domain",
    "ellipsoid_domain",
    "solve_2d",
    "extract_level",
    "field_from_radial",
    "flux_profile",
    "divergence_residuals",
]

_GP = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))
_MAX_HALVINGS = 40  # line-search step lengths down to 2^-39
_DIV_MARGIN = 0.15  # share of the sigma and theta ranges divergence_residuals drops at each end
_MIRROR_ULPS = 8  # mirror-symmetry tolerance of rho and rho' in ulps of max rho (_mirrored)


class Solver2DError(SolverError):
    """A 2-D solution left 0 < u <= 1, where w = -(p-1) ln u is defined."""


class NonMonotoneRayError(SolverError):
    """w fails to increase along some polar ray; extraction is ill-posed there."""


class LevelRangeError(SolverError):
    """Requested level outside the range covered by every ray."""


@dataclass(frozen=True)
class AxisymmetricDomain:
    """Star-shaped inner boundary r = rho(theta) inside the sphere r = R."""

    rho: Callable[[np.ndarray], np.ndarray]
    drho: Callable[[np.ndarray], np.ndarray]
    R: float
    label: str

    def __post_init__(self):
        if not math.isfinite(self.R):
            raise ValueError(f"outer radius R={self.R} must be finite")
        th = np.linspace(0.0, math.pi, 181)
        rr = np.asarray(self.rho(th), dtype=float)
        # written so that a nan rho fails too
        if not (np.all(rr > 0.0) and np.all(rr < self.R)):
            raise ValueError(f"need 0 < rho(theta) < R={self.R} everywhere")
        dr = np.asarray(self.drho(th), dtype=float)
        if not np.all(np.isfinite(dr)):
            raise ValueError("rho'(theta) must be finite")
        if abs(dr[0]) > 1e-10 or abs(dr[-1]) > 1e-10:
            raise ValueError("rho'(0) and rho'(pi) must vanish (axis regularity)")


def sphere_domain(r0: float = 1.0, R: float = 4.0) -> AxisymmetricDomain:
    r0 = float(r0)
    return AxisymmetricDomain(
        rho=lambda th: np.full_like(np.asarray(th, dtype=float), r0),
        drho=lambda th: np.zeros_like(np.asarray(th, dtype=float)),
        R=float(R),
        label=f"sphere(r0={r0})",
    )


def ellipsoid_domain(a_ax: float = 1.3, b_eq: float = 1.0, R: float = 4.0) -> AxisymmetricDomain:
    """Spheroid with polar semi-axis a_ax (along the symmetry axis) and
    equatorial semi-axis b_eq: rho(theta) = (cos^2/a^2 + sin^2/b^2)^(-1/2)."""
    a_ax = float(a_ax)
    b_eq = float(b_eq)
    if not (a_ax > 0.0 and b_eq > 0.0):
        raise ValueError(f"semi-axes a_ax={a_ax} and b_eq={b_eq} must be positive")

    def rho(th):
        th = np.asarray(th, dtype=float)
        return 1.0 / np.sqrt(np.cos(th) ** 2 / a_ax**2 + np.sin(th) ** 2 / b_eq**2)

    def drho(th):
        th = np.asarray(th, dtype=float)
        return -0.5 * rho(th) ** 3 * np.sin(2.0 * th) * (1.0 / b_eq**2 - 1.0 / a_ax**2)

    return AxisymmetricDomain(
        rho=rho,
        drho=drho,
        R=float(R),
        label=f"ellipsoid(a_ax={a_ax}, b_eq={b_eq})",
    )


def _map(domain: AxisymmetricDomain, sigma, theta):
    """The radial map at broadcastable (sigma, theta): r, dr/dsigma and
    dr/dtheta at fixed sigma.  r is written (1 - sigma) rho + sigma R, so
    the rows sigma = 0 and sigma = 1 are rho and R exactly."""
    rho = np.asarray(domain.rho(theta), dtype=float)
    r = (1.0 - sigma) * rho + sigma * domain.R
    return r, domain.R - rho, np.asarray(domain.drho(theta), dtype=float) * (1.0 - sigma)


def _nodes(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The sigma and theta node coordinates of an (Nsigma, Ntheta) grid."""
    return np.linspace(0.0, 1.0, shape[0] + 1), np.linspace(0.0, math.pi, shape[1] + 1)


# the Gauss points (xi, eta), xi-major, and the bilinear dN_k/dxi, dN_k/deta
# at them: (local node k, Gauss point), the same in every element
_XI_G, _ETA_G = np.repeat(_GP, 2), np.tile(_GP, 2)
_DXI = np.array([-(1.0 - _ETA_G), 1.0 - _ETA_G, -_ETA_G, _ETA_G])
_DETA = np.array([-(1.0 - _XI_G), -_XI_G, 1.0 - _XI_G, _XI_G])

# the element-matrix pairs (k, l) with conn[:, k] >= conn[:, l]: its lower
# triangle in natural node order
_LOWER_K = np.array([0, 1, 2, 3, 1, 2, 3, 1, 3, 3])
_LOWER_L = np.array([0, 1, 2, 3, 0, 0, 0, 2, 1, 2])
# xi_k xi_l, xi_k eta_l + eta_k xi_l and eta_k eta_l per Gauss point: (12, 10)
_XK, _XL, _EK, _EL = _DXI[_LOWER_K], _DXI[_LOWER_L], _DETA[_LOWER_K], _DETA[_LOWER_L]
_PAIRS = np.hstack([_XK * _XL, _XK * _EL + _EK * _XL, _EK * _EL]).T


class _Mesh:
    """Mapped-grid geometry: the map scalars alpha, beta, gamma of the factored
    gradient (alpha xi_k, beta eta_k + gamma xi_k) and the volume weight, (ne, gp)
    each, and where each element entry lands in the lower band of the interior block.

    With ``half`` the mesh covers the element columns theta in [0, pi/2] of the
    (Nsigma, Ntheta) grid, Ntheta even, and its volume weight counts each
    element twice, once for its mirror image across the equator.  At a
    mirror-symmetric nodal vector its energy is the full mesh's, and its load
    and Hessian are the full mesh's folded onto the half: an off-equator node
    gathers its own row and its mirror's, an equator node its own."""

    def __init__(self, domain: AxisymmetricDomain, Nsigma: int, Ntheta: int, half: bool = False):
        dsig, dth = 1.0 / Nsigma, math.pi / Ntheta
        cols = Ntheta // 2 if half else Ntheta
        self.n_nodes = (Nsigma + 1) * (cols + 1)
        idx = np.arange(self.n_nodes).reshape(Nsigma + 1, cols + 1)
        # local node order (sigma, theta): (0,0), (1,0), (0,1), (1,1)
        self.conn = np.stack([idx[:-1, :-1], idx[1:, :-1], idx[:-1, 1:], idx[1:, 1:]], axis=-1).reshape(-1, 4)
        # the map at the Gauss points (Nsigma, cols, gp) from sigma (Nsigma, 1, gp)
        # and theta (cols, gp), so rho is evaluated 4 cols times, not 4 ne
        tg = (np.arange(cols)[:, None] + _ETA_G) * dth
        r_g, rs_g, rt_g = _map(domain, (np.arange(Nsigma)[:, None, None] + _XI_G) * dsig, tg)

        def per_element(a):
            return np.broadcast_to(a, r_g.shape).reshape(-1, len(_XI_G))

        self.alpha = per_element(1.0 / (dsig * rs_g))
        self.beta = per_element(1.0 / (dth * r_g))
        self.gamma = per_element(-rt_g / rs_g / (dsig * r_g))
        # the Gauss weight 1/4, doubled on the half mesh: an exact scaling
        self.vol = per_element(r_g**2 * np.sin(tg) * rs_g * dsig * dth * (0.5 if half else 0.25))

        # the unknowns are the nodes of sigma rows 1..Nsigma-1, numbered
        # naturally, so the interior block has cols+2 subdiagonals
        self.inner = slice(cols + 1, self.n_nodes - (cols + 1))
        self.n_inner = (Nsigma - 1) * (cols + 1)
        self.band_rows = cols + 3
        gi = self.conn[:, _LOWER_K] - (cols + 1)
        gj = self.conn[:, _LOWER_L] - (cols + 1)
        self.band_keep = (gj >= 0) & (gi < self.n_inner)
        # entry (gi, gj) is band[gi - gj, gj]: flat index of the transpose
        self.band_pos = (gi - gj + self.band_rows * gj)[self.band_keep]

    def grad(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Radial and tangential derivative of the nodal field v, (ne, gp) each."""
        ve = v[self.conn]
        X = ve @ _DXI
        return self.alpha * X, self.beta * (ve @ _DETA) + self.gamma * X

    def load(self, coef: np.ndarray, vr: np.ndarray, vt: np.ndarray) -> np.ndarray:
        """Nodal vector sum over Gauss points of coef (vr dphi_r + vt dphi_t)."""
        loc = (coef * (vr * self.alpha + vt * self.gamma)) @ _DXI.T + (coef * vt * self.beta) @ _DETA.T
        return np.bincount(self.conn.ravel(), loc.ravel(), minlength=self.n_nodes)

    def hessian_band(self, coef: np.ndarray, ur: np.ndarray, ut: np.ndarray, s: np.ndarray, p: float) -> np.ndarray:
        """Lower band (LAPACK storage, Fortran order) of the energy Hessian on
        the interior block: per Gauss point coef (grad phi_k . grad phi_l)
        + b (grad u . grad phi_k)(grad u . grad phi_l), with coef = vol
        s^((p-2)/2), s = |grad u|^2 + eps^2 and b = (p-2) coef/s.  Factored,
        entry (k, l) is c1 xi_k xi_l + c2 (xi_k eta_l + eta_k xi_l) + c3 eta_k eta_l
        with c1 = coef (alpha^2 + gamma^2) + b P^2, c2 = coef beta gamma + b P Q,
        c3 = coef beta^2 + b Q^2, P = u_r alpha + u_theta gamma, Q = u_theta beta."""
        b = (p - 2.0) * coef / s
        P = ur * self.alpha + ut * self.gamma
        Q = ut * self.beta
        c1 = coef * (self.alpha**2 + self.gamma**2) + b * P * P
        c2 = coef * self.beta * self.gamma + b * P * Q
        c3 = coef * self.beta**2 + b * Q * Q
        vals = np.hstack([c1, c2, c3]) @ _PAIRS
        band = np.bincount(self.band_pos, vals[self.band_keep], minlength=self.band_rows * self.n_inner)
        return band.reshape(self.n_inner, self.band_rows).T


@dataclass
class Field2D:
    """A solved (or radially seeded) nodal field on the mapped grid.

    ``u`` is (Nsigma+1, Ntheta+1); derived fields are nodal arrays computed
    by mapped finite differences the first time they are needed.  ``history``
    holds one (energy, decrement, step_length) tuple per Newton step: the
    energy after the step and the relative Newton decrement before it,
    measured with the Cholesky factor the step used, the last of which is
    ``residual_rel``.  ``factor_count`` is the number of Hessians this grid
    factored.  ``coarse`` holds the solves of the coarser grids that
    ``solve_2d`` started this one from, coarsest first.
    """

    domain: AxisymmetricDomain
    p: float
    eps: float
    u_R: float
    u: np.ndarray
    converged: bool
    residual_rel: float
    history: list = field(default_factory=list)
    factor_count: int = 0
    coarse: tuple = ()
    _stiffness: Optional[np.ndarray] = field(default=None, repr=False)  # nodal K(u) u

    @property
    def outer_iterations(self) -> int:  # Newton steps
        return len(self.history)

    @property
    def newton_steps(self) -> list:
        """[Nsigma, Ntheta, Newton steps] of each grid of the solve, coarsest first."""
        return [[*f.shape, f.outer_iterations] for f in (*self.coarse, self)]

    @property
    def factorizations(self) -> list:
        """[Nsigma, Ntheta, Hessian factorizations] of each grid of the solve, coarsest first."""
        return [[*f.shape, f.factor_count] for f in (*self.coarse, self)]

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape[0] - 1, self.u.shape[1] - 1

    @property
    def sigma(self) -> np.ndarray:
        return _nodes(self.shape)[0]

    @property
    def theta(self) -> np.ndarray:
        return _nodes(self.shape)[1]

    @functools.cached_property
    def _frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodal r, dr/dsigma and the shear (dr/dtheta)/(dr/dsigma) of the map."""
        r, r_s, r_t = _map(self.domain, self.sigma[:, None], self.theta[None, :])
        return r, r_s, r_t / r_s

    @property
    def r(self) -> np.ndarray:
        """Nodal radii, (Nsigma+1, Ntheta+1)."""
        return self._frame[0]

    def _grad(self, F: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray]:
        """Mapped finite differences of the nodal field F: dF/dr, and dF/dtheta
        at fixed r divided by ``scale``, set to 0 on the axis (symmetry)."""
        _, r_s, shear = self._frame
        F_s = np.gradient(F, self.sigma, axis=0, edge_order=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            F_t = (np.gradient(F, self.theta, axis=1, edge_order=2) - shear * F_s) / scale
        F_t[:, [0, -1]] = 0.0
        return F_s / r_s, F_t

    def derived(self) -> dict:
        """Nodal r, w, |grad w|, theta_eps and H, and the gradients of w, |grad w| and H."""
        return self._derived

    @functools.cached_property
    def _derived(self) -> dict:
        if np.any(self.u <= 0.0):
            raise Solver2DError("u must stay positive to define w = -(p-1) ln u")
        p, eps = self.p, self.eps
        r = self.r
        w = -(p - 1.0) * np.log(self.u)
        Wr, Wt = self._grad(w, r)
        G = np.hypot(Wr, Wt)
        Gu2 = (self.u * G / (p - 1.0)) ** 2  # |grad u| = u |grad w| / (p - 1)
        theta_eps = eps * eps / (Gu2 + eps * eps) if eps > 0.0 else np.zeros_like(Gu2)
        Gsafe = np.where(G > 0.0, G, 1.0)
        Qr, Qt = self._grad(G, r)
        ip_GW = Qr * Wr + Qt * Wt
        factor = 1.0 + (2.0 - p) / (p - 1.0) * theta_eps
        H = (G - (p - 1.0) * ip_GW / Gsafe**2) * factor
        Hr, Ht = self._grad(H, r)
        return {
            "r": r,
            "w": w,
            "Wr": Wr,
            "Wt": Wt,
            "G": G,
            "theta_eps": theta_eps,
            "Qr": Qr,
            "Qt": Qt,
            "H": H,
            "Hr": Hr,
            "Ht": Ht,
        }

    def w_range(self) -> tuple[float, float]:
        w = self.derived()["w"]
        return 0.0, float(np.min(w[-1, :]))

    def level(self, t) -> "LevelCurve":
        """The level {w = t}, or the levels of an array t (``extract_level``)."""
        return extract_level(self, t)

    def table(self):
        """(header, rows), rows a float array with one row sigma, theta, u
        per node, sigma-major."""
        ns, nt = self.u.shape
        columns = [np.repeat(self.sigma, nt), np.tile(self.theta, ns), self.u.ravel()]
        return ["sigma", "theta", "u"], np.column_stack(columns)


@dataclass(frozen=True, kw_only=True)
class LevelCurve(geometry.Level):
    """Levels {w = t} of a 2-D field: axisymmetric curves theta -> r(theta)
    sampled at the grid's theta nodes (``theta``, shared), the per-sample
    arrays of shape (Ntheta+1,) for one level and (m, Ntheta+1) for m.  The
    weights are the Simpson weights in theta (``numerics.simpson_weights``)
    times the area element 2 pi r sin(theta) sqrt(r^2 + r'^2); in flat
    3-space the Gauss equation gives the level's own scalar curvature
    2 kappa_m kappa_phi."""

    theta: np.ndarray
    kappa_m: np.ndarray
    kappa_phi: np.ndarray
    theta_eps: np.ndarray

    def table(self, k: Optional[int] = None):
        """(header, rows), rows a float array with one row theta, r, grad_w,
        H, kappa_m, kappa_phi per sample of one level, or of the level of
        index ``k`` in an array."""
        if (k is None) != (np.ndim(self.t) == 0):
            raise ValueError("a level table needs a single level, or an array of levels and the index k of one")
        i = () if k is None else k
        header = ["theta", "r", "grad_w", "H", "kappa_m", "kappa_phi"]
        columns = [self.theta, self.r[i], self.grad[i], self.H[i], self.kappa_m[i], self.kappa_phi[i]]
        return header, np.column_stack(columns)


def _curvatures(Wr, Wt, G, H, r, theta):
    """The unit normal (nu_r, nu_theta) = grad w/|grad w|, the parallel-circle
    curvature kappa_phi = nu_cyl/(r sin theta), the meridian curvature
    kappa_m = H - kappa_phi and |h-ring|^2 = (kappa_m - kappa_phi)^2/2, with
    theta on the last axis; on the axis the level is umbilic and kappa_phi
    is H/2 there."""
    nur, nut = Wr / G, Wt / G
    sin = np.sin(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        kphi = (nur * sin + nut * np.cos(theta)) / (r * sin)
    kphi[..., [0, -1]] = 0.5 * H[..., [0, -1]]
    km = H - kphi
    return nur, nut, kphi, km, 0.5 * (km - kphi) ** 2


def extract_level(fieldv: Field2D, t) -> LevelCurve:
    """The level {w = t}, or the levels of an array t in one pass: each
    per-sample array has the shape of t followed by Ntheta+1."""
    der = fieldv.derived()
    w = der["w"]
    t = np.asarray(t, dtype=float)
    lo, hi = fieldv.w_range()
    t_lo, t_hi = t.min(), t.max()
    if not (lo < t_lo and t_hi < hi):
        raise LevelRangeError(f"level t={t_hi if lo < t_lo else t_lo} outside the covered range ({lo}, {hi})")
    if (w[1:] <= w[:-1]).any():
        j = int(np.argmin(np.min(np.diff(w, axis=0), axis=0)))
        raise NonMonotoneRayError(
            f"w is not strictly increasing along the ray theta={fieldv.theta[j]:.6f}"
        )
    # rays increase strictly, so the count of nodes below t is the insertion
    # index; the levels come first and theta last
    k = np.clip((w < t[..., None, None]).sum(axis=-2), 1, w.shape[0] - 1)
    cols = np.arange(w.shape[1])
    frac = (t[..., None] - w[k - 1, cols]) / (w[k, cols] - w[k - 1, cols])

    def interp(F: np.ndarray) -> np.ndarray:
        lo_v = F[k - 1, cols]
        return lo_v + frac * (F[k, cols] - lo_v)

    theta = fieldv.theta
    r = interp(der["r"])
    G = interp(der["G"])
    if G.min() < 10.0 * fieldv.eps:
        raise LevelRangeError(
            f"min |grad w| = {G.min():.3e} on level t={np.ravel(t)[np.argmin(G.min(axis=-1))]} "
            "is below 10*eps; the curvature formulas are unreliable there"
        )
    Wr, Wt, H = interp(der["Wr"]), interp(der["Wt"]), interp(der["H"])
    nur, nut, kphi, km, hring_sq = _curvatures(Wr, Wt, G, H, r, theta)
    dr = -r * Wt / Wr  # implicit differentiation of w(r(theta), theta) = t
    # meridian unit tangent is nu rotated by 90 degrees in the (r, theta) plane
    grad_tan = np.abs(-interp(der["Qr"]) * nut + interp(der["Qt"]) * nur)
    H_tan = np.abs(-interp(der["Hr"]) * nut + interp(der["Ht"]) * nur)
    measure = 2.0 * math.pi * r * np.sin(theta) * np.sqrt(r * r + dr * dr)
    return LevelCurve(
        t=t[()],
        n=3,
        r=r,
        weights=measure * simpson_weights(theta),
        grad=G,
        H=H,
        scalar=0.0,
        scalar_induced=2.0 * km * kphi,
        grad_tangential=grad_tan,
        H_tangential=H_tan,
        hring_sq=hring_sq,
        theta=theta,
        kappa_m=km,
        kappa_phi=kphi,
        theta_eps=interp(der["theta_eps"]),
    )


@single_threaded_blas()
def solve_2d(
    domain: AxisymmetricDomain,
    p: float,
    u_R: float,
    shape: tuple[int, int] = (64, 32),
    eps: Optional[float] = None,
    tol: float = 1e-9,
    max_outer: int = 80,
) -> Field2D:
    """Newton solve of the regularized p-Laplace problem, sequenced over grids.

    When both grid dimensions are even and their halves are at least 16, the
    half grid is solved first (and its half before it, while that halves),
    every grid with this grid's eps, tol and max_outer; each solve's
    w = -(p-1) ln u, prolonged by cubic interpolation (``_prolong``), starts
    Newton on the next grid.  The coarsest grid starts from the radial
    p-harmonic profile of each ray.

    Each Newton step solves the Hessian system H d = -g of the discrete
    energy E and backtracks on the energy (Armijo); a step that changes the
    energy by no more than a few ulps is accepted, since rounding hides any
    decrease there.  The step first tries the last step's Cholesky factor of
    H: its chord direction is kept when its relative decrement
    sqrt(g.H^-1 g / (2 E)), about sqrt((E - min E) / E), is at most the
    square of the previous step's, and otherwise H is factored afresh.  Once
    a fresh factor's decrement is below tol, or a kept factor's below tol/2,
    the full step is taken and iteration stops.  Exhausting max_outer, or a
    line search that cannot decrease the energy, returns the field flagged
    non-converged rather than raising.  This grid alone decides
    ``converged``, ``history`` and ``residual_rel``; the coarse solves are
    kept in ``coarse``.  The solve runs with NumPy's BLAS on one thread
    (``single_threaded_blas``): its vector and matrix products are too
    small to gain from more.
    """
    Nsigma, Ntheta = shape
    if Nsigma < 16 or Ntheta < 16:
        raise ConfigError(f"grid {shape} too coarse; need at least 16x16", "shape")
    if not (1.0 < p <= 2.0):
        raise ConfigError(f"p={p} outside (1, 2]", "p")
    if not (0.0 < u_R < 1.0):
        raise ConfigError(f"u_R={u_R} outside (0, 1)", "u_R")
    if eps is None:
        eps = min(1e-3, 1.0 / Nsigma)
    if not 1e-8 <= eps < math.inf:
        raise ConfigError(f"eps={eps} must be finite and at least 1e-8: below, the p->1 coefficient overflows", "eps")
    # the grids of the sequence, coarsest first: halve while both halves are >= 16
    grids = [tuple(shape)]
    while all(n % 2 == 0 and n >= 32 for n in grids[0]):
        grids.insert(0, (grids[0][0] // 2, grids[0][1] // 2))
    solves = [_newton(domain, p, u_R, grids[0], eps, tol, max_outer)]
    for grid in grids[1:]:
        w = _prolong(-(p - 1.0) * np.log(solves[-1].u))
        solves.append(_newton(domain, p, u_R, grid, eps, tol, max_outer, u0=np.exp(-w / (p - 1.0))))
    solves[-1].coarse = tuple(solves[:-1])
    return solves[-1]


def _prolong(w: np.ndarray) -> np.ndarray:
    """Nodal values on the grid of twice the resolution, by 2:1 cubic
    interpolation along theta and then along sigma: the old nodes are kept,
    each midpoint is (-w[i-1] + 9 w[i] + 9 w[i+1] - w[i+2])/16, and the first
    and last midpoints take the one-sided (5 w0 + 15 w1 - 5 w2 + w3)/16."""
    for axis in (1, 0):
        v = np.moveaxis(w, axis, 0)
        w = np.empty((2 * v.shape[0] - 1, *v.shape[1:]))
        w[::2] = v
        w[3:-3:2] = (-v[:-3] + 9.0 * v[1:-2] + 9.0 * v[2:-1] - v[3:]) / 16.0
        w[1] = (5.0 * v[0] + 15.0 * v[1] - 5.0 * v[2] + v[3]) / 16.0
        w[-2] = (5.0 * v[-1] + 15.0 * v[-2] - 5.0 * v[-3] + v[-4]) / 16.0
        w = np.moveaxis(w, 0, axis)
    return w


def _mirrored(domain: AxisymmetricDomain, Ntheta: int) -> bool:
    """Whether the (., Ntheta) grid of ``domain`` is mirror-symmetric about the
    equator: Ntheta is even, and at every theta the mesh samples (the nodes
    and the Gauss points) rho equals its mirror value and rho' its negative
    to within _MIRROR_ULPS ulps of max rho."""
    if Ntheta % 2:
        return False
    theta = np.append((np.arange(Ntheta)[:, None] + (0.0, *_GP)) * (math.pi / Ntheta), math.pi)
    rho = np.asarray(domain.rho(theta), dtype=float)
    drho = np.asarray(domain.drho(theta), dtype=float)
    tol = _MIRROR_ULPS * np.spacing(np.max(rho))
    return bool(np.max(np.abs(rho - rho[::-1])) <= tol and np.max(np.abs(drho + drho[::-1])) <= tol)


def _newton(domain, p, u_R, shape, eps, tol, max_outer, u0=None) -> Field2D:
    """Newton's method on one grid, from the nodal u0 or, without it, from the
    radial p-harmonic profile of each ray; the boundary rows are set to
    exactly 1 and u_R.  On a mirror-symmetric grid (``_mirrored``) it runs on
    the columns theta in [0, pi/2] of the half mesh, whose energy, Newton
    directions, decrements and line search are the full grid's restricted to
    symmetric vectors, and mirrors u and the nodal load back to the full grid."""
    Nsigma, Ntheta = shape
    half = _mirrored(domain, Ntheta)
    cols = Ntheta // 2 if half else Ntheta
    if u0 is None:
        sigma, theta = _nodes(shape)
        r = _map(domain, sigma[:, None], theta[None, : cols + 1])[0]  # row 0 of r is rho
        k = (3.0 - p) / (p - 1.0)
        tail = (r[:1] / domain.R) ** k
        u0 = ((r[:1] / r) ** k - tail) / (1.0 - tail) * (1.0 - u_R) + u_R
    u = np.array(u0[:, : cols + 1], dtype=float)
    u[0], u[-1] = 1.0, u_R

    mesh = _Mesh(domain, Nsigma, Ntheta, half)
    inner = mesh.inner
    u_flat = u.ravel()

    def energy(v):
        """E(v) and, at v, the load coefficient vol s^((p-2)/2), the gradient
        (v_r, v_theta) and s = |grad v|^2 + eps^2: the arguments of the kernels."""
        vr, vt = mesh.grad(v)
        s = vr * vr + vt * vt + eps * eps
        coef = mesh.vol * s ** ((p - 2.0) / 2.0)
        return float(np.sum(coef * s)) / p, (coef, vr, vt, s)

    def descent(grad, direction):
        """The slope grad.direction and the relative decrement
        sqrt(-slope / (2 E)) at the current energy E."""
        slope = float(grad @ direction)
        return slope, math.sqrt(max(-slope, 0.0) / (2.0 * E))

    history = []
    E, at_u = energy(u_flat)
    decrement = math.inf
    converged = False
    spd = None  # the last factorization, kept while its chord steps contract like Newton's
    factor_count = 0
    for _ in range(max_outer):
        grad = mesh.load(*at_u[:3])[inner]
        previous = decrement
        if spd is not None:
            direction = -spd.solve(grad)
            slope, decrement = descent(grad, direction)
            converged = decrement < 0.5 * tol
            if not (converged or decrement <= previous * previous):
                spd = None  # freed before the new Hessian is assembled
        if spd is None:
            spd = solve_spd(mesh.hessian_band(*at_u, p), grad)
            factor_count += 1
            direction = -spd.x
            slope, decrement = descent(grad, direction)
            converged = decrement < tol
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = u_flat.copy()
            trial[inner] += step * direction
            E_trial, at_trial = energy(trial)
            change = E_trial - E
            if converged or change <= 1e-4 * step * slope or abs(change) <= 4.0 * np.spacing(E):
                break
            step *= 0.5
        else:
            break  # the energy does not decrease along the Newton direction
        u_flat, E, at_u = trial, E_trial, at_trial
        history.append((E, decrement, step))
        if converged:
            break

    u = u_flat.reshape(Nsigma + 1, cols + 1)
    if np.any(u <= 0.0) or np.max(u) > 1.0 + 1e-6:
        raise Solver2DError("solution violates the maximum principle 0 < u <= 1")
    stiffness = mesh.load(*at_u[:3]).reshape(u.shape)
    if half:
        # unfold the folded load: an off-equator node holds its own row and its mirror's
        stiffness[:, :-1] *= 0.5
        u, stiffness = (np.hstack([a, a[:, -2::-1]]) for a in (u, stiffness))
    return Field2D(
        domain=domain,
        p=float(p),
        eps=float(eps),
        u_R=float(u_R),
        u=u,
        converged=converged,
        residual_rel=decrement,
        history=history,
        factor_count=factor_count,
        _stiffness=stiffness.ravel(),
    )


def field_from_radial(domain: AxisymmetricDomain, shape: tuple[int, int], pot) -> Field2D:
    """Seed a Field2D with exact nodal data of a radial potential.

    The radial annulus must cover [min rho, R]: ``pot.u`` judges the nodal
    radii, so a node outside it is a ValueError.  The resulting field is
    exact at the nodes, so discretization errors of the derived-field
    pipeline can be measured in isolation.
    """
    sigma, theta = _nodes(shape)
    r = _map(domain, sigma[:, None], theta[None, :])[0]
    u = pot.u(r)
    return Field2D(
        domain=domain,
        p=float(pot.p),
        eps=float(pot.eps) if pot.eps is not None else 0.0,
        u_R=float(pot.u(domain.R)),
        u=u,
        converged=True,
        residual_rel=0.0,
    )


def flux_profile(fieldv: Field2D) -> np.ndarray:
    """Discrete flux through each sigma-layer interface (azimuthal factor 2 pi).

    For the converged system the flux is the same through every interface up
    to the nonlinear residual: the discrete conservation law of the scheme.
    """
    if fieldv._stiffness is None:
        raise ValueError("flux profile needs the nodal K(u) u of a solve")
    row_sums = fieldv._stiffness.reshape(fieldv.u.shape).sum(axis=1)
    return -2.0 * math.pi * np.cumsum(row_sums)[:-1]


def divergence_residuals(fieldv: Field2D, alpha: float) -> dict:
    """Residuals of the two divergence identities on the interior window.

    J = G^(a+p-2) grad w and Y = G^(a+p-3)(grad G + (p-2)(1-theta) grad^perp G)
    are assembled from nodal data; their mapped finite-difference divergences
    are compared against the analytic right sides (flat ambient, n = 3):

      div J = [a-(2-p)theta] G^(a+p-3) <grad G, grad w> + (1+(2-p)theta/(p-1)) G^(a+p)
      div Y = G^(a+p-2) (D_plus + D_sigma)

    Returns ``{"J": stats, "Y": stats}``: the max and rms of each residual over
    sigma in [m, 1-m], theta in [m pi, (1-m) pi], m = 0.15, and its ``scale``,
    the max |right side| there.
    """
    der = fieldv.derived()
    p = fieldv.p
    n = 3.0
    G = der["G"]
    th = der["theta_eps"]
    Wr, Wt = der["Wr"], der["Wt"]
    Qr, Qt = der["Qr"], der["Qt"]
    r = der["r"]
    nur, nut, _, _, hring_sq = _curvatures(Wr, Wt, G, der["H"], r, fieldv.theta)
    sin = np.sin(fieldv.theta)[None, :]

    def fd_div(Xr: np.ndarray, Xt: np.ndarray) -> np.ndarray:
        return fieldv._grad(r * r * Xr, r)[0] / (r * r) + fieldv._grad(sin * Xt, r * sin)[1]

    ip_GW = Qr * Wr + Qt * Wt
    Jr = G ** (alpha + p - 2.0) * Wr
    Jt = G ** (alpha + p - 2.0) * Wt
    rhs_J = (alpha - (2.0 - p) * th) * G ** (alpha + p - 3.0) * ip_GW + (
        1.0 + (2.0 - p) / (p - 1.0) * th
    ) * G ** (alpha + p)
    res_J = fd_div(Jr, Jt) - rhs_J

    ip_Gnu = Qr * nur + Qt * nut
    Yr = G ** (alpha + p - 3.0) * (Qr + (p - 2.0) * (1.0 - th) * ip_Gnu * nur)
    Yt = G ** (alpha + p - 3.0) * (Qt + (p - 2.0) * (1.0 - th) * ip_Gnu * nut)
    c = 1.0 + (2.0 - p) / (p - 1.0) * th
    perp2 = ip_Gnu**2
    tang2 = np.maximum(Qr**2 + Qt**2 - perp2, 0.0)
    d_plus = (
        (p - 1.0) ** 2 * c * ((alpha + p - 2.0) / (p - 1.0) - (n - 2.0) / (n - 1.0) * c) * perp2 / G**2
        + (alpha + p - 2.0) * tang2 / G**2
        + hring_sq
    )
    d_sigma = (
        (c**2 / (n - 1.0) + 2.0 * (2.0 - p) / (p - 1.0) ** 2 * (1.0 - th) * th) * G**2
        + (
            2.0 * (p - 1.0) * (n - 2.0) / (n - 1.0) * c**2
            + (2.0 - p) * (1.0 - th) * (1.0 - p / (p - 1.0) * th)
        )
        * ip_GW
        / G
    )  # flat ambient: Ric(nu, nu) = 0
    rhs_Y = G ** (alpha + p - 2.0) * (d_plus + d_sigma)
    res_Y = fd_div(Yr, Yt) - rhs_Y

    smask = (fieldv.sigma >= _DIV_MARGIN) & (fieldv.sigma <= 1.0 - _DIV_MARGIN)
    tmask = (fieldv.theta >= _DIV_MARGIN * math.pi) & (fieldv.theta <= (1.0 - _DIV_MARGIN) * math.pi)
    win = np.ix_(smask, tmask)

    def stats(res, scale):
        v = np.abs(res[win])
        s = float(np.max(np.abs(scale[win])))
        return {"max": float(np.max(v)), "rms": float(np.sqrt(np.mean(v**2))), "scale": s}

    return {"J": stats(res_J, rhs_J), "Y": stats(res_Y, rhs_Y)}

