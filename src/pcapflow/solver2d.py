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
``Field2D``, the initial profile of ``solve_2d`` and the nodal data of
``field_from_radial`` all read it.

The discretization is bilinear Galerkin on the mapped rectangles (the
vanishing r^2 sin(theta) weight handles the axis without ghost rows).  The
discrete solution minimizes the convex energy

    E(u) = int (|grad u|^2 + eps^2)^(p/2) / p

over the interior nodal values; Newton's method with backtracking on E finds
it, each step one banded Cholesky solve with the symmetric positive definite
Hessian (Barrett & Liu, "Finite element approximation of the p-Laplacian",
Math. Comp. 61 (1993)).

Levels of w are extracted per polar ray (star-shapedness makes w monotone
along rays), and each extracted curve carries the full second-order data:
|grad w|, the PDE-consistent mean curvature

    H = (|grad w| - (p-1) <grad|grad w|, grad w>/|grad w|^2) (1 + (2-p)/(p-1) theta_eps),

the parallel-circle curvature kappa_phi = nu_cyl/(r sin theta), the meridian
curvature kappa_m = H - kappa_phi, |h-ring|^2 = (kappa_m - kappa_phi)^2/2 and
the tangential derivatives of |grad w| and H along the meridian.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .numerics import single_threaded_blas, solve_spd

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


class Solver2DError(RuntimeError):
    """Parameter validation or state errors of the 2-D solver."""


class NonMonotoneRayError(RuntimeError):
    """w fails to increase along some polar ray; extraction is ill-posed there."""


class LevelRangeError(ValueError):
    """Requested level outside the range covered by every ray."""


@dataclass(frozen=True)
class AxisymmetricDomain:
    """Star-shaped inner boundary r = rho(theta) inside the sphere r = R."""

    rho: Callable[[np.ndarray], np.ndarray]
    drho: Callable[[np.ndarray], np.ndarray]
    R: float
    label: str

    def __post_init__(self):
        th = np.linspace(0.0, math.pi, 181)
        rr = np.asarray(self.rho(th), dtype=float)
        if np.any(rr <= 0.0) or np.any(rr >= self.R):
            raise Solver2DError(f"need 0 < rho(theta) < R={self.R} everywhere")
        dr = np.asarray(self.drho(th), dtype=float)
        if abs(dr[0]) > 1e-10 or abs(dr[-1]) > 1e-10:
            raise Solver2DError("rho'(0) and rho'(pi) must vanish (axis regularity)")


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


# the element-matrix pairs (k, l) with conn[:, k] >= conn[:, l]: its lower
# triangle in natural node order
_LOWER_K = np.array([0, 1, 2, 3, 1, 2, 3, 1, 3, 3])
_LOWER_L = np.array([0, 1, 2, 3, 0, 0, 0, 2, 1, 2])


class _Mesh:
    """Mapped-grid geometry: per-Gauss-point derivative coefficients and
    volume weights, and where each element entry lands in the lower band of
    the interior block."""

    def __init__(self, domain: AxisymmetricDomain, Nsigma: int, Ntheta: int):
        self.dsig = 1.0 / Nsigma
        self.dth = math.pi / Ntheta
        self.n_nodes = (Nsigma + 1) * (Ntheta + 1)

        idx = np.arange(self.n_nodes).reshape(Nsigma + 1, Ntheta + 1)
        # local node order (sigma, theta): (0,0), (1,0), (0,1), (1,1)
        self.conn = np.stack(
            [
                idx[:-1, :-1].ravel(),
                idx[1:, :-1].ravel(),
                idx[:-1, 1:].ravel(),
                idx[1:, 1:].ravel(),
            ],
            axis=1,
        )
        ii, jj = np.meshgrid(np.arange(Nsigma), np.arange(Ntheta), indexing="ij")
        ii = ii.ravel()
        jj = jj.ravel()

        Drs, Dts, vols = [], [], []
        for xi in _GP:
            for eta in _GP:
                dNdxi = np.array([-(1.0 - eta), (1.0 - eta), -eta, eta])
                dNdeta = np.array([-(1.0 - xi), -xi, (1.0 - xi), xi])
                tg = (jj + eta) * self.dth
                r_g, rs_g, rt_g = _map(domain, (ii + xi) * self.dsig, tg)
                shear = rt_g / rs_g
                Drs.append(dNdxi[None, :] / (self.dsig * rs_g[:, None]))
                Dts.append((dNdeta[None, :] / self.dth - shear[:, None] * dNdxi[None, :] / self.dsig) / r_g[:, None])
                vols.append(r_g**2 * np.sin(tg) * rs_g * self.dsig * self.dth * 0.25)
        self.Dr = np.stack(Drs)  # (gp, ne, 4) coefficients of the radial derivative
        self.Dt = np.stack(Dts)  # (gp, ne, 4) coefficients of the tangential derivative
        self.vol = np.stack(vols)  # (gp, ne) volume weights

        # the unknowns are the nodes of sigma rows 1..Nsigma-1, numbered
        # naturally, so the interior block has Ntheta+2 subdiagonals
        self.inner = slice(Ntheta + 1, self.n_nodes - (Ntheta + 1))
        self.n_inner = (Nsigma - 1) * (Ntheta + 1)
        self.band_rows = Ntheta + 3
        gi = self.conn[:, _LOWER_K] - (Ntheta + 1)
        gj = self.conn[:, _LOWER_L] - (Ntheta + 1)
        self.band_keep = (gj >= 0) & (gi < self.n_inner)
        # entry (gi, gj) is band[gi - gj, gj]: flat index of the transpose
        self.band_pos = (gi - gj + self.band_rows * gj)[self.band_keep]

    def grad(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Radial and tangential derivative of the nodal field v, (gp, ne) each."""
        ve = v[self.conn]
        return np.einsum("gek,ek->ge", self.Dr, ve), np.einsum("gek,ek->ge", self.Dt, ve)

    def load(self, coef: np.ndarray, vr: np.ndarray, vt: np.ndarray) -> np.ndarray:
        """Nodal vector sum over Gauss points of coef (vr dphi_r + vt dphi_t)."""
        loc = np.einsum("ge,gek->ek", coef * vr, self.Dr) + np.einsum("ge,gek->ek", coef * vt, self.Dt)
        return np.bincount(self.conn.ravel(), loc.ravel(), minlength=self.n_nodes)

    def hessian_band(self, coef: np.ndarray, ur: np.ndarray, ut: np.ndarray, s: np.ndarray, p: float) -> np.ndarray:
        """Lower band (LAPACK storage, Fortran order) of the energy Hessian on
        the interior block: per Gauss point coef (grad phi_k . grad phi_l)
        + (p-2) coef/s (grad u . grad phi_k)(grad u . grad phi_l), with
        coef = vol s^((p-2)/2) and s = |grad u|^2 + eps^2."""
        K, L = _LOWER_K, _LOWER_L
        vals = 0.0
        for a, b, Dr, Dt, gr, gt in zip(coef, (p - 2.0) * coef / s, self.Dr, self.Dt, ur, ut):
            gphi = gr[:, None] * Dr + gt[:, None] * Dt
            vals = vals + a[:, None] * (Dr[:, K] * Dr[:, L] + Dt[:, K] * Dt[:, L]) + b[:, None] * gphi[:, K] * gphi[:, L]
        band = np.bincount(self.band_pos, vals[self.band_keep], minlength=self.band_rows * self.n_inner)
        return band.reshape(self.n_inner, self.band_rows).T


@dataclass
class Field2D:
    """A solved (or radially seeded) nodal field on the mapped grid.

    ``u`` is (Nsigma+1, Ntheta+1); derived fields are nodal arrays computed
    by mapped finite differences the first time they are needed.  ``history``
    holds one (energy, residual_rel, step_length) tuple per Newton step.
    """

    domain: AxisymmetricDomain
    p: float
    eps: float
    u_R: float
    u: np.ndarray
    converged: bool
    outer_iterations: int
    residual_rel: float
    history: list = field(default_factory=list)
    _stiffness: Optional[np.ndarray] = field(default=None, repr=False)  # nodal K(u) u
    _derived: Optional[dict] = field(default=None, repr=False)
    _levels: dict = field(default_factory=dict, repr=False)

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
        """Nodal w, gradient components, |grad w|, theta_eps, H, curvatures."""
        if self._derived is not None:
            return self._derived
        if np.any(self.u <= 0.0):
            raise Solver2DError("u must stay positive to define w = -(p-1) ln u")
        p, eps = self.p, self.eps
        r = self.r
        w = -(p - 1.0) * np.log(self.u)
        du_r, du_t = self._grad(self.u, r)
        Gu2 = du_r**2 + du_t**2
        theta_eps = eps * eps / (Gu2 + eps * eps) if eps > 0.0 else np.zeros_like(Gu2)
        Wr = -(p - 1.0) * du_r / self.u
        Wt = -(p - 1.0) * du_t / self.u
        G = np.hypot(Wr, Wt)
        Gsafe = np.where(G > 0.0, G, 1.0)
        nur = Wr / Gsafe
        nut = Wt / Gsafe
        Qr, Qt = self._grad(G, r)
        ip_GW = Qr * Wr + Qt * Wt
        factor = 1.0 + (2.0 - p) / (p - 1.0) * theta_eps
        H = (G - (p - 1.0) * ip_GW / Gsafe**2) * factor
        Hr, Ht = self._grad(H, r)
        kphi = _kappa_phi(nur, nut, r, H, self.theta)
        km = H - kphi
        self._derived = {
            "r": r,
            "w": w,
            "Wr": Wr,
            "Wt": Wt,
            "G": G,
            "theta_eps": theta_eps,
            "nur": nur,
            "nut": nut,
            "Qr": Qr,
            "Qt": Qt,
            "H": H,
            "Hr": Hr,
            "Ht": Ht,
            "kappa_phi": kphi,
            "kappa_m": km,
            "hring_sq": 0.5 * (km - kphi) ** 2,
        }
        return self._derived

    def w_range(self) -> tuple[float, float]:
        w = self.derived()["w"]
        return 0.0, float(np.min(w[-1, :]))

    def level(self, t: float) -> "LevelCurve":
        key = round(float(t), 12)
        if key not in self._levels:
            self._levels[key] = extract_level(self, t)
        return self._levels[key]

    def table(self):
        """(header, rows) with one row sigma, theta, u per node, sigma-major."""
        theta = self.theta
        rows = [(s, th, self.u[i, j]) for i, s in enumerate(self.sigma) for j, th in enumerate(theta)]
        return ["sigma", "theta", "u"], rows


@dataclass
class LevelCurve:
    """One extracted level {w = t}: an axisymmetric curve theta -> r(theta)
    with per-sample first- and second-order geometry."""

    t: float
    theta: np.ndarray
    r: np.ndarray
    grad: np.ndarray
    grad_tangential: np.ndarray
    H: np.ndarray
    H_tangential: np.ndarray
    kappa_m: np.ndarray
    kappa_phi: np.ndarray
    hring_sq: np.ndarray
    theta_eps: np.ndarray
    measure: np.ndarray

    # the solver's ambient space is flat 3-space
    n = 3
    scalar = 0.0

    def integrate(self, values) -> float:
        """Surface integral over the level (azimuthal factor included)."""
        from scipy.integrate import simpson

        return float(simpson(np.asarray(values, dtype=float) * self.measure, x=self.theta))

    @property
    def area(self) -> float:
        return self.integrate(np.ones_like(self.theta))

    @property
    def willmore(self) -> float:
        return self.integrate(self.H**2)

    @property
    def sc_top_integral(self) -> float:
        """int Sc^T: Gauss equation in flat ambient gives Sc^T = 2 k_m k_phi."""
        return self.integrate(2.0 * self.kappa_m * self.kappa_phi)

    @property
    def chi_proxy(self) -> float:
        return self.sc_top_integral / (4.0 * math.pi)

    def table(self):
        """(header, rows) with one row theta, r, grad_w, H, kappa_m, kappa_phi per sample."""
        header = ["theta", "r", "grad_w", "H", "kappa_m", "kappa_phi"]
        return header, list(zip(self.theta, self.r, self.grad, self.H, self.kappa_m, self.kappa_phi))


def _kappa_phi(nur, nut, r, H, theta):
    """Parallel-circle curvature nu_cyl/(r sin theta) over theta on the last
    axis; on the axis the level is umbilic, and it is H/2 there."""
    sin = np.sin(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        kphi = (nur * sin + nut * np.cos(theta)) / (r * sin)
    kphi[..., [0, -1]] = 0.5 * H[..., [0, -1]]
    return kphi


def extract_level(fieldv: Field2D, t: float) -> LevelCurve:
    der = fieldv.derived()
    w = der["w"]
    lo, hi = fieldv.w_range()
    if not (lo < t < hi):
        raise LevelRangeError(f"level t={t} outside the covered range ({lo}, {hi})")
    diffs = np.diff(w, axis=0)
    if np.any(diffs <= 0.0):
        j = int(np.argmin(np.min(diffs, axis=0)))
        raise NonMonotoneRayError(
            f"w is not strictly increasing along the ray theta={fieldv.theta[j]:.6f}"
        )
    # rays increase strictly, so the count of nodes below t is the insertion index
    k = np.clip((w < t).sum(axis=0), 1, w.shape[0] - 1)
    cols = np.arange(w.shape[1])
    frac = (t - w[k - 1, cols]) / (w[k, cols] - w[k - 1, cols])

    def interp(F: np.ndarray) -> np.ndarray:
        lo_v = F[k - 1, cols]
        return lo_v + frac * (F[k, cols] - lo_v)

    theta = fieldv.theta
    r = interp(der["r"])
    G = interp(der["G"])
    if np.min(G) < 10.0 * fieldv.eps:
        raise LevelRangeError(
            f"min |grad w| = {np.min(G):.3e} on level t={t} is below 10*eps; "
            "the curvature formulas are unreliable there"
        )
    Wr = interp(der["Wr"])
    Wt = interp(der["Wt"])
    nur = Wr / G
    nut = Wt / G
    Qr = interp(der["Qr"])
    Qt = interp(der["Qt"])
    Hr = interp(der["Hr"])
    Ht = interp(der["Ht"])
    H = interp(der["H"])
    theta_eps = interp(der["theta_eps"])
    dr = -r * Wt / Wr  # implicit differentiation of w(r(theta), theta) = t
    kphi = _kappa_phi(nur, nut, r, H, theta)
    km = H - kphi
    # meridian unit tangent is nu rotated by 90 degrees in the (r, theta) plane
    grad_tan = np.abs(-Qr * nut + Qt * nur)
    H_tan = np.abs(-Hr * nut + Ht * nur)
    measure = 2.0 * math.pi * r * np.sin(theta) * np.sqrt(r * r + dr * dr)
    return LevelCurve(
        t=float(t),
        theta=theta,
        r=r,
        grad=G,
        grad_tangential=grad_tan,
        H=H,
        H_tangential=H_tan,
        kappa_m=km,
        kappa_phi=kphi,
        hring_sq=0.5 * (km - kphi) ** 2,
        theta_eps=theta_eps,
        measure=measure,
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
    """Newton solve of the regularized p-Laplace problem.

    Each step solves the Hessian system of the discrete energy and
    backtracks on the energy (Armijo); a step that changes the energy by no
    more than a few ulps is accepted, since rounding hides any decrease
    there.  Iteration stops when the relative residual ||(K(u) u)_I|| /
    ||K(u)_ID u_D|| -- the energy gradient over the interior nodes I, scaled
    by the Dirichlet load -- drops below tol.  Exhausting max_outer, or a
    line search that cannot decrease the energy, returns the field flagged
    non-converged rather than raising.  The solve runs on one BLAS thread
    (``single_threaded_blas``): its banded Cholesky and vector products are
    too small to gain from more.
    """
    Nsigma, Ntheta = shape
    if Nsigma < 16 or Ntheta < 16:
        raise Solver2DError(f"grid {shape} too coarse; need at least 16x16")
    if not (1.0 < p <= 2.0):
        raise Solver2DError(f"p={p} outside (1, 2]")
    if not (0.0 < u_R < 1.0):
        raise Solver2DError(f"u_R={u_R} outside (0, 1)")
    if eps is None:
        eps = min(1e-3, 1.0 / Nsigma)
    if eps < 1e-8:
        raise Solver2DError(f"eps={eps} below 1e-8: the p->1 coefficient would overflow")

    # harmonic-like initial profile, exact boundary values (row 0 of r is rho)
    sigma, theta = _nodes(shape)
    r = _map(domain, sigma[:, None], theta[None, :])[0]
    u = ((1.0 / r - 1.0 / domain.R) / (1.0 / r[:1] - 1.0 / domain.R)) * (1.0 - u_R) + u_R

    mesh = _Mesh(domain, Nsigma, Ntheta)
    inner = mesh.inner
    u_flat = u.ravel()
    u_dir = u_flat.copy()
    u_dir[inner] = 0.0
    dir_r, dir_t = mesh.grad(u_dir)

    def energy(v):
        vr, vt = mesh.grad(v)
        return float(np.sum(mesh.vol * (vr * vr + vt * vt + eps * eps) ** (p / 2.0))) / p

    history = []
    E = energy(u_flat)
    step = 0.0
    converged = False
    it = 0
    for it in range(max_outer + 1):
        ur, ut = mesh.grad(u_flat)
        s = ur * ur + ut * ut + eps * eps
        coef = mesh.vol * s ** ((p - 2.0) / 2.0)
        Ku = mesh.load(coef, ur, ut)
        dirichlet_load = mesh.load(coef, dir_r, dir_t)[inner]
        res_rel = float(np.linalg.norm(Ku[inner])) / float(np.linalg.norm(dirichlet_load))
        if it:
            history.append((E, res_rel, step))
        if res_rel < tol:
            converged = True
            break
        if it == max_outer:
            break
        direction = -solve_spd(mesh.hessian_band(coef, ur, ut, s, p), Ku[inner]).x
        slope = float(Ku[inner] @ direction)
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = u_flat.copy()
            trial[inner] += step * direction
            E_trial = energy(trial)
            change = E_trial - E
            if change <= 1e-4 * step * slope or abs(change) <= 4.0 * np.spacing(E):
                break
            step *= 0.5
        else:
            break  # the energy does not decrease along the Newton direction
        u_flat, E = trial, E_trial

    u = u_flat.reshape(Nsigma + 1, Ntheta + 1)
    if np.any(u <= 0.0) or np.max(u) > 1.0 + 1e-6:
        raise Solver2DError("solution violates the maximum principle 0 < u <= 1")
    return Field2D(
        domain=domain,
        p=float(p),
        eps=float(eps),
        u_R=float(u_R),
        u=u,
        converged=converged,
        outer_iterations=it,
        residual_rel=res_rel,
        history=history,
        _stiffness=Ku,
    )


def field_from_radial(domain: AxisymmetricDomain, shape: tuple[int, int], pot) -> Field2D:
    """Seed a Field2D with exact nodal data of a radial potential.

    The radial annulus must cover [min rho, R]; the resulting field is exact
    at the nodes, so discretization errors of the derived-field pipeline can
    be measured in isolation.
    """
    sigma, theta = _nodes(shape)
    r = _map(domain, sigma[:, None], theta[None, :])[0]
    r_min = float(np.min(r[0]))
    if pot.r0 > r_min + 1e-12 or pot.R < domain.R - 1e-12:
        raise Solver2DError(f"radial annulus [{pot.r0}, {pot.R}] does not cover the domain [{r_min}, {domain.R}]")
    u = pot.u(r)
    return Field2D(
        domain=domain,
        p=float(pot.p),
        eps=float(pot.eps) if pot.eps is not None else 0.0,
        u_R=float(pot.u(domain.R)),
        u=u,
        converged=True,
        outer_iterations=0,
        residual_rel=0.0,
    )


def flux_profile(fieldv: Field2D) -> np.ndarray:
    """Discrete flux through each sigma-layer interface (azimuthal factor 2 pi).

    For the converged system the flux is the same through every interface up
    to the nonlinear residual: the discrete conservation law of the scheme.
    """
    if fieldv._stiffness is None:
        raise Solver2DError("flux profile needs the nodal K(u) u of a solve")
    row_sums = fieldv._stiffness.reshape(fieldv.u.shape).sum(axis=1)
    return -2.0 * math.pi * np.cumsum(row_sums)[:-1]


def divergence_residuals(fieldv: Field2D, alpha: float, margin: float = 0.15) -> dict:
    """Residuals of the two divergence identities on the interior window.

    J = G^(a+p-2) grad w and Y = G^(a+p-3)(grad G + (p-2)(1-theta) grad^perp G)
    are assembled from nodal data; their mapped finite-difference divergences
    are compared against the analytic right sides (flat ambient, n = 3):

      div J = [a-(2-p)theta] G^(a+p-3) <grad G, grad w> + (1+(2-p)theta/(p-1)) G^(a+p)
      div Y = G^(a+p-2) (D_plus + D_sigma)

    Returns max and rms residuals over sigma in [margin, 1-margin], theta in
    [margin*pi, (1-margin)*pi], plus the field scales for normalization.
    """
    der = fieldv.derived()
    p, eps = fieldv.p, fieldv.eps
    n = 3.0
    G = der["G"]
    th = der["theta_eps"]
    Wr, Wt = der["Wr"], der["Wt"]
    Qr, Qt = der["Qr"], der["Qt"]
    nur, nut = der["nur"], der["nut"]
    r = der["r"]
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
        + der["hring_sq"]
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

    smask = (fieldv.sigma >= margin) & (fieldv.sigma <= 1.0 - margin)
    tmask = (fieldv.theta >= margin * math.pi) & (fieldv.theta <= (1.0 - margin) * math.pi)
    win = np.ix_(smask, tmask)

    def stats(res, scale):
        v = np.abs(res[win])
        s = float(np.max(np.abs(scale[win])))
        return {"max": float(np.max(v)), "rms": float(np.sqrt(np.mean(v**2))), "scale": s}

    return {"J": stats(res_J, rhs_J), "Y": stats(res_Y, rhs_Y), "eps": eps, "alpha": alpha}

