"""Axisymmetric solver for the regularized p-Laplace problem in flat 3-space.

The unknown is u with div(a(|grad u|) grad u) = 0, a(q) = (q^2+eps^2)^((p-2)/2),
u = 1 on the inner star-shaped boundary r = rho(theta) and u = u_R on the
outer sphere r = R; the potential is w = -(p-1) ln u.  The annular region is
mapped to the unit square by r(sigma, theta) = rho(theta) + sigma (R - rho),
where the physical gradient picks up a shear:

    u_r = u_sigma / Delta,     u_theta|_r = u_thetahat - u_sigma rho'(1-sigma)/Delta,

with Delta = R - rho.  The discretization is bilinear Galerkin on the mapped
rectangles (the variational form keeps the system symmetric for conjugate
gradients and the vanishing r^2 sin(theta) weight handles the axis without
ghost rows), with damped lagged-diffusivity (Picard) outer iterations.

Levels of w are extracted per polar ray (star-shapedness makes w monotone
along rays), and each extracted curve carries the full second-order data:
|grad w|, the PDE-consistent mean curvature

    H = (|grad w| - (p-1) <grad|grad w|, grad w>/|grad w|^2) (1 + (2-p)/(p-1) theta_eps),

the parallel-circle curvature kappa_phi = nu_cyl/(r sin theta), the meridian
curvature kappa_m = H - kappa_phi, |h-ring|^2 = (kappa_m - kappa_phi)^2/2 and
the tangential derivatives of |grad w| and H along the meridian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.integrate import simpson

from .numerics import SpdResult, Tolerance, solve_spd

__all__ = [
    "AxisymmetricDomain",
    "Field2D",
    "LevelCurve",
    "LevelSetGeometry",
    "Solver2DError",
    "NonMonotoneRayError",
    "LevelRangeError",
    "sphere_domain",
    "ellipsoid_domain",
    "solve_2d",
    "extract_level",
    "level_functionals",
    "field_from_radial",
    "flux_profile",
    "divergence_residuals",
]

_GP = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


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
    params: dict

    def __post_init__(self):
        th = np.linspace(0.0, math.pi, 181)
        rr = np.asarray(self.rho(th), dtype=float)
        if np.any(rr <= 0.0) or np.any(rr >= self.R):
            raise Solver2DError(f"need 0 < rho(theta) < R={self.R} everywhere")
        dr = np.asarray(self.drho(th), dtype=float)
        if abs(dr[0]) > 1e-10 or abs(dr[-1]) > 1e-10:
            raise Solver2DError("rho'(0) and rho'(pi) must vanish (axis regularity)")


def sphere_domain(r0: float = 1.0, R: float = 8.0) -> AxisymmetricDomain:
    r0 = float(r0)
    return AxisymmetricDomain(
        rho=lambda th: np.full_like(np.asarray(th, dtype=float), r0),
        drho=lambda th: np.zeros_like(np.asarray(th, dtype=float)),
        R=float(R),
        label=f"sphere(r0={r0})",
        params={"shape": "sphere", "r0": r0, "R": float(R)},
    )


def ellipsoid_domain(a_ax: float = 1.3, b_eq: float = 1.0, R: float = 8.0) -> AxisymmetricDomain:
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
        params={"shape": "ellipsoid", "a_ax": a_ax, "b_eq": b_eq, "R": float(R)},
    )


class _Mesh:
    """Mapped-grid geometry and the per-Gauss-point stiffness skeleton."""

    def __init__(self, domain: AxisymmetricDomain, Nsigma: int, Ntheta: int):
        self.domain = domain
        self.Nsigma = Nsigma
        self.Ntheta = Ntheta
        self.sigma = np.linspace(0.0, 1.0, Nsigma + 1)
        self.theta = np.linspace(0.0, math.pi, Ntheta + 1)
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
        ne = Nsigma * Ntheta
        ii, jj = np.meshgrid(np.arange(Nsigma), np.arange(Ntheta), indexing="ij")
        ii = ii.ravel()
        jj = jj.ravel()

        self.Dr = []  # per gp: (ne, 4) coefficients of the radial derivative
        self.Dt = []  # per gp: (ne, 4) coefficients of the tangential derivative
        self.P = []  # per gp: (ne, 4, 4) grad-grad matrices times the volume weight
        for xi in _GP:
            for eta in _GP:
                dNdxi = np.array([-(1.0 - eta), (1.0 - eta), -eta, eta])
                dNdeta = np.array([-(1.0 - xi), -xi, (1.0 - xi), xi])
                sg = (ii + xi) * self.dsig
                tg = (jj + eta) * self.dth
                rho_g = np.asarray(domain.rho(tg), dtype=float)
                delta_g = domain.R - rho_g
                shear = np.asarray(domain.drho(tg), dtype=float) * (1.0 - sg) / delta_g
                r_g = rho_g + sg * delta_g
                Dr = dNdxi[None, :] / (self.dsig * delta_g[:, None])
                Dt = (dNdeta[None, :] / self.dth - shear[:, None] * dNdxi[None, :] / self.dsig) / r_g[:, None]
                vol = r_g**2 * np.sin(tg) * delta_g * self.dsig * self.dth * 0.25
                P = (Dr[:, :, None] * Dr[:, None, :] + Dt[:, :, None] * Dt[:, None, :]) * vol[:, None, None]
                self.Dr.append(Dr)
                self.Dt.append(Dt)
                self.P.append(P)
        self.rows = np.broadcast_to(self.conn[:, :, None], (ne, 4, 4)).ravel()
        self.cols = np.broadcast_to(self.conn[:, None, :], (ne, 4, 4)).ravel()

    def stiffness(self, u_flat: np.ndarray, p: float, eps: float) -> sparse.csr_matrix:
        ue = u_flat[self.conn]
        vals = np.zeros((len(self.conn), 4, 4))
        for Dr, Dt, P in zip(self.Dr, self.Dt, self.P):
            q2 = np.einsum("ek,ek->e", Dr, ue) ** 2 + np.einsum("ek,ek->e", Dt, ue) ** 2
            a = (q2 + eps * eps) ** ((p - 2.0) / 2.0)
            vals += a[:, None, None] * P
        K = sparse.coo_matrix((vals.ravel(), (self.rows, self.cols)), shape=(self.n_nodes, self.n_nodes))
        return K.tocsr()


@dataclass
class Field2D:
    """A solved (or radially seeded) nodal field on the mapped grid.

    ``u`` is (Nsigma+1, Ntheta+1); derived fields are nodal arrays computed
    by mapped finite differences the first time they are needed.
    """

    domain: AxisymmetricDomain
    p: float
    eps: float
    u_R: float
    u: np.ndarray
    converged: bool
    outer_iterations: int
    residual_rel: float
    _stiffness: Optional[sparse.csr_matrix] = field(default=None, repr=False)
    _derived: Optional[dict] = field(default=None, repr=False)
    _levels: dict = field(default_factory=dict, repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape[0] - 1, self.u.shape[1] - 1

    @property
    def sigma(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.u.shape[0])

    @property
    def theta(self) -> np.ndarray:
        return np.linspace(0.0, math.pi, self.u.shape[1])

    # -- mapped finite-difference helpers -------------------------------
    def _geometry(self):
        th = self.theta
        rho = np.asarray(self.domain.rho(th), dtype=float)
        delta = self.domain.R - rho
        shear = np.asarray(self.domain.drho(th), dtype=float)[None, :] * (1.0 - self.sigma)[:, None] / delta[None, :]
        r = rho[None, :] + self.sigma[:, None] * delta[None, :]
        return rho, delta, shear, r

    def _d_r(self, F: np.ndarray) -> np.ndarray:
        _, delta, _, _ = self._geometry()
        return np.gradient(F, self.sigma, axis=0, edge_order=2) / delta[None, :]

    def _d_theta_at_r(self, F: np.ndarray) -> np.ndarray:
        _, _, shear, _ = self._geometry()
        return np.gradient(F, self.theta, axis=1, edge_order=2) - shear * np.gradient(
            F, self.sigma, axis=0, edge_order=2
        )

    def derived(self) -> dict:
        """Nodal w, gradient components, |grad w|, theta_eps, H, curvatures."""
        if self._derived is not None:
            return self._derived
        if np.any(self.u <= 0.0):
            raise Solver2DError("u must stay positive to define w = -(p-1) ln u")
        p, eps = self.p, self.eps
        _, _, _, r = self._geometry()
        th = self.theta[None, :]
        w = -(p - 1.0) * np.log(self.u)
        du_r = self._d_r(self.u)
        du_t = self._d_theta_at_r(self.u) / r
        du_t[:, 0] = 0.0
        du_t[:, -1] = 0.0  # axis symmetry
        Gu2 = du_r**2 + du_t**2
        theta_eps = eps * eps / (Gu2 + eps * eps) if eps > 0.0 else np.zeros_like(Gu2)
        Wr = -(p - 1.0) * du_r / self.u
        Wt = -(p - 1.0) * du_t / self.u
        G = np.hypot(Wr, Wt)
        Gsafe = np.where(G > 0.0, G, 1.0)
        nur = Wr / Gsafe
        nut = Wt / Gsafe
        Qr = self._d_r(G)
        Qt = self._d_theta_at_r(G) / r
        Qt[:, 0] = 0.0
        Qt[:, -1] = 0.0
        ip_GW = Qr * Wr + Qt * Wt
        factor = 1.0 + (2.0 - p) / (p - 1.0) * theta_eps
        H = (G - (p - 1.0) * ip_GW / Gsafe**2) * factor
        Hr = self._d_r(H)
        Ht = self._d_theta_at_r(H) / r
        Ht[:, 0] = 0.0
        Ht[:, -1] = 0.0
        sin = np.sin(th)
        nu_cyl = nur * sin + nut * np.cos(th)
        with np.errstate(divide="ignore", invalid="ignore"):
            kphi = nu_cyl / (r * sin)
        kphi[:, 0] = 0.5 * H[:, 0]
        kphi[:, -1] = 0.5 * H[:, -1]  # on-axis limit: umbilic
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

    def level(self, t: float, cache: bool = True) -> "LevelCurve":
        key = round(float(t), 12)
        if cache and key in self._levels:
            return self._levels[key]
        curve = extract_level(self, t)
        if cache:
            self._levels[key] = curve
        return curve

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
    dr: np.ndarray
    grad: np.ndarray
    grad_tangential: np.ndarray
    H: np.ndarray
    H_tangential: np.ndarray
    kappa_m: np.ndarray
    kappa_phi: np.ndarray
    kappa_m_geometric: np.ndarray
    hring_sq: np.ndarray
    theta_eps: np.ndarray
    measure: np.ndarray

    def integrate(self, values) -> float:
        """Surface integral over the level (azimuthal factor included)."""
        return float(simpson(np.asarray(values, dtype=float) * self.measure, x=self.theta))

    @property
    def area_value(self) -> float:
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
    nth = w.shape[1]
    sig = fieldv.sigma
    k = np.empty(nth, dtype=int)
    frac = np.empty(nth)
    for j in range(nth):
        kj = int(np.searchsorted(w[:, j], t))
        kj = min(max(kj, 1), w.shape[0] - 1)
        k[j] = kj
        frac[j] = (t - w[kj - 1, j]) / (w[kj, j] - w[kj - 1, j])
    cols = np.arange(nth)

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
    sin = np.sin(theta)
    nu_cyl = nur * sin + nut * np.cos(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        kphi = nu_cyl / (r * sin)
    kphi[0] = 0.5 * H[0]
    kphi[-1] = 0.5 * H[-1]
    km = H - kphi
    d2r = np.gradient(np.gradient(r, theta, edge_order=2), theta, edge_order=2)
    km_geom = (r * r + 2.0 * dr * dr - r * d2r) / (r * r + dr * dr) ** 1.5
    # meridian unit tangent is nu rotated by 90 degrees in the (r, theta) plane
    grad_tan = np.abs(-Qr * nut + Qt * nur)
    H_tan = np.abs(-Hr * nut + Ht * nur)
    measure = 2.0 * math.pi * r * sin * np.sqrt(r * r + dr * dr)
    return LevelCurve(
        t=float(t),
        theta=theta,
        r=r,
        dr=dr,
        grad=G,
        grad_tangential=grad_tan,
        H=H,
        H_tangential=H_tan,
        kappa_m=km,
        kappa_phi=kphi,
        kappa_m_geometric=km_geom,
        hring_sq=0.5 * (km - kphi) ** 2,
        theta_eps=theta_eps,
        measure=measure,
    )


@dataclass
class LevelSetGeometry:
    """Per-level integral geometry of a family of extracted levels."""

    t: np.ndarray
    area: np.ndarray
    willmore: np.ndarray
    hring_int: np.ndarray
    sc_top_int: np.ndarray
    chi: np.ndarray
    grad_power_int: np.ndarray
    qp_term_tangential: np.ndarray
    qp_term_hring: np.ndarray
    qp_term_third: np.ndarray
    alpha: float
    p: float
    beta: float
    curves: list


def level_functionals(fieldv: Field2D, t_samples, alpha: float, beta: Optional[float] = None) -> LevelSetGeometry:
    """Integrate area, Willmore, |h-ring|^2, Sc^T, |grad w|^beta and the three
    weighted Q_p terms over each requested level."""
    p = fieldv.p
    n = 3
    if beta is None:
        beta = alpha + p - 1.0
    ts = np.asarray(t_samples, dtype=float)
    area = np.empty_like(ts)
    willmore = np.empty_like(ts)
    hring = np.empty_like(ts)
    sctop = np.empty_like(ts)
    gpow = np.empty_like(ts)
    q1 = np.empty_like(ts)
    q2 = np.empty_like(ts)
    q3 = np.empty_like(ts)
    curves = []
    for i, t in enumerate(ts):
        c = fieldv.level(t)
        curves.append(c)
        area[i] = c.area_value
        willmore[i] = c.willmore
        hring[i] = c.integrate(c.hring_sq)
        sctop[i] = c.sc_top_integral
        gpow[i] = c.integrate(c.grad**beta)
        weight = c.grad ** (alpha + p - 3.0)
        q1[i] = c.integrate(weight * (alpha - (2.0 - p)) * (c.grad_tangential / c.grad) ** 2)
        q2[i] = c.integrate(weight * c.hring_sq)
        q3[i] = c.integrate(
            weight
            * (alpha - (n - p) / (n - 1.0))
            / (p - 1.0)
            * (c.H - (n - 1.0) / (n - p) * c.grad) ** 2
        )
    return LevelSetGeometry(
        t=ts,
        area=area,
        willmore=willmore,
        hring_int=hring,
        sc_top_int=sctop,
        chi=sctop / (4.0 * math.pi),
        grad_power_int=gpow,
        qp_term_tangential=q1,
        qp_term_hring=q2,
        qp_term_third=q3,
        alpha=alpha,
        p=p,
        beta=beta,
        curves=curves,
    )


def solve_2d(
    domain: AxisymmetricDomain,
    p: float,
    u_R: float,
    shape: tuple[int, int] = (64, 32),
    eps: Optional[float] = None,
    tol: float = 1e-9,
    max_outer: int = 80,
    damping: float = 0.7,
    inner_tol: Tolerance = Tolerance(abs_tol=1e-30, rel_tol=1e-11, max_iter=60000),
) -> Field2D:
    """Damped lagged-diffusivity solve of the regularized p-Laplace problem.

    The first Picard step is undamped (it is exact for p = 2); iteration
    stops when the relative residual of the current iterate in the freshly
    assembled system drops below tol.  Exhausting max_outer returns the
    field flagged non-converged rather than raising.
    """
    Nsigma, Ntheta = shape
    if Nsigma < 16 or Ntheta < 16:
        raise Solver2DError(f"grid {shape} too coarse; need at least 16x16")
    if not (1.0 < p <= 2.0):
        raise Solver2DError(f"p={p} outside (1, 2]")
    if not (0.0 < u_R <= 1.0):
        raise Solver2DError(f"u_R={u_R} outside (0, 1]")
    if eps is None:
        eps = min(1e-3, 1.0 / Nsigma)
    if eps < 1e-8:
        raise Solver2DError(f"eps={eps} below 1e-8: the p->1 coefficient would overflow")

    mesh = _Mesh(domain, Nsigma, Ntheta)
    if u_R == 1.0:
        return Field2D(domain, p, float(eps), 1.0, np.ones((Nsigma + 1, Ntheta + 1)), True, 0, 0.0)

    # harmonic-like initial profile, exact boundary values
    rho = np.asarray(domain.rho(mesh.theta), dtype=float)[None, :]
    r = rho + mesh.sigma[:, None] * (domain.R - rho)
    u = ((1.0 / r - 1.0 / domain.R) / (1.0 / rho - 1.0 / domain.R)) * (1.0 - u_R) + u_R

    n_nodes = mesh.n_nodes
    idx2 = np.arange(n_nodes).reshape(Nsigma + 1, Ntheta + 1)
    dir_idx = np.concatenate([idx2[0, :], idx2[-1, :]])
    int_idx = idx2[1:-1, :].ravel()
    u_flat = u.ravel()
    u_dir = u_flat[dir_idx]

    K = None
    res_rel = math.inf
    converged = False
    it = 0
    for it in range(max_outer + 1):
        K = mesh.stiffness(u_flat, p, eps)
        A_int = K[int_idx]
        A_II = A_int[:, int_idx]
        rhs = -A_int[:, dir_idx] @ u_dir
        rhs_norm = float(np.linalg.norm(rhs))
        res_rel = float(np.linalg.norm(A_II @ u_flat[int_idx] - rhs)) / rhs_norm
        if res_rel < tol:
            converged = True
            break
        if it == max_outer:
            break
        diag = A_II.diagonal()
        lin = solve_spd(
            lambda v: A_II @ v,
            rhs,
            tol=inner_tol,
            precond=lambda v: v / diag,
            x0=u_flat[int_idx],
        )
        if not lin.converged:
            raise Solver2DError(
                f"inner conjugate-gradient solve stalled at residual {lin.residual:.3e}"
            )
        omega = 1.0 if it == 0 else damping
        u_flat[int_idx] = (1.0 - omega) * u_flat[int_idx] + omega * lin.x

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
        _stiffness=K,
    )


def field_from_radial(domain: AxisymmetricDomain, shape: tuple[int, int], pot) -> Field2D:
    """Seed a Field2D with exact nodal data of a radial potential.

    The radial annulus must cover [min rho, R]; the resulting field is exact
    at the nodes, so discretization errors of the derived-field pipeline can
    be measured in isolation.
    """
    Nsigma, Ntheta = shape
    mesh = _Mesh(domain, Nsigma, Ntheta)
    rho = np.asarray(domain.rho(mesh.theta), dtype=float)[None, :]
    r = rho + mesh.sigma[:, None] * (domain.R - rho)
    if pot.r0 > float(np.min(rho)) + 1e-12 or pot.R < domain.R - 1e-12:
        raise Solver2DError(
            f"radial annulus [{pot.r0}, {pot.R}] does not cover the domain [{float(np.min(rho))}, {domain.R}]"
        )
    u = np.empty_like(r)
    flat = u.ravel()
    for i, rv in enumerate(r.ravel()):
        flat[i] = pot.u(rv)
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
        if fieldv.u_R == 1.0:
            return np.zeros(fieldv.shape[0])
        raise Solver2DError("flux profile needs the assembled stiffness matrix")
    Nsigma, Ntheta = fieldv.shape
    Ku = (fieldv._stiffness @ fieldv.u.ravel()).reshape(Nsigma + 1, Ntheta + 1)
    row_sums = Ku.sum(axis=1)
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
        with np.errstate(divide="ignore", invalid="ignore"):
            term_t = fieldv._d_theta_at_r(sin * Xt) / (r * sin)
        term_t[:, 0] = 0.0
        term_t[:, -1] = 0.0
        return fieldv._d_r(r * r * Xr) / (r * r) + term_t

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

