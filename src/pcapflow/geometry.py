"""Rotationally symmetric model geometries.

A model is the warped product  g = f(r)^2 dr^2 + h(r)^2 g_{S^{n-1}}  on
r >= r_min, described by the warping functions f, h and their derivatives.
The warping functions, ``check_radius`` and the curvature helpers take a
radius or an array of radii.  ``check_radius`` judges a radius against
[r_min, r_max] by ``numerics.within``, the package's one range rule: a
radius outside, NaN included, is a fault of the program that computed it,
a ValueError; a config's radii are judged once, by ``radial.check_annulus``,
whose ConfigError names the field.  Sign conventions, asserted in one place
by the test suite:

* coordinate spheres carry the outward normal, so the mean curvature of a
  round sphere in flat space is H = (n-1)/r > 0;
* Ric(nu, nu) along the radial unit normal vanishes in flat space and is
  negative on the spatial Schwarzschild slice (-2m/r^3 for n = 3).

Curvature of the warped product, with K1 the radial-tangential and K2 the
tangential-tangential sectional curvature:

    H          = (n-1) h' / (f h)
    K1         = -(h''/(f^2 h) - h' f'/(f^3 h))
    K2         = (1 - (h'/f)^2) / h^2
    Ric(nu,nu) = (n-1) K1
    Ric(e,e)   = K1 + (n-2) K2      for a unit e tangent to the sphere
    Scal       = 2 Ric(nu,nu) + (n-1)(n-2) K2

They serve every model and are finite wherever f is; at the Schwarzschild
horizon, where f is infinite, H is exactly 0.

Each constructor states its model's asymptotic volume ratio ``avr`` (None
for a table, which cannot tell it) and checks the model once, where it is
built: f > 0, h > 0, and h' > 0 above r_min, so coordinate spheres flow
outward (r_min itself may be a throat, h' = 0).  ``tabulated`` tests h' at its
spline's knots and the roots of h'', which is exact.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .numerics import integrate, natural_cubic_spline, within

__all__ = [
    "RadialManifold",
    "Level",
    "unit_sphere_area",
    "euclidean",
    "cone",
    "schwarzschild",
    "tabulated",
    "tabulated_from_json",
    "CatalogEntry",
    "MODELS",
    "mean_curvature_sphere",
    "ricci_radial",
    "scalar_curvature",
    "cross_section",
    "proper_distance",
]


_VALIDATION_SAMPLES = 128  # radii at which a model's constructor checks h, f, h' and Ric


def unit_sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class RadialManifold:
    """Warped-product model g = f^2 dr^2 + h^2 g_{S^{n-1}} on r >= r_min.

    ``avr`` is the asymptotic volume ratio, lim |B_s| / (|B^n| s^n) over
    geodesic balls of radius s, as the constructor states it; None where it
    is not known.  It is not lim (h/r)^(n-1) unless f tends to 1.
    """

    n: int
    f: Callable[[float], float]
    h: Callable[[float], float]
    df: Callable[[float], float]
    dh: Callable[[float], float]
    d2h: Callable[[float], float]
    r_min: float
    label: str
    r_max: float = math.inf
    avr: Optional[float] = None
    nonneg_ricci: bool = False

    def check_radius(self, r):
        """r clamped to [r_min, r_max] by ``numerics.within``: a float or an
        array, and a ValueError naming the model beyond either end."""
        return within(r, self.r_min, self.r_max, f"{self.label}: r")


@dataclass(frozen=True)
class Level:
    """Level sets {w = t} as weighted samples, round or not.  Each per-sample
    field ends in a samples axis, and ``weights`` holds each sample's share
    of the level's area; t is a float for one level and (m,) for m levels.
    ``scalar`` is the ambient scalar curvature, ``scalar_induced`` the
    level's own; the tangential derivatives and |h-ring|^2 default to 0, as
    on a round level.  It lives here because both modules that build levels,
    ``functionals`` and ``solver2d``, import this one.
    """

    t: float | np.ndarray
    n: int
    r: np.ndarray
    weights: np.ndarray
    grad: np.ndarray
    H: np.ndarray
    scalar: float | np.ndarray
    scalar_induced: np.ndarray
    grad_tangential: float | np.ndarray = 0.0
    H_tangential: float | np.ndarray = 0.0
    hring_sq: float | np.ndarray = 0.0

    def integrate(self, values):
        """Surface integral of per-sample ``values`` over each level: a float
        for one level, an array for many."""
        return np.sum(values * self.weights, axis=-1)

    @property
    def area(self):
        return self.integrate(1.0)

    @property
    def willmore(self):
        """int H^2 over the level."""
        return self.integrate(self.H**2)

    @property
    def chi_proxy(self):
        """(1/4 pi) int Sc^T over the level (2 for sphere topology)."""
        return self.integrate(self.scalar_induced) / (4.0 * math.pi)


def mean_curvature_sphere(model: RadialManifold, r):
    """Mean curvature of the coordinate sphere {r} w.r.t. the outward normal."""
    r = model.check_radius(r)
    return (model.n - 1) * model.dh(r) / (model.f(r) * model.h(r))


def ricci_radial(model: RadialManifold, r):
    """Ricci curvature Ric(nu, nu) along the radial unit normal."""
    r = model.check_radius(r)
    f = model.f(r)
    h = model.h(r)
    return -(model.n - 1) * (model.d2h(r) / (f * f * h) - model.dh(r) * model.df(r) / (f**3 * h))


def _tangential_sectional(model: RadialManifold, r):
    """K2, the sectional curvature of a plane tangent to the sphere {r}."""
    h = model.h(r)
    return (1.0 - (model.dh(r) / model.f(r)) ** 2) / (h * h)


def scalar_curvature(model: RadialManifold, r):
    """Scalar curvature of the ambient warped product at radius r."""
    r = model.check_radius(r)
    return 2.0 * ricci_radial(model, r) + (model.n - 1) * (model.n - 2) * _tangential_sectional(model, r)


def cross_section(model: RadialManifold, r) -> tuple:
    """(area, induced scalar curvature) of the coordinate sphere {r}."""
    r = model.check_radius(r)
    h = model.h(r)
    n = model.n
    area = unit_sphere_area(n) * h ** (n - 1)
    induced_scalar = (n - 1) * (n - 2) / (h * h)
    return area, induced_scalar


def proper_distance(model: RadialManifold, a: float, b: float) -> float:
    """Arc length of the radial geodesic between radii a and b.

    When f blows up at the inner endpoint (Schwarzschild horizon) the
    substitution x = sqrt(r - a) regularizes the integrand.
    """
    a = model.check_radius(a)
    b = model.check_radius(b)
    if b < a:
        raise ValueError("endpoints out of order")
    if b == a:
        return 0.0
    fa = model.f(a)
    if math.isfinite(fa):
        return integrate(model.f, a, b)

    # keep a + x*x strictly above a in double precision, and far enough out
    # that computing f there does not hit the cancellation noise of r - a;
    # the integrand is within O(x_floor^2) ~ 1e-8 of its finite limit below
    # the floor, so the induced error is ~x_floor^3
    x_floor = 1e-4 * math.sqrt(max(a, 1e-12))

    def regularized(x):
        x = np.maximum(x, x_floor)
        return 2.0 * x * model.f(a + x * x)

    return integrate(regularized, 0.0, math.sqrt(b - a))


def _validate_samples(model: RadialManifold, lo: float, hi: float, critical=()) -> None:
    """The one check of a model's warping functions, made where it is built:
    f > 0, h > 0 and, where the model is flagged nonneg-Ricci, both Ricci
    eigenvalues >= 0, the radial (n-1) K1 and the tangential K1 + (n-2) K2,
    at _VALIDATION_SAMPLES radii spread over [lo, hi] and at the radii
    ``critical``; and h' > 0 at each of them above r_min, so coordinate
    spheres flow outward.  r_min itself may have h' = 0, a throat."""
    if model.n < 3:
        raise ValueError("dimension must be at least 3")
    rs = np.concatenate([np.linspace(lo, hi, _VALIDATION_SAMPLES), critical])
    h = model.h(rs)
    f = model.f(rs)
    checks = [
        (~(h > 0.0), "h(r) <= 0"),
        (~(f > 0.0), "f(r) <= 0"),
        (~(model.dh(rs) > 0.0) & (rs > model.r_min), "h'(r) <= 0"),
    ]
    if model.nonneg_ricci:
        radial = ricci_radial(model, rs)
        tangential = radial / (model.n - 1) + (model.n - 2) * _tangential_sectional(model, rs)
        for ric, which in ((radial, "Ric(nu,nu)"), (tangential, "tangential Ric")):
            checks.append((np.isfinite(f) & (ric < -1e-8), f"flagged nonneg-Ricci but {which} < 0"))
    for bad, what in checks:
        if np.any(bad):
            raise ValueError(f"{model.label}: {what} at r={rs[np.argmax(bad)]}")


def cone(n: int = 3, aperture: float = 1.0) -> RadialManifold:
    """Metric cone dr^2 + (a r)^2 g_{S^{n-1}} over the round sphere of radius a <= 1."""
    if not (0.0 < aperture <= 1.0):
        raise ValueError("aperture must lie in (0, 1]")
    a = float(aperture)
    model = RadialManifold(
        n=n,
        f=lambda r: 1.0 + 0.0 * r,
        h=lambda r: a * r,
        df=lambda r: 0.0 * r,
        dh=lambda r: a + 0.0 * r,
        d2h=lambda r: 0.0 * r,
        r_min=0.0,
        label=f"cone(n={n}, a={a:g})",
        avr=a ** (n - 1),
        nonneg_ricci=True,
    )
    _validate_samples(model, 1e-6, 100.0)
    return model


def euclidean(n: int = 3) -> RadialManifold:
    """Flat R^n in polar coordinates (the aperture-1 cone)."""
    model = replace(cone(n, 1.0), label=f"euclidean(n={n})")
    return model


def schwarzschild(mass: float) -> RadialManifold:
    """Spatial Schwarzschild slice of mass m > 0 (n = 3), r >= 2m.

    f = (1 - 2m/r)^(-1/2) diverges at the horizon.  The warped-product
    formulas give H = (2/r) sqrt(1 - 2m/r), which is 0 at the horizon,
    Ric(nu,nu) = -2m/r^3 and Scal = 0 outside it.
    """
    if not mass > 0.0:
        raise ValueError("mass must be positive")
    m = float(mass)

    def f(r):
        t = 1.0 - 2.0 * m / np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(t > 0.0, t**-0.5, np.inf)[()]

    def df(r):
        r = np.asarray(r, dtype=float)
        t = 1.0 - 2.0 * m / r
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(t > 0.0, -(m / (r * r)) * t**-1.5, -np.inf)[()]

    model = RadialManifold(
        n=3,
        f=f,
        h=lambda r: r,
        df=df,
        dh=lambda r: 1.0 + 0.0 * r,
        d2h=lambda r: 0.0 * r,
        r_min=2.0 * m,
        label=f"schwarzschild(m={m:g})",
        avr=1.0,
        nonneg_ricci=False,
    )
    _validate_samples(model, 2.0 * m * 1.001, 2.0 * m * 50.0)
    return model


def tabulated(n: int, table: Sequence, label: str = "tabulated") -> RadialManifold:
    """Model interpolated from (r, f, h) triples with natural cubic splines.

    ``table`` holds dicts with keys r/f/h or plain triples of numbers,
    strictly increasing in r.  Evaluators judge radii by ``check_radius``, so
    one outside the table's range is a ValueError.
    Its ``avr`` is None: a table cannot tell the asymptotic volume ratio.
    """
    rows = []
    for entry in table:
        row = [entry.get(key) for key in "rfh"] if isinstance(entry, dict) and len(entry) == 3 else entry
        # numbers only: float() would also take "1.5" and True
        if not isinstance(row, (list, tuple, np.ndarray)) or len(row) != 3 or not all(
            isinstance(x, numbers.Real) and not isinstance(x, bool) for x in row
        ):
            raise ValueError(f"tabulated row {entry} must hold three numbers r, f and h")
        rows.append(row)
    if len(rows) < 4:
        raise ValueError("tabulated model needs at least 4 samples")
    rs, fs, hs = np.array(rows, dtype=float).T
    if not np.all(np.diff(rs) > 0.0):
        raise ValueError("tabulated radii must be strictly increasing")
    if np.any(hs <= 0.0) or np.any(fs <= 0.0):
        raise ValueError("tabulated f and h must be positive")
    f_spl = natural_cubic_spline(rs, fs)
    h_spl = natural_cubic_spline(rs, hs)
    r_lo, r_hi = float(rs[0]), float(rs[-1])

    def guard(fn):
        def wrapped(r):  # model is bound below, before any call
            return fn(model.check_radius(r))[()]

        return wrapped

    model = RadialManifold(
        n=n,
        f=guard(f_spl),
        h=guard(h_spl),
        df=guard(f_spl.derivative(1)),
        dh=guard(h_spl.derivative(1)),
        d2h=guard(h_spl.derivative(2)),
        r_min=r_lo,
        r_max=r_hi,
        label=label,
    )
    # h' is piecewise quadratic: its minima lie at the knots and at the roots
    # of h'', so testing it there is exact (roots() gives nan where h'' = 0)
    roots = h_spl.derivative(2).roots(extrapolate=False)
    critical = np.concatenate([rs, roots[~np.isnan(roots)]])
    span = r_hi - r_lo
    _validate_samples(model, r_lo + 1e-3 * span, r_hi - 1e-3 * span, critical)
    return model


def tabulated_from_json(path: str, n: int = 3, label: str = "tabulated") -> RadialManifold:
    """Load a tabulated model from a JSON array of {r, f, h} objects."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("tabulated model file must contain a JSON array")
    return tabulated(n, data, label)


@dataclass(frozen=True)
class CatalogEntry:
    """One builtin model: the name of its constructor in this module (looked
    up when a model is built; its signature is the schema of the model's
    parameters), a description and an example for listings."""

    constructor: str
    description: str
    example: Optional[dict] = None


MODELS = {
    "euclidean": CatalogEntry("euclidean", "flat space; every bound is an equality case", {"n": 3}),
    "cone": CatalogEntry(
        "cone", "metric cone over a shrunk sphere; AVR = aperture^(n-1)", {"n": 3, "aperture": 0.5}
    ),
    "schwarzschild": CatalogEntry("schwarzschild", "spatial Schwarzschild slice outside the horizon", {"mass": 1.0}),
    "tabulated": CatalogEntry("tabulated_from_json", "natural cubic splines through sampled (r, f, h)"),
}
