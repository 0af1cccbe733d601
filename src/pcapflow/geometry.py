"""Rotationally symmetric model geometries.

A model is the warped product  g = f(r)^2 dr^2 + h(r)^2 g_{S^{n-1}}  on
r >= r_min, described by the warping functions f, h and their derivatives.
The warping functions, ``check_radius`` and the curvature helpers take a
radius or an array of radii.  Sign conventions, asserted in one place by
the test suite:

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
    Scal       = 2 Ric(nu,nu) + (n-1)(n-2) K2

They serve every model and are finite wherever f is; at the Schwarzschild
horizon, where f is infinite, H is exactly 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .numerics import integrate, natural_cubic_spline

__all__ = [
    "RadialManifold",
    "DomainError",
    "AvrUndefinedError",
    "unit_sphere_area",
    "euclidean",
    "cone",
    "schwarzschild",
    "tabulated",
    "tabulated_from_json",
    "build_model",
    "CatalogEntry",
    "MODELS",
    "MODEL_NAMES",
    "mean_curvature_sphere",
    "ricci_radial",
    "scalar_curvature",
    "cross_section",
    "avr",
    "proper_distance",
]


class DomainError(ValueError):
    """Radius outside the model's working range."""


class AvrUndefinedError(RuntimeError):
    """The normalized area ratio (h/r)^(n-1) does not stabilize at large r."""


def unit_sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class RadialManifold:
    """Warped-product model g = f^2 dr^2 + h^2 g_{S^{n-1}} on r >= r_min."""

    n: int
    f: Callable[[float], float]
    h: Callable[[float], float]
    df: Callable[[float], float]
    dh: Callable[[float], float]
    d2h: Callable[[float], float]
    r_min: float
    label: str
    r_max: float = math.inf
    avr_hint: Optional[float] = None
    nonneg_ricci: bool = False

    def check_radius(self, r):
        r = np.asarray(r, dtype=float)
        if (r < self.r_min - 1e-12 * (1.0 + abs(self.r_min))).any():
            raise DomainError(f"r={np.min(r)} below r_min={self.r_min} for {self.label}")
        if (r > self.r_max * (1.0 + 1e-12)).any():
            raise DomainError(f"r={np.max(r)} beyond tabulated range r_max={self.r_max} for {self.label}")
        return r[()]


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


def scalar_curvature(model: RadialManifold, r):
    """Scalar curvature of the ambient warped product at radius r."""
    r = model.check_radius(r)
    h = model.h(r)
    k2 = (1.0 - (model.dh(r) / model.f(r)) ** 2) / (h * h)
    return 2.0 * ricci_radial(model, r) + (model.n - 1) * (model.n - 2) * k2


def cross_section(model: RadialManifold, r) -> tuple:
    """(area, induced scalar curvature) of the coordinate sphere {r}."""
    r = model.check_radius(r)
    h = model.h(r)
    n = model.n
    area = unit_sphere_area(n) * h ** (n - 1)
    induced_scalar = (n - 1) * (n - 2) / (h * h)
    return area, induced_scalar


def avr(model: RadialManifold) -> float:
    """Asymptotic volume ratio lim (h(r)/r)^(n-1).

    Uses the constructor hint when available, otherwise samples at four
    doubling radii and requires a relative spread below 1e-4 before
    Richardson-extrapolating the tail.
    """
    if model.avr_hint is not None:
        return model.avr_hint
    if math.isfinite(model.r_max):
        base = model.r_max / 8.0
        if base <= model.r_min:
            raise AvrUndefinedError(f"tabulated range of {model.label} too short for extrapolation")
    else:
        base = max(8.0, 4.0 * (model.r_min + 1.0))
    radii = [base, 2.0 * base, 4.0 * base, 8.0 * base]
    vals = [(model.h(r) / r) ** (model.n - 1) for r in radii]
    mean = sum(vals) / len(vals)
    spread = (max(vals) - min(vals)) / max(abs(mean), 1e-300)
    if spread > 1e-4:
        raise AvrUndefinedError(
            f"(h/r)^(n-1) not stable for {model.label}: values {vals}, relative spread {spread:.3e}"
        )
    # one Richardson step assuming O(1/r) convergence of the tail
    return vals[-1] + (vals[-1] - vals[-2])


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


def _validate_samples(model: RadialManifold, lo: float, hi: float, samples: int = 128) -> None:
    rs = np.linspace(lo, hi, samples)
    h = model.h(rs)
    f = model.f(rs)
    checks = [
        (~(h > 0.0), "h(r) <= 0"),
        (~(f > 0.0), "f(r) <= 0"),
        (model.dh(rs) < -1e-12 * np.maximum(1.0, np.abs(h)), "h'(r) < 0"),
    ]
    if model.nonneg_ricci:
        checks.append((np.isfinite(f) & (ricci_radial(model, rs) < -1e-8), "flagged nonneg-Ricci but Ric(nu,nu) < 0"))
    for bad, what in checks:
        if np.any(bad):
            raise ValueError(f"{model.label}: {what} at r={rs[np.argmax(bad)]}")


def cone(n: int = 3, aperture: float = 1.0) -> RadialManifold:
    """Metric cone dr^2 + (a r)^2 g_{S^{n-1}} over the round sphere of radius a <= 1."""
    if n < 3:
        raise ValueError("dimension must be at least 3")
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
        avr_hint=a ** (n - 1),
        nonneg_ricci=True,
    )
    _validate_samples(model, 1e-6, 100.0)
    return model


def euclidean(n: int = 3) -> RadialManifold:
    """Flat R^n in polar coordinates (the aperture-1 cone)."""
    model = replace(cone(n, 1.0), label=f"euclidean(n={n})")
    return model


def schwarzschild(mass: float, n: int = 3) -> RadialManifold:
    """Spatial Schwarzschild slice of mass m > 0 (n = 3), r >= 2m.

    f = (1 - 2m/r)^(-1/2) diverges at the horizon.  The warped-product
    formulas give H = (2/r) sqrt(1 - 2m/r), which is 0 at the horizon,
    Ric(nu,nu) = -2m/r^3 and Scal = 0 outside it.
    """
    if n != 3:
        raise ValueError("the Schwarzschild model is implemented for n = 3")
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
        avr_hint=1.0,
        nonneg_ricci=False,
    )
    _validate_samples(model, 2.0 * m * 1.001, 2.0 * m * 50.0)
    return model


def tabulated(
    n: int,
    table: Sequence,
    label: str = "tabulated",
    nonneg_ricci: bool = False,
    avr_hint: Optional[float] = None,
) -> RadialManifold:
    """Model interpolated from (r, f, h) triples with natural cubic splines.

    ``table`` holds dicts with keys r/f/h or plain triples, strictly
    increasing in r.  Evaluators raise DomainError outside the table range.
    """
    rows = []
    for entry in table:
        if isinstance(entry, dict):
            rows.append((float(entry["r"]), float(entry["f"]), float(entry["h"])))
        else:
            r, f, h = entry
            rows.append((float(r), float(f), float(h)))
    if len(rows) < 4:
        raise ValueError("tabulated model needs at least 4 samples")
    rs = np.array([row[0] for row in rows])
    fs = np.array([row[1] for row in rows])
    hs = np.array([row[2] for row in rows])
    if not np.all(np.diff(rs) > 0.0):
        raise ValueError("tabulated radii must be strictly increasing")
    if np.any(hs <= 0.0) or np.any(fs <= 0.0):
        raise ValueError("tabulated f and h must be positive")
    f_spl = natural_cubic_spline(rs, fs)
    h_spl = natural_cubic_spline(rs, hs)
    r_lo, r_hi = float(rs[0]), float(rs[-1])

    def guard(fn):
        def wrapped(r):
            r = np.asarray(r, dtype=float)
            if np.any(r < r_lo - 1e-9 * (1 + abs(r_lo))) or np.any(r > r_hi + 1e-9 * (1 + abs(r_hi))):
                raise DomainError(f"r in [{np.min(r)}, {np.max(r)}] outside tabulated range [{r_lo}, {r_hi}]")
            return fn(r)[()]

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
        avr_hint=avr_hint,
        nonneg_ricci=nonneg_ricci,
    )
    span = r_hi - r_lo
    _validate_samples(model, r_lo + 1e-3 * span, r_hi - 1e-3 * span)
    return model


def tabulated_from_json(path, **kwargs) -> RadialManifold:
    """Load a tabulated model from a JSON array of {r, f, h} objects."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("tabulated model file must contain a JSON array")
    return tabulated(kwargs.pop("n", 3), data, **kwargs)


@dataclass(frozen=True)
class CatalogEntry:
    """One builtin model: the name of its constructor in this module (looked
    up when a model is built), its parameters and an example for listings."""

    constructor: str
    parameters: str
    description: str
    example: Optional[dict] = None


MODELS = {
    "euclidean": CatalogEntry(
        "euclidean", "n=3", "flat space; every bound is an equality case", {"n": 3}
    ),
    "cone": CatalogEntry(
        "cone",
        "n=3, aperture in (0,1]",
        "metric cone over a shrunk sphere; AVR = aperture^(n-1)",
        {"n": 3, "aperture": 0.5},
    ),
    "schwarzschild": CatalogEntry(
        "schwarzschild", "mass, n=3", "spatial Schwarzschild slice outside the horizon", {"mass": 1.0}
    ),
    "tabulated": CatalogEntry(
        "tabulated_from_json", "path, n=3", "natural cubic splines through sampled (r, f, h)"
    ),
}

MODEL_NAMES = tuple(MODELS)


def build_model(name: str, **params) -> RadialManifold:
    """Construct a catalog model from its name and its constructor's parameters."""
    entry = MODELS.get(name)
    if entry is None:
        raise ValueError(f"unknown model '{name}'; available: {', '.join(MODEL_NAMES)}")
    if "n" in params:
        params["n"] = int(params["n"])  # the dimension of every catalog model
    return globals()[entry.constructor](**params)
