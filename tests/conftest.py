"""Shared fixtures.

The 2-D solves are the only expensive pieces of the suite, so they are
session-scoped: the ellipsoid pair (one grid doubling) and the round-annulus
field are each solved once and shared between the solver tests and the
acceptance checks.  Any warning fails a test here.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from pcapflow import geometry, radial, solver2d

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent / "configs"


# hypothesis reports a failing example through libcst, whose import warns
# that mypy_extensions.TypedDict is deprecated; as an error that warning
# stops the whole run (INTERNALERROR) instead of failing the one test
THIRD_PARTY_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    """Every warning raised by a test in this directory fails it: a NumPy
    divide, overflow or invalid warning is how a NaN or inf path first shows.
    The one exception is THIRD_PARTY_WARNING; a later mark takes precedence."""
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
            item.add_marker(pytest.mark.filterwarnings(THIRD_PARTY_WARNING))


@pytest.fixture(scope="session")
def euclid3():
    return geometry.euclidean(3)


@pytest.fixture(scope="session")
def schw1():
    return geometry.schwarzschild(1.0)


@pytest.fixture(scope="session")
def cone_half():
    return geometry.cone(3, aperture=0.5)


@pytest.fixture(scope="session")
def radial_model_set(euclid3, cone_half, schw1):
    """The three reference models with their standard annuli (r0, R)."""
    return [(euclid3, 1.0, 8.0), (cone_half, 1.0, 8.0), (schw1, 2.2, 12.0)]


@pytest.fixture(scope="session")
def sphere_field():
    """Regularized 2-D solve on the round annulus [1, 3], checked against
    the radial oracle; u_R = 1/3 is the oracle's outer value, e^{-phi_R/(p-1)}
    at phi_R = 0.5 ln 3, so both solve one boundary value problem."""
    dom = solver2d.sphere_domain(1.0, 3.0)
    return solver2d.solve_2d(dom, p=1.5, u_R=1.0 / 3.0, shape=(128, 64), eps=1e-4, tol=1e-10)


@pytest.fixture(scope="session")
def ellipsoid_fields():
    """Ellipsoid annulus at two resolutions (one doubling) for the
    derivative-identity and convergence-order checks.  The 128 x 64 field is
    the last coarse grid of the 256 x 128 solve, which equals its standalone
    solve bit for bit (``TestGridSequence``)."""
    dom = solver2d.ellipsoid_domain(1.3, 1.0, R=4.0)
    fine = solver2d.solve_2d(dom, p=1.5, u_R=0.05, shape=(256, 128), eps=1e-4, tol=1e-10)
    return {(128, 64): fine.coarse[-1], (256, 128): fine}


@pytest.fixture(scope="session")
def ellipsoid_128(ellipsoid_fields):
    return ellipsoid_fields[(128, 64)]


def midband(field, lo_frac=0.25, hi_frac=0.7, num=7):
    """Level values away from both boundary layers of a 2-D field."""
    lo, hi = field.w_range()
    return np.linspace(lo + lo_frac * (hi - lo), lo + hi_frac * (hi - lo), num)


def cell_by_cell(header, rows):
    """The bytes of a CSV under the per-cell rule of ``verify.write_csv``:
    ``%.17g`` for ``float`` and ``np.floating``, ``str`` for the rest."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("%.17g" % x if isinstance(x, (float, np.floating)) else str(x) for x in row))
    return ("\n".join(lines) + "\n").encode()


def shipped_config(stem):
    """The parsed JSON of the shipped config ``configs/<stem>.json``."""
    return json.loads((CONFIGS / f"{stem}.json").read_text())


def grad_norm_fd(pot, r):
    """d|grad w|/dr as a central difference of pot.grad_norm, step 1e-6 r."""
    d = 1e-6 * r
    return (pot.grad_norm(r + d) - pot.grad_norm(r - d)) / (2.0 * d)
