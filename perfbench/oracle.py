"""mpmath references for the radial Schwarzschild potential.

With f = (1 - 2m/s)^(-1/2), h = s and kappa = 2/(p-1), the program's
p-potential on [r0, R] is

    u(r) = u_R + B * int_r^R f h^-kappa ds,   B = (1 - u_R) / int_r0^R f h^-kappa ds,

with u_R = exp(-phi_R/(p-1)) and the default datum phi_R = 2 ln(R/r0).
Each reference is computed twice, at two precisions on two different
breakpoint sets.  When p is near 1 the integrand falls by many decades
across [r0, R], and too few breakpoints give a plausible but wrong value;
two independent computations that agree rule that out.
"""

from __future__ import annotations

import mpmath

# relative agreement required between the two references; far below the
# double-precision errors being measured and above what 30 digits resolve
AGREE_TOL = 1e-17


class OracleDisagreement(RuntimeError):
    """The two mpmath references differ; no accuracy can be reported."""


def _u_reference(mass, r0, R, p, radii, dps, sub, geometric):
    with mpmath.workdps(dps):
        m = mpmath.mpf(mass)
        kappa = 2 / (mpmath.mpf(p) - 1)

        def integrand(s):
            return (1 - 2 * m / s) ** mpmath.mpf(-0.5) * s ** (-kappa)

        rs = [mpmath.mpf(r) for r in radii]
        tails = [mpmath.mpf(0)] * len(rs)
        for i in range(len(rs) - 2, -1, -1):
            a, b = rs[i], rs[i + 1]
            if geometric:
                pts = [a * (b / a) ** (mpmath.mpf(j) / sub) for j in range(sub + 1)]
            else:
                pts = [a + (b - a) * mpmath.mpf(j) / sub for j in range(sub + 1)]
            tails[i] = tails[i + 1] + mpmath.quad(integrand, pts, method="gauss-legendre")
        u_R = mpmath.exp(-2 * mpmath.log(mpmath.mpf(R) / mpmath.mpf(r0)) / (mpmath.mpf(p) - 1))
        B = (1 - u_R) / tails[0]
        return [u_R + B * t for t in tails]


def u_reference(mass: float, r0: float, R: float, p: float, radii) -> list:
    """u at ``radii`` (increasing, r0 first, R last), checked twice.

    Raises OracleDisagreement if the 30- and 50-digit references differ by
    more than AGREE_TOL relative anywhere.
    """
    kappa = 2.0 / (p - 1.0)
    coarse = _u_reference(mass, r0, R, p, radii, 30, max(6, int(kappa / 10)), True)
    fine = _u_reference(mass, r0, R, p, radii, 50, max(8, int(kappa / 8)), False)
    with mpmath.workdps(50):
        worst = max(abs(a - b) / abs(b) for a, b in zip(coarse, fine))
    if worst > AGREE_TOL:
        raise OracleDisagreement(
            f"mpmath references for u at p={p} disagree by {mpmath.nstr(worst, 3)} relative"
        )
    return fine


def u_rel_err(values, mass: float, r0: float, R: float, p: float, radii) -> float:
    """Largest relative error of the program's u values at ``radii``."""
    ref = u_reference(mass, r0, R, p, radii)
    with mpmath.workdps(30):
        return float(max(abs(mpmath.mpf(v) - e) / e for v, e in zip(values, ref)))
