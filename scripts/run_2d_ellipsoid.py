"""Solve the axisymmetric problem outside an ellipsoid and report level-set functionals.

Prints the Newton history (per step: the energy after it, the relative Newton
decrement before it and the step length), per-level area, Willmore energy and
the Gauss-Bonnet ratio, then the divergence-identity residuals used for the
discretization-order check.
"""

import argparse

import numpy as np

from pcapflow import solver2d


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a-ax", type=float, default=1.3, help="polar semi-axis of the inner boundary")
    ap.add_argument("--b-eq", type=float, default=1.0, help="equatorial semi-axis")
    ap.add_argument("--R", type=float, default=4.0)
    ap.add_argument("--p", type=float, default=1.5)
    ap.add_argument("--u-R", type=float, default=0.05)
    ap.add_argument("--grid", type=int, nargs=2, default=(128, 64), metavar=("NS", "NT"))
    ap.add_argument("--alpha", type=float, default=2.0)
    args = ap.parse_args()

    domain = solver2d.ellipsoid_domain(args.a_ax, args.b_eq, args.R)
    field = solver2d.solve_2d(domain, args.p, args.u_R, shape=tuple(args.grid))
    print(
        "solve: converged=%s newton_steps=%d decrement=%.3e"
        % (field.converged, field.outer_iterations, field.residual_rel)
    )
    print("step  energy                  decrement  step_length")
    for k, (energy, decrement, step) in enumerate(field.history, 1):
        print("%-5d %-23.16e %-10.3e %g" % (k, energy, decrement, step))
    lo, hi = field.w_range()
    ts = np.linspace(lo + 0.2 * (hi - lo), lo + 0.8 * (hi - lo), 6)
    print("t        area       willmore   sc_top/8pi  hring^2")
    for t in ts:
        curve = field.level(t)
        gb = curve.sc_top_integral / (8 * np.pi)
        print(
            "%-8.4f %-10.5f %-10.5f %-11.6f %.3e"
            % (curve.t, curve.area, curve.willmore, gb, curve.integrate(curve.hring_sq))
        )
    res = solver2d.divergence_residuals(field, alpha=args.alpha)
    print("divergence residuals: J rms=%.3e  Y rms=%.3e" % (res["J"]["rms"], res["Y"]["rms"]))
    return 0 if field.converged else 1


if __name__ == "__main__":
    raise SystemExit(main())
