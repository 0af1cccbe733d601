"""Experiment orchestration: monotonicity sweeps, convergence tables,
inequality checks, and machine-readable pass/fail reports.

Every check carries an ``anchor`` slug naming the mathematical statement it
probes (e.g. ``area-exponential-growth``), measured values, a threshold and
a verdict in {pass, fail, not-guaranteed}.  ``not-guaranteed`` marks checks
whose hypothesis (an exponent range, a curvature sign) does not hold for the
requested parameters, so a violation is information rather than a defect.

Every pass/fail verdict comes from :func:`_gate` under one rule: a check
passes iff its measured value is strictly below its threshold (strictly
above, for a lower bound), and the threshold it reports is the one it
applies.  :func:`_monotone_check` gates the largest normalized drop against
its slack and may turn a fail into ``not-guaranteed``; every equality of a
measured series with a closed form is one :func:`_equality_check`.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import os
from dataclasses import dataclass, field, is_dataclass, replace
from typing import Optional, Union, get_args, get_origin

import numpy as np

from . import __version__, functionals, geometry, numerics, radial, solver2d
from .numerics import ConfigError

__all__ = [
    "Check",
    "Report",
    "ConfigError",
    "Annulus",
    "RoundCase",
    "Expect",
    "write_csv",
    "functional_series_suite",
    "monotonicity_suite",
    "p_to_1_suite",
    "eps_to_0_suite",
    "inequality_suite",
    "hawking_suite",
    "solve_2d_suite",
    "artifact_prefix",
    "run_experiment",
    "EXPERIMENTS",
]

# radii at which the sup norms of the convergence suites are sampled
_SUP_SAMPLES = 257
# upper level of the capacity read by the p -> 1 capacity gap
_T_CAP = 0.2
# samples on which the p -> 1 area defect looks for the kinks of its |gap|
_KINK_SAMPLES = 64
# largest normalized drop a monotone series may take
_SLACK = 1e-8
# exponents and levels of each monotonicity sweep series
_SWEEP_P = (1.1, 1.5, 2.0)
_SWEEP_LEVELS = 40
# relative Newton decrement at which the 2-D solve stops; at 1e-10 the flux
# spread ends far under its 1e-6 gate
_TOL_2D = 1e-10
# value of u = e^{-w/(p-1)} on the outer boundary of the 2-D solve
_U_R_2D = 0.05


@dataclass
class Check:
    name: str
    anchor: str
    values: dict
    threshold: Optional[float]
    verdict: str  # pass | fail | not-guaranteed

    def __post_init__(self):
        if self.verdict not in ("pass", "fail", "not-guaranteed"):
            raise ValueError(f"unknown verdict '{self.verdict}'")
        if not self.anchor:
            raise ValueError("every check needs an anchor")


@dataclass
class Report:
    experiment: str
    checks: list
    environment: dict = field(default_factory=dict)

    @property
    def worst(self) -> str:
        if any(c.verdict == "fail" for c in self.checks):
            return "fail"
        if any(c.verdict == "not-guaranteed" for c in self.checks):
            return "not-guaranteed"
        return "pass"

    def to_dict(self) -> dict:
        # _jsonable rebuilds every dict, list and array, so the checks' own
        # dicts need no deep copy
        env = {"version": __version__, **self.environment}
        checks = [vars(c) for c in self.checks]
        return _jsonable({"experiment": self.experiment, "checks": checks, "environment": env})

    def write(self, path) -> None:
        """``to_dict`` as JSON (indent 2, sorted keys, non-finite floats as
        strings) and a newline, in one write."""
        with _create(path) as fh:
            fh.write(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    def summary_lines(self) -> list[str]:
        lines = [f"experiment: {self.experiment}"]
        for c in self.checks:
            lines.append(f"  [{c.verdict.upper():>14}] {c.name} ({c.anchor})")
        lines.append(f"overall: {self.worst}")
        return lines


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _drops(values):
    """The normalized drops (v_k - v_{k+1}) / (1 + |v_k|) of a series, and
    its violations (k, v_{k+1} - v_k): every step whose drop is not strictly
    below the slack, NaN included."""
    v = np.asarray(values, dtype=float)
    if len(v) < 3:
        raise ValueError("need at least 3 samples to call a series monotone")
    drops = -np.diff(v) / (1.0 + np.abs(v[:-1]))
    return drops, [(int(k), float(v[k + 1] - v[k])) for k in np.flatnonzero(~(drops < _SLACK))]


def _gate(name: str, anchor: str, values: dict, measured: float, threshold: float, lower: bool = False) -> Check:
    """Pass iff ``measured < threshold``, or ``measured > threshold`` when
    ``lower``; NaN fails."""
    ok = measured > threshold if lower else measured < threshold
    return Check(name, anchor, values, threshold, "pass" if ok else "fail")


def _monotone_check(name: str, anchor: str, values, guaranteed: bool) -> Check:
    """Gate the largest normalized drop max_k (v_k - v_{k+1}) / (1 + |v_k|)
    of ``values`` against the slack, the rule ``_drops`` applies per step; a
    failure without the hypothesis of the theorem is ``not-guaranteed``."""
    drops, violations = _drops(values)
    worst = float(np.max(drops))
    record = {
        "first": float(values[0]),
        "last": float(values[-1]),
        "max_rel_drop": worst,
        "violations": violations,
        "guaranteed": guaranteed,
    }
    check = _gate(name, anchor, record, worst, _SLACK)
    if check.verdict == "fail" and not guaranteed:
        check.verdict = "not-guaranteed"
    return check


def _equality_check(name: str, anchor: str, measured, expected, tol: float) -> Check:
    """Gate max |measured - expected| / |expected|, absolute where expected is
    0, against ``tol``; ``expected`` is a number or one value per entry."""
    target = np.asarray(expected, dtype=float)
    scale = np.where(target == 0.0, 1.0, np.abs(target))
    defect = float(np.max(np.abs(np.asarray(measured, dtype=float) - target) / scale))
    return _gate(name, anchor, {"expected": expected, "max_rel_defect": defect}, defect, tol)


def write_csv(path, header, rows) -> None:
    """Deterministic CSV: a float cell is ``%.17g`` (round trip; ``-0``,
    ``nan``, ``inf``), any other cell ``str``.

    ``rows`` is a 2-D float array, whose columns are ``rows.T``, or an
    iterable of rows, whose columns must each hold only floats (``float``
    or ``np.floating``) or only other cells; unequal rows, or a column mixing
    the two, raise ValueError.  A float column formats each distinct bit
    pattern once, so a table with repeated values costs its distinct values."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        texts = [_float_texts(column) for column in rows.T]
    else:
        rows = list(rows)
        if len(set(map(len, rows))) > 1:
            raise ValueError("rows of unequal length")
        texts = []
        for column in zip(*rows):
            kinds = {issubclass(kind, (float, np.floating)) for kind in set(map(type, column))}
            if len(kinds) > 1:
                raise ValueError("a column mixes float and non-float cells")
            texts.append(_float_texts(column) if True in kinds else list(map(str, column)))
    cells = np.empty((len(rows), len(texts)), dtype=object)
    for j, column in enumerate(texts):
        cells[:, j] = column
    template = ",".join(["%s"] * len(texts)) + "\n"
    with _create(path) as fh:
        fh.write(",".join(header) + "\n" + template * len(rows) % tuple(cells.ravel().tolist()))


def _float_texts(column) -> np.ndarray:
    """The ``%.17g`` text of each cell of a float column, one ``%`` over its
    distinct bit patterns (``-0.0`` and each NaN keep their own)."""
    bits, inverse = np.unique(np.asarray(column, dtype=np.float64).view(np.uint64), return_inverse=True)
    distinct = ("%.17g\n" * len(bits) % tuple(bits.view(np.float64).tolist())).split("\n")[:-1]
    return np.array(distinct, dtype=object)[inverse]


def _create(path):
    """Open ``path`` as a new text file, unlinking an old one first.

    Truncating a file whose blocks are still delayed-allocated makes ext4
    write them back first: a third ``pcapflow run`` into one ``--out`` took
    five times as long as the first.  A hard link to the old file keeps its
    bytes."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    return open(path, "w", encoding="utf-8", newline="\n")


# ----------------------------------------------------------------- suites


def _toward_limit(values, fieldname: str, entries: str, inside, limit) -> None:
    """The list rule of a convergence table: ``values`` has at least 2
    entries, each ``inside`` its range, strictly decreasing toward ``limit``;
    a ConfigError names ``fieldname`` otherwise."""
    if len(values) < 2 or not all(inside(v) for v in values):
        raise ConfigError(f"{fieldname} must have >= 2 {entries}", fieldname)
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{fieldname} must decrease toward {limit}", fieldname)


def _vanishing_checks(param: str, rows: list[dict], gates):
    """The column rule of a convergence table of named columns: per gate
    (key, name, anchor, threshold), ``row[key]`` passes when it strictly
    decreases along ``row[param]`` and ends below the threshold.  Returns the
    checks and the table of ``param`` and the gates' keys, in their order."""
    keys = [param, *(gate[0] for gate in gates)]
    along = [row[param] for row in rows]
    checks = []
    for key, name, anchor, threshold in gates:
        column = [row[key] for row in rows]
        decreasing = all(b < a for a, b in zip(column, column[1:]))
        measured = column[-1] if decreasing else math.inf
        checks.append(_gate(name, anchor, {param: along, key: column, "decreasing": decreasing}, measured, threshold))
    return checks, (keys, [tuple(row[key] for key in keys) for row in rows])


def p_to_1_suite(
    model: geometry.RadialManifold,
    r0: float,
    R: float,
    p_list: list[float],
    phi_mode: str = "imcf",
    sup_w_threshold: float = 5e-3,
    expect_sup: Optional[list[float]] = None,
):
    """Convergence table of the p-potentials toward the flow potential.

    Columns per p: sup|w_p - w_1| on [r0, R/2], L2/L4 gradient errors over
    the same shell, the gap of the normalized capacity between the levels 0
    and min(0.2, 0.9 phi_R) to h(r0)^{n-1}, the level integrals over t in
    [0, T] of the area-weighted (H-|grad w_p|)^2 defect and of the level-area
    defect against the flow's |Sigma_0| e^t.  By coarea those are volume
    integrals over {w_p < T} weighted by |grad w_p|.  The four shell
    integrals of a p are one quadrature run of four rows, each refined to
    1e-12 of its own value: the two gradient rows are masked to r <= R/2,
    the two defect rows to r <= r_T, the radius of the level T.  The area
    defect's |1 - (h0/h)^{n-1} e^{w_p}| has a kink wherever w_p = w_1,
    which an adaptive rule can only bisect down to rounding width.  So the
    run breaks at R/2, at r_T and at the crossings that a sample of the
    signed gap brackets (none where none is found), and no panel straddles
    a mask's edge or a kink.  Verdict per column: decreasing along the
    (descending) p list with final value below its threshold.

    ``sup_w_threshold`` is the acceptance gate; the other columns have fixed
    calibration gates sized with ~2x headroom on the reference sweeps
    (schwarzschild(1) on [2.2, 12] and euclidean(3) on [1, 4], p down to
    1.01), so they trip on regressions, not on the theory.  ``expect_sup``
    pins each sup_w row to an analytic value (rel tol 1e-6).
    Returns the report and the per-p table.
    """
    _toward_limit(p_list, "p_list", "entries inside (1, 2]", lambda p: 1.0 < p <= 2.0, 1)
    # r0 >= R is an empty annulus, which check_annulus rejects as a ConfigError on R
    if 0.5 * R <= r0 < R:
        raise ConfigError(f"need r0 < R/2 to sample [r0, R/2], got r0={r0}, R={R}", "R")
    if expect_sup is not None and len(expect_sup) != len(p_list):
        raise ConfigError("expect_sup must match p_list in length", "expect_sup")
    if expect_sup is not None and not all(math.isfinite(e) and e != 0.0 for e in expect_sup):
        raise ConfigError("expect_sup entries must be finite and nonzero", "expect_sup")
    thr = {
        "sup_w": sup_w_threshold,
        "l2_grad": 1e-1,
        "l4_grad": 5e-2,
        "cap_gap": 2e-1,
        "h_defect": 5e-3,
        "area_defect": 1.5,
    }
    phi_for = {p: _phi_for(phi_mode, model, r0, R, p) for p in p_list}
    w1 = radial.solve_w1(model, r0, R)
    rs = np.linspace(r0, 0.5 * R, _SUP_SAMPLES)
    n = model.n
    h0 = model.h(r0)
    sphere = geometry.unit_sphere_area(n)
    rows = []
    for p in p_list:
        pot = radial.solve_wp(model, r0, R, p, phi_R=phi_for[p])
        sup_w = float(np.max(np.abs(pot.w(rs) - w1.w(rs))))
        cap_gap = abs(radial.capacity(pot, 0.0, min(_T_CAP, 0.9 * pot.phi_R)) - h0 ** (n - 1))
        # the levels 0 <= t <= T fill the shell r0 < r < r_T
        r_T = pot.level_radius(_default_t_max(pot, w1))

        def area_gap(r, w):
            return 1.0 - (h0 / model.h(r)) ** (n - 1) * np.exp(w)

        def densities(r):
            w, grad = pot.w_grad(r)
            gap = w1.w_grad(r)[1] - grad  # |grad w_1| - |grad w_p|
            inner, shell = r <= 0.5 * R, r <= r_T
            masked = [inner * gap**2, inner * gap**4, shell * gap**2 * grad, shell * np.abs(area_gap(r, w)) * grad]
            return np.array(masked) * model.f(r) * model.h(r) ** (n - 1)

        def crossing(r):
            (w, grad), (w_1, H) = pot.w_grad(r), w1.w_grad(r)
            return w - w_1, model.f(r) * (grad - H)

        # |area gap| has a kink wherever w_p = w_1: a break there, and at
        # the ends of the two shells, keeps every panel on one smooth piece
        kinks = numerics.sign_changes(crossing, r0, r_T, _KINK_SAMPLES)
        breaks = sorted([0.5 * R, r_T, *kinks])
        # the defects fall to 1e-8 and below as p -> 1, hence a tight target
        shells = sphere * numerics.integrate(densities, r0, breaks[-1], 1e-12, breaks[:-1])
        l2, l4, h_def, a_def = shells.tolist()
        shell_columns = {"l2_grad": l2**0.5, "l4_grad": l4**0.25, "h_defect": h_def, "area_defect": a_def}
        rows.append({"p": p, "sup_w": sup_w, "cap_gap": cap_gap, **shell_columns})
    gates = [(key, f"p-to-1 {key}", "p-to-1-strong-convergence", threshold) for key, threshold in thr.items()]
    checks, table = _vanishing_checks("p", rows, gates)
    if expect_sup is not None:
        sup = [row["sup_w"] for row in rows]
        checks.append(_equality_check("p-to-1 sup_w analytic values", "p-to-1-sup-closed-form", sup, expect_sup, 1e-6))
    report = Report(
        experiment="p_to_1",
        checks=checks,
        environment={"model": model.label, "r0": r0, "R": R, "phi_mode": phi_mode, "T_cap": _T_CAP},
    )
    return report, {"table": table}


def eps_to_0_suite(
    model: geometry.RadialManifold,
    r0: float,
    R: float,
    p: float,
    eps_list: list[float],
):
    """sup|w^eps - w_p| and sup theta_eps on the inner half [r0, (r0+R)/2],
    per eps; they must decrease and end below 1e-4 and 1e-6.  Returns the
    report and the per-eps table."""
    _toward_limit(eps_list, "eps_list", "positive finite entries", lambda e: 0.0 < e < math.inf, 0)
    interval = (r0, 0.5 * (r0 + R))
    base = radial.solve_wp(model, r0, R, p)
    rs = np.linspace(interval[0], interval[1], _SUP_SAMPLES)
    rows = []
    for e in eps_list:
        pot = radial.solve_wp_eps(model, r0, R, p, e)
        sup_w = float(np.max(np.abs(pot.w(rs) - base.w(rs))))
        sup_th = float(np.max(pot.theta(rs)))
        rows.append({"eps": e, "sup_w": sup_w, "sup_theta": sup_th})
    gates = (
        ("sup_w", "eps-to-0 sup|w_eps - w_p|", "eps-regularization-vanishes", 1e-4),
        ("sup_theta", "eps-to-0 sup theta_eps", "theta-eps-vanishing", 1e-6),
    )
    checks, table = _vanishing_checks("eps", rows, gates)
    report = Report(
        experiment="eps_to_0",
        checks=checks,
        environment={"model": model.label, "r0": r0, "R": R, "p": p, "interval": list(interval)},
    )
    return report, {"table": table}


@dataclass(frozen=True)
class Annulus:
    """A model and the annulus [r0, R] of its round levels, judged when built."""

    model: geometry.RadialManifold
    r0: float
    R: float

    def __post_init__(self):
        radial.check_annulus(self.model, self.r0, self.R)


@dataclass(frozen=True)
class RoundCase(Annulus):
    """An annulus of ``inequality_suite`` and what it expects: ``equality``,
    the Minkowski bound holds with equality (flat space and the cones), and
    ``hawking_mass``, the constant Hawking mass of its round spheres (n = 3)."""

    equality: bool = False
    hawking_mass: Optional[float] = None

    def __post_init__(self):
        super().__post_init__()
        if self.equality and not self.model.nonneg_ricci:
            raise ConfigError(f"the Minkowski bound needs nonneg_ricci, which {self.model.label} lacks", "equality")
        if self.hawking_mass is not None and not (self.model.n == 3 and math.isfinite(self.hawking_mass)):
            raise ConfigError(f"{self.hawking_mass} on {self.model.label}; need n = 3 and a finite mass", "hawking_mass")


def _once_per_model(annuli: list[Annulus], fieldname: str) -> None:
    """Check names tell annuli apart by the model label alone: refuse a repeat."""
    labels = [annulus.model.label for annulus in annuli]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError(f"lists {', '.join(repeated)} more than once, whose checks would share their names", fieldname)


def inequality_suite(cases: list[RoundCase]):
    """Area growth, the Minkowski lower bound and, where a case states it,
    its equality, the Hawking mass a case states and the Geroch identity of
    round levels, per case.  The bound runs where the model states its
    hypothesis (``nonneg_ricci``), the Geroch check on every n = 3 model.
    Returns the report and no tables."""
    _once_per_model(cases, "cases")
    checks = []
    for case in cases:
        model, mass = case.model, case.hawking_mass
        w1 = radial.solve_w1(model, case.r0, case.R)
        T = min(4.0, 0.9 * w1.phi_R)
        ts = np.linspace(0.0, T, 40)
        levels = functionals.levels(w1, ts)
        areas = levels.area
        name = f"area growth [{model.label}]"
        checks.append(_equality_check(name, "area-exponential-growth", areas * np.exp(-ts) / areas[0], 1.0, 1e-10))
        if model.nonneg_ricci:
            for alpha in (1.0, 2.0):
                bound = (model.avr * geometry.unit_sphere_area(model.n)) ** (alpha / (model.n - 1.0))
                vals = functionals.minkowski_M(levels, alpha)
                worst = float(np.min(vals - bound))
                label = f"[{model.label}] alpha={alpha}"
                values = {"min_excess": worst, "bound": bound}
                checks.append(_gate(f"minkowski bound {label}", "minkowski-lower-bound", values, worst, -1e-8, True))
                if case.equality:
                    name = f"minkowski equality {label}"
                    checks.append(_equality_check(name, "minkowski-cone-equality", vals, bound, 1e-8))
        if model.n == 3:
            hawking = functionals.hawking_series(w1, ts, derivative_step=1e-4)
            if mass is not None:
                name = f"{hawking.name} constant = {mass:.17g} [{model.label}]"
                checks.append(_equality_check(name, "equality-case-constancy", hawking.values, mass, 1e-10))
            # round levels turn the Geroch inequality into an identity
            geroch_defect = float(np.nanmax(hawking.residual))
            values = {"max_abs_dmdt_minus_rhs": geroch_defect}
            name = f"geroch identity [{model.label}]"
            checks.append(_gate(name, "geroch-round-identity", values, geroch_defect, 1e-6))
    return Report(experiment="inequalities", checks=checks, environment={"models": [c.model.label for c in cases]}), {}


# ------------------------------------------------------------- experiments


def _model(name: str, params: Optional[dict] = None) -> geometry.RadialManifold:
    """A model object: ``params`` of the catalog constructor ``name`` picks.
    The one way a model is built by name, for configs and for the examples
    of ``pcapflow list-models --verbose``."""
    entry = geometry.MODELS.get(name)
    if entry is None:
        raise ConfigError(f"unknown model {name!r}; known: {', '.join(geometry.MODELS)}", "name")
    return _call(getattr(geometry, entry.constructor), params or {}, "params", constructor=True)


def _phi_for(mode: str, model, r0, R, p) -> Optional[float]:
    if mode == "imcf":
        return None
    if mode == "scale-invariant":
        radial.check_annulus(model, r0, R)  # before ln(R/r0) meets a bad radius
        return (model.n - p) * math.log(R / r0)
    raise ConfigError(f"unknown phi_mode '{mode}'", "phi_mode")


@dataclass(frozen=True)
class Expect:
    """A series equals ``constant`` to ``rel_tol``; judged where the config
    object is built, before any series is.  A zero constant is refused: the
    defect against 0 is absolute, not the relative one ``rel_tol`` states."""

    constant: float
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.constant) and self.constant != 0.0):
            raise ConfigError(f"constant={self.constant} must be finite and nonzero", "constant")
        if not self.rel_tol > 0.0:
            raise ConfigError(f"rel_tol={self.rel_tol} must be positive", "rel_tol")

    def check(self, series) -> Check:
        name = f"{series.name} constant = {self.constant:.17g}"
        return _equality_check(name, "equality-case-constancy", series.values, self.constant, self.rel_tol)


def _gp_identity_check(values, rhs, residual, p: float, step: float) -> Check:
    """(p-1) dG_p/dt = G_p + alpha * (boundary term of F_p), within the bound
    1e-6 max|rhs| plus the rounding floor 16 eps max|G_p| / ((p-1) d) of the
    central difference with step d.  On the flat p = alpha = 2 equality case
    the right side vanishes and the residual is that rounding noise alone."""
    res = float(np.nanmax(residual))
    scale = float(np.max(np.abs(rhs)))
    floor = 16.0 * float(np.finfo(float).eps) * float(np.max(np.abs(values))) / ((p - 1.0) * step)
    record = {"max_residual": res, "scale": scale, "floor": floor}
    return _gate("G_p derivative identity", "Gp-derivative-identity", record, res, 1e-6 * scale + floor)


def _default_t_max(*pots) -> float:
    """The default top of a level grid: min(2, 0.8 w(mid-annulus)) over the potentials of one annulus."""
    return min(2.0, *(0.8 * pot.w(0.5 * (pot.r0 + pot.R)) for pot in pots))


def _series_grid(pot, t_max: Optional[float]) -> np.ndarray:
    """20 levels from 0 to ``t_max``, by default ``_default_t_max``."""
    if t_max is None:
        t_max = _default_t_max(pot)
    elif not 0.0 < t_max <= pot.phi_R:
        raise ConfigError(f"need 0 < t_max <= {pot.phi_R}, the solution range", "t_max")
    return np.linspace(0.0, t_max, 20)


def functional_series_suite(
    model: geometry.RadialManifold,
    r0: float,
    R: float,
    p: float,
    alpha: float,
    functional: str = "F_p",
    phi_mode: str = "imcf",
    t_max: Optional[float] = None,
    expect: Optional[Expect] = None,
):
    """F_p or G_p on a level grid: monotone up to a normalized drop of 1e-8,
    the G_p derivative identity, an optional expected constant.  p = 1 is
    F_p on the flow potential of ``radial.solve_w1``, the series F_1.
    Monotonicity is guaranteed iff ``params.monotonicity_guaranteed`` on
    every model (on round levels dF_p/dt is a sum of squares once the Ricci
    bulk is subtracted).  Returns the report and the series table."""
    if functional not in ("F_p", "G_p"):
        raise ConfigError(f"unknown functional '{functional}'; known: F_p, G_p", "functional")
    if p == 1.0:
        if functional == "G_p":
            raise ConfigError("G_p requires p > 1", "functional")
        if phi_mode != "imcf":
            raise ConfigError("p = 1 is the flow potential, whose phi_mode is 'imcf'", "phi_mode")
        pot = radial.solve_w1(model, r0, R)
    else:
        pot = radial.solve_wp(model, r0, R, p, phi_R=_phi_for(phi_mode, model, r0, R, p))
    params = functionals.FunctionalParams(model.n, p, alpha, tuple(_series_grid(pot, t_max)))
    if functional == "F_p":
        series = functionals.F_p(pot, params, derivative_step=1e-3)
    else:
        # small step keeps the central-difference truncation below the
        # 1e-6 identity threshold without hitting rounding noise
        series = functionals.G_p(pot, params, derivative_step=2.5e-4)
    anchor = series.name.replace("_", "") + "-monotone-nondecreasing"
    checks = [_monotone_check(f"{series.name} monotone", anchor, series.values, params.monotonicity_guaranteed)]
    if functional == "G_p":
        checks.append(_gp_identity_check(series.values, series.rhs_qp, series.residual, p, series.derivative_step))
    if expect is not None:
        checks.append(expect.check(series))
    report = Report("functional_series", checks, {"model": model.label, "slack": _SLACK})
    return report, {series.name: series.table()}


def hawking_suite(
    model: geometry.RadialManifold,
    r0: float,
    R: float,
    t_max: Optional[float] = None,
    expect: Optional[Expect] = None,
):
    """Hawking mass along the flow of one model, optional expected constant.
    Geroch monotonicity is guaranteed where the scalar curvature is
    nonnegative (down to -1e-8) at every level radius.  Returns the report
    and the series table."""
    if model.n != 3:
        raise ConfigError(f"the Hawking mass is defined for n = 3, not on {model.label}", "model")
    pot = radial.solve_w1(model, r0, R)
    series = functionals.hawking_series(pot, _series_grid(pot, t_max), derivative_step=1e-3)
    guaranteed = bool(np.all(functionals.levels(pot, series.t).scalar >= -1e-8))
    checks = [_monotone_check("hawking mass monotone", "geroch-hawking-monotone", series.values, guaranteed)]
    if expect is not None:
        checks.append(expect.check(series))
    return Report("hawking_series", checks, {"model": model.label}), {series.name: series.table()}


def monotonicity_suite(annuli: list[Annulus]):
    """F_p monotonicity on each annulus, at p in {1.1, 1.5, 2} and the
    distinct alpha of {termwise threshold + 0.1, 2, n - 1}, on 40 levels.
    Returns the report and the verdict table."""
    _once_per_model(annuli, "annuli")
    checks = []
    rows = []
    for annulus in annuli:
        model = annulus.model
        for p in _SWEEP_P:
            pot = radial.solve_wp(model, annulus.r0, annulus.R, p)
            T = _default_t_max(pot)
            base = functionals.FunctionalParams(model.n, p, 2.0, tuple(np.linspace(0.0, T, _SWEEP_LEVELS)))
            for alpha in dict.fromkeys((base.termwise_threshold + 0.1, 2.0, model.n - 1.0)):
                params = replace(base, alpha=alpha)
                series = functionals.F_p(pot, params)
                guaranteed = params.monotonicity_guaranteed
                chk = _monotone_check(
                    f"F_p monotone [{model.label} p={p} alpha={alpha:.4g}]",
                    "Fp-monotone-nondecreasing",
                    series.values,
                    guaranteed,
                )
                checks.append(chk)
                worst = min((d for _, d in chk.values["violations"]), default=0.0)
                rows.append((model.label, p, alpha, guaranteed, worst, chk.verdict))
    report = Report("monotonicity_sweep", checks, {"slack": _SLACK, "num_levels": _SWEEP_LEVELS})
    return report, {"sweep": (["model", "p", "alpha", "guaranteed", "worst_drop", "verdict"], rows)}


_DOMAINS = {"sphere": solver2d.sphere_domain, "ellipsoid": solver2d.ellipsoid_domain}


def _domain(spec: dict) -> solver2d.AxisymmetricDomain:
    """A domain object: ``shape`` names the constructor, whose parameters are
    the other keys."""
    shape = spec.get("shape")
    if not isinstance(shape, str) or shape not in _DOMAINS:
        raise ConfigError(f"unknown domain shape {shape!r}; known: {', '.join(_DOMAINS)}", "domain.shape")
    return _call(_DOMAINS[shape], {k: v for k, v in spec.items() if k != "shape"}, "domain", constructor=True)


def solve_2d_suite(domain: dict, p: float, grid: tuple[int, int] = (96, 48)):
    """Axisymmetric solve on a sphere or ellipsoid annulus, at the outer
    value u_R = 0.05, the solver's default eps and the relative Newton
    decrement 1e-10: convergence, discrete flux conservation and the
    Gauss-Bonnet ratio of five levels spread over 20-80% of the w range.
    Returns the report, the field table, one table per level, ``newton``
    (each Newton step of every grid, coarsest first), ``levels`` (each
    level's area, Willmore energy, Gauss-Bonnet ratio and int |h-ring|^2)
    and ``divergence`` (``divergence_residuals`` at 2)."""
    if min(grid) < 16:
        raise ConfigError(f"grid {list(grid)} too coarse; need at least 16x16", "grid")
    dom = _domain(domain)
    fieldv = solver2d.solve_2d(dom, p, _U_R_2D, shape=grid, tol=_TOL_2D)
    values = {
        "residual_rel": fieldv.residual_rel,
        "outer_iterations": fieldv.outer_iterations,
        "newton_steps": fieldv.newton_steps,
        "factorizations": fieldv.factorizations,
        "min_step": min((step for _, _, step in fieldv.history), default=None),
    }
    residual = fieldv.residual_rel if fieldv.converged else math.inf
    checks = [_gate("nonlinear solve converged", "newton-energy-convergence", values, residual, _TOL_2D)]
    flux = solver2d.flux_profile(fieldv)
    spread = float((np.max(flux) - np.min(flux)) / abs(np.mean(flux)))
    values = {"relative_spread": spread, "mean_flux": float(np.mean(flux))}
    checks.append(_gate("discrete flux conservation", "flux-conservation", values, spread, 1e-6))
    tables = {"field": fieldv.table()}
    _, hi = fieldv.w_range()
    curves = fieldv.level(np.linspace(0.2 * hi, 0.8 * hi, 5))
    gbs = curves.chi_proxy / 2.0
    levels = list(zip(curves.t.tolist(), curves.area, curves.willmore, gbs, curves.integrate(curves.hring_sq)))
    for k, (t, _, _, gb, _) in enumerate(levels):
        checks.append(_equality_check(f"gauss-bonnet level t={t:.6g}", "gauss-bonnet-quantization", gb, 1.0, 0.01))
        tables[f"level{k}"] = curves.table(k)
    newton = [(*f.shape, k, *entry) for f in (*fieldv.coarse, fieldv) for k, entry in enumerate(f.history, 1)]
    tables["newton"] = (["Nsigma", "Ntheta", "step", "energy", "decrement", "step_length"], newton)
    tables["levels"] = (["t", "area", "willmore", "sc_top_over_8pi", "hring_sq_integral"], levels)
    res = solver2d.divergence_residuals(fieldv, 2.0)
    rows = [(key, res[key]["rms"], res[key]["max"], res[key]["scale"]) for key in ("J", "Y")]
    tables["divergence"] = (["identity", "rms", "max", "scale"], rows)
    return Report("solve_2d", checks, {"domain": dom.label, "grid": list(grid)}), tables


# Each experiment's keyword parameters are its config schema; it returns its
# report and named tables (suffix -> (header, rows)).
EXPERIMENTS = {
    "functional_series": functional_series_suite,
    "monotonicity_sweep": monotonicity_suite,
    "p_to_1": p_to_1_suite,
    "eps_to_0": eps_to_0_suite,
    "inequalities": inequality_suite,
    "hawking_series": hawking_suite,
    "solve_2d": solve_2d_suite,
}


def _coerce(key: str, value, kind):
    """Convert a config value to the annotated type of its parameter."""
    if get_origin(kind) is Union:  # Optional[X]
        if value is None:
            return None
        kind = next(k for k in get_args(kind) if k is not type(None))
    if is_dataclass(kind):
        # a config object: a model by its catalog name, any other by its fields
        return _call(_model if kind is geometry.RadialManifold else kind, value, key, constructor=True)
    if kind in (float, int):
        # JSON numbers only: no strings, no booleans, no truncated fractions
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"expected a number, got {value!r}", key)
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"expected an integer, got {value!r}", key)
        return kind(value)
    container = get_origin(kind) or kind
    if container in (list, tuple) and isinstance(value, (list, tuple)):
        # list[X] holds one or more X, tuple[X, Y] exactly one X and one Y
        kinds = get_args(kind) * (len(value) if container is list else 1)
        if not value or len(kinds) != len(value):
            raise ConfigError(f"expected {len(kinds) or 'one or more'} entries, got {len(value)}", key)
        return container(_coerce(key, v, k) for v, k in zip(value, kinds))
    if not isinstance(value, container):
        raise ConfigError(f"expected {container.__name__}, got {type(value).__name__}", key)
    return value


def _call(fn, spec, field: str, constructor: bool = False):
    """``fn(**spec)``: the parameters of ``fn`` are the schema of the config
    object ``spec``.  Unknown and missing keys, and values that do not
    convert to their annotation, are config errors, and so is a
    ``ValueError`` or ``OSError`` of a config object's ``constructor``, which
    names the object, or keeps a ConfigError's own field under the object's."""
    if not isinstance(spec, dict):
        raise ConfigError(f"expected an object, got {type(spec).__name__}", field)
    params = list(inspect.signature(fn, eval_str=True).parameters.values())
    allowed = {param.name for param in params}
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}", field)
    prefix = "" if field == "config" else f"{field}."
    kwargs = {}
    for param in params:
        if param.name in spec:
            kwargs[param.name] = _coerce(prefix + param.name, spec[param.name], param.annotation)
        elif param.default is param.empty:
            raise ConfigError("missing required field", prefix + param.name)
    errors = (ValueError, OSError) if constructor else ()
    try:
        return fn(**kwargs)
    except errors as exc:
        if isinstance(exc, ConfigError):
            raise ConfigError(exc.message, prefix + exc.fieldname) from exc
        raise ConfigError(str(exc), field) from exc


def artifact_prefix(cfg: dict) -> str:
    """File-name prefix of a config's tables and report: ``out_prefix``,
    else the experiment name, which must name a file in the output directory.
    The config's root and experiment name are checked first."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object", "config")
    name = cfg.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}", "experiment")
    prefix = cfg.get("out_prefix", name)
    if not isinstance(prefix, str) or prefix in ("", ".", "..") or os.path.basename(prefix) != prefix or "\0" in prefix:
        raise ConfigError(f"expected a file name inside the output directory, got {prefix!r}", "out_prefix")
    return prefix


def run_experiment(cfg: dict, out_dir) -> Report:
    """Run one experiment config; write each of its tables to
    ``{out_dir}/{prefix}_{suffix}.csv`` and list them as ``artifacts``.

    Besides ``experiment`` and ``out_prefix`` a config holds the keyword
    parameters of its experiment (see ``_call``).
    """
    prefix = artifact_prefix(cfg)
    os.makedirs(out_dir, exist_ok=True)
    spec = {k: v for k, v in cfg.items() if k not in ("experiment", "out_prefix")}
    report, tables = _call(EXPERIMENTS[cfg["experiment"]], spec, "config")
    artifacts = []
    for suffix, (header, rows) in tables.items():
        path = f"{out_dir}/{prefix}_{suffix}.csv"
        write_csv(path, header, rows)
        artifacts.append(path)
    if artifacts:
        report.environment["artifacts"] = artifacts
    return report
