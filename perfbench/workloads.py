"""The three benchmark workloads: seeded inputs, one pass each, and the
closed-form comparisons that check a pass's outputs.

Inputs are generated without importing pcapflow, so the parent process can
rebuild them from the seed to check results.  Pass functions look every
program entry point up through its module at call time (``radial.solve_wp``,
never a name bound at import), so the wrappers of ``tracer.Tracer`` see
every call the benchmark makes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import shutil

WORKLOADS = ("configs_batch", "axisym_2d", "level_dense")

# fixed amounts of work; the seed only moves geometry and level offsets
LEVELS_RADIUS = 1025
LEVELS_SERIES = 257
CAPACITY_SECTIONS = 33
FLAT_LEVELS = 40
FLAT_SHAPE = (128, 64)
FLAT_P, FLAT_ALPHA = 1.5, 2.0
DENSE_PS = (1.5, 1.1, 1.01)
AXISYM_CASES = (
    ("ellipsoid", 1.1, (64, 32)),
    ("ellipsoid", 1.25, (96, 48)),
    ("sphere", 1.5, (96, 48)),
    ("ellipsoid", 1.5, (192, 96)),
)
AXISYM_LEVELS = 7
U_R = 0.05
ORACLE_RADII = 33


class Tally:
    """Attempted and failed operations of one pass.

    An operation is one call the benchmark makes into the program.  It
    fails if it raises, if its report has a ``fail`` verdict, or if a 2-D
    solve comes back with ``converged=False``.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.raised = 0
        self.errors = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises is a failed operation
            self.raised += 1
            self.fail(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, why: str) -> None:
        self.failed += 1
        self.errors.append(why)

    def skip(self, count: int, why: str) -> None:
        """Count ``count`` operations that could not run as failed."""
        self.attempted += count
        self.failed += count
        self.errors.append(f"{count} skipped: {why}")


# ------------------------------------------------------------------ inputs


def make_inputs(workload: str, seed: int, root: str) -> dict:
    """JSON-able inputs of ``workload`` for ``seed``; same seed, same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "configs_batch":
        cfg_dir = os.path.join(root, "configs")
        names = sorted(n for n in os.listdir(cfg_dir) if n.endswith(".json"))
        rng.shuffle(names)
        return {
            "configs": [os.path.join(cfg_dir, n) for n in names],
            "out": os.path.join(root, ".perfbench_out", "configs_batch"),
        }
    if workload == "axisym_2d":
        cases = []
        for shape, p, grid in AXISYM_CASES:
            case = {"shape": shape, "p": p, "grid": list(grid), "R": rng.uniform(3.95, 4.05)}
            if shape == "ellipsoid":
                case["a_ax"] = rng.uniform(1.29, 1.31)
            cases.append(case)
        return {"cases": cases}
    if workload == "level_dense":
        mass = rng.uniform(0.8, 1.25)
        return {
            "mass": mass,
            "r0": 2.2 * mass,
            "R": 12.0 * mass,
            "ps": list(DENSE_PS),
            "radius_offset": rng.uniform(0.05, 0.95),
            "series_offset": rng.uniform(0.0, 0.05),
            "hawking_offset": rng.uniform(0.0, 0.05),
            "flat_offset": rng.uniform(0.0, 1.0),
        }
    raise ValueError(f"unknown workload '{workload}'; known: {', '.join(WORKLOADS)}")


def oracle_radii(r0: float, R: float) -> list:
    """Geometric radii on [r0, R] where u is compared against mpmath."""
    q = R / r0
    return [r0 * q ** (k / (ORACLE_RADII - 1)) for k in range(ORACLE_RADII)]


# ------------------------------------------------------------------ passes


def run_pass(workload: str, inputs: dict):
    """One pass over the workload.  Returns (tally, kept outputs)."""
    return PASSES[workload](inputs)


def _configs_batch(inputs: dict):
    from pcapflow import cli

    out = inputs["out"]
    if os.path.isdir(out):
        shutil.rmtree(out)
    tally = Tally()
    code = cli.main(["run", *inputs["configs"], "--out", out])
    tally.attempted += len(inputs["configs"])
    if code not in (0, 1):
        # the CLI prints no report of any config once one raises
        tally.raised += 1
        tally.failed += len(inputs["configs"])
        tally.errors.append(f"pcapflow run exited {code}; every config of the batch is lost")
        return tally, {"exit_code": code}
    for path in inputs["configs"]:
        report = _report_path(path, out)
        try:
            with open(report, encoding="utf-8") as fh:
                checks = json.load(fh)["checks"]
        except (OSError, ValueError, KeyError) as exc:
            tally.fail(f"{os.path.basename(path)}: unreadable report: {exc}")
            continue
        failing = [c["name"] for c in checks if c["verdict"] == "fail"]
        if failing:
            tally.fail(f"{os.path.basename(path)}: failing checks {failing}")
    return tally, {"exit_code": code}


def _report_path(config_path: str, out: str) -> str:
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    return os.path.join(out, f"{cfg.get('out_prefix', cfg['experiment'])}_report.json")


def _domain(case: dict):
    from pcapflow import solver2d

    if case["shape"] == "sphere":
        return solver2d.sphere_domain(1.0, case["R"])
    return solver2d.ellipsoid_domain(case["a_ax"], 1.0, case["R"])


def _axisym_2d(inputs: dict):
    from pcapflow import solver2d

    tally = Tally()
    fields = []
    for case in inputs["cases"]:
        fieldv = tally.call(solver2d.solve_2d, _domain(case), case["p"], U_R, shape=tuple(case["grid"]))
        fields.append(fieldv)
        if fieldv is None:
            tally.skip(1 + AXISYM_LEVELS, "solve_2d raised")
            continue
        if not fieldv.converged:
            tally.fail(
                f"solve_2d p={case['p']} grid={case['grid']} unconverged after "
                f"{fieldv.outer_iterations} iterations (residual {fieldv.residual_rel:.3e})"
            )
        if tally.call(fieldv.derived) is None:
            tally.skip(AXISYM_LEVELS, "derived() raised")
            continue
        hi = fieldv.w_range()[1]
        for k in range(AXISYM_LEVELS):
            tally.call(fieldv.level, hi * (0.2 + 0.6 * k / (AXISYM_LEVELS - 1)))
    return tally, {"fields": fields}


def _level_dense(inputs: dict):
    from pcapflow import functionals, geometry, radial

    tally = Tally()
    m, r0, R = inputs["mass"], inputs["r0"], inputs["R"]
    model = geometry.schwarzschild(m)
    pots = {}
    per_p = LEVELS_RADIUS + 3  # level radii, F_p, G_p, capacity
    for p in inputs["ps"]:
        pot = tally.call(radial.solve_wp, model, r0, R, p)
        pots[p] = pot
        if pot is None:
            tally.skip(per_p, f"solve_wp p={p} raised")
            continue
        T = pot.phi_R
        for k in range(LEVELS_RADIUS):
            tally.call(pot.level_radius, T * (k + inputs["radius_offset"]) / LEVELS_RADIUS)
        t_max = min(2.0, 0.8 * pot.w(0.5 * (r0 + R)))
        ts = [inputs["series_offset"] + t_max * k / (LEVELS_SERIES - 1) for k in range(LEVELS_SERIES)]
        params = functionals.FunctionalParams(3, p, 2.0, tuple(ts))
        tally.call(functionals.F_p, pot, params)
        tally.call(functionals.G_p, pot, params)
        taus = tuple(0.75 * T * k / (CAPACITY_SECTIONS - 1) for k in range(CAPACITY_SECTIONS))
        tally.call(radial.capacity, pot, 0.0, None, taus)

    hawking = None
    w1 = tally.call(radial.solve_w1, model, r0, R)
    if w1 is None:
        tally.skip(1, "solve_w1 raised")
    else:
        t_max = min(4.0, 0.8 * w1.phi_R)
        off = inputs["hawking_offset"]
        ts = [off + t_max * k / (LEVELS_SERIES - 1) for k in range(LEVELS_SERIES)]
        hawking = tally.call(functionals.hawking_series, w1, ts)

    flat_series = _flat_series(tally, inputs["flat_offset"])
    return tally, {"pots": pots, "hawking": hawking, "flat_series": flat_series}


def _flat_series(tally: Tally, offset: float):
    """2-D F_p on a sphere field seeded with the exact flat potential."""
    from pcapflow import functionals, geometry, radial, solver2d

    phi_R = (3.0 - FLAT_P) * math.log(4.0)  # scale-invariant: w = (3-p) ln r exactly
    pot = tally.call(radial.solve_wp, geometry.euclidean(3), 1.0, 4.0, FLAT_P, phi_R)
    if pot is None:
        tally.skip(2, "flat solve_wp raised")
        return None
    fieldv = tally.call(solver2d.field_from_radial, solver2d.sphere_domain(1.0, 4.0), FLAT_SHAPE, pot)
    if fieldv is None:
        tally.skip(1, "field_from_radial raised")
        return None
    hi = fieldv.w_range()[1]
    # keep t +- the derivative step inside the open range (0, hi)
    lo_t = 0.1 * hi + 0.01 * hi * offset
    ts = [lo_t + 0.7 * hi * k / (FLAT_LEVELS - 1) for k in range(FLAT_LEVELS)]
    return tally.call(functionals.F_p, fieldv, functionals.FunctionalParams(3, FLAT_P, FLAT_ALPHA, tuple(ts)))


PASSES = {"configs_batch": _configs_batch, "axisym_2d": _axisym_2d, "level_dense": _level_dense}


# ------------------------------------------------------- closed-form checks


def flat_fp_constant(p: float, alpha: float, r0: float) -> float:
    """F_p along the scale-invariant flat potential w = (3-p) ln(r/r0), n = 3."""
    return -4.0 * math.pi * (3.0 - p) ** (alpha + p - 1.0) / alpha * r0 ** (3.0 - alpha - p)


def flat_gp_constant(p: float, alpha: float, r0: float) -> float:
    """G_p along the same potential."""
    return 4.0 * math.pi * (3.0 - p) ** (alpha + p - 1.0) * r0 ** (3.0 - alpha - p)


def rel_err(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def closed_form_errors(workload: str, inputs: dict, kept: dict) -> dict:
    """Relative errors of this pass's outputs against closed forms.

    mpmath references (``oracle.py``) are compared by the parent process.
    """
    if workload == "configs_batch":
        return _configs_errors(inputs)
    if workload == "axisym_2d":
        for case, fieldv in zip(inputs["cases"], kept["fields"]):
            if case["shape"] == "sphere" and fieldv is not None:
                return {"solver2d.sphere_rel_err": sphere_rel_err(fieldv, case)}
        return {}
    errs = {}
    if kept["hawking"] is not None:
        errs["functionals.hawking_mass_rel_err"] = max(rel_err(v, inputs["mass"]) for v in kept["hawking"].values)
    if kept["flat_series"] is not None:
        errs["functionals.flat_Fp_rel_err"] = flat_fp_rel_err(kept["flat_series"])
    return errs


def flat_fp_rel_err(series) -> float:
    exact = flat_fp_constant(FLAT_P, FLAT_ALPHA, 1.0)
    return max(rel_err(v, exact) for v in series.values)


def sphere_rel_err(fieldv, case: dict) -> float:
    """Largest nodal relative error of u against the radial p-harmonic profile."""
    import numpy as np

    p, R = case["p"], case["R"]
    k = (3.0 - p) / (p - 1.0)
    r = fieldv.derived()["r"]
    exact = U_R + (1.0 - U_R) * (r**-k - R**-k) / (1.0 - R**-k)
    return float(np.max(np.abs(fieldv.u - exact) / exact))


def accuracy_probe(root: str, seed: int) -> dict:
    """The per-layer accuracy comparisons, made the same way on every workload.

    Uses the level_dense inputs and the axisym_2d sphere case of ``seed``;
    returns closed-form errors and the u values for the mpmath comparison.
    """
    from pcapflow import geometry, radial, solver2d

    dense = make_inputs("level_dense", seed, root)
    model = geometry.schwarzschild(dense["mass"])
    pots = {p: radial.solve_wp(model, dense["r0"], dense["R"], p) for p in dense["ps"]}
    case = next(c for c in make_inputs("axisym_2d", seed, root)["cases"] if c["shape"] == "sphere")
    fieldv = solver2d.solve_2d(_domain(case), case["p"], U_R, shape=tuple(case["grid"]))
    return {
        "closed_form": {
            "solver2d.sphere_rel_err": sphere_rel_err(fieldv, case),
            "functionals.flat_Fp_rel_err": flat_fp_rel_err(_flat_series(Tally(), dense["flat_offset"])),
        },
        "observations": oracle_observations("level_dense", dense, {"pots": pots}),
    }


def _read_column(path: str, column: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


def _configs_errors(inputs: dict) -> dict:
    """Closed forms behind the shipped configs, read from their CSV artifacts."""
    out = inputs["out"]
    errs = {}
    for path in inputs["configs"]:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        prefix = cfg.get("out_prefix", cfg["experiment"])
        exp = cfg["experiment"]
        model = cfg.get("model", {})
        flat = model.get("name") == "euclidean" and cfg.get("phi_mode") == "scale-invariant"
        if exp == "functional_series" and flat and cfg.get("functional") in ("F_p", "G_p"):
            kind = cfg["functional"]
            form = flat_fp_constant if kind == "F_p" else flat_gp_constant
            exact = form(cfg["p"], cfg["alpha"], cfg["r0"])
            vals = _read_column(os.path.join(out, f"{prefix}_{kind}.csv"), "value")
            errs[f"configs.{prefix}_rel_err"] = max(rel_err(v, exact) for v in vals)
        elif exp == "hawking_series" and model.get("name") == "schwarzschild":
            vals = _read_column(os.path.join(out, f"{prefix}_hawking_mass.csv"), "value")
            errs[f"configs.{prefix}_rel_err"] = max(rel_err(v, model["params"]["mass"]) for v in vals)
        elif exp == "p_to_1" and flat:
            table = os.path.join(out, f"{prefix}_table.csv")
            ps, sups = _read_column(table, "p"), _read_column(table, "sup_w")
            # |w_p - w_1| = (p-1) ln(r/r0), largest at r = R/2
            scale = math.log(0.5 * cfg["R"] / cfg["r0"])
            errs[f"configs.{prefix}_rel_err"] = max(rel_err(s, (p - 1.0) * scale) for p, s in zip(ps, sups))
    return errs


def oracle_observations(workload: str, inputs: dict, kept: dict) -> dict:
    """Program values the parent compares against mpmath: u at the oracle radii."""
    if workload != "level_dense":
        return {}
    obs = {}
    radii = oracle_radii(inputs["r0"], inputs["R"])
    for p, pot in kept["pots"].items():
        if pot is not None:
            obs[repr(p)] = [pot.u(r) for r in radii]
    return obs
