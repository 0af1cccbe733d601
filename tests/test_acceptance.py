"""End-to-end acceptance gate.

Eleven numbered criteria, one test each, every test ending in a single
printed PASS line (the assertions above it are the actual gate).  Expensive
2-D solves come from the session fixtures in conftest.
"""

import math

import numpy as np
import pytest

from pcapflow import functionals, geometry, radial, solver2d, verify
from pcapflow.functionals import F_p, G_p, FunctionalParams, hawking_series, minkowski_M

from conftest import grad_norm_fd, midband


def _passline(k, text):
    print(f"ACCEPTANCE {k:02d} {text}: PASS")


def test_01_flat_space_functional_constants(euclid3):
    """F_p = -2 pi and G_p = 4 pi identically for p = 2, alpha = 2 on flat space."""
    pot = radial.solve_wp(euclid3, 1.0, 8.0, 2.0, phi_R=math.log(8.0))
    params = FunctionalParams(3, 2.0, 2.0, tuple(np.linspace(0.0, 2.0, 20)))
    F = F_p(pot, params)
    G = G_p(pot, params)
    assert np.max(np.abs(F.values + 2.0 * math.pi)) <= 1e-8 * 2.0 * math.pi
    assert np.max(np.abs(G.values - 4.0 * math.pi)) <= 1e-8 * 4.0 * math.pi
    _passline(1, "flat-space constants -2pi / 4pi at rel 1e-8")


def test_02_monotonicity_sweep(tmp_path):
    """18-cell sweep: 3 models x 3 exponents p x the 2 distinct weights of
    {termwise threshold + 0.1, 2, n - 1}, 40 levels."""
    report = verify.run_experiment({"experiment": "monotonicity_sweep"}, tmp_path)
    monotone = [c for c in report.checks if c.verdict != "pass"]
    assert report.worst == "pass", [c.name for c in monotone]
    names = [c.name for c in report.checks if "F_p" in c.name]
    assert len(names) == len(set(names)) == 18
    _passline(2, "monotonicity sweep of 18 distinct cells essentially monotone (slack 1e-8)")


def test_03_derivative_identity(radial_model_set, ellipsoid_fields):
    """dF_p/dt matches the Q_p right side: radial at 1e-4, 2-D at 5%."""
    for model, r0, R in radial_model_set:
        pot = radial.solve_wp(model, r0, R, 1.5)
        T = min(2.0, 0.8 * pot.w(0.5 * (r0 + R)))
        params = FunctionalParams(3, 1.5, 2.0, tuple(np.linspace(0.02, T, 40)))
        F = F_p(pot, params)
        rel = np.nanmax(np.abs(F.residual[1:-1] / F.rhs_qp[1:-1]))
        assert rel < 1e-4, (model.label, rel)
    rels = {}
    for shape, field in ellipsoid_fields.items():
        params = FunctionalParams(3, 1.5, 2.0, tuple(midband(field)))
        F = F_p(field, params, derivative_step=5e-3)
        rels[shape] = np.nanmax(np.abs(F.residual[1:-1] / F.rhs_qp[1:-1]))
    assert rels[(128, 64)] < 0.05
    assert rels[(256, 128)] < rels[(128, 64)]
    _passline(3, "derivative identity radial <1e-4, ellipsoid <5% and refining")


def test_04_flow_functional_and_hawking(radial_model_set):
    """F_1 (F_p at p = 1) nondecreasing for alpha in {1, 2}; Hawking mass constants."""
    for model, r0, _ in radial_model_set:
        pot = radial.solve_w1(model, r0, 18.0 if r0 > 2.0 else 8.0)
        ts = tuple(np.linspace(0.0, min(2.0, 0.8 * pot.phi_R), 20))
        for alpha in (1.0, 2.0):
            series = F_p(pot, FunctionalParams(3, 1.0, alpha, ts))
            verdict, violations = verify.check_monotone(series.values)
            assert verdict == "pass", (model.label, alpha, violations)
    schw = geometry.schwarzschild(1.0)
    masses = hawking_series(radial.solve_w1(schw, 2.2, 18.0), np.linspace(0.0, 4.0, 40)).values
    assert np.max(masses) - np.min(masses) < 1e-9
    assert np.max(np.abs(masses - 1.0)) < 1e-9
    flat = hawking_series(
        radial.solve_w1(geometry.euclidean(3), 1.0, 8.0), np.linspace(0.0, 2.0, 40)
    ).values
    assert np.max(np.abs(flat)) < 1e-10
    _passline(4, "F_1 nondecreasing; m_H = 1 on schwarzschild, 0 on flat space")


def test_05_exponential_area_growth(radial_model_set):
    """Level areas grow exactly exponentially along the flow parameter."""
    for model, r0, _ in radial_model_set:
        pot = radial.solve_w1(model, r0, 18.0 if r0 > 2.0 else 10.0)
        ts = np.linspace(0.0, min(4.0, 0.9 * pot.phi_R), 40)
        areas = np.array([functionals.radial_level(pot, t).area for t in ts])
        defect = np.max(np.abs(areas * np.exp(-ts) / areas[0] - 1.0))
        assert defect < 1e-10, (model.label, defect)
    _passline(5, "area(t) = area(0) e^t at rel 1e-10 on 40 levels")


def test_06_capacity(euclid3, radial_model_set):
    """Condenser capacity: classical value, flux independence, p -> 1 limit."""
    pot = radial.solve_wp(euclid3, 1.0, 2.0, 2.0)
    assert radial.capacity(pot) == pytest.approx(2.0, rel=1e-8)
    # tau-independence: the reader enforces <= 1e-8 spread internally
    for model, r0, R in radial_model_set:
        radial.capacity(radial.solve_wp(model, r0, R, 1.5))
    gaps = []
    for p in (1.2, 1.1, 1.05, 1.01):
        potp = radial.solve_wp(euclid3, 1.0, 8.0, p)
        gaps.append(abs(radial.capacity(potp, 0.0, 0.2) - 1.0))
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 0.02
    _passline(6, "cap_2(B1,B2) = 2; tau-independent flux; cap_p -> h(r0)^2")


def test_07_p_to_1_convergence(tmp_path):
    """w_p -> w_1 tables on flat space (analytic sup) and schwarzschild."""
    flat_cfg = {
        "experiment": "p_to_1",
        "model": {"name": "euclidean", "params": {"n": 3}},
        "r0": 1.0,
        "R": 4.0,
        "p_list": [1.2, 1.1, 1.05, 1.01],
        "phi_mode": "scale-invariant",
        "sup_w_threshold": 8e-3,
        "expect_sup": [(p - 1.0) * math.log(2.0) for p in (1.2, 1.1, 1.05, 1.01)],
    }
    flat = verify.run_experiment(flat_cfg, tmp_path)
    assert flat.worst == "pass", [c.name for c in flat.checks if c.verdict != "pass"]
    schw_cfg = {
        "experiment": "p_to_1",
        "model": {"name": "schwarzschild", "params": {"mass": 1.0}},
        "r0": 2.2,
        "R": 12.0,
        "p_list": [1.2, 1.1, 1.05, 1.01],
    }
    schw = verify.run_experiment(schw_cfg, tmp_path)
    assert schw.worst == "pass", [c.name for c in schw.checks if c.verdict != "pass"]
    sup = next(c for c in schw.checks if c.name == "p-to-1 sup_w")
    assert sup.values["sup_w"][-1] < 5e-3
    _passline(7, "p->1: analytic (p-1)ln2 on flat space; schwarzschild <5e-3")


def test_08_eps_to_0_convergence(euclid3):
    """Regularized potentials converge and the degeneracy indicator vanishes."""
    report, _ = verify.eps_to_0_suite(euclid3, 1.0, 3.0, 1.5, [1e-2, 1e-3, 1e-4])
    assert report.worst == "pass", [c.name for c in report.checks if c.verdict != "pass"]
    _passline(8, "eps->0: sup|w_eps - w_p| < 1e-4, sup theta_eps < 1e-6")


def test_09_two_dimensional_oracle(sphere_field, ellipsoid_128):
    """2-D solve matches the radial oracle; Gauss-Bonnet quantization."""
    oracle = radial.solve_wp_eps(
        geometry.euclidean(3), 1.0, 3.0, 1.5, 1e-4, phi_R=0.5 * math.log(3.0)
    )
    exact = oracle.u(sphere_field.r)
    assert np.max(np.abs(sphere_field.u - exact)) < 5e-4
    chis = [sphere_field.level(t).chi_proxy / 2.0 for t in midband(sphere_field, num=5)]
    chis += [ellipsoid_128.level(t).chi_proxy / 2.0 for t in midband(ellipsoid_128, num=5)]
    assert len(chis) == 10
    assert all(0.99 <= c <= 1.01 for c in chis), chis
    _passline(9, "sphere L_inf < 5e-4 at 128x64; Gauss-Bonnet in [0.99, 1.01] on 10 levels")


def test_10_minkowski_bound_and_cone_equality(tmp_path):
    """Sharp lower bound via the asymptotic volume ratio; cones saturate it."""
    report = verify.run_experiment({"experiment": "inequalities"}, tmp_path)
    assert report.worst == "pass", [c.name for c in report.checks if c.verdict != "pass"]
    for aperture in (0.25, 0.5, 0.75):
        model = geometry.cone(3, aperture)
        pot = radial.solve_w1(model, 1.0, 10.0)
        bound = (geometry.avr(model) * 4.0 * math.pi) ** 0.5
        for t in (0.0, 1.0, 2.0):
            val = minkowski_M(functionals.radial_level(pot, t), 1.0)
            assert val == pytest.approx(bound, rel=1e-8)
            assert val == pytest.approx(2.0 * math.sqrt(math.pi) * aperture, rel=1e-8)
    _passline(10, "minkowski bound >= (AVR |S^2|)^(a/2) - 1e-8; cone equality")


def test_11_structure_identities(radial_model_set, euclid3):
    """Pointwise mean-curvature identities and the 2-D divergence residuals."""
    for model, r0, R in radial_model_set:
        pot = radial.solve_wp(model, r0, R, 1.5)
        for r in np.linspace(r0 * 1.001, R * 0.999, 50):
            g = pot.grad_norm(r)
            lhs = g - 0.5 * grad_norm_fd(pot, r) / (model.f(r) * g)
            rhs = geometry.mean_curvature_sphere(model, r)
            assert lhs == pytest.approx(rhs, rel=1e-6), (model.label, r)
        pote = radial.solve_wp_eps(model, r0, R, 1.5, 1e-3)
        for r in np.linspace(r0 * 1.001, R * 0.999, 50):
            g = pote.grad_norm(r)
            c = 1.0 + 0.5 * pote.theta(r) / 0.5
            lhs = (g - 0.5 * grad_norm_fd(pote, r) / (model.f(r) * g)) * c
            rhs = geometry.mean_curvature_sphere(model, r)
            assert lhs == pytest.approx(rhs, rel=1e-6), (model.label, r)
    pot = radial.solve_wp_eps(euclid3, 1.0, 4.0, 1.5, 1e-3)
    dom = solver2d.sphere_domain(1.0, 4.0)
    norms = {"J": [], "Y": []}
    for shape in ((64, 32), (128, 64), (256, 128)):
        res = solver2d.divergence_residuals(
            solver2d.field_from_radial(dom, shape, pot), alpha=2.0
        )
        for key in norms:
            norms[key].append(res[key]["rms"] / res[key]["scale"])
    for key, vals in norms.items():
        orders = [math.log2(a / b) for a, b in zip(vals, vals[1:])]
        assert all(o >= 1.7 for o in orders), (key, orders)
    _passline(11, "mean-curvature identities rel 1e-6; divergence order >= 1.7")
