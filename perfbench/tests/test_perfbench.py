"""Tests of the benchmark itself: tracer coverage, failure accounting and
determinism.  Run with ``python3 -m pytest -q perfbench/tests``."""

import cProfile
import os
import pstats

import pytest

import run
import workloads
from tracer import Tracer

from pcapflow import geometry, numerics, radial, solver2d, verify

ROOT = run.ROOT


def _small_call():
    pot = radial.solve_wp_eps(geometry.euclidean(3), 1.0, 3.0, 1.5, 1e-2)
    for t in (0.1, 0.4, 0.8):
        pot.level_radius(t)
    solver2d.solve_2d(solver2d.sphere_domain(1.0, 4.0), 1.5, 0.05, shape=(64, 32))


def _profile_counts(fn) -> dict:
    prof = cProfile.Profile()
    prof.runcall(fn)
    counts = {}
    for (path, _, func), (_, ncalls, *_rest) in pstats.Stats(prof).stats.items():
        counts[(os.path.basename(path), func)] = counts.get((os.path.basename(path), func), 0) + ncalls
    return counts


def test_traced_counts_equal_cprofile_counts():
    profiled = _profile_counts(_small_call)
    with Tracer() as tracer:
        _small_call()
    calls = tracer.summary()["calls"]
    expected = {
        "numerics.integrate": profiled[("numerics.py", "integrate")],
        "numerics.find_root": profiled[("numerics.py", "find_root")],
        "numerics.solve_spd": profiled[("numerics.py", "solve_spd")],
        "radial.level_radius": profiled[("radial.py", "level_radius")],
    }
    assert all(v > 0 for v in expected.values())
    assert {k: calls.get(k, 0) for k in expected} == expected


def test_uninstall_restores_every_name():
    before = (numerics.integrate, radial.integrate, geometry.integrate, radial.find_root,
              solver2d.solve_spd, radial.RadialPotential.__dict__["w"], geometry.cone)
    with Tracer():
        assert radial.integrate is not before[1]
    after = (numerics.integrate, radial.integrate, geometry.integrate, radial.find_root,
             solver2d.solve_spd, radial.RadialPotential.__dict__["w"], geometry.cone)
    assert after == before


def _configs(names, out):
    inputs = workloads.make_inputs("configs_batch", 0, ROOT)
    inputs["configs"] = [p for p in inputs["configs"] if os.path.basename(p) in names]
    inputs["out"] = str(out)
    return inputs


def test_failing_euclidean_gp_check_is_one_failed_operation(tmp_path):
    tally, _ = workloads.run_pass("configs_batch", _configs({"euclidean_gp.json", "euclidean_fp.json"}, tmp_path))
    assert (tally.attempted, tally.failed, tally.raised) == (2, 1, 0)
    assert "euclidean_gp.json" in tally.errors[0]


def test_solver_error_fails_every_config_of_the_call(tmp_path, monkeypatch):
    def broken(cfg, out_dir):
        raise radial.ShootingError("injected")

    monkeypatch.setattr(verify, "run_experiment", broken)
    inputs = _configs({"euclidean_gp.json", "euclidean_fp.json", "inequalities.json"}, tmp_path)
    tally, _ = workloads.run_pass("configs_batch", inputs)
    assert (tally.attempted, tally.failed, tally.raised) == (3, 3, 1)


def test_unconverged_2d_solve_is_one_failed_operation():
    inputs = workloads.make_inputs("axisym_2d", 0, ROOT)
    inputs["cases"] = inputs["cases"][:1]  # ellipsoid, p = 1.1, 64x32
    tally, kept = workloads.run_pass("axisym_2d", inputs)
    assert not kept["fields"][0].converged
    assert (tally.attempted, tally.failed, tally.raised) == (1 + 1 + workloads.AXISYM_LEVELS, 1, 0)


def test_fail_share_is_positive_and_tracks_failures():
    assert run.fail_share({"attempted": 36, "failed": 0}) > 0.0
    assert run.fail_share({"attempted": 36, "failed": 1}) == pytest.approx(1.5 / 37)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert workloads.make_inputs(name, 7, ROOT) == workloads.make_inputs(name, 7, ROOT)
    if name != "configs_batch":
        assert workloads.make_inputs(name, 7, ROOT) != workloads.make_inputs(name, 8, ROOT)


def _count_metrics(workload, inputs) -> dict:
    with Tracer() as tracer:
        workloads.run_pass(workload, inputs)
    row = run.layer_row(tracer.summary())
    keys = [k for k in row if k.endswith(".calls")]
    keys += ["geometry.f_points", "solver2d.outer_iterations", "numerics.solve_spd.iterations"]
    return {k: row[k][0] for k in keys}


def test_same_seed_same_counts(tmp_path):
    dense = workloads.make_inputs("level_dense", 3, ROOT)
    dense["ps"] = [1.1]
    axisym = workloads.make_inputs("axisym_2d", 3, ROOT)
    axisym["cases"] = axisym["cases"][2:3]  # the sphere, p = 1.5, 96x48
    batch = _configs({"euclidean_fp.json", "schwarzschild_geroch.json"}, tmp_path)
    for workload, inputs in (("level_dense", dense), ("axisym_2d", axisym), ("configs_batch", batch)):
        first = _count_metrics(workload, inputs)
        assert any(first.values())
        assert _count_metrics(workload, inputs) == first
