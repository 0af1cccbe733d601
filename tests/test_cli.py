"""Command-line interface: exit codes, model listing, artifacts."""

import ast
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcapflow
from pcapflow import cli, geometry, numerics, radial, verify
from pcapflow.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, EXIT_SOLVER, main
from pcapflow.verify import artifact_prefix

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# subprocesses import the package from the source tree, installed or not
SRC_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join([str(CONFIGS.parent / "src"), os.environ.get("PYTHONPATH", "")]),
}

FAST_CFG = {
    "experiment": "functional_series",
    "model": {"name": "euclidean", "params": {"n": 3}},
    "functional": "F_p",
    "p": 2.0,
    "alpha": 2.0,
    "phi_mode": "scale-invariant",
    "r0": 1.0,
    "R": 8.0,
    "t_max": 2.0,
    "expect": {"constant": -2.0 * math.pi, "rel_tol": 1e-8},
    "out_prefix": "fast",
}


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = dict(FAST_CFG)
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestListModels:
    def test_plain_table(self, capsys):
        assert main(["list-models"]) == EXIT_PASS
        out = capsys.readouterr().out
        for name in geometry.MODELS:
            assert name in out

    def test_json_output(self, capsys):
        assert main(["list-models", "--json"]) == EXIT_PASS
        rows = json.loads(capsys.readouterr().out)
        assert {r["name"] for r in rows} == set(geometry.MODELS)
        assert all({"name", "parameters", "description"} <= set(r) for r in rows)
        (tab,) = [r for r in rows if r["name"] == "tabulated"]
        assert tab["parameters"] == "(path: str, n: int = 3, label: str = 'tabulated')"

    @pytest.mark.parametrize("name", sorted(geometry.MODELS))
    def test_parameters_are_the_constructor_signature(self, capsys, name):
        # the schema that a config's model params are checked against
        assert main(["list-models", "--json"]) == EXIT_PASS
        (row,) = [r for r in json.loads(capsys.readouterr().out) if r["name"] == name]
        sig = inspect.signature(getattr(geometry, geometry.MODELS[name].constructor), eval_str=True)
        assert row["parameters"] == str(sig.replace(return_annotation=sig.empty))

    def test_verbose_details(self, capsys):
        assert main(["list-models", "--json", "--verbose"]) == EXIT_PASS
        rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)}
        assert rows["schwarzschild"]["r_min"] == "2"
        assert float(rows["euclidean"]["avr"]) == 1.0
        assert float(rows["cone"]["avr"]) == 0.25
        assert rows["tabulated"]["avr"] == "-"


class TestRun:
    def test_passing_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_PASS
        stdout = capsys.readouterr().out
        assert "PASS" in stdout
        report = json.loads((out / "fast_report.json").read_text())
        assert report["experiment"] == "functional_series"
        assert all(c["anchor"] for c in report["checks"])

    def test_failing_expectation(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, expect={"constant": -6.0, "rel_tol": 1e-8})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_FAIL
        assert "FAIL" in capsys.readouterr().out

    def test_solver_breakdown(self, tmp_path, capsys, monkeypatch):
        # valid input on which a solver breaks down: with a drop slope a
        # thousand times too steep the eps-shooting runs out of steps; the
        # config after it still runs
        integrate = radial.integrate
        monkeypatch.setattr(radial, "integrate", lambda *args: integrate(*args) * np.array([1.0, 1e3]))
        bad, out = CONFIGS / "euclidean_eps_to_0.json", tmp_path / "out"
        assert main(["run", str(bad), str(CONFIGS / "euclidean_fp.json"), "--out", str(out)]) == EXIT_SOLVER
        assert f"solver error: {bad}: ShootingError: flux constant: 1 entries still moving" in capsys.readouterr().err
        assert (out / "euclidean_fp_report.json").exists()

    @pytest.mark.parametrize(
        "config, error, loop",
        [
            ("schwarzschild_p_to_1", "SolverError", "level_radius"),
            ("euclidean_eps_to_0", "ShootingError", "regularized slope"),
        ],
        ids=["level_radius", "regularized-slope"],
    )
    def test_newton_cap_is_a_solver_error(self, tmp_path, capsys, monkeypatch, config, error, loop):
        # one Newton step leaves entries moving: the job says so, not the result
        monkeypatch.setattr(numerics, "_ROOT_STEPS", 1)
        bad = CONFIGS / f"{config}.json"
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith(f"solver error: {bad}: {error}: {loop}: ")
        assert err.endswith(" entries still moving after 1 steps\n")

    def test_horizon_annulus_is_a_config_error(self, tmp_path, capsys):
        # inner radius on the Schwarzschild horizon: the annulus is invalid,
        # for the p-potentials and the flow alike
        horizon = {"model": {"name": "schwarzschild", "params": {"mass": 1.0}}, "r0": 2.0, "R": 8.0}
        flow = {"p": 1.0, "phi_mode": "imcf"}
        geroch = json.loads((CONFIGS / "schwarzschild_geroch.json").read_text())
        for k, cfg in enumerate(({**FAST_CFG, **horizon}, {**FAST_CFG, **horizon, **flow}, {**geroch, "r0": 2.0})):
            bad, out = tmp_path / f"horizon{k}.json", tmp_path / f"out{k}"
            bad.write_text(json.dumps(cfg))
            assert main(["run", str(bad), str(CONFIGS / "euclidean_fp.json"), "--out", str(out)]) == EXIT_CONFIG
            assert f"config error: {bad}: r0: f(2.0) is not finite" in capsys.readouterr().err
            assert (out / "euclidean_fp_report.json").exists()

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unreadable_model_table(self, tmp_path, capsys):
        # a missing file, and files whose rows lack h, hold a string or hold a boolean
        rows = [{"r": 1.0 + k, "f": 1.0, "h": 1.0 + k} for k in range(6)]
        broken = {
            "no_h": [{"r": row["r"], "f": 1.0} for row in rows],
            "string": [{**rows[0], "r": "1.0"}, *rows[1:]],
            "boolean": [*rows[:-1], {**rows[-1], "f": True}],
        }
        cases = [(tmp_path / "no_table.json", "model.params:")]
        for stem, table in broken.items():
            (tmp_path / f"{stem}.json").write_text(json.dumps(table))
            cases.append((tmp_path / f"{stem}.json", "model.params: tabulated row"))
        good = write_cfg(tmp_path, "good.json", out_prefix="good")
        for path, error in cases:
            table = {"name": "tabulated", "params": {"path": str(path)}}
            bad = write_cfg(tmp_path, "bad.json", model=table, out_prefix="bad")
            out = tmp_path / path.stem
            assert main(["run", str(bad), str(good), "--out", str(out)]) == EXIT_CONFIG
            assert f"config error: {bad}: {error}" in capsys.readouterr().err
            assert (out / "good_report.json").exists()
            assert not (out / "bad_report.json").exists()

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"experiment": ')
        rc = main(["run", str(bad), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "line" in capsys.readouterr().err

    def test_non_object_root(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path):
        cfg = write_cfg(tmp_path, typo_key=1)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_out_of_range_exponents(self, tmp_path, capsys):
        # each range is checked where the value is used: by solve_wp, solve_2d or FunctionalParams
        for config, field, overrides in (
            ("euclidean_fp", "alpha", {"p": 1, "alpha": 0.5, "phi_mode": "imcf"}),
            ("euclidean_fp", "p", {"p": 2.5}),
            ("euclidean_eps_to_0", "p", {"p": 2.5}),
            ("sphere_2d", "p", {"p": 2.5}),
        ):
            code, bad = self._run_edited(tmp_path, config, **overrides)
            assert code == EXIT_CONFIG, (config, overrides)
            assert f"config error: {bad}: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, field, overrides",
        [
            ("euclidean_fp", "R", {"R": math.inf}),
            ("schwarzschild_p_to_1", "R", {"R": math.inf}),
            ("euclidean_eps_to_0", "R", {"R": math.inf}),
            ("euclidean_fp", "r0", {"r0": math.inf}),
            ("euclidean_fp", "alpha", {"alpha": math.inf}),
            ("euclidean_eps_to_0", "eps_list", {"eps_list": [math.inf, 1e-3]}),
            # the scale-invariant datum ln(R/r0) is formed after the annulus check
            ("euclidean_fp", "r0", {"r0": 0.0}),
        ],
        ids=["fp-R", "p_to_1-R", "eps_to_0-R", "fp-r0", "fp-alpha", "eps_to_0-eps_list", "fp-r0-tip"],
    )
    def test_radial_values_checked_before_use(self, tmp_path, capsys, config, field, overrides):
        # the annulus, alpha and eps must be finite; R = inf is an exterior
        # problem, which no radial solver here takes
        code, bad = self._run_edited(tmp_path, config, **overrides)
        assert code == EXIT_CONFIG
        assert f"config error: {bad}: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "domain",
        [
            {"shape": "sphere", "r0": 1.0, "R": 4.0, "a_ax": 3.0},
            {"shape": "ellipsoid", "a_ax": 1.3, "r0": 0.5},
            {"shape": "sphere", "r0": 5.0, "R": 4.0},
            # json reads the literals Infinity and NaN, which json.dumps writes
            {"shape": "sphere", "r0": 1.0, "R": math.inf},
            {"shape": "ellipsoid", "a_ax": math.nan, "b_eq": 1.0, "R": 4.0},
            {"shape": "ellipsoid", "a_ax": -1.3, "b_eq": 1.0, "R": 4.0},
        ],
        ids=["sphere-a_ax", "ellipsoid-r0", "sphere-r0-beyond-R", "sphere-R-infinite", "ellipsoid-a_ax-nan",
             "ellipsoid-a_ax-negative"],
    )
    def test_domain_checked_against_its_constructor(self, tmp_path, capsys, domain):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiment": "solve_2d", "domain": domain, "p": 1.5}))
        good = write_cfg(tmp_path, "good.json", out_prefix="good")
        out = tmp_path / "out"
        assert main(["run", str(bad), str(good), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: {bad}: domain" in capsys.readouterr().err
        assert (out / "good_report.json").exists()

    @staticmethod
    def _run_edited(tmp_path, config, **overrides):
        """Exit code of a shipped config run with some keys replaced, and its path."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads((CONFIGS / f"{config}.json").read_text()), **overrides}))
        return main(["run", str(bad), "--out", str(tmp_path / "out")]), bad

    @pytest.mark.parametrize(
        "config, key, value",
        [
            ("euclidean_fp", "t_grid", {"start": 0.0, "stop": 2.0, "num": 20}),
            ("schwarzschild_geroch", "t_grid", {"start": 0.0, "stop": 4.0, "num": 20}),
            ("euclidean_p_to_1", "thresholds", {"sup_w": 8e-3}),
            ("euclidean_p_to_1", "expect_rel", 1e-6),
            ("sphere_2d", "eps", 1e-3),
            ("sphere_2d", "tol", 1e-10),
            ("sphere_2d", "levels", [0.5]),
            ("sphere_2d", "u_R", 0.05),
        ],
        ids=[
            "functional_series-t_grid",
            "hawking_series-t_grid",
            "p_to_1-thresholds",
            "p_to_1-expect_rel",
            "solve_2d-eps",
            "solve_2d-tol",
            "solve_2d-levels",
            "solve_2d-u_R",
        ],
    )
    def test_removed_keys_are_config_errors(self, tmp_path, capsys, config, key, value):
        # fixed in the suites: 20 levels from 0 to t_max, the p -> 1 gates
        # after sup_w and its analytic tolerance, the 2-D eps rule, tol,
        # levels and outer value u_R
        code, bad = self._run_edited(tmp_path, config, **{key: value})
        assert code == EXIT_CONFIG
        assert f"config error: {bad}: config: unknown keys ['{key}']" in capsys.readouterr().err

    def test_flow_from_cone_tip(self, tmp_path, capsys):
        # h(0) = 0 on the cone: the flow potential has no annulus there
        tip = tmp_path / "tip.json"
        tip.write_text(
            json.dumps(
                {
                    "experiment": "hawking_series",
                    "model": {"name": "cone", "params": {"aperture": 0.5}},
                    "r0": 0,
                    "R": 4.0,
                }
            )
        )
        out = tmp_path / "out"
        assert main(["run", str(tip), str(CONFIGS / "euclidean_fp.json"), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: {tip}: r0: h(0.0) = 0" in capsys.readouterr().err
        assert (out / "euclidean_fp_report.json").exists()

    def test_worst_exit_wins_across_configs(self, tmp_path):
        good = write_cfg(tmp_path, "good.json", out_prefix="good")
        bad = write_cfg(
            tmp_path, "bad.json", out_prefix="bad", expect={"constant": -6.0, "rel_tol": 1e-8}
        )
        out = tmp_path / "out"
        rc = main(["run", str(good), str(bad), "--out", str(out)])
        assert rc == EXIT_FAIL
        assert (out / "good_report.json").exists()
        assert (out / "bad_report.json").exists()

    def test_broken_config_does_not_hide_the_others(self, tmp_path, capsys):
        good = write_cfg(tmp_path, "good.json", out_prefix="good")
        missing = tmp_path / "missing.json"
        latin1 = tmp_path / "latin1.json"  # not valid UTF-8
        latin1.write_bytes('{"experiment": "caf\u00e9"}'.encode("latin-1"))
        directory = tmp_path / "directory.json"
        directory.mkdir()
        bad = write_cfg(
            tmp_path, "bad.json", out_prefix="bad", expect={"constant": -6.0, "rel_tol": 1e-8}
        )
        out = tmp_path / "out"
        rc = main(["run", str(good), str(missing), str(latin1), str(directory), str(bad), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert (out / "good_report.json").exists()
        assert (out / "bad_report.json").exists()
        err = capsys.readouterr().err
        for broken in (missing, latin1, directory):
            assert f"config error: {broken}: config: cannot read {broken}" in err
            assert main(["run", str(broken), "--out", str(out)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "config, field, value",
        [
            ("euclidean_p_to_1", "expect_sup", [0, 0, 0, 0]),
            ("euclidean_p_to_1", "expect_sup", ["a", 0.1, 0.1, 0.1]),
            ("euclidean_p_to_1", "expect_sup", [0.1, 0.1, 0.1, math.inf]),
            ("euclidean_p_to_1", "p_list", ["a", 1.1]),
            ("euclidean_p_to_1", "R", 2.0),  # r0 = 1: p_to_1 samples [r0, R/2]
            ("euclidean_p_to_1", "R", 1.5),
            ("sphere_2d", "grid", ["a", 48]),
            ("sphere_2d", "grid", [96]),
            ("sphere_2d", "grid", [32.7, 16]),
            ("sphere_2d", "grid", ["32", "16"]),
            ("sphere_2d", "grid", [True, 16]),
            ("euclidean_eps_to_0", "p", "1.5"),
            ("euclidean_eps_to_0", "eps_list", ["1e-2", "1e-3", "1e-4"]),
            ("euclidean_eps_to_0", "p", 3.0),
            ("schwarzschild_geroch", "model", {"name": "euclidean", "params": {"n": 4}}),
            ("euclidean_fp", "t_max", 0.0),
            ("euclidean_fp", "t_max", -1.0),
            ("euclidean_fp", "t_max", 50.0),
            ("schwarzschild_geroch", "t_max", 50.0),
            ("sphere_2d", "p", 3.0),
            ("sphere_2d", "grid", [8, 8]),
            ("euclidean_fp", "out_prefix", "nodir/x"),
            ("euclidean_fp", "out_prefix", ["a", "b"]),
            ("euclidean_fp", "out_prefix", ""),
            ("euclidean_fp", "out_prefix", "."),
            ("euclidean_fp", "out_prefix", ".."),
            ("euclidean_fp", "out_prefix", None),
            ("euclidean_fp", "out_prefix", "a\0b"),
        ],
        ids=[
            "expect_sup-zero",
            "expect_sup-string",
            "expect_sup-inf",
            "p_list-string",
            "p_to_1-R-at-2r0",
            "p_to_1-R-below-2r0",
            "grid-string",
            "grid-short",
            "grid-fraction",
            "grid-numeric-strings",
            "grid-bool",
            "p-numeric-string",
            "eps_list-numeric-strings",
            "eps_to_0-p-outside-range",
            "hawking_series-model-n4",
            "t_max-zero",
            "t_max-negative",
            "t_max-beyond-phi_R",
            "hawking_series-t_max-beyond-phi_R",
            "solve_2d-p-outside-range",
            "solve_2d-grid-too-coarse",
            "out_prefix-subdir",
            "out_prefix-list",
            "out_prefix-empty",
            "out_prefix-dot",
            "out_prefix-dotdot",
            "out_prefix-null",
            "out_prefix-nul-byte",
        ],
    )
    def test_list_entries_are_checked(self, tmp_path, capsys, config, field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads((CONFIGS / f"{config}.json").read_text()), field: value}))
        out = tmp_path / "out"
        assert main(["run", str(bad), str(CONFIGS / "euclidean_fp.json"), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: {bad}: {field}:" in capsys.readouterr().err
        assert (out / "euclidean_fp_report.json").exists()

    def test_integer_field_takes_integral_floats_only(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        sphere = {"experiment": "solve_2d", "domain": {"shape": "sphere", "r0": 1.0, "R": 4.0}, "p": 1.5}
        cfg.write_text(json.dumps({**sphere, "grid": [32.0, 16.0]}))
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_PASS
        report = json.loads((out / "solve_2d_report.json").read_text())
        assert report["environment"]["grid"] == [32, 16]
        assert len((out / "solve_2d_field.csv").read_text().splitlines()) == 1 + 33 * 17
        cfg.write_text(json.dumps({**sphere, "grid": [32.5, 16]}))
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: {cfg}: grid: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config", ["euclidean_fp", "euclidean_eps_to_0", "euclidean_p_to_1", "schwarzschild_geroch"]
    )
    def test_empty_annulus_is_a_domain_error(self, tmp_path, capsys, config):
        # a DomainError is a config error naming the annulus field; the next config still runs
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads((CONFIGS / f"{config}.json").read_text()), "r0": 4.0, "R": 4.0}))
        good, out = write_cfg(tmp_path, "good.json", out_prefix="good"), tmp_path / "out"
        assert main(["run", str(bad), str(good), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: {bad}: R: need r0 < R" in capsys.readouterr().err
        assert (out / "good_report.json").exists()

    def test_zero_expected_constant_is_a_config_error(self, tmp_path, capsys):
        # the flat Hawking mass is 0, but a relative defect against 0 is undefined
        flat = {"model": {"name": "euclidean", "params": {"n": 3}}, "r0": 1.0, "R": 8.0}
        for field, expect in (("constant", {"constant": 0.0}), ("rel_tol", {"constant": 1.0, "rel_tol": 0.0})):
            code, bad = self._run_edited(tmp_path, "schwarzschild_geroch", **flat, expect=expect)
            assert code == EXIT_CONFIG
            assert f"config error: {bad}: expect.{field}: {field}=0.0 must be" in capsys.readouterr().err

    def test_artifacts_list_every_table(self, tmp_path):
        # each report lists exactly the tables its run wrote, no more, no fewer
        cfg = tmp_path / "ellipsoid_2d.json"
        cfg.write_text(json.dumps({**json.loads((CONFIGS / "ellipsoid_2d.json").read_text()), "grid": [32, 16]}))
        out = tmp_path / "out"
        assert main(["run", str(CONFIGS / "euclidean_fp.json"), str(cfg), "--out", str(out)]) == EXIT_PASS
        for prefix in ("euclidean_fp", "ellipsoid_2d"):
            artifacts = json.loads((out / f"{prefix}_report.json").read_text())["environment"]["artifacts"]
            assert all(os.path.isfile(path) for path in artifacts)
            assert sorted(map(Path, artifacts)) == sorted(out.glob(f"{prefix}_*.csv"))

    def test_value_error_from_a_bug_propagates(self, tmp_path, monkeypatch):
        # only the listed solver breakdowns exit 2; anything else is a bug
        def broken(*args, **kwargs):
            raise ValueError("injected bug")

        monkeypatch.setattr(radial, "solve_wp", broken)
        with pytest.raises(ValueError, match="injected bug"):
            main(["run", str(CONFIGS / "euclidean_eps_to_0.json"), "--out", str(tmp_path / "out")])

    def test_hawking_monotonicity_needs_nonnegative_scalar_curvature(self, tmp_path):
        # hyperbolic space, f = 1 and h = sinh r, has Sc = -6: Geroch
        # monotonicity is not guaranteed there, while on Schwarzschild it is
        table = tmp_path / "hyperbolic.json"
        rs = [1.0 + 0.025 * k for k in range(141)]
        table.write_text(json.dumps([{"r": r, "f": 1.0, "h": math.sinh(r)} for r in rs]))
        cfg = tmp_path / "hyperbolic_hawking.json"
        model = {"name": "tabulated", "params": {"path": str(table)}}
        cfg.write_text(json.dumps({"experiment": "hawking_series", "model": model, "r0": 1.0, "R": 4.5}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), str(CONFIGS / "schwarzschild_geroch.json"), "--out", str(out)]) == EXIT_PASS
        (check,) = json.loads((out / "hawking_series_report.json").read_text())["checks"]
        assert check["verdict"] == "not-guaranteed" and check["values"]["guaranteed"] is False
        schwarzschild = json.loads((out / "schwarzschild_geroch_report.json").read_text())["checks"]
        assert [(c["verdict"], c["values"].get("guaranteed")) for c in schwarzschild] == [("pass", True), ("pass", None)]

    @pytest.mark.parametrize(
        "model, error",
        [
            ({"name": "euclidean", "params": {"n": 3.7}}, "model.params.n: expected an integer, got 3.7"),
            ({"name": "euclidean", "params": {"n": "3"}}, "model.params.n: expected a number, got '3'"),
            ({"name": "cone", "params": {"aperture": True}}, "model.params.aperture: expected a number"),
            ({"name": "cone", "params": {"aperture": 1.5}}, "model.params: aperture must lie in (0, 1]"),
            ({"name": "cone", "params": {"apex": 0.5}}, "model.params: unknown keys ['apex']"),
            ({"name": "torus", "params": {}}, "model.name: unknown model 'torus'"),
            ({"name": "tabulated", "params": {"path": "t.json", "avr": 0.25}}, "model.params: unknown keys ['avr']"),
            (
                {"name": "tabulated", "params": {"path": "t.json", "nonneg_ricci": True}},
                "model.params: unknown keys ['nonneg_ricci']",
            ),
        ],
        ids=[
            "n-fraction",
            "n-string",
            "aperture-bool",
            "aperture-out-of-range",
            "unknown-parameter",
            "unknown-name",
            "tabulated-avr",
            "tabulated-nonneg_ricci",
        ],
    )
    def test_model_parameters_are_checked(self, tmp_path, capsys, model, error):
        # the constructor's signature is the schema of "params"; its own
        # range checks name the object once
        bad = write_cfg(tmp_path, "bad.json", model=model, out_prefix="bad")
        out = tmp_path / "out"
        assert main(["run", str(bad), str(CONFIGS / "euclidean_fp.json"), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {bad}: {error}")
        assert (out / "euclidean_fp_report.json").exists()

    def test_unwritable_artifact_is_a_config_error(self, tmp_path, capsys):
        # no platform check can tell ahead that a 300-character name is too long
        bad = write_cfg(tmp_path, "bad.json", out_prefix="x" * 300)
        good = write_cfg(tmp_path, "good.json", out_prefix="good")
        out = tmp_path / "out"
        assert main(["run", str(bad), str(good), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad}: cannot write {out}/{'x' * 300}_")
        assert (out / "good_report.json").exists()

    def test_out_naming_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", str(CONFIGS / "euclidean_fp.json"), "--out", str(taken)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"config error: --out {taken}: File exists\n"
        assert captured.out == ""

    def test_removed_options_are_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path)
        for option in ("--jobs", "--seed"):
            with pytest.raises(SystemExit):
                main(["run", str(cfg), "--out", str(tmp_path / "out"), option, "2"])


# the number of checks each shipped config reports, 82 in all, so that a
# change that drops or adds a check has to change this ledger too
SHIPPED_CHECKS = {
    "ellipsoid_2d": 7,
    "euclidean_eps_to_0": 2,
    "euclidean_fp": 2,
    "euclidean_gp": 3,
    "euclidean_p_to_1": 7,
    "inequalities": 28,
    "monotonicity_sweep": 18,
    "schwarzschild_geroch": 2,
    "schwarzschild_p_to_1": 6,
    "sphere_2d": 7,
}


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_config_passes(config, tmp_path):
    assert main(["run", str(config), "--out", str(tmp_path)]) == EXIT_PASS
    prefix = artifact_prefix(json.loads(config.read_text()))
    checks = json.loads((tmp_path / f"{prefix}_report.json").read_text())["checks"]
    names = [c["name"] for c in checks]
    assert len(names) == len(set(names))
    assert len(checks) == SHIPPED_CHECKS[config.stem]
    assert [c["name"] for c in checks if c["verdict"] != "pass"] == []


class TestExitCodeRule:
    """A failure's type decides its exit code: every exception class of the
    package has one base and is a config error (64) or a solver breakdown (2),
    never both."""

    def test_solver_errors_are_one_base(self):
        assert cli.SOLVER_ERRORS == (numerics.SolverError, np.linalg.LinAlgError)

    def test_every_exception_class_has_a_code(self):
        classes = []
        for name in ("pcapflow", *(f"pcapflow.{m.name}" for m in pkgutil.iter_modules(pcapflow.__path__))):
            module = importlib.import_module(name)
            for _, obj in inspect.getmembers(module, inspect.isclass):
                if issubclass(obj, BaseException) and obj.__module__ == name:
                    classes.append(obj)
        bases = (numerics.ConfigError, numerics.SolverError)
        assert verify.ConfigError is numerics.ConfigError
        assert {*bases, radial.ShootingError, geometry.DomainError} <= set(classes)
        assert [c.__name__ for c in classes if len(c.__bases__) != 1] == []
        others = [c for c in classes if c not in bases]
        assert [c.__name__ for c in others if sum(issubclass(c, base) for base in bases) != 1] == []


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pcapflow.cli", "list-models"],
            capture_output=True,
            text=True,
            timeout=120,
            env=SRC_ENV,
        )
        assert proc.returncode == 0
        assert "euclidean" in proc.stdout

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    def test_closed_pipe_exits_141_quietly(self, buffered):
        # a reader that closed stdout before the first write: exit 128 +
        # SIGPIPE with no traceback, whether print or the flush meets the pipe
        env = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pcapflow.cli", "list-models", "--json", "--verbose"],
                stdout=write,
                stderr=subprocess.PIPE,
                timeout=120,
                env=env,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")


class TestScipyStaysUnloaded:
    """Radial work never needs SciPy, so it is imported only by the 2-D
    solver, which loads ``scipy.linalg`` alone, and the tabulated model."""

    @staticmethod
    def _scipy_modules(code):
        probe = code + "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys\n" + probe],
            capture_output=True,
            text=True,
            timeout=120,
            env=SRC_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_import_cli(self):
        assert self._scipy_modules("import pcapflow.cli") == "[]"

    def test_radial_run(self, tmp_path):
        config = CONFIGS / "euclidean_fp.json"
        code = f"from pcapflow import cli\nassert cli.main(['run', {str(config)!r}, '--out', {str(tmp_path)!r}]) == 0"
        assert self._scipy_modules(code) == "[]"
        assert (tmp_path / "euclidean_fp_report.json").exists()

    def test_2d_run(self, tmp_path):
        config = CONFIGS / "sphere_2d.json"
        code = f"from pcapflow import cli\nassert cli.main(['run', {str(config)!r}, '--out', {str(tmp_path)!r}]) == 0"
        loaded = ast.literal_eval(self._scipy_modules(code))
        assert "scipy.linalg" in loaded
        unwanted = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.special", "scipy.interpolate")
        assert [m for m in loaded if m.startswith(unwanted)] == []
        assert (tmp_path / "sphere_2d_report.json").exists()
