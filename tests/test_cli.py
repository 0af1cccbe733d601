"""Command-line interface: exit codes, model listing, artifacts."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pcapflow import radial
from pcapflow.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, EXIT_SOLVER, main
from pcapflow.geometry import MODEL_NAMES
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
        for name in MODEL_NAMES:
            assert name in out

    def test_json_output(self, capsys):
        assert main(["list-models", "--json"]) == EXIT_PASS
        rows = json.loads(capsys.readouterr().out)
        assert {r["name"] for r in rows} == set(MODEL_NAMES)
        assert all({"name", "parameters", "description"} <= set(r) for r in rows)

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

    def test_solver_breakdown(self, tmp_path, capsys):
        # inner radius on the Schwarzschild horizon: the annulus is invalid
        cfg = write_cfg(
            tmp_path,
            model={"name": "schwarzschild", "params": {"mass": 1.0}},
            r0=2.0,
            R=8.0,
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_SOLVER
        assert "solver error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unreadable_model_table(self, tmp_path, capsys):
        table = {"name": "tabulated", "params": {"path": str(tmp_path / "no_table.json")}}
        bad = write_cfg(tmp_path, "bad.json", model=table, out_prefix="bad")
        good = write_cfg(tmp_path, "good.json", out_prefix="good")
        out = tmp_path / "out"
        assert main(["run", str(bad), str(good), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {bad}: model.params:" in err
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
        for field, overrides in (
            ("alpha", {"p": 1, "alpha": 0.5}),
            ("p", {"p": 2.5}),
        ):
            cfg = write_cfg(tmp_path, **overrides)
            assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
            assert f"config error: {cfg}: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "domain",
        [
            {"shape": "sphere", "r0": 1.0, "R": 4.0, "a_ax": 3.0},
            {"shape": "ellipsoid", "a_ax": 1.3, "r0": 0.5},
            {"shape": "sphere", "r0": 5.0, "R": 4.0},
        ],
        ids=["sphere-a_ax", "ellipsoid-r0", "sphere-r0-beyond-R"],
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
        ],
        ids=[
            "functional_series-t_grid",
            "hawking_series-t_grid",
            "p_to_1-thresholds",
            "p_to_1-expect_rel",
            "solve_2d-eps",
            "solve_2d-tol",
            "solve_2d-levels",
        ],
    )
    def test_removed_keys_are_config_errors(self, tmp_path, capsys, config, key, value):
        # fixed in the suites: 20 levels from 0 to t_max, the p -> 1 gates
        # after sup_w and its analytic tolerance, the 2-D eps rule, tol and levels
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
        assert main(["run", str(tip), str(CONFIGS / "euclidean_fp.json"), "--out", str(out)]) == EXIT_SOLVER
        assert f"solver error: {tip}: DomainError" in capsys.readouterr().err
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
        bad = write_cfg(
            tmp_path, "bad.json", out_prefix="bad", expect={"constant": -6.0, "rel_tol": 1e-8}
        )
        out = tmp_path / "out"
        rc = main(["run", str(good), str(missing), str(bad), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert (out / "good_report.json").exists()
        assert (out / "bad_report.json").exists()
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, field, value",
        [
            ("euclidean_p_to_1", "expect_sup", [0, 0, 0, 0]),
            ("euclidean_p_to_1", "expect_sup", ["a", 0.1, 0.1, 0.1]),
            ("euclidean_p_to_1", "expect_sup", [0.1, 0.1, 0.1, math.inf]),
            ("euclidean_p_to_1", "p_list", ["a", 1.1]),
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
        ],
        ids=[
            "expect_sup-zero",
            "expect_sup-string",
            "expect_sup-inf",
            "p_list-string",
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
        code, bad = self._run_edited(tmp_path, config, r0=4.0, R=4.0)
        assert code == EXIT_SOLVER
        assert f"solver error: {bad}: DomainError: need r0 < R" in capsys.readouterr().err

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

    def test_removed_options_are_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path)
        for option in ("--jobs", "--seed"):
            with pytest.raises(SystemExit):
                main(["run", str(cfg), "--out", str(tmp_path / "out"), option, "2"])


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_config_passes(config, tmp_path):
    assert main(["run", str(config), "--out", str(tmp_path)]) == EXIT_PASS
    prefix = artifact_prefix(json.loads(config.read_text()))
    names = [c["name"] for c in json.loads((tmp_path / f"{prefix}_report.json").read_text())["checks"]]
    assert len(names) == len(set(names))


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


class TestScipyStaysUnloaded:
    """Radial work never needs SciPy, so it is imported only by the 2-D
    solver and the tabulated model."""

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
