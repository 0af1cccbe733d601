"""Command-line interface: exit codes, model listing, artifacts."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pcapflow.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, EXIT_SOLVER, main
from pcapflow.geometry import MODEL_NAMES

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

FAST_CFG = {
    "experiment": "functional_series",
    "model": {"name": "euclidean", "params": {"n": 3}},
    "functional": "F_p",
    "p": 2.0,
    "alpha": 2.0,
    "phi_mode": "scale-invariant",
    "r0": 1.0,
    "R": 8.0,
    "t_grid": {"start": 0.0, "stop": 2.0, "num": 8},
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

    def test_removed_options_are_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path)
        for option in ("--jobs", "--seed"):
            with pytest.raises(SystemExit):
                main(["run", str(cfg), "--out", str(tmp_path / "out"), option, "2"])


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_config_passes(config, tmp_path):
    assert main(["run", str(config), "--out", str(tmp_path)]) == EXIT_PASS


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pcapflow.cli", "list-models"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "euclidean" in proc.stdout


class TestScipyStaysUnloaded:
    """Radial work never needs SciPy, so it is imported only by the 2-D
    solver and the tabulated model."""

    @staticmethod
    def _scipy_modules(code):
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = code + "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys\n" + probe],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
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
