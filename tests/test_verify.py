"""Experiment harness: verdict logic, report schema, config validation."""

import dataclasses
import inspect
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from pcapflow import functionals, geometry, numerics, radial, solver2d, verify
from pcapflow.verify import (
    EXPERIMENTS,
    Check,
    ConfigError,
    Report,
    eps_to_0_suite,
    p_to_1_suite,
    run_experiment,
    solve_2d_suite,
    write_csv,
)

# every key each experiment accepts, besides "experiment" and "out_prefix"
ACCEPTED_KEYS = {
    "functional_series": {"model", "functional", "r0", "R", "p", "alpha", "phi_mode", "t_max", "expect"},
    "monotonicity_sweep": {"annuli"},
    "p_to_1": {"model", "r0", "R", "p_list", "phi_mode", "sup_w_threshold", "expect_sup"},
    "eps_to_0": {"model", "r0", "R", "p", "eps_list"},
    "inequalities": {"cases"},
    "hawking_series": {"model", "r0", "R", "t_max", "expect"},
    "solve_2d": {"domain", "p", "grid"},
}


def fp_config(**overrides):
    cfg = {
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
        "out_prefix": "smoke_fp",
    }
    cfg.update(overrides)
    return cfg


class TestCheckMonotone:
    """The per-step rule of ``_drops``: a series is monotone iff it has no
    violations."""

    def test_increasing_passes(self):
        _, violations = verify._drops([0.0, 1.0, 2.0])
        assert violations == []

    def test_rounding_dip_within_slack(self):
        _, violations = verify._drops([0.0, -1e-12, 0.0])
        assert violations == []

    def test_real_dip_reported_with_index(self):
        _, violations = verify._drops([0.0, -1.0, 0.0])
        assert violations == [(0, -1.0)]

    def test_slack_scales_with_magnitude(self):
        _, violations = verify._drops([1e8, 1e8 - 1.0, 1e8])
        assert violations == []

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            verify._drops([0.0, 1.0])

    def test_nan_is_a_violation(self):
        _, violations = verify._drops([0.0, math.nan, 1.0])
        assert [k for k, _ in violations] == [0, 1]


class TestMonotoneCheck:
    @staticmethod
    def _check(values, guaranteed=True):
        zeros = np.zeros(3)
        residual = np.array([np.nan, 0.0, np.nan])
        series = functionals.MonotoneSeries("G_p", np.arange(3.0), np.array(values), zeros, zeros, residual)
        return verify._monotone_check("G_p monotone", "Fp-monotone-nondecreasing", series, guaranteed)

    def test_reports_the_normalized_drop_it_gates(self):
        # a drop of 1e-7 at 12.57 is 7.4e-9 of 1 + 12.57: under the slack
        chk = self._check([12.57, 12.57 - 1e-7, 12.57])
        assert chk.threshold == 1e-8
        assert chk.values["max_rel_drop"] == pytest.approx(1e-7 / 13.57, rel=1e-6)
        assert chk.verdict == "pass" and chk.values["violations"] == []

    def test_drop_above_slack_fails_or_is_not_guaranteed(self):
        chk = self._check([12.57, 12.57 - 2e-7, 12.57])
        assert chk.values["max_rel_drop"] > chk.threshold
        assert chk.verdict == "fail" and len(chk.values["violations"]) == 1
        assert self._check([12.57, 12.57 - 2e-7, 12.57], guaranteed=False).verdict == "not-guaranteed"


class TestCheckAndReport:
    def test_check_validation(self):
        with pytest.raises(ValueError):
            Check("x", "anchor", {}, None, "maybe")
        with pytest.raises(ValueError):
            Check("x", "", {}, None, "pass")

    def test_worst_ordering(self):
        ok = Check("a", "anc", {}, None, "pass")
        ng = Check("b", "anc", {}, None, "not-guaranteed")
        bad = Check("c", "anc", {}, None, "fail")
        assert Report("e", [ok]).worst == "pass"
        assert Report("e", [ok, ng]).worst == "not-guaranteed"
        assert Report("e", [ok, ng, bad]).worst == "fail"

    def test_schema_and_nonfinite_serialization(self, tmp_path):
        chk = Check("a", "anc", {"x": math.inf, "arr": np.arange(3.0)}, 1e-8, "pass")
        rep = Report("smoke", [chk])
        path = tmp_path / "report.json"
        rep.write(path)
        data = json.loads(path.read_text())
        assert set(data) == {"experiment", "checks", "environment"}
        assert data["checks"][0]["values"]["x"] == "inf"
        assert data["checks"][0]["values"]["arr"] == [0.0, 1.0, 2.0]
        assert "version" in data["environment"]

    def test_report_bytes_match_the_deep_copy_rule(self, tmp_path):
        # the checks go to JSON without dataclasses.asdict's deep copy, and
        # their values are left as they were
        values = {
            "scalar": np.float64(0.1),
            "count": np.int64(7),
            "f32": np.float32(0.5),
            "arr": np.array([[1.0, math.nan], [-math.inf, -0.0]]),
            "nested": [(1, np.float64(math.inf)), [np.arange(2), {"b": -math.nan, "a": "x"}]],
            "nan": math.nan,
            "none": None,
            "flag": True,
        }
        checks = [Check("a", "anc", values, 1e-8, "pass"), Check("b", "anc", {"inf": math.inf}, None, "fail")]
        rep = Report("bytes", checks, {"grid": (3, 4), "model": "flat"})
        path = tmp_path / "report.json"
        rep.write(path)
        env = {"version": verify.__version__, **rep.environment}
        deep = {"experiment": "bytes", "checks": [dataclasses.asdict(c) for c in checks], "environment": env}
        assert path.read_text() == json.dumps(verify._jsonable(deep), indent=2, sort_keys=True) + "\n"
        assert checks[0].values is values and isinstance(values["arr"], np.ndarray)

    @pytest.mark.parametrize(
        "write",
        [lambda path, k: write_csv(path, ["k"], [(k,)]), lambda path, k: Report(f"run {k}", []).write(path)],
        ids=["csv", "report"],
    )
    def test_rewrite_replaces_the_file(self, tmp_path, write):
        # an artifact is unlinked before it is written again, never truncated
        # in place: a hard link to the old file keeps the old bytes
        path, link, fresh = tmp_path / "artifact", tmp_path / "link", tmp_path / "fresh"
        write(path, 1)
        old = path.read_bytes()
        os.link(path, link)
        write(path, 2)
        write(fresh, 2)
        assert link.read_bytes() == old
        assert path.read_bytes() == fresh.read_bytes() != old

    def test_summary_lines(self):
        rep = Report("smoke", [Check("a", "anc", {}, None, "pass")])
        lines = rep.summary_lines()
        assert lines[0] == "experiment: smoke"
        assert lines[-1] == "overall: pass"
        assert any("PASS" in ln for ln in lines)


class TestGate:
    def test_below_passes_equal_and_above_fail(self):
        assert verify._gate("g", "anc", {}, 0.5, 1.0).verdict == "pass"
        assert verify._gate("g", "anc", {}, 1.0, 1.0).verdict == "fail"
        assert verify._gate("g", "anc", {}, 2.0, 1.0).verdict == "fail"
        assert verify._gate("g", "anc", {}, math.nan, 1.0).verdict == "fail"

    def test_lower_bound_mirrors(self):
        assert verify._gate("g", "anc", {}, 0.0, -1e-8, lower=True).verdict == "pass"
        assert verify._gate("g", "anc", {}, -1e-8, -1e-8, lower=True).verdict == "fail"
        assert verify._gate("g", "anc", {}, -1.0, -1e-8, lower=True).verdict == "fail"
        assert verify._gate("g", "anc", {}, math.nan, -1e-8, lower=True).verdict == "fail"

    def test_reports_the_threshold_it_applies(self):
        values = {"x": 0.5}
        chk = verify._gate("g", "anc", values, 0.5, 0.75)
        assert (chk.name, chk.anchor, chk.values, chk.threshold) == ("g", "anc", values, 0.75)

    def test_vanishing_check_needs_a_strict_decrease(self):
        rows = [(4.0, 1e-3, 1e-3, 1e-3), (2.0, 2e-3, 1e-3, 1e-5), (1.0, 1e-9, 1e-9, 1e-9)]
        gates = [(key, f"v {key}", "anc", 1e-6) for key in ("rising", "flat", "falling")]
        rising, flat, falling = verify._vanishing_checks("x", [4.0, 2.0, 1.0], rows, gates)
        assert rising.verdict == "fail" and rising.values["decreasing"] is False
        assert flat.verdict == "fail"
        assert falling.verdict == "pass" and falling.threshold == 1e-6
        assert falling.values == {"x": [4.0, 2.0, 1.0], "falling": [1e-3, 1e-5, 1e-9], "decreasing": True}

    def test_constancy_defect_equal_to_rel_tol_fails(self):
        series = SimpleNamespace(name="F_p", values=np.array([2.0, 2.5]))
        chk = verify.Expect(2.0, rel_tol=0.25).check(series)
        assert chk.values["max_rel_defect"] == chk.threshold == 0.25
        assert chk.verdict == "fail"
        assert verify.Expect(2.0, rel_tol=0.5).check(series).verdict == "pass"


class TestRunExperiment:
    def test_functional_series_passes(self, tmp_path):
        report = run_experiment(fp_config(), tmp_path)
        assert report.worst == "pass"
        assert all(c.anchor for c in report.checks)
        assert (tmp_path / "smoke_fp_F_p.csv").exists() or any(
            f.suffix == ".csv" for f in tmp_path.iterdir()
        )

    def test_deterministic_artifacts(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_experiment(fp_config(), a)
        run_experiment(fp_config(), b)
        csvs_a = sorted(f.name for f in a.iterdir() if f.suffix == ".csv")
        csvs_b = sorted(f.name for f in b.iterdir() if f.suffix == ".csv")
        assert csvs_a and csvs_a == csvs_b
        for name in csvs_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_failed_expectation_reported(self, tmp_path):
        cfg = fp_config(expect={"constant": -6.0, "rel_tol": 1e-8})
        report = run_experiment(cfg, tmp_path)
        assert report.worst == "fail"

    @pytest.mark.parametrize(
        "cfg",
        [
            fp_config(expect={"constant": 0.0}),
            {
                "experiment": "hawking_series",
                "model": {"name": "schwarzschild", "params": {"mass": 1.0}},
                "r0": 2.2,
                "R": 12.0,
                "expect": {"constant": 0.0},
            },
        ],
        ids=["functional_series", "hawking_series"],
    )
    def test_bad_expectation_stops_before_the_solve(self, tmp_path, monkeypatch, cfg):
        def unreachable(*args, **kwargs):
            raise AssertionError("solved before the expectation was checked")

        for name in ("solve_wp", "solve_w1"):
            monkeypatch.setattr(radial, name, unreachable)
        with pytest.raises(ConfigError, match="expect.constant"):
            run_experiment(cfg, tmp_path)

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment({"experiment": "warp-drive"}, tmp_path)

    def test_missing_key(self, tmp_path):
        cfg = fp_config()
        del cfg["p"]
        with pytest.raises(ConfigError):
            run_experiment(cfg, tmp_path)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(fp_config(typo_key=1), tmp_path)

    def test_bad_model_name(self, tmp_path):
        cfg = fp_config(model={"name": "torus", "params": {}})
        with pytest.raises(ConfigError):
            run_experiment(cfg, tmp_path)

    def test_missing_model_parameter(self, tmp_path):
        cfg = fp_config(model={"name": "schwarzschild", "params": {}})
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg, tmp_path)
        assert err.value.fieldname == "model.params.mass"

    def test_t_max_must_be_a_number(self, tmp_path):
        cfg = fp_config(t_max={"start": 0.0, "stop": 2.0, "num": 8})
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg, tmp_path)
        assert err.value.fieldname == "t_max"

    @pytest.mark.parametrize("name", sorted(ACCEPTED_KEYS))
    def test_accepted_keys(self, name, tmp_path):
        assert set(EXPERIMENTS) == set(ACCEPTED_KEYS)
        assert set(inspect.signature(EXPERIMENTS[name]).parameters) == ACCEPTED_KEYS[name]
        with pytest.raises(ConfigError, match="typo_key"):
            run_experiment({"experiment": name, "typo_key": 1}, tmp_path)

    @pytest.mark.parametrize(
        "field, value",
        [("model", [1]), ("r0", "one"), ("p_list", 1.5), ("sup_w_threshold", [1.0])],
    )
    def test_type_errors_name_the_field(self, field, value, tmp_path):
        cfg = {
            "experiment": "p_to_1",
            "model": {"name": "euclidean", "params": {"n": 3}},
            "r0": 1.0,
            "R": 4.0,
            "p_list": [1.2, 1.1],
            field: value,
        }
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg, tmp_path)
        assert err.value.fieldname == field

    def test_default_prefix_is_the_experiment(self, tmp_path):
        cfg = fp_config()
        del cfg["out_prefix"]
        report = run_experiment(cfg, tmp_path)
        assert report.environment["artifacts"] == [f"{tmp_path}/functional_series_F_p.csv"]
        assert verify.artifact_prefix(cfg) == "functional_series"


class TestFunctionalSeriesSchema:
    """functional_series runs F_p or G_p; p = 1 is F_p on the flow potential."""

    F1 = {
        "model": {"name": "schwarzschild", "params": {"mass": 1.0}},
        "functional": "F_p",
        "p": 1,
        "alpha": 2.0,
        "r0": 2.2,
        "R": 12.0,
        "t_max": 2.0,
    }

    @pytest.mark.parametrize("spelling", ["F_1", "hawking"])
    def test_removed_spellings_are_config_errors(self, spelling, tmp_path):
        with pytest.raises(ConfigError) as err:
            run_experiment(fp_config(functional=spelling), tmp_path)
        assert err.value.fieldname == "functional"

    @pytest.mark.parametrize(
        "overrides, fieldname",
        [({"functional": "G_p"}, "functional"), ({"phi_mode": "scale-invariant"}, "phi_mode")],
    )
    def test_p_one_is_f_p_on_the_flow(self, overrides, fieldname, tmp_path):
        cfg = {"experiment": "functional_series", **self.F1, **overrides}
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg, tmp_path)
        assert err.value.fieldname == fieldname

    def test_p_one_reproduces_the_f1_report(self):
        # the report of the former {"functional": "F_1", "alpha": 2} config
        report, tables = verify.functional_series_suite(**{**self.F1, "model": geometry.schwarzschild(1.0)})
        (check,) = report.checks
        assert (check.name, check.anchor, check.threshold, check.verdict) == (
            "F_1 monotone",
            "F1-monotone-nondecreasing",
            1e-8,
            "pass",
        )
        assert check.values["first"] == pytest.approx(-2.2847946571562145, rel=1e-13)
        assert check.values["last"] == pytest.approx(-2.284794657156219, rel=1e-13)
        assert check.values["guaranteed"] is True and check.values["violations"] == []
        assert report.environment == {"model": "schwarzschild(m=1)", "slack": 1e-8}
        header, rows = tables["F_1"]
        assert header[:3] == ["t", "value", "bulk_term"]
        assert [row[0] for row in rows] == list(np.linspace(0.0, 2.0, 20))
        bulk = [0.0, -1.1714261012806526, -2.282792577226326, -3.337178716057968, -4.33750592928825,
                -5.286545846142504, -6.186927992974487, -7.041147078954476, -7.851569908216388,
                -8.620441937615489, -9.349893498266484, -10.04194569810008, -10.698516021792434,
                -11.321423643583309, -11.91239446770324, -12.473065910375434, -13.004991436641884,
                -13.509644864584125, -13.98842444886428, -14.442656754900877]
        assert [row[2] for row in rows] == pytest.approx(bulk, rel=1e-13, abs=1e-15)
        assert [row[1] for row in rows] == pytest.approx([-2.2847946571562145] * 20, rel=1e-13)

    def test_model_label_does_not_decide_the_guarantee(self, tmp_path):
        # hyperbolic space (f = 1, h = sinh r) at p = 1.5: the exponent
        # condition alpha > (n-p)/(n-1) = 0.75 is the whole hypothesis
        table = tmp_path / "hyperbolic.json"
        rs = np.linspace(1.0, 4.5, 141).tolist()
        table.write_text(json.dumps([{"r": r, "f": 1.0, "h": math.sinh(r)} for r in rs]))
        for alpha, guaranteed, verdict in ((2.0, True, "pass"), (0.7, False, "not-guaranteed")):
            checks = []
            for label in ("hyperbolic", "schwarzschild-like"):
                cfg = {
                    "experiment": "functional_series",
                    "model": {"name": "tabulated", "params": {"path": str(table), "label": label}},
                    "r0": 1.0,
                    "R": 4.5,
                    "p": 1.5,
                    "alpha": alpha,
                }
                checks.append(run_experiment(cfg, tmp_path / label).to_dict()["checks"])
            assert checks[0] == checks[1]
            (check,) = checks[0]
            assert check["values"]["guaranteed"] is guaranteed and check["verdict"] == verdict


SCHWARZSCHILD = {"model": {"name": "schwarzschild", "params": {"mass": 1.0}}, "r0": 2.2, "R": 12.0}


def one_case(**keys):
    """An ``inequalities`` config of one Schwarzschild case, some keys replaced."""
    return {"experiment": "inequalities", "cases": [{**SCHWARZSCHILD, **keys}]}


def one_annulus(**keys):
    """A ``monotonicity_sweep`` config of one Schwarzschild annulus, some keys replaced."""
    return {"experiment": "monotonicity_sweep", "annuli": [{**SCHWARZSCHILD, **keys}]}


class TestRoundCases:
    """``inequalities`` and ``monotonicity_sweep`` read their annuli from
    the config; a case that cannot hold is refused before any solve."""

    @pytest.mark.parametrize(
        "cfg, fieldname",
        [
            (one_case(equality=True), "cases.equality"),
            (one_case(model={"name": "euclidean", "params": {"n": 4}}, r0=1.0, hawking_mass=0.0), "cases.hawking_mass"),
            (one_case(hawking_mass=math.nan), "cases.hawking_mass"),
            ({"experiment": "inequalities", "cases": []}, "cases"),
            ({"experiment": "monotonicity_sweep", "annuli": []}, "annuli"),
            (one_case(R=2.2), "cases.R"),
            (one_annulus(R=2.0), "annuli.R"),
            (one_annulus(p=1.5), "annuli"),
            (one_case(equality=1), "cases.equality"),
            (one_case(model={"name": "schwarzschild", "params": {}}), "cases.model.params.mass"),
            (one_case(model={"name": "cone", "params": {"aperture": 2}}), "cases.model.params"),
            (one_annulus(model={"name": "torus"}), "annuli.model.name"),
        ],
        ids=[
            "equality-without-nonneg-ricci",
            "hawking_mass-at-n4",
            "hawking_mass-nan",
            "no-cases",
            "no-annuli",
            "case-R-at-r0",
            "annulus-R-inside-horizon",
            "annulus-unknown-key",
            "equality-not-a-boolean",
            "case-model-missing-parameter",
            "case-model-constructor-rejects",
            "annulus-unknown-model",
        ],
    )
    def test_bad_case_stops_before_the_solve(self, tmp_path, monkeypatch, cfg, fieldname):
        def unreachable(*args, **kwargs):
            raise AssertionError("solved before the cases were checked")

        for name in ("solve_wp", "solve_w1"):
            monkeypatch.setattr(radial, name, unreachable)
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg, tmp_path)
        assert err.value.fieldname == fieldname


class TestSuites:
    def test_p_to_1_smoke(self, euclid3):
        # short p list: the fixed final-value gates are calibrated for sweeps
        # reaching p = 1.01, so the shape is asserted instead: every column
        # strictly decreases along the p list and ends below 10
        report, tables = p_to_1_suite(euclid3, 1.0, 4.0, [1.4, 1.2, 1.1], phi_mode="scale-invariant")
        header, rows = tables["table"]
        assert header[:2] == ["p", "sup_w"] and len(rows) == 3
        assert all(c.anchor for c in report.checks)
        assert len(report.checks) == 6 and all(c.values["decreasing"] for c in report.checks)
        assert all(0.0 <= v < 10.0 for v in rows[-1][1:])
        # sup column is the analytic (p-1) ln 2 for the scale-invariant datum
        sup = next(c for c in report.checks if c.name == "p-to-1 sup_w")
        finals = sup.values["sup_w"]
        assert finals[-1] == pytest.approx(0.1 * math.log(2.0), rel=1e-6)

    def test_p_to_1_flat_closed_forms(self, euclid3):
        # scale-invariant flat datum: w_p = (3-p) ln r and w_1 = 2 ln r on
        # [1, 4], so every column has a closed form; the sup and gradient
        # columns are pinned to 1e-12 relative, the level integrals (whose
        # integrands cancel to (p-1)/r) to 1e-11
        ps = [1.2, 1.1, 1.05, 1.01]
        _, tables = p_to_1_suite(euclid3, 1.0, 4.0, ps, phi_mode="scale-invariant", sup_w_threshold=8e-3)
        for p, sup, l2, l4, cap_gap, h_def, a_def in tables["table"][1]:
            T = 0.8 * (3.0 - p) * math.log(2.5)  # the level window 0.8 w_p(5/2)
            assert sup == pytest.approx((p - 1.0) * math.log(2.0), rel=1e-12)
            assert l2 == pytest.approx((p - 1.0) * math.sqrt(4.0 * math.pi), rel=1e-12)
            assert l4 == pytest.approx((p - 1.0) * (2.0 * math.pi) ** 0.25, rel=1e-12)
            assert cap_gap == pytest.approx((1.0 - math.exp(-0.2 / (p - 1.0))) ** (1.0 - p) - 1.0, abs=1e-14)
            assert h_def == pytest.approx(4.0 * math.pi * (p - 1.0) ** 2 * T, rel=1e-11)
            area = 4.0 * math.pi * (0.5 * (3.0 - p) * math.expm1(2.0 * T / (3.0 - p)) - math.expm1(T))
            assert a_def == pytest.approx(area, rel=1e-11)

    def test_p_to_1_coarea_columns_on_schwarzschild(self, schw1):
        # h_defect and area_defect are volume integrals over {w_p < T}; by
        # coarea they equal the integrals over t in [0, T] of the level data,
        # the reference where no closed form exists
        r0, R = 2.2, 12.0
        _, tables = p_to_1_suite(schw1, r0, R, [1.2, 1.1, 1.05, 1.01])
        w1 = radial.solve_w1(schw1, r0, R)
        rmid = 0.5 * (r0 + R)
        for p, *_, h_def, a_def in tables["table"][1]:
            pot = radial.solve_wp(schw1, r0, R, p)
            T = min(2.0, 0.8 * pot.w(rmid), 0.8 * w1.w(rmid))

            def h_level(t):
                lev = functionals.radial_level(pot, t)
                return lev.integrate((lev.H - lev.grad) ** 2)

            def area_level(t):
                return np.abs(functionals.radial_level(pot, t).area - functionals.radial_level(w1, t).area)

            assert h_def == pytest.approx(numerics.integrate(h_level, 0.0, T, 1e-12), rel=1e-10)
            assert a_def == pytest.approx(numerics.integrate(area_level, 0.0, T, 1e-12), rel=1e-10)

    def test_p_list_validation(self, euclid3):
        with pytest.raises(ConfigError):
            p_to_1_suite(euclid3, 1.0, 4.0, [1.5])
        with pytest.raises(ConfigError):
            p_to_1_suite(euclid3, 1.0, 4.0, [1.5, 0.9])

    def test_eps_to_0_smoke(self, euclid3):
        report, _ = eps_to_0_suite(euclid3, 1.0, 3.0, 1.5, [1e-2, 3e-3, 1e-3])
        assert all(c.anchor for c in report.checks)
        sup = next(c for c in report.checks if c.name.startswith("eps-to-0 sup|"))
        vals = sup.values["sup_w"]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_eps_list_validation(self, euclid3):
        with pytest.raises(ConfigError):
            eps_to_0_suite(euclid3, 1.0, 3.0, 1.5, [1e-3, 1e-2])

    def test_solve_2d_convergence_check(self, monkeypatch):
        domain = {"shape": "sphere", "r0": 1.0, "R": 4.0}
        report, _ = solve_2d_suite(domain, 1.5, grid=(32, 16))
        check = report.checks[0]
        assert check.anchor == "newton-energy-convergence"
        assert check.threshold == 1e-10  # the tol the solve ran at, not a looser one
        assert check.verdict == "pass" and check.values["residual_rel"] < check.threshold
        assert check.values["outer_iterations"] >= 1 and 0.0 < check.values["min_step"] <= 1.0
        assert check.values["newton_steps"] == [[32, 16, check.values["outer_iterations"]]]
        monkeypatch.setattr(verify, "_TOL_2D", 1e-30)
        report, _ = solve_2d_suite(domain, 1.5, grid=(32, 16))
        check = report.checks[0]
        assert check.threshold == 1e-30 and check.verdict == "fail"

    def test_solve_2d_summary_tables(self):
        # the newton, levels and divergence tables hold what the solve, the
        # checked levels and divergence_residuals give, cell for cell; 64x32
        # is solved after 32x16, so the newton table spans two grids
        report, tables = solve_2d_suite({"shape": "sphere", "r0": 1.0, "R": 4.0}, 1.5, grid=(64, 32))
        fieldv = solver2d.solve_2d(solver2d.sphere_domain(1.0, 4.0), 1.5, 0.05, shape=(64, 32), tol=verify._TOL_2D)
        converged = report.checks[0].values

        header, rows = tables["newton"]
        assert header == ["Nsigma", "Ntheta", "step", "energy", "decrement", "step_length"]
        assert [grid[:2] for grid in converged["newton_steps"]] == [[32, 16], [64, 32]]
        assert len(rows) == sum(steps for *_, steps in converged["newton_steps"])
        steps = [(ns, nt, k) for ns, nt, n in converged["newton_steps"] for k in range(1, n + 1)]
        assert [tuple(row[:3]) for row in rows] == steps
        assert rows[-1][4] == converged["residual_rel"]
        assert all(0.0 < row[5] <= 1.0 for row in rows)

        header, rows = tables["levels"]
        assert header == ["t", "area", "willmore", "sc_top_over_8pi", "hring_sq_integral"]
        gauss_bonnet = [c.values for c in report.checks if c.anchor == "gauss-bonnet-quantization"]
        assert len(rows) == len(gauss_bonnet) == 5
        assert [(row[3], row[1]) for row in rows] == [(v["sc_top_over_8pi"], v["area"]) for v in gauss_bonnet]
        for k, (t, _, willmore, _, hring_sq) in enumerate(rows):
            curve = fieldv.level(t)
            assert (willmore, hring_sq) == (curve.willmore, curve.integrate(curve.hring_sq))
            # the levelK table of the batch is the single level's, bit for bit
            header, level_rows = curve.table()
            assert tables[f"level{k}"][0] == header
            assert np.asarray(tables[f"level{k}"][1]).tobytes() == np.asarray(level_rows).tobytes()

        header, rows = tables["divergence"]
        assert header == ["identity", "rms", "max", "scale"]
        res = solver2d.divergence_residuals(fieldv, 2.0)
        assert rows == [(key, res[key]["rms"], res[key]["max"], res[key]["scale"]) for key in ("J", "Y")]


class TestAreaSplit:
    """The p -> 1 area defect |1 - (h0/h)^2 e^{w_p}| |grad w_p| has a kink
    where w_p = w_1.  The suite's one quadrature run per p breaks there when
    a sample of the signed gap brackets it, and at the ends R/2 and r_T of
    its two shells."""

    @staticmethod
    def _window(model, r0, R, p, phi_mode="imcf"):
        """The potential, its area gap and shell density, and r_T as the suite builds them."""
        pot = radial.solve_wp(model, r0, R, p, phi_R=verify._phi_for(phi_mode, model, r0, R, p))
        w1 = radial.solve_w1(model, r0, R)
        rmid = 0.5 * (r0 + R)
        r_T = pot.level_radius(min(2.0, 0.8 * pot.w(rmid), 0.8 * w1.w(rmid)))
        h0 = model.h(r0)

        def gap(r):
            return 1.0 - (h0 / model.h(r)) ** 2 * np.exp(pot.w(r))

        def density(r):
            return np.abs(gap(r)) * pot.grad_norm(r) * model.f(r) * model.h(r) ** 2

        return pot, w1, gap, density, r_T

    @staticmethod
    def _runs(monkeypatch, *args, **kwargs):
        """The suite's table rows, and per p the (a, b, breaks, integrand
        calls) of its quadrature runs."""
        runs = []
        integrate = numerics.integrate

        def recorded(fn, a, b, rel_tol, breaks):
            calls = []
            runs.append((a, b, list(breaks), calls))
            return integrate(lambda r: calls.append(r.size) or fn(r), a, b, rel_tol, breaks)

        monkeypatch.setattr(numerics, "integrate", recorded)
        _, tables = p_to_1_suite(*args, **kwargs)
        monkeypatch.undo()
        return tables["table"][1], runs

    @staticmethod
    def _crossing(model, pot, w1):
        """w_p - w_1 and its slope f (|grad w_p| - H), as the suite passes them."""

        def crossing(r):
            (w, grad), (w_1, H) = pot.w_grad(r), w1.w_grad(r)
            return w - w_1, model.f(r) * (grad - H)

        return crossing

    def test_sign_changes_of_either_direction_in_one_call(self, monkeypatch):
        # sin falls through pi and 3 pi and rises through 2 pi: each root is
        # oriented by its left sample, and all are refined in one call
        calls = []
        find_root = numerics.find_root
        monkeypatch.setattr(numerics, "find_root", lambda *a, **k: calls.append(a) or find_root(*a, **k))
        roots = numerics.sign_changes(lambda r: (np.sin(r), np.cos(r)), 0.0, 10.0, 64)
        assert len(calls) == 1
        assert roots == pytest.approx([math.pi, 2.0 * math.pi, 3.0 * math.pi], rel=0.0, abs=1e-13)

    def test_schwarzschild_split_at_the_crossing(self, monkeypatch, schw1):
        pot, w1, gap, density, r_T = self._window(schw1, 2.2, 12.0, 1.1)
        crossing = self._crossing(schw1, pot, w1)
        kinks = numerics.sign_changes(crossing, 2.2, r_T, verify._KINK_SAMPLES)
        assert len(kinks) == 1 and 2.2 < kinks[0] < r_T
        assert abs(pot.w(kinks[0]) - w1.w(kinks[0])) < 1e-12 and abs(gap(kinks[0])) < 1e-12
        # the slope of the crossing is d(w_p - w_1)/dr
        r, d = kinks[0], 1e-5
        assert crossing(np.array([r]))[1][0] == pytest.approx((crossing(r + d)[0] - crossing(r - d)[0]) / (2.0 * d), rel=1e-8)
        rows, runs = self._runs(monkeypatch, schw1, 2.2, 12.0, [1.2, 1.1])
        assert len(runs) == 2
        (p, *_, a_def), (a, b, breaks, calls) = rows[1], runs[1]
        assert p == 1.1 and a == 2.2
        assert sorted([*breaks, b]) == sorted([6.0, r_T, kinks[0]])
        # the four columns of one p cost a handful of rounds together
        assert len(calls) <= 8
        # one row of the same density on the same pieces of [r0, r_T]
        alone = numerics.integrate(density, 2.2, r_T, 1e-12, [x for x in breaks if x < r_T])
        assert a_def == pytest.approx(4.0 * math.pi * alone, rel=1e-12, abs=0.0)

    def test_no_crossing_integrates_one_interval(self, monkeypatch, euclid3):
        # scale-invariant flat datum: w_p - w_1 = (1 - p) ln r < 0, no kink
        pot, w1, gap, density, r_T = self._window(euclid3, 1.0, 4.0, 1.1, "scale-invariant")
        assert numerics.sign_changes(self._crossing(euclid3, pot, w1), 1.0, r_T, verify._KINK_SAMPLES) == []
        rows, runs = self._runs(monkeypatch, euclid3, 1.0, 4.0, [1.2, 1.1], "scale-invariant")
        (p, *_, a_def), (a, b, breaks, _) = rows[1], runs[1]
        assert p == 1.1 and a == 1.0
        assert sorted([*breaks, b]) == sorted([2.0, r_T])
        whole = numerics.integrate(density, 1.0, r_T, 1e-12)
        assert a_def == pytest.approx(4.0 * math.pi * whole, rel=1e-12, abs=0.0)
        # a break where nothing kinks changes nothing beyond the tolerance
        split = numerics.integrate(density, 1.0, r_T, 1e-12, [0.5 * (1.0 + r_T)])
        assert split == pytest.approx(whole, rel=1e-12, abs=0.0)


class TestGpIdentityCheck:
    def _series(self, residual_frac):
        ts = np.linspace(0.0, 1.0, 5)
        values = 4.0 * math.pi * np.exp(ts)
        rhs = values.copy()
        residual = np.full(5, np.nan)
        residual[1:-1] = residual_frac * np.max(np.abs(rhs))
        return functionals.MonotoneSeries(
            "G_p", ts, values, np.zeros(5), rhs, residual, {"p": 2.0, "derivative_step": 2.5e-4}
        )

    def test_relative_defect_still_fails(self):
        chk = verify._gp_identity_check(self._series(1e-5))
        assert chk.verdict == "fail"
        assert chk.values["floor"] < 1e-9 * chk.values["scale"]

    def test_within_relative_threshold_passes(self):
        assert verify._gp_identity_check(self._series(5e-7)).verdict == "pass"

    def test_reports_the_bound_it_applies(self):
        for frac in (5e-7, 1e-5):
            chk = verify._gp_identity_check(self._series(frac))
            bound = 1e-6 * chk.values["scale"] + chk.values["floor"]
            assert chk.threshold == bound
            assert (chk.verdict == "pass") == (chk.values["max_residual"] < bound)

    def test_rounding_floor_covers_vanishing_right_side(self):
        series = self._series(0.0)
        series.rhs_qp[:] = 1e-14
        series.residual[1:-1] = 3.6e-11
        series.values[:] = 4.0 * math.pi
        chk = verify._gp_identity_check(series)
        assert chk.verdict == "pass"
        assert chk.values["max_residual"] > 1e-6 * chk.values["scale"]
