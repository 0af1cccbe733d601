"""The Python examples of README.md run and give what their comments state,
and its example config runs and passes."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from pcapflow import capacity, verify

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", README, flags=re.S)
JSON_BLOCKS = re.findall(r"```json\n(.*?)```", README, flags=re.S)


def _run(index):
    namespace = {}
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), namespace)
    return namespace


def test_readme_has_two_python_examples():
    assert len(BLOCKS) == 2


def test_radial_quick_start():
    ns = _run(0)
    assert np.allclose(ns["series"].values, -2.0 * math.pi, rtol=1e-10, atol=0.0)
    assert capacity(ns["pot"]) == pytest.approx(8.0 / 7.0, rel=1e-9)


def test_2d_quick_start():
    ns = _run(1)
    field, curve, curves = ns["field"], ns["curve"], ns["curves"]
    assert field.converged
    assert [steps[:2] for steps in field.newton_steps] == [[32, 16], [64, 32], [128, 64]]
    assert curve.chi_proxy == pytest.approx(2.0, abs=0.01)
    assert curves.r.shape == (5, 65)
    assert np.all(np.abs(curves.chi_proxy - 2.0) < 0.01)
    assert field.r.shape == field.u.shape == (129, 65)


def test_example_config_passes(tmp_path):
    (cfg,) = [json.loads(block) for block in JSON_BLOCKS if '"experiment": "p_to_1"' in block]
    report = verify.run_experiment(cfg, tmp_path)
    assert report.worst == "pass", [c.name for c in report.checks if c.verdict != "pass"]
    assert len(report.checks) == 7  # six vanishing columns and the analytic sup_w values
