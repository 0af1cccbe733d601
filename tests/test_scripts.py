"""Smoke test of the example script under scripts/."""

import runpy
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_2d_ellipsoid.py"


def test_run_2d_ellipsoid_prints_six_levels(monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPT), run_name="run_2d_ellipsoid")["main"]
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--grid", "32", "16"])
    assert main() == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("t "))
    end = next(i for i, ln in enumerate(lines) if ln.startswith("divergence residuals"))
    rows = lines[start + 1 : end]
    assert len(rows) == 6
    assert all(len(row.split()) == 5 for row in rows)
