"""The benchmark tracer (perfbench/tracer.py) wraps program names from
outside; installing and removing it here proves that every name it wraps
still exists, so a rename breaks this test rather than only traced runs."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from pcapflow import functionals, geometry, radial

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def _mod(name):
    return importlib.import_module(f"pcapflow.{name}")


def _owners():
    """(owner, attribute) of every name the tracer wraps."""
    names = [(_mod(m), attr) for m, attr, _ in tracer.FUNCTION_SPANS]
    names += [(getattr(_mod(m), cls), meth) for m, cls, meth, _ in tracer.METHOD_SPANS]
    names += [(_mod("geometry"), ctor) for ctor in tracer.MODEL_CONSTRUCTORS]
    return names


def test_install_wraps_and_uninstall_restores_every_name():
    before = [owner.__dict__[attr] for owner, attr in _owners()]
    with tracer.Tracer() as tr:
        during = [owner.__dict__[attr] for owner, attr in _owners()]
        assert all(new is not old for new, old in zip(during, before))
        pot = radial.solve_w1(geometry.euclidean(3), 1.0, 8.0)
        functionals.F_1(pot, functionals.FunctionalParams(3, 1.0, 2.0, tuple(np.linspace(0.0, 1.0, 4))))
    assert [owner.__dict__[attr] for owner, attr in _owners()] == before
    calls = tr.summary()["calls"]
    assert calls["functionals.series"] == 1 and calls["radial.solve_w1"] == 1
