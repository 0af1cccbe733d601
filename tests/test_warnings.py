"""The suite's warning policy (conftest.py): NumPy warnings fail a test, and
only the third-party deprecation that hypothesis's failure report triggers
is ignored."""

import warnings

import numpy as np
import pytest


def test_numpy_warnings_are_errors():
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        np.log(np.zeros(1))
    with pytest.raises(RuntimeWarning, match="overflow"):
        np.exp(np.full(1, 1e3))


def test_other_deprecations_are_errors():
    with pytest.raises(DeprecationWarning):
        warnings.warn("some deprecated call", DeprecationWarning)


def test_the_libcst_import_warning_is_ignored():
    # the message mypy_extensions gives when libcst subclasses its TypedDict
    warnings.warn(
        "mypy_extensions.TypedDict is deprecated, and will be removed in a future version. "
        "Use typing.TypedDict or typing_extensions.TypedDict instead.",
        DeprecationWarning,
    )
