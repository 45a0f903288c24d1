"""The exception hierarchy: everything catchable under one base class."""

import inspect

import numpy as np
import pytest

from acbott import errors
from acbott.errors import (
    AlmostCommutingError,
    CertificationFailed,
    IllConditionedSign,
    NotUnitary,
    ThresholdExceeded,
)
from acbott.linalg import make_pair


def test_every_error_subclasses_base():
    for name, obj in inspect.getmembers(errors, inspect.isclass):
        if obj.__module__ != "acbott.errors":
            continue
        if issubclass(obj, Warning):
            assert issubclass(obj, UserWarning), name
        else:
            assert issubclass(obj, AlmostCommutingError), name


def test_warnings_are_not_errors():
    assert not issubclass(IllConditionedSign, AlmostCommutingError)
    with pytest.warns(IllConditionedSign):
        import warnings

        warnings.warn("probe", IllConditionedSign)


def test_certification_failure_carries_report():
    exc = CertificationFailed("no good")
    assert exc.report is None
    exc = CertificationFailed("no good", report={"max": 1.2})
    assert exc.report == {"max": 1.2}
    assert isinstance(exc, AlmostCommutingError)


def test_threshold_exceeded_is_catchable_as_base():
    with pytest.raises(AlmostCommutingError):
        raise ThresholdExceeded("delta too large")


def test_real_failure_lands_in_hierarchy():
    with pytest.raises(AlmostCommutingError):
        make_pair(2.0 * np.eye(3), np.eye(3))
    with pytest.raises(NotUnitary):
        make_pair(2.0 * np.eye(3), np.eye(3))
