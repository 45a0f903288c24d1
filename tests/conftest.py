import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from support import FACTORIZATIONS, Factorizations

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def factorizations(monkeypatch):
    """Counter of the dense factorizations made while the test runs.

    Every route in ``support.FACTORIZATIONS`` is counted, and ``threads``
    records the thread count of each mapped OpenBLAS at every counted call.
    ``clear()`` starts the count again.
    """
    counts = Factorizations()
    for modname, name in FACTORIZATIONS:
        module = importlib.import_module(modname)
        monkeypatch.setattr(module, name, counts.counted(name, getattr(module, name)))
    return counts
