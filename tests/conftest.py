from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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

    Every route the package could take to a spectrum is counted: the Schur
    form, general eigenvalues and hermitian eigenvalues with or without
    vectors.  ``clear()`` starts the count again.
    """
    import scipy.linalg

    counts = Counter()
    for module, name in (
        (scipy.linalg, "schur"),
        (scipy.linalg, "eigvals"),
        (np.linalg, "eigvals"),
        (np.linalg, "eigvalsh"),
        (np.linalg, "eigh"),
    ):
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts
