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
    form, general eigenvalues, hermitian eigenvalues with or without
    vectors, and the real Hessenberg reduction and tridiagonal spectrum of
    the self-dual route.  ``clear()`` starts the count again.
    """
    import scipy.linalg
    import scipy.linalg.lapack

    counts = Counter()
    for module, name in (
        (scipy.linalg, "schur"),
        (scipy.linalg.lapack, "dgehrd"),
        (scipy.linalg.lapack, "dsterf"),
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
