"""Test-suite settings.

``--hypothesis-profile=ci`` derandomizes the property tests, so a failure
in continuous integration reproduces exactly; local runs stay randomized.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True)


@pytest.fixture
def decompositions(monkeypatch):
    """Record every matrix decomposition or inverse: each call of
    ``np.linalg.eigh``, ``eigvalsh``, ``eig``, ``inv``, ``solve`` or
    ``cholesky`` appends the function's name, so a count cannot be met by
    moving the work to another of these routines."""
    calls = []
    for name in ("eigh", "eigvalsh", "eig", "inv", "solve", "cholesky"):
        real = getattr(np.linalg, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls
