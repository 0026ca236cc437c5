import numpy as np
import pytest

import _fixtures
from sparsemkl import solver as solver_module


@pytest.fixture
def one_d():
    return _fixtures.one_dim_problem()


@pytest.fixture
def ortho():
    return _fixtures.orthonormal_problem()


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def polished(monkeypatch):
    """Whether each call of the reference polish certified its result."""
    polish = solver_module.polish_reference
    calls = []

    def spy(problem, coeffs):
        ref = polish(problem, coeffs)
        calls.append(ref is not None)
        return ref

    monkeypatch.setattr(solver_module, "polish_reference", spy)
    return calls
