import numpy as np
import pytest

from linrel import relation as rel
from linrel import subspace as sub


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def e3():
    """Graph span{(e1, e2), (0, e1)} in C^2 x C^2: domain span e1,
    T(0) = span e1, kernel {0}, range the e1-e2 plane."""
    cols = np.array([[1, 0], [0, 0], [0, 1], [1, 0]], dtype=complex)
    return rel.from_graph(sub.span(cols), 2, 2)


@pytest.fixture
def diag01():
    return rel.from_matrix(np.diag([0.0, 1.0]))


@pytest.fixture
def identity():
    """n -> the identity operator on C^n as a relation."""
    return lambda n: rel.from_matrix(np.eye(n))


@pytest.fixture
def zero():
    """(x_dim, y_dim) -> the zero operator from C^x_dim to C^y_dim as a relation."""
    return lambda x_dim, y_dim: rel.from_matrix(np.zeros((y_dim, x_dim)))
