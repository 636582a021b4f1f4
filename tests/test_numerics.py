import numpy as np
import pytest
from scipy.linalg import lapack

from surrogate_dfl.errors import SingularMatrix
from surrogate_dfl.numerics import matrix_to_csv, solve_symmetric


def test_solve_symmetric_identity():
    X = solve_symmetric(np.eye(3), np.eye(3))
    assert np.allclose(X, np.eye(3), atol=1e-12)


def test_solve_symmetric_diagonal():
    A = np.array([[2.0, 0.0], [0.0, 4.0]])
    X = solve_symmetric(A, np.array([[1.0], [1.0]]))
    assert np.allclose(X, [[0.5], [0.25]], atol=1e-12)


def test_solve_symmetric_indefinite_swap():
    # oracle: multiply back
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    B = np.array([[1.0], [2.0]])
    X = solve_symmetric(A, B)
    assert np.allclose(A @ X, B, atol=1e-12)
    assert np.allclose(X, [[2.0], [1.0]], atol=1e-12)


def test_solve_symmetric_residual_contract():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(2, 12)
        M = rng.normal(size=(n, n))
        A = M.T @ M + np.eye(n)
        X = solve_symmetric(A, np.eye(n))
        assert np.max(np.abs(A @ X - np.eye(n))) <= 1e-7


def test_solve_symmetric_singular():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrix):
        solve_symmetric(A, np.ones(2))


def test_solve_symmetric_vector_rhs_shape():
    x = solve_symmetric(np.eye(2), np.array([3.0, 4.0]))
    assert x.shape == (2,)
    assert np.allclose(x, [3.0, 4.0])


def bunch_kaufman_pivots(A):
    """dsytrf's pivot vector for A (lower storage): negative pairs are 2x2 blocks."""
    return lapack.dsytrf(A, lower=1)[1]


def test_solve_symmetric_singular_1x1_pivot():
    A = np.diag([1.0, 1e-13, 2.0])
    assert np.all(bunch_kaufman_pivots(A) > 0)
    with pytest.raises(SingularMatrix, match="pivot 1"):
        solve_symmetric(A, np.ones(3))


def test_solve_symmetric_singular_2x2_block():
    # the first column has a zero diagonal and a tiny off-diagonal, and the
    # large entry in row 1 makes dsytrf take the indefinite 2x2 block
    # [[0, c], [c, 1]], whose eigenvalues are about 1 and -c^2
    c = 1e-7
    A = np.array([[0.0, c, 0.0], [c, 1.0, 2.0], [0.0, 2.0, 1.0]])
    assert np.all(bunch_kaufman_pivots(A)[:2] < 0)
    with pytest.raises(SingularMatrix, match="2x2"):
        solve_symmetric(A, np.ones(3))


def test_solve_symmetric_indefinite_2x2_pivots_match_dense_solve():
    # a zero diagonal forces 2x2 pivot blocks; each one is indefinite
    rng = np.random.default_rng(3)
    for n in (2, 5, 8):
        M = rng.normal(size=(n, n))
        A = M + M.T
        np.fill_diagonal(A, 0.0)
        assert np.any(bunch_kaufman_pivots(A) < 0)
        B = rng.normal(size=(n, 2))
        X = solve_symmetric(A, B)
        assert np.allclose(X, np.linalg.solve(A, B), rtol=1e-9, atol=1e-10)
        assert np.allclose(solve_symmetric(A, B[:, 0]), X[:, 0], rtol=1e-12, atol=1e-12)


def test_solve_symmetric_empty_system():
    x = solve_symmetric(np.zeros((0, 0)), np.zeros(0))
    assert x.shape == (0,)
    X = solve_symmetric(np.zeros((0, 0)), np.zeros((0, 3)))
    assert X.shape == (0, 3)


def test_matrix_csv_roundtrip(tmp_path):
    A = np.array([[1.25, -3.5], [0.125, 7.0]])
    path = tmp_path / "m.csv"
    matrix_to_csv(A, path)
    assert np.allclose(np.loadtxt(path, delimiter=",", ndmin=2), A)
    text = path.read_text()
    assert "," in text and ";" not in text  # '.' decimal separator, no header
