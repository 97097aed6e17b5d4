"""The helpers of the full-weight KL route: ``kl.vec``, and
``kl.logdet_psd`` and ``kl.solve_psd`` on one matrix or a stack of them."""

import numpy as np
import pytest

from bayeslora.adapter import ShapeError
from bayeslora.kl import NotPositiveDefiniteError, logdet_psd, solve_psd, vec


class TestVec:
    def test_column_stacking(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(vec(a), [[1.0], [3.0], [2.0], [4.0]])

    def test_column_vector_fixed_point(self):
        a = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(vec(a), a)

    def test_index_formula(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 2))
        v = vec(a)
        for i in range(3):
            for j in range(2):
                assert v[i + 3 * j, 0] == a[i, j]

    def test_kron_vec_identity(self):
        # kron(I_n, B) @ vec(X) == vec(B @ X)
        rng = np.random.default_rng(5)
        b, x = rng.normal(size=(4, 3)), rng.normal(size=(3, 5))
        lhs = np.kron(np.eye(5), b) @ vec(x)
        np.testing.assert_allclose(lhs, vec(b @ x), rtol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            vec(2.0 * x - 0.5 * y), 2.0 * vec(x) - 0.5 * vec(y), rtol=1e-13
        )


class TestLogdetSolve:
    def test_identity(self):
        assert logdet_psd(np.eye(3)) == pytest.approx(0.0, abs=1e-14)

    def test_analytic_diag(self):
        a = np.diag([np.e, np.e**2])
        assert logdet_psd(a) == pytest.approx(3.0, rel=1e-12)

    def test_against_eigenvalue_oracle(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 4))
        spd = m.T @ m + np.eye(4)
        oracle = float(np.sum(np.log(np.linalg.eigvalsh(spd))))
        assert logdet_psd(spd) == pytest.approx(oracle, abs=1e-10)

    def test_inverse_cancellation(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(5, 5))
        spd = m.T @ m + np.eye(5)
        assert logdet_psd(spd) + logdet_psd(np.linalg.inv(spd)) == pytest.approx(0.0, abs=1e-8)

    def test_not_pd_reported(self):
        with pytest.raises(NotPositiveDefiniteError):
            logdet_psd(np.diag([1.0, -1.0]))

    def test_not_symmetric_rejected(self):
        with pytest.raises(ValueError):
            logdet_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_solve_psd(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(4, 4))
        spd = m.T @ m + np.eye(4)
        b = rng.normal(size=(4, 2))
        np.testing.assert_allclose(spd @ solve_psd(spd, b), b, atol=1e-10)

    def test_solve_psd_failure(self):
        with pytest.raises(NotPositiveDefiniteError):
            solve_psd(np.diag([1.0, -2.0]), np.ones((2, 1)))



def _spd_stack(rng, count, d):
    m = rng.normal(size=(count, d, d))
    return m.swapaxes(-1, -2) @ m + np.eye(d)


class TestStacks:
    def test_logdet_per_matrix(self):
        stack = _spd_stack(np.random.default_rng(10), 3, 4)
        np.testing.assert_allclose(logdet_psd(stack), [logdet_psd(a) for a in stack], rtol=1e-13)

    def test_solve_per_matrix(self):
        rng = np.random.default_rng(11)
        stack, b = _spd_stack(rng, 3, 4), rng.normal(size=(3, 4, 5))
        np.testing.assert_allclose(stack @ solve_psd(stack, b), b, atol=1e-10)

    def test_one_indefinite_matrix_fails_the_stack(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(NotPositiveDefiniteError):
            logdet_psd(stack)
        with pytest.raises(NotPositiveDefiniteError):
            solve_psd(stack, np.ones((2, 2, 1)))

    def test_one_asymmetric_matrix_fails_the_stack(self):
        stack = np.stack([np.eye(2), [[1.0, 2.0], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="not symmetric"):
            logdet_psd(stack)

    @pytest.mark.parametrize("a, b", [
        (np.eye(3), np.ones((2, 1))),
        (np.stack([np.eye(2)] * 3), np.ones((2, 2, 1))),
    ])
    def test_solve_shape_mismatch(self, a, b):
        with pytest.raises(ShapeError, match="shape mismatch"):
            solve_psd(a, b)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            logdet_psd(np.ones((2, 3)))
