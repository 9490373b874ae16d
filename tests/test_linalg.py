import math

import mpmath
import numpy as np
import pytest
from scipy import linalg

from skewtmix.distributions import derive_shape, skewt_logpdf
from skewtmix.linalg import (
    NotPositiveDefiniteError,
    SpdMatrix,
    _whiten,
    cholesky,
    log_det,
    quad_form,
    solve,
    solve_lower_batch,
    solve_upper_batch,
    sqrt_spd,
)
from skewtmix.mc import BLOCK_SIZE

from conftest import make_component

CASE2_SCALE = np.array([[0.7, 0.3], [0.3, 3.0]])


def random_spd(rng, d):
    # Wishart-style construction with a jitter to keep conditioning sane
    a = rng.standard_normal((d, d + 2))
    return a @ a.T / (d + 2) + 0.05 * np.eye(d)


class TestCholesky:
    def test_identity(self):
        for d in (1, 2, 5):
            assert np.allclose(cholesky(np.eye(d)), np.eye(d), atol=1e-15)

    def test_case2_roundtrip(self):
        low = cholesky(CASE2_SCALE)
        assert np.max(np.abs(low @ low.T - CASE2_SCALE)) < 1e-14

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
            SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_symmetrizes_input(self):
        skewed = CASE2_SCALE + np.array([[0.0, 1e-13], [-1e-13, 0.0]])
        m = SpdMatrix(skewed)
        assert np.array_equal(m.entries, m.entries.T)

    def test_rejects_asymmetric_input(self):
        # averaging would silently run [[1, 0.45], [0.45, 1]] instead
        with pytest.raises(ValueError, match=r"not symmetric: max \|A - A'\| = 0\.9"):
            SpdMatrix(np.array([[1.0, 0.9], [0.0, 1.0]]))


class TestLogDet:
    def test_identity(self):
        assert log_det(np.eye(3)) == pytest.approx(0.0, abs=1e-14)

    def test_case2(self):
        assert log_det(CASE2_SCALE) == pytest.approx(math.log(2.01), rel=1e-12)

    def test_scalar(self):
        assert log_det(np.array([[1.5]])) == pytest.approx(math.log(1.5), rel=1e-14)

    def test_matches_eigenvalues(self):
        rng = np.random.default_rng(11)
        for d in range(1, 7):
            s = random_spd(rng, d)
            assert log_det(s) == pytest.approx(np.sum(np.log(np.linalg.eigvalsh(s))), abs=1e-8)


class TestSolve:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        assert np.allclose(solve(np.eye(3), b), b, atol=1e-15)

    def test_diagonal(self):
        assert np.allclose(solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0])), [1.0, 1.0])

    def test_residual_random(self):
        rng = np.random.default_rng(5)
        s = random_spd(rng, 4)
        b = rng.standard_normal(4)
        x = solve(s, b)
        assert np.linalg.norm(s @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_batched(self):
        rng = np.random.default_rng(6)
        s = random_spd(rng, 3)
        b = rng.standard_normal((50, 3))
        x = solve(s, b)
        assert np.max(np.abs(b - x @ s)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve(np.eye(2), np.ones(3))
        # a 0-d input has no last axis to match, even against a 1x1 matrix
        for fn in (solve, quad_form):
            with pytest.raises(ValueError, match="dimension mismatch: matrix is 1x1, vector has no axis"):
                fn(np.eye(1), 0.5)


class TestTriangularSolves:
    @pytest.mark.parametrize("batch", [(), (0,), (7,), (2, 3), (70000,)], ids=str)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_identical_to_solve_triangular(self, d, batch):
        # The solves were LAPACK's trtrs (scipy's solve_triangular) and now run on the whitening's substitution:
        # the lower solve is the whitening bit for bit, and both stay within rounding of LAPACK, which differs
        # from the substitution in the last bit even at d = 1 (worst row-normwise gap on these batches at
        # d = 1-9: 7.1e-16).
        rng = np.random.default_rng(d)
        s = SpdMatrix(random_spd(rng, d))
        lower, b = s.cholesky_factor, rng.standard_normal(batch + (d,))
        for j, column in enumerate(_whiten(s, b)):
            assert solve_lower_batch(lower, b)[..., j].tobytes() == np.asarray(column).tobytes()
        for solver, trans in ((solve_lower_batch, 0), (solve_upper_batch, 1)):
            expected = linalg.solve_triangular(lower, b.reshape(-1, d).T, trans=trans, lower=True).T
            got = solver(lower, b)
            assert got.shape == b.shape
            diff = np.linalg.norm(got.reshape(-1, d) - expected, axis=-1)
            assert np.all(diff <= 1e-14 * np.linalg.norm(expected, axis=-1))

    def test_upper_entries_are_not_read(self):
        rng = np.random.default_rng(70)
        lower = cholesky(random_spd(rng, 3))
        b = rng.standard_normal((4, 3))
        full = lower + np.triu(np.ones((3, 3)), 1)
        for solver in (solve_lower_batch, solve_upper_batch):
            assert solver(full, b).tobytes() == solver(lower, b).tobytes()

    def test_singular_factor_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            solve_lower_batch(np.array([[1.0, 0.0], [2.0, 0.0]]), np.ones(2))

    @pytest.mark.parametrize("solver", [solve_lower_batch, solve_upper_batch])
    def test_non_finite_input_raises(self, solver):
        for lower, b in ((np.array([[1.0, 0.0], [np.nan, 1.0]]), np.ones(2)),
                         (np.eye(2), np.array([[1.0, 2.0], [np.inf, 0.0]]))):
            with pytest.raises(ValueError, match="must be finite"):
                solver(lower, b)

    @pytest.mark.parametrize("solver", [solve_lower_batch, solve_upper_batch])
    def test_shape_mismatch_raises(self, solver):
        for lower, b in ((np.eye(2), np.ones(3)), (np.eye(2), np.ones((4, 3))), (np.ones((2, 3)), np.ones(3)),
                         (np.ones(2), np.ones(2)), (np.eye(1), 0.5)):
            with pytest.raises(ValueError, match="are incompatible"):
                solver(lower, b)


class TestQuadForm:
    def test_identity(self):
        z = np.array([1.0, 2.0, 2.0])
        assert quad_form(np.eye(3), z) == pytest.approx(9.0, abs=1e-14)

    def test_zero(self):
        assert quad_form(CASE2_SCALE, np.zeros(2)) == 0.0

    def test_case2_value(self):
        # explicit 2x2 inverse: (1,0) row gives 3/det
        assert quad_form(CASE2_SCALE, np.array([1.0, 0.0])) == pytest.approx(3.0 / 2.01, rel=1e-12)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(21)
        for d in range(1, 7):
            s = random_spd(rng, d)
            z = rng.standard_normal(d)
            assert quad_form(s, z) == pytest.approx(z @ np.linalg.inv(s) @ z, abs=1e-8)

    @staticmethod
    def substituted_rows(lower, z):
        # reference forward substitution L h = z, one row at a time in Python floats
        rows = lower.tolist()
        half = np.empty_like(z)
        for idx in np.ndindex(z.shape[:-1]):
            h = half[idx]
            for j, row in enumerate(rows):
                t = float(z[idx][j])
                for k in range(j):
                    t -= row[k] * h[k]
                h[j] = t / row[j]
        return half

    @pytest.mark.parametrize("batch", [(), (7,), (2, 3), (70000,)], ids=str)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_identical_to_last_axis_sum(self, d, batch):
        rng = np.random.default_rng(30 + d)
        s = SpdMatrix(random_spd(rng, d))
        z = rng.standard_normal(batch + (d,))
        half = self.substituted_rows(s.cholesky_factor, z)
        expected = np.sum(half * half, axis=-1)
        got = quad_form(s, z)
        if batch:
            assert got.tobytes() == expected.tobytes()
        else:
            assert type(got) is float and got == float(expected)

    @pytest.mark.parametrize("d", [8, 9])
    def test_long_rows_within_an_ulp_of_last_axis_sum(self, d):
        # numpy's pairwise sum over a last axis of 8 or more may round differently
        rng = np.random.default_rng(40 + d)
        s = SpdMatrix(random_spd(rng, d))
        z = rng.standard_normal((5000, d))
        half = self.substituted_rows(s.cholesky_factor, z)
        np.testing.assert_allclose(quad_form(s, z), np.sum(half * half, axis=-1), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
    def test_each_row_as_if_alone(self, d):
        # a row's result does not depend on the batch or the Monte Carlo block it is evaluated in,
        # for the quadratic form and for the skew-t log density built on the same substitution
        rng = np.random.default_rng(50 + d)
        s = SpdMatrix(random_spd(rng, d))
        z = rng.standard_normal((70000, d))
        p = make_component(rng.standard_normal(d), s.entries, rng.standard_normal(d), 4.5)
        # every 7th row alone keeps the scalar skew-t calls to a tenth of a second per d
        for fn, step in ((lambda x: quad_form(s, x), 1), (lambda x: skewt_logpdf(p, x), 7)):
            whole = fn(z)
            alone = np.array([fn(row) for row in z[::step]])
            assert whole[::step].tobytes() == alone.tobytes()
            for start in range(0, len(z), BLOCK_SIZE):
                assert fn(z[start:start + BLOCK_SIZE]).tobytes() == whole[start:start + BLOCK_SIZE].tobytes()

    def test_within_16_ulps_of_exact(self):
        # against a 50-digit z' S^-1 z; the measured worst case here is 8.1 ulps, at d = 8.
        # The skew argument h'lam = delta' S^-1 z may cancel, so its error is measured in ulps of
        # |h| |lam| = sqrt(z' S^-1 z delta' S^-1 delta), its Cauchy-Schwarz bound: 5.7 at d = 8 and 9.
        for d in range(1, 10):
            rng = np.random.default_rng(60 + d)
            s = SpdMatrix(random_spd(rng, d))
            z = rng.standard_normal((200, d))
            delta = rng.standard_normal(d)
            lam = derive_shape(make_component(np.zeros(d), s.entries, delta, 4.0)).lam
            skew = sum(h * l for h, l in zip(_whiten(s, z), lam))
            with mpmath.workdps(50):
                inverse = mpmath.matrix(s.entries.tolist()) ** -1
                direction = inverse * mpmath.matrix(delta.tolist())
                dd = (mpmath.matrix(delta.tolist()).T * direction)[0]
                for row, got, got_skew in zip(z, quad_form(s, z), skew):
                    col = mpmath.matrix(row.tolist())
                    exact = (col.T * inverse * col)[0]
                    assert abs(mpmath.mpf(got) - exact) <= 16 * np.spacing(float(exact)), (d, row)
                    bound = float(mpmath.sqrt(exact * dd))
                    assert abs(mpmath.mpf(got_skew) - (col.T * direction)[0]) <= 16 * np.spacing(bound), (d, row)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        s = random_spd(rng, 5)
        for _ in range(20):
            assert quad_form(s, rng.standard_normal(5)) >= 0.0


class TestSqrtSpd:
    def test_identity(self):
        assert np.allclose(sqrt_spd(np.eye(4)).entries, np.eye(4), atol=1e-12)

    def test_diagonal(self):
        assert np.allclose(sqrt_spd(np.diag([4.0, 9.0])).entries, np.diag([2.0, 3.0]), atol=1e-12)

    def test_case2_roundtrip(self):
        m = sqrt_spd(CASE2_SCALE).entries
        assert np.max(np.abs(m @ m - CASE2_SCALE)) < 1e-10

    def test_commutes(self):
        rng = np.random.default_rng(9)
        for d in (2, 4, 6):
            s = random_spd(rng, d)
            m = sqrt_spd(s).entries
            assert np.max(np.abs(m @ s - s @ m)) <= 1e-10

    def test_symmetric(self):
        rng = np.random.default_rng(13)
        s = random_spd(rng, 5)
        m = sqrt_spd(s).entries
        assert np.array_equal(m, m.T)
