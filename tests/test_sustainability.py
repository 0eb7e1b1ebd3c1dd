import numpy as np
import pytest

from ioequil import Technology, check_sustainable, clearing_residual
from ioequil.errors import (
    NotProductiveError,
    SingularUnresolvedError,
    ZeroDenominatorError,
)

from conftest import random_productive, spectral_radius_oracle

SYM = Technology([[0.2, 0.3], [0.3, 0.2]])


def truncated_series(a: np.ndarray, alpha: np.ndarray, terms: int = 400) -> np.ndarray:
    """Independent oracle for sum_{k>=1} A^k alpha."""
    total = np.zeros_like(alpha)
    power = alpha.copy()
    for _ in range(terms):
        power = a @ power
        total += power
    return total


def make_singular_productive(rng, n):
    """Rank-deficient, indecomposable, productive direct-cost matrix."""
    base = rng.uniform(0.1, 1.0, (n, n))
    weights = rng.uniform(0.2, 0.8, n - 1)
    weights /= weights.sum()
    base[:, -1] = base[:, :-1] @ weights     # dependent column keeps entries positive
    base *= 0.6 / spectral_radius_oracle(base)
    return Technology(base)


class TestCheckSustainable:
    def test_symmetric_positive_case(self):
        verdict = check_sustainable(SYM, [1.0, 1.0])
        assert verdict.sustainable
        assert np.allclose(verdict.b1, [2.0, 2.0], atol=1e-10)
        assert np.allclose(verdict.alpha, [1.0, 1.0], atol=1e-10)
        assert np.allclose(verdict.prices, [0.5, 0.5], atol=1e-10)
        assert np.allclose(verdict.margins, [0.25, 0.25], atol=1e-10)

    def test_negative_case_forced_by_direct_solve(self):
        # A^{-1} (1, 0.1) has a negative component for the symmetric matrix
        b1 = np.linalg.solve(SYM.a, [1.0, 0.1])
        assert np.min(b1) < 0
        verdict = check_sustainable(SYM, [1.0, 0.1])
        assert not verdict.sustainable
        assert verdict.prices is None

    def test_constructed_round_trip(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            t = random_productive(rng, n, rho=float(rng.uniform(0.3, 0.8)))
            alpha = rng.uniform(0.2, 2.0, n)
            x = t.a @ np.linalg.solve(np.eye(n) - t.a, alpha)
            verdict = check_sustainable(t, x)
            assert verdict.sustainable
            assert np.allclose(verdict.alpha, alpha, atol=1e-7 * float(np.max(alpha)))
            assert np.all(verdict.margins > 0.0)
            residual = clearing_residual(t, x, verdict.prices)
            assert np.max(np.abs(residual)) < 1e-8 * max(1.0, float(np.max(x)))

    def test_ratio_identity_against_series_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            t = random_productive(rng, n, rho=0.5)
            alpha = rng.uniform(0.2, 2.0, n)
            x = t.a @ np.linalg.solve(np.eye(n) - t.a, alpha)
            verdict = check_sustainable(t, x)
            ratio = verdict.b1 / (t.a @ verdict.b1)
            oracle = 1.0 + alpha / truncated_series(t.a, alpha)
            assert np.all(ratio > 1.0)
            assert np.max(np.abs(ratio - oracle)) < 1e-8

    def test_not_productive_rejected(self):
        with pytest.raises(NotProductiveError):
            check_sustainable(Technology([[0.5, 0.6], [0.6, 0.5]]), [1.0, 1.0])

    def test_singular_matrix_stabilizes(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 6))
            t = make_singular_productive(rng, n)
            alpha = rng.uniform(0.2, 2.0, n)
            b1 = np.linalg.solve(np.eye(n) - t.a, alpha)
            x = t.a @ b1
            verdict = check_sustainable(t, x)
            assert verdict.sustainable
            assert np.max(np.abs(t.a @ verdict.b1 - x)) < 1e-6 * max(1.0, float(np.max(x)))
            assert np.all(verdict.margins > 0.0)

    def test_singular_out_of_range_rejected(self, rng):
        t = make_singular_productive(np.random.default_rng(7), 4)
        # a generic right-hand side misses the rank-deficient column space
        with pytest.raises(SingularUnresolvedError):
            check_sustainable(t, np.array([1.0, 2.0, 3.0, 4.0]))


class TestRankCalls:
    @pytest.mark.parametrize("singular", [False, True])
    def test_rank_computed_once(self, rng, monkeypatch, singular):
        from ioequil import sustainability

        calls = []
        original = sustainability.matrix_rank

        def counted(m, *args, **kwargs):
            calls.append(1)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(sustainability, "matrix_rank", counted)
        t = make_singular_productive(rng, 5) if singular else random_productive(rng, 5)
        x = t.a @ np.linalg.solve(np.eye(5) - t.a, rng.uniform(0.5, 1.5, 5))
        check_sustainable(t, x)
        assert len(calls) == 1


class TestClearingResidual:
    def test_zero_at_constructed_prices(self):
        verdict = check_sustainable(SYM, [1.0, 1.0])
        residual = clearing_residual(SYM, [1.0, 1.0], verdict.prices)
        assert np.max(np.abs(residual)) < 1e-10

    def test_uniform_prices_symmetric(self):
        residual = clearing_residual(SYM, [1.0, 1.0], [0.5, 0.5])
        assert np.max(np.abs(residual)) < 1e-12

    def test_perturbed_prices_leave_residual(self):
        residual = clearing_residual(SYM, [1.0, 1.0], [0.7, 0.3])
        assert np.max(np.abs(residual)) > 1e-3

    def test_zero_denominator(self):
        t = Technology([[0.0, 0.5], [0.0, 0.5]])
        with pytest.raises(ZeroDenominatorError, match="sector 0"):
            clearing_residual(t, [1.0, 1.0], [1.0, 0.0])

    def test_zero_terms_drop_out(self, rng):
        # per-sector loop as the reference; zero prices and zero outputs are
        # skipped, so their vanishing input costs do not raise
        for _ in range(50):
            n = int(rng.integers(2, 9))
            a = rng.uniform(0.05, 1.0, (n, n))
            a[rng.uniform(size=(n, n)) >= 0.5] = 0.0
            x = rng.uniform(0.5, 1.5, n) * (rng.uniform(size=n) >= 0.2)
            p = rng.uniform(0.1, 1.0, n) * (rng.uniform(size=n) >= 0.2)
            p[0] = max(p[0], 0.1)
            denom = a.T @ p
            live = x * p != 0.0
            if np.any(live & (denom <= 0.0)):
                with pytest.raises(ZeroDenominatorError):
                    clearing_residual(Technology(a), x, p)
                continue
            terms = np.zeros(n)
            for i in range(n):
                if live[i]:
                    terms[i] = x[i] * p[i] / denom[i]
            assert np.array_equal(clearing_residual(Technology(a), x, p), a @ terms - x)
