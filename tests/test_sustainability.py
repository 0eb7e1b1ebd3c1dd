import numpy as np
import pytest

from ioequil import Technology, check_sustainable, clearing_residual, load_table
from ioequil.core import matrix_rank, nonsingular_lu, perron_vector
from ioequil.errors import HypothesisViolatedError, NotProductiveError, ZeroDenominatorError
from ioequil.qp import solve_min_excess

from conftest import (
    data_path,
    dependent_columns,
    random_productive,
    spectral_radius_oracle,
)

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

    def test_singular_out_of_range_rejected(self):
        # rows 0 and 1 of A are equal, so (1, -1, 0, 0)^T A = 0 exactly: every
        # A b1 has equal first two entries, x = (1, 2, 3, 4) has not, no b1
        # exists and the mode is not sustainable
        a = np.random.default_rng(7).uniform(0.1, 1.0, (4, 4))
        a[1] = a[0]
        t = Technology(a * (0.6 / spectral_radius_oracle(a)))
        assert np.array_equal(t.a[0], t.a[1]) and matrix_rank(t.a) == 3
        verdict = check_sustainable(t, np.array([1.0, 2.0, 3.0, 4.0]))
        assert not verdict.sustainable
        assert verdict.b1 is None and verdict.prices is None


class TestSingularBranch:
    @pytest.fixture
    def linprog_calls(self, monkeypatch):
        from ioequil import sustainability

        calls = []
        original = sustainability.linprog

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(sustainability, "linprog", counted)
        return calls

    def test_toy3_exact_certificate(self, linprog_calls):
        # rows s1 and s2 of toy3 are equal, so A has rank 2 with kernel
        # (1, -1, 0). By hand, A b1 = 1 at b1 = (5/3, 5/3, 10/3), which is
        # orthogonal to the kernel and hence the minimum-norm solution; the
        # prices (1/4, 1/4, 1/2) satisfy p_i = b1_i <A_i, p> since A b1 = 1.
        table = load_table(data_path("toy3.csv"))
        t = table.technology
        assert matrix_rank(t.a) == 2
        verdict = check_sustainable(t, table.big_x)
        assert verdict.sustainable
        assert np.max(np.abs(verdict.b1 - [5 / 3, 5 / 3, 10 / 3])) < 1e-13
        assert np.max(np.abs(verdict.alpha - [2 / 3, 2 / 3, 7 / 3])) < 1e-13
        assert np.max(np.abs(verdict.prices - [0.25, 0.25, 0.5])) < 1e-12
        assert np.max(np.abs(verdict.margins - [0.1, 0.1, 0.35])) < 1e-12
        assert linprog_calls == []

    def test_lp_moves_minimum_norm_solution_along_kernel(self, linprog_calls):
        repaired = 0
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(3, 6))
            t = make_singular_productive(rng, n)
            x = t.a @ np.linalg.solve(np.eye(n) - t.a, rng.uniform(0.2, 2.0, n))
            before = len(linprog_calls)
            verdict = check_sustainable(t, x)
            assert verdict.sustainable
            if len(linprog_calls) == before:
                continue
            repaired += 1
            # the minimum-norm solution fails the certificate; the LP's does not
            min_norm = np.linalg.pinv(t.a) @ x
            min_norm /= np.max(np.abs(min_norm))
            assert min(np.min(min_norm), np.min(min_norm - t.a @ min_norm)) <= 1e-10
            assert np.max(np.abs(t.a @ verdict.b1 - x)) < 1e-9 * max(1.0, float(np.max(x)))
            assert np.all(verdict.b1 > 0.0) and np.all(verdict.alpha > 0.0)
            assert np.all(verdict.margins > 0.0)
            residual = clearing_residual(t, x, verdict.prices)
            assert np.max(np.abs(residual)) < 1e-8 * max(1.0, float(np.max(x)))
        assert repaired > 0


class TestRankCalls:
    @pytest.mark.parametrize("singular", [False, True])
    def test_rank_computed_once(self, rng, monkeypatch, singular):
        # the rank slices the SVD of the singular branch; a nonsingular A
        # passes core.nonsingular_lu and needs no rank
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
        assert len(calls) == (1 if singular else 0)


class TestOneSingularityTest:
    """core.nonsingular_lu decides singularity for the Perron solve, the QP
    start and the sustainability solve."""

    def test_agrees_with_svd_rank_on_toy3_and_singular_productive_tables(self, rng):
        cases = [load_table(data_path("toy3.csv")).technology.a]
        cases += [make_singular_productive(np.random.default_rng(seed), n).a
                  for seed in range(5) for n in (3, 5, 12)]
        for a in cases:
            assert np.linalg.matrix_rank(a) < a.shape[0]
            assert nonsingular_lu(a) is None

    @pytest.mark.parametrize("density", [1.0, 0.3], ids=["dense", "30%"])
    @pytest.mark.parametrize("n", [60, 200])
    @pytest.mark.parametrize("k", [1, 5], ids=["rank n-1", "rank n-5"])
    def test_agrees_with_svd_rank_on_dependent_columns(self, density, n, k):
        a = dependent_columns(np.random.default_rng([k, n]), n, k, density)
        assert np.linalg.matrix_rank(a) == n - k
        assert nonsingular_lu(a) is None

    @pytest.mark.parametrize("density", [1.0, 0.3], ids=["dense", "30%"])
    @pytest.mark.parametrize("n", [5, 60, 200])
    def test_agrees_with_svd_rank_on_productive_tables(self, density, n):
        for seed in range(3):
            a = random_productive(np.random.default_rng([seed, n]), n, density=density).a
            assert np.linalg.matrix_rank(a) == n
            lu, piv = nonsingular_lu(a)
            # the factors reproduce A: P L U with unit-diagonal L
            perm = np.arange(n)
            for i, p in enumerate(piv):
                perm[[i, p]] = perm[[p, i]]
            product = (np.tril(lu, -1) + np.eye(n)) @ np.triu(lu)
            assert np.allclose(product, a[perm], atol=1e-14)

    def test_technology_caches_read_only_factors(self, rng):
        t = random_productive(rng, 8)
        lu, piv = t.lu
        assert t.lu[0] is lu
        fresh_lu, fresh_piv = nonsingular_lu(t.a)
        assert (lu.tobytes(), piv.tobytes()) == (fresh_lu.tobytes(), fresh_piv.tobytes())
        assert not (lu.flags.writeable or piv.flags.writeable)
        assert load_table(data_path("toy3.csv")).technology.lu is None

    def test_rejected_lu_takes_every_singular_branch(self, rng, monkeypatch):
        from ioequil import core, qp, sustainability

        t = random_productive(rng, 6)
        row_stochastic = t.a / t.a.sum(axis=1, keepdims=True)
        supply = 0.7 * np.linalg.solve(np.eye(6) - t.a, rng.uniform(0.5, 1.5, 6))
        x = t.a @ np.linalg.solve(np.eye(6) - t.a, rng.uniform(0.5, 1.5, 6))
        assert np.allclose(perron_vector(row_stochastic, "test"), np.full(6, 1.0 / 6.0))
        assert solve_min_excess(t.a, supply).start == "ldp"
        assert check_sustainable(t, x).sustainable

        calls = []
        original = sustainability.matrix_rank

        def counted(m):
            calls.append(1)
            return original(m)

        # the sustainability solve first: its certificate prices need core's
        # binding. t.lu is cached by now, so a class property overrides it
        monkeypatch.setattr(core.Technology, "lu", property(lambda self: None))
        monkeypatch.setattr(sustainability, "matrix_rank", counted)
        assert check_sustainable(t, x).sustainable
        assert len(calls) == 1
        monkeypatch.setattr(core, "nonsingular_lu", lambda m: None)
        monkeypatch.setattr(qp, "nonsingular_lu", lambda m: None)
        with pytest.raises(HypothesisViolatedError, match="the eigenvalue one is not simple"):
            perron_vector(row_stochastic, "test")
        assert solve_min_excess(t.a, supply).start == "zero"


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
