import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

from ioequil import Technology, check_sustainable, clearing_residual, load_table
from ioequil.core import matrix_rank, nonsingular_lu, perron_vector
from ioequil.errors import HypothesisViolatedError
from ioequil.qp import solve_min_excess

from conftest import (
    certificate_prices_reference,
    count_calls,
    data_path,
    dependent_columns,
    positive_certificate_reference,
    random_indecomposable,
    random_productive,
    record_calls,
    singular_intermediate_reference,
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

    def test_not_productive_is_not_sustainable(self, rng):
        # for b1 > 0, max (A b1 / b1) >= rho(A) (Collatz-Wielandt), so rho >= 1
        # leaves some alpha_i = b1_i - (A b1)_i <= 0: the verdict is negative,
        # not a refusal. x = A b1 for a positive b1 passes every step but alpha
        cases = [(Technology([[0.5, 0.6], [0.6, 0.5]]), np.ones(2)),
                 (Technology([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))]   # singular, rho = 2
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = random_indecomposable(rng, n, density=float(rng.uniform(0.3, 1.0)))
            a *= rng.uniform(1.0, 2.0) / spectral_radius_oracle(a)
            cases.append((Technology(a), a @ rng.uniform(0.5, 1.5, n)))
        for t, x in cases:
            assert float(np.max(np.abs(np.linalg.eigvals(t.a)))) >= 1.0 - 1e-12
            verdict = check_sustainable(t, x)
            assert not verdict.sustainable
            assert verdict.b1 is None and verdict.prices is None

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


class TestCertificatePrices:
    @pytest.mark.parametrize("density", [1.0, 0.3])
    def test_match_the_certificate_reference(self, rng, density):
        # consumption_prices with ell = A b1 returns the bytes of the
        # certificate Perron step check_sustainable ran on its own
        for n in range(2, 61):
            t = random_productive(rng, n, density=density)
            x = t.a @ np.linalg.solve(np.eye(n) - t.a, rng.uniform(0.5, 1.5, n))
            verdict = check_sustainable(t, x)
            assert verdict.sustainable
            assert verdict.prices.tobytes() == certificate_prices_reference(t.a, verdict.b1).tobytes()


class TestCertificateImpliesProductive:
    """A passing certificate gives max (A b1 / b1) < 1, a bound on rho(A)
    (Collatz-Wielandt), so every sustainable verdict comes from a productive
    matrix without a productivity check of its own."""

    @staticmethod
    def draw(rng, family):
        n = int(rng.integers(3, 6))
        if family == "nonsingular":
            t = random_productive(rng, n, rho=float(rng.uniform(0.3, 1.0 - 1e-6)),
                                  density=float(rng.uniform(0.3, 1.0)))
        else:
            t = make_singular_productive(rng, n)
        x = t.a @ np.linalg.solve(np.eye(n) - t.a, rng.uniform(0.2, 2.0, n))
        # every third output is a random positive vector, which may fail
        return t, x if rng.integers(3) else rng.uniform(0.5, 1.5, n) * float(np.max(x))

    @pytest.mark.parametrize("family", ["nonsingular", "singular", "lp-repaired"])
    def test_every_passing_certificate_has_a_productive_matrix(self, monkeypatch, family):
        lp = record_calls(monkeypatch, "sustainability.linprog")
        rng = np.random.default_rng(30)
        passed = failed = 0
        for _ in range(600):   # about one singular draw in a hundred needs the LP
            t, x = self.draw(rng, family)
            before = len(lp)
            verdict = check_sustainable(t, x)
            failed += not verdict.sustainable
            if not verdict.sustainable or (family == "lp-repaired" and len(lp) == before):
                continue
            passed += 1
            assert np.max(t.a @ verdict.b1 / verdict.b1) < 1.0
            assert float(np.max(np.abs(np.linalg.eigvals(t.a)))) < 1.0
            assert t.productive
        assert passed > 0 and failed > 0


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
        # the singular branch reads its rank off its one pivoted QR; a
        # nonsingular A passes core.nonsingular_lu and needs no rank
        calls = count_calls(monkeypatch, scipy.linalg, "qr")
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
        from ioequil import core, qp

        t = random_productive(rng, 6)
        row_stochastic = t.a / t.a.sum(axis=1, keepdims=True)
        supply = 0.7 * np.linalg.solve(np.eye(6) - t.a, rng.uniform(0.5, 1.5, 6))
        x = t.a @ np.linalg.solve(np.eye(6) - t.a, rng.uniform(0.5, 1.5, 6))
        assert np.allclose(perron_vector(row_stochastic, "test"), np.full(6, 1.0 / 6.0))
        assert solve_min_excess(t.a, supply).start == "ldp"
        assert check_sustainable(t, x).sustainable

        # the sustainability solve first: its certificate prices need core's
        # binding. t.lu is cached by now, so a class property overrides it
        monkeypatch.setattr(core.Technology, "lu", property(lambda self: None))
        calls = count_calls(monkeypatch, scipy.linalg, "qr")
        assert check_sustainable(t, x).sustainable
        assert len(calls) == 1
        monkeypatch.setattr(core, "nonsingular_lu", lambda m: None)
        monkeypatch.setattr(qp, "nonsingular_lu", lambda m: None)
        with pytest.raises(HypothesisViolatedError, match="the eigenvalue one is not simple"):
            perron_vector(row_stochastic, "test")
        assert solve_min_excess(t.a, supply).start == "zero"


def close(value: np.ndarray, reference: np.ndarray, rtol: float = 1e-10) -> bool:
    return float(np.max(np.abs(value - reference))) <= rtol * float(np.max(np.abs(reference)))


def singular_productive_families():
    """(t, x, on_column_space) on rank n-1 and n-2 tables, dense and at 30%
    density: per table two constructed certificates, the second from a
    spread-out alpha that the minimum-norm solution often misses, the image
    of a random positive vector, and a positive x off the column space."""
    for n in (8, 20, 60):
        for k in (1, 2):
            for density in (1.0, 0.3):
                rng = np.random.default_rng([n, k, int(density * 10)])
                for _ in range(4):
                    a = dependent_columns(rng, n, k, density)
                    t = Technology(a * (0.6 / spectral_radius_oracle(a)))
                    if not t.indecomposable:
                        continue
                    assert t.lu is None and matrix_rank(t.a) == n - k
                    for spread in (1, 4):
                        alpha = rng.uniform(0.2, 2.0, n) ** spread
                        yield t, t.a @ np.linalg.solve(np.eye(n) - t.a, alpha), True
                    image = t.a @ rng.uniform(0.1, 1.0, n)
                    yield t, image, True
                    left = np.linalg.svd(t.a)[0][:, -1]     # left kernel: u^T A = 0
                    yield t, image + 0.5 * np.min(image) * left / np.max(np.abs(left)), False


class TestSingularParity:
    """The one pivoted QR of A^T gives the verdicts of the SVD it replaced,
    and b1, alpha and prices within 1e-10 relative.

    The one exception is a kernel LP with more than one optimum: the two
    kernel bases differ, so HiGHS may stop on another optimal vertex. There
    the LP's margin min(b1, alpha) must agree within 1e-10 max b1, and
    both b1 must solve A b1 = x.
    """

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        return record_calls(monkeypatch, "sustainability.linprog")

    @staticmethod
    def compare(t, x, lp_calls) -> str:
        """'not sustainable', 'minimum norm', 'lp' or 'lp tie', after the asserts."""
        before = len(lp_calls)
        verdict = check_sustainable(t, x)
        b1 = singular_intermediate_reference(t.a, x)
        expected = b1 is not None and positive_certificate_reference(t.a, b1)
        assert verdict.sustainable == expected
        if not expected:
            return "not sustainable"
        alpha = (np.eye(t.n) - t.a) @ b1
        path = "lp" if len(lp_calls) > before else "minimum norm"
        if path == "lp" and not close(verdict.b1, b1):
            margin = min(np.min(verdict.b1), np.min(verdict.alpha))
            assert abs(margin - min(np.min(b1), np.min(alpha))) <= 1e-10 * np.max(b1)
            assert np.max(np.abs(t.a @ verdict.b1 - x)) <= 1e-9 * np.max(x)
            return "lp tie"
        assert close(verdict.b1, b1)
        assert close(verdict.alpha, alpha)
        assert close(verdict.prices, certificate_prices_reference(t.a, b1))
        return path

    def test_singular_productive_tables(self, lp_calls):
        rng = np.random.default_rng(0)
        paths = []
        for _ in range(200):
            n = int(rng.integers(3, 6))
            t = make_singular_productive(rng, n)
            x = t.a @ np.linalg.solve(np.eye(n) - t.a, rng.uniform(0.2, 2.0, n))
            paths.append(self.compare(t, x, lp_calls))
        assert set(paths) == {"minimum norm", "lp"}

    def test_rank_deficient_families(self, lp_calls):
        paths = []
        for t, x, on_column_space in singular_productive_families():
            path = self.compare(t, x, lp_calls)
            # off the column space both versions fail the residual test
            assert on_column_space or (path == "not sustainable"
                                       and singular_intermediate_reference(t.a, x) is None)
            paths.append(path)
        assert {"not sustainable", "minimum norm", "lp"} <= set(paths)


class TestNonsingularAccuracy:
    @pytest.mark.parametrize("density", [1.0, 0.3], ids=["dense", "30%"])
    def test_lu_solve_as_accurate_as_numpy(self, density):
        # getrs on t.lu and numpy's solve are both LU solves with partial
        # pivoting, whose forward errors scatter within n eps cond_1(A) of the
        # exact b1: per table either may be the nearer one. Each must stay
        # within that bound, and over the sweep the total error of getrs must
        # not exceed numpy's beyond that scatter.
        rng = np.random.default_rng([5, int(density * 10)])
        eps = np.finfo(float).eps
        ours, numpys = [], []
        for n in range(2, 61):
            t = random_productive(rng, n, density=density)
            x = t.a @ np.linalg.solve(np.eye(n) - t.a, rng.uniform(0.5, 1.5, n))
            exact = refined_solution(t.a, x)
            scale = float(np.max(np.abs(exact)))
            bound = n * eps * np.linalg.cond(t.a, 1)
            ours.append(float(np.max(np.abs(check_sustainable(t, x).b1 - exact))) / scale)
            numpys.append(float(np.max(np.abs(np.linalg.solve(t.a, x) - exact))) / scale)
            assert ours[-1] <= bound and numpys[-1] <= bound
        assert sum(ours) <= 2.0 * sum(numpys)


def refined_solution(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A^-1 x by iterative refinement with long-double residuals."""
    wide_a, wide_x = a.astype(np.longdouble), x.astype(np.longdouble)
    b = np.linalg.solve(a, x).astype(np.longdouble)
    for _ in range(4):
        b += np.linalg.solve(a, (wide_x - wide_a @ b).astype(float))
    return b.astype(float)


class TestOneFactorization:
    """A certificate factors A at most once: a nonsingular A reuses the
    cached t.lu, a singular one takes a single pivoted QR."""

    @staticmethod
    def counters(monkeypatch):
        return {
            "lu": record_calls(monkeypatch, "core.nonsingular_lu"),
            "getrf": count_calls(monkeypatch, lapack, "dgetrf"),
            "solve": count_calls(monkeypatch, np.linalg, "solve"),
            "qr": count_calls(monkeypatch, scipy.linalg, "qr"),
            "svd": count_calls(monkeypatch, np.linalg, "svd"),
            "rank": record_calls(monkeypatch, "core.matrix_rank"),
            "lp": record_calls(monkeypatch, "sustainability.linprog"),
        }

    @pytest.mark.parametrize("n", [5, 60])
    def test_nonsingular_reads_the_cached_lu(self, rng, monkeypatch, n):
        t = random_productive(rng, n, density=0.3)
        x = t.a @ np.linalg.solve(np.eye(n) - t.a, rng.uniform(0.5, 1.5, n))
        assert t.productive and t.indecomposable and t.lu is not None
        calls = self.counters(monkeypatch)
        assert check_sustainable(t, x).sustainable
        on_a = {name: [m for m in seen if np.shape(m) == t.a.shape and np.array_equal(m, t.a)]
                for name, seen in calls.items()}
        assert on_a == {name: [] for name in calls}

    @pytest.mark.parametrize("case", ["toy3", "lp"])
    def test_singular_takes_one_pivoted_qr(self, monkeypatch, case):
        # toy3 returns the minimum-norm solution; the first draw of
        # make_singular_productive from seed 144 needs the kernel LP
        if case == "toy3":
            table = load_table(data_path("toy3.csv"))
            t, x = table.technology, table.big_x
        else:
            rng = np.random.default_rng(144)
            t = make_singular_productive(rng, int(rng.integers(3, 6)))
            x = t.a @ np.linalg.solve(np.eye(t.n) - t.a, rng.uniform(0.2, 2.0, t.n))
        assert t.productive and t.indecomposable and t.lu is None
        calls = self.counters(monkeypatch)
        assert check_sustainable(t, x).sustainable
        assert len(calls["qr"]) == 1 and np.array_equal(calls["qr"][0], t.a.T)
        assert calls["svd"] == [] and calls["rank"] == []
        assert len(calls["lp"]) == (case == "lp")


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
        with pytest.raises(HypothesisViolatedError, match=r"input cost of sector 0 vanishes at these prices"):
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
                with pytest.raises(HypothesisViolatedError, match=r"input cost of sector \d+ vanishes at these prices"):
                    clearing_residual(Technology(a), x, p)
                continue
            terms = np.zeros(n)
            for i in range(n):
                if live[i]:
                    terms[i] = x[i] * p[i] / denom[i]
            assert np.array_equal(clearing_residual(Technology(a), x, p), a @ terms - x)
