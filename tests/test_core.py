import numpy as np
import pytest

from ioequil import (
    ConeStatus,
    Technology,
    cone_membership,
    is_indecomposable,
    is_productive,
    leontief_solve,
    positive_solution_family,
    spectral_radius,
)
from ioequil import core
from ioequil.core import matrix_rank, perron_vector
from ioequil.errors import (
    DegenerateGeneratorsError,
    HypothesisViolatedError,
    NoConvergenceError,
    NotInteriorError,
)

from conftest import (
    cone_membership_reference,
    equal_radius_blocks,
    indecomposable_oracle,
    leontief_value_table,
    price_map,
    random_indecomposable,
    random_productive,
    simplex_power_iteration_reference,
    solution_family_reference,
    spectral_radius_oracle,
    two_block,
)

SYM = Technology([[0.2, 0.3], [0.3, 0.2]])


class TestTechnology:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            Technology([[0.1, -0.2], [0.0, 0.1]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Technology([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]])

    def test_matrix_is_frozen(self):
        t = Technology([[0.1]])
        with pytest.raises(ValueError):
            t.a[0, 0] = 5.0


class TestMatrixRank:
    def test_full_rank(self):
        assert matrix_rank(np.eye(4)) == 4

    def test_dependent_columns(self):
        m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
        assert matrix_rank(m) == 2

    def test_zero(self):
        assert matrix_rank(np.zeros((3, 3))) == 0

    def test_exact_low_rank_product_not_overcounted(self):
        # rank-5 product whose sixth singular value is 3e-16 of max|a|;
        # row-pivoted elimination leaves a sixth pivot above
        # PIVOT_RTOL * max|a| here; column-pivoted QR does not
        rng = np.random.default_rng(107)
        u = rng.uniform(0.0, 1.0, (12, 5))
        v = rng.uniform(0.0, 1.0, (5, 12))
        v[rng.uniform(size=v.shape) >= 0.3] = 0.0
        a = u @ v
        assert np.linalg.matrix_rank(a) == 5
        assert matrix_rank(a) == 5

    def test_matches_svd_oracle_on_low_rank_products(self):
        rng = np.random.default_rng(1)
        for trial in range(800):
            n = int(rng.integers(2, 61))
            k = int(rng.integers(1, n + 1))
            u = rng.uniform(0.0, 1.0, (n, k))
            v = rng.uniform(0.0, 1.0, (k, n))
            sparse = int(rng.integers(0, 3))   # 0: dense, 1: sparse u, 2: sparse v
            if sparse == 1:
                u[rng.uniform(size=u.shape) >= 0.3] = 0.0
            elif sparse == 2:
                v[rng.uniform(size=v.shape) >= 0.3] = 0.0
            a = u @ v
            assert matrix_rank(a) == np.linalg.matrix_rank(a), (trial, n, k, sparse)


class TestIndecomposable:
    def test_all_positive(self):
        assert is_indecomposable(SYM)

    def test_block_diagonal(self):
        assert not is_indecomposable(Technology([[0.5, 0.0], [0.0, 0.5]]))

    def test_permutation_cycle(self):
        # (E + A)^1 is entrywise positive for the 2-cycle
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.all(np.eye(2) + a > 0.0)
        assert is_indecomposable(Technology(a))

    def test_singleton(self):
        assert is_indecomposable(Technology([[0.3]]))
        assert not is_indecomposable(Technology([[0.0]]))

    def test_matches_matrix_power_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = rng.uniform(0.0, 1.0, (n, n))
            a[rng.uniform(size=(n, n)) < 0.6] = 0.0
            assert is_indecomposable(Technology(a)) == indecomposable_oracle(a)

    def test_sparse_matches_matrix_power_oracle(self, rng):
        verdicts = set()
        for _ in range(120):
            n = int(rng.integers(2, 61))
            density = float(rng.uniform(0.1, 0.3))
            if rng.uniform() < 0.5:
                a = random_indecomposable(rng, n, density=density)
            else:
                a = rng.uniform(0.05, 1.0, (n, n))
                a[rng.uniform(size=(n, n)) >= density] = 0.0
            expected = indecomposable_oracle(a)
            assert is_indecomposable(a) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}


def _csgraph_oracle(a: np.ndarray) -> bool:
    """One strong component by Tarjan's algorithm in scipy, independent of the sweeps."""
    from scipy.sparse.csgraph import connected_components

    count, _ = connected_components(a > 0.0, directed=True, connection="strong")
    return count == 1


def _block_coupled(rng, n: int, density: float, *, back: bool) -> np.ndarray:
    """Two blocks of n/2 sectors coupled at 1e-3.

    Without ``back`` the first block feeds nothing into the second.
    """
    a = rng.uniform(0.05, 1.0, (n, n))
    if density < 1.0:
        a[rng.uniform(size=(n, n)) >= density] = 0.0
    first = np.arange(n) < n // 2
    a[first[:, None] != first[None, :]] *= 1e-3
    if not back:
        a[np.ix_(first, ~first)] = 0.0
    return a


def _cycle(n: int) -> np.ndarray:
    """Support of the directed cycle 0 -> 1 -> ... -> n-1 -> 0."""
    a = np.zeros((n, n))
    a[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    return a


class TestIndecomposableSweeps:
    @pytest.mark.parametrize("n", [40, 400, 2000])
    @pytest.mark.parametrize("density", [1.0, 0.3])
    def test_matches_csgraph_oracle(self, n, density):
        rng = np.random.default_rng([n, int(10 * density)])
        cases = [random_indecomposable(rng, n, density=density),
                 _block_coupled(rng, n, density, back=True),
                 _block_coupled(rng, n, density, back=False)]
        verdicts = [is_indecomposable(a) for a in cases]
        assert verdicts == [_csgraph_oracle(a) for a in cases]
        assert verdicts[0] and not verdicts[2]

    def test_long_cycle(self):
        # every sweep step adds one sector: the most steps a sweep can take
        a = _cycle(2000)
        assert is_indecomposable(a)
        a[1999, 0] = 0.0
        assert not is_indecomposable(a)

    @pytest.mark.parametrize("root_reaches", [True, False])
    def test_reached_one_way_only(self, root_reaches):
        # strictly triangular support: sector 0 reaches every sector and
        # none reaches it back, or the transpose
        a = np.triu(np.ones((30, 30)), 1)
        assert not is_indecomposable(a if root_reaches else a.T)

    @pytest.mark.parametrize("k", [0, 17, 29])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_zero_row_or_column(self, k, axis):
        a = np.ones((30, 30))
        if axis == 0:
            a[k, :] = 0.0
        else:
            a[:, k] = 0.0
        assert not is_indecomposable(a)

    def test_strong_blocks_with_one_way_coupling(self):
        a = np.ones((30, 30))
        a[:10, 10:] = 0.0
        assert not is_indecomposable(a)
        assert not is_indecomposable(a.T)
        a[0, 10] = 1.0
        assert is_indecomposable(a)

    def test_empty_matrix_is_not_indecomposable(self):
        assert not is_indecomposable(np.zeros((0, 0)))

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1), (2, 3), (0, 2)])
    def test_non_square_raises(self, shape):
        with pytest.raises(ValueError, match="square"):
            is_indecomposable(np.ones(shape))


class TestProductive:
    def test_zero_matrix(self):
        assert is_productive(Technology(np.zeros((3, 3))))
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_unit_spectral_radius(self):
        assert not is_productive(Technology([[1.0]]))

    def test_derived_two_sector(self):
        t = Technology([[0.5, 0.2], [0.3, 0.4]])
        # characteristic roots (0.9 +- 0.5) / 2, largest 0.7
        assert spectral_radius_oracle(t.a) == pytest.approx(0.7, abs=1e-12)
        assert spectral_radius(t.a) == pytest.approx(0.7, abs=1e-9)
        assert is_productive(t)

    def test_decided_without_the_spectral_radius(self, monkeypatch):
        # radius 0.45 in both blocks, which power steps alone cannot separate
        a = equal_radius_blocks(np.random.default_rng(0), 40, 16, 1e-6)
        t = leontief_value_table(np.random.default_rng(0), a).technology

        def no_iteration(a):
            raise AssertionError("productivity must not iterate for the spectral radius")

        monkeypatch.setattr(core, "spectral_radius", no_iteration)
        assert is_indecomposable(t)
        assert is_productive(t)

    def test_radius_within_positive_tol_of_one_is_not_productive(self, rng):
        p = rng.uniform(0.1, 1.0, (6, 6))
        p /= p.sum(axis=0)
        assert not is_productive(Technology((1.0 - 1e-12) * p))
        assert is_productive(Technology(0.5 * p))
        # nilpotent, radius 0, but max x = 1e11 + 1 exceeds 1 / POSITIVE_TOL
        assert not is_productive(Technology([[0.0, 1e11], [0.0, 0.0]]))
        assert is_productive(Technology(np.zeros((0, 0))))

    def test_agrees_with_eigenvalues_and_solve(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = random_indecomposable(rng, n, density=0.8)
            target = rng.choice([0.4, 0.7, 0.95, 1.05, 1.4])
            a *= target / spectral_radius_oracle(a)
            t = Technology(a)
            expected = spectral_radius_oracle(a) < 1.0
            assert is_productive(t) == expected
            if expected:
                x = np.linalg.solve(np.eye(n) - a, np.ones(n))
                assert np.all(x > 0.0)


def _fixed_point_cases():
    """(name, technology, price map) on the shapes the Perron solve serves."""
    rng = np.random.default_rng(41)
    block = two_block(rng, 40, 16, 1e-3)
    z = rng.uniform(0.5, 1.5, 40)
    z_tail = z.copy()
    z_tail[rng.choice(40, 8, replace=False)] = 0.0    # zero rows of the price map
    sparse = random_indecomposable(rng, 60, density=0.3)
    sparse *= 0.6 / spectral_radius_oracle(sparse)
    cycle = 0.5 * np.roll(np.eye(5), 1, axis=0)        # periodic support
    return [
        ("two-block", block, price_map(block, z)),
        ("two-block-zero-rows", block, price_map(block, z_tail)),
        ("sparse-60", sparse, price_map(sparse, rng.uniform(0.5, 1.5, 60))),
        ("cycle-5", cycle, price_map(cycle, rng.uniform(0.5, 1.5, 5))),
    ]


FIXED_POINT_CASES = _fixed_point_cases()
EQUAL_RADIUS = leontief_value_table(
    np.random.default_rng(0), equal_radius_blocks(np.random.default_rng(0), 40, 16, 1e-6)).technology.a


def assert_certified_radius(a: np.ndarray, rho: float) -> None:
    """rho is the midpoint of a bracket of relative width at most 8 n eps
    that holds the radius up to the rounding of A p (about n eps); the rest
    of the allowance covers the rounding of eigvals."""
    oracle = spectral_radius_oracle(a)
    assert abs(rho - oracle) <= 9 * a.shape[0] * np.finfo(float).eps * oracle


def _stochastic_block(rng, k: int) -> np.ndarray:
    b = rng.uniform(0.05, 1.0, (k, k))
    b[rng.uniform(size=(k, k)) >= 0.5] = 0.0
    b += 0.1 * np.roll(np.eye(k), 1, axis=0)          # keeps the block irreducible
    return b / b.sum(axis=0)


class TestSimplexFixedPoint:
    """Fixed points on the simplex: the direct Perron solve for a known
    multiplier and the certified spectral radius."""

    @pytest.mark.parametrize("name, a, m", FIXED_POINT_CASES,
                             ids=[case[0] for case in FIXED_POINT_CASES])
    def test_matches_reference_loops(self, name, a, m):
        p = perron_vector(m, "test")
        assert np.max(np.abs(p - simplex_power_iteration_reference(m))) <= 1e-8
        assert abs(p.sum() - 1.0) <= 1e-12
        assert_certified_radius(a, spectral_radius(a))

    def test_zero_rows_give_exact_zeros(self):
        _, _, m = FIXED_POINT_CASES[1]
        zero_rows = ~np.any(m != 0.0, axis=1)
        assert zero_rows.sum() == 8
        p = perron_vector(m, "test")
        assert np.all(p[zero_rows] == 0.0)
        assert np.min(p[~zero_rows]) > 0.0
        assert np.max(np.abs(m @ p - p)) <= 1e-14

    def test_stochastic_matrices_match_the_eigenvector_oracle(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 30))
            m = _stochastic_block(rng, k)
            values, vectors = np.linalg.eig(m)
            oracle = np.real(vectors[:, np.argmin(np.abs(values - 1.0))])
            oracle /= oracle.sum()
            assert np.max(np.abs(perron_vector(m, "test") - oracle)) <= 1e-10

    def test_two_closed_classes_raise(self, rng):
        for _ in range(50):
            k1, k2 = (int(k) for k in rng.integers(1, 30, 2))
            m = np.zeros((k1 + k2, k1 + k2))
            m[:k1, :k1] = _stochastic_block(rng, k1)
            m[k1:, k1:] = _stochastic_block(rng, k2)
            order = rng.permutation(k1 + k2)
            with pytest.raises(HypothesisViolatedError, match="the eigenvalue one is not simple"):
                perron_vector(m[np.ix_(order, order)], "test")

    def test_multiplier_other_than_one_raises(self, rng):
        m = 0.5 * _stochastic_block(rng, 6)
        with pytest.raises(HypothesisViolatedError,
                           match="test: no non-negative fixed point with multiplier one"):
            perron_vector(m, "test")
        with pytest.raises(HypothesisViolatedError, match="no non-negative fixed point"):
            perron_vector(np.zeros((3, 3)), "test")

    def test_multiplier_is_the_spectral_radius(self, rng):
        for _ in range(20):
            m = random_indecomposable(rng, int(rng.integers(1, 12)), density=0.5)
            assert spectral_radius(m) == pytest.approx(spectral_radius_oracle(m), rel=1e-9)

    def test_cap_raises_instead_of_returning_the_last_iterate(self, monkeypatch):
        # ceil(40 / 3) power steps cannot separate the two equal block radii,
        # so without Noda steps the bracket stays open
        monkeypatch.setattr(core, "NODA_STEPS", 0)
        with pytest.raises(NoConvergenceError,
                           match=r"spectral radius bracket \[.*\] still open after 0 Noda steps"):
            spectral_radius(EQUAL_RADIUS)


class TestSpectralRadius:
    def test_equal_block_radii_are_certified(self):
        assert_certified_radius(EQUAL_RADIUS, spectral_radius(EQUAL_RADIUS))

    @pytest.mark.parametrize("density", [1.0, 0.3, 0.1])
    def test_random_indecomposable_matrices(self, density):
        rng = np.random.default_rng(17)
        for n in range(1, 61):
            a = random_indecomposable(rng, n, density=density)
            a *= rng.choice([1e-8, 0.6, 3e3]) / a.sum(axis=0).max()
            assert_certified_radius(a, spectral_radius(a))

    def test_weighted_cycle(self):
        # irreducible with period 5: the radius is the geometric mean of the weights
        weights = np.array([0.2, 0.9, 0.5, 0.7, 0.3])
        a = np.zeros((5, 5))
        a[(np.arange(5) + 1) % 5, np.arange(5)] = weights
        rho = spectral_radius(a)
        assert rho == pytest.approx(np.prod(weights) ** 0.2, rel=40 * np.finfo(float).eps)

    def test_block_diagonal_with_zero_rows(self):
        # every non-zero column of a block sums to its radius
        rng = np.random.default_rng(3)
        a = np.zeros((9, 9))
        for block, radius in ((slice(0, 4), 0.3), (slice(4, 9), 0.65)):
            b = rng.uniform(0.05, 1.0, (block.stop - block.start,) * 2)
            b[1] = 0.0
            a[block, block] = b * (radius / b.sum(axis=0))
        assert not is_indecomposable(a)
        assert spectral_radius(a) == pytest.approx(0.65, rel=1e-14)

    def test_strictly_triangular_is_zero(self):
        a = np.triu(np.random.default_rng(4).uniform(0.1, 1.0, (6, 6)), 1)
        assert spectral_radius(a) == 0.0
        assert spectral_radius(a.T) == 0.0

    @pytest.mark.parametrize("entry", [0.0, 1e-300, 0.7, 5e3])
    def test_one_by_one(self, entry):
        assert spectral_radius([[entry]]) == entry

    def test_power_steps_then_capped_noda_steps(self, monkeypatch):
        # records every product A p and every solve: ceil(n / 3) power steps
        # at most, one product for the bracket of the last iterate, then
        # solves, each followed by the product of its bracket
        log = []

        class Counted(np.ndarray):
            def __matmul__(self, other):
                log.append("product")
                return np.asarray(self) @ other

        matrix, solve = core._matrix, np.linalg.solve
        monkeypatch.setattr(core, "_matrix", lambda x, name="matrix": matrix(x, name).view(Counted))
        monkeypatch.setattr(np.linalg, "solve",
                            lambda m, b: log.append("solve") or solve(np.asarray(m), b))
        a = two_block(np.random.default_rng(0), 40, 16, 1e-3)
        rho = spectral_radius(a)
        power, solves = log.index("solve") - 1, log.count("solve")
        assert power <= -(-40 // 3)
        assert 1 <= solves <= core.NODA_STEPS
        assert log == ["product"] * (power + 1) + ["solve", "product"] * solves
        assert_certified_radius(a, rho)


class TestLeontief:
    def test_symmetric_example(self):
        x = leontief_solve(SYM, [0.5, 0.5])
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)

    def test_zero_demand(self):
        assert np.allclose(leontief_solve(SYM, [0.0, 0.0]), 0.0)

    def test_identity_inverse(self):
        t = Technology(np.zeros((2, 2)))
        assert np.allclose(leontief_solve(t, [3.0, 7.0]), [3.0, 7.0])

    def test_not_productive_raises(self):
        with pytest.raises(HypothesisViolatedError, match=r"technology is not productive; Leontief solve undefined"):
            leontief_solve(Technology([[1.0]]), [1.0])

    def test_positive_output_for_positive_demand(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            t = random_productive(rng, n, rho=float(rng.uniform(0.2, 0.9)))
            c = rng.uniform(0.1, 2.0, n)
            x = leontief_solve(t, c)
            assert np.all(x > 0.0)
            assert np.max(np.abs((np.eye(n) - t.a) @ x - c)) < 1e-9


class TestConeMembership:
    def test_standard_basis_interior(self):
        result = cone_membership([(1.0, 0.0), (0.0, 1.0)], (1.0, 1.0))
        assert result.status is ConeStatus.INTERIOR
        assert np.allclose(result.coefficients, [1.0, 1.0])

    def test_boundary(self):
        result = cone_membership([(1.0, 0.0), (0.0, 1.0)], (1.0, 0.0))
        assert result.status is ConeStatus.BOUNDARY

    def test_outside(self):
        generators = np.array([[1.0, 2.0], [2.0, 1.0]])
        # direct 2x2 solve gives coefficients (1/3, -2/3): one negative
        coeffs = np.linalg.solve(generators, [-1.0, 0.0])
        assert coeffs[1] < 0
        result = cone_membership(generators, (-1.0, 0.0))
        assert result.status is ConeStatus.OUTSIDE
        assert result.coefficients is None

    def test_outside_span(self):
        result = cone_membership([(1.0, 0.0, 0.0)], (1.0, 0.0, 0.5))
        assert result.status is ConeStatus.OUTSIDE

    def test_degenerate_generators(self):
        with pytest.raises(DegenerateGeneratorsError):
            cone_membership([(1.0, 2.0), (2.0, 4.0)], (1.0, 1.0))

    def test_interior_reconstruction(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            g = rng.uniform(0.1, 1.0, (n, m))
            weights = rng.uniform(0.2, 2.0, m)
            b = g @ weights
            result = cone_membership(g, b)
            assert result.status is ConeStatus.INTERIOR
            assert np.max(np.abs(g @ result.coefficients - b)) < 1e-9

    def test_matches_biorthogonal_reference(self, rng):
        # interior, boundary (one zero weight), outside (one negative weight)
        # and outside the span, on sparse generators
        statuses = set()
        for trial in range(400):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, n + 1))
            g = rng.uniform(0.0, 1.0, (n, m))
            g[rng.uniform(size=(n, m)) < 0.2] = 0.0
            g[0, :] += 0.05
            if matrix_rank(g) < m:
                continue
            weights = rng.uniform(0.2, 2.0, m)
            kind = trial % 4
            if kind == 1:
                weights[rng.integers(m)] = 0.0
            elif kind == 2:
                weights[rng.integers(m)] = -0.5
            b = g @ weights if kind < 3 else rng.uniform(0.1, 1.0, n)
            status, head = cone_membership_reference(g, b)
            result = cone_membership(g, b)
            assert result.status is status
            statuses.add(status)
            if head is not None:
                tol = 1e-12 * max(1.0, float(np.max(np.abs(head))))
                assert np.max(np.abs(result.coefficients - head)) < tol
        assert statuses == set(ConeStatus)

    def test_one_rank_call(self, rng, monkeypatch):
        # the full-column-rank check is the only rank decision
        calls = []
        original = core.matrix_rank

        def counted(m, *args, **kwargs):
            calls.append(1)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(core, "matrix_rank", counted)
        g = rng.uniform(0.1, 1.0, (8, 3))
        result = cone_membership(g, g @ np.array([1.0, 2.0, 3.0]))
        assert result.status is ConeStatus.INTERIOR
        assert len(calls) == 1


class TestSolutionFamily:
    def test_worked_example(self):
        c = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        family = positive_solution_family(c, (2.0, 2.0))
        assert family.rank == 2
        assert family.subset == (0, 1)
        assert family.free_columns == (2,)
        assert np.allclose(family.basis[0], [2.0, 2.0, 0.0])
        assert np.allclose(family.basis[1], [0.0, 0.0, 2.0])
        # admissibility constraint reads 2 * gamma_free < 2 on both rows
        assert np.allclose(family.constraint_matrix, [[2.0], [2.0]])
        assert np.allclose(family.constraint_rhs, [2.0, 2.0])

    def test_worked_example_midpoint(self):
        c = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        family = positive_solution_family(c, (2.0, 2.0))
        y = family.combine([0.5, 0.5])
        assert np.allclose(y, [1.0, 1.0, 1.0])
        assert np.allclose(c @ y, [2.0, 2.0])

    def test_point_family_for_identity(self):
        psi = np.array([0.7, 1.3, 0.2])
        family = positive_solution_family(np.eye(3), psi)
        assert family.rank == 3
        assert family.size == 1
        assert np.allclose(family.basis[0], psi)
        assert np.allclose(family.combine([1.0]), psi)

    def test_not_interior(self):
        with pytest.raises(NotInteriorError):
            positive_solution_family(np.eye(2), (1.0, 0.0))

    def test_random_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            l = int(rng.integers(1, 9))
            c = rng.uniform(0.0, 1.0, (n, l))
            c[rng.uniform(size=(n, l)) < 0.2] = 0.0
            c[0, :] += 0.05  # no zero columns
            psi = c @ rng.uniform(0.2, 2.0, l)
            try:
                family = positive_solution_family(c, psi)
            except NotInteriorError:
                continue
            for _ in range(10):
                gamma = family.sample_gamma(rng)
                assert family.is_admissible(gamma)
                y = family.combine(gamma)
                assert np.all(y > 0.0)
                assert np.max(np.abs(c @ y - psi)) < 1e-9

    def test_matches_biorthogonal_reference(self, rng):
        found = 0
        for trial in range(200):
            n = int(rng.integers(1, 6))
            l = int(rng.integers(1, 8))
            c = rng.uniform(0.0, 1.0, (n, l))
            c[rng.uniform(size=(n, l)) < 0.2] = 0.0
            c[0, :] += 0.05
            psi = rng.uniform(0.1, 1.0, n) if trial % 3 == 0 else c @ rng.uniform(0.2, 2.0, l)
            reference = solution_family_reference(c, psi)
            if reference is None:
                with pytest.raises(NotInteriorError):
                    positive_solution_family(c, psi)
                continue
            subset, basis, constraints = reference
            family = positive_solution_family(c, psi)
            assert family.subset == subset
            assert len(family.basis) == len(basis)
            scale = max(1.0, float(np.max(np.abs(np.array(basis)))))
            for got, want in zip(family.basis, basis):
                assert np.max(np.abs(got - want)) < 1e-12 * scale
            assert family.constraint_matrix.shape == constraints.shape
            if constraints.size:
                assert np.max(np.abs(family.constraint_matrix - constraints)) < 1e-12 * scale
            found += 1
        assert found > 100

    def test_one_rank_call_per_subset(self, monkeypatch):
        # one for C and one for the accepted first subset (0, 1)
        calls = []
        original = core.matrix_rank

        def counted(m, *args, **kwargs):
            calls.append(1)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(core, "matrix_rank", counted)
        positive_solution_family(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), (2.0, 2.0))
        assert len(calls) == 2
