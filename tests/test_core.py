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
from ioequil.core import matrix_rank, simplex_fixed_point
from ioequil.errors import (
    DegenerateGeneratorsError,
    NoConvergenceError,
    NotInteriorError,
    NotProductiveError,
)

from conftest import (
    indecomposable_oracle,
    price_map,
    random_indecomposable,
    random_productive,
    simplex_power_iteration_reference,
    spectral_radius_oracle,
    spectral_radius_reference,
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

    def test_rejects_unknown_units(self):
        with pytest.raises(ValueError):
            Technology([[0.1]], units="tons")

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
    """(name, technology, price map) on the shapes the shared loop serves."""
    rng = np.random.default_rng(41)
    block = two_block(rng, 40, 16, 1e-3)
    z = rng.uniform(0.5, 1.5, 40)
    z_tail = z.copy()
    z_tail[rng.choice(40, 8, replace=False)] = 0.0    # zero rows: subnormal price tail
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


class TestSimplexFixedPoint:
    @pytest.mark.parametrize("name, a, m", FIXED_POINT_CASES,
                             ids=[case[0] for case in FIXED_POINT_CASES])
    def test_matches_reference_loops(self, name, a, m):
        p, multiplier = simplex_fixed_point(m, "price fixed-point")
        assert np.array_equal(p, simplex_power_iteration_reference(m))
        assert abs(multiplier - 1.0) <= 1e-10
        # x + A x and (A + E) x round differently: ρ agrees with the loop on
        # A + E to two units in the last place of 1 + ρ
        rho = spectral_radius(a)
        reference = spectral_radius_reference(a)
        assert abs(rho - reference) <= 2.0 * np.spacing(1.0 + reference)
        assert rho == pytest.approx(spectral_radius_oracle(a), abs=1e-9)

    def test_zero_rows_leave_a_subnormal_tail(self):
        _, _, m = FIXED_POINT_CASES[1]
        p, _ = simplex_fixed_point(m, "price fixed-point")
        assert 0.0 < np.min(p) < np.finfo(float).tiny

    def test_multiplier_is_the_spectral_radius(self, rng):
        for _ in range(20):
            m = random_indecomposable(rng, int(rng.integers(1, 12)), density=0.5)
            _, multiplier = simplex_fixed_point(m, "test")
            assert multiplier == pytest.approx(spectral_radius_oracle(m), rel=1e-9)

    def test_cap_raises_instead_of_returning_the_last_iterate(self, monkeypatch):
        _, a, m = FIXED_POINT_CASES[0]
        monkeypatch.setattr(core, "FIXED_POINT_MAXITER", 3)
        with pytest.raises(NoConvergenceError, match="spectral radius iteration hit the cap"):
            spectral_radius(a)
        with pytest.raises(NoConvergenceError, match="certificate price iteration hit the cap"):
            simplex_fixed_point(m, "certificate price")


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
        with pytest.raises(NotProductiveError):
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
