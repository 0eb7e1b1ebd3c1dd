import numpy as np
import pytest

from ioequil import (
    Technology,
    balanced_eigenvector,
    clearing_equilibrium,
    inequality_solution,
    supply_demand_factor,
    support_partition,
)
from ioequil.balance import balance_residual
from ioequil.errors import (
    DecomposableError,
    NotInConeError,
    NumericalError,
    SolverStallError,
    ZeroImageError,
)

from conftest import balanced_eigenvector_reference, random_indecomposable, two_block

SYM = Technology([[0.2, 0.3], [0.3, 0.2]])


class TestBalancedEigenvector:
    def test_symmetric(self):
        assert np.allclose(balanced_eigenvector([[1.0, 1.0], [1.0, 1.0]]), [0.5, 0.5], atol=1e-12)

    def test_derived_two_by_two(self):
        # hand solve: 1 * d_2 = 2 * d_1, so d = (1/3, 2/3)
        d = balanced_eigenvector([[0.0, 2.0], [1.0, 0.0]])
        assert np.allclose(d, [1.0 / 3.0, 2.0 / 3.0], atol=1e-11)

    def test_identity_returns_canonical_uniform(self):
        assert np.allclose(balanced_eigenvector(np.eye(3)), 1.0 / 3.0)

    def test_decomposable_without_uniform_solution(self):
        with pytest.raises(DecomposableError):
            balanced_eigenvector([[1.0, 1.0], [0.0, 1.0]])

    def test_zero_row(self):
        with pytest.raises(DecomposableError):
            balanced_eigenvector([[0.0, 0.0], [1.0, 1.0]])

    def test_residual_and_positivity_random(self, rng):
        for _ in range(100):
            l = int(rng.integers(1, 9))
            b1 = random_indecomposable(rng, l, density=0.7)
            d = balanced_eigenvector(b1)
            assert np.all(d > 0.0)
            assert abs(d.sum() - 1.0) < 1e-12
            assert balance_residual(b1, d) < 1e-10 * max(1.0, float(np.max(b1)))

    def test_matches_reference_loop(self, rng):
        cases = [two_block(rng, 40, 16, 1e-3).T]
        for _ in range(60):
            l = int(rng.integers(1, 31))
            cases.append(random_indecomposable(rng, l, density=float(rng.uniform(0.1, 1.0))))
        for b1 in cases:
            d = balanced_eigenvector(b1)
            assert np.max(np.abs(d - balanced_eigenvector_reference(b1))) <= 1e-8

    def test_residual_above_tolerance_is_numerical(self, monkeypatch):
        # no loop is left, so a bad residual is a numerical failure that
        # states its figures, not an iteration cap
        from ioequil import balance

        original = balance.perron_vector

        def perturbed(m, what):
            p = original(m, what)
            p[0] *= 1.0 + 1e-6
            return p

        monkeypatch.setattr(balance, "perron_vector", perturbed)
        with pytest.raises(NumericalError, match=r"balance residual 6\.667e-07 above tolerance 2\.000e-10") as info:
            balanced_eigenvector([[0.0, 2.0], [1.0, 0.0]])
        assert type(info.value) is NumericalError


class TestSupplyDemandFactor:
    def test_identity_demand(self):
        b = np.array([[0.3, 1.2], [0.7, 0.4]])
        b1 = supply_demand_factor(np.eye(2), b)
        assert np.allclose(b1, b)

    def test_family_midpoint_column(self):
        c = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        b1 = supply_demand_factor(c, np.array([[2.0], [2.0]]))
        assert np.allclose(c @ b1, [[2.0], [2.0]], atol=1e-12)
        assert np.all(b1 > 0.0)
        # centroid of the worked family: equal weights give (1, 1, 1)
        assert np.allclose(b1[:, 0], [1.0, 1.0, 1.0])

    def test_b_equals_c_accepts_identity_like_factor(self):
        c = np.array([[1.0, 2.0], [2.0, 1.0]])
        b1 = supply_demand_factor(c, c)
        assert np.allclose(c @ b1, c, atol=1e-10)
        assert np.all(b1 >= 0.0)

    def test_boundary_columns_have_exact_zero_coordinates(self):
        # each column of C is a generator, so its coordinates are exactly
        # (1, 0) and (0, 1); non-negative least squares leaves dust otherwise
        c = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert np.array_equal(supply_demand_factor(c, c), np.eye(2))

    def test_column_outside_cone(self):
        c = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotInConeError) as err:
            supply_demand_factor(c, np.array([[1.0], [10.0]]))
        assert err.value.column == 0


@pytest.mark.parametrize("solve, failing_call, what", [
    (lambda: supply_demand_factor([[1.0, 2.0], [2.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]), 1, "supply column 0"),
    (lambda: supply_demand_factor([[1.0, 2.0], [2.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]), 2, "supply column 1"),
    # three boundary columns in the factor, then the price weights
    (lambda: clearing_equilibrium(np.eye(3), np.eye(3)), 4, "clearing price weights"),
], ids=["factor-column-0", "factor-column-1", "clearing-weights"])
def test_nnls_cap_is_a_typed_stall(monkeypatch, solve, failing_call, what):
    from ioequil import qp

    calls = []
    original = qp.nnls

    def capped(*args, **kwargs):
        calls.append(1)
        if len(calls) == failing_call:
            raise RuntimeError("Maximum number of iterations reached.")
        return original(*args, **kwargs)

    monkeypatch.setattr(qp, "nnls", capped)
    with pytest.raises(SolverStallError, match=f"NNLS for the {what} failed"):
        solve()


class TestClearingEquilibrium:
    def test_identity_markets(self):
        outcome = clearing_equilibrium(np.eye(3), np.eye(3))
        assert outcome.cleared
        assert np.allclose(outcome.price, 1.0 / 3.0)

    def test_b_equals_c_derived(self):
        c = np.array([[1.0, 2.0], [2.0, 1.0]])
        outcome = clearing_equilibrium(c, c)
        assert outcome.cleared
        # uniform weights, C^T p = D solved by hand: p = (1/6, 1/6), normalized
        assert np.allclose(outcome.price, [0.5, 0.5], atol=1e-10)
        p = outcome.price
        lhs = c @ ((c.T @ p) / (c.T @ p))
        assert np.allclose(lhs, c.sum(axis=1), atol=1e-10)

    def test_supply_outside_cone(self):
        c = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotInConeError):
            clearing_equilibrium(c, np.array([[1.0, 2.0], [10.0, 1.0]]))

    def test_price_on_the_simplex_boundary_is_not_cleared(self):
        # the only clearing price is (0, 1); NNLS returns it with dust in the
        # first coordinate, which must not pass for a strictly positive price
        c = np.array([[1.0, 2.0], [2.0, 1.0]])
        outcome = clearing_equilibrium(c, np.array([[3.0, 1.5], [3.0, 1.5]]))
        assert not outcome.cleared
        assert outcome.condition == "assembled price vector is not strictly positive"

    def test_zero_nnls_price_replaced_by_a_strictly_positive_one(self):
        # C^T p = d has the NNLS vertex p = (1/3, 0, 2/3) and strictly
        # positive solutions; the cleared price must be one of those
        c = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = c @ np.array([[0.5, 0.2], [0.3, 0.6]])
        outcome = clearing_equilibrium(c, b)
        assert outcome.cleared
        p = outcome.price
        assert np.all(p > 0.0) and p.sum() == pytest.approx(1.0)
        assert np.allclose(c @ ((b.T @ p) / (c.T @ p)), b.sum(axis=1), atol=1e-12)

    def test_clearing_residual_when_cleared(self, rng):
        cleared = 0
        for _ in range(60):
            n = int(rng.integers(2, 5))
            l = int(rng.integers(2, 5))
            c = rng.uniform(0.05, 1.0, (n, l))
            b = c @ rng.uniform(0.1, 1.0, (l, l))
            outcome = clearing_equilibrium(c, b)
            if not outcome.cleared:
                continue
            cleared += 1
            p = outcome.price
            lhs = c @ ((b.T @ p) / (c.T @ p))
            rhs = b.sum(axis=1)
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * max(1.0, float(np.max(rhs)))
        assert cleared >= 10


class TestInequalitySolution:
    def test_scalar(self):
        z = inequality_solution(Technology([[0.5]]), [1.0])
        assert z.shape == (1,)
        assert z[0] == pytest.approx(2.0, abs=1e-9)

    def test_symmetric_binding(self):
        z = inequality_solution(SYM, [1.0, 1.0])
        image = SYM.a @ z
        assert np.all(image <= 1.0 + 1e-8)
        assert np.max(image) == pytest.approx(1.0, abs=1e-8)

    def test_contract_on_random_instances(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 7))
            a = random_indecomposable(rng, n, density=0.75)
            b = rng.uniform(0.3, 2.5, n)
            t = Technology(a)
            z = inequality_solution(t, b)
            assert np.all(z >= 0.0)
            residual = a @ z - b
            assert np.max(residual) <= 1e-8
            assert np.max(residual) >= -1e-8  # at least one binding row
            # rows carrying limit mass satisfy the exact equality form
            y0 = z / z.sum()
            m = a / b[:, None]
            quad = float(y0 @ (m @ y0))
            supported = y0 > 1e-9
            assert np.max(np.abs((m @ y0)[supported] - quad)) < 1e-8

    def test_decomposable_rejected(self):
        with pytest.raises(DecomposableError):
            inequality_solution(Technology([[0.5, 0.0], [0.0, 0.5]]), [1.0, 1.0])


class TestSupportPartition:
    def test_uniform_direction(self):
        part = support_partition(SYM, [1.0, 1.0], [1.0, 1.0])
        assert part.scale == pytest.approx(2.0, abs=1e-12)
        assert part.binding == (0, 1)
        assert part.slack == ()
        assert np.allclose(part.z, [2.0, 2.0])

    def test_single_good_direction(self):
        # ratios are 1/0.2 = 5 and 1/0.3 = 10/3; the second row binds
        part = support_partition(SYM, [1.0, 1.0], [1.0, 0.0])
        assert part.scale == pytest.approx(10.0 / 3.0, abs=1e-12)
        assert part.binding == (1,)
        assert part.slack == (0,)
        assert np.allclose(part.z, [10.0 / 3.0, 0.0])
        assert np.allclose(SYM.a @ part.z, [2.0 / 3.0, 1.0])

    def test_scale_invariance(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            t = Technology(random_indecomposable(rng, n))
            b = rng.uniform(0.5, 2.0, n)
            y = rng.uniform(0.0, 1.0, n)
            y[int(rng.integers(0, n))] += 0.5
            lam = float(rng.uniform(0.1, 10.0))
            first = support_partition(t, b, y)
            second = support_partition(t, b, lam * y)
            assert first.binding == second.binding
            assert first.slack == second.slack
            assert np.allclose(first.z, second.z, atol=1e-10)
            assert second.scale == pytest.approx(first.scale / lam, rel=1e-10)
            image = t.a @ first.z
            assert np.all(image[list(first.binding)] == pytest.approx(b[list(first.binding)], rel=1e-10))
            if first.slack:
                assert np.all(image[list(first.slack)] < b[list(first.slack)])

    def test_zero_image(self):
        with pytest.raises(ZeroImageError):
            support_partition(Technology([[0.0, 0.5], [0.0, 0.5]]), [1.0, 1.0], [1.0, 0.0])
