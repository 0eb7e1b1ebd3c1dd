import re
from collections import Counter

import numpy as np
import pytest

from ioequil import (
    Technology,
    alpha_objective,
    assemble_equilibrium,
    excess_supply,
    min_excess_qp,
    min_ratios,
    no_equilibrium_certificate,
    prices_from_consumption,
    prices_on_support,
    solution_from_alpha,
)
from ioequil.core import MULTIPLIER_TOL, POSITIVE_TOL
from ioequil.errors import (
    DecomposableMinorError,
    HypothesisViolatedError,
    PipelineError,
    SupportViolationError,
    ZeroColumnError,
    ZeroValueError,
)

from conftest import price_map, qp_enumeration_oracle, random_indecomposable, random_simplex

SYM = Technology([[0.2, 0.3], [0.3, 0.2]])


def make_support_instance(rng, n):
    """Instance (t, b, z, I) satisfying the binding-system hypotheses exactly.

    Picks the binding set and a positive solution first, then builds b so the
    chosen rows bind and the rest are strictly slack.
    """
    a = random_indecomposable(rng, n, low=0.05)
    size = int(rng.integers(1, n + 1))
    idx = sorted(rng.choice(n, size=size, replace=False).tolist())
    rest = [j for j in range(n) if j not in idx]
    z_block = rng.uniform(0.3, 2.0, size)
    z = np.zeros(n)
    z[idx] = z_block
    b = np.empty(n)
    b[idx] = a[np.ix_(idx, idx)] @ z_block
    if rest:
        b[rest] = (a[np.ix_(rest, idx)] @ z_block) * (1.0 + rng.uniform(0.2, 1.0, len(rest)))
    return Technology(a), b, z, idx, rest


class TestMinRatios:
    def test_symmetric(self):
        d = min_ratios(SYM, [1.0, 1.0])
        assert np.allclose(d, [10.0 / 3.0, 10.0 / 3.0], atol=1e-12)

    def test_identity(self):
        d = min_ratios(Technology(np.eye(2)), [2.0, 5.0])
        assert np.allclose(d, [2.0, 5.0])

    def test_homogeneous_in_b(self, rng):
        t = Technology(random_indecomposable(rng, 4))
        b = rng.uniform(0.5, 2.0, 4)
        lam = 3.7
        assert np.allclose(min_ratios(t, lam * b), lam * min_ratios(t, b), rtol=1e-12)

    def test_zero_column(self):
        with pytest.raises(ZeroColumnError):
            min_ratios(Technology([[0.5, 0.0], [0.5, 0.0]]), [1.0, 1.0])


class TestSolutionFromAlpha:
    def test_unit_mass_gives_scale_one(self):
        for i in range(2):
            alpha = np.zeros(2)
            alpha[i] = 1.0
            point = solution_from_alpha(SYM, [1.0, 1.0], alpha)
            assert point.scale == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_midpoint(self):
        point = solution_from_alpha(SYM, [1.0, 1.0], [0.5, 0.5])
        assert point.scale == pytest.approx(1.2, abs=1e-12)
        assert np.allclose(point.z, [2.0, 2.0], atol=1e-12)
        assert np.allclose(SYM.a @ point.z, [1.0, 1.0])

    def test_scale_at_least_one(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            t = Technology(random_indecomposable(rng, n))
            b = rng.uniform(0.3, 2.0, n)
            for _ in range(4):
                point = solution_from_alpha(t, b, random_simplex(rng, n))
                assert point.scale >= 1.0 - 1e-12
                image = t.a @ point.z
                assert np.max(image - b) <= 1e-10
                assert np.min(np.abs(image - b)) <= 1e-10  # argmin rows bind

    def test_scale_bound_on_ten_thousand_samples(self, rng):
        from ioequil import min_ratios
        for _ in range(5):
            n = int(rng.integers(2, 4))
            t = Technology(random_indecomposable(rng, n))
            b = rng.uniform(0.3, 2.0, n)
            d = min_ratios(t, b)
            alphas = rng.dirichlet(np.ones(n), size=10_000)
            images = (alphas * d[None, :]) @ t.a.T
            ratios = np.where(images > 0.0, b[None, :] / np.where(images > 0, images, 1.0), np.inf)
            scales = np.min(ratios, axis=1)
            assert np.all(scales >= 1.0 - 1e-12)
            for i in range(n):
                unit = np.zeros(n)
                unit[i] = 1.0
                assert solution_from_alpha(t, b, unit).scale == pytest.approx(1.0, abs=1e-13)


class TestMinExcessQP:
    def test_exact_fit(self):
        z0 = min_excess_qp(SYM, [1.0, 1.0])
        assert np.max(np.abs(SYM.a @ z0 - 1.0)) < 1e-9

    def test_partial_clearing_example_with_oracles(self):
        t = Technology([[0.1, 0.2], [0.2, 0.1]])
        b = np.array([1.0, 3.0])
        z0 = min_excess_qp(t, b)
        objective = float(np.sum((b - t.a @ z0) ** 2))
        # brute-force grid oracle over z in [0, 20]^2, coarse pass then refinement
        grid = np.linspace(0.0, 20.0, 201)
        zz1, zz2 = np.meshgrid(grid, grid, indexing="ij")
        candidates = np.stack([zz1.ravel(), zz2.ravel()], axis=1)
        images = candidates @ t.a.T
        feasible = np.all(images <= b + 1e-12, axis=1)
        objs = np.sum((b[None, :] - images) ** 2, axis=1)
        objs[~feasible] = np.inf
        best = candidates[int(np.argmin(objs))]
        lo = np.maximum(best - 0.2, 0.0)
        fine = [np.linspace(lo[i], best[i] + 0.2, 401) for i in range(2)]
        zz1, zz2 = np.meshgrid(fine[0], fine[1], indexing="ij")
        candidates = np.stack([zz1.ravel(), zz2.ravel()], axis=1)
        images = candidates @ t.a.T
        feasible = np.all(images <= b + 1e-12, axis=1)
        objs = np.sum((b[None, :] - images) ** 2, axis=1)
        objs[~feasible] = np.inf
        grid_best = float(np.min(objs))
        assert objective == pytest.approx(grid_best, abs=1e-5)
        assert objective == pytest.approx(1.0, abs=1e-9)
        binding = np.abs(b - t.a @ z0) < 1e-8
        assert binding.any()

    def test_objective_never_beaten_by_alpha_points(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 4))
            t = Technology(random_indecomposable(rng, n))
            b = rng.uniform(0.3, 2.0, n)
            z0 = min_excess_qp(t, b)
            objective = float(np.sum((b - t.a @ z0) ** 2))
            for _ in range(50):
                w = alpha_objective(t, b, random_simplex(rng, n))
                assert w >= objective - 1e-6


class TestPricesOnSupport:
    def test_symmetric_full_support(self):
        p = prices_on_support(SYM, [1.0, 1.0], [2.0, 2.0], [0, 1])
        assert np.allclose(p, [0.5, 0.5], atol=1e-10)

    def test_clearing_equation_arithmetic(self):
        # plug the symmetric solution into the clearing form by hand:
        # 0.2 * 0.5/0.25 + 0.3 * 0.5/0.25 = 0.4 + 0.6 = 1 = supply of good one
        p = np.array([0.5, 0.5])
        value = SYM.a[0, 0] * p[0] * 1.0 / (SYM.a[:, 0] @ p) \
            + SYM.a[0, 1] * p[1] * 1.0 / (SYM.a[:, 1] @ p)
        assert value == pytest.approx(1.0)
        computed = prices_on_support(SYM, [1.0, 1.0], [2.0, 2.0], [0, 1])
        lhs = SYM.a[:, [0, 1]] @ (computed * 1.0 / (SYM.a.T @ computed))
        assert np.allclose(lhs, [1.0, 1.0], atol=1e-10)

    def test_singleton_support(self):
        t = Technology([[0.5, 0.1], [0.4, 0.3]])
        b = np.array([1.0, 1.5])
        z = np.array([2.0, 0.0])     # 0.5 * 2 = 1 binds row 0; 0.4 * 2 = 0.8 < 1.5
        p = prices_on_support(t, b, z, [0])
        assert np.allclose(p, [1.0, 0.0])

    @pytest.mark.parametrize("a, b, z, binding, reason", [
        ([[0.2, 0.3], [0.3, 0.2]], [1.0, 1.0], [1.0, 1.0], [0, 1], "binding equations"),
        ([[0.5, 0.1], [0.4, 0.3]], [1.0, 0.8], [2.0, 0.0], [0], "strictly slack"),
        ([[0.5, 0.1], [0.4, 0.3]], [1.0, 0.8], [2.0, 0.0], [0, 1], "strictly positive"),
    ], ids=["not-binding", "not-slack", "not-positive"])
    def test_support_hypotheses_named(self, a, b, z, binding, reason):
        with pytest.raises(SupportViolationError, match=reason):
            prices_on_support(Technology(a), b, z, binding)

    def test_decomposable_minor_rejected(self):
        # z binds on both rows and is positive there, so the support
        # conditions hold, but the minor has two strong components
        t = Technology([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(DecomposableMinorError):
            prices_on_support(t, [1.0, 1.0], [2.0, 2.0], [0, 1])

    def test_contracts_on_constructed_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            t, b, z, idx, rest = make_support_instance(rng, n)
            p = prices_on_support(t, b, z, idx)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p[rest] == 0.0)
            assert np.all(p[idx] > 0.0)
            denom = t.a[np.ix_(idx, idx)].T @ p[idx]
            z_prices = p[idx] * b[idx] / denom
            residual = t.a[:, idx] @ z_prices - b
            assert np.max(np.abs(residual[idx])) < 1e-8
            if rest:
                assert np.all(residual[rest] < 0.0)
            # multiplier check and Walras identity
            y = z[idx] / b[idx]
            multiplier = float(y @ (t.a[np.ix_(idx, idx)].T @ p[idx]))
            assert abs(multiplier - 1.0) < 1e-10
            walras = float(p[idx] @ residual[idx])
            assert abs(walras) < 1e-10


class TestPricesFromConsumption:
    def test_symmetric(self):
        p = prices_from_consumption(SYM, [1.0, 1.0])
        assert np.allclose(p, [0.5, 0.5], atol=1e-10)
        b_bar = SYM.a @ np.array([1.0, 1.0])
        assert np.allclose(b_bar, [0.5, 0.5])

    def test_zero_vector_rejected(self):
        with pytest.raises(HypothesisViolatedError):
            prices_from_consumption(SYM, [0.0, 0.0])

    def test_vanishing_input_cost_is_a_vanishing_price(self):
        # column 1 of A is zero, so (A^T p)_1 = 0 at every p; the verified
        # fixed point then forces p_1 = 0, which the price test reports
        assert MULTIPLIER_TOL <= POSITIVE_TOL
        t = Technology([[0.5, 0.0], [0.5, 0.0]])
        with pytest.raises(HypothesisViolatedError, match="^price vanishes on supported sector 1$"):
            prices_from_consumption(t, [1.0, 1.0])

    def test_contracts_on_random_positive_instances(self, rng):
        for _ in range(60):
            n = 3
            t = Technology(rng.uniform(0.05, 1.0, (n, n)))
            z = rng.uniform(0.0, 2.0, n)
            z[int(rng.integers(0, n))] += 0.2
            p = prices_from_consumption(t, z)
            b_bar = t.a @ z
            denom = t.a.T @ p
            recon = np.where(denom > 0, b_bar * p / np.where(denom > 0, denom, 1.0), 0.0)
            assert np.max(np.abs(recon - z)) < 1e-8 * max(1.0, float(np.max(z)))
            terms = np.where(b_bar * p != 0.0, b_bar * p / denom, 0.0)
            assert np.max(np.abs(t.a @ terms - b_bar)) < 1e-8


class TestNoEquilibriumCertificate:
    def test_empty_slack_set(self):
        assert not no_equilibrium_certificate(SYM, [1.0, 1.0], [2.0, 2.0], [0, 1], [])

    def test_mass_on_slack_row_blocks_equilibrium(self):
        # support-partition example: z = (10/3, 0), binding row 1, slack row 0,
        # and z carries positive weight on index 0, which lies in the slack set
        z = np.array([10.0 / 3.0, 0.0])
        assert no_equilibrium_certificate(SYM, [1.0, 1.0], z, [1], [0])

    def test_no_mass_on_slack_rows(self):
        t = SYM
        b = np.array([2.0, 1.0])
        z = np.array([0.0, 5.0])
        image = t.a @ z     # (1.5, 1.0): row 0 slack, row 1 binding
        assert image[0] < b[0] and image[1] == pytest.approx(b[1])
        assert not no_equilibrium_certificate(t, b, z, [1], [0])


class TestExcessSupply:
    def test_zero_when_fully_consumed(self):
        assert excess_supply([1.0, 2.0], [1.0, 2.0], [0.5, 0.5]) == 0.0

    def test_derived_quarter(self):
        level = excess_supply([1.0, 1.0], [1.0, 0.5], [0.5, 0.5])
        assert level == pytest.approx(0.25, abs=1e-12)

    def test_prices_on_binding_rows_only(self):
        level = excess_supply([1.0, 1.0], [1.0, 0.2], [0.7, 0.0])
        assert level == 0.0

    def test_zero_value(self):
        with pytest.raises(ZeroValueError):
            excess_supply([1.0, 1.0], [0.5, 0.5], [0.0, 0.0])

    def test_monotone_as_consumption_approaches_supply(self):
        b = np.array([1.0, 2.0])
        p = np.array([0.4, 0.6])
        levels = [excess_supply(b, frac * b, p) for frac in (0.2, 0.5, 0.8, 1.0)]
        assert all(x >= y - 1e-15 for x, y in zip(levels, levels[1:]))


class TestAssembleEquilibrium:
    def test_symmetric_full_clearing(self):
        state = assemble_equilibrium(SYM, [1.0, 1.0])
        assert state.slack == ()
        assert np.allclose(state.p, [0.5, 0.5], atol=1e-10)
        assert state.excess_level < 1e-12

    def test_supply_in_cone_image(self, rng):
        t = Technology(random_indecomposable(rng, 3))
        b = t.a @ rng.uniform(0.5, 1.5, 3)
        state = assemble_equilibrium(t, b)
        assert state.excess_level < 1e-8
        assert state.slack == ()

    def test_partial_clearing_example(self):
        t = Technology([[0.1, 0.2], [0.2, 0.1]])
        state = assemble_equilibrium(t, [1.0, 3.0])
        assert state.binding == (0,)
        assert state.slack == (1,)
        assert state.mode == "support"
        assert np.allclose(state.z, [10.0, 0.0], atol=1e-7)
        assert np.allclose(state.p, [1.0, 0.0])
        # generalized prices carry the input cost 0.2 on the slack row
        assert np.allclose(state.p_u, [1.0, 0.2], atol=1e-10)
        assert state.excess_level == pytest.approx(0.125, abs=1e-9)

    def test_state_invariants_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            t = Technology(rng.uniform(0.02, 1.0, (n, n)))
            b = rng.uniform(0.3, 2.5, n)
            state = assemble_equilibrium(t, b)
            idx = list(state.binding)
            rest = list(state.slack)
            assert idx
            assert np.all(state.b_bar <= b + 1e-8 * np.maximum(1.0, b))
            assert np.max(np.abs(state.b_bar[idx] - b[idx])) <= 1e-7
            assert 0.0 <= state.excess_level < 1.0
            assert abs(state.p.sum() - 1.0) < 1e-9
            assert np.all(state.p >= 0.0)
            assert np.all(state.p_u >= 0.0)
            if state.mode == "support":
                assert np.all(state.p[rest] == 0.0)
                expected = (b - state.b_bar) @ state.p_u / (b @ state.p_u)
                assert state.excess_level == pytest.approx(max(expected, 0.0), abs=1e-12)

    def test_binding_rows_report_their_supply_exactly(self, rng):
        # binding markets clear by definition, so b_bar carries b there bit
        # for bit, not the rounding of A z
        for _ in range(50):
            n = int(rng.integers(2, 9))
            t = Technology(rng.uniform(0.02, 1.0, (n, n)))
            b = rng.uniform(0.3, 2.5, n)
            state = assemble_equilibrium(t, b)
            idx = list(state.binding)
            assert np.array_equal(state.b_bar[idx], b[idx])
            rest = list(state.slack)
            assert np.array_equal(state.b_bar[rest], (t.a @ state.z)[rest])


class TestSparseInstances:
    def test_verified_state_or_hypothesis_error(self):
        # value tables as bench/gen.py builds them at 30% density: column sums
        # in [0.35, 0.75] and supply 0.7 (E - A)^-1 c. Every state is checked
        # against its own price map and the clearing equations
        rng = np.random.default_rng(5)
        outcomes = Counter()
        for trial in range(200):
            n = (4, 8)[trial % 2]
            a = random_indecomposable(rng, n, density=0.3)
            a *= rng.uniform(0.35, 0.75, n) / a.sum(axis=0)
            b = 0.7 * np.linalg.solve(np.eye(n) - a, rng.uniform(0.5, 1.5, n))
            try:
                state = assemble_equilibrium(Technology(a), b)
            except PipelineError as exc:
                assert isinstance(exc.cause, HypothesisViolatedError), exc
                assert "reconstruction" not in str(exc)
                assert re.search(r"sector \d+$", str(exc.cause)), exc
                outcomes[str(exc.cause).split(" on ")[0]] += 1
                continue
            p = state.p
            assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
            assert abs(p.sum() - 1.0) < 1e-12
            m = price_map(a, state.z)
            assert np.max(np.abs(m @ p - p)) <= 1e-10 * np.max(p)
            value = state.b_bar * p
            terms = np.divide(value, a.T @ p, out=np.zeros(n), where=value != 0.0)
            assert np.max(np.abs(a @ terms - state.b_bar)) <= 1e-8 * max(1.0, np.max(state.b_bar))
            outcomes[state.mode] += 1
        assert outcomes["support"] and outcomes["generalized"], outcomes
        assert outcomes["price vanishes"], outcomes
