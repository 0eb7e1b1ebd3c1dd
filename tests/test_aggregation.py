import numpy as np
import pytest

from ioequil import (
    AggregationMap,
    Technology,
    aggregate,
    aggregated_value_added_check,
    is_productive,
    leontief_solve,
    relative_prices,
    scaling_identity_check,
)
from ioequil.errors import HypothesisViolatedError, ParseError

from conftest import data_path, indicator_reference, random_productive

FINE3 = Technology([[0.1, 0.1, 0.2], [0.1, 0.1, 0.2], [0.2, 0.2, 0.1]])
MAP32 = AggregationMap(m=3, n=2, assignment=(0, 0, 1))


def random_fine_economy(rng, m):
    """Productive fine economy with positive value added in every sector."""
    t = random_productive(rng, m, rho=float(rng.uniform(0.3, 0.7)))
    c = rng.uniform(0.2, 1.5, m)
    x = leontief_solve(t, c)
    margins = rng.uniform(0.1, 1.0, m)
    p = np.linalg.solve(np.eye(m) - t.a.T, margins)
    return t, p, x


def random_map(rng, m, n):
    assignment = np.concatenate([np.arange(n), rng.integers(0, n, m - n)])
    rng.shuffle(assignment)
    return AggregationMap(m=m, n=n, assignment=tuple(int(v) for v in assignment))


class TestAggregate:
    def test_worked_three_to_two(self):
        table = aggregate(FINE3, np.ones(3), np.ones(3), MAP32)
        assert np.allclose(table.a_bar, [[0.2, 0.4], [0.2, 0.1]], atol=1e-12)
        assert np.allclose(table.big_x, [2.0, 1.0], atol=1e-12)
        assert np.allclose(table.consumption, [1.2, 0.5], atol=1e-12)
        # row balance by hand: 2 - (0.4 + 0.4) = 1.2
        assert table.big_x[0] - table.a_bar[0] @ table.big_x == pytest.approx(1.2)

    def test_identity_map_recodes_to_value_units(self, rng):
        m = 4
        t, p, x = random_fine_economy(rng, m)
        identity = AggregationMap(m=m, n=m, assignment=tuple(range(m)))
        table = aggregate(t, p, x, identity)
        assert np.allclose(table.big_x, p * x, atol=1e-12)
        expected = (p[:, None] * t.a) / p[None, :]
        assert np.allclose(table.a_bar, expected, atol=1e-12)

    def test_total_balance(self, rng):
        for _ in range(50):
            m = int(rng.integers(3, 13))
            n = int(rng.integers(2, min(5, m)))
            t, p, x = random_fine_economy(rng, m)
            table = aggregate(t, p, x, random_map(rng, m, n))
            scale = max(1.0, float(np.max(table.big_x)))
            assert abs(np.sum(table.consumption) - np.sum(table.delta)) < 1e-10 * scale

    def test_productivity_preserved(self, rng):
        for _ in range(50):
            m = int(rng.integers(3, 13))
            n = int(rng.integers(2, min(5, m)))
            t, p, x = random_fine_economy(rng, m)
            table = aggregate(t, p, x, random_map(rng, m, n))
            assert is_productive(table.technology)

    def test_negative_fine_consumption_rejected(self):
        t = Technology([[0.1, 0.8], [0.8, 0.1]])
        x = np.array([1.0, 1.0])    # x - A x = (0.1, 0.1) fine; force negative via x
        x_bad = np.array([1.0, 10.0])
        assert np.min(x_bad - t.a @ x_bad) < 0
        with pytest.raises(HypothesisViolatedError, match=r"fine final consumption is negative in sector 0"):
            aggregate(Technology(t.a), np.ones(2), x_bad,
                      AggregationMap(m=2, n=2, assignment=(0, 1)))

    def test_indicator_matches_the_sector_loop(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 60))
            amap = random_map(rng, m, int(rng.integers(1, m + 1)))
            assert amap.indicator().tobytes() == indicator_reference(amap).tobytes()


class TestScalingIdentities:
    def test_unit_factors_trivial(self):
        assert scaling_identity_check(FINE3, np.ones(3), np.ones(3), MAP32,
                                      np.ones(2), np.ones(2))

    def test_random_factors_on_worked_example(self, rng):
        for _ in range(10):
            p_hat = rng.uniform(0.3, 3.0, 2)
            x_hat = rng.uniform(0.3, 3.0, 2)
            assert scaling_identity_check(FINE3, np.ones(3), np.ones(3), MAP32, p_hat, x_hat)

    def test_doubled_price_scales_rows_and_columns(self, rng):
        from ioequil.aggregation import _aggregate_raw
        p = np.ones(3)
        x = np.ones(3)
        base, _, _ = _aggregate_raw(FINE3, p, x, MAP32)
        p_hat = np.array([2.0, 1.0])
        assign = np.asarray(MAP32.assignment)
        scaled, _, _ = _aggregate_raw(FINE3, p_hat[assign] * p, x, MAP32)
        assert scaled[0, 1] == pytest.approx(2.0 * base[0, 1])
        assert scaled[1, 0] == pytest.approx(base[1, 0] / 2.0)
        assert scaled[0, 0] == pytest.approx(base[0, 0])

    def test_random_economies(self, rng):
        for _ in range(30):
            m = int(rng.integers(3, 13))
            n = int(rng.integers(2, min(5, m)))
            t, p, x = random_fine_economy(rng, m)
            amap = random_map(rng, m, n)
            p_hat = rng.uniform(0.3, 3.0, n)
            x_hat = rng.uniform(0.3, 3.0, n)
            assert scaling_identity_check(t, p, x, amap, p_hat, x_hat)


class TestRelativePrices:
    def test_unit_vector_at_value_added_shares(self, rng):
        for _ in range(30):
            m = int(rng.integers(3, 13))
            n = int(rng.integers(2, min(5, m)))
            t, p, x = random_fine_economy(rng, m)
            table = aggregate(t, p, x, random_map(rng, m, n))
            p_hat = relative_prices(table, table.delta / table.big_x)
            assert np.max(np.abs(p_hat - 1.0)) < 1e-10

    def test_zero_matrix_returns_delta_hat(self):
        from ioequil.aggregation import AggregatedTable
        table = AggregatedTable(a_bar=np.zeros((2, 2)), big_x=np.ones(2),
                                consumption=np.ones(2), delta=np.ones(2))
        assert np.allclose(relative_prices(table, [0.3, 0.8]), [0.3, 0.8])

    @pytest.mark.parametrize("a_bar", [[[1.0]], [[0.5, 0.6], [0.6, 0.5]]],
                             ids=["rho-1", "rho-1.1"])
    def test_unproductive_matrix_refused(self, a_bar):
        from ioequil.aggregation import AggregatedTable
        n = len(a_bar)
        table = AggregatedTable(a_bar=np.array(a_bar), big_x=np.ones(n),
                                consumption=np.ones(n), delta=np.ones(n))
        with pytest.raises(HypothesisViolatedError, match="^aggregated matrix is not productive$"):
            relative_prices(table, np.full(n, 0.5))

    def test_generic_delta_hat_solves_system(self, rng):
        table = aggregate(FINE3, np.ones(3), np.ones(3), MAP32)
        delta_hat = rng.uniform(0.2, 1.0, 2)
        p_hat = relative_prices(table, delta_hat)
        residual = p_hat - table.a_bar.T @ p_hat - delta_hat
        assert np.max(np.abs(residual)) < 1e-10


class TestAggregatedValueAdded:
    def test_unit_prices_on_worked_example(self):
        assert aggregated_value_added_check(FINE3, np.ones(3), np.ones(3), MAP32, np.ones(2))

    def test_random_relative_prices(self, rng):
        for _ in range(30):
            m = int(rng.integers(3, 13))
            n = int(rng.integers(2, min(5, m)))
            t, p, x = random_fine_economy(rng, m)
            amap = random_map(rng, m, n)
            p_hat = rng.uniform(0.3, 3.0, n)
            assert aggregated_value_added_check(t, p, x, amap, p_hat)

    def test_zero_value_added_economy(self, rng):
        # price-balanced economy: p = A^T p, so every margin vanishes and
        # both sides of the grouped identity are zero at unit relative prices
        a = np.array([[0.5, 0.3, 0.1], [0.2, 0.5, 0.4], [0.3, 0.2, 0.5]])
        eigenvalues, vectors = np.linalg.eig(a.T)
        k = int(np.argmax(eigenvalues.real))
        rho = float(eigenvalues[k].real)
        p = np.abs(vectors[:, k].real)
        t = Technology(a / rho)
        assert np.max(np.abs(p - (t.a.T @ p))) < 1e-12
        x = np.array([1.0, 1.0, 1.0])
        assert aggregated_value_added_check(t, p, x, MAP32, np.ones(2))


class TestAggregationMapFile:
    def test_bundled_map(self):
        amap = AggregationMap.from_file(data_path("toy3to2.map"))
        assert amap.m == 3
        assert amap.n == 2
        assert amap.assignment == (0, 0, 1)

    def test_rejects_gap(self, tmp_path):
        path = tmp_path / "bad.map"
        path.write_text("1 1\n3 2\n")
        with pytest.raises(ParseError):
            AggregationMap.from_file(path)

    def test_rejects_duplicate(self, tmp_path):
        path = tmp_path / "bad.map"
        path.write_text("1 1\n1 2\n")
        with pytest.raises(ParseError):
            AggregationMap.from_file(path)

    def test_rejects_non_surjective(self, tmp_path):
        path = tmp_path / "bad.map"
        path.write_text("1 1\n2 3\n")
        with pytest.raises(ValueError):
            AggregationMap.from_file(path)
