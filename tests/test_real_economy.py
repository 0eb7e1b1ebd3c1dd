import numpy as np
import pytest

from ioequil import (
    Technology,
    analyze,
    balanced_eigenvector,
    dumps_table,
    excess_supply,
    load_table,
    loads_table,
    value_added_tax,
)
from ioequil.errors import BalanceError, ParseError
from ioequil.real_economy import IOTable, balance_gaps

from conftest import data_path


def table_from_value_added_system(rng, n):
    """Table whose observed taxation reproduces the value-added system."""
    a = rng.uniform(0.05, 0.5, (n, n))
    a *= rng.uniform(0.3, 0.8, n) / a.sum(axis=0)
    tech = Technology(a, units="value")
    x0 = balanced_eigenvector(a.T)
    big_x = x0 * float(rng.uniform(2.0, 10.0))
    z = a * big_x[None, :]
    delta = big_x - z.sum(axis=0)
    t1 = delta * delta / big_x          # pi0 = T1/Delta = Delta/X
    z1 = delta - t1
    consumption = big_x - z.sum(axis=1)
    names = tuple(f"s{i+1}" for i in range(n))
    return IOTable(names=names, z=z, big_x=big_x, t1=t1, z1=z1,
                   consumption=consumption, exports=np.zeros(n), imports=np.zeros(n))


class TestLoader:
    def test_bundled_toy_parses_and_balances(self):
        table = load_table(data_path("toy2.csv"))
        assert table.names == ("agri", "industry")
        assert np.allclose(table.a_bar, [[0.2, 0.3], [0.3, 0.2]])
        assert np.allclose(table.delta, [0.5, 0.5])

    def test_round_trip_identity(self, rng):
        table = load_table(data_path("toy3.csv"))
        again = loads_table(dumps_table(table))
        assert again.names == table.names
        for field in ("z", "big_x", "t1", "z1", "consumption", "exports", "imports"):
            assert np.array_equal(getattr(again, field), getattr(table, field))

    def test_round_trip_noisy_floats(self, rng):
        n = 3
        a = rng.uniform(0.05, 0.2, (n, n))
        big_x = rng.uniform(1.0, 5.0, n)
        z = a * big_x[None, :]
        delta = big_x - z.sum(axis=0)
        table = IOTable(
            names=("alpha", "beta", "gamma"),
            z=z, big_x=big_x,
            t1=0.3 * delta, z1=0.7 * delta,
            consumption=big_x - z.sum(axis=1),
            exports=np.zeros(n), imports=np.zeros(n),
        )
        again = loads_table(dumps_table(table))
        assert np.array_equal(again.z, table.z)
        assert np.array_equal(again.big_x, table.big_x)

    def test_zero_gross_output_rejected(self):
        text = (
            "sector,a,b,C,E,I,X\n"
            "a,0.0,0.0,0.0,0,0,0\n"
            "b,0.0,0.0,1.0,0,0,1\n"
            "T1,0,0.5\nZ1,0,0.5\n"
        )
        with pytest.raises(BalanceError):
            loads_table(text)

    def test_one_percent_imbalance_names_sector(self):
        text = (
            "sector,a,b,C,E,I,X\n"
            "a,0.2,0.3,0.51,0,0,1\n"
            "b,0.3,0.2,0.5,0,0,1\n"
            "T1,0.25,0.25\nZ1,0.25,0.25\n"
        )
        with pytest.raises(BalanceError) as err:
            loads_table(text)
        assert "'a'" in str(err.value)

    def test_balance_gaps_are_signed_and_unscaled(self):
        text = (
            "sector,a,b,C,E,I,X\n"
            "a,0.2,0.3,0.51,0,0,1\n"
            "b,0.3,0.2,0.5,0,0,1\n"
            "T1,0.25,0.25\nZ1,0.25,0.25\n"
        )
        table = loads_table(text, balance_tol=float("inf"))
        row_gap, col_gap = balance_gaps(table)
        assert np.allclose(row_gap, [-0.01, 0.0], atol=1e-15)
        assert np.allclose(col_gap, [0.0, 0.0], atol=1e-15)
        with pytest.raises(BalanceError, match="= -0.01$"):
            loads_table(text)

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            loads_table("industry,a,b,C,E,I,X\n")

    def test_wrong_footer_label(self):
        text = (
            "sector,a,C,E,I,X\n"
            "a,0.5,0.5,0,0,1\n"
            "TAXES,0.25\nZ1,0.25\n"
        )
        with pytest.raises(ParseError):
            loads_table(text)

    def test_non_numeric_cell(self):
        text = (
            "sector,a,C,E,I,X\n"
            "a,0.5,half,0,0,1\n"
            "T1,0.25\nZ1,0.25\n"
        )
        with pytest.raises(ParseError):
            loads_table(text)


class TestAnalyze:
    def test_symmetric_toy_is_sustainable(self):
        table = load_table(data_path("toy2.csv"))
        report = analyze(table)
        assert np.allclose(report.pi0, [0.5, 0.5])
        assert report.sustainable_at_unit_prices
        assert report.excess_level == 0.0
        assert report.bounds.feasible

    def test_overtaxed_toy_fails_bounds_with_excess(self):
        table = load_table(data_path("toy2_overtaxed.csv"))
        report = analyze(table)
        assert np.allclose(report.pi0, [0.1, 0.9])
        assert not report.sustainable_at_unit_prices
        assert not report.bounds.feasible
        assert 0.0 < report.excess_level < 1.0

    def test_value_added_generated_table_is_sustainable(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            table = table_from_value_added_system(rng, n)
            report = analyze(table)
            assert report.sustainable_at_unit_prices
            assert report.excess_level == 0.0
            expected_pi = 1.0 - table.technology.a.sum(axis=0)
            assert np.allclose(report.pi0, expected_pi, atol=1e-9)

    def test_excess_level_in_unit_interval(self, rng):
        table = load_table(data_path("toy2_overtaxed.csv"))
        report = analyze(table)
        assert 0.0 <= report.excess_level < 1.0

    def test_excess_monotone_in_real_consumption(self):
        psi = np.array([1.0, 2.0, 0.5])
        prices = np.array([0.2, 0.5, 0.3])
        fractions = np.linspace(0.1, 1.0, 8)
        levels = [excess_supply(psi, f * psi, prices) for f in fractions]
        assert all(a >= b - 1e-15 for a, b in zip(levels, levels[1:]))

    def test_non_unit_relative_prices_accepted(self):
        table = load_table(data_path("toy2.csv"))
        report = analyze(table, p_hat=[1.0, 1.0])
        assert report.sustainable_at_unit_prices
        scaled = analyze(table, p_hat=[1.3, 0.7])
        assert 0.0 <= scaled.excess_level < 1.0
