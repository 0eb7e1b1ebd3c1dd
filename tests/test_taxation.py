import dataclasses
import re

import numpy as np
import pytest

from ioequil import (
    Technology,
    clearing_residual,
    fit_scale,
    load_table,
    real_tax_vector,
    tax_bounds,
    tax_family,
    value_added_tax,
)
from ioequil.errors import HypothesisViolatedError, ZeroValueAddedError

from conftest import data_path, random_indecomposable, real_tax_vector_reference, seeded_table

SYM_VALUE = Technology([[0.2, 0.3], [0.3, 0.2]])


def random_value_units(rng, n, density=1.0):
    """Indecomposable value-unit technology with column sums inside (0, 1)."""
    a = random_indecomposable(rng, n, density=density)
    targets = rng.uniform(0.2, 0.9, n)
    a *= targets / a.sum(axis=0)
    return Technology(a)


class TestTaxFamily:
    def test_symmetric_example(self):
        family = tax_family(SYM_VALUE, [1.0, 1.0])
        assert np.allclose(family.v0, [0.5, 0.5], atol=1e-11)
        assert family.c0_max == pytest.approx(4.0, abs=1e-9)
        assert np.allclose(family.pi(2.0), [0.5, 0.5], atol=1e-10)
        # the family is linear in c0 with slope -0.25 per sector
        assert np.allclose(family.factor, [0.25, 0.25], atol=1e-11)
        assert np.allclose(family.best_pi, [0.0, 0.0], atol=1e-12)

    def test_equilibrium_at_interior_c0(self):
        family = tax_family(SYM_VALUE, [1.0, 1.0])
        # the taxed equations are the clearing equations at unit prices with x = psi
        psi = (1.0 - family.pi(2.0)) * np.array([1.0, 1.0])
        residual = clearing_residual(SYM_VALUE, psi, np.ones(2))
        assert np.max(np.abs(residual)) < 1e-10

    def test_supplied_value_proportional_to_balanced_weights(self, rng):
        # (1 - pi(c0)) X equals c0 times V0 weighted by the column sums, which
        # is exactly why the taxed clearing equations reduce to the balance system
        for _ in range(10):
            n = int(rng.integers(2, 6))
            t = random_value_units(rng, n)
            big_x = rng.uniform(0.5, 2.0, n)
            family = tax_family(t, big_x)
            c0 = float(rng.uniform(0.1, 1.0)) * family.c0_max
            supplied = (1.0 - family.pi(c0)) * big_x
            expected = c0 * family.v0 * t.a.sum(axis=0)
            assert np.allclose(supplied, expected, atol=1e-12)

    def test_best_pi_minimum_is_exact_zero(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            t = random_value_units(rng, n)
            big_x = rng.uniform(0.5, 2.0, n)
            family = tax_family(t, big_x)
            best = family.best_pi
            assert np.min(best) == 0.0
            assert np.all(best >= 0.0) and np.all(best < 1.0)


@pytest.mark.parametrize("call, exc, message", [
    (lambda: tax_family(SYM_VALUE, [1.0]), ValueError, "gross output length does not match sector count"),
    (lambda: tax_family(SYM_VALUE, [1.0, 0.0]), ValueError, "gross output must be strictly positive"),
    (lambda: tax_family(SYM_VALUE, [1.0, 1.0]).pi(0.0), ValueError, "c0 must lie in (0, "),
    (lambda: tax_family(SYM_VALUE, [1.0, 1.0]).pi(4.1), ValueError, "c0 must lie in (0, "),
    (lambda: tax_bounds([0.2, 0.2], [0.5]), ValueError, "pi and ratios must have matching lengths"),
    (lambda: tax_bounds([0.2, 0.2], [0.5, 1.0]), ValueError,
     "value-added ratios must lie strictly inside (0, 1)"),
    (lambda: fit_scale([1.0, 1.0], [0.25]), ValueError, "vectors must have matching lengths"),
], ids=["family X length", "family X positive", "c0 zero", "c0 above c0_max", "bounds lengths",
        "bounds ratios", "fit_scale lengths"])
def test_taxation_refusals(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}"):
        call()


class TestTaxBounds:
    def test_feasible_example(self):
        report = tax_bounds([0.2, 0.2], [0.5, 0.5])
        assert report.feasible
        lo, hi = report.beta_interval
        assert lo == pytest.approx(0.8)
        assert hi == pytest.approx(1.6)
        assert report.witness_beta == pytest.approx(1.2)

    def test_interval_reads_the_ratios_and_reconstruction_the_column_sums(self):
        # the ratios 0.3 set the interval; SYM_VALUE's column sums 0.5 and
        # balanced weights 0.5 set X = (s / (1 - pi)) x0 = 0.3125
        report = tax_bounds([0.2, 0.2], [0.3, 0.3], t_value=SYM_VALUE)
        assert report.beta_interval == pytest.approx((0.8, 0.8 / 0.7))
        assert np.allclose(report.reconstructed_x, [0.3125, 0.3125], atol=1e-12)

    def test_infeasible_example(self):
        report = tax_bounds([0.1, 0.9], [0.5, 0.5])
        assert not report.feasible
        assert report.beta_interval is None
        assert report.witness_beta is None

    def test_strict_upper_cap_example(self):
        report = tax_bounds([0.9, 0.9], [0.1, 0.1])
        assert report.feasible
        lo, hi = report.beta_interval
        assert lo == pytest.approx(0.1)
        assert hi == pytest.approx(1.0 / 9.0)

    def test_upper_endpoint_monotone_in_pi(self, rng):
        # raising any single tax rate never raises the admissible upper endpoint
        for _ in range(50):
            n = int(rng.integers(2, 6))
            pi = rng.uniform(0.05, 0.9, n)
            ratios = rng.uniform(0.1, 0.9, n)
            i = int(rng.integers(0, n))
            bumped = pi.copy()
            bumped[i] = min(0.99, pi[i] + rng.uniform(0.01, 0.2))

            def upper(p):
                return min(float(np.min((1 - p) / (1 - ratios))),
                           1.0 / float(np.max(1 - ratios)))

            assert upper(bumped) <= upper(pi) + 1e-12

    def test_beta_admissibility_breaks_when_pi_raised_past_bound(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            ratios = rng.uniform(0.2, 0.8, n)
            beta = rng.uniform(0.5, 0.9) / float(np.max(1 - ratios))
            pi = 1.0 - beta * (1 - ratios) * rng.uniform(1.0, 1.2, n)
            if np.any(pi <= 0.0) or np.any(pi >= 1.0):
                continue
            assert np.all(pi <= 1.0 - beta * (1.0 - ratios) + 1e-12)
            i = int(rng.integers(0, n))
            pi[i] = 1.0 - beta * (1.0 - ratios[i]) * 0.5
            assert pi[i] > 1.0 - beta * (1.0 - ratios[i])

    def test_reconstruction_positive_when_feasible(self, rng):
        feasible_seen = 0
        for _ in range(100):
            n = int(rng.integers(2, 6))
            t = random_value_units(rng, n)
            ratios = 1.0 - t.a.sum(axis=0)
            beta = rng.uniform(1.0, 0.999 / float(np.max(1 - ratios)))
            pi = 1.0 - beta * (1.0 - ratios) * rng.uniform(1.0, 1.1, n)
            if np.any(pi <= 0.0) or np.any(pi >= 1.0):
                continue
            report = tax_bounds(pi, ratios, t_value=t)
            if not report.feasible:
                continue
            feasible_seen += 1
            assert report.final_y is not None
            normalized = report.final_y / np.max(report.final_y)
            assert np.all(normalized > 1e-10)
            assert np.all(report.reconstructed_x > 0.0)
        assert feasible_seen >= 30

    def test_zero_pi_flagged(self):
        report = tax_bounds([0.0, 0.4], [0.5, 0.5])
        assert any("untaxed" in d for d in report.diagnostics)


class TestValueAddedTax:
    def test_symmetric_example(self):
        system = value_added_tax(SYM_VALUE)
        assert np.allclose(system.pi, [0.5, 0.5])
        assert np.allclose(system.x0, [0.5, 0.5], atol=1e-11)
        assert np.allclose(system.final_consumption(1.0), [0.25, 0.25], atol=1e-11)

    def test_zero_scale_degenerate(self):
        system = value_added_tax(SYM_VALUE)
        assert np.allclose(system.final_consumption(0.0), 0.0)

    def test_value_added_equals_final_product(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            t = random_value_units(rng, n)
            system = value_added_tax(t)
            d = float(rng.uniform(0.1, 5.0))
            assert np.allclose(system.value_added(d), system.final_consumption(d), atol=0.0)
            assert np.sum(system.final_consumption(d)) == pytest.approx(
                np.sum(system.value_added(d)))

    def test_taxed_equations_hold_at_value_added_pi(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            t = random_value_units(rng, n)
            system = value_added_tax(t)
            big_x = system.x0 * float(rng.uniform(0.5, 4.0))
            residual = clearing_residual(t, (1.0 - system.pi) * big_x, np.ones(n))
            assert np.max(np.abs(residual)) < 1e-10


class TestFitScale:
    def test_worked_example(self):
        assert fit_scale([1.0, 1.0], [0.25, 0.25]) == pytest.approx(4.0)

    def test_identity(self):
        base = np.array([0.3, 0.7])
        assert fit_scale(base, base) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fit_scale([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_zero_base(self):
        with pytest.raises(HypothesisViolatedError, match=r"base vector is zero"):
            fit_scale([1.0, 1.0], [0.0, 0.0])


class TestRealTaxVector:
    def test_ratios(self):
        table = load_table(data_path("toy2.csv"))
        pi0 = real_tax_vector(table)
        assert np.allclose(pi0, [0.5, 0.5])

    def test_derived_ratios(self):
        class FakeTable:
            t1 = np.array([0.1, 0.2])
            delta = np.array([0.5, 0.5])

        assert np.allclose(real_tax_vector(FakeTable()), [0.2, 0.4])

    def test_no_production_taxes(self):
        class FakeTable:
            t1 = np.zeros(3)
            delta = np.array([0.5, 0.4, 0.3])

        assert np.all(real_tax_vector(FakeTable()) == 0.0)

    def test_zero_value_added(self):
        class FakeTable:
            names = ("agri", "ind")
            t1 = np.array([0.1, 0.2])
            delta = np.array([0.5, 0.0])

        with pytest.raises(ZeroValueAddedError, match="^sector 'ind' has non-positive value added$") as err:
            real_tax_vector(FakeTable())
        assert err.value.sector == 1

    def test_fully_taxed_sector_returned_but_rejected_by_bounds(self):
        class FakeTable:
            t1 = np.array([0.5, 0.25])
            delta = np.array([0.5, 0.5])

        pi0 = real_tax_vector(FakeTable())
        assert np.allclose(pi0, [1.0, 0.5])
        with pytest.raises(HypothesisViolatedError, match=r"^taxation component 0 must lie in \[0, 1\)$"):
            tax_bounds(pi0, [0.5, 0.5])

    @pytest.mark.parametrize("density", [1.0, 0.3])
    def test_matches_the_sector_loop(self, rng, density):
        for _ in range(50):
            table = seeded_table(rng, int(rng.integers(2, 40)), density)
            assert real_tax_vector(table).tobytes() == real_tax_vector_reference(table).tobytes()

    def test_first_non_positive_sector_named_as_by_the_loop(self, rng):
        for _ in range(50):
            table = seeded_table(rng, int(rng.integers(2, 20)), 0.3)
            z1 = table.z1.copy()
            bad = rng.choice(table.n, int(rng.integers(1, table.n + 1)), replace=False)
            z1[bad] = -table.t1[bad] * rng.choice([1.0, 2.0], bad.size)   # Delta = 0 or < 0
            table = dataclasses.replace(table, z1=z1)
            with pytest.raises(ZeroValueAddedError) as expected:
                real_tax_vector_reference(table)
            with pytest.raises(ZeroValueAddedError, match=f"^{re.escape(str(expected.value))}$") as err:
                real_tax_vector(table)
            assert err.value.sector == expected.value.sector
