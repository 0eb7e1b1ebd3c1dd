"""Taxation machinery for value-unit economies.

Existence of a one-parameter family of taxation vectors keeping given
prices in equilibrium, the smallest such vector, the two-sided feasibility
bounds with gross-output reconstruction, the value-added taxation system,
and helpers for real tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .balance import balanced_eigenvector
from .core import Technology, _positive_vector, _vector
from .errors import HypothesisViolatedError, ZeroValueAddedError

if TYPE_CHECKING:  # pragma: no cover
    from .real_economy import IOTable


def _column_sums(t_value: Technology) -> np.ndarray:
    """Column sums s of A, strictly inside (0, 1). In value units s = 1 - Delta/X,
    which the loader's ``validate_table`` alone tests, at its tolerance."""
    s = t_value.a.sum(axis=0)
    if np.any(s <= 0.0) or np.any(s >= 1.0):
        raise HypothesisViolatedError("value-unit column sums must lie strictly inside (0, 1)")
    return s


@dataclass(frozen=True)
class TaxFamily:
    """One-parameter taxation family pi(c0) = 1 - c0 * factor.

    ``factor_i = (V0_i / X_i) s_i`` with V0 the balanced weight vector and s
    the column sums of the value-unit A (s = 1 - Delta/X); every c0 in
    (0, c0_max] keeps the given prices in equilibrium, and c0_max drives the
    least-taxed sector exactly to zero.
    """

    v0: np.ndarray
    factor: np.ndarray
    c0_max: float

    def pi(self, c0: float) -> np.ndarray:
        if not 0.0 < c0 <= self.c0_max + 1e-12:
            raise ValueError(f"c0 must lie in (0, {self.c0_max}]")
        return 1.0 - c0 * self.factor

    @property
    def best_pi(self) -> np.ndarray:
        return 1.0 - self.factor / np.max(self.factor)


def tax_family(t_value: Technology, big_x) -> TaxFamily:
    """Family of taxation vectors keeping the table's prices in equilibrium.

    The value-added shares come from the column sums of the value-unit A.
    A decomposable matrix is refused before gross output is checked.
    """
    t_value.require_indecomposable("taxation family")
    big_x = _positive_vector(big_x, t_value.n, "gross output")
    s = _column_sums(t_value)
    v0 = balanced_eigenvector(t_value)
    factor = (v0 / big_x) * s
    c0_max = 1.0 / float(np.max(factor))
    return TaxFamily(v0=v0, factor=factor, c0_max=c0_max)


@dataclass(frozen=True)
class TaxBoundsReport:
    """Feasibility of the two-sided bound on the scalar beta.

    The admissible set is (lo, hi] with lo = max_i (1 - pi_i) and
    hi = min_i (1 - pi_i)/(1 - ratio_i), further capped strictly below
    1 / max_i (1 - ratio_i). ``beta_interval`` stores (lo, hi) when the set
    is non-empty. When a value-unit technology is supplied the gross output
    and final consumption implied by the family construction are attached.
    """

    feasible: bool
    beta_interval: tuple[float, float] | None
    witness_beta: float | None
    reconstructed_x: np.ndarray | None
    final_y: np.ndarray | None
    diagnostics: tuple[str, ...] = ()


def tax_bounds(pi, ratios, t_value: Technology | None = None) -> TaxBoundsReport:
    """Admissible bound scalars for a taxation vector.

    ``ratios`` holds the value-added shares Delta_i / X_i of the interval;
    the reconstruction reads s from ``t_value``'s column sums. Infeasibility
    is a result, not an error. Sectors taxed at exactly zero are admitted and
    flagged in the diagnostics. A decomposable ``t_value`` is refused first,
    whatever the bounds.
    """
    if t_value is not None:
        t_value.require_indecomposable("reconstruction")
    pi = _vector(pi, "taxation vector")
    ratios = _vector(ratios, "value-added ratios")
    if pi.shape != ratios.shape:
        raise ValueError("pi and ratios must have matching lengths")
    outside = np.flatnonzero((pi < 0.0) | (pi >= 1.0))
    if outside.size:
        raise HypothesisViolatedError(f"taxation component {outside[0]} must lie in [0, 1)")
    if np.any(ratios <= 0.0) or np.any(ratios >= 1.0):
        raise ValueError("value-added ratios must lie strictly inside (0, 1)")
    diagnostics = []
    if np.any(pi == 0.0):
        diagnostics.append("some sectors are untaxed; the feasibility bounds assume strictly positive taxation")

    lo = float(np.max(1.0 - pi))
    hi_closed = float(np.min((1.0 - pi) / (1.0 - ratios)))
    hi_open = 1.0 / float(np.max(1.0 - ratios))
    hi = min(hi_closed, hi_open)
    feasible = lo < hi
    if not feasible:
        return TaxBoundsReport(False, None, None, None, None, tuple(diagnostics))

    witness = 0.5 * (lo + hi)
    reconstructed_x = None
    final_y = None
    if t_value is not None:
        s = _column_sums(t_value)
        x0 = balanced_eigenvector(t_value)
        reconstructed_x = (s / (1.0 - pi)) * x0
        final_y = reconstructed_x - t_value.a @ reconstructed_x
    return TaxBoundsReport(True, (lo, hi), witness, reconstructed_x, final_y, tuple(diagnostics))


@dataclass(frozen=True)
class ValueAddedTaxSystem:
    """Taxation at the value-added share of every sector.

    ``pi = 1 - column sums``; gross output is the balanced weight vector,
    and for every scale d the final product equals the created value added
    sector by sector.
    """

    pi: np.ndarray
    x0: np.ndarray
    base: np.ndarray   # (1 - column sums) * x0

    def final_consumption(self, d: float) -> np.ndarray:
        return d * self.base

    def value_added(self, d: float) -> np.ndarray:
        return d * self.base


def value_added_tax(t_value: Technology) -> ValueAddedTaxSystem:
    """Taxation system with per-sector value added equal to final product."""
    t_value.require_indecomposable("value-added taxation")
    s = _column_sums(t_value)
    x0 = balanced_eigenvector(t_value)
    return ValueAddedTaxSystem(pi=1.0 - s, x0=x0, base=(1.0 - s) * x0)


def fit_scale(y_real, base) -> float:
    """Least-squares scale d0 minimizing ||y_real - d * base||^2."""
    y_real = _vector(y_real, "observed final product")
    base = _vector(base, "base vector")
    if y_real.shape != base.shape:
        raise ValueError("vectors must have matching lengths")
    denom = float(base @ base)
    if denom <= 0.0:
        raise HypothesisViolatedError("base vector is zero")
    return float(y_real @ base) / denom


def real_tax_vector(table: "IOTable") -> np.ndarray:
    """Observed taxation: production taxes over gross value added, per sector.

    A sector with non-positive value added raises ZeroValueAddedError naming it.
    """
    delta = table.delta
    bad = np.flatnonzero(delta <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise ZeroValueAddedError(i, f"sector {table.names[i]!r} has non-positive value added")
    return table.t1 / delta
