"""Aggregation of a fine-grained economy into sector-level value tables.

The grouping map sends each fine good to a coarse sector; value-weighted
sums produce the coarse direct-cost matrix, gross output, final consumption
and value added, tied together by the row, column and total balance
identities. Rescaling fine prices and outputs by coarse factors acts on the
aggregated table by the exact scaling laws checked here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import Technology, _vector
from .errors import HypothesisViolatedError, ParseError

AGGREGATION_TOL = 1e-10


@dataclass(frozen=True)
class AggregationMap:
    """Total surjective map from m fine goods onto n coarse sectors (0-based)."""

    m: int
    n: int
    assignment: tuple[int, ...]

    def __post_init__(self):
        # n == m (pure recoding into value units) is allowed; growth is not
        if self.n > self.m:
            raise ValueError("aggregation cannot increase the sector count")
        if len(self.assignment) != self.m:
            raise ValueError("assignment length must equal the fine sector count")
        hit = set(self.assignment)
        if any(j < 0 or j >= self.n for j in hit):
            raise ValueError("assignment targets out of range")
        if hit != set(range(self.n)):
            raise ValueError("every coarse sector needs at least one preimage")

    @classmethod
    def from_file(cls, path: str | Path) -> "AggregationMap":
        """Parse 'fine coarse' pairs, one per line, 1-based, '#' comments.

        A leading byte-order mark is dropped, as for table files.
        """
        pairs: dict[int, int] = {}
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'fine coarse', got {raw!r}")
            try:
                fine, coarse = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer index in {raw!r}") from exc
            if fine < 1 or coarse < 1:
                raise ParseError(f"{path}:{lineno}: indices are 1-based and positive")
            if fine in pairs:
                raise ParseError(f"{path}:{lineno}: fine sector {fine} mapped twice")
            pairs[fine] = coarse
        if not pairs:
            raise ParseError(f"{path}: empty aggregation map")
        m = max(pairs)
        if set(pairs) != set(range(1, m + 1)):
            raise ParseError(f"{path}: fine sectors must cover 1..{m} without gaps")
        assignment = tuple(pairs[i] - 1 for i in range(1, m + 1))
        return cls(m=m, n=max(assignment) + 1, assignment=assignment)

    def indicator(self) -> np.ndarray:
        """n x m grouping indicator S with S[k, l] = 1 iff l maps to k."""
        s = np.zeros((self.n, self.m))
        s[self.assignment, np.arange(self.m)] = 1.0
        return s


@dataclass(frozen=True)
class AggregatedTable:
    a_bar: np.ndarray
    big_x: np.ndarray
    consumption: np.ndarray
    delta: np.ndarray

    @property
    def n(self) -> int:
        return self.big_x.shape[0]

    @cached_property
    def technology(self) -> Technology:
        return Technology(self.a_bar)


def _aggregate_raw(fine: Technology, p: np.ndarray, x: np.ndarray, s: np.ndarray,
                   c: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grouped (a_bar, X, C) under the grouping indicator ``s``, without any
    balance validation.

    ``c`` defaults to the balance x - A x; the scaling laws treat it as
    independent data rescaled alongside x.
    """
    value_output = s @ (p * x)
    flows = s @ ((p[:, None] * fine.a) * x[None, :]) @ s.T
    a_bar = flows / value_output[None, :]
    if c is None:
        c = x - fine.a @ x
    consumption = s @ (p * c)
    return a_bar, value_output, consumption


def aggregate(fine: Technology, p, x, amap: AggregationMap) -> AggregatedTable:
    """Aggregate a consistent fine economy at prices p and outputs x.

    The fine final consumption x - A x must be non-negative; all three
    balance identities of the coarse table are validated to tolerance.
    """
    p = _vector(p, "price vector")
    x = _vector(x, "gross output")
    if fine.n != amap.m:
        raise ValueError("fine technology size does not match the aggregation map")
    if p.shape[0] != fine.n or x.shape[0] != fine.n:
        raise ValueError("vector lengths must match the fine sector count")
    if np.any(p <= 0.0) or np.any(x <= 0.0):
        raise ValueError("prices and outputs must be strictly positive")
    c = x - fine.a @ x
    scale = max(1.0, float(np.max(np.abs(x))))
    if np.any(c < -AGGREGATION_TOL * scale):
        worst = int(np.argmin(c))
        raise HypothesisViolatedError(
            f"fine final consumption is negative in sector {worst} ({c[worst]:.3e})"
        )

    s = amap.indicator()
    a_bar, big_x, consumption = _aggregate_raw(fine, p, x, s, c)
    delta_fine = p - fine.a.T @ p
    delta = s @ (delta_fine * x)

    vscale = max(1.0, float(np.max(big_x)))
    row_gap = np.max(np.abs(big_x - a_bar @ big_x - consumption))
    if row_gap > AGGREGATION_TOL * vscale:
        raise HypothesisViolatedError(f"row balance X - A X = C fails by {row_gap:.3e}")
    col_gap = np.max(np.abs(big_x - a_bar.sum(axis=0) * big_x - delta))
    if col_gap > AGGREGATION_TOL * vscale:
        raise HypothesisViolatedError(f"column balance X - (col sums) X = Delta fails by {col_gap:.3e}")
    total_gap = abs(float(np.sum(consumption) - np.sum(delta)))
    if total_gap > AGGREGATION_TOL * vscale:
        raise HypothesisViolatedError(f"total balance sum C = sum Delta fails by {total_gap:.3e}")
    return AggregatedTable(a_bar=a_bar, big_x=big_x, consumption=consumption, delta=delta)


def scaling_identity_check(fine: Technology, p, x, amap: AggregationMap,
                           p_hat, x_hat) -> bool:
    """Verify the exact action of coarse rescaling on the aggregated table.

    Rescaling fine prices by p_hat[f(i)] and outputs by x_hat[f(i)] must send
    a_bar[k, i] to p_hat_k a_bar[k, i] / p_hat_i, and X_k, C_k to
    p_hat_k x_hat_k times their values.
    """
    p = _vector(p, "price vector")
    x = _vector(x, "gross output")
    p_hat = _vector(p_hat, "coarse price factors")
    x_hat = _vector(x_hat, "coarse output factors")
    if p_hat.shape[0] != amap.n or x_hat.shape[0] != amap.n:
        raise ValueError("factor lengths must match the coarse sector count")
    if np.any(p_hat <= 0.0) or np.any(x_hat <= 0.0):
        raise ValueError("scaling factors must be strictly positive")

    assign = np.asarray(amap.assignment)
    p_scaled = p_hat[assign] * p
    x_scaled = x_hat[assign] * x
    c = x - fine.a @ x
    c_scaled = x_hat[assign] * c
    s = amap.indicator()
    a_bar, big_x, consumption = _aggregate_raw(fine, p, x, s, c)
    a_bar2, big_x2, consumption2 = _aggregate_raw(fine, p_scaled, x_scaled, s, c_scaled)

    expected_a = (p_hat[:, None] * a_bar) / p_hat[None, :]
    expected_x = p_hat * x_hat * big_x
    expected_c = p_hat * x_hat * consumption
    scale = max(1.0, float(np.max(np.abs(expected_x))))
    return bool(
        np.max(np.abs(a_bar2 - expected_a)) <= AGGREGATION_TOL * max(1.0, float(np.max(expected_a)))
        and np.max(np.abs(big_x2 - expected_x)) <= AGGREGATION_TOL * scale
        and np.max(np.abs(consumption2 - expected_c)) <= AGGREGATION_TOL * scale
    )


def relative_prices(table: AggregatedTable, delta_hat) -> np.ndarray:
    """Solve p_hat_i = sum_s p_hat_s a_bar_si + delta_hat_i.

    With delta_hat = Delta / X the solution is the all-ones vector.
    """
    delta_hat = _vector(delta_hat, "relative value-added")
    if delta_hat.shape[0] != table.n:
        raise ValueError("delta_hat length must match the coarse sector count")
    if np.any(delta_hat <= 0.0):
        raise ValueError("delta_hat must be strictly positive")
    if not table.technology.productive:
        raise HypothesisViolatedError("aggregated matrix is not productive")
    return np.linalg.solve(np.eye(table.n) - table.a_bar.T, delta_hat)


def aggregated_value_added_check(fine: Technology, p, x, amap: AggregationMap,
                                 p_hat) -> bool:
    """Grouped fine value added under rescaled prices equals X_k delta_hat_k."""
    p = _vector(p, "price vector")
    x = _vector(x, "gross output")
    p_hat = _vector(p_hat, "relative prices")
    if p_hat.shape[0] != amap.n:
        raise ValueError("relative price length must match the coarse sector count")
    assign = np.asarray(amap.assignment)
    s = amap.indicator()
    a_bar, big_x, _ = _aggregate_raw(fine, p, x, s)
    delta_hat = p_hat - a_bar.T @ p_hat

    p_scaled = p_hat[assign] * p
    fine_margins = p_scaled - fine.a.T @ p_scaled
    grouped = s @ (fine_margins * x)
    expected = big_x * delta_hat
    scale = max(1.0, float(np.max(np.abs(expected))))
    return bool(np.max(np.abs(grouped - expected)) <= AGGREGATION_TOL * scale)
