"""Sustainable-development test and the constructive price vector.

An economy can repeat its production cycle indefinitely exactly when the
gross output vector admits a decomposition x = A b1 with b1 > 0 and
(E - A) b1 > 0; the proof is constructive and yields simplex prices whose
per-sector value-added margins are strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .core import POSITIVE_TOL, Technology, _vector, is_indecomposable, is_productive, matrix_rank
from .errors import (
    DecomposableError,
    HypothesisViolatedError,
    NoConvergenceError,
    NotProductiveError,
    SingularUnresolvedError,
    ZeroDenominatorError,
)

REGULARIZATION_EPS = tuple(10.0 ** (-k) for k in range(4, 11))
REGULARIZATION_STABLE_TOL = 1e-7
PRICE_TOL = 1e-12
PRICE_MAXITER = 10 ** 6


@dataclass(frozen=True)
class SustainabilityVerdict:
    sustainable: bool
    alpha: np.ndarray | None
    b1: np.ndarray | None
    prices: np.ndarray | None
    margins: np.ndarray | None


def _solve_intermediate(a: np.ndarray, x: np.ndarray, rank: int) -> np.ndarray:
    """Solve A b1 = x, regularizing a singular matrix through (A + eps E).

    The perturbed solutions drift linearly in eps, so the limit is taken by
    Richardson extrapolation over consecutive schedule points (ratio ten);
    the extrapolants must agree to the stabilization tolerance. A right-hand
    side outside the column space blows up like 1/eps and never stabilizes.
    """
    n = a.shape[0]
    if rank == n:
        return np.linalg.solve(a, x)
    previous = None
    previous_extrapolant = None
    for eps in REGULARIZATION_EPS:
        try:
            candidate = np.linalg.solve(a + eps * np.eye(n), x)
        except np.linalg.LinAlgError:
            continue
        if previous is not None:
            extrapolant = (10.0 * candidate - previous) / 9.0
            if previous_extrapolant is not None:
                gap = float(np.max(np.abs(extrapolant - previous_extrapolant)))
                scale = max(1.0, float(np.max(np.abs(previous_extrapolant))))
                if gap < REGULARIZATION_STABLE_TOL * scale:
                    return extrapolant
            previous_extrapolant = extrapolant
        previous = candidate
    # near-defective kernels stall the schedule; fall back to the minimum-norm
    # solution, still restricted to right-hand sides inside the column space
    solution, *_ = np.linalg.lstsq(a, x, rcond=1e-12)
    if float(np.max(np.abs(a @ solution - x))) <= 1e-8 * max(1.0, float(np.max(np.abs(x)))):
        return solution
    raise SingularUnresolvedError("regularized solves of the singular system did not stabilize")


def _positive_repair(a: np.ndarray, b1: np.ndarray) -> np.ndarray | None:
    """Search b1 + ker(A) for a point with b1 > 0 and (E - A) b1 > 0.

    A singular matrix leaves the intermediate vector determined only up to
    the kernel; the regularized limit may sit outside the positive region
    even when the region is non-empty, so feasibility is decided by a small
    linear program maximizing the worst margin.
    """
    n = a.shape[0]
    u, s, vh = np.linalg.svd(a)
    tol = max(a.shape) * (s[0] if s.size else 0.0) * 1e-12
    kernel = vh[int(np.sum(s > tol)):].T
    if kernel.shape[1] == 0:
        return None
    growth = np.eye(n) - a
    # variables (mu, t): maximize t with b1 + N mu >= t, (E-A)(b1 + N mu) >= t
    k = kernel.shape[1]
    a_ub = np.block([
        [-kernel, np.ones((n, 1))],
        [-growth @ kernel, np.ones((n, 1))],
    ])
    b_ub = np.concatenate([b1, growth @ b1])
    c = np.zeros(k + 1)
    c[-1] = -1.0
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (k + 1), method="highs")
    if not result.success:
        return None
    t_star = -result.fun
    if t_star <= POSITIVE_TOL * max(1.0, float(np.max(np.abs(b1)))):
        return None
    return b1 + kernel @ result.x[:k]


def check_sustainable(t: Technology, x) -> SustainabilityVerdict:
    """Decide whether gross output x supports the sustainable mode.

    Solves A b1 = x, sets alpha = (E - A) b1, and declares the mode
    sustainable when both vectors are strictly positive (thresholds applied
    after normalizing b1 by its largest component). On success the simplex
    price vector and positive value-added margins from the constructive
    proof are attached to the verdict.
    """
    x = _vector(x, "gross output")
    if x.shape[0] != t.n:
        raise ValueError("gross output length does not match sector count")
    if np.any(x <= 0.0):
        raise ValueError("gross output must be strictly positive")
    if not is_productive(t):
        raise NotProductiveError("sustainability test requires a productive matrix")
    if not is_indecomposable(t):
        raise DecomposableError("sustainability test requires an indecomposable matrix")

    rank = matrix_rank(t.a)
    b1 = _solve_intermediate(t.a, x, rank)
    if rank < t.n and not _is_positive_certificate(t.a, b1):
        repaired = _positive_repair(t.a, b1)
        if repaired is not None:
            b1 = repaired

    if not _is_positive_certificate(t.a, b1):
        return SustainabilityVerdict(False, None, None, None, None)

    alpha = (np.eye(t.n) - t.a) @ b1
    prices = _certificate_prices(t.a, b1)
    margins = prices - t.a.T @ prices
    return SustainabilityVerdict(True, alpha, b1, prices, margins)


def _is_positive_certificate(a: np.ndarray, b1: np.ndarray) -> bool:
    top = float(np.max(np.abs(b1))) if b1.size else 0.0
    if top <= 0.0:
        return False
    normalized = b1 / top
    growth = normalized - a @ normalized
    return bool(np.min(normalized) > POSITIVE_TOL and np.min(growth) > POSITIVE_TOL)


def _certificate_prices(a: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """Simplex prices p_i = ratio_i <A_i, p> with ratio_i = b1_i / (A b1)_i."""
    image = a @ b1
    if np.any(image <= 0.0):
        raise HypothesisViolatedError("A b1 must be strictly positive for the price construction")
    ratio = b1 / image
    m = ratio[:, None] * a.T
    n = a.shape[0]
    p = np.full(n, 1.0 / n)
    for _ in range(PRICE_MAXITER):
        q = p + m @ p
        q /= q.sum()
        if np.max(np.abs(q - p)) < PRICE_TOL:
            return q
        p = q
    raise NoConvergenceError("certificate price iteration hit the cap")


def clearing_residual(t: Technology, x, p) -> np.ndarray:
    """Residual of sum_i a_ki x_i p_i / <A_i, p> = x_k at prices p."""
    x = _vector(x, "gross output")
    p = _vector(p, "price vector")
    if x.shape[0] != t.n or p.shape[0] != t.n:
        raise ValueError("vector lengths must match the sector count")
    if np.any(p < 0.0) or not np.any(p > 0.0):
        raise ValueError("prices must be non-negative and nonzero")
    denom = t.a.T @ p
    terms = np.zeros(t.n)
    for i in range(t.n):
        value = x[i] * p[i]
        if value != 0.0:
            if denom[i] <= 0.0:
                raise ZeroDenominatorError(f"input cost of sector {i} vanishes at these prices")
            terms[i] = value / denom[i]
    return t.a @ terms - x
