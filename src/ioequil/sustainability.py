"""Sustainable-development test and the constructive price vector.

An economy can repeat its production cycle indefinitely exactly when the
gross output vector admits a decomposition x = A b1 with b1 > 0 and
(E - A) b1 > 0; the proof is constructive and yields simplex prices whose
per-sector value-added margins are strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    POSITIVE_TOL,
    Technology,
    _vector,
    perron_vector,
    pivoted_rank,
)
from .errors import DecomposableError, HypothesisViolatedError


@dataclass(frozen=True)
class SustainabilityVerdict:
    sustainable: bool
    alpha: np.ndarray | None
    b1: np.ndarray | None
    prices: np.ndarray | None
    margins: np.ndarray | None


def linprog(*args, **kwargs):
    """scipy's ``linprog``, imported on first call so that importing the package loads no scipy."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _singular_intermediate(a: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """Solve A b1 = x for a singular A from one pivoted QR, A^T P = Q R.

    Returns None when x lies outside the column space of A: no b1 exists,
    so the mode is not sustainable. With r the rank ``core.pivoted_rank``
    reads off R, the minimum-norm solution Q_1 R_11^-T (P^T x)_1 is returned
    when it is already a positive certificate. Otherwise a small linear
    program moves it along ker(A) = span Q_2 to maximize the worst of the
    margins b1 > 0 and (E - A) b1 > 0; the caller re-checks the result.
    """
    from scipy.linalg import qr, solve_triangular

    q, r, piv = qr(a.T, pivoting=True)
    rank = pivoted_rank(r, float(np.max(np.abs(a))))
    b1 = q[:, :rank] @ solve_triangular(r[:rank, :rank], x[piv[:rank]], trans="T")
    image = a @ b1
    if float(np.max(np.abs(image - x))) > 1e-8 * max(1.0, float(np.max(np.abs(x)))):
        return None
    alpha = b1 - image
    if _is_positive_certificate(b1, alpha):
        return b1
    kernel = q[:, rank:]
    # variables (mu, t): maximize t with b1 + N mu >= t, (E-A)(b1 + N mu) >= t
    k = kernel.shape[1]
    ones = np.ones((a.shape[0], 1))
    a_ub = np.block([[-kernel, ones], [a @ kernel - kernel, ones]])
    b_ub = np.concatenate([b1, alpha])
    c = np.zeros(k + 1)
    c[-1] = -1.0
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (k + 1), method="highs")
    if not result.success or -result.fun <= POSITIVE_TOL * max(1.0, float(np.max(np.abs(b1)))):
        return b1
    return b1 + kernel @ result.x[:k]


def check_sustainable(t: Technology, x) -> SustainabilityVerdict:
    """Decide whether gross output x supports the sustainable mode.

    Solves A b1 = x (on the cached LU of a nonsingular A) and declares the
    mode sustainable when b1 and alpha = b1 - A b1 are strictly positive
    relative to max |b1|; such a b1 proves rho(A) < 1, so productivity needs
    no check. On success the simplex price vector and positive value-added
    margins of the constructive proof are attached.
    """
    x = _vector(x, "gross output")
    if x.shape[0] != t.n:
        raise ValueError("gross output length does not match sector count")
    if np.any(x <= 0.0):
        raise ValueError("gross output must be strictly positive")
    if not t.indecomposable:
        raise DecomposableError("sustainability test requires an indecomposable matrix")

    if t.lu is None:
        b1 = _singular_intermediate(t.a, x)
    else:
        from scipy.linalg.lapack import dgetrs
        b1 = dgetrs(*t.lu, x)[0]
    if b1 is None:
        return SustainabilityVerdict(False, None, None, None, None)
    image = t.a @ b1
    alpha = b1 - image
    if not _is_positive_certificate(b1, alpha):
        return SustainabilityVerdict(False, None, None, None, None)

    if np.any(image <= 0.0):
        raise HypothesisViolatedError("A b1 must be strictly positive for the price construction")
    prices = consumption_prices(t.a, b1, image, "certificate prices")
    margins = prices - t.a.T @ prices
    return SustainabilityVerdict(True, alpha, b1, prices, margins)


def _is_positive_certificate(b1: np.ndarray, alpha: np.ndarray) -> bool:
    """b1 > 0 and alpha = (E - A) b1 > 0, both relative to the largest |b1|."""
    top = float(np.max(np.abs(b1)))
    return bool(np.min(b1) > POSITIVE_TOL * top and np.min(alpha) > POSITIVE_TOL * top)


# relative residual of the clearing equation that counts as cleared
CLEARING_TOL = 1e-8


def clearing_terms(value, cost) -> np.ndarray:
    """Terms value_i / cost_i of the clearing equation sum_i a_ki value_i / cost_i = x_k.

    At prices p the value is x_i p_i and the cost the input cost <A_i, p>.
    A sector with zero value drops out of the sum; a nonzero value over a
    cost <= 0 raises HypothesisViolatedError.
    """
    live = value != 0.0
    vanishing = np.flatnonzero(live & (cost <= 0.0))
    if vanishing.size:
        raise HypothesisViolatedError(f"input cost of sector {vanishing[0]} vanishes at these prices")
    terms = np.zeros(value.shape[0])
    terms[live] = value[live] / cost[live]
    return terms


def consumption_prices(a: np.ndarray, z: np.ndarray, ell: np.ndarray, what: str) -> np.ndarray:
    """Simplex prices p_i = (z_i / ell_i) <A_i, p>, the fixed point of diag(w) A^T.

    ``w = z / ell`` on the support of z and zero elsewhere, so prices vanish
    off that support. ``core.perron_vector`` solves the fixed point and
    names ``what`` when it fails.
    """
    w = np.zeros(z.shape[0])
    supported = z > 0.0
    w[supported] = z[supported] / ell[supported]
    return perron_vector(w[:, None] * a.T, what)


def clearing_residual(t: Technology, x, p) -> np.ndarray:
    """Residual of sum_i a_ki x_i p_i / <A_i, p> = x_k at prices p.

    Sectors with x_i p_i = 0 drop out of the sum; a vanishing input cost
    under a nonzero term raises HypothesisViolatedError.
    """
    x = _vector(x, "gross output")
    p = _vector(p, "price vector")
    if x.shape[0] != t.n or p.shape[0] != t.n:
        raise ValueError("vector lengths must match the sector count")
    if np.any(p < 0.0) or not np.any(p > 0.0):
        raise ValueError("prices must be non-negative and nonzero")
    return t.a @ clearing_terms(x * p, t.a.T @ p) - x
