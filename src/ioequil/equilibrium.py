"""Equilibrium states with excess supply.

Covers the simplex parametrization of every solution of the binding/slack
system, the minimum-excess quadratic program, price construction for full
and partial clearing, and the excess-supply level R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qp
from .balance import support_partition
from .core import POSITIVE_TOL, Technology, _positive_vector, _vector, is_indecomposable
from .errors import (
    DecomposableMinorError,
    HypothesisViolatedError,
    ModelError,
    NumericalError,
    PipelineError,
    SupportViolationError,
    ZeroColumnError,
)
from .sustainability import CLEARING_TOL, clearing_terms, consumption_prices

BINDING_TOL = 1e-8          # |b_i - (A z)_i| <= BINDING_TOL * max(1, b_i)


@dataclass(frozen=True)
class AlphaPoint:
    """Simplex point with its induced scaled solution z = a(alpha) * alpha * d."""

    alpha: np.ndarray
    scale: float
    z: np.ndarray


@dataclass(frozen=True)
class EquilibriumState:
    """Fully described equilibrium with excess supply.

    ``mode`` records how prices were built: "support" for the binding-set
    fixed point (prices vanish on slack rows, generalized prices carry input
    costs there), "generalized" for the real-consumption fixed point used
    when the quadratic-programming solution is not supported on its binding
    rows (prices need not vanish on slack rows in that case).
    """

    z: np.ndarray
    binding: tuple[int, ...]
    slack: tuple[int, ...]
    p: np.ndarray
    b_bar: np.ndarray
    p_u: np.ndarray
    excess_level: float
    mode: str


def min_ratios(t: Technology, b) -> np.ndarray:
    """d_i = min over rows k with a_ki > 0 of b_k / a_ki."""
    b = _positive_vector(b, t.n, "supply vector")
    positive = t.a > 0.0
    zero = np.flatnonzero(~positive.any(axis=0))
    if zero.size:
        raise ZeroColumnError(f"column {zero[0]} of the direct-cost matrix is zero")
    return np.divide(b[:, None], t.a, out=np.full(t.a.shape, np.inf), where=positive).min(axis=0)


def solution_from_alpha(t: Technology, b, alpha) -> AlphaPoint:
    """Scaled solution induced by a simplex point.

    The scale a(alpha) = min_k b_k / [A (alpha * d)]_k is at least one and
    the induced z satisfies A z <= b with equality on the argmin rows.
    """
    b = _vector(b, "supply vector")
    alpha = _vector(alpha, "simplex point")
    if alpha.shape[0] != t.n:
        raise ValueError("simplex point length does not match sector count")
    if np.any(alpha < -1e-12) or abs(float(np.sum(alpha)) - 1.0) > 1e-9:
        raise ValueError("alpha must be non-negative and sum to one")
    alpha = np.maximum(alpha, 0.0)
    part = support_partition(t, b, alpha * min_ratios(t, b))
    return AlphaPoint(alpha=alpha, scale=part.scale, z=part.z)


def alpha_objective(t: Technology, b, alpha) -> float:
    """Squared unsold-supply objective at the solution induced by alpha."""
    point = solution_from_alpha(t, b, alpha)
    residual = _vector(b) - t.a @ point.z
    return float(np.sum(residual ** 2))


def min_excess_qp(t: Technology, b) -> np.ndarray:
    """Solution of min ||b - A z||^2 over {z >= 0, A z <= b}.

    The active-set result is verified feasible and KKT-certified before
    being returned.
    """
    b = _positive_vector(b, t.n, "supply vector")
    t.require_indecomposable("minimum-excess program")
    result = qp.solve_min_excess(t, b)
    z = result.z
    if np.min(z) < -1e-12 or float(np.max(t.a @ z - b)) > 1e-9 * max(1.0, float(np.max(b))):
        raise NumericalError("active-set result violates feasibility")
    return z


def binding_rows(t: Technology, b, z) -> tuple[int, ...]:
    """Rows where A z meets b within the documented tolerance."""
    b = _vector(b)
    image = t.a @ _vector(z)
    binding = np.abs(b - image) <= BINDING_TOL * np.maximum(1.0, np.abs(b))
    return tuple(int(i) for i in np.flatnonzero(binding))


def _split(n: int, binding) -> tuple[list[int], list[int]]:
    """The binding rows and the other rows of ``range(n)``, both ascending."""
    mask = np.zeros(n, dtype=bool)
    mask[list(binding)] = True
    return np.flatnonzero(mask).tolist(), np.flatnonzero(~mask).tolist()


def _support_violation(t: Technology, b: np.ndarray, z: np.ndarray,
                       idx: list[int], rest: list[int]) -> str | None:
    """Why z restricted to the binding set cannot carry support prices, or None.

    The restriction must solve the binding equations on ``idx``, stay
    strictly slack on ``rest`` and be strictly positive on ``idx``.
    """
    scale = np.maximum(1.0, np.abs(b))
    z_masked = np.zeros(t.n)
    z_masked[idx] = z[idx]
    image = t.a @ z_masked
    if np.any(np.abs(image[idx] - b[idx]) > BINDING_TOL * scale[idx]):
        return "z does not solve the binding equations on the binding set"
    if rest and np.any(image[rest] >= b[rest]):
        return "z is not strictly slack outside the binding set"
    if np.any(z[idx] <= POSITIVE_TOL * max(1.0, float(np.max(z)))):
        return "z must be strictly positive on the binding set"
    return None


def prices_on_support(t: Technology, b, z, binding) -> np.ndarray:
    """Equilibrium prices supported on the binding rows.

    ``z`` must solve the binding system restricted to the binding index set
    (strictly positive there, slack elsewhere); prices are the Perron vector
    (multiplier one) of the weighted map on the binding block, extended by
    zero. A z that fails the support conditions raises SupportViolationError
    and, after it, a decomposable binding minor raises
    DecomposableMinorError: these two decide whether the support branch of
    ``assemble_equilibrium`` applies.
    """
    b = _vector(b, "supply vector")
    z = _vector(z, "solution vector")
    idx = [int(i) for i in binding]
    if not idx:
        raise HypothesisViolatedError("binding set is empty")
    if any(i < 0 or i >= t.n for i in idx):
        raise ValueError("binding set contains out-of-range indices")
    idx, rest = _split(t.n, idx)
    # the support conditions before the minor: an optimum that fails them,
    # as most optima that take the generalized branch do, needs no sweep
    reason = _support_violation(t, b, z, idx, rest)
    if reason is not None:
        raise SupportViolationError(reason)
    minor = t.a[np.ix_(idx, idx)]
    if not is_indecomposable(minor):
        raise DecomposableMinorError("binding-set minor is decomposable")

    p = np.zeros(t.n)
    p[idx] = consumption_prices(minor, z[idx], b[idx], "support prices")
    return p


def prices_from_consumption(t: Technology, z) -> np.ndarray:
    """Prices clearing the real-consumption vector b_bar = A z.

    Existence is guaranteed for a strictly positive matrix (or a positive
    indecomposable matrix with strictly positive z); the construction is
    attempted for any non-negative data and verified a posteriori.
    """
    z = _vector(z, "consumption weights")
    if z.shape[0] != t.n:
        raise ValueError("vector length does not match sector count")
    if np.any(z < 0.0) or not np.any(z > 0.0):
        raise HypothesisViolatedError("z must be non-negative and nonzero")
    b_bar = t.a @ z
    supported = z > 0.0
    if np.any(b_bar[supported] <= 0.0):
        raise HypothesisViolatedError("real consumption vanishes on a supported sector")
    p = consumption_prices(t.a, z, b_bar, "consumption prices")
    # reconstruction and clearing checks on one terms vector; |p_i - w_i (A^T p)_i|
    # <= MULTIPLIER_TOL max p, so a vanishing input cost (A^T p)_i fails the price test
    vanishing = np.flatnonzero(supported & (p <= POSITIVE_TOL * np.max(p)))
    if vanishing.size:
        raise HypothesisViolatedError(f"price vanishes on supported sector {vanishing[0]}")
    terms = clearing_terms(b_bar * p, t.a.T @ p)
    if float(np.max(np.abs(terms - z))) > CLEARING_TOL * max(1.0, float(np.max(np.abs(z)))):
        raise NumericalError("price reconstruction of z failed beyond tolerance")
    residual = t.a @ terms - b_bar
    if float(np.max(np.abs(residual))) > CLEARING_TOL * max(1.0, float(np.max(np.abs(b_bar)))):
        raise NumericalError("consumption clearing equations fail at the fixed point")
    return p


def no_equilibrium_certificate(t: Technology, b, z, binding, slack) -> bool:
    """True when this z admits no corresponding equilibrium prices.

    A solution carrying positive weight on a slack row cannot be reproduced
    from any price vector on the simplex, so markets cannot clear around it.
    """
    b = _vector(b, "supply vector")
    z = _vector(z, "solution vector")
    idx = sorted(int(i) for i in binding)
    rest = sorted(int(j) for j in slack)
    image = t.a @ z
    scale = np.maximum(1.0, np.abs(b))
    if np.any(np.abs(image[idx] - b[idx]) > BINDING_TOL * scale[idx]):
        raise HypothesisViolatedError("z does not bind on the stated binding set")
    if rest and np.any(image[rest] >= b[rest]):
        raise HypothesisViolatedError("z is not strictly slack on the stated slack set")
    if not rest:
        return False
    threshold = POSITIVE_TOL * max(1.0, float(np.max(np.abs(z))))
    return bool(np.any(z[rest] > threshold))


def excess_supply(b, b_bar, p_u) -> float:
    """Value share of unsold supply: R = <b - b_bar, p_u> / <b, p_u>."""
    b = _vector(b, "supply vector")
    b_bar = _vector(b_bar, "real consumption vector")
    p_u = _vector(p_u, "price vector")
    if np.any(p_u < 0.0):
        raise ValueError("prices must be non-negative")
    if np.any(b_bar > b + 1e-9 * np.maximum(1.0, np.abs(b))):
        raise ValueError("real consumption exceeds supply")
    total = float(b @ p_u)
    if total <= 0.0:
        raise HypothesisViolatedError("the value of supply <b, p_u> vanishes")
    level = float((b - b_bar) @ p_u) / total
    return max(level, 0.0)


def assemble_equilibrium(t: Technology, b) -> EquilibriumState:
    """Minimum-excess equilibrium state for supply b.

    Runs the quadratic program, derives the binding set, builds prices on
    the binding support when ``prices_on_support`` accepts the optimum
    (falling back to the real-consumption fixed point when it finds the
    binding minor decomposable or the support conditions violated), fills
    generalized prices with input costs on slack rows, and evaluates the
    excess-supply level. The real consumption b_bar is A z on slack rows
    and exactly b on binding rows.
    """
    b = _vector(b, "supply vector")
    try:
        z0 = min_excess_qp(t, b)
    except ModelError as exc:
        raise PipelineError("min-excess-qp", exc) from exc

    idx, rest = _split(t.n, binding_rows(t, b, z0))
    if not idx:
        raise PipelineError(
            "binding-set", HypothesisViolatedError("no binding rows at the program optimum")
        )

    try:
        p = prices_on_support(t, b, z0, idx)
    except (DecomposableMinorError, SupportViolationError):
        p = None
    except ModelError as exc:
        raise PipelineError("prices-on-support", exc) from exc
    if p is not None:
        z_used = np.zeros(t.n)
        z_used[idx] = z0[idx]
        p_u = p.copy()
        cost = t.a[np.ix_(idx, rest)].T @ p[idx]
        p_u[rest] = np.where(cost > 0.0, cost, 1.0)
        mode = "support"
    else:
        z_used = z0
        try:
            p = prices_from_consumption(t, z0)
        except ModelError as exc:
            raise PipelineError("prices-from-consumption", exc) from exc
        p_u = p
        mode = "generalized"

    # binding markets clear by definition: report their supply, not the rounding of A z
    b_bar = t.a @ z_used
    b_bar[idx] = b[idx]
    try:
        level = excess_supply(b, np.minimum(b_bar, b), p_u)
    except ModelError as exc:
        raise PipelineError("excess-supply", exc) from exc
    return EquilibriumState(
        z=z_used,
        binding=tuple(idx),
        slack=tuple(rest),
        p=p,
        b_bar=b_bar,
        p_u=p_u,
        excess_level=level,
        mode=mode,
    )
