"""Fixed-point primitives: balanced weights, supply/demand factorization,
full market clearing, inequality-system solutions and support partitions.

``inequality_solution`` finds a symmetric equilibrium of the game
``M = A / b`` by Lemke-Howson complementary pivoting (Lemke & Howson, J. SIAM
12, 1964; von Stengel, Handbook of Game Theory 3, 2002): lexicographic ties,
``4 n`` pivots per dropped label, and one polishing solve on the support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    PIVOT_RTOL,
    POSITIVE_TOL,
    Technology,
    _matrix,
    _vector,
    is_indecomposable,
    perron_vector,
    positive_solution_family,
)
from .errors import (
    DecomposableError,
    HypothesisViolatedError,
    NoConvergenceError,
    NotInConeError,
    NotInteriorError,
    NumericalError,
)
from .qp import _nnls
from .sustainability import CLEARING_TOL, clearing_terms

BALANCE_RESIDUAL_TOL = 1e-10
FEASIBILITY_TOL = 1e-10      # A z <= b (1 + FEASIBILITY_TOL) at a polished complementary point


def balance_residual(b1: np.ndarray, d: np.ndarray) -> float:
    """Max residual of the weighted balance system sum_k b1_ki d_k = (sum_s b1_is) d_i."""
    return float(np.max(np.abs(b1.T @ d - b1.sum(axis=1) * d)))


def balanced_eigenvector(b1: Technology | np.ndarray) -> np.ndarray:
    """Strictly positive d with sum_k b1_ki d_k = (sum_s b1_is) d_i, sum d = 1.

    Row-normalizing ``b1`` turns the system into the stochastic fixed point
    ``E^T p = p`` with ``E = b1 / row_sums``, whose multiplier is one by
    construction; ``core.perron_vector`` solves it directly, and
    ``d = p / row_sums`` renormalized to sum one. A balance residual above
    ``BALANCE_RESIDUAL_TOL`` (times the largest entry, at least one) at that
    solution raises NumericalError.

    For a decomposable matrix the solution is not unique; the uniform vector
    is returned as the canonical representative when it solves the system,
    otherwise DecomposableError is raised.

    A ``Technology`` t stands for its balance matrix ``t.a.T``, and its
    cached ``indecomposable`` decides, since A^T has the strong components
    of A; an array is swept here.
    """
    t = b1 if isinstance(b1, Technology) else None
    b1 = _matrix(b1 if t is None else t.a.T, "balance matrix")
    l = b1.shape[0]
    if b1.shape[1] != l:
        raise ValueError("balance matrix must be square")
    if np.any(b1 < 0):
        raise ValueError("balance matrix must be non-negative")
    scale = max(1.0, float(np.max(b1)))
    row_sums = b1.sum(axis=1)
    if np.any(row_sums <= 0.0):
        raise DecomposableError("balance matrix has a zero row")
    if not (is_indecomposable(b1) if t is None else t.indecomposable) and l > 1:
        uniform = np.full(l, 1.0 / l)
        if balance_residual(b1, uniform) <= BALANCE_RESIDUAL_TOL * scale:
            return uniform
        raise DecomposableError("balance matrix is decomposable and has no canonical solution")

    p = perron_vector((b1 / row_sums[:, None]).T, "balanced weights")
    d = p / row_sums
    d /= d.sum()
    residual = balance_residual(b1, d)
    if residual > BALANCE_RESIDUAL_TOL * scale:
        raise NumericalError(
            f"balance residual {residual:.3e} above tolerance {BALANCE_RESIDUAL_TOL * scale:.3e} "
            "at the Perron solution"
        )
    return d


def supply_demand_factor(c, b) -> np.ndarray:
    """Non-negative B1 with B = C @ B1, column by column.

    Columns of ``b`` interior to the demand cone get the interior family
    representative at the coefficient centroid (hence strictly positive);
    boundary columns fall back to a non-negative least-squares fit.
    Raises NotInConeError naming the first column outside the cone, and
    SolverStallError when an NNLS fit hits its iteration cap.
    """
    c = _matrix(c, "demand matrix")
    b = _matrix(b, "supply matrix")
    if b.shape[0] != c.shape[0]:
        raise ValueError("supply and demand matrices must share their row dimension")
    l = c.shape[1]
    out = np.zeros((l, b.shape[1]))
    for j in range(b.shape[1]):
        col = b[:, j]
        scale = max(1.0, float(np.max(np.abs(col))))
        try:
            family = positive_solution_family(c, col)
            out[:, j] = family.combine(family.centroid_gamma())
            continue
        except NotInteriorError:
            pass
        coeffs, residual = _nnls(c, col, f"supply column {j}")
        if residual > 1e-9 * scale:
            raise NotInConeError(j)
        # a boundary column has exact zero coordinates; clear the NNLS dust
        coeffs[coeffs <= POSITIVE_TOL * scale] = 0.0
        out[:, j] = coeffs
    return out


@dataclass(frozen=True)
class ClearingOutcome:
    """Result of the full market-clearing test.

    ``price`` is a strictly positive vector on the simplex when clearing
    prices exist, else None with ``condition`` naming the failed test.
    """

    price: np.ndarray | None
    condition: str | None
    factor: np.ndarray | None = None
    weights: np.ndarray | None = None

    @property
    def cleared(self) -> bool:
        return self.price is not None


def clearing_equilibrium(c, b) -> ClearingOutcome:
    """Price vector clearing every market, if one exists.

    Factors B = C B1, solves the weighted balance system for the demand
    weights, and tests whether the weight vector lies in the cone spanned
    by the rows of C; the price vector is assembled from those cone
    coefficients (the interior family representative where the NNLS
    coefficients have zeros) and verified against the clearing equations.
    A price that is not strictly positive is reported as not cleared. An
    NNLS fit that hits its iteration cap raises SolverStallError.
    """
    c = _matrix(c, "demand matrix")
    b = _matrix(b, "supply matrix")
    if b.shape != c.shape:
        raise ValueError("clearing test needs matching demand and supply shapes")
    if np.any(c.sum(axis=0) <= 0.0):
        raise HypothesisViolatedError("a demand column has non-positive sum")
    if np.any(c.sum(axis=1) <= 0.0):
        raise HypothesisViolatedError("a demand row has non-positive sum")

    b1 = supply_demand_factor(c, b)
    try:
        d = balanced_eigenvector(b1)
    except DecomposableError:
        return ClearingOutcome(None, "factor matrix decomposable with no canonical balance solution", b1, None)

    scale = max(1.0, float(np.max(np.abs(d))))
    p, residual = _nnls(c.T, d, "clearing price weights")
    if residual > 1e-9 * scale:
        return ClearingOutcome(None, "balance weights outside the cone of demand rows", b1, d)
    # NNLS ends on a vertex of the solution set: clear its dust, and where
    # that leaves a zero price look for a strictly positive solution, which
    # exists when the weights are interior to the cone of some rows of C
    p[p <= POSITIVE_TOL * scale] = 0.0
    if np.any(p == 0.0):
        try:
            family = positive_solution_family(c.T, d)
            p = family.combine(family.centroid_gamma())
        except NotInteriorError:
            pass
    total = p.sum()
    if total <= 0.0:
        return ClearingOutcome(None, "assembled price vector is zero", b1, d)
    if np.any(p == 0.0):
        return ClearingOutcome(None, "assembled price vector is not strictly positive", b1, d)
    p = p / total

    denom = c.T @ p
    if np.any(denom <= 0.0):
        return ClearingOutcome(None, "a demand value <C_i, p> vanishes at the assembled prices", b1, d)
    lhs = c @ clearing_terms(b.T @ p, denom)
    rhs = b.sum(axis=1)
    if float(np.max(np.abs(lhs - rhs))) > CLEARING_TOL * max(1.0, float(np.max(np.abs(rhs)))):
        return ClearingOutcome(None, "clearing equations fail at the assembled prices", b1, d)
    return ClearingOutcome(p, None, b1, d)


# --- complementary pivoting -------------------------------------------------

def _lemke_howson(m: np.ndarray, label: int, budget: int) -> np.ndarray | None:
    """End basis (w_i is variable i, z_i is n + i) of the Lemke-Howson path on
    ``w + M z = 1`` that drops ``label``, or None past ``budget`` pivots or
    when no row is eligible. The w block of the tableau is the basis inverse.
    """
    n = m.shape[0]
    tab = np.hstack([np.eye(n), m, np.ones((n, 1))])
    basis = np.arange(n)
    entering = n + label
    for _ in range(budget):
        col = tab[:, entering]
        rows = np.flatnonzero(col > PIVOT_RTOL * np.max(np.abs(col)))
        if rows.size == 0:
            return None
        # minimum ratio; ties up to rounding go lexicographically on the w block
        for j in (2 * n, *range(n)):
            ratios = tab[rows, j] / col[rows]
            low = float(np.min(ratios))
            rows = rows[ratios <= low + 1e-12 * max(1.0, abs(low))]
            if rows.size == 1:
                break
        r = rows[0]
        pivot_row = tab[r] / col[r]
        tab -= np.outer(col, pivot_row)
        tab[r] = pivot_row
        leaving, basis[r] = basis[r], entering
        if leaving % n == label:
            return basis
        entering = (leaving + n) % (2 * n)
    return None


def inequality_solution(t: Technology, b) -> np.ndarray:
    """Non-negative z with A z <= b, a binding row, and z_k = 0 on every slack row.

    With ``M = A / b`` this is the complementarity problem ``w = 1 - M z >= 0``,
    ``z >= 0``, ``z^T w = 0``, ``z != 0``, solved by Lemke-Howson pivoting from
    label 0: minimum ratio among entries above ``PIVOT_RTOL`` of the column's
    largest, ties broken lexicographically, ``4 n`` pivots before the next
    label. On the basic z set S one solve of ``M[S, S] z_S = 1`` polishes z;
    a point failing ``z >= 0`` or ``M z <= 1 + FEASIBILITY_TOL`` moves on to
    the next label. NoConvergenceError names the budget when no label is left.
    """
    b = _vector(b, "supply vector")
    if b.shape[0] != t.n:
        raise ValueError("supply vector length does not match sector count")
    if np.any(b <= 0.0):
        raise ValueError("supply vector must be strictly positive")
    if not t.indecomposable:
        raise DecomposableError("inequality solution requires an indecomposable matrix")

    n = t.n
    m = t.a / b[:, None]
    budget = 4 * n
    for label in range(n):
        basis = _lemke_howson(m, label, budget)
        if basis is None:
            continue
        s = basis[basis >= n] - n
        try:
            z_s = np.linalg.solve(m[np.ix_(s, s)], np.ones(s.size))
        except np.linalg.LinAlgError:
            continue
        z = np.zeros(n)
        z[s] = z_s
        if s.size and np.all(z_s >= 0.0) and np.all(m @ z <= 1.0 + FEASIBILITY_TOL):
            return z
    raise NoConvergenceError(f"Lemke-Howson pivoting verified no solution from any of the "
                             f"{n} labels within {budget} pivots each")


@dataclass(frozen=True)
class SupportPartition:
    """Scaled solution with its binding/slack row partition (0-based sets)."""

    scale: float
    binding: tuple[int, ...]
    slack: tuple[int, ...]
    z: np.ndarray


def support_partition(t: Technology, b, y) -> SupportPartition:
    """Scale y so that A (a y) touches b: a = min_i b_i / (A y)_i.

    The argmin rows are binding, all others strictly slack; the partition
    is invariant under positive rescaling of y.
    """
    b = _vector(b, "supply vector")
    y = _vector(y, "direction vector")
    if b.shape[0] != t.n or y.shape[0] != t.n:
        raise ValueError("vector lengths must match the sector count")
    if np.any(b <= 0.0):
        raise ValueError("supply vector must be strictly positive")
    if np.any(y < 0.0):
        raise ValueError("direction vector must be non-negative")
    image = t.a @ y
    if not np.any(image > 0.0):
        raise HypothesisViolatedError("A @ y vanishes; no scale exists")
    ratios = np.where(image > 0.0, b / np.where(image > 0.0, image, 1.0), np.inf)
    a = float(np.min(ratios))
    binding = ratios <= a * (1.0 + 1e-12)
    return SupportPartition(scale=a, binding=tuple(np.flatnonzero(binding).tolist()),
                            slack=tuple(np.flatnonzero(~binding).tolist()), z=a * y)
