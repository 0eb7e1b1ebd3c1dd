"""Fixed-point primitives: balanced weights, supply/demand factorization,
full market clearing, inequality-system solutions and support partitions.

The regularized simplex map at the heart of ``inequality_solution`` is
solved by continuation: the map contracts strongly for large regularization,
and the fixed point is tracked down the documented schedule with a Newton
corrector, restarting from a damped sweep whenever the branch folds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FIXED_POINT_TOL,
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
    DegenerateQuadraticFormError,
    HypothesisViolatedError,
    NoConvergenceError,
    NotInConeError,
    NotInteriorError,
    NumericalError,
    ZeroImageError,
)
from .qp import _nnls

BALANCE_RESIDUAL_TOL = 1e-10
EPS_SCHEDULE = tuple(10.0 ** (-k) for k in range(1, 9))


def balance_residual(b1: np.ndarray, d: np.ndarray) -> float:
    """Max residual of the weighted balance system sum_k b1_ki d_k = (sum_s b1_is) d_i."""
    return float(np.max(np.abs(b1.T @ d - b1.sum(axis=1) * d)))


def balanced_eigenvector(b1) -> np.ndarray:
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
    """
    b1 = _matrix(b1, "balance matrix")
    l = b1.shape[0]
    if b1.shape[1] != l:
        raise ValueError("balance matrix must be square")
    if np.any(b1 < 0):
        raise ValueError("balance matrix must be non-negative")
    scale = max(1.0, float(np.max(b1)))
    row_sums = b1.sum(axis=1)
    if not is_indecomposable(b1) and l > 1:
        uniform = np.full(l, 1.0 / l)
        if np.any(row_sums <= 0.0):
            raise DecomposableError("balance matrix has a zero row")
        if balance_residual(b1, uniform) <= BALANCE_RESIDUAL_TOL * scale:
            return uniform
        raise DecomposableError("balance matrix is decomposable and has no canonical solution")
    if np.any(row_sums <= 0.0):
        raise DecomposableError("balance matrix has a zero row")

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
    lhs = c @ ((b.T @ p) / denom)
    rhs = b.sum(axis=1)
    if float(np.max(np.abs(lhs - rhs))) > 1e-8 * max(1.0, float(np.max(np.abs(rhs)))):
        return ClearingOutcome(None, "clearing equations fail at the assembled prices", b1, d)
    return ClearingOutcome(p, None, b1, d)


# --- regularized simplex fixed point ---------------------------------------

def _fp_residual(m: np.ndarray, eps: float, y: np.ndarray) -> np.ndarray:
    my = m @ y
    return y * (my - y @ my - m.shape[0] * eps) + eps


def _fp_damped(m: np.ndarray, eps: float, y: np.ndarray, budget: int) -> tuple[np.ndarray, int]:
    n = m.shape[0]
    for it in range(budget):
        my = m @ y
        q = y @ my
        phi = (y + y * my + eps) / (1.0 + q + n * eps)
        y_new = 0.5 * (y + phi)
        if np.max(np.abs(y_new - y)) < FIXED_POINT_TOL:
            return y_new, it + 1
        y = y_new
    return y, budget


def _fp_newton(m: np.ndarray, eps: float, y0: np.ndarray, iters: int = 60) -> np.ndarray | None:
    n = m.shape[0]
    y = y0.copy()
    for _ in range(iters):
        r = _fp_residual(m, eps, y)
        rn = float(np.linalg.norm(r))
        if rn < 1e-14 * max(1.0, n):
            return y
        my = m @ y
        q = y @ my
        dq = (m + m.T) @ y
        jac = np.diag(my - q - n * eps) + y[:, None] * (m - dq[None, :])
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        neg = (step < 0) & (y > 0)
        if np.any(neg):
            t = min(1.0, 0.95 * float(np.min(y[neg] / -step[neg])))
        for _bt in range(50):
            y_new = np.maximum(y + t * step, 0.0)
            if np.linalg.norm(_fp_residual(m, eps, y_new)) <= (1.0 - 1e-4 * t) * rn:
                y = y_new
                break
            t *= 0.5
        else:
            return None
    return y if np.linalg.norm(_fp_residual(m, eps, y)) < 1e-12 else None


def _fp_solve_at(m: np.ndarray, eps: float, warm: np.ndarray) -> np.ndarray | None:
    y = _fp_newton(m, eps, warm)
    if y is not None:
        return y
    n = m.shape[0]
    y, _ = _fp_damped(m, eps, np.full(n, 1.0 / n), 200_000)
    return _fp_newton(m, eps, y)


def regularized_fixed_points(m: np.ndarray) -> dict[float, np.ndarray]:
    """Fixed points of the regularized simplex map along the schedule.

    Walks the regularization from 1 down through the schedule with Newton
    correction; a fold in the branch triggers a fresh damped start at the
    stalled value. The returned map also holds the extrapolated limit under
    key 0.0.
    """
    n = m.shape[0]
    y = np.full(n, 1.0 / n)
    eps = 1.0
    y, _ = _fp_damped(m, eps, y, 20_000)
    y = _fp_newton(m, eps, y)
    if y is None:
        raise NoConvergenceError("regularized map failed to converge at the starting value")
    out: dict[float, np.ndarray] = {}
    for target in EPS_SCHEDULE:
        while eps > target * (1.0 + 1e-9):
            trial = max(target, eps * 0.1)
            y_trial = _fp_newton(m, trial, y)
            fac = 0.5
            while y_trial is None and fac <= 0.995:
                trial = max(target, eps * fac)
                y_trial = _fp_newton(m, trial, y)
                fac += (1.0 - fac) * 0.5
            if y_trial is None:
                y_trial = _fp_solve_at(m, trial, y)
                if y_trial is None:
                    raise NoConvergenceError(f"fixed-point continuation stalled near eps={trial:.3e}")
            eps, y = trial, y_trial
        out[target] = y.copy()
    small = EPS_SCHEDULE[-1]
    while small > 1e-13:
        small *= 0.01
        y_trial = _fp_newton(m, small, y)
        if y_trial is None:
            break
        y = y_trial
    y_limit = _fp_newton(m, 0.0, y)
    out[0.0] = y_limit if y_limit is not None else y
    return out


def inequality_solution(t: Technology, b) -> np.ndarray:
    """Non-negative z with A z <= b and a non-empty binding row set.

    Built from the limit of the regularized simplex fixed points: the limit
    point y0 is rescaled by the quadratic form Q(y0) = sum y_k a_ki y_i / b_k,
    which makes the rows carrying positive y0 mass exactly binding.
    """
    b = _vector(b, "supply vector")
    if b.shape[0] != t.n:
        raise ValueError("supply vector length does not match sector count")
    if np.any(b <= 0.0):
        raise ValueError("supply vector must be strictly positive")
    if not is_indecomposable(t):
        raise DecomposableError("inequality solution requires an indecomposable matrix")

    m = t.a / b[:, None]
    points = regularized_fixed_points(m)
    y0 = points[0.0]
    q = float(y0 @ (m @ y0))
    if q <= 1e-14:
        raise DegenerateQuadraticFormError("normalizing quadratic form vanishes at the limit")
    return y0 / q


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
        raise ZeroImageError("A @ y vanishes; no scale exists")
    ratios = np.where(image > 0.0, b / np.where(image > 0.0, image, 1.0), np.inf)
    a = float(np.min(ratios))
    binding = tuple(int(i) for i in np.flatnonzero(ratios <= a * (1.0 + 1e-12)))
    slack = tuple(i for i in range(t.n) if i not in binding)
    return SupportPartition(scale=a, binding=binding, slack=slack, z=a * y)
