"""Active-set solver for the minimum-excess quadratic program

    min ||A z - b||^2   subject to   z >= 0,  A z <= b.

``solve_min_excess`` takes A as a ``core.Technology`` or as an array. When
A is square and ``core.nonsingular_lu`` factors it (no zero pivot and a
reciprocal condition number, LAPACK gecon, above PIVOT_RTOL), the
substitution u = A z - b turns the program into the least-distance program
min ||u|| subject to G u >= h, with G = [A^-1; -I] and h = [-A^-1 b; 0]
(Lawson and Hanson, Solving Least Squares Problems, 1974, ch. 23). One
NNLS fit of e_{n+1} by the columns of [G^T; h^T] solves it, and its
positive coefficients name the optimal working set: coefficient i < n a
bound z_i = 0, coefficient n + k a binding supply row k. A ``Technology``
supplies the factors of A from its cached ``lu``, so a command that has
already decided whether A is singular does not factor it again; an array
is factored here. The start names only that working set: A^-1 amplifies
the rounding of u, so the loop's first pass builds z on it (below).

A singular square A takes the same start from the shifted matrix
A + SHIFT max|A| E: the NNLS and its working set come from the shifted
factors, while z, its feasibility test and the certificate stay on A
itself. The shifted working set is only a guess, so a wrong one costs
iterations, not correctness. When no start survives (A is not square, or
the shifted matrix fails the LU test too) or the first pass rejects the
guess, the loop starts at z = 0 with every bound in the working set.

Each pass factors the working supply rows on the free variables once, by
one Householder QR: it gives the null-space basis and the Lagrange
multipliers by a triangular solve (Gill and Murray; Goldfarb and Idnani,
Math. Programming 27, 1983). On a guessed working set the first pass puts
z at the particular solution Q1 R^-T b_R of the binding rows plus the
least-squares step in their null space, and rejects the guess when those
rows are dependent or that z is infeasible. Later passes step from z in
the null space; a constraint that blocks the step joins the working set
and ends the pass. The least-squares step is LAPACK's gelsy (complete
orthogonal factorization), minimum-norm on a singular reduced matrix. An
unblocked or zero step leaves z at the working set's minimizer, and the
same pass reads the multipliers off the same QR: it drops the most
negative, or certifies.

Where no multiplier is negative beyond the tolerance, the certificate is
the residual ||g - N max(multipliers, 0)|| of the gradient g against the
working constraint normals N = [e_i (bounds), -a_k (rows)]. So a solve on
a square A makes one NNLS call at most, the least-distance fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PIVOT_RTOL, Technology, nonsingular_lu
from .errors import SolverStallError

KKT_TOL = 1e-10
STEP_TOL = 1e-13
# relative diagonal shift that makes a singular A pass the LU test: on rank
# n-1 tables 1e-8 left 1 of 10 shifted matrices rejected, and 1e-10 left 5
SHIFT = 1e-6


@dataclass(frozen=True)
class QPResult:
    z: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    binding_rows: tuple[int, ...]
    start: str               # "ldp", "shifted" or "zero": the point the loop started from


def nnls(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """scipy's NNLS capped at 50 iterations per column, imported on first call
    so that importing the package loads no scipy."""
    from scipy.optimize import nnls as scipy_nnls

    return scipy_nnls(matrix, rhs, maxiter=50 * matrix.shape[1])


def _nnls(matrix: np.ndarray, rhs: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """scipy's NNLS, with its iteration-cap RuntimeError typed as a stall."""
    try:
        return nnls(matrix, rhs)
    except RuntimeError as exc:
        raise SolverStallError(f"NNLS for the {what} failed: {exc}") from exc


def _nearest(limits: np.ndarray, alpha: float) -> int | None:
    """Index of the smallest step limit, or None when none is below ``alpha - 1e-15``.

    Ties go to the lowest index.
    """
    if not np.any(limits < alpha - 1e-15):
        return None
    return int(np.argmin(limits))


def _null_space_step(a_free: np.ndarray, null_basis: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Step Q2 v with v minimizing ||A_F Q2 v - residual||, Q2 = ``null_basis``.

    gelsy returns the minimum-norm v when A_F Q2 is singular.
    """
    from scipy.linalg import lstsq

    if null_basis.shape[1] == 0:
        return np.zeros(null_basis.shape[0])
    reduced = a_free @ null_basis
    v = lstsq(reduced, residual, cond=np.finfo(float).eps * max(reduced.shape),
              lapack_driver="gelsy")[0]
    return null_basis @ v


def _least_distance_start(a: np.ndarray, b: np.ndarray,
                          factors: tuple[np.ndarray, np.ndarray] | None
                          ) -> tuple[np.ndarray, np.ndarray, str] | None:
    """(bounds, binding rows, start) of the least-distance optimum, or None.

    ``factors`` is ``core.nonsingular_lu(A)``, or None when A is singular or
    not square. The start is "ldp" on those factors and "shifted" when
    ``core.nonsingular_lu`` factors A + SHIFT max|A| E instead. None when A
    is not square, when both factorizations are rejected, or when more rows
    bind than variables are free.
    """
    from scipy.linalg.lapack import dgetri

    n = b.shape[0]
    if a.shape != (n, n):
        return None
    start = "ldp"
    if factors is None:
        factors, start = nonsingular_lu(a + SHIFT * np.max(np.abs(a)) * np.eye(n)), "shifted"
    if factors is None:
        return None
    inverse, _ = dgetri(*factors)
    # columns of [G^T; h^T] with u = A z - b: z >= 0 reads A^-1 u >= -A^-1 b,
    # A z <= b reads -u >= 0
    ldp = np.zeros((n + 1, 2 * n))
    ldp[:n, :n] = inverse.T
    ldp[:n, n:] = -np.eye(n)
    ldp[n, :n] = -(inverse @ b)
    target = np.zeros(n + 1)
    target[n] = 1.0
    coefficients, _ = _nnls(ldp, target, "least-distance start")
    bound, binding = coefficients[:n] > 0.0, coefficients[n:] > 0.0
    if np.count_nonzero(binding) > n - np.count_nonzero(bound):
        return None
    return bound, binding, start


def _kkt_residual(a: np.ndarray, gradient: np.ndarray, fixed: np.ndarray, rows: np.ndarray,
                  multipliers: np.ndarray) -> float:
    """||g - N max(multipliers, 0)|| for the working normals N = [e_i (bounds), -a_k (rows)]."""
    clamped = np.maximum(multipliers, 0.0)
    residual = gradient + a[rows].T @ clamped[fixed.size:]
    residual[fixed] -= clamped[:fixed.size]
    return float(np.linalg.norm(residual))


def solve_min_excess(a: Technology | np.ndarray, b: np.ndarray) -> QPResult:
    """Solve the bounded least-squares program from the least-distance working set.

    The start (module docstring) names a working set, the least-distance
    bounds and binding rows, or every bound at z = 0. Each pass factors the
    working supply rows on the free variables once, A[rows, F]^T = Q R: the
    trailing columns of Q span the null space z steps in, and the row
    multipliers come from R. A pass that leaves z at the working set's
    minimizer drops the most negative multiplier or, where none is
    negative, certifies z with the same multipliers. Raises
    SolverStallError when the iteration cap of 100 (n + m + 2) is hit, when
    the certificate fails (a degenerate working set that cannot be
    improved) or when the NNLS solve hits its own cap.

    A ``Technology`` supplies the factors of A from its cached ``lu``; an
    array, which may be rectangular, is factored here when it is square.
    """
    from scipy.linalg import solve_triangular

    if isinstance(a, Technology):
        a, factors = a.a, a.lu
    else:
        factors = nonsingular_lu(a) if a.shape[0] == a.shape[1] else None
    n, mvar = a.shape
    max_iter = 100 * (n + mvar + 2)
    scale = max(1.0, float(np.max(np.abs(b))))
    # working bounds z_i = 0, rows (A z)_k = b_k
    bound, binding, start = _least_distance_start(a, b, factors) or (
        np.ones(mvar, dtype=bool), np.zeros(n, dtype=bool), "zero")
    z = np.zeros(mvar)

    for it in range(max_iter):
        free = np.flatnonzero(~bound)
        rows = np.flatnonzero(binding)
        a_free = a[:, free]
        # the working normals stay linearly independent (a guess is tested,
        # and each later one enters through the ratio test, off the span of
        # the others), so R is nonsingular and Q's last columns span the null space
        q, r = np.linalg.qr(a_free[rows].T, mode="complete")
        direction = np.zeros(mvar)
        if it == 0 and start != "zero":
            # z on the guessed working set (module docstring); a rejected
            # guess restarts at z = 0 with every bound, and dust is zeroed
            pivots = np.abs(np.diag(r))
            feasible = not (rows.size and np.min(pivots) <= PIVOT_RTOL * np.max(pivots))
            if feasible:
                z[free] = q[:, :rows.size] @ solve_triangular(r[:rows.size], b[rows], trans="T")
                z[free] += _null_space_step(a_free, q[:, rows.size:], b - a_free @ z[free])
                feasible = not (np.min(z) < -STEP_TOL * scale or np.max(a @ z - b) > STEP_TOL * scale)
            if not feasible:
                z[:], bound[:], binding[:], start = 0.0, True, False, "zero"
                continue
            z[z < 0.0] = 0.0
        else:
            direction[free] = _null_space_step(a_free, q[:, rows.size:], b - a_free @ z[free])

        if np.max(np.abs(direction)) > STEP_TOL * scale:
            # ratio test to the nearest blocking constraint: bounds first, and
            # a row blocks only when it is nearer by more than 1e-15
            alpha = 1.0
            blocking: tuple[np.ndarray, int] | None = None   # (working-set mask, index)
            falling = np.flatnonzero(direction < -1e-15)
            limits = z[falling] / -direction[falling]
            j = _nearest(limits, alpha)
            if j is not None:
                alpha, blocking = limits[j], (bound, int(falling[j]))
            image_step = a @ direction
            rising = np.flatnonzero((image_step > 1e-15) & ~binding)
            limits = (b[rising] - (a @ z)[rising]) / image_step[rising]
            j = _nearest(limits, alpha)
            if j is not None:
                alpha, blocking = limits[j], (binding, int(rising[j]))
            z = z + max(alpha, 0.0) * direction
            z[z < 0.0] = 0.0
            if blocking is not None:
                mask, idx = blocking
                mask[idx] = True
                z[bound] = 0.0          # a blocking bound lands on exact zero
                continue

        # z is the working set's minimizer: certify it or drop a constraint
        gradient = 2.0 * a.T @ (a @ z - b)
        fixed = np.flatnonzero(bound)
        if fixed.size == 0 and rows.size == 0:
            kkt_residual = float(np.linalg.norm(gradient))
            if kkt_residual <= KKT_TOL * scale:
                break
            raise SolverStallError("zero gradient expected with empty working set")
        # g = sum_i mu_i e_i - sum_k lambda_k a_k: on the free variables
        # g_F = -Q1 R lambda, on the bounds mu = g_fixed + A[rows, fixed]^T lambda
        lam = solve_triangular(r[:rows.size], -(q[:, :rows.size].T @ gradient[free]))
        multipliers = np.concatenate([gradient[fixed] + a[np.ix_(rows, fixed)].T @ lam, lam])
        tol = KKT_TOL * max(1.0, float(np.linalg.norm(gradient)))
        worst = int(np.argmin(multipliers))
        if multipliers[worst] < -tol:
            if worst < fixed.size:
                bound[fixed[worst]] = False
            else:
                binding[rows[worst - fixed.size]] = False
            continue
        kkt_residual = _kkt_residual(a, gradient, fixed, rows, multipliers)
        if kkt_residual <= tol:
            break
        raise SolverStallError("degenerate working set: no droppable constraint")
    else:
        raise SolverStallError(f"active-set iteration cap {max_iter} reached")

    objective = float(np.sum((b - a @ z) ** 2))
    return QPResult(
        z=z,
        objective=objective,
        kkt_residual=float(kkt_residual),
        iterations=it + 1,
        binding_rows=tuple(np.flatnonzero(binding).tolist()),
        start=start,
    )
