"""Primal active-set solver for the minimum-excess quadratic program

    min ||A z - b||^2   subject to   z >= 0,  A z <= b.

The equality-constrained subproblems are solved by a null-space method,
which stays well-posed when A^T A is singular. One Householder QR of the
working supply rows on the free variables gives both the null-space basis
and, at a stationary point, the Lagrange multipliers by a triangular solve
(Gill and Murray; Goldfarb and Idnani, Math. Programming 27, 1983). The
least-squares step in that null space is LAPACK's complete orthogonal
factorization (gelsy), which returns the minimum-norm step on a singular
reduced matrix. Optimality is certified once, at the exit, by a
non-negative least-squares fit of the gradient to the working constraint
normals, in the spirit of the Lawson-Hanson NNLS multiplier test.

The iteration starts from the NNLS point y of min ||A y - b|| over y >= 0,
scaled back into the feasible set: z = s y with s = min_k b_k / (A y)_k
over the rows where A y is positive. Only the zero bounds of z start in the
working set; a supply row the start touches enters through the ratio test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverStallError

KKT_TOL = 1e-10
STEP_TOL = 1e-13


@dataclass(frozen=True)
class QPResult:
    z: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    binding_rows: tuple[int, ...]


def nnls(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """scipy's NNLS, imported on first call so that importing the package loads no scipy."""
    from scipy.optimize import nnls as scipy_nnls

    return scipy_nnls(matrix, rhs)


def _nnls(matrix: np.ndarray, rhs: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """scipy's NNLS, with its iteration-cap RuntimeError typed as a stall."""
    try:
        return nnls(matrix, rhs)
    except RuntimeError as exc:
        raise SolverStallError(f"NNLS for the {what} failed: {exc}") from exc


def _nearest(limits: np.ndarray, alpha: float) -> int | None:
    """Index the scan ``if limit < alpha - 1e-15: alpha = limit`` ends on, or None.

    That is the first limit below ``alpha - 1e-15`` within 1e-15 of the
    smallest one, unless those limits form a chain of near-ties.
    """
    below = np.flatnonzero(limits < alpha - 1e-15)
    if below.size == 0:
        return None
    near = limits[below] <= np.min(limits[below]) + 1e-15
    return int(below[np.argmax(near)])


def solve_min_excess(a: np.ndarray, b: np.ndarray) -> QPResult:
    """Solve the bounded least-squares program from the scaled NNLS point.

    The start is z = s y (module docstring), or z = 0 when A y has no
    positive entry. Each iteration factors the working supply rows on the
    free variables once, A[rows, F]^T = Q R: the trailing columns of Q span
    the null space the step lives in, and at a stationary point the row
    multipliers come from R. The NNLS certificate runs once, where no
    multiplier is negative. Raises SolverStallError when the iteration cap
    of 100 (n + m + 2) is hit, when that certificate fails (a degenerate
    working set that cannot be improved) or when an NNLS solve hits its
    own cap.
    """
    from scipy.linalg import lstsq, solve_triangular

    n, mvar = a.shape
    max_iter = 100 * (n + mvar + 2)
    y, _ = _nnls(a, b, "warm start")
    image = a @ y
    positive = image > 0.0
    if np.any(positive):
        z = float(np.min(b[positive] / image[positive])) * y
    else:
        z = np.zeros(mvar)
    bound = z == 0.0                       # working bounds z_i = 0
    binding = np.zeros(n, dtype=bool)      # working supply rows (A z)_k = b_k
    scale = max(1.0, float(np.max(np.abs(b))))

    for it in range(max_iter):
        free = np.flatnonzero(~bound)
        rows = np.flatnonzero(binding)
        a_free = a[:, free]
        # the working normals stay linearly independent (each enters
        # through the ratio test, off the span of the others), so R is
        # nonsingular and Q's last columns span the null space
        q, r = np.linalg.qr(a_free[rows].T, mode="complete")
        null_basis = q[:, rows.size:]
        direction = np.zeros(mvar)
        if null_basis.shape[1] > 0:
            reduced = a_free @ null_basis
            v = lstsq(reduced, b - a_free @ z[free], cond=np.finfo(float).eps * max(reduced.shape),
                      lapack_driver="gelsy")[0]
            direction[free] = null_basis @ v

        if np.max(np.abs(direction)) <= STEP_TOL * scale:
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
            normal_matrix = np.hstack([np.eye(mvar)[:, fixed], -a[rows].T])
            _, kkt_residual = _nnls(normal_matrix, gradient, "stationary-point certificate")
            if kkt_residual <= tol:
                break
            raise SolverStallError("degenerate working set: no droppable constraint")

        # ratio test to the nearest blocking constraint: bounds first, and a
        # row blocks only when it is nearer by more than 1e-15
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
    else:
        raise SolverStallError(f"active-set iteration cap {max_iter} reached")

    objective = float(np.sum((b - a @ z) ** 2))
    return QPResult(
        z=z,
        objective=objective,
        kkt_residual=float(kkt_residual),
        iterations=it + 1,
        binding_rows=tuple(np.flatnonzero(binding).tolist()),
    )
