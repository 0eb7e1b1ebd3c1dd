"""Primal active-set solver for the minimum-excess quadratic program

    min ||A z - b||^2   subject to   z >= 0,  A z <= b.

The equality-constrained subproblems are solved by a null-space method
(SVD basis of the active rows), which stays well-posed when A^T A is
singular; optimality is certified by a non-negative least-squares fit of
the gradient to the active constraint normals, in the spirit of the
Lawson-Hanson NNLS multiplier test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .errors import SolverStallError

KKT_TOL = 1e-10
STEP_TOL = 1e-13


def _nullspace(m: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    if m.shape[0] == 0:
        return np.eye(m.shape[1])
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    tol = max(m.shape) * (s[0] if s.size else 0.0) * rcond
    rank = int(np.sum(s > tol))
    return vh[rank:].T


@dataclass(frozen=True)
class QPResult:
    z: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    binding_rows: tuple[int, ...]


def solve_min_excess(a: np.ndarray, b: np.ndarray) -> QPResult:
    """Solve the bounded least-squares program from the zero vertex.

    Raises SolverStallError when the iteration cap of 100 (n + m + 2) is hit
    or a degenerate working set cannot be improved.
    """
    n, mvar = a.shape
    max_iter = 100 * (n + mvar + 2)
    z = np.zeros(mvar)
    fixed: set[int] = set(range(mvar))   # active bounds z_i = 0
    rows: set[int] = set()               # active supply rows (A z)_k = b_k
    scale = max(1.0, float(np.max(np.abs(b))))

    for it in range(max_iter):
        free = [i for i in range(mvar) if i not in fixed]
        active_rows = sorted(rows)
        direction = np.zeros(mvar)
        if free:
            a_free = a[:, free]
            u_current = z[free]
            row_block = a_free[active_rows, :] if active_rows else np.zeros((0, len(free)))
            null_basis = _nullspace(row_block)
            if null_basis.shape[1] > 0:
                v, *_ = np.linalg.lstsq(a_free @ null_basis, b - a_free @ u_current, rcond=None)
                direction[free] = null_basis @ v

        if np.max(np.abs(direction)) <= STEP_TOL * scale:
            gradient = 2.0 * a.T @ (a @ z - b)
            normals = []
            for i in sorted(fixed):
                e = np.zeros(mvar)
                e[i] = 1.0
                normals.append(e)
            for k in active_rows:
                normals.append(-a[k, :])
            if not normals:
                if np.linalg.norm(gradient) <= KKT_TOL * scale:
                    break
                raise SolverStallError("zero gradient expected with empty working set")
            normal_matrix = np.array(normals).T
            _, residual = nnls(normal_matrix, gradient)
            if residual <= KKT_TOL * max(1.0, float(np.linalg.norm(gradient))):
                break
            multipliers, *_ = np.linalg.lstsq(normal_matrix, gradient, rcond=None)
            worst = int(np.argmin(multipliers))
            if multipliers[worst] >= -1e-12:
                raise SolverStallError("degenerate working set: no droppable constraint")
            n_fixed = len(fixed)
            if worst < n_fixed:
                fixed.remove(sorted(fixed)[worst])
            else:
                rows.remove(active_rows[worst - n_fixed])
            continue

        # ratio test to the nearest blocking constraint
        alpha = 1.0
        block: tuple[str, int] | None = None
        for i in free:
            if direction[i] < -1e-15:
                limit = z[i] / -direction[i]
                if limit < alpha - 1e-15:
                    alpha, block = limit, ("bound", i)
        image_step = a @ direction
        image = a @ z
        for k in range(n):
            if k in rows:
                continue
            if image_step[k] > 1e-15:
                limit = (b[k] - image[k]) / image_step[k]
                if limit < alpha - 1e-15:
                    alpha, block = limit, ("row", k)
        z = z + max(alpha, 0.0) * direction
        z[z < 0.0] = 0.0
        if block is not None:
            kind, idx = block
            if kind == "bound":
                fixed.add(idx)
                z[idx] = 0.0
            else:
                rows.add(idx)
    else:
        raise SolverStallError(f"active-set iteration cap {max_iter} reached")

    gradient = 2.0 * a.T @ (a @ z - b)
    normals = [np.eye(mvar)[:, i] for i in sorted(fixed)]
    normals += [-a[k, :] for k in sorted(rows)]
    if normals:
        _, kkt_residual = nnls(np.array(normals).T, gradient)
    else:
        kkt_residual = float(np.linalg.norm(gradient))
    objective = float(np.sum((b - a @ z) ** 2))
    return QPResult(
        z=z,
        objective=objective,
        kkt_residual=float(kkt_residual),
        iterations=it + 1,
        binding_rows=tuple(sorted(rows)),
    )
