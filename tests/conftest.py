"""Shared generators and independent oracles for the test suite.

Every random test draws from a seeded generator so the suite is
deterministic; oracles here stay independent of the library code paths
they check (dense eigenvalues, boolean matrix powers, brute-force
active-set enumeration).
"""

from __future__ import annotations

import csv
import io
import importlib
import itertools
import json
import os
import sys
from importlib import resources

# One BLAS thread unless the caller chose otherwise, set before numpy
# loads: the tests factor many small matrices, and on a small machine a
# second spinning BLAS thread slows them down (bench/run.py pins the same).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from scipy.optimize import nnls

from ioequil import ConeStatus, Technology
from ioequil.balance import BALANCE_RESIDUAL_TOL, balance_residual
from ioequil.core import (
    PIVOT_RTOL,
    POSITIVE_TOL,
    SPAN_TOL,
    _matrix,
    _vector,
    is_indecomposable,
    matrix_rank,
    nonsingular_lu,
    perron_vector,
)
from ioequil.errors import (
    DecomposableError,
    DegenerateGeneratorsError,
    HypothesisViolatedError,
    NoConvergenceError,
    ParseError,
    SolverStallError,
    ZeroColumnError,
    ZeroValueAddedError,
)
from ioequil.qp import (
    KKT_TOL,
    SHIFT,
    STEP_TOL,
    QPResult,
    _kkt_residual,
    _nearest,
    _nnls,
    _null_space_step,
)
from ioequil.real_economy import DEFAULT_BALANCE_TOL, IOTable, validate_table


def data_path(name: str):
    """Path to a bundled data file (toy tables, maps, schema)."""
    return resources.files("ioequil") / "data" / name


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


def random_indecomposable(rng: np.random.Generator, n: int,
                          density: float = 1.0,
                          low: float = 0.05, high: float = 1.0) -> np.ndarray:
    """Random non-negative matrix whose support graph is strongly connected.

    A directed cycle through all nodes is forced, everything else follows
    the requested density.
    """
    a = rng.uniform(low, high, (n, n))
    if density < 1.0:
        mask = rng.uniform(size=(n, n)) >= density
        a[mask] = 0.0
    for i in range(n):
        j = (i + 1) % n
        if a[j, i] <= 0.0:
            a[j, i] = rng.uniform(low if low > 0 else 0.05, high)
    return a


def column_sums_in_value_units(rng: np.random.Generator, a: np.ndarray) -> np.ndarray:
    """Rescale the columns of ``a`` to sums in [0.35, 0.75], as bench/gen.py does."""
    return a * (rng.uniform(0.35, 0.75, a.shape[0]) / a.sum(axis=0))


def dependent_columns(rng: np.random.Generator, n: int, k: int, density: float) -> np.ndarray:
    """Non-negative n x n matrix of rank n - k: each of its last k columns is a
    convex combination of two of the first n - k."""
    a = random_indecomposable(rng, n, density=density)
    for j in range(n - k, n):
        first, second = rng.choice(n - k, 2, replace=False)
        weight = rng.uniform(0.2, 0.8)
        a[:, j] = weight * a[:, first] + (1.0 - weight) * a[:, second]
    return a


def value_table_supply(rng: np.random.Generator, a: np.ndarray) -> np.ndarray:
    """Supply 0.7 (E - A)^-1 c of a value table, as bench/gen.py taxes it."""
    n = a.shape[0]
    return 0.7 * np.linalg.solve(np.eye(n) - a, rng.uniform(0.5, 1.5, n))


def spectral_radius_oracle(a: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def random_productive(rng: np.random.Generator, n: int,
                      rho: float = 0.6, density: float = 1.0) -> Technology:
    a = random_indecomposable(rng, n, density=density)
    a *= rho / spectral_radius_oracle(a)
    return Technology(a)


def indecomposable_oracle(a: np.ndarray) -> bool:
    """Boolean (E + support)^(n-1) entrywise-positive test."""
    n = a.shape[0]
    reach = (a > 0) | np.eye(n, dtype=bool)
    power = np.eye(n, dtype=bool)
    for _ in range(n - 1):
        power = power @ reach
    if n == 1:
        return bool(a[0, 0] > 0)
    return bool(power.all())


def _nullspace(m: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    if m.shape[0] == 0:
        return np.eye(m.shape[1])
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    tol = max(m.shape) * (s[0] if s.size else 0.0) * rcond
    rank = int(np.sum(s > tol))
    return vh[rank:].T


def qp_enumeration_oracle(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact minimizer of ||Az - b||^2 on {z >= 0, Az <= b} by enumerating
    every active set; exponential, for small n only."""
    n, m = a.shape
    best_obj, best_z = np.inf, None
    for fixed_bits in range(2 ** m):
        fixed = [i for i in range(m) if (fixed_bits >> i) & 1]
        free = [i for i in range(m) if i not in fixed]
        for row_bits in range(2 ** n):
            rows = [k for k in range(n) if (row_bits >> k) & 1]
            z = np.zeros(m)
            if free:
                a_free = a[:, free]
                block = a_free[rows, :] if rows else np.zeros((0, len(free)))
                if rows:
                    particular, *_ = np.linalg.lstsq(block, b[rows], rcond=None)
                    if np.linalg.norm(block @ particular - b[rows]) > 1e-9:
                        continue
                else:
                    particular = np.zeros(len(free))
                basis = _nullspace(block)
                if basis.shape[1] > 0:
                    v, *_ = np.linalg.lstsq(a_free @ basis, b - a_free @ particular, rcond=None)
                    u = particular + basis @ v
                else:
                    u = particular
                z[free] = u
            elif rows:
                continue
            if np.min(z) < -1e-9:
                continue
            z = np.maximum(z, 0.0)
            if np.max(a @ z - b) > 1e-9:
                continue
            obj = float(np.sum((b - a @ z) ** 2))
            if obj < best_obj:
                best_obj, best_z = obj, z
    return best_obj, best_z


def complementary_points_oracle(a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """Every z >= 0 with A z <= b whose positive entries sit on binding rows.

    With ``M = A / b`` each such point solves ``M[S, S] z_S = 1`` on its
    support S. Enumerates every S with a nonsingular ``M[S, S]``, keeps
    ``z_S > 0`` with ``M z <= 1``; exponential, for n <= 6 only.
    """
    n = a.shape[0]
    m = a / b[:, None]
    points = []
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            s = list(support)
            block = m[np.ix_(s, s)]
            if np.linalg.cond(block) > 1e12:
                continue
            z = np.zeros(n)
            z[s] = np.linalg.solve(block, np.ones(size))
            if np.all(z[s] > 0.0) and np.all(m @ z <= 1.0 + 1e-9):
                points.append(z)
    return points


def simplex_grid(n: int, target_points: int) -> np.ndarray:
    """About target_points points covering the (n-1)-simplex."""
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        t = np.linspace(0.0, 1.0, target_points)
        return np.column_stack([t, 1.0 - t])
    if n == 3:
        m = 1
        while (m + 1) * (m + 2) // 2 < target_points:
            m += 1
        pts = [(i / m, j / m, (m - i - j) / m)
               for i in range(m + 1) for j in range(m + 1 - i)]
        return np.array(pts)
    raise ValueError("grids only provided up to n = 3")


def random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n))


# Reference copies of the power-iteration loops that served the Perron
# vectors before core.perron_vector solved them directly: the price fixed
# point (equilibrium), the spectral radius on A + E (core; the loop that
# remains) and the balanced-eigenvector loop (balance). They pin the direct
# solve where the loops converge.

def simplex_power_iteration_reference(m: np.ndarray) -> np.ndarray:
    """Fixed point of p -> (p + M p) / sum(p + M p) on the simplex."""
    k = m.shape[0]
    p = np.full(k, 1.0 / k)
    for _ in range(10 ** 6):
        q = p + m @ p
        q /= q.sum()
        if np.max(np.abs(q - p)) < 1e-12:
            return q
        p = q
    raise AssertionError("price fixed-point iteration hit the cap")


def balanced_eigenvector_reference(b1) -> np.ndarray:
    """Strictly positive d with sum_k b1_ki d_k = (sum_s b1_is) d_i, sum d = 1.

    Row-normalizing ``b1`` turns the system into a stochastic fixed point,
    solved by iterating the averaged map ``d <- (d + E^T d)/2`` (the identity
    average makes the map primitive, so plain iteration converges even for
    periodic support patterns). The averaged map is column-stochastic and
    keeps ``sum d = 1`` by itself, so this loop skips the per-step
    normalization of a simplex power iteration, which would only slow it
    down. It stops when no entry moves by 1e-12 and raises
    NoConvergenceError after 10^6 steps.

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

    e = b1 / row_sums[:, None]
    m = 0.5 * (np.eye(l) + e.T)
    d1 = np.full(l, 1.0 / l)
    for _ in range(10 ** 6):
        d1_new = m @ d1
        if np.max(np.abs(d1_new - d1)) < 1e-12:
            d1 = d1_new
            break
        d1 = d1_new
    else:
        raise NoConvergenceError("balanced eigenvector iteration hit the cap")
    d = d1 / row_sums
    d /= d.sum()
    if balance_residual(b1, d) > BALANCE_RESIDUAL_TOL * scale:
        raise NoConvergenceError("balance residual above tolerance after convergence")
    return d


def two_block(rng: np.random.Generator, n: int, k: int, coupling: float) -> np.ndarray:
    """Dense n x n matrix in two diagonal blocks (k and n - k sectors).

    Every column sends exactly ``coupling`` of its sum into the other
    block; column sums lie in [0.35, 0.5] on the first block and
    [0.6, 0.75] on the second, so the block spectral radii stay apart.
    """
    a = rng.uniform(0.05, 1.0, (n, n))
    first = np.arange(n) < k
    sums = np.where(first, rng.uniform(0.35, 0.5, n), rng.uniform(0.6, 0.75, n))
    for j in range(n):
        own = first == first[j]
        a[own, j] *= (1.0 - coupling) * sums[j] / a[own, j].sum()
        a[~own, j] *= coupling * sums[j] / a[~own, j].sum()
    return a


def equal_radius_blocks(rng: np.random.Generator, n: int, k: int, coupling: float) -> np.ndarray:
    """Dense n x n matrix in two diagonal blocks (k and n - k sectors) of equal radius.

    Every column sums to 0.45 and sends ``coupling`` of that into the other
    block, so the radius is 0.45 and the second eigenvalue lies within
    about ``coupling`` of it: a power iteration needs far more than 10^6
    steps to separate them.
    """
    a = rng.uniform(0.05, 1.0, (n, n))
    first = np.arange(n) < k
    for j in range(n):
        own = first == first[j]
        a[own, j] *= (1.0 - coupling) * 0.45 / a[own, j].sum()
        a[~own, j] *= coupling * 0.45 / a[~own, j].sum()
    return a


def leontief_value_table(rng: np.random.Generator, a: np.ndarray) -> IOTable:
    """Balanced value table on A: X is the Leontief output of a random final demand,
    T1 = 0.3 Delta and Z1 = 0.7 Delta."""
    n = a.shape[0]
    x = np.linalg.solve(np.eye(n) - a, rng.uniform(0.5, 1.5, n))
    z = a * x[None, :]
    delta = x - z.sum(axis=0)
    return IOTable(tuple(f"s{k + 1}" for k in range(n)), z, x, 0.3 * delta, 0.7 * delta,
                   x - z.sum(axis=1), np.zeros(n), np.zeros(n))


def seeded_table(rng: np.random.Generator, n: int, density: float) -> IOTable:
    """Balanced value table on a random indecomposable A with column sums in
    [0.35, 0.75]: X uniform in [0.5, 20], T1 = 0.3 Delta and Z1 = 0.7 Delta."""
    a = random_indecomposable(rng, n, density=density)
    a *= rng.uniform(0.35, 0.75, n) / a.sum(axis=0)
    big_x = rng.uniform(0.5, 20.0, n)
    z = a * big_x[None, :]
    delta = big_x - z.sum(axis=0)
    return IOTable(
        names=tuple(f"s{k + 1}" for k in range(n)), z=z, big_x=big_x,
        t1=0.3 * delta, z1=0.7 * delta, consumption=big_x - z.sum(axis=1),
        exports=np.zeros(n), imports=np.zeros(n),
    )


def price_map(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The map diag(z / A z) A^T of prices_from_consumption (zero rows where z = 0)."""
    b_bar = a @ z
    weights = np.where(z > 0.0, z / np.where(b_bar > 0.0, b_bar, 1.0), 0.0)
    return weights[:, None] * a.T


# Reference copies of the basis completion and the biorthogonal system that
# core.cone_membership and core.positive_solution_family used before they
# took coordinates from one least-squares solve, with the two scans built on
# them. They pin the coordinates, statuses and families of the new path.

def _complete_to_basis(g: np.ndarray) -> np.ndarray:
    """Extend linearly independent columns of ``g`` to an n x n basis.

    Standard basis vectors are appended greedily in index order, which
    keeps the completion (and hence the biorthogonal system) deterministic.
    """
    n, m = g.shape
    cols = [g[:, j] for j in range(m)]
    rank = matrix_rank(g)
    for j in range(n):
        if rank == n:
            break
        e = np.zeros(n)
        e[j] = 1.0
        candidate = np.column_stack(cols + [e])
        r = matrix_rank(candidate)
        if r > rank:
            cols.append(e)
            rank = r
    if rank < n:
        raise DegenerateGeneratorsError("could not complete generators to a basis")
    return np.column_stack(cols)


def biorthogonal_system(g: np.ndarray) -> np.ndarray:
    """Vectors f_i with <f_i, g_j> = delta_ij for the completed basis of g.

    Column ``i`` of the result pairs to one against column ``i`` of the
    completion and to zero against every other column.
    """
    basis = _complete_to_basis(g)
    return np.linalg.inv(basis).T


def cone_membership_reference(g: np.ndarray, b: np.ndarray) -> tuple[ConeStatus, np.ndarray | None]:
    """Status and coefficients of ``b`` from the biorthogonal products."""
    m = g.shape[1]
    head = (biorthogonal_system(g).T @ b)[:m]
    scale = max(1.0, float(np.max(np.abs(b))))
    in_span = float(np.max(np.abs(b - g @ head))) <= SPAN_TOL * scale
    if not in_span or np.any(head < -POSITIVE_TOL * scale):
        return ConeStatus.OUTSIDE, None
    if np.all(head > POSITIVE_TOL * scale):
        return ConeStatus.INTERIOR, head
    return ConeStatus.BOUNDARY, head


def solution_family_reference(c: np.ndarray, psi: np.ndarray):
    """(subset, basis, constraint matrix) of the biorthogonal subset scan,
    or None when no subset admits ``psi``."""
    n, l = c.shape
    r = matrix_rank(c)
    scale = max(1.0, float(np.max(np.abs(psi))))
    for subset in itertools.combinations(range(l), r):
        g = c[:, subset]
        if matrix_rank(g) < r:
            continue
        f = biorthogonal_system(g)
        head = (f.T @ psi)[:r]
        if np.any(head <= POSITIVE_TOL * scale):
            continue
        if float(np.max(np.abs(psi - g @ head))) > SPAN_TOL * scale:
            continue
        break
    else:
        return None
    free = [j for j in range(l) if j not in subset]
    z_base = np.zeros(l)
    z_base[list(subset)] = head
    basis = [z_base]
    w = np.zeros((r, len(free)))
    for pos, j in enumerate(free):
        col_products = (f.T @ c[:, j])[:r]
        positive = col_products > 0.0
        if np.any(positive):
            y_star = float(np.min(head[positive] / col_products[positive]))
        else:
            y_star = 1.0
        z = np.zeros(l)
        z[list(subset)] = head - col_products * y_star
        z[j] = y_star
        z[(z < 0.0) & (np.abs(z) < 1e-15 * scale)] = 0.0
        basis.append(z)
        w[:, pos] = col_products * y_star
    return subset, basis, w


# Reference copy of the active-set loop as it ran before qp.solve_min_excess
# started from the scaled NNLS point: the same loop from the zero vertex, with
# every bound in the working set. It pins the least-distance start's optimum,
# binding rows and iteration saving.

def solve_min_excess_cold_reference(a: np.ndarray, b: np.ndarray) -> QPResult:
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
                kkt_residual = float(np.linalg.norm(gradient))
                if kkt_residual <= KKT_TOL * scale:
                    break
                raise SolverStallError("zero gradient expected with empty working set")
            normal_matrix = np.array(normals).T
            _, kkt_residual = nnls(normal_matrix, gradient)
            if kkt_residual <= KKT_TOL * max(1.0, float(np.linalg.norm(gradient))):
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

    objective = float(np.sum((b - a @ z) ** 2))
    return QPResult(
        z=z,
        objective=objective,
        kkt_residual=float(kkt_residual),
        iterations=it + 1,
        binding_rows=tuple(sorted(rows)),
        start="zero",
    )


# Reference copy of qp.solve_min_excess as it ran before it started from the
# least-distance working set: the scaled NNLS start for every A, one QR of the
# working rows per iteration and an NNLS certificate at the exit. It pins the
# least-distance start's objective, A z and binding rows, on singular A too.

def solve_min_excess_qr_reference(a: np.ndarray, b: np.ndarray) -> QPResult:
    """Solve the bounded least-squares program from the scaled NNLS point.

    The start is the NNLS point y of min ||A y - b|| over y >= 0, scaled
    back into the feasible set: z = s y with s = min_k b_k / (A y)_k over the
    rows where A y is positive, or z = 0 when A y has no positive entry;
    only the zero bounds of z start in the working set. Each iteration factors the working supply rows on the
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
        z, start = float(np.min(b[positive] / image[positive])) * y, "nnls"
    else:
        z, start = np.zeros(mvar), "zero"
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
        start=start,
    )


# Reference copy of qp.solve_min_excess as it ran before its first loop pass
# built z on the least-distance working set: the start rebuilt z with its own
# QR and null-space step, and the loop's first pass factored the same rows
# again, found a zero step and certified on a pass of its own. It shares the
# step and certificate helpers of qp, and pins the one-QR-per-pass loop's z,
# binding rows, start and iterations.

def _least_distance_start_reference(a: np.ndarray, b: np.ndarray, scale: float,
                                    factors: tuple[np.ndarray, np.ndarray] | None
                                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, str] | None:
    """(z, bounds, binding rows, start) of the least-distance optimum, or None.

    ``factors`` is ``core.nonsingular_lu(A)``, or None when A is singular or
    not square. The start is "ldp" on those factors and "shifted" when
    ``core.nonsingular_lu`` factors A + SHIFT max|A| E instead; the NNLS
    runs on the factors, the rebuild of z on A. None when A is not square
    or both factorizations are rejected, when the working rows on the free
    variables are dependent, or when the rebuilt z is infeasible beyond
    ``STEP_TOL * scale``; negative dust within it is zeroed.
    """
    from scipy.linalg import solve_triangular
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
    bound = coefficients[:n] > 0.0
    binding = coefficients[n:] > 0.0

    free, rows = np.flatnonzero(~bound), np.flatnonzero(binding)
    if rows.size > free.size:
        return None
    q, r = np.linalg.qr(a[np.ix_(rows, free)].T, mode="complete")
    pivots = np.abs(np.diag(r))
    z = np.zeros(n)
    if rows.size:
        if np.min(pivots) <= PIVOT_RTOL * np.max(pivots):
            return None
        z[free] = q[:, :rows.size] @ solve_triangular(r[:rows.size], b[rows], trans="T")
    a_free = a[:, free]
    z[free] += _null_space_step(a_free, q[:, rows.size:], b - a_free @ z[free])
    if np.min(z) < -STEP_TOL * scale or np.max(a @ z - b) > STEP_TOL * scale:
        return None
    z[z < 0.0] = 0.0
    return z, bound, binding, start


def solve_min_excess_ldp_reference(a: Technology | np.ndarray, b: np.ndarray) -> QPResult:
    """Solve the bounded least-squares program from the least-distance working set.

    The start (module docstring) is the rebuilt least-distance optimum with
    its bounds and binding rows, or z = 0 with every bound in the working
    set. Each iteration factors the working supply rows on the free
    variables once, A[rows, F]^T = Q R: the trailing columns of Q span the
    null space the step lives in, and at a stationary point the row
    multipliers come from R. Where none is negative the same multipliers
    certify the point. Raises SolverStallError when the iteration cap of
    100 (n + m + 2) is hit, when the certificate fails (a degenerate working
    set that cannot be improved) or when the NNLS solve hits its own cap.

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
    z, bound, binding, start = _least_distance_start_reference(a, b, scale, factors) or (
        np.zeros(mvar), np.ones(mvar, dtype=bool), np.zeros(n, dtype=bool), "zero")

    for it in range(max_iter):
        free = np.flatnonzero(~bound)
        rows = np.flatnonzero(binding)
        a_free = a[:, free]
        # the working normals stay linearly independent (each enters
        # through the ratio test, off the span of the others), so R is
        # nonsingular and Q's last columns span the null space
        q, r = np.linalg.qr(a_free[rows].T, mode="complete")
        direction = np.zeros(mvar)
        direction[free] = _null_space_step(a_free, q[:, rows.size:], b - a_free @ z[free])

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
            kkt_residual = _kkt_residual(a, gradient, fixed, rows, multipliers)
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
        start=start,
    )


# Reference copy of the table loader as it was before real_economy.loads_table
# took its numbers from np.loadtxt: csv rows, stripped cells and one float()
# per cell. It pins the new loader's arrays and every ParseError message.

def loads_table_reference(text: str, balance_tol: float = DEFAULT_BALANCE_TOL) -> IOTable:
    """Parse a table from CSV text and validate it."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError("empty table")
    header = [cell.strip() for cell in rows[0]]
    if header[0] != "sector":
        raise ParseError(f"header must start with 'sector', got {header[0]!r}")
    if len(header) < 6:
        raise ParseError("header too short: need sector,<names...>,C,E,I,X")
    if header[-4:] != ["C", "E", "I", "X"]:
        raise ParseError(f"header must end with C,E,I,X, got {header[-4:]}")
    names = tuple(header[1:-4])
    n = len(names)
    if n == 0:
        raise ParseError("no sector names in header")
    if len(rows) != n + 3:
        raise ParseError(f"expected {n} data rows plus T1 and Z1 footers, got {len(rows) - 1} rows")

    def parse_floats(cells: list[str], where: str, expect: int) -> np.ndarray:
        if len(cells) != expect:
            raise ParseError(f"{where}: expected {expect} values, got {len(cells)}")
        out = np.empty(expect)
        for j, cell in enumerate(cells):
            try:
                out[j] = float(cell)
            except ValueError as exc:
                raise ParseError(f"{where}, column {j + 1}: not a number: {cell!r}") from exc
        return out

    z = np.empty((n, n))
    trailing = np.empty((n, 4))
    for k in range(n):
        row = [cell.strip() for cell in rows[1 + k]]
        if row[0] != names[k]:
            raise ParseError(f"data row {k + 1}: expected sector {names[k]!r}, got {row[0]!r}")
        values = parse_floats(row[1:], f"row {names[k]!r}", n + 4)
        z[k, :] = values[:n]
        trailing[k, :] = values[n:]

    footers = {}
    for offset, label in ((n + 1, "T1"), (n + 2, "Z1")):
        row = [cell.strip() for cell in rows[offset]]
        if row[0] != label:
            raise ParseError(f"footer row {offset}: expected label {label!r}, got {row[0]!r}")
        footers[label] = parse_floats(row[1:], f"footer {label}", n)

    table = IOTable(
        names=names,
        z=z,
        big_x=trailing[:, 3],
        t1=footers["T1"],
        z1=footers["Z1"],
        consumption=trailing[:, 0],
        exports=trailing[:, 1],
        imports=trailing[:, 2],
    )
    validate_table(table, balance_tol)
    return table


# Reference copies of the clearing terms and price fixed points that the
# taxation layer, check_sustainable and prices_on_support wrote out before
# they shared sustainability.clearing_terms and consumption_prices. They pin
# the bytes of analyze's residual, the certificate prices and the support prices.

def taxed_clearing_residual_reference(t_value, big_x, pi) -> np.ndarray:
    """Residual of sum_i a_ki (1 - pi_i) X_i / s_i = (1 - pi_k) X_k.

    A zero column (s_i = 0) has a_ki = 0 in every row, so its term drops out.
    """
    big_x = _vector(big_x, "gross output")
    pi = _vector(pi, "taxation vector")
    s = t_value.a.sum(axis=0)
    supplied = (1.0 - pi) * big_x
    terms = np.divide(supplied, s, out=np.zeros_like(supplied), where=s > 0.0)
    return t_value.a @ terms - supplied


def certificate_prices_reference(a: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """Simplex prices p_i = ratio_i <A_i, p> with ratio_i = b1_i / (A b1)_i."""
    image = a @ b1
    if np.any(image <= 0.0):
        raise HypothesisViolatedError("A b1 must be strictly positive for the price construction")
    ratio = b1 / image
    return perron_vector(ratio[:, None] * a.T, "certificate prices")


def support_prices_reference(a: np.ndarray, b: np.ndarray, z: np.ndarray, idx: list[int]) -> np.ndarray:
    """The Perron step of prices_on_support on the binding rows idx, extended by zero."""
    minor = a[np.ix_(idx, idx)]
    y = z[idx] / b[idx]
    p_block = perron_vector(y[:, None] * minor.T, "support prices")
    p = np.zeros(a.shape[0])
    p[idx] = p_block
    return p


# Per-sector loops as the library first wrote them; each now runs as one
# numpy pass that must return the same bits and raise the same messages.

def min_ratios_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d_i = min over rows k with a_ki > 0 of b_k / a_ki, one column at a time."""
    n = a.shape[0]
    d = np.empty(n)
    for i in range(n):
        col = a[:, i]
        positive = col > 0.0
        if not np.any(positive):
            raise ZeroColumnError(f"column {i} of the direct-cost matrix is zero")
        d[i] = float(np.min(b[positive] / col[positive]))
    return d


def real_tax_vector_reference(table) -> np.ndarray:
    """T1 / Delta after checking Delta one sector at a time."""
    delta = table.delta
    for i, value in enumerate(delta):
        if value <= 0.0:
            raise ZeroValueAddedError(i, f"sector {table.names[i]!r} has non-positive value added")
    return table.t1 / delta


def indicator_reference(amap) -> np.ndarray:
    """n x m grouping indicator filled one fine sector at a time."""
    s = np.zeros((amap.n, amap.m))
    for l, k in enumerate(amap.assignment):
        s[k, l] = 1.0
    return s


def canonical_json_reference(value) -> str:
    """The canonical encoder as first written: sorted keys, '.12g' floats with
    '.0' added to integral ones, and numpy scalars converted one at a time."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"non-finite float in report: {value}")
        text = format(value, ".12g")
        return text if any(c in text for c in ".eE") else text + ".0"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, np.ndarray):
        return canonical_json_reference(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_json_reference(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: kv[0])
        if any(not isinstance(k, str) for k, _ in items):
            raise TypeError("report keys must be strings")
        return "{" + ",".join(f"{json.dumps(k)}:{canonical_json_reference(v)}" for k, v in items) + "}"
    raise TypeError(f"unsupported report value of type {type(value).__name__}")


def record_calls(monkeypatch, name: str) -> list:
    """Rebind the function ``<module>.<function>`` of ioequil wherever an
    ioequil module holds it; the list collects the first argument of every
    call."""
    module_name, attr = name.split(".")
    original = getattr(importlib.import_module(f"ioequil.{module_name}"), attr)
    seen = []

    def recorded(first, *args, **kwargs):
        seen.append(first)
        return original(first, *args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key == "ioequil" or key.startswith("ioequil."):
            for held, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, held, recorded)
    return seen


def record_technologies(monkeypatch) -> list[Technology]:
    """Collect every ``Technology`` built from now on."""
    built = []
    post_init = Technology.__post_init__

    def recorded_post_init(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(Technology, "__post_init__", recorded_post_init)
    return built
