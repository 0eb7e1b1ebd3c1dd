"""Non-negative matrix predicates, Leontief solves and polyhedral cones.

Everything downstream builds on four primitives: strong connectivity of the
support graph, the spectral-radius productivity test, membership of a vector
in the interior of a simplicial cone via a biorthogonal system, and the
complete family of strictly positive solutions of ``C y = psi`` when ``psi``
lies inside the cone spanned by the columns of ``C``.

Linear-algebra policy: library factorizations, not hand-written loops.
Rank decisions count the pivots of a column-pivoted QR (Businger & Golub)
above ``PIVOT_RTOL`` times the largest absolute entry; indecomposability
is a single strong component of the support digraph (Tarjan, via
``scipy.sparse.csgraph``).

Fixed-point policy: one loop, ``simplex_fixed_point``, serves every Perron
fixed point on the simplex (the spectral radius, equilibrium prices and
the sustainable-mode certificate prices). It iterates
``p <- (p + M p) / sum(p + M p)`` from the barycentre and stops once the
normalizing total has settled to ``FIXED_POINT_TOL`` relative and no
entry moves by ``FIXED_POINT_TOL``; at ``FIXED_POINT_MAXITER`` steps it
raises ``NoConvergenceError`` (CLI exit 3) instead of returning the last
iterate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import linalg
from scipy.sparse.csgraph import connected_components

from .errors import (
    DegenerateGeneratorsError,
    NoConvergenceError,
    NotInteriorError,
    NotProductiveError,
)

# Numerical policy: one documented constant per decision.
PIVOT_RTOL = 1e-12        # relative pivot threshold for rank decisions
POSITIVE_TOL = 1e-10      # strict positivity after max-norm normalization
SPAN_TOL = 1e-9           # max-norm residual for span membership
FIXED_POINT_TOL = 1e-12   # settled total (relative) and step (max-norm) of a fixed point
FIXED_POINT_MAXITER = 10 ** 6


def _vector(x, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _matrix(x, name: str = "matrix") -> np.ndarray:
    m = np.asarray(x, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True, eq=False)
class Technology:
    """Square non-negative direct-cost matrix.

    Column ``i`` holds the inputs consumed to produce one unit of good
    ``i``; ``units`` records whether entries are natural quantities or
    value (price-weighted) coefficients.
    """

    a: np.ndarray
    units: str = "natural"

    def __post_init__(self):
        a = _matrix(self.a, "direct-cost matrix")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"direct-cost matrix must be square, got {a.shape}")
        if np.any(a < 0):
            raise ValueError("direct-cost matrix must be non-negative")
        if self.units not in ("natural", "value"):
            raise ValueError(f"units must be 'natural' or 'value', got {self.units!r}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.shape[0]


class ConeStatus(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class ConeMembership:
    status: ConeStatus
    coefficients: np.ndarray | None


def matrix_rank(m, rtol: float = PIVOT_RTOL) -> int:
    """Rank from a column-pivoted QR factorization (LAPACK ``geqp3``).

    Counts the diagonal entries of R that exceed ``rtol`` times the largest
    absolute entry of the matrix, which keeps the decision deterministic
    and dimension-free.
    """
    a = _matrix(m)
    if a.size == 0:
        return 0
    scale = np.max(np.abs(a))
    if scale == 0.0:
        return 0
    r, _ = linalg.qr(a, mode="r", pivoting=True)
    return int(np.count_nonzero(np.abs(np.diag(r)) > rtol * scale))


def is_indecomposable(t: Technology | np.ndarray) -> bool:
    """True iff the support digraph of the matrix is strongly connected.

    The strong components come from Tarjan's algorithm in
    ``scipy.sparse.csgraph``. A 1x1 matrix counts as indecomposable only if
    its entry is positive (the node needs a self-loop for the Perron
    machinery downstream).
    """
    a = t.a if isinstance(t, Technology) else _matrix(t)
    if a.shape[0] == 1:
        return bool(a[0, 0] > 0.0)
    count, _ = connected_components(a > 0.0, directed=True, connection="strong")
    return count == 1


def simplex_fixed_point(m: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """Perron vector of a non-negative matrix on the simplex, with its multiplier.

    Iterates ``p <- (p + M p) / total`` with ``total = sum(p + M p)``; adding
    the identity breaks the cycling of periodic support patterns and moves
    the multiplier by exactly one. The settled ``total - 1`` estimates the
    spectral radius of ``M`` and is returned beside ``p``. Raises
    NoConvergenceError naming ``what`` when the iteration hits the cap.
    """
    k = m.shape[0]
    p = np.full(k, 1.0 / k)
    previous = 1.0
    for _ in range(FIXED_POINT_MAXITER):
        q = p + m @ p
        total = float(q.sum())
        q /= total
        # the scalar test runs first: it is cheaper and usually fails
        settled = abs(total - previous) <= FIXED_POINT_TOL * total
        if settled and np.max(np.abs(q - p)) < FIXED_POINT_TOL:
            return q, total - 1.0
        p, previous = q, total
    raise NoConvergenceError(f"{what} iteration hit the cap")


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus of a non-negative matrix by power iteration."""
    a = _matrix(a)
    if np.any(a < 0):
        raise ValueError("spectral_radius expects a non-negative matrix")
    if not np.any(a):
        return 0.0
    return simplex_fixed_point(a, "spectral radius")[1]


def is_productive(t: Technology, *, rho: float | None = None) -> bool:
    """True iff the spectral radius of the direct-cost matrix is below one.

    The power-iteration verdict is cross-checked by solving
    ``(E - A) x = 1`` and testing ``x > 0``; a disagreement near the
    boundary is resolved conservatively as not productive. A caller that
    already holds ``spectral_radius(t.a)`` passes it as ``rho``.
    """
    if rho is None:
        rho = spectral_radius(t.a)
    if rho >= 1.0 - POSITIVE_TOL:
        return False
    n = t.n
    try:
        x = np.linalg.solve(np.eye(n) - t.a, np.ones(n))
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(x > 0.0))


def leontief_solve(t: Technology, c) -> np.ndarray:
    """Gross output x with ``(E - A) x = c`` for a productive technology."""
    c = _vector(c, "final consumption")
    if c.shape[0] != t.n:
        raise ValueError("final consumption length does not match sector count")
    if np.any(c < 0):
        raise ValueError("final consumption must be non-negative")
    if not is_productive(t):
        raise NotProductiveError("technology is not productive; Leontief solve undefined")
    return np.linalg.solve(np.eye(t.n) - t.a, c)


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


def cone_membership(generators, b) -> ConeMembership:
    """Locate ``b`` relative to the cone spanned by independent generators.

    Parameters
    ----------
    generators : sequence of m <= n non-negative n-vectors, or an n x m array.
    b : query n-vector.

    Returns
    -------
    ConeMembership with status INTERIOR (all biorthogonal products strictly
    positive and ``b`` inside the span), BOUNDARY (non-negative products with
    at least one zero), or OUTSIDE. Coefficients are the biorthogonal
    products ``<f_i, b>`` for i <= m whenever status is not OUTSIDE.
    """
    if isinstance(generators, np.ndarray) and generators.ndim == 2:
        g = _matrix(generators).copy()
    else:
        g = np.column_stack([_vector(np.asarray(v, dtype=float), "generator")
                             for v in generators])
    b = _vector(b, "query vector")
    n, m = g.shape
    if b.shape[0] != n:
        raise ValueError("query vector length does not match generator dimension")
    if m > n:
        raise ValueError("more generators than dimensions")
    if matrix_rank(g) < m:
        raise DegenerateGeneratorsError(f"generators are linearly dependent (rank < {m})")

    f = biorthogonal_system(g)
    products = f.T @ b
    scale = max(1.0, float(np.max(np.abs(b))))
    head = products[:m]
    reconstruction = g @ head
    in_span = float(np.max(np.abs(b - reconstruction))) <= SPAN_TOL * scale

    if not in_span or np.any(head < -POSITIVE_TOL * scale):
        return ConeMembership(ConeStatus.OUTSIDE, None)
    if np.all(head > POSITIVE_TOL * scale):
        return ConeMembership(ConeStatus.INTERIOR, head)
    return ConeMembership(ConeStatus.BOUNDARY, head)


@dataclass(frozen=True)
class SolutionFamily:
    """All strictly positive solutions of ``C y = psi``.

    The family is the affine hull of ``len(free_columns) + 1`` non-negative
    basis solutions: ``y = gamma[0] * basis[0] + sum_j gamma[j] * basis[j]``
    where ``gamma`` sums to one, ``gamma[j] > 0`` for the free entries
    ``j >= 1``, and the linear constraints ``constraint_matrix @ gamma[1:]
    < constraint_rhs`` hold componentwise. ``basis[0]`` is supported on the
    selected independent subset; each other basis vector adds one free
    column.
    """

    rank: int
    subset: tuple[int, ...]
    free_columns: tuple[int, ...]
    basis: tuple[np.ndarray, ...]
    constraint_matrix: np.ndarray   # shape (rank, len(free_columns))
    constraint_rhs: np.ndarray      # shape (rank,)

    @property
    def size(self) -> int:
        return len(self.basis)

    def combine(self, gamma) -> np.ndarray:
        gamma = _vector(gamma, "gamma")
        if gamma.shape[0] != self.size:
            raise ValueError(f"gamma must have {self.size} entries")
        return np.sum([g * z for g, z in zip(gamma, self.basis)], axis=0)

    def is_admissible(self, gamma) -> bool:
        gamma = _vector(gamma, "gamma")
        if gamma.shape[0] != self.size:
            return False
        if abs(float(np.sum(gamma)) - 1.0) > 1e-9:
            return False
        free = gamma[1:]
        if np.any(free <= 0.0):
            return False
        if free.size:
            lhs = self.constraint_matrix @ free
        else:
            lhs = np.zeros_like(self.constraint_rhs)
        return bool(np.all(lhs < self.constraint_rhs))

    def centroid_gamma(self) -> np.ndarray:
        """Deterministic interior representative: equal weights, with the
        free mass halved until the strict constraints hold."""
        q = len(self.free_columns)
        if q == 0:
            return np.array([1.0])
        t = 1.0
        for _ in range(200):
            gamma = np.empty(q + 1)
            gamma[1:] = t / (q + 1)
            gamma[0] = 1.0 - t * q / (q + 1)
            if self.is_admissible(gamma):
                return gamma
            t *= 0.5
        raise NotInteriorError("no interior coefficient point found")

    def sample_gamma(self, rng: np.random.Generator) -> np.ndarray:
        """Random admissible coefficient vector.

        Draws a direction on the free simplex and scales it to stay
        strictly inside the linear constraints; the subset weight takes
        the remaining (possibly negative) mass.
        """
        q = len(self.free_columns)
        if q == 0:
            return np.array([1.0])
        u = rng.dirichlet(np.ones(q))
        lhs = self.constraint_matrix @ u
        positive = lhs > 0.0
        t_max = np.min(self.constraint_rhs[positive] / lhs[positive]) if np.any(positive) else 2.0
        t = rng.uniform(0.0, 0.999 * min(t_max, 2.0))
        if t <= 0.0:
            t = 0.5 * min(t_max, 2.0) * 0.999
        gamma = np.empty(q + 1)
        gamma[1:] = t * u
        gamma[0] = 1.0 - t
        return gamma


def positive_solution_family(c, psi) -> SolutionFamily:
    """Describe every strictly positive solution of ``C y = psi``.

    Scans subsets of linearly independent columns in lexicographic index
    order and keeps the first whose cone contains ``psi`` strictly; the
    basis solutions and the admissible-coefficient constraints are then
    written down explicitly from the biorthogonal products.

    Raises NotInteriorError when no subset admits ``psi``.
    """
    c = _matrix(c, "demand matrix")
    psi = _vector(psi, "target vector")
    n, l = c.shape
    if psi.shape[0] != n:
        raise ValueError("target vector length does not match demand rows")
    r = matrix_rank(c)
    if r == 0:
        raise NotInteriorError("demand matrix is zero")
    scale = max(1.0, float(np.max(np.abs(psi))))

    chosen = None
    for subset in itertools.combinations(range(l), r):
        g = c[:, subset]
        if matrix_rank(g) < r:
            continue
        f = biorthogonal_system(g)
        products = f.T @ psi
        head = products[:r]
        if np.any(head <= POSITIVE_TOL * scale):
            continue
        if float(np.max(np.abs(psi - g @ head))) > SPAN_TOL * scale:
            continue
        chosen = (subset, f, head)
        break
    if chosen is None:
        raise NotInteriorError(
            "target vector is not interior to the cone of any independent column subset"
        )

    subset, f, psi_products = chosen
    free = tuple(j for j in range(l) if j not in subset)

    z_base = np.zeros(l)
    z_base[list(subset)] = psi_products
    basis = [z_base]

    w = np.zeros((r, len(free)))
    for pos, j in enumerate(free):
        col_products = (f.T @ c[:, j])[:r]
        positive = col_products > 0.0
        if np.any(positive):
            y_star = float(np.min(psi_products[positive] / col_products[positive]))
        else:
            y_star = 1.0
        z = np.zeros(l)
        z[list(subset)] = psi_products - col_products * y_star
        z[j] = y_star
        # clip elimination dust; non-negativity holds exactly in real arithmetic
        z[(z < 0.0) & (np.abs(z) < 1e-15 * scale)] = 0.0
        basis.append(z)
        w[:, pos] = col_products * y_star

    return SolutionFamily(
        rank=r,
        subset=subset,
        free_columns=free,
        basis=tuple(basis),
        constraint_matrix=w,
        constraint_rhs=psi_products.copy(),
    )
