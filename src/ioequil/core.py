"""Non-negative matrix predicates, Leontief solves and polyhedral cones.

Everything downstream builds on four primitives: strong connectivity of the
support graph, the Leontief-solve productivity test, membership of a vector
in the interior of a simplicial cone, and the complete family of strictly
positive solutions of ``C y = psi`` when ``psi`` lies inside the cone
spanned by the columns of ``C``.

Linear-algebra policy: library factorizations, not hand-written loops.
Square matrices are singular unless ``nonsingular_lu`` accepts their LU;
rectangular ranks count the pivots of a column-pivoted QR (Businger & Golub)
above ``PIVOT_RTOL`` times the largest absolute entry (``pivoted_rank``),
and so does the singular sustainability solve on its one QR of A^T;
indecomposability is a single strong component of the support digraph,
decided in numpy by two breadth-first reachability sweeps from sector 0
(one along the edges, one against them; O(n^2), no scipy). For A itself the
LU verdict and its factors are cached as ``Technology.lu``, on which the
nonsingular sustainability solve runs LAPACK ``getrs`` and from which the
minimum-excess QP's start reads. The coordinates of a vector in a set
of independent columns come from one least-squares solve
(``np.linalg.lstsq``); the columns first pass the full-column-rank check,
and a separate max-norm residual test decides span membership.
Five square solves skip ``nonsingular_lu`` for plain ``np.linalg.solve``:
``is_productive``, ``leontief_solve``, ``aggregation.relative_prices``, the
Noda step and ``inequality_solution``'s polish. ``check`` and ``aggregate``
load no scipy, and Noda's ``hi E - A`` is near-singular by design.

Fixed-point policy: a Perron vector whose multiplier is known to be one
is one verified LU solve, ``perron_vector``, with exact zeros on zero rows
and no iteration cap. It has two callers. ``sustainability.consumption_prices``
is the one price map p_i = (z_i / ell_i) <A_i, p>: support prices on the
binding minor with ell = b, generalized prices with ell = A z, certificate
prices with z = b1 and ell = A b1. ``balance.balanced_eigenvector`` gives
the balanced weights.
Productivity needs no eigenvalue: ``is_productive`` decides from one solve
of ``(E - A) x = 1``. Only the spectral radius that ``check`` reports,
whose root is unknown, iterates, and it certifies its answer: for p > 0
the Collatz-Wielandt bracket ``min(Ap/p) <= rho <= max(Ap/p)`` must close
to ``8 n eps`` relative. ``spectral_radius`` takes ``ceil(n / 3)`` shifted
power steps, about the flops of one LU, then at most ``NODA_STEPS`` Noda
steps (one LU solve each), and raises ``NoConvergenceError`` (CLI exit 3)
naming the bracket if it is still open. A decomposable A, where no
positive p need exist, gets ``max |eigvals(A)|`` instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    DecomposableError,
    DegenerateGeneratorsError,
    HypothesisViolatedError,
    NoConvergenceError,
    NotInteriorError,
)

# Numerical policy: one documented constant per decision.
PIVOT_RTOL = 1e-12        # rank decisions: relative QR pivot, LU reciprocal condition
POSITIVE_TOL = 1e-10      # strict positivity after max-norm normalization
SPAN_TOL = 1e-9           # max-norm residual for span membership
NODA_STEPS = 16           # Noda solves after the power steps before the radius bracket fails
MULTIPLIER_TOL = 1e-10    # max-norm residual |M p - p| of a Perron vector, relative to max p


def _vector(x, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _positive_vector(x, n: int, name: str) -> np.ndarray:
    v = _vector(x, name)
    if v.shape[0] != n:
        raise ValueError(f"{name} length does not match sector count")
    if np.any(v <= 0.0):
        raise ValueError(f"{name} must be strictly positive")
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
    """Square non-negative direct-cost matrix; column ``i`` holds the inputs
    consumed to produce one unit of good ``i``.

    ``indecomposable``, ``productive`` and ``lu`` are decided once, on
    first use, and cached. The cache cannot go stale: ``__post_init__``
    keeps a read-only private copy of A, so no caller can change the matrix
    behind a decided fact, and the LU factors are read-only too, so no
    reader can overwrite them in place.
    """

    a: np.ndarray

    def __post_init__(self):
        a = _matrix(self.a, "direct-cost matrix")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"direct-cost matrix must be square, got {a.shape}")
        if np.any(a < 0):
            raise ValueError("direct-cost matrix must be non-negative")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @cached_property
    def indecomposable(self) -> bool:
        return is_indecomposable(self.a)

    def require_indecomposable(self, what: str) -> None:
        """Raise DecomposableError naming ``what`` unless A is indecomposable."""
        if not self.indecomposable:
            raise DecomposableError(f"{what} requires an indecomposable matrix")

    @cached_property
    def productive(self) -> bool:
        return is_productive(self)

    @cached_property
    def lu(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``nonsingular_lu(A)``: read-only factors ``(lu, piv)``, or None for a singular A."""
        factors = nonsingular_lu(self.a)
        if factors is not None:
            for f in factors:
                f.setflags(write=False)
        return factors


class ConeStatus(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class ConeMembership:
    status: ConeStatus
    coefficients: np.ndarray | None


def matrix_rank(m) -> int:
    """Rank from a column-pivoted QR factorization (LAPACK ``geqp3``).

    Counts the diagonal entries of R that exceed ``PIVOT_RTOL`` times the
    largest absolute entry of the matrix, which keeps the decision
    deterministic and dimension-free.
    """
    a = _matrix(m)
    if a.size == 0:
        return 0
    from scipy.linalg import qr

    r, _ = qr(a, mode="r", pivoting=True)
    return pivoted_rank(r, float(np.max(np.abs(a))))


def pivoted_rank(r: np.ndarray, scale: float) -> int:
    """Pivots of a column-pivoted QR's R above ``PIVOT_RTOL`` times the matrix's max |entry|."""
    return int(np.count_nonzero(np.abs(np.diag(r)) > PIVOT_RTOL * scale))


def nonsingular_lu(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """LU factors ``(lu, piv)`` of a square matrix (LAPACK ``getrf``), or None when a
    pivot is zero or ``gecon``'s 1-norm reciprocal condition is at most ``PIVOT_RTOL``."""
    from scipy.linalg.lapack import dgecon, dgetrf

    lu, piv, info = dgetrf(m)
    singular = info != 0 or dgecon(lu, np.linalg.norm(m, 1))[0] <= PIVOT_RTOL
    return None if singular else (lu, piv)


def is_indecomposable(t: Technology | np.ndarray) -> bool:
    """True iff the support digraph of the square matrix is strongly connected.

    Two breadth-first sweeps from sector 0, one along the edges of
    ``A > 0`` and one against them, must each reach every sector. Every
    sector enters a frontier once, so the work is O(n^2). A 1x1 matrix
    counts as indecomposable only if its entry is positive (the node needs
    a self-loop for the Perron machinery downstream); a 0x0 matrix does
    not count. A non-square matrix raises ValueError.
    """
    a = t.a if isinstance(t, Technology) else _matrix(t)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if n <= 1:
        return bool(n == 1 and a[0, 0] > 0.0)
    s = a > 0.0
    return _reaches_all(s, along=True) and _reaches_all(s, along=False)


def _reaches_all(s: np.ndarray, *, along: bool) -> bool:
    """True iff a frontier sweep from node 0 of the digraph ``s`` reaches every node.

    ``along`` follows the edges ``i -> j`` with ``s[i, j]`` by gathering
    rows; otherwise the sweep gathers columns, which follows the edges
    backwards without forming the transpose.
    """
    n = s.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    reached = 1
    while reached < n:
        step = s[frontier].any(axis=0) if along else s[:, frontier].any(axis=1)
        frontier = np.flatnonzero(step & ~seen)
        if not frontier.size:
            return False
        seen[frontier] = True
        reached += frontier.size
    return True


def perron_vector(m: np.ndarray, what: str) -> np.ndarray:
    """Fixed point ``M p = p`` on the simplex of a non-negative M with multiplier one.

    Zero rows of M force zero entries. The other rows L solve
    ``(E - M_LL + 1 1^T) p_L = 1`` on the factors of ``nonsingular_lu``;
    that matrix is nonsingular exactly when the eigenvalue one is simple.
    Negative dust within ``POSITIVE_TOL * max p`` is zeroed; then p must be
    finite, non-negative and satisfy ``|M p - p| <= MULTIPLIER_TOL * max p``.
    Failures raise HypothesisViolatedError naming ``what``.
    """
    from scipy.linalg.lapack import dgetrs

    p = np.zeros(m.shape[0])
    live = np.flatnonzero(np.any(m != 0.0, axis=1))
    if live.size:
        factors = nonsingular_lu(np.eye(live.size) - m[np.ix_(live, live)] + 1.0)
        if factors is None:
            raise HypothesisViolatedError(f"{what}: the eigenvalue one is not simple")
        p[live] = dgetrs(*factors, np.ones(live.size))[0]
    top = float(np.max(p))
    p[(p < 0.0) & (p >= -POSITIVE_TOL * top)] = 0.0
    if not (np.all(np.isfinite(p)) and np.all(p >= 0.0) and top > 0.0
            and float(np.max(np.abs(m @ p - p))) <= MULTIPLIER_TOL * top):
        raise HypothesisViolatedError(f"{what}: no non-negative fixed point with multiplier one")
    return p


def spectral_radius(t: Technology | np.ndarray) -> float:
    """Largest eigenvalue modulus of a non-negative square matrix.

    For an indecomposable A the answer is certified: every p > 0 gives the
    Collatz-Wielandt bracket ``min(Ap/p) <= rho <= max(Ap/p)``, and the
    midpoint is returned once the width is at most ``8 n eps`` times the
    upper end. Shifted power steps ``p <- (p + Ap) / sum(p + Ap)`` run from
    the barycentre (the shift breaks the cycling of periodic support
    patterns). The bracket is tested only once the total has settled to
    that width: the total minus one lies in the bracket, and successive
    power brackets are nested, so a closed bracket settles the total. After
    ``ceil(n / 3)`` steps, about the flops of one LU, Noda steps take over:
    ``(hi E - A) y = p``, ``p <- y / max y``, with hi the upper end,
    converging quadratically (Noda 1971; Elsner 1976). A bracket still open
    after ``NODA_STEPS`` of them, or a solve that fails or loses positivity,
    raises NoConvergenceError naming the bracket.

    A decomposable A may have no positive Perron vector, so its bracket need
    not close; its radius is ``max |np.linalg.eigvals(A)|``. A zero matrix is
    decomposable and takes this branch, answering 0 (0x0 included). An array
    is wrapped in a ``Technology``, which validates it.
    """
    t = t if isinstance(t, Technology) else Technology(t)
    a = t.a
    if not t.indecomposable:
        return float(np.max(np.abs(np.linalg.eigvals(a)), initial=0.0))
    n = a.shape[0]
    width = 8.0 * n * np.finfo(float).eps
    p = np.full(n, 1.0 / n)
    total = 1.0
    for _ in range(-(-n // 3)):
        ap = a @ p
        q = p + ap
        previous, total = total, float(q.sum())
        # the scalar test runs first: it is cheaper and usually fails
        if abs(total - previous) <= width * total:
            lo, hi = _collatz_wielandt(ap, p)
            if hi - lo <= width * hi:
                return 0.5 * (lo + hi)
        p = q / total
    for solves in range(NODA_STEPS + 1):
        lo, hi = _collatz_wielandt(a @ p, p)
        if hi - lo <= width * hi:
            return 0.5 * (lo + hi)
        if solves == NODA_STEPS:
            break
        try:
            y = np.linalg.solve(hi * np.eye(n) - a, p)
        except np.linalg.LinAlgError:
            break
        top = float(y.max())
        if not (y.min() > 0.0 and top < np.inf):    # the bracket needs p > 0
            break
        p = y / top
    raise NoConvergenceError(
        f"spectral radius bracket [{lo!r}, {hi!r}] still open after {solves} Noda "
        f"steps: relative width {(hi - lo) / hi:.3g} above {width:.3g}")


def _collatz_wielandt(ap: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """The bracket ``(min(Ap/p), max(Ap/p))`` around the spectral radius."""
    ratio = ap / p
    return float(ratio.min()), float(ratio.max())


def is_productive(t: Technology) -> bool:
    """True iff the Leontief inverse maps the unit vector to a positive output.

    For non-negative A, ``x = (E - A)^-1 1 > 0`` holds exactly when the
    spectral radius is below one (Hawkins-Simon), and then
    ``rho <= 1 - 1 / max x`` (Collatz-Wielandt), so one solve decides. A
    technology with ``max x >= 1 / POSITIVE_TOL``, whose radius may lie
    within ``POSITIVE_TOL`` of one, counts as not productive, as does a
    singular ``E - A``.
    """
    n = t.n
    try:
        x = np.linalg.solve(np.eye(n) - t.a, np.ones(n))
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(x > 0.0) and np.max(x, initial=0.0) * POSITIVE_TOL < 1.0)


def leontief_solve(t: Technology, c) -> np.ndarray:
    """Gross output x with ``(E - A) x = c`` for a productive technology."""
    c = _vector(c, "final consumption")
    if c.shape[0] != t.n:
        raise ValueError("final consumption length does not match sector count")
    if np.any(c < 0):
        raise ValueError("final consumption must be non-negative")
    if not t.productive:
        raise HypothesisViolatedError("technology is not productive; Leontief solve undefined")
    return np.linalg.solve(np.eye(t.n) - t.a, c)


def cone_membership(generators, b) -> ConeMembership:
    """Locate ``b`` relative to the cone spanned by independent generators.

    Parameters
    ----------
    generators : sequence of m <= n non-negative n-vectors, or an n x m array.
    b : query n-vector.

    Returns
    -------
    ConeMembership with status INTERIOR (all coordinates of ``b`` in the
    generators strictly positive and ``b`` inside the span), BOUNDARY
    (non-negative coordinates with at least one zero), or OUTSIDE.
    Coefficients are those coordinates, from one least-squares solve,
    whenever status is not OUTSIDE.
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

    head = np.linalg.lstsq(g, b, rcond=None)[0]
    scale = max(1.0, float(np.max(np.abs(b))))
    in_span = float(np.max(np.abs(b - g @ head))) <= SPAN_TOL * scale

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
    written down explicitly from the coordinates of ``psi`` and of every
    free column in the chosen subset.

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

    for subset in itertools.combinations(range(l), r):
        try:
            membership = cone_membership(c[:, subset], psi)
        except DegenerateGeneratorsError:
            continue
        if membership.status is ConeStatus.INTERIOR:
            break
    else:
        raise NotInteriorError(
            "target vector is not interior to the cone of any independent column subset"
        )

    psi_products = membership.coefficients
    free = tuple(j for j in range(l) if j not in subset)
    # every column of C lies in the span of the rank-r subset: exact coordinates
    free_products = np.linalg.lstsq(c[:, subset], c[:, free], rcond=None)[0]

    z_base = np.zeros(l)
    z_base[list(subset)] = psi_products
    basis = [z_base]

    w = np.zeros((r, len(free)))
    for pos, j in enumerate(free):
        col_products = free_products[:, pos]
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
