"""Shared generators and independent oracles for the test suite.

Every random test draws from a seeded generator so the suite is
deterministic; oracles here stay independent of the library code paths
they check (dense eigenvalues, boolean matrix powers, brute-force
active-set enumeration).
"""

from __future__ import annotations

from importlib import resources

import numpy as np
import pytest

from ioequil import Technology


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


def nullspace_oracle(m: np.ndarray) -> np.ndarray:
    if m.shape[0] == 0:
        return np.eye(m.shape[1])
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    rank = int(np.sum(s > max(m.shape) * (s[0] if s.size else 0.0) * 1e-12))
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
                basis = nullspace_oracle(block)
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


# Reference copies of the two power-iteration loops that
# core.simplex_fixed_point replaced: the price fixed point (equilibrium)
# and the spectral radius on A + E (core). They pin the arithmetic of the
# shared loop.

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


def spectral_radius_reference(a: np.ndarray, rtol: float = 1e-12,
                              max_iter: int = 10 ** 6) -> float:
    n = a.shape[0]
    if not np.any(a):
        return 0.0
    shifted = a + np.eye(n)
    x = np.full(n, 1.0 / n)
    lam = 1.0
    for _ in range(max_iter):
        y = shifted @ x
        lam_new = float(np.sum(y))
        y /= lam_new
        if abs(lam_new - lam) <= rtol * abs(lam_new) and np.max(np.abs(y - x)) <= rtol:
            return lam_new - 1.0
        x, lam = y, lam_new
    return lam - 1.0


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


def price_map(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The map diag(z / A z) A^T of prices_from_consumption (zero rows where z = 0)."""
    b_bar = a @ z
    weights = np.where(z > 0.0, z / np.where(b_bar > 0.0, b_bar, 1.0), 0.0)
    return weights[:, None] * a.T
