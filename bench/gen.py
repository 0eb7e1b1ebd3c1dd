"""Seeded generator of balanced input-output value tables.

Every table is built from a value-unit technology ``A`` (column ``i`` holds
the inputs per unit of value of good ``i``, column sums ``s_i`` in (0, 1))
and a gross output ``X``. Flows are ``Z = A diag(X)``, value added is
``Delta = X - 1^T Z`` and net final demand is ``X - Z 1``, so both
accounting identities hold by construction. The generator writes the CSV
itself (shortest round-trip floats) and checks its own invariants before a
table is used: both balances, a strongly connected support graph and, for
tables taxed from the balanced family, a unit-price clearing residual at
most 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import connected_components

BALANCE_TOL = 1e-12          # relative gap of the generated identities
UNIT_PRICE_TOL = 1e-8        # the clearing residual analyze accepts as sustainable
TAX_SHARE = 0.3              # T1 / Delta of fixed-share tables


class GeneratorError(RuntimeError):
    """A generated table broke one of its own invariants."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GeneratorError(message)


@dataclass(frozen=True)
class Spec:
    """How one table of a workload is made."""

    n: int
    density: float = 1.0           # share of non-zero entries before the forced cycle
    coupling: float | None = None  # two dense blocks, off-block share of each column sum
    taxes: str = "share"           # "share": T1 = TAX_SHARE Delta; "balanced": tax family
    output: str = "leontief"       # "leontief": X = (E-A)^-1 c; "sustainable": X = A (E-A)^-1 alpha
    coarse: int = 4                # sectors of the aggregation map


@dataclass(frozen=True, eq=False)
class Table:
    """A generated table: its spec, the written arrays and the CSV/map paths."""

    spec: Spec
    label: str
    z: np.ndarray
    x: np.ndarray
    t1: np.ndarray
    z1: np.ndarray
    c: np.ndarray
    e: np.ndarray
    i: np.ndarray
    assignment: np.ndarray   # fine sector -> coarse sector, 0-based
    path: Path
    map_path: Path

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def a(self) -> np.ndarray:
        """Value technology exactly as a reader of the CSV recomputes it."""
        return self.z / self.x[None, :]

    @property
    def delta(self) -> np.ndarray:
        return self.t1 + self.z1


def technology(rng: np.random.Generator, spec: Spec) -> np.ndarray:
    n = spec.n
    a = rng.uniform(0.05, 1.0, (n, n))
    if spec.density < 1.0:
        a[rng.uniform(size=(n, n)) >= spec.density] = 0.0
    cycle = np.arange(n)
    nxt = (cycle + 1) % n
    missing = a[nxt, cycle] == 0.0
    a[nxt[missing], cycle[missing]] = rng.uniform(0.05, 1.0, int(missing.sum()))
    if spec.coupling is None:
        s = rng.uniform(0.35, 0.75, n)
        return a * (s / a.sum(axis=0))[None, :]
    # Off-block entries carry exactly the share `coupling` of every column
    # sum, so the slow mode of the Perron iterations on the table is set by
    # the coupling and not by the seed. The blocks have unequal sizes, so a
    # uniform start vector excites that mode, and column sums in disjoint
    # ranges, so the two block spectral radii stay apart.
    cut = 2 * n // 5
    s = np.r_[rng.uniform(0.35, 0.5, cut), rng.uniform(0.6, 0.75, n - cut)]
    off = np.zeros((n, n), dtype=bool)
    off[:cut, cut:] = off[cut:, :cut] = True
    inner = np.where(off, 0.0, a)
    outer = np.where(off, a, 0.0)
    share = spec.coupling
    return (inner * ((1.0 - share) * s / inner.sum(axis=0))[None, :]
            + outer * (share * s / outer.sum(axis=0))[None, :])


def balanced_weights(a: np.ndarray) -> np.ndarray:
    """v > 0 with A v = s * v, sum v = 1, by one dense solve.

    ``A diag(1/s)`` is column-stochastic, so ``u = s * v`` is its Perron
    vector: replace one equation of ``(A diag(1/s) - E) u = 0`` by the
    normalization.
    """
    n = a.shape[0]
    s = a.sum(axis=0)
    m = a / s[None, :] - np.eye(n)
    m[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    v = np.linalg.solve(m, rhs) / s
    return v / v.sum()


def make_table(rng: np.random.Generator, spec: Spec, label: str, directory: Path) -> Table:
    n = spec.n
    a = technology(rng, spec)
    leontief = np.linalg.inv(np.eye(n) - a)
    if spec.output == "sustainable":
        x = a @ (leontief @ rng.uniform(0.5, 1.5, n))
    else:
        x = leontief @ rng.uniform(0.5, 1.5, n)
    z = a * x[None, :]
    delta = x - z.sum(axis=0)
    net_final = x - z.sum(axis=1)
    e = 0.1 * net_final
    i = 0.05 * net_final
    c = net_final - e + i
    if spec.taxes == "balanced":
        a_read = z / x[None, :]
        s = a_read.sum(axis=0)
        v = balanced_weights(a_read)
        c0 = rng.uniform(0.5, 0.9) * float(np.min(x / (v * s)))
        pi = 1.0 - c0 * v * s / x
    else:
        pi = np.full(n, TAX_SHARE)
    t1 = pi * delta
    z1 = delta - t1
    assignment = rng.permutation(np.arange(n) % spec.coarse)

    table = Table(spec, label, z, x, t1, z1, c, e, i, assignment,
                  directory / f"{label}.csv", directory / f"{label}.map")
    check_invariants(table)
    table.path.write_text(table_csv(table), encoding="utf-8")
    table.map_path.write_text(
        "".join(f"{f + 1} {k + 1}\n" for f, k in enumerate(assignment)), encoding="utf-8")
    return table


def check_invariants(t: Table) -> None:
    scale = np.maximum(1.0, np.abs(t.x))
    row_gap = np.max(np.abs(t.x - t.z.sum(axis=1) - (t.c + t.e - t.i)) / scale)
    col_gap = np.max(np.abs(t.z.sum(axis=0) - (t.x - t.delta)) / scale)
    require(row_gap <= BALANCE_TOL, f"{t.label}: row balance off by {row_gap:.3g}")
    require(col_gap <= BALANCE_TOL, f"{t.label}: column balance off by {col_gap:.3g}")
    require(bool(np.all(t.x > 0) and np.all(t.delta > 0) and np.all(t.c >= 0)),
            f"{t.label}: outputs, value added and consumption must be positive")
    n_comp, _ = connected_components(t.a > 0.0, directed=True, connection="strong")
    require(n_comp == 1, f"{t.label}: support graph has {n_comp} strong components")
    if t.spec.taxes == "balanced":
        a = t.a
        pi = t.t1 / t.delta
        supplied = (1.0 - pi) * t.x
        residual = a @ (supplied / a.sum(axis=0)) - supplied
        rel = float(np.max(np.abs(residual))) / max(1.0, float(np.max(t.x)))
        require(rel <= UNIT_PRICE_TOL, f"{t.label}: unit-price residual {rel:.3g}")


def table_csv(t: Table) -> str:
    names = [f"s{k + 1}" for k in range(t.n)]
    lines = [",".join(["sector", *names, "C", "E", "I", "X"])]
    for k in range(t.n):
        values = [*t.z[k], t.c[k], t.e[k], t.i[k], t.x[k]]
        lines.append(",".join([names[k], *(repr(float(v)) for v in values)]))
    lines.append(",".join(["T1", *(repr(float(v)) for v in t.t1)]))
    lines.append(",".join(["Z1", *(repr(float(v)) for v in t.z1)]))
    return "\n".join(lines) + "\n"
