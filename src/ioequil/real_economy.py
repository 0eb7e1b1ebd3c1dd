"""Value-indicator national tables: ingestion, validation and analysis.

CSV layout (UTF-8, exact column order):

    sector,<name_1>,...,<name_n>,C,E,I,X
    <name_k>,Z_k1,...,Z_kn,C_k,E_k,I_k,X_k      (n rows)
    T1,t_1,...,t_n
    Z1,w_1,...,w_n

Row k of Z holds deliveries of sector k into each producing sector, so
columns normalize by gross output: a_bar[k, i] = Z[k, i] / X[i]. Two
accounting identities are enforced on load: the row balance
X_k - sum_i Z_ki = C_k + E_k - I_k and the column balance
sum_k Z_ki = X_i - (T1_i + Z1_i).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import taxation
from .core import Technology, _vector
from .equilibrium import EquilibriumState, assemble_equilibrium
from .errors import BalanceError, ParseError, ZeroValueAddedError
from .taxation import TaxBoundsReport, tax_bounds, taxed_clearing_residual

DEFAULT_BALANCE_TOL = 1e-6    # relative; statistical tables carry rounding noise
SUSTAINABLE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class IOTable:
    """Economy snapshot in value indicators."""

    names: tuple[str, ...]
    z: np.ndarray
    big_x: np.ndarray
    t1: np.ndarray
    z1: np.ndarray
    consumption: np.ndarray
    exports: np.ndarray
    imports: np.ndarray

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def delta(self) -> np.ndarray:
        return self.t1 + self.z1

    @property
    def a_bar(self) -> np.ndarray:
        return self.z / self.big_x[None, :]

    @property
    def technology(self) -> Technology:
        return Technology(self.a_bar, units="value")


def balance_gaps(table: IOTable) -> tuple[np.ndarray, np.ndarray]:
    """Row and column accounting gaps per sector, in table units (unscaled).

    Row: X - sum Z - (C + E - I); column: sum Z - (X - Delta).
    """
    net_final = table.consumption + table.exports - table.imports
    row_gap = table.big_x - table.z.sum(axis=1) - net_final
    col_gap = table.z.sum(axis=0) - (table.big_x - table.delta)
    return row_gap, col_gap


def validate_table(table: IOTable, balance_tol: float = DEFAULT_BALANCE_TOL) -> None:
    """Check positivity and both accounting identities; raise BalanceError."""
    if np.any(table.big_x <= 0.0):
        bad = int(np.argmin(table.big_x))
        raise BalanceError(f"sector {table.names[bad]!r}: gross output must be strictly positive")
    if np.any(table.z < 0.0):
        k, i = np.unravel_index(int(np.argmin(table.z)), table.z.shape)
        raise BalanceError(f"flow Z[{table.names[k]!r} -> {table.names[i]!r}] is negative")
    scale = np.maximum(1.0, np.abs(table.big_x))
    row_gap, col_gap = balance_gaps(table)
    worst = int(np.argmax(np.abs(row_gap) / scale))
    if abs(row_gap[worst]) > balance_tol * scale[worst]:
        raise BalanceError(
            f"row balance fails for sector {table.names[worst]!r}: "
            f"X - sum Z - (C + E - I) = {row_gap[worst]:.6g}"
        )
    worst = int(np.argmax(np.abs(col_gap) / scale))
    if abs(col_gap[worst]) > balance_tol * scale[worst]:
        raise BalanceError(
            f"column balance fails for sector {table.names[worst]!r}: "
            f"sum Z - (X - Delta) = {col_gap[worst]:.6g}"
        )


def loads_table(text: str, balance_tol: float = DEFAULT_BALANCE_TOL) -> IOTable:
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


def load_table(path: str | Path, balance_tol: float = DEFAULT_BALANCE_TOL) -> IOTable:
    """Load and validate a table from a CSV file."""
    return loads_table(Path(path).read_text(encoding="utf-8"), balance_tol)


def dumps_table(table: IOTable) -> str:
    """Serialize a table to CSV text; floats use shortest round-trip form."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["sector", *table.names, "C", "E", "I", "X"])
    for k in range(table.n):
        writer.writerow([
            table.names[k],
            *(repr(float(v)) for v in table.z[k]),
            repr(float(table.consumption[k])),
            repr(float(table.exports[k])),
            repr(float(table.imports[k])),
            repr(float(table.big_x[k])),
        ])
    writer.writerow(["T1", *(repr(float(v)) for v in table.t1)])
    writer.writerow(["Z1", *(repr(float(v)) for v in table.z1)])
    return out.getvalue()


@dataclass(frozen=True)
class RealEconomyReport:
    """Existing-taxation analysis of a value table."""

    pi0: np.ndarray
    sustainable_at_unit_prices: bool
    sustainability_residual: float
    bounds: TaxBoundsReport
    equilibrium: EquilibriumState
    excess_level: float
    supply: np.ndarray


def analyze(table: IOTable, p_hat=None) -> RealEconomyReport:
    """Full existing-taxation workflow on a value table.

    Computes the observed taxation vector, tests the exact sustainability
    equalities at the given relative prices (unit by default), and when they
    fail assembles the minimum-excess equilibrium over the after-tax supply
    psi = (1 - pi0) * X; the taxation bounds test runs either way.
    """
    delta = table.delta
    for i, value in enumerate(delta):
        if value <= 0.0:
            raise ZeroValueAddedError(i, f"sector {table.names[i]!r} has non-positive value added")
    pi0 = taxation.real_tax_vector(table)
    if np.any(pi0 >= 1.0) or np.any(pi0 < 0.0):
        raise BalanceError("observed taxation T1/Delta must lie in [0, 1)")

    tech = table.technology
    big_x = table.big_x
    if p_hat is not None:
        p_hat = _vector(p_hat, "relative prices")
        if p_hat.shape[0] != table.n or np.any(p_hat <= 0.0):
            raise ValueError("relative prices must be strictly positive n-vector")
        # rescale to the economy measured at the relative prices
        a_hat = (p_hat[:, None] * tech.a) / p_hat[None, :]
        tech = Technology(a_hat, units="value")
        big_x = p_hat * big_x

    column_margins = 1.0 - tech.a.sum(axis=0)
    residual = taxed_clearing_residual(tech, big_x, pi0)
    rel_residual = float(np.max(np.abs(residual))) / max(1.0, float(np.max(big_x)))
    sustainable = bool(rel_residual <= SUSTAINABLE_TOL and np.all(column_margins > 0.0))

    psi = (1.0 - pi0) * big_x
    if sustainable:
        s = tech.a.sum(axis=0)
        z = psi / s
        n = table.n
        p = np.full(n, 1.0 / n)
        state = EquilibriumState(
            z=z,
            binding=tuple(range(n)),
            slack=(),
            p=p,
            b_bar=psi.copy(),
            p_u=p,
            excess_level=0.0,
            mode="support",
        )
    else:
        state = assemble_equilibrium(tech, psi)

    bounds = tax_bounds(pi0, delta / table.big_x, t_value=table.technology)
    return RealEconomyReport(
        pi0=pi0,
        sustainable_at_unit_prices=sustainable,
        sustainability_residual=rel_residual,
        bounds=bounds,
        equilibrium=state,
        excess_level=state.excess_level,
        supply=psi,
    )
