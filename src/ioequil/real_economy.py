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

import bisect
import contextlib
import csv
import io
import threading
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import taxation
from .core import Technology
from .equilibrium import EquilibriumState, assemble_equilibrium
from .errors import BalanceError, HypothesisViolatedError, ParseError, PipelineError
from .sustainability import CLEARING_TOL, clearing_terms
from .taxation import TaxBoundsReport, tax_bounds

DEFAULT_BALANCE_TOL = 1e-6    # relative; statistical tables carry rounding noise

# The plain reader: the bytes of a plain cell, the cells per row chunk, and
# the smallest normal double as a biased x87 exponent (16383 - 1022)
_NUMBER_BYTES = b"0123456789.+-eE"
_CHUNK_CELLS = 1 << 13
_X87_MIN_NORMAL_EXP = 15361


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

    @cached_property
    def technology(self) -> Technology:
        return Technology(self.a_bar)


def balance_gaps(table: IOTable) -> tuple[np.ndarray, np.ndarray]:
    """Row and column accounting gaps per sector, in table units (unscaled).

    Row: X - sum Z - (C + E - I); column: sum Z - (X - Delta).
    """
    net_final = table.consumption + table.exports - table.imports
    row_gap = table.big_x - table.z.sum(axis=1) - net_final
    col_gap = table.z.sum(axis=0) - (table.big_x - table.delta)
    return row_gap, col_gap


def validate_table(table: IOTable, balance_tol: float = DEFAULT_BALANCE_TOL) -> None:
    """Check finiteness, positivity and both accounting identities; raise BalanceError."""
    for field in ("z", "big_x", "t1", "z1", "consumption", "exports", "imports"):
        values = getattr(table, field)
        if not np.isfinite(values).all():
            at = np.unravel_index(int(np.argmin(np.isfinite(values))), values.shape)
            where = " -> ".join(repr(table.names[k]) for k in at)
            raise BalanceError(f"{field}[{where}] is not a finite number: {values[at]}")
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


def _split_rows(text: str) -> list[tuple[str, str | list[str]]]:
    """Non-blank rows as (first cell, the cells after it).

    Without quotes or carriage returns a row is a plain comma split of its
    line, so the cells after the first stay one unsplit string (an empty list
    when there are none). Otherwise ``csv`` applies its quoting rules to
    every row, and a row it refuses raises ParseError. A row is blank when
    all its cells are whitespace.
    """
    if '"' in text or "\r" in text:
        rows = csv.reader(io.StringIO(text))
        try:
            return [(row[0], row[1:]) for row in rows if row and any(cell.strip() for cell in row)]
        except csv.Error as exc:
            raise ParseError(f"CSV line {rows.line_num}: {exc}") from exc
    out = []
    for line in text.split("\n"):
        first, comma, rest = line.partition(",")
        if first.strip() or rest.replace(",", "").strip():
            out.append((first, rest if comma else []))
    return out


def _cells(rest: str | list[str]) -> list[str]:
    return rest.split(",") if isinstance(rest, str) else rest


def _scan_rows(rows: list, names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Flow block and footers read row by row, one ``float`` per cell.

    Checks each row's label and cell count before its cells, in file order,
    and raises ParseError naming the first fault.
    """
    n = len(names)
    flows = np.empty((n, n + 4))
    footers = np.empty((2, n))
    for k, (first, rest) in enumerate(rows):
        label = first.strip()
        if k < n:
            if label != names[k]:
                raise ParseError(f"data row {k + 1}: expected sector {names[k]!r}, got {label!r}")
            where, out = f"row {names[k]!r}", flows[k]
        else:
            expected = ("T1", "Z1")[k - n]
            if label != expected:
                raise ParseError(f"footer row {k + 1}: expected label {expected!r}, got {label!r}")
            where, out = f"footer {expected}", footers[k - n]
        cells = _cells(rest)
        if len(cells) != out.shape[0]:
            raise ParseError(f"{where}: expected {out.shape[0]} values, got {len(cells)}")
        for j, cell in enumerate(cells):
            cell = cell.strip()
            try:
                out[j] = float(cell)
            except ValueError as exc:
                raise ParseError(f"{where}, column {j + 1}: not a number: {cell!r}") from exc
    return flows, footers


def _x87_long_double() -> bool:
    """numpy's long double is x87 extended: a 64-bit significand in 16 bytes."""
    finfo = np.finfo(np.longdouble)
    return finfo.nmant == 63 and finfo.dtype.itemsize == 16


def _strtold(rests: list[str], commas: bytes) -> np.ndarray:
    """Cells of plain rows as long doubles; ValueError unless the rows are plain.

    Rows are plain when they hold only ASCII digits, signs, points and
    exponent marks between commas, and their commas, row by row, are
    ``commas``. glibc ``strtold`` reads the cells without the interpreter lock.
    """
    data = "\n".join(rests).encode("ascii", "replace")
    if data.translate(None, _NUMBER_BYTES) != commas:
        raise ValueError("rows are not plain")
    return np.fromstring(data.replace(b"\n", b","), dtype=np.longdouble, sep=",")


def _inexact(out: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Round ``cells`` into ``out``; the indices where that may miss ``float``.

    ``cells`` are correctly rounded to a 64-bit significand. Rounding them
    on to 53 bits gives the correctly rounded double unless the value lies
    on a double midpoint (low 11 significand bits 0x400) or below the normal
    doubles, where a double has fewer bits (Clinger, PLDI 1990). The overflow
    threshold is such a midpoint, so overflow needs no case of its own.
    """
    out[...] = cells
    words = cells.view(np.uint64)
    significand, exponent = words[0::2], words[1::2] & np.uint64(0x7FFF)
    redo = (significand & np.uint64(0x7FF)) == np.uint64(0x400)
    redo |= (exponent < np.uint64(_X87_MIN_NORMAL_EXP)) & (significand != np.uint64(0))
    return np.flatnonzero(redo)


def _read_plain(rests: list[str], n: int) -> np.ndarray | None:
    """Flow rows then footers as one vector in file order, or None.

    Needs an x87 long double, which the caller checks. The caller reads a
    table of one chunk alone; for more it starts one worker, and each thread
    claims the next row chunk until none is left, rounds it to double and
    re-reads with ``float`` the cells ``_inexact`` names. The worker is
    joined before return, and what it raised is raised here. None, on rows
    that are not plain or do not parse, leaves them to ``np.loadtxt`` and
    the per-cell scan.
    """
    widths = [n + 4] * n + [n, n]
    offsets = np.cumsum([0, *widths]).tolist()
    # flow rows per chunk: all of them when the table fits in one chunk, else
    # at most _CHUNK_CELLS cells and at least two chunks
    step = n if n * (n + 6) <= _CHUNK_CELLS else max(1, min(_CHUNK_CELLS // (n + 4), -(-n // 2)))
    cuts = [*range(0, n, step), n + 2]   # the footers close the last chunk
    claims, lock = iter(zip(cuts, cuts[1:])), threading.Lock()
    out = np.empty(offsets[-1])
    faults = []   # what a thread raised; ValueError: rows that are not plain or do not parse

    def read() -> None:
        try:
            with np.errstate(over="ignore"):   # thread-local: each thread sets its own
                while not faults:
                    with lock:
                        a, b = next(claims, (0, 0))
                    if a == b:
                        return
                    lo, hi = offsets[a], offsets[b]
                    cells = _strtold(rests[a:b], b"\n".join([b"," * (w - 1) for w in widths[a:b]]))
                    if cells.size != hi - lo:
                        raise ValueError("a chunk with a cell too many or too few")
                    for j in (lo + _inexact(out[lo:hi], cells)).tolist():
                        row = bisect.bisect_right(offsets, j, a, b) - 1
                        out[j] = float(rests[row].split(",")[j - offsets[row]])
        except BaseException as exc:   # judged on the caller after the join
            faults.append(exc)

    worker = threading.Thread(target=read) if len(cuts) > 2 else None
    if worker:
        worker.start()
    read()
    if worker:
        worker.join()
    for fault in faults:
        if not isinstance(fault, ValueError):
            raise fault
    return None if faults else out


def _refuse_non_finite(rows: list, names: tuple[str, ...], flows: np.ndarray, footers: np.ndarray) -> None:
    """ParseError naming the first cell, in file order, that is not finite."""
    finite = [np.isfinite(flows), np.isfinite(footers)]
    if finite[0].all() and finite[1].all():
        return
    n = len(names)
    k = int(np.argmin(np.concatenate([block.all(axis=1) for block in finite])))
    j = int(np.argmin(finite[0][k] if k < n else finite[1][k - n]))
    where = f"row {names[k]!r}" if k < n else f"footer {('T1', 'Z1')[k - n]}"
    cell = _cells(rows[k][1])[j].strip()
    raise ParseError(f"{where}, column {j + 1}: not a finite number: {cell!r}")


def _read_numbers(rows: list, names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Flow block (n x (n + 4)) and footers (2 x n) of the rows after the header.

    With every label right, rows go to ``_read_plain``; rows it does not
    take are one ``np.loadtxt`` call per block. ``loadtxt`` reads a subset
    of the spellings ``float`` reads, to the same double, and a block of the
    right shape has the right cell count in every row. Otherwise the per-row
    scan words the first fault, or reads what only ``float`` takes.
    ``comments=None`` keeps ``2#x`` an error.
    """
    n = len(names)
    rests = [rest for _, rest in rows]
    if ([first.strip() for first, _ in rows] == [*names, "T1", "Z1"]
            and all(isinstance(rest, str) for rest in rests) and "" not in rests):
        cells = _read_plain(rests, n) if _x87_long_double() else None
        if cells is not None:
            return cells[:n * (n + 4)].reshape(n, n + 4), cells[n * (n + 4):].reshape(2, n).copy()
        with contextlib.suppress(ValueError):
            flows = np.loadtxt(rests[:n], delimiter=",", comments=None, ndmin=2)
            footers = np.loadtxt(rests[n:], delimiter=",", comments=None, ndmin=2)
            if flows.shape == (n, n + 4) and footers.shape == (2, n):
                return flows, footers
    return _scan_rows(rows, names)


def loads_table(text: str, balance_tol: float = DEFAULT_BALANCE_TOL) -> IOTable:
    """Parse a table from CSV text and validate it.

    Plain rows, of ASCII digits, signs, points and exponent marks between
    commas, are read by numpy's long-double parser and rounded to the double
    ``float`` reads, with one worker thread, joined before return, on a
    table of more than one chunk. Other rows take one ``np.loadtxt`` call
    per block. A per-cell ``float`` scan runs only when ``loadtxt`` refuses
    a block: it names the bad cell, or reads a spelling only ``float``
    takes, such as ``1_000``. Text with quotes or carriage returns is split
    by ``csv`` and scanned. A cell that reads as nan or infinity is refused.
    """
    rows = _split_rows(text)
    if not rows:
        raise ParseError("empty table")
    header = [cell.strip() for cell in (rows[0][0], *_cells(rows[0][1]))]
    if header[0] != "sector":
        raise ParseError(f"header must start with 'sector', got {header[0]!r}")
    if len(header) < 6:
        raise ParseError("header too short: need sector,<names...>,C,E,I,X")
    if header[-4:] != ["C", "E", "I", "X"]:
        raise ParseError(f"header must end with C,E,I,X, got {header[-4:]}")
    names = tuple(header[1:-4])
    n = len(names)
    if len(rows) != n + 3:
        raise ParseError(f"expected {n} data rows plus T1 and Z1 footers, got {len(rows) - 1} rows")

    flows, footers = _read_numbers(rows[1:], names)
    _refuse_non_finite(rows[1:], names, flows, footers)
    # contiguous copies: the same memory layout the per-cell reader produced
    trailing = np.ascontiguousarray(flows[:, n:])
    table = IOTable(
        names=names,
        z=np.ascontiguousarray(flows[:, :n]),
        big_x=trailing[:, 3],
        t1=footers[0],
        z1=footers[1],
        consumption=trailing[:, 0],
        exports=trailing[:, 1],
        imports=trailing[:, 2],
    )
    validate_table(table, balance_tol)
    return table


def decode_table(data: bytes) -> str:
    """UTF-8 text of a table file with universal newlines, as ``read_text`` gives.

    A leading byte-order mark, which spreadsheet "CSV UTF-8" exports write,
    is dropped. Text with no carriage return (LF-only files) is returned as
    decoded; CRLF and lone CR line ends become LF.
    """
    text = data.decode("utf-8-sig")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load_table(path: str | Path, balance_tol: float = DEFAULT_BALANCE_TOL) -> IOTable:
    """Load and validate a table from a CSV file."""
    return loads_table(decode_table(Path(path).read_bytes()), balance_tol)


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


def analyze(table: IOTable) -> RealEconomyReport:
    """Full existing-taxation workflow on a value table.

    Computes the observed taxation vector and the after-tax supply
    psi = (1 - pi0) * X, tests the clearing equation at unit prices with
    x = psi (input costs are the column sums s, the terms z = psi / s),
    and when it fails assembles the minimum-excess equilibrium over psi;
    the taxation bounds test runs either way. A sector with supply and a
    zero column fails the unit-price test at stage "unit-price-clearing".
    """
    pi0 = taxation.real_tax_vector(table)
    outside = np.flatnonzero((pi0 >= 1.0) | (pi0 < 0.0))
    if outside.size:
        raise HypothesisViolatedError(
            f"observed taxation T1/Delta of sector {table.names[outside[0]]!r} must lie in [0, 1)"
        )

    tech = table.technology
    big_x = table.big_x
    s = tech.a.sum(axis=0)
    psi = (1.0 - pi0) * big_x
    try:
        z = clearing_terms(psi, s)
    except HypothesisViolatedError as exc:
        raise PipelineError("unit-price-clearing", exc) from exc
    residual = tech.a @ z - psi
    rel_residual = float(np.max(np.abs(residual))) / max(1.0, float(np.max(big_x)))
    sustainable = bool(rel_residual <= CLEARING_TOL and np.all(s < 1.0))

    if sustainable:
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

    bounds = tax_bounds(pi0, table.delta / big_x)
    return RealEconomyReport(
        pi0=pi0,
        sustainable_at_unit_prices=sustainable,
        sustainability_residual=rel_residual,
        bounds=bounds,
        equilibrium=state,
        excess_level=state.excess_level,
        supply=psi,
    )
