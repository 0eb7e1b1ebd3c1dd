import dataclasses
import decimal
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from ioequil import (
    Technology,
    analyze,
    balanced_eigenvector,
    dumps_table,
    excess_supply,
    load_table,
    loads_table,
    value_added_tax,
)
from ioequil import real_economy
from ioequil.errors import BalanceError, ParseError
from ioequil.real_economy import IOTable, balance_gaps

from conftest import (
    count_calls,
    data_path,
    loads_table_reference,
    seeded_table,
    taxed_clearing_residual_reference,
)


def table_from_value_added_system(rng, n):
    """Table whose observed taxation reproduces the value-added system."""
    a = rng.uniform(0.05, 0.5, (n, n))
    a *= rng.uniform(0.3, 0.8, n) / a.sum(axis=0)
    tech = Technology(a)
    x0 = balanced_eigenvector(a.T)
    big_x = x0 * float(rng.uniform(2.0, 10.0))
    z = a * big_x[None, :]
    delta = big_x - z.sum(axis=0)
    t1 = delta * delta / big_x          # pi0 = T1/Delta = Delta/X
    z1 = delta - t1
    consumption = big_x - z.sum(axis=1)
    names = tuple(f"s{i+1}" for i in range(n))
    return IOTable(names=names, z=z, big_x=big_x, t1=t1, z1=z1,
                   consumption=consumption, exports=np.zeros(n), imports=np.zeros(n))


class TestLoader:
    def test_bundled_toy_parses_and_balances(self):
        table = load_table(data_path("toy2.csv"))
        assert table.names == ("agri", "industry")
        assert np.allclose(table.a_bar, [[0.2, 0.3], [0.3, 0.2]])
        assert np.allclose(table.delta, [0.5, 0.5])

    def test_round_trip_identity(self, rng):
        table = load_table(data_path("toy3.csv"))
        again = loads_table(dumps_table(table))
        assert again.names == table.names
        for field in ("z", "big_x", "t1", "z1", "consumption", "exports", "imports"):
            assert np.array_equal(getattr(again, field), getattr(table, field))

    def test_round_trip_noisy_floats(self, rng):
        n = 3
        a = rng.uniform(0.05, 0.2, (n, n))
        big_x = rng.uniform(1.0, 5.0, n)
        z = a * big_x[None, :]
        delta = big_x - z.sum(axis=0)
        table = IOTable(
            names=("alpha", "beta", "gamma"),
            z=z, big_x=big_x,
            t1=0.3 * delta, z1=0.7 * delta,
            consumption=big_x - z.sum(axis=1),
            exports=np.zeros(n), imports=np.zeros(n),
        )
        again = loads_table(dumps_table(table))
        assert np.array_equal(again.z, table.z)
        assert np.array_equal(again.big_x, table.big_x)

    def test_zero_gross_output_rejected(self):
        text = (
            "sector,a,b,C,E,I,X\n"
            "a,0.0,0.0,0.0,0,0,0\n"
            "b,0.0,0.0,1.0,0,0,1\n"
            "T1,0,0.5\nZ1,0,0.5\n"
        )
        with pytest.raises(BalanceError):
            loads_table(text)

    def test_one_percent_imbalance_names_sector(self):
        text = (
            "sector,a,b,C,E,I,X\n"
            "a,0.2,0.3,0.51,0,0,1\n"
            "b,0.3,0.2,0.5,0,0,1\n"
            "T1,0.25,0.25\nZ1,0.25,0.25\n"
        )
        with pytest.raises(BalanceError) as err:
            loads_table(text)
        assert "'a'" in str(err.value)

    def test_balance_gaps_are_signed_and_unscaled(self):
        text = (
            "sector,a,b,C,E,I,X\n"
            "a,0.2,0.3,0.51,0,0,1\n"
            "b,0.3,0.2,0.5,0,0,1\n"
            "T1,0.25,0.25\nZ1,0.25,0.25\n"
        )
        table = loads_table(text, balance_tol=float("inf"))
        row_gap, col_gap = balance_gaps(table)
        assert np.allclose(row_gap, [-0.01, 0.0], atol=1e-15)
        assert np.allclose(col_gap, [0.0, 0.0], atol=1e-15)
        with pytest.raises(BalanceError, match="= -0.01$"):
            loads_table(text)

    @pytest.mark.parametrize("field, index, value, message", [
        ("t1", 0, np.nan, "t1['agri'] is not a finite number: nan"),
        ("big_x", 0, np.inf, "big_x['agri'] is not a finite number: inf"),
        ("exports", 1, -np.inf, "exports['industry'] is not a finite number: -inf"),
        ("z", (1, 0), np.nan, "z['industry' -> 'agri'] is not a finite number: nan"),
    ])
    def test_validate_table_refuses_non_finite_numbers(self, field, index, value, message):
        # a table built in code, not loaded: refused before any gap is computed
        table = load_table(data_path("toy2.csv"))
        values = getattr(table, field).copy()
        values[index] = value
        with pytest.raises(BalanceError) as err:
            real_economy.validate_table(dataclasses.replace(table, **{field: values}))
        assert str(err.value) == message

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            loads_table("industry,a,b,C,E,I,X\n")

    def test_wrong_footer_label(self):
        text = (
            "sector,a,C,E,I,X\n"
            "a,0.5,0.5,0,0,1\n"
            "TAXES,0.25\nZ1,0.25\n"
        )
        with pytest.raises(ParseError):
            loads_table(text)

    def test_non_numeric_cell(self):
        text = (
            "sector,a,C,E,I,X\n"
            "a,0.5,half,0,0,1\n"
            "T1,0.25\nZ1,0.25\n"
        )
        with pytest.raises(ParseError):
            loads_table(text)


TOY = (
    "sector,a,b,C,E,I,X\n"
    "a,0.2,0.3,0.5,0,0,1\n"
    "b,0.3,0.2,0.5,0,0,1\n"
    "T1,0.25,0.25\n"
    "Z1,0.25,0.25\n"
)

FIELDS = ("z", "big_x", "t1", "z1", "consumption", "exports", "imports")


def edit(*pairs: tuple[str, str]) -> str:
    text = TOY
    for old, new in pairs:
        assert old in text
        text = text.replace(old, new, 1)
    return text


# (case, text, exact message): the wording and the order in which rows are read
PARSE_ERRORS = [
    ("empty text", "", "empty table"),
    ("blank rows only", "\n  \n,,,\n , \n", "empty table"),
    ("bad header start", edit(("sector,", "industry,")),
     "header must start with 'sector', got 'industry'"),
    ("header without a comma", "sector\n", "header too short: need sector,<names...>,C,E,I,X"),
    ("short header", "sector,C,E,I,X\n", "header too short: need sector,<names...>,C,E,I,X"),
    ("missing C,E,I,X", edit(("C,E,I,X", "C,E,X,I")),
     "header must end with C,E,I,X, got ['C', 'E', 'X', 'I']"),
    ("wrong row count", edit(("Z1,0.25,0.25\n", "")),
     "expected 2 data rows plus T1 and Z1 footers, got 3 rows"),
    ("wrong sector label", edit(("b,0.3", "c,0.3")), "data row 2: expected sector 'b', got 'c'"),
    ("extra cell in a data row", edit(("0,0,1\n", "0,0,1,7\n")), "row 'a': expected 6 values, got 7"),
    ("missing cell in a data row", edit(("b,0.3,0.2,0.5,0,0,1", "b,0.3,0.2,0.5,0,1")),
     "row 'b': expected 6 values, got 5"),
    ("label only in a data row", edit(("b,0.3,0.2,0.5,0,0,1", "b")), "row 'b': expected 6 values, got 0"),
    ("extra cell in a footer", edit(("T1,0.25,0.25", "T1,0.25,0.25,0")),
     "footer T1: expected 2 values, got 3"),
    ("missing cell in a footer", edit(("Z1,0.25,0.25", "Z1,0.25")), "footer Z1: expected 2 values, got 1"),
    ("non-numeric cell in a data row", edit(("a,0.2,0.3", "a,0.2, half ")),
     "row 'a', column 2: not a number: 'half'"),
    ("non-numeric cell in a footer", edit(("Z1,0.25,0.25", "Z1,0.25,x")),
     "footer Z1, column 2: not a number: 'x'"),
    ("empty cell", edit(("b,0.3", "b,")), "row 'b', column 1: not a number: ''"),
    ("wrong footer label", edit(("T1,", "TAXES,")), "footer row 3: expected label 'T1', got 'TAXES'"),
    ("wrong second footer label", edit(("Z1,", "W,")), "footer row 4: expected label 'Z1', got 'W'"),
    ("comment character", edit(("a,0.2", "a,2#x")), "row 'a', column 1: not a number: '2#x'"),
    ("hex literal", edit(("a,0.2", "a,0x1")), "row 'a', column 1: not a number: '0x1'"),
    ("quoted cell", edit(("a,0.2", 'a,"0,2"')), "row 'a', column 1: not a number: '0,2'"),
    ("number before a later label", edit(("a,0.2", "a,x"), ("b,0.3", "c,0.3")),
     "row 'a', column 1: not a number: 'x'"),
    ("number before a later count", edit(("a,0.2", "a,x"), ("Z1,0.25,0.25", "Z1,0.25")),
     "row 'a', column 1: not a number: 'x'"),
    ("footer number before a later footer label", edit(("T1,0.25", "T1,x"), ("Z1,", "W,")),
     "footer T1, column 1: not a number: 'x'"),
    ("label before a number in its row", edit(("b,0.3", "c,x")), "data row 2: expected sector 'b', got 'c'"),
    ("count before a number in its row", edit(("b,0.3,0.2,0.5,0,0,1", "b,x,0.2,0.5,0,1")),
     "row 'b': expected 6 values, got 5"),
]


def assert_same_table(table: IOTable, reference: IOTable) -> None:
    """Names equal and every array bit-identical (nan payloads and -0 included)."""
    assert table.names == reference.names
    for field in FIELDS:
        got, want = getattr(table, field), getattr(reference, field)
        assert got.dtype == want.dtype and got.shape == want.shape, field
        assert got.tobytes() == want.tobytes(), field


def assert_same_numbers(flows: np.ndarray, footers: np.ndarray, reference: IOTable) -> None:
    """The number blocks bit-identical to a table's arrays, in file order."""
    n = reference.n
    trailing = (reference.consumption, reference.exports, reference.imports, reference.big_x)
    assert flows.shape == (n, n + 4) and footers.shape == (2, n)
    assert np.ascontiguousarray(flows[:, :n]).tobytes() == reference.z.tobytes()
    for k, column in enumerate(trailing):
        assert np.ascontiguousarray(flows[:, n + k]).tobytes() == column.tobytes()
    assert footers.tobytes() == np.concatenate([reference.t1, reference.z1]).tobytes()


class TestLoaderEquivalence:
    """The numpy reader returns what the per-cell reference loader returns."""

    @pytest.mark.parametrize("n", [2, 10, 60, 400])
    @pytest.mark.parametrize("density", [1.0, 0.3])
    def test_seeded_tables(self, n, density):
        rng = np.random.default_rng([n, int(density * 10)])
        text = dumps_table(seeded_table(rng, n, density))
        assert_same_table(loads_table(text), loads_table_reference(text))

    @pytest.mark.parametrize("name", ["toy2.csv", "toy2_overtaxed.csv", "toy3.csv"])
    def test_toy_tables(self, name):
        text = data_path(name).read_text(encoding="utf-8")
        assert_same_table(loads_table(text), loads_table_reference(text))
        assert_same_table(load_table(data_path(name)), loads_table_reference(text))

    @pytest.mark.parametrize("cell, value", [
        (" 1.5 ", 1.5), ("nan", np.nan), ("1e400", np.inf), ("1_000", 1000.0),
        ("\uff11", 1.0), ("-0", -0.0), ("\xa02\u2003", 2.0), ("+iNfinity", np.inf),
    ])
    @pytest.mark.parametrize("row", ["a,", "T1,"])
    def test_edge_cells(self, cell, value, row):
        # every spelling parses as float reads it; a cell that is not a
        # finite number is then refused by name
        text = edit((row + "0.2" if row == "a," else row + "0.25", row + cell))
        reference = loads_table_reference(text, validate=False)
        flows, footers = real_economy._read_numbers(real_economy._split_rows(text)[1:], reference.names)
        assert_same_numbers(flows, footers, reference)
        got = flows[0, 0] if row == "a," else footers[0, 0]
        assert np.array_equal(got, value, equal_nan=True)
        assert np.signbit(got) == np.signbit(value)
        if np.isfinite(value):
            assert_same_table(loads_table(text, balance_tol=float("inf")), reference)
        else:
            with pytest.raises(ParseError) as err:
                loads_table(text, balance_tol=float("inf"))
            where = "row 'a'" if row == "a," else "footer T1"
            assert str(err.value) == f"{where}, column 1: not a finite number: {cell.strip()!r}"

    def test_quoted_name_with_comma(self):
        text = (
            "sector,\"farm, fish\",industry,C,E,I,X\n"
            "\"farm, fish\",0.2,\"0.3\",0.5,0,0,1\n"
            "industry,0.3,0.2,0.5,0,0,1\n"
            "T1,0.25,0.25\nZ1,0.25,0.25\n"
        )
        table = loads_table(text)
        assert table.names == ("farm, fish", "industry")
        assert_same_table(table, loads_table_reference(text))

    def test_blank_and_comma_only_rows(self):
        text = "\n,,,\n" + TOY.replace("\nb,", "\n \n, ,\t,\nb,").replace("T1", "\n,,,,,,,\nT1") + "\n\n"
        assert_same_table(loads_table(text), loads_table_reference(text))
        assert_same_table(loads_table(text), loads_table(TOY))

    @pytest.mark.parametrize("text", [TOY.replace("\n", "\r\n"), TOY.replace("\n", "\r\n") + "\r\n \r\n"])
    def test_crlf_text(self, text):
        assert_same_table(loads_table(text), loads_table_reference(text))

    def test_plain_table_skips_the_per_cell_scan(self, monkeypatch):
        text = dumps_table(seeded_table(np.random.default_rng(5), 60, 0.3))

        def refuse(*args):
            raise AssertionError("per-cell scan on a table numpy reads")
        monkeypatch.setattr(real_economy, "_scan_rows", refuse)
        loads_table(text)

    @pytest.mark.parametrize("case, text, message", PARSE_ERRORS, ids=[c for c, _, _ in PARSE_ERRORS])
    def test_reference_gives_the_same_message(self, case, text, message):
        with pytest.raises(ParseError) as err:
            loads_table_reference(text)
        assert str(err.value) == message


def plain_rows(cells: list[str]) -> tuple[list[str], int]:
    """The cells, padded with zeros, as the rows after the labels of an n-sector table."""
    n = 2
    while n * (n + 6) < len(cells):
        n += 1
    cells = cells + ["0"] * (n * (n + 6) - len(cells))
    widths = [n + 4] * n + [n, n]
    ends = np.cumsum(widths).tolist()
    return [",".join(cells[end - width:end]) for width, end in zip(widths, ends)], n


def ones(k: int) -> str:
    return ",".join("1" * k)


# a table of two chunks and one of one chunk (n(n + 6) <= 8,192 cells)
PLAIN_WIDTHS = [100, 87]
# cells of plain bytes that float refuses
PLAIN_NON_NUMBERS = ("1.2.3", "1e", "-", "+", ".", "e5", "1-2", "--1", "", "5e-")


def wide_table(n: int, **rests: str) -> str:
    """A plain n-sector table of one-digit cells; ``rests`` replaces the
    cells after the given row labels."""
    names = [f"s{k + 1}" for k in range(n)]
    rows = {name: ones(n + 4) for name in names} | {"T1": ones(n), "Z1": ones(n)}
    rows.update(rests)
    header = ",".join(["sector", *names, "C", "E", "I", "X"])
    return "\n".join([header, *(f"{label},{rest}" for label, rest in rows.items())]) + "\n"


def plain_rests(text: str) -> list[str]:
    return [rest for _, rest in real_economy._split_rows(text)[1:]]


def exactness_cells(rng: np.random.Generator) -> list[str]:
    """Cells where a double rounding of the decimal would miss float's double."""
    # repr of random doubles in every binade, subnormals and both signs included
    exponents = np.repeat(np.arange(2047, dtype=np.uint64), 4)
    signs = rng.integers(0, 2, exponents.size, dtype=np.uint64)
    fractions = rng.integers(0, 1 << 52, exponents.size, dtype=np.uint64)
    doubles = ((signs << np.uint64(63)) | (exponents << np.uint64(52)) | fractions).view(np.float64)
    cells = [repr(float(v)) for v in doubles]
    # exact decimal midpoints of adjacent doubles, one per binade, then 1e-40
    # relative either side of each
    nudge = decimal.Decimal("1e-40")
    with decimal.localcontext() as ctx:
        ctx.prec = 1200       # every product below is exact
        for v in doubles[::4][:-1]:
            below = decimal.Decimal(float(v))
            above = decimal.Decimal(float(np.nextafter(v, np.copysign(np.inf, v))))
            mid = (below + above) / 2
            cells += [f"{mid:e}", f"{mid * (1 - nudge):e}", f"{mid * (1 + nudge):e}"]
        # the underflow midpoint 2**-1075 and the overflow threshold, the
        # midpoint of DBL_MAX and 2**1024
        for mid in (decimal.Decimal(2) ** -1075, decimal.Decimal(2 ** 1024 - 2 ** 970)):
            cells += [f"{mid:e}", f"{mid * (1 - nudge):e}", f"{mid * (1 + nudge):e}"]
    cells += [str(2 ** 53 + k) for k in range(-20, 21)] + [str(-(2 ** 53) - k) for k in range(20)]
    cells += ["1.7976931348623157e+308", str(int(np.finfo(float).max)), "1.8e308", "1e309", "-1e400",
              "4.9e-324", "2.4703282292062328e-324", "2.2250738585072014e-308", "1e-400"]
    cells += ["-0", ".5", "5.", "+3", "1E5", "-2.5e+10", "0", "-0.0", "+.25", "007", "1e0005"]
    whole = rng.integers(-10 ** 6, 10 ** 6, 2000)
    places = rng.integers(0, 7, 2000)
    cells += [f"{decimal.Decimal(int(w)).scaleb(-int(p))}" for w, p in zip(whole, places)]
    return cells


@pytest.mark.skipif(not real_economy._x87_long_double(), reason="the plain reader needs an x87 long double")
class TestPlainReader:
    """Plain rows are read by numpy's long-double parser: on the calling
    thread for one chunk, and on it and one worker per load for more."""

    @pytest.mark.parametrize("one_chunk", [False, True], ids=["chunks", "one chunk"])
    def test_every_cell_is_the_double_float_reads(self, one_chunk):
        cells = exactness_cells(np.random.default_rng(28))
        assert all(cell.strip("0123456789.+-eE") == "" for cell in cells)
        size = 87 * 93 if one_chunk else len(cells)
        for start in range(0, len(cells), size):
            rests, n = plain_rows(cells[start:start + size])
            assert (n * (n + 6) <= real_economy._CHUNK_CELLS) == one_chunk
            got = real_economy._read_plain(rests, n)
            assert got is not None
            want = np.array([float(cell) for cell in ",".join(rests).split(",")])
            assert got.tobytes() == want.tobytes()

    def test_plain_table_calls_neither_loadtxt_nor_the_scan(self, monkeypatch):
        text = dumps_table(seeded_table(np.random.default_rng(5), 100, 0.3))

        def refuse(*args):
            raise AssertionError("per-cell scan on a plain table")
        monkeypatch.setattr(real_economy, "_scan_rows", refuse)
        loadtxt = count_calls(monkeypatch, np, "loadtxt")
        table = loads_table(text)
        assert loadtxt == []
        monkeypatch.setattr(real_economy, "_x87_long_double", lambda: False)
        assert_same_table(loads_table(text), table)
        assert len(loadtxt) == 2

    @pytest.mark.parametrize("n, started", [(2, 0), (60, 0), (87, 0), (88, 1)])
    def test_one_chunk_table_makes_no_loadtxt_call_and_starts_no_thread(self, monkeypatch, n, started):
        # n(n + 6) <= 8,192 cells: the calling thread reads the table alone
        text = TOY if n == 2 else dumps_table(seeded_table(np.random.default_rng([8, n]), n, 0.3))
        loadtxt = count_calls(monkeypatch, np, "loadtxt")
        thread, threads = threading.Thread, []

        def recorded(*args, **kwargs):
            threads.append(thread(*args, **kwargs))
            return threads[-1]
        monkeypatch.setattr(threading, "Thread", recorded)
        assert_same_table(loads_table(text), loads_table_reference(text))
        assert loadtxt == [] and len(threads) == started

    def test_no_thread_outlives_a_load(self, monkeypatch):
        # a plain load, a refused load, and a load whose worker raised
        text = dumps_table(seeded_table(np.random.default_rng(6), 100, 1.0))
        before = threading.enumerate()
        assert_same_table(loads_table(text), loads_table_reference(text))
        assert threading.enumerate() == before
        with pytest.raises(ParseError):
            loads_table(wide_table(100, s1="0x1p3," + ones(103)))
        assert threading.enumerate() == before

        caller, inexact, worker_ran = threading.current_thread(), real_economy._inexact, threading.Event()

        def off_the_caller(out, cells):
            if threading.current_thread() is caller:
                worker_ran.wait(timeout=30)   # the worker claims a chunk first
                return inexact(out, cells)
            worker_ran.set()
            raise RuntimeError("worker fault")
        monkeypatch.setattr(real_economy, "_inexact", off_the_caller)
        with pytest.raises(RuntimeError, match="worker fault"):
            loads_table(text)
        assert threading.enumerate() == before

    def test_concurrent_loads_read_every_number(self):
        # more loading threads than cores and a short switch interval: every
        # table still reads as the reference loader reads it
        texts = [dumps_table(seeded_table(np.random.default_rng([7, k]), 100, 0.3)) for k in range(4)]
        want = [loads_table_reference(text) for text in texts]
        errors = []

        def load(k):
            try:
                for _ in range(5):
                    assert_same_table(loads_table(texts[k]), want[k])
            except Exception as exc:   # reported below, on the test's thread
                errors.append(exc)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=load, args=(k % 4,)) for k in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []

    @pytest.mark.parametrize("n", PLAIN_WIDTHS)
    @pytest.mark.parametrize("row, extra", [("s1", 4), ("T1", 0)])
    def test_hex_cell_keeps_its_parse_error(self, row, extra, n):
        # strtold reads 0x1p3 as 8, float refuses it
        text = wide_table(n, **{row: "0x1p3," + ones(n - 1 + extra)})
        assert real_economy._read_plain(plain_rests(text), n) is None
        with pytest.raises(ParseError) as err:
            loads_table(text)
        where = "row 's1'" if row == "s1" else "footer T1"
        assert str(err.value) == f"{where}, column 1: not a number: '0x1p3'"

    @pytest.mark.parametrize("n", PLAIN_WIDTHS)
    @pytest.mark.parametrize("rests, message", [
        # an overflow in each chunk of the wide table, so each thread meets one
        (lambda n: {"s5": "1,1,1e400," + ones(n + 1), "s2": ones(6) + ",-1e999," + ones(n - 3),
                    "s60": "1e400," + ones(n + 3)},
         "row 's2', column 7: not a finite number: '-1e999'"),
        (lambda n: {"Z1": "1e400," + ones(n - 1), "T1": ones(n - 1) + ",1e309"},
         "footer T1, column {n}: not a finite number: '1e309'"),
    ], ids=["flow rows", "footers"])
    def test_first_overflowing_cell_in_file_order_is_refused(self, rests, message, n):
        text = wide_table(n, **rests(n))
        assert real_economy._read_plain(plain_rests(text), n) is not None
        with pytest.raises(ParseError) as err:
            loads_table(text)
        assert str(err.value) == message.format(n=n)

    @pytest.mark.parametrize("n", PLAIN_WIDTHS)
    @pytest.mark.parametrize("rests", [
        lambda n, cell=cell: {"s1": f"{cell}," + ones(n + 3)} for cell in PLAIN_NON_NUMBERS
    ] + [
        lambda n: {"s1": "1,," + ones(n + 2)}, lambda n: {"s1": "1," * (n + 3)}, lambda n: {"Z1": "1," * (n - 1)},
        # a cell too many and one too few in one chunk, the right total
        lambda n: {"s1": ones(n + 5), "s2": ones(n + 3)},
        lambda n: {f"s{n}": ones(n + 5), "T1": ones(n - 1)},
    ], ids=[f"cell {cell!r}" for cell in PLAIN_NON_NUMBERS] + [
        "empty cell", "trailing comma", "trailing footer comma", "long and short row", "long row and short footer",
    ])
    def test_plain_bytes_that_do_not_parse_keep_their_error(self, rests, n):
        text = wide_table(n, **rests(n))
        with pytest.raises(ParseError) as want:
            loads_table_reference(text)
        with pytest.raises(ParseError) as got:
            loads_table(text)
        assert str(got.value) == str(want.value)


class TestParseErrors:
    @pytest.mark.parametrize("case, text, message", PARSE_ERRORS, ids=[c for c, _, _ in PARSE_ERRORS])
    def test_exact_message(self, case, text, message):
        with pytest.raises(ParseError) as err:
            loads_table(text)
        assert str(err.value) == message

    def test_lone_carriage_returns_are_a_parse_error(self):
        # csv refuses a CR inside what it reads as one line; files never get
        # here, since decode_table turns every CR into LF first
        with pytest.raises(ParseError) as err:
            loads_table(TOY.replace("\n", "\r"))
        assert str(err.value) == ("CSV line 1: new-line character seen in unquoted field"
                                  " - do you need to open the file in universal-newline mode?")


class TestDecodeTable:
    """decode_table gives universal newlines: the same text as rewriting every
    CRLF and then every lone CR to LF, after the byte-order mark is dropped."""

    @pytest.mark.parametrize("data", [
        b"sector,a\na,1\n", b"sector,a\r\na,1\r\n", b"sector,a\ra,1\r",
        b"sector,a\r\na,1\rT1,2\nZ1,3\r\r\n", b"\xef\xbb\xbfsector,a\r\na,1\r\n", b"",
    ], ids=["LF", "CRLF", "CR", "mixed", "BOM+CRLF", "empty"])
    def test_matches_two_replace_rewrite(self, data):
        expected = data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
        assert real_economy.decode_table(data) == expected


class TestAnalyze:
    def test_symmetric_toy_is_sustainable(self):
        table = load_table(data_path("toy2.csv"))
        report = analyze(table)
        assert np.allclose(report.pi0, [0.5, 0.5])
        assert report.sustainable_at_unit_prices
        assert report.excess_level == 0.0
        assert report.bounds.feasible

    def test_overtaxed_toy_fails_bounds_with_excess(self):
        table = load_table(data_path("toy2_overtaxed.csv"))
        report = analyze(table)
        assert np.allclose(report.pi0, [0.1, 0.9])
        assert not report.sustainable_at_unit_prices
        assert not report.bounds.feasible
        assert 0.0 < report.excess_level < 1.0

    def test_value_added_generated_table_is_sustainable(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            table = table_from_value_added_system(rng, n)
            report = analyze(table)
            assert report.sustainable_at_unit_prices
            assert report.excess_level == 0.0
            expected_pi = 1.0 - table.technology.a.sum(axis=0)
            assert np.allclose(report.pi0, expected_pi, atol=1e-9)

    @pytest.mark.parametrize("density", [1.0, 0.3])
    def test_residual_matches_the_taxed_reference(self, rng, monkeypatch, density):
        # the clearing equation at unit prices with x = psi keeps the bytes of
        # the taxed clearing residual it replaced. The residual is decided
        # before the minimum-excess program, which a stand-in state replaces
        monkeypatch.setattr(real_economy, "assemble_equilibrium",
                            lambda t, b: SimpleNamespace(excess_level=0.0))
        for n in range(2, 61, 2):
            table = seeded_table(rng, n, density)
            report = analyze(table)
            residual = taxed_clearing_residual_reference(table.technology, table.big_x, report.pi0)
            rel = float(np.max(np.abs(residual))) / max(1.0, float(np.max(table.big_x)))
            assert report.sustainability_residual == rel

    def test_unit_price_state_matches_the_taxed_terms(self, rng):
        for n in range(2, 61, 2):
            table = table_from_value_added_system(rng, n)
            report = analyze(table)
            assert report.sustainable_at_unit_prices
            psi = (1.0 - report.pi0) * table.big_x
            assert report.equilibrium.z.tobytes() == (psi / table.technology.a.sum(axis=0)).tobytes()

    def test_excess_level_in_unit_interval(self, rng):
        table = load_table(data_path("toy2_overtaxed.csv"))
        report = analyze(table)
        assert 0.0 <= report.excess_level < 1.0

    def test_excess_monotone_in_real_consumption(self):
        psi = np.array([1.0, 2.0, 0.5])
        prices = np.array([0.2, 0.5, 0.3])
        fractions = np.linspace(0.1, 1.0, 8)
        levels = [excess_supply(psi, f * psi, prices) for f in fractions]
        assert all(a >= b - 1e-15 for a, b in zip(levels, levels[1:]))
