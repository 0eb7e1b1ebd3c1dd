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

from conftest import data_path, loads_table_reference, seeded_table


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
        text = edit((row + "0.2" if row == "a," else row + "0.25", row + cell))
        table = loads_table(text, balance_tol=float("inf"))
        assert_same_table(table, loads_table_reference(text, balance_tol=float("inf")))
        got = table.z[0, 0] if row == "a," else table.t1[0]
        assert np.array_equal(got, value, equal_nan=True)
        assert np.signbit(got) == np.signbit(value)

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
