import json

import numpy as np
import pytest

from ioequil import cli
from ioequil.real_economy import dumps_table
from ioequil.reporting import (
    Report,
    canonical_json,
    digest_bytes,
    validate_report,
)

from conftest import canonical_json_reference, leontief_value_table, seeded_table, two_block


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 1.0 / 3.0, "a": 2})
        assert text == '{"a":2,"b":0.333333333333}'

    def test_floats_keep_twelve_significant_digits(self):
        assert canonical_json(np.pi) == "3.14159265359"
        assert canonical_json(1e-5) == "1e-05"
        assert canonical_json(2.0) == "2.0"

    def test_bool_not_confused_with_int(self):
        assert canonical_json({"flag": True, "count": 1}) == '{"count":1,"flag":true}'

    def test_arrays_become_lists(self):
        assert canonical_json(np.array([1.0, 0.5])) == "[1.0,0.5]"

    def test_deterministic_across_dict_orders(self):
        first = canonical_json({"x": 1.0, "y": [1, 2, 3], "z": {"k": 0.1}})
        second = canonical_json({"z": {"k": 0.1}, "y": [1, 2, 3], "x": 1.0})
        assert first == second

    def test_valid_json(self):
        payload = {"v": [0.1, 2e-12, 3], "nested": {"ok": True, "name": "x"}}
        decoded = json.loads(canonical_json(payload))
        assert decoded["nested"]["ok"] is True

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))


class TestReport:
    def test_round_trip_and_schema(self):
        report = Report("check", digest_bytes(b"data"), {"pass": True}, ("note",))
        decoded = json.loads(report.to_json())
        assert validate_report(decoded) == []
        assert decoded["diagnostics"] == ["note"]

    def test_schema_catches_missing_key(self):
        errors = validate_report({"command": "check"})
        assert any("missing required key" in e for e in errors)

    def test_schema_catches_bad_command(self):
        document = {
            "command": "explode",
            "inputs_digest": "00",
            "results": {},
            "diagnostics": [],
        }
        assert any("enum" in e for e in validate_report(document))

    def test_digest_is_stable(self):
        assert digest_bytes(b"abc") == digest_bytes(b"abc")
        assert digest_bytes(b"abc") != digest_bytes(b"abd")


EDGE_VALUES = {
    "integral float": 2.0,
    "negative zero": -0.0,
    "1e16": 1e16,
    "smallest subnormal": 5e-324,
    "largest double": 1.7976931348623157e308,
    "12 integral digits": 123456789012.0,
    "1e-5": 1e-5,
    "float32": np.float32(0.1),
    "float64": np.float64(-2.5e-300),
    "int64": np.int64(-7),
    "int32": np.int32(3),
    "nested tuples": ((1.0, (2, np.float64(0.5))), [None, True, ()]),
    "2-D ndarray": np.arange(6.0).reshape(2, 3) / 7.0,
    "non-ASCII string": "Ölpreis – 価格 ✓\u2028",
    "non-ASCII keys": {"é": [1e-7, "\x00"], "a": {"b": np.float64(3.0)}},
}


class TestEncoderMatchesReference:
    """canonical_json writes the bytes of the encoder as first written."""

    @pytest.mark.parametrize("value", EDGE_VALUES.values(), ids=EDGE_VALUES.keys())
    def test_edge_values(self, value):
        assert canonical_json(value) == canonical_json_reference(value)

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"),
        np.float64("nan"), np.float64("inf"), np.float64("-inf"),
        np.float32("nan"), np.float32("inf"), np.float32("-inf"),
    ])
    def test_non_finite_floats_raise(self, value):
        with pytest.raises(ValueError) as want:
            canonical_json_reference({"x": [value]})
        with pytest.raises(ValueError) as got:
            canonical_json({"x": [value]})
        assert str(got.value) == str(want.value)

    def test_numpy_bool_raises(self):
        with pytest.raises(TypeError) as want:
            canonical_json_reference([np.bool_(True)])
        with pytest.raises(TypeError) as got:
            canonical_json([np.bool_(True)])
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("make", [
        lambda: seeded_table(np.random.default_rng([19, 0]), 60, 1.0),
        lambda: seeded_table(np.random.default_rng([19, 1]), 60, 0.3),
        lambda: leontief_value_table(np.random.default_rng(19),
                                     two_block(np.random.default_rng(19), 40, 16, 1e-3)),
    ], ids=["60 dense", "60 at 30%", "two 40-sector blocks at 1e-3"])
    def test_command_reports(self, tmp_path, make):
        table = make()
        path, amap = tmp_path / "table.csv", tmp_path / "table.map"
        path.write_text(dumps_table(table), encoding="utf-8")
        amap.write_text("".join(f"{i + 1} {i % 4 + 1}\n" for i in range(table.n)))
        commands = [("check",), ("sustainable", "--tax-bounds"), ("equilibrium",),
                    ("tax", "best"), ("tax", "bounds"), ("tax", "value-added"), ("aggregate",)]
        if np.any(table.consumption < 0):
            # seeded_table draws X apart from A, so some of its final consumption
            # can be negative, which aggregate rejects before it reports
            commands.pop()
        for command in commands:
            paths = [str(path)] + ([str(amap)] if command[0] == "aggregate" else [])
            args = cli.build_parser().parse_args([command[0], *paths, *command[1:]])
            report, _ = cli._COMMANDS[args.command](args)
            assert report.to_json() == canonical_json_reference(report.to_dict()), command

