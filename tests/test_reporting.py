import json

import numpy as np
import pytest

from ioequil.reporting import (
    Report,
    canonical_json,
    digest_bytes,
    validate_report,
)


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
