"""Deterministic report objects and their canonical JSON encoding.

Identical inputs must produce byte-identical JSON: keys are emitted in
sorted order and every float is formatted with 12 significant digits.
A minimal structural schema bundled with the package describes the report
envelope; ``validate_report`` checks a decoded report against it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

FLOAT_FORMAT = ".12g"


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(value) -> str:
    # floats first: they are most of every report, and np.float64 is a float
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float in report: {value}")
        text = format(value, FLOAT_FORMAT)
        # '.12g' writes a lower-case exponent and no 'E'
        return text if "." in text or "e" in text else text + ".0"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.floating):
        return _canonical(float(value))
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_canonical, value)) + "]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: kv[0])
        if any(not isinstance(k, str) for k, _ in items):
            raise TypeError("report keys must be strings")
        return "{" + ",".join(f"{json.dumps(k)}:{_canonical(v)}" for k, v in items) + "}"
    raise TypeError(f"unsupported report value of type {type(value).__name__}")


def canonical_json(value) -> str:
    """Canonical JSON text: sorted keys, 12-significant-digit floats."""
    return _canonical(value)


@dataclass(frozen=True)
class Report:
    command: str
    inputs_digest: str
    results: dict
    diagnostics: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "results": self.results,
            "diagnostics": list(self.diagnostics),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def load_schema() -> dict:
    text = resources.files("ioequil").joinpath("data/report_schema.json").read_text("utf-8")
    return json.loads(text)


def validate_report(document: dict) -> list[str]:
    """Structural validation against the bundled schema; returns error list."""
    errors: list[str] = []

    def walk(node, rule, path):
        expected = rule.get("type")
        if expected == "object":
            if not isinstance(node, dict):
                errors.append(f"{path}: expected object")
                return
            for key in rule.get("required", []):
                if key not in node:
                    errors.append(f"{path}: missing required key {key!r}")
            for key, sub in rule.get("properties", {}).items():
                if key in node:
                    walk(node[key], sub, f"{path}.{key}")
        elif expected == "array":
            if not isinstance(node, list):
                errors.append(f"{path}: expected array")
                return
            item_spec = rule.get("items")
            if item_spec:
                for i, item in enumerate(node):
                    walk(item, item_spec, f"{path}[{i}]")
        elif expected == "string":
            if not isinstance(node, str):
                errors.append(f"{path}: expected string")
        elif expected == "number":
            if isinstance(node, bool) or not isinstance(node, (int, float)):
                errors.append(f"{path}: expected number")
        elif expected == "boolean":
            if not isinstance(node, bool):
                errors.append(f"{path}: expected boolean")
        if "enum" in rule and node not in rule["enum"]:
            errors.append(f"{path}: value {node!r} not in enum")

    walk(document, load_schema(), "$")
    return errors
