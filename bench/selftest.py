"""Self-test of the benchmark's report checks.

Runs every CLI command on small generated tables, requires each true
report to pass its check, then corrupts one field at a time and requires
the check to reject every corrupted copy. Run from the repository root:

    python3 bench/selftest.py

Exit code 0 when every check accepts the true reports and rejects every
corruption, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from run import call_cli  # noqa: E402
from ioequil import cli  # noqa: E402


def _scale(key, factor):
    def corrupt(r):
        r[key] = r[key] * factor
    return corrupt


def _flip(key):
    def corrupt(r):
        r[key] = not r[key]
    return corrupt


def _add(key, by):
    def corrupt(r):
        r[key] = r[key] + by
    return corrupt


def _bump(key, index=0, by=1e-3):
    def corrupt(r):
        r[key][index] += by
    return corrupt


def _nested(outer, corrupt):
    def apply(r):
        corrupt(r[outer])
    return apply


CORRUPTIONS = {
    "check": [_scale("spectral_radius", 1.001), _flip("indecomposable"), _flip("productive"),
              _add("row_balance_gap", 1e-6), _flip("pass")],
    "sustainable": [_nested("criterion", _flip("sustainable")),
                    _nested("existing_tax", _flip("sustainable_at_unit_prices")),
                    _nested("existing_tax", _bump("pi0")),
                    _nested("tax_bounds", _bump("interval"))],
    "sustainable+": [_nested("criterion", _bump("margins")),
                     _nested("criterion", _bump("prices", by=1e-4)),
                     _nested("criterion", _bump("alpha"))],
    "equilibrium": [_bump("real_consumption", by=-1e-3), _bump("prices", by=1e-3),
                    _add("excess_level", 1e-3),
                    lambda r: r.__setitem__("binding", r["binding"][1:]),
                    _bump("supply")],
    "tax best": [_bump("best_pi", by=1e-4), _bump("balanced_weights", by=1e-5),
                 _scale("c0_max", 1.001)],
    "tax bounds": [_flip("feasible"), _bump("interval", 1, by=1e-4), _bump("pi0", by=1e-4)],
    "tax value-added": [_bump("pi", by=1e-4), _bump("X0", by=1e-5), _bump("final_basis", by=1e-5)],
    "aggregate": [lambda r: r["a_bar"][0].__setitem__(0, r["a_bar"][0][0] * 1.0001),
                  _bump("X", by=1e-3), _bump("Delta", by=1e-3), _scale("sum_C", 1.0001),
                  _bump("relative_prices", by=1e-6)],
}


def main() -> int:
    specs = {
        "share": gen.Spec(12),
        "sparse": gen.Spec(12, density=0.3),
        "sustainable": gen.Spec(12, taxes="balanced", output="sustainable"),
        "balanced": gen.Spec(12, taxes="balanced"),
        "weak": gen.Spec(12, coupling=1e-3),
    }
    commands = (["check"], ["sustainable", "--tax-bounds"], ["equilibrium"], ["tax", "best"],
                ["tax", "bounds"], ["tax", "value-added"], ["aggregate"])
    bad = 0
    rejected = {}
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        rng = np.random.default_rng(7)
        for name, spec in specs.items():
            table = gen.make_table(rng, spec, name, Path(tmp))
            ref = checks.reference(table)
            for command in commands:
                paths = [str(table.path)] + ([str(table.map_path)] if command[0] == "aggregate" else [])
                code, stdout, stderr, _ = call_cli(cli.main, [command[0], *paths, *command[1:],
                                                             "--format", "json"])
                label = " ".join(command[:2]) if command[0] == "tax" else command[0]
                if code in (2, 3) or "error:" in stderr:
                    print(f"FAIL {name} {label}: exit {code} {stderr.strip()}")
                    bad += 1
                    continue
                report = json.loads(stdout)
                problems = checks.check_report(report, code, ref)
                if problems:
                    print(f"FAIL {name} {label}: true report rejected: {problems}")
                    bad += 1
                    continue
                keys = [label]
                if label == "sustainable" and report["results"]["criterion"]["sustainable"]:
                    keys.append("sustainable+")
                for key in keys:
                    for k, corrupt in enumerate(CORRUPTIONS[key]):
                        broken = copy.deepcopy(report)
                        corrupt(broken["results"])
                        if not checks.check_report(broken, code, ref):
                            print(f"FAIL {name} {key}: corruption {k} accepted")
                            bad += 1
                        else:
                            rejected[key] = rejected.get(key, 0) + 1
                if not checks.check_report(report, 3 if code == 0 else 0, ref):
                    print(f"FAIL {name} {label}: wrong exit code accepted")
                    bad += 1
                wrong_input = dict(report, inputs_digest="0" * 64)
                if not checks.check_report(wrong_input, code, ref):
                    print(f"FAIL {name} {label}: foreign input digest accepted")
                    bad += 1
    for key in CORRUPTIONS:
        print(f"{'PASS' if key in rejected else 'FAIL'} {key}: {rejected.get(key, 0)} corrupted reports rejected")
        bad += key not in rejected
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
