"""Command-line surface.

One binary with subcommands; every command reads a value table, runs the
corresponding analysis and emits a deterministic report (text or canonical
JSON). Exit codes: 0 success, 1 analysis-negative, 2 input error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import aggregation, real_economy, sustainability, taxation
from .core import spectral_radius
from .equilibrium import solution_from_alpha
from .errors import (
    BalanceError,
    ModelError,
    NumericalError,
    ParseError,
    PipelineError,
)
from .reporting import Report, digest_bytes

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _vector_list(v) -> list[float]:
    return np.asarray(v, dtype=float).tolist()


def _parse_comma_list(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ParseError(f"{flag}: expected a comma-separated list of numbers, got {text!r}") from exc


def tolerance(text: str) -> float:
    """A --tol value: a number >= 0, infinity included; argparse rejects NaN,
    negatives and non-numbers as an invalid tolerance (exit 2)."""
    if not float(text) >= 0.0:
        raise ValueError(text)
    return float(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=tolerance, default=real_economy.DEFAULT_BALANCE_TOL,
                        help="relative balance tolerance for table validation")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format")
    common.add_argument("--out", type=Path, default=None,
                        help="write the report (or aggregated CSV) to this path")

    parser = argparse.ArgumentParser(
        prog="ioequil",
        description="Equilibrium, sustainability, taxation and aggregation analysis "
                    "of input-output tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[common],
                             help="productivity, indecomposability and balance checks")
    p_check.add_argument("table", type=Path)

    p_sust = sub.add_parser("sustainable", parents=[common],
                            help="sustainable-development criterion and existing-tax test")
    p_sust.add_argument("table", type=Path)
    p_sust.add_argument("--tax-bounds", action="store_true", dest="tax_bounds",
                        help="include the taxation bound interval")

    p_eq = sub.add_parser("equilibrium", parents=[common],
                          help="minimum-excess equilibrium state, prices and excess level")
    p_eq.add_argument("table", type=Path)
    p_eq.add_argument("--alpha", type=str, default=None,
                      help="comma list: evaluate the simplex-parametrized solution at this point")

    p_tax = sub.add_parser("tax", parents=[common], help="taxation analyses")
    p_tax.add_argument("table", type=Path)
    p_tax.add_argument("mode", choices=("existing", "best", "bounds", "value-added"))

    p_agg = sub.add_parser("aggregate", parents=[common],
                           help="aggregate a fine table through a sector map")
    p_agg.add_argument("table", type=Path)
    p_agg.add_argument("map", type=Path)
    p_agg.add_argument("--delta-hat", type=str, default=None, dest="delta_hat",
                       help="comma list of relative value-added shares for the price system")
    return parser


def _load(args, balance_tol: float) -> tuple[real_economy.IOTable, str]:
    """The validated table and the SHA-256 of its bytes, from one read of the file."""
    data = Path(args.table).read_bytes()
    table = real_economy.loads_table(real_economy.decode_table(data), balance_tol)
    return table, digest_bytes(data)


def cmd_check(args) -> tuple[Report, int]:
    table, digest = _load(args, float("inf"))
    tech = table.technology
    failures: list[str] = []

    productive = tech.productive
    if not productive:
        failures.append("technology is not productive ((E - A) x = 1 has no positive bounded solution)")
    indecomposable = tech.indecomposable
    if not indecomposable:
        failures.append("technology is decomposable (support graph not strongly connected)")
    scale = np.maximum(1.0, np.abs(table.big_x))
    row_gap, col_gap = (float(np.max(np.abs(gap) / scale))
                        for gap in real_economy.balance_gaps(table))
    if row_gap > args.tol:
        failures.append(f"row balance off by relative {row_gap:.6g}")
    if col_gap > args.tol:
        failures.append(f"column balance off by relative {col_gap:.6g}")

    results = {
        "productive": productive,
        "indecomposable": indecomposable,
        "spectral_radius": spectral_radius(tech),
        "row_balance_gap": row_gap,
        "column_balance_gap": col_gap,
        "pass": not failures,
    }
    report = Report("check", digest, results, tuple(failures))
    return report, EXIT_OK if not failures else EXIT_NEGATIVE


def cmd_sustainable(args) -> tuple[Report, int]:
    table, digest = _load(args, args.tol)
    tech = table.technology
    verdict = sustainability.check_sustainable(tech, table.big_x)
    analysis = real_economy.analyze(table)

    results: dict = {
        "criterion": {
            "sustainable": verdict.sustainable,
        },
        "existing_tax": {
            "pi0": _vector_list(analysis.pi0),
            "sustainable_at_unit_prices": analysis.sustainable_at_unit_prices,
            "residual": analysis.sustainability_residual,
            "excess_level": analysis.excess_level,
        },
    }
    if verdict.sustainable:
        results["criterion"]["alpha"] = _vector_list(verdict.alpha)
        results["criterion"]["prices"] = _vector_list(verdict.prices)
        results["criterion"]["margins"] = _vector_list(verdict.margins)
    if args.tax_bounds:
        bounds = analysis.bounds
        results["tax_bounds"] = {
            "feasible": bounds.feasible,
            "interval": list(bounds.beta_interval) if bounds.beta_interval else None,
            "witness_beta": bounds.witness_beta,
        }
    report = Report("sustainable", digest, results,
                    analysis.bounds.diagnostics if args.tax_bounds else ())
    positive = verdict.sustainable and analysis.sustainable_at_unit_prices
    return report, EXIT_OK if positive else EXIT_NEGATIVE


def cmd_equilibrium(args) -> tuple[Report, int]:
    table, digest = _load(args, args.tol)
    analysis = real_economy.analyze(table)
    state = analysis.equilibrium
    results: dict = {
        "supply": _vector_list(analysis.supply),
        "binding": [int(i) + 1 for i in state.binding],
        "slack": [int(j) + 1 for j in state.slack],
        "prices": _vector_list(state.p),
        "generalized_prices": _vector_list(state.p_u),
        "real_consumption": _vector_list(state.b_bar),
        "excess_level": state.excess_level,
        "mode": state.mode,
    }
    if args.alpha is not None:
        alpha = _parse_comma_list(args.alpha, "--alpha")
        point = solution_from_alpha(table.technology, analysis.supply, alpha)
        results["alpha_point"] = {
            "alpha": _vector_list(point.alpha),
            "scale": point.scale,
            "z": _vector_list(point.z),
        }
    report = Report("equilibrium", digest, results)
    return report, EXIT_OK


def cmd_tax(args) -> tuple[Report, int]:
    table, digest = _load(args, args.tol)
    tech = table.technology
    code, diagnostics = EXIT_OK, ()
    if args.mode == "existing":
        results = {"mode": "existing", "pi0": _vector_list(taxation.real_tax_vector(table))}
    elif args.mode == "best":
        family = taxation.tax_family(tech, table.big_x, table.delta)
        results = {
            "mode": "best",
            "best_pi": _vector_list(family.best_pi),
            "c0_max": family.c0_max,
            "balanced_weights": _vector_list(family.v0),
        }
    elif args.mode == "bounds":
        pi0 = taxation.real_tax_vector(table)
        bounds = taxation.tax_bounds(pi0, table.delta / table.big_x, t_value=tech)
        results = {
            "mode": "bounds",
            "pi0": _vector_list(pi0),
            "feasible": bounds.feasible,
            "interval": list(bounds.beta_interval) if bounds.beta_interval else None,
            "witness_beta": bounds.witness_beta,
        }
        if bounds.final_y is not None:
            results["reconstructed_X"] = _vector_list(bounds.reconstructed_x)
            results["final_Y"] = _vector_list(bounds.final_y)
        if not bounds.feasible:
            code = EXIT_NEGATIVE
        diagnostics = bounds.diagnostics
    else:
        system = taxation.value_added_tax(tech)
        results = {
            "mode": "value-added",
            "pi": _vector_list(system.pi),
            "X0": _vector_list(system.x0),
            "final_basis": _vector_list(system.base),
        }
    report = Report("tax", digest, results, diagnostics)
    return report, code


def cmd_aggregate(args) -> tuple[Report, int]:
    table, digest = _load(args, args.tol)
    amap = aggregation.AggregationMap.from_file(args.map)
    fine = table.technology
    prices = np.ones(table.n)
    coarse = aggregation.aggregate(fine, prices, table.big_x, amap)

    if args.delta_hat is not None:
        delta_hat = _parse_comma_list(args.delta_hat, "--delta-hat")
    else:
        delta_hat = coarse.delta / coarse.big_x
    p_hat = aggregation.relative_prices(coarse, delta_hat)

    results = {
        "coarse_sectors": coarse.n,
        "a_bar": coarse.a_bar.tolist(),
        "X": _vector_list(coarse.big_x),
        "C": _vector_list(coarse.consumption),
        "Delta": _vector_list(coarse.delta),
        "sum_C": float(np.sum(coarse.consumption)),
        "sum_Delta": float(np.sum(coarse.delta)),
        "relative_prices": _vector_list(p_hat),
    }
    report = Report("aggregate", digest, results)

    if args.out is not None:
        names = tuple(f"c{k + 1}" for k in range(coarse.n))
        z = coarse.a_bar * coarse.big_x[None, :]
        # grouped production taxes; the rest of Delta is the coarse Z1, so
        # the column balance holds as it does for Delta itself
        t1 = amap.indicator() @ table.t1
        out_table = real_economy.IOTable(
            names=names,
            z=z,
            big_x=coarse.big_x,
            t1=t1,
            z1=coarse.delta - t1,
            consumption=coarse.consumption,
            exports=np.zeros(coarse.n),
            imports=np.zeros(coarse.n),
        )
        Path(args.out).write_text(real_economy.dumps_table(out_table), encoding="utf-8")
    return report, EXIT_OK


def _render_text(report: Report) -> str:
    lines = [f"command: {report.command}", f"inputs_digest: {report.inputs_digest}"]

    def emit(prefix: str, value):
        if isinstance(value, dict):
            for key in sorted(value):
                if isinstance(value[key], dict):
                    emit(f"{prefix}{key}.", value[key])
                else:
                    emit(f"{prefix}{key}", value[key])
        elif isinstance(value, list):
            lines.append(f"{prefix}: {', '.join(_fmt(v) for v in value)}")
        else:
            lines.append(f"{prefix}: {_fmt(value)}")

    def _fmt(v):
        if isinstance(v, bool):
            return "yes" if v else "no"
        if isinstance(v, float):
            return format(v, ".10g")
        if isinstance(v, list):
            return "[" + ", ".join(_fmt(x) for x in v) + "]"
        return str(v)

    emit("", report.results)
    for note in report.diagnostics:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "check": cmd_check,
    "sustainable": cmd_sustainable,
    "equilibrium": cmd_equilibrium,
    "tax": cmd_tax,
    "aggregate": cmd_aggregate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = _COMMANDS[args.command](args)
        rendered = report.to_json() + "\n" if args.format == "json" else _render_text(report)
        if args.out is not None and args.command != "aggregate":
            Path(args.out).write_text(rendered, encoding="utf-8")
    except PipelineError as exc:
        cause = exc.cause
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(cause, NumericalError) else EXIT_NEGATIVE
    except (ParseError, BalanceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE

    print(rendered, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
