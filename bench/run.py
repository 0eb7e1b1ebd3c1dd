"""End-to-end and per-layer benchmark of the ioequil command line.

Usage (from the repository root):

    python3 bench/run.py --workload equilibrium-mid --seed 1 --seconds 30 --trace 0

The run generates the workload's fixed set of balanced tables from
``--seed`` (see gen.py), then calls ``ioequil.cli.main`` in this process
for every command on every table, in whole rounds, until ``--seconds`` have
passed. Every report is checked against facts computed apart from the
program (checks.py). An operation fails when it exits 2 or 3, prints an
``error:`` line, or returns a report that fails its check; a negative
verdict that the check confirms is a success.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``setup_s`` (median time to import ``ioequil.cli``
in a fresh interpreter), the mean wall time per call of each command and
the peak resident memory. With ``--trace 1`` the layers of the program are
wrapped (layers.py) and the object carries the per-layer metrics, per
round. Full details go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import ioequil.cli\n"
    "print(repr(time.perf_counter() - start))\n"
)

# Every command runs on every table, so each workload reports every
# end-to-end metric; the tables decide which layers carry the time.
COMMANDS = (
    ("check",),
    ("sustainable", "--tax-bounds"),
    ("equilibrium",),
    ("tax", "best"),
    ("tax", "bounds"),
    ("tax", "value-added"),
    ("aggregate",),
)
COMMAND_METRICS = ("check_s", "sustainable_s", "equilibrium_s", "tax_s", "aggregate_s")


def workload_specs(name: str):
    from gen import Spec

    if name == "equilibrium-mid":
        # fixed-share taxes: analyze always runs the minimum-excess QP
        return [Spec(60)] * 4 + [Spec(60, density=0.3)] * 4
    if name == "screen-large":
        # balanced-family taxes: analyze skips the QP; half of the outputs
        # are X = A (E-A)^-1 alpha, so both sustainability verdicts occur
        return [Spec(400, density=d, taxes="balanced", output=o, coarse=40)
                for d in (1.0, 0.3) for o in ("sustainable", "leontief")]
    if name == "weak-coupled":
        # two dense blocks: many cheap fixed-point iterations on small matrices
        return [Spec(40, coupling=1e-3)] * 8
    raise ValueError(name)


WORKLOADS = ("equilibrium-mid", "screen-large", "weak-coupled")


def measure_setup() -> float:
    """Median time to import ioequil.cli in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def call_cli(main, argv: list[str]) -> tuple[int, str, str, float]:
    """Exit code, stdout, stderr and wall time of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:   # a crash of the program is a failed operation, not of the run
            code = -1
            err.write("error: " + traceback.format_exc())
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # One BLAS thread, set before numpy loads: on a small shared machine a
    # second spinning BLAS thread adds run-to-run noise, and the benchmark
    # process stays within nproc threads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    setup_s = measure_setup()
    details: dict = {"workload": workload, "seed": seed, "trace": trace}

    sys.path.insert(0, str(SRC))
    import numpy as np

    import checks
    import gen
    import ioequil
    from ioequil import cli

    if Path(ioequil.__file__).resolve().parent != SRC / "ioequil":
        raise SystemExit(f"imported ioequil from {ioequil.__file__}, not from {SRC}")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"tables-{workload}-") as tmp:
        rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        tables = [gen.make_table(rng, spec, f"t{k}", Path(tmp))
                  for k, spec in enumerate(workload_specs(workload))]
        ops = []
        for index, t in enumerate(tables):
            for command in COMMANDS:
                paths = [str(t.path)] + ([str(t.map_path)] if command[0] == "aggregate" else [])
                argv = [command[0], *paths, *command[1:], "--format", "json"]
                ops.append((f"{command[0]}_s", " ".join(command), index, argv))

        tracer = None
        if trace:
            import layers

            tracer = layers.Tracer()
            tracer.install()

        spent = {m: 0.0 for m in COMMAND_METRICS}
        calls = {m: 0 for m in COMMAND_METRICS}
        outcomes: dict[tuple, int] = {}   # (op, exit code, stdout, stderr) -> times seen
        rounds = 0
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < seconds:
            for k, (metric, label, _, argv) in enumerate(ops):
                if tracer is not None:
                    tracer.command = label
                code, stdout, stderr, elapsed = call_cli(cli.main, argv)
                spent[metric] += elapsed
                calls[metric] += 1
                key = (k, code, stdout, stderr)
                outcomes[key] = outcomes.get(key, 0) + 1
            rounds += 1
        details.update(rounds=rounds, wall_s=time.perf_counter() - start, calls=calls,
                       command_means={m: spent[m] / calls[m] for m in COMMAND_METRICS})
        # read before the reference solves, so the peak is that of the runs
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # The program is deterministic, so each distinct outcome is checked once.
        refs = [checks.reference(t) for t in tables]
        attempted = sum(outcomes.values())
        failed = wrong = 0
        failures = []
        for (k, code, stdout, stderr), times in outcomes.items():
            _, label, index, _ = ops[k]
            if code in (2, 3) or "error:" in stderr:
                problems = [f"exit {code}: {stderr.strip()}"]
            else:
                try:
                    problems = checks.check_report(json.loads(stdout), code, refs[index])
                except json.JSONDecodeError:
                    problems = [f"exit {code} without a JSON report"]
                wrong += times if problems else 0
            if problems:
                failed += times
                failures.append(f"{label} {tables[index].label} (x{times}): " + "; ".join(problems))
        details["failures"] = failures

    end_to_end = {"setup_s": (setup_s, "s")}
    end_to_end.update((m, (spent[m] / calls[m], "s")) for m in COMMAND_METRICS)
    end_to_end["rss_peak_mb"] = (rss_mb, "MB")
    if tracer is None:
        metrics = end_to_end
    else:
        units = dict(layers.metric_names())
        metrics = {k: (v, units[k]) for k, v in tracer.metrics(rounds).items()}
        per_label = len(tables) * rounds   # every command runs once per table and round
        details["calls_per_command"] = {
            label: {f: n / per_label for f, n in counts.items()}
            for label, counts in tracer.command_calls.items()}
    details["metrics"] = {k: v for k, (v, _) in {**end_to_end, **metrics}.items()}

    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    for line in failures[:5]:
        print(f"failed: {line}", file=sys.stderr)
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ioequil" / "cli.py").is_file():
        print(f"error: no ioequil sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
