"""Independent checks of every CLI report the benchmark receives.

Nothing here imports ``ioequil``: each fact is recomputed from the
generated numbers with numpy/scipy (dense eigenvalues, strong components,
a HiGHS feasibility LP, an SLSQP solve of the minimum-excess program and
closed forms), once per table in ``reference``. ``check_report`` then
compares one decoded JSON report, with its exit code, against those facts
and returns the list of problems it found (empty when the report is right).
Reports carry 12 significant digits, so comparisons are relative at 1e-8
unless a tighter identity is stated.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.sparse.csgraph import connected_components

from gen import UNIT_PRICE_TOL, Table

REL = 1e-8                 # agreement of reported floats with recomputed ones
BINDING_TOL = 1e-8         # |b_k - b_bar_k| on rows the report calls binding
QP_REL = 1e-6              # reported excess objective may exceed SLSQP's by this share


@dataclass(frozen=True, eq=False)
class Reference:
    """Facts about one table, computed apart from the program."""

    table: Table
    digest: str                  # sha256 of the CSV file
    a: np.ndarray
    s: np.ndarray
    pi0: np.ndarray
    psi: np.ndarray
    rho: float
    strongly_connected: bool
    row_gap: float
    col_gap: float
    lp_margin: float             # max t with b1 >= t, (E-A) b1 >= t, A b1 = X
    b1: np.ndarray
    unit_residual: float         # relative taxed clearing residual at unit prices
    qp_objective: float          # feasible upper bound on min ||b - A z||^2
    coarse: dict

    @property
    def sustainable(self) -> bool:
        return self.lp_margin > 1e-9 * max(1.0, float(np.max(np.abs(self.b1))))

    @property
    def sustainable_at_unit_prices(self) -> bool:
        return self.unit_residual <= UNIT_PRICE_TOL and bool(np.all(self.s < 1.0))


def reference(t: Table) -> Reference:
    a, n, x = t.a, t.n, t.x
    s = a.sum(axis=0)
    pi0 = t.t1 / t.delta
    psi = (1.0 - pi0) * x
    scale = np.maximum(1.0, np.abs(x))
    residual = a @ (psi / s) - psi
    unit_residual = float(np.max(np.abs(residual))) / max(1.0, float(np.max(x)))
    n_comp, _ = connected_components(a > 0.0, directed=True, connection="strong")

    # Feasibility of b1 >= t, (E-A) b1 >= t, A b1 = X. On A b1 = X the
    # second inequality reads b1 - X >= t and implies the first, so
    # b1 = X + t 1 + u with u >= 0, and the LP keeps n equality rows.
    lp = linprog(c=np.r_[np.zeros(n), -1.0], A_eq=np.c_[a, a.sum(axis=1)], b_eq=x - a @ x,
                 bounds=[(0.0, None)] * n + [(None, None)], method="highs")
    if lp.status != 0:
        raise RuntimeError(f"{t.label}: sustainability LP failed: {lp.message}")
    lp_margin = float(lp.x[-1])
    b1 = x + lp_margin + lp.x[:n]

    ref_unit = unit_residual <= UNIT_PRICE_TOL and bool(np.all(s < 1.0))
    qp_objective = 0.0 if ref_unit else _qp_upper_bound(a, psi)

    k = int(t.assignment.max()) + 1
    group = np.zeros((k, n))
    group[t.assignment, np.arange(n)] = 1.0
    big_x = group @ x
    coarse = {
        "a_bar": (group @ t.z @ group.T) / big_x[None, :],
        "X": big_x,
        "C": group @ (x - a @ x),
        "Delta": group @ ((1.0 - s) * x),
    }
    return Reference(
        table=t, digest=hashlib.sha256(t.path.read_bytes()).hexdigest(), a=a, s=s, pi0=pi0, psi=psi,
        rho=float(np.max(np.abs(np.linalg.eigvals(a)))),
        strongly_connected=n_comp == 1,
        row_gap=float(np.max(np.abs(x - t.z.sum(axis=1) - (t.c + t.e - t.i)) / scale)),
        col_gap=float(np.max(np.abs(t.z.sum(axis=0) - (x - t.delta)) / scale)),
        lp_margin=lp_margin, b1=b1,
        unit_residual=unit_residual, qp_objective=qp_objective, coarse=coarse,
    )


def _qp_upper_bound(a: np.ndarray, b: np.ndarray) -> float:
    """Objective of an SLSQP solve of min ||A z - b||^2, z >= 0, A z <= b.

    The SLSQP point is scaled back into the feasible set, so the value is an
    upper bound on the true minimum whatever SLSQP's own accuracy.
    """
    n = a.shape[1]
    result = minimize(
        lambda z: float(np.sum((a @ z - b) ** 2)),
        np.zeros(n),
        jac=lambda z: 2.0 * a.T @ (a @ z - b),
        bounds=[(0.0, None)] * n,
        constraints=[{"type": "ineq", "fun": lambda z: b - a @ z, "jac": lambda z: -a}],
        method="SLSQP",
        options={"maxiter": 2000, "ftol": 1e-15},
    )
    z = np.maximum(result.x, 0.0)
    image = a @ z
    z *= min(1.0, float(np.min(b / np.where(image > 0.0, image, np.inf))))
    return float(np.sum((a @ z - b) ** 2))


# --- per-command checks ------------------------------------------------------

def _close(got, want, rel: float = REL, floor: float = 1.0) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    size = max(floor, float(np.max(np.abs(want))) if want.size else 0.0)
    return bool(np.all(np.abs(got - want) <= rel * size))


def _check(r: dict, code: int, ref: Reference) -> list[str]:
    out = []
    productive = ref.rho < 1.0
    if r["productive"] != productive:
        out.append(f"productive={r['productive']}, eigenvalues give radius {ref.rho:.12g}")
    if r["indecomposable"] != ref.strongly_connected:
        out.append(f"indecomposable={r['indecomposable']}, strong components disagree")
    if not _close(r["spectral_radius"], ref.rho, floor=0.0):
        out.append(f"spectral radius {r['spectral_radius']!r} vs eigvals {ref.rho!r}")
    for key, want in (("row_balance_gap", ref.row_gap), ("column_balance_gap", ref.col_gap)):
        if abs(r[key] - want) > 1e-12:
            out.append(f"{key} {r[key]!r} vs generated {want!r}")
    expected_pass = productive and ref.strongly_connected and max(ref.row_gap, ref.col_gap) <= 1e-6
    if r["pass"] != expected_pass or code != (0 if expected_pass else 1):
        out.append(f"pass={r['pass']} with exit {code}, expected {expected_pass}")
    return out


def _bounds(r: dict, pi: np.ndarray, ref: Reference) -> list[str]:
    """Closed form of the two-sided taxation bound on beta."""
    ratios = ref.table.delta / ref.table.x
    lo = float(np.max(1.0 - pi))
    hi = min(float(np.min((1.0 - pi) / (1.0 - ratios))), 1.0 / float(np.max(1.0 - ratios)))
    out = []
    if r["feasible"] != (lo < hi):
        return [f"bounds feasible={r['feasible']}, closed form gives ({lo!r}, {hi!r})"]
    if lo < hi:
        if not _close(r["interval"], [lo, hi]) or not _close(r["witness_beta"], 0.5 * (lo + hi)):
            out.append(f"bounds interval {r['interval']} vs closed form ({lo!r}, {hi!r})")
    elif r["interval"] is not None:
        out.append("infeasible bounds report an interval")
    if r.get("reconstructed_X") is not None:
        big_x = np.asarray(r["reconstructed_X"])
        x0 = big_x * (1.0 - pi) / ref.s
        if not _balanced(x0, ref):
            out.append("reconstructed X is not s/(1-pi) times a balanced vector")
        if not _close(r["final_Y"], big_x - ref.a @ big_x):
            out.append("final Y differs from X - A X")
    return out


def _balanced(v: np.ndarray, ref: Reference) -> bool:
    """A v = s * v with v > 0: the balanced weights of the value system."""
    return bool(np.all(v > 0.0)) and _close(ref.a @ v, ref.s * v, floor=0.0)


def _sustainable(r: dict, code: int, ref: Reference) -> list[str]:
    out = []
    crit, tax = r["criterion"], r["existing_tax"]
    if crit["sustainable"] != ref.sustainable:
        out.append(f"sustainable={crit['sustainable']}, LP margin {ref.lp_margin:.6g}")
    elif ref.sustainable:
        p = np.asarray(crit["prices"])
        margins = np.asarray(crit["margins"])
        if not (np.all(p > 0.0) and np.all(margins > 0.0)):
            out.append("prices and margins must be strictly positive")
        if not _close(margins, p - ref.a.T @ p, floor=0.0):
            out.append("margins differ from p - A^T p")
        alpha = np.asarray(crit["alpha"])
        image = ref.a @ np.linalg.solve(np.eye(ref.table.n) - ref.a, alpha)
        if not (np.all(alpha > 0.0) and _close(image, ref.table.x)):
            out.append("alpha is not positive with A (E - A)^-1 alpha = X")
    if not _close(tax["pi0"], ref.pi0):
        out.append("pi0 differs from T1 / Delta")
    if tax["sustainable_at_unit_prices"] != ref.sustainable_at_unit_prices:
        out.append(f"sustainable_at_unit_prices={tax['sustainable_at_unit_prices']}, "
                   f"residual {ref.unit_residual:.3g}")
    if abs(tax["residual"] - ref.unit_residual) > 1e-10 + REL * ref.unit_residual:
        out.append(f"unit-price residual {tax['residual']!r} vs {ref.unit_residual!r}")
    if not 0.0 <= tax["excess_level"] < 1.0 or (
            ref.sustainable_at_unit_prices and tax["excess_level"] != 0.0):
        out.append(f"excess level {tax['excess_level']!r} out of range")
    out += _bounds(r["tax_bounds"], ref.pi0, ref)
    positive = ref.sustainable and ref.sustainable_at_unit_prices
    if code != (0 if positive else 1):
        out.append(f"exit {code}, expected {0 if positive else 1}")
    return out


def _equilibrium(r: dict, code: int, ref: Reference) -> list[str]:
    out = []
    n = ref.table.n
    b = ref.psi
    bb = np.asarray(r["real_consumption"])
    p = np.asarray(r["prices"])
    p_u = np.asarray(r["generalized_prices"])
    if not _close(r["supply"], b):
        out.append("supply differs from (1 - pi0) X")
    if np.any(bb > b + 1e-9 * np.maximum(1.0, b)) or np.any(bb < 0.0):
        out.append("real consumption outside [0, supply]")
    binding = [k - 1 for k in r["binding"]]
    slack = [k - 1 for k in r["slack"]]
    if sorted(binding + slack) != list(range(n)):
        out.append("binding and slack rows do not partition the sectors")
        return out
    if np.any(np.abs(b[binding] - bb[binding]) > (BINDING_TOL + REL) * np.maximum(1.0, b[binding])):
        out.append("a binding row does not meet supply")
    if slack and np.any(bb[slack] >= b[slack]):
        out.append("a slack row meets supply")
    if np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > 1e-9 or np.any(p_u < 0.0):
        out.append("prices are not on the simplex")
    level = float((b - np.minimum(bb, b)) @ p_u) / float(b @ p_u)
    if abs(r["excess_level"] - level) > 1e-10 + 1e-7 * level:
        out.append(f"excess level {r['excess_level']!r} vs recomputed {level!r}")
    denom = ref.a.T @ p
    value = bb * p
    terms = np.divide(value, denom, out=np.zeros(n), where=value != 0.0)
    clearing = ref.a @ terms - bb
    if float(np.max(np.abs(clearing))) > 1e-7 * max(1.0, float(np.max(bb))):
        out.append(f"clearing residual {float(np.max(np.abs(clearing))):.3g} at the reported prices")
    objective = float(np.sum((b - bb) ** 2))
    if objective > ref.qp_objective * (1.0 + QP_REL) + 1e-12 * float(b @ b):
        out.append(f"excess objective {objective!r} worse than SLSQP {ref.qp_objective!r}")
    if code != 0:
        out.append(f"exit {code}")
    return out


def _tax(r: dict, code: int, ref: Reference) -> list[str]:
    out = []
    x, s, a = ref.table.x, ref.s, ref.a
    mode = r["mode"]
    if mode == "best":
        pi = np.asarray(r["best_pi"])
        v = np.asarray(r["balanced_weights"])
        supplied = (1.0 - pi) * x
        residual = a @ (supplied / s) - supplied
        if float(np.max(np.abs(residual))) > REL * max(1.0, float(np.max(x))):
            out.append("taxed clearing residual at best_pi is not zero")
        if not _balanced(v, ref) or abs(float(v.sum()) - 1.0) > 1e-9:
            out.append("balanced weights do not solve A v = s * v on the simplex")
        factor = v * s / x
        if not _close(pi, 1.0 - factor / factor.max()) or not _close(r["c0_max"], 1.0 / factor.max()):
            out.append("best_pi or c0_max differ from the family closed form")
        expected = 0
    elif mode == "bounds":
        if not _close(r["pi0"], ref.pi0):
            out.append("pi0 differs from T1 / Delta")
        out += _bounds(r, ref.pi0, ref)
        expected = 0 if r["feasible"] else 1
    elif mode == "value-added":
        x0 = np.asarray(r["X0"])
        if not _close(r["pi"], 1.0 - s):
            out.append("pi differs from 1 - column sums")
        if not _balanced(x0, ref):
            out.append("X0 does not solve A v = s * v")
        if not _close(r["final_basis"], (1.0 - s) * x0):
            out.append("final basis differs from (1 - s) X0")
        expected = 0
    else:
        return [f"unexpected tax mode {mode!r}"]
    if code != expected:
        out.append(f"exit {code}, expected {expected}")
    return out


def _aggregate(r: dict, code: int, ref: Reference) -> list[str]:
    out = []
    want = ref.coarse
    if r["coarse_sectors"] != want["X"].shape[0]:
        return [f"{r['coarse_sectors']} coarse sectors, map has {want['X'].shape[0]}"]
    for key in ("a_bar", "X", "C", "Delta"):
        if not _close(r[key], want[key]):
            out.append(f"{key} differs from the recomputed aggregate")
    if not _close(r["sum_C"], want["C"].sum()) or not _close(r["sum_Delta"], want["Delta"].sum()):
        out.append("sum_C / sum_Delta differ from the recomputed totals")
    if not _close(r["relative_prices"], np.ones(want["X"].shape[0])):
        out.append("default relative prices are not all ones")
    if code != 0:
        out.append(f"exit {code}")
    return out


_CHECKS = {
    "check": _check,
    "sustainable": _sustainable,
    "equilibrium": _equilibrium,
    "tax": _tax,
    "aggregate": _aggregate,
}


def check_report(report: dict, code: int, ref: Reference) -> list[str]:
    """Problems found in one decoded report; [] when it matches the reference."""
    if report.get("inputs_digest") != ref.digest or "results" not in report:
        return ["report envelope is incomplete or names another input"]
    try:
        return _CHECKS[report["command"]](report["results"], code, ref)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
