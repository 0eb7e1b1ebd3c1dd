"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here and match the contracts asserted throughout the
unit suite; criteria with runtime budgets assert them.
"""

import time

import numpy as np
import pytest
from scipy.optimize import nnls

from ioequil import (
    AggregationMap,
    Technology,
    aggregate,
    aggregated_value_added_check,
    alpha_objective,
    check_sustainable,
    clearing_residual,
    is_productive,
    leontief_solve,
    min_excess_qp,
    min_ratios,
    positive_solution_family,
    prices_on_support,
    relative_prices,
    scaling_identity_check,
    solution_from_alpha,
    tax_bounds,
    tax_family,
)
from conftest import (
    qp_enumeration_oracle,
    random_indecomposable,
    random_productive,
    simplex_grid,
)


def test_criterion_1_solution_family():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        l = int(rng.integers(1, 9))
        c = rng.uniform(0.05, 1.0, (n, l))
        psi = c @ rng.uniform(0.2, 2.0, l)
        family = positive_solution_family(c, psi)
        for _ in range(10):
            gamma = family.sample_gamma(rng)
            assert family.is_admissible(gamma)
            y = family.combine(gamma)
            assert np.all(y > 0.0)
            assert np.max(np.abs(c @ y - psi)) < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\n[criterion 1] PASS - solution family: 100 instances x 10 samples, "
          f"residual < 1e-9, y > 0, {elapsed:.2f}s")


def test_criterion_2_qp_tvya_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    instances = 0
    while instances < 25:
        n = int(rng.integers(2, 4))
        a = random_indecomposable(rng, n)
        b = rng.uniform(0.3, 2.5, n)
        _, residual = nnls(a, b)
        if residual < 1e-3:      # supply must lie outside the cone image
            continue
        instances += 1
        t = Technology(a)
        z0 = min_excess_qp(t, b)
        objective = float(np.sum((b - a @ z0) ** 2))

        # (a) no simplex point beats the program on a 10^4-point grid
        grid = simplex_grid(n, 10_000)
        d = min_ratios(t, b)
        weighted = grid * d[None, :]
        images = weighted @ a.T
        ratios = np.where(images > 0.0, b[None, :] / np.where(images > 0, images, 1.0), np.inf)
        scales = np.min(ratios, axis=1)
        w_values = np.sum((b[None, :] - scales[:, None] * images) ** 2, axis=1)
        assert float(np.min(w_values)) >= objective - 1e-6

        # (b) the simplex point induced by the program solution matches it
        shares = z0 / d
        alpha_star = shares / shares.sum()
        assert alpha_objective(t, b, alpha_star) == pytest.approx(objective, abs=1e-6)

        # (c) brute-force active-set enumeration agrees
        oracle_obj, _ = qp_enumeration_oracle(a, b)
        assert objective == pytest.approx(oracle_obj, abs=1e-5)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\n[criterion 2] PASS - QP/global-minimum equivalence on 25 instances, "
          f"{elapsed:.2f}s")


def test_criterion_3_price_contracts():
    rng = np.random.default_rng(303)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = random_indecomposable(rng, n, low=0.05)
        size = int(rng.integers(1, n + 1))
        idx = sorted(rng.choice(n, size=size, replace=False).tolist())
        rest = [j for j in range(n) if j not in idx]
        z_block = rng.uniform(0.3, 2.0, size)
        z = np.zeros(n)
        z[idx] = z_block
        b = np.empty(n)
        b[idx] = a[np.ix_(idx, idx)] @ z_block
        if rest:
            b[rest] = (a[np.ix_(rest, idx)] @ z_block) * (1.0 + rng.uniform(0.2, 1.0, len(rest)))
        t = Technology(a)

        p = prices_on_support(t, b, z, idx)
        assert np.all(p[rest] == 0.0)
        denom = a[np.ix_(idx, idx)].T @ p[idx]
        z_back = p[idx] * b[idx] / denom
        residual = a[:, idx] @ z_back - b
        assert np.max(np.abs(residual[idx])) < 1e-8
        if rest:
            assert np.all(residual[rest] < 0.0)
        multiplier = float((z[idx] / b[idx]) @ denom)
        assert abs(multiplier - 1.0) < 1e-10
        assert abs(float(p[idx] @ residual[idx])) < 1e-10
    print("\n[criterion 3] PASS - clearing residual < 1e-8 on binding rows, strict "
          "slack, zero prices off support, multiplier and Walras gaps < 1e-10")


def test_criterion_4_sustainability_round_trip():
    rng = np.random.default_rng(404)
    eye = np.eye
    # positives: 80 regular + 20 rank-deficient
    for trial in range(100):
        n = int(rng.integers(2, 6))
        if trial % 5 == 0:
            base = rng.uniform(0.1, 1.0, (n + 1, n + 1))
            weights = rng.uniform(0.2, 0.8, n)
            weights /= weights.sum()
            base[:, -1] = base[:, :-1] @ weights
            base *= 0.6 / float(np.max(np.abs(np.linalg.eigvals(base))))
            t = Technology(base)
            n = n + 1
        else:
            t = random_productive(rng, n, rho=float(rng.uniform(0.3, 0.8)))
        alpha = rng.uniform(0.1, 2.0, n)
        x = t.a @ np.linalg.solve(eye(n) - t.a, alpha)
        verdict = check_sustainable(t, x)
        assert verdict.sustainable
        assert np.all(verdict.margins > 0.0)
        residual = clearing_residual(t, x, verdict.prices)
        assert np.max(np.abs(residual)) < 1e-8 * max(1.0, float(np.max(x)))

    # negatives: forced sign defect in the unique intermediate vector
    produced = 0
    while produced < 100:
        n = int(rng.integers(2, 6))
        t = random_productive(rng, n, rho=float(rng.uniform(0.3, 0.8)))
        b1 = rng.uniform(0.2, 1.5, n)
        flaw = int(rng.integers(0, n))
        if rng.uniform() < 0.5:
            b1[flaw] = -rng.uniform(0.01, 0.1)
            x = t.a @ b1
            if np.any(x <= 0.0):
                continue
        else:
            growth = (np.eye(n) - t.a) @ b1
            if np.all(growth > 0.0):
                scale = rng.uniform(1.5, 3.0)
                b1[flaw] *= 1.0 / scale
                growth = (np.eye(n) - t.a) @ b1
                if np.all(growth > 0.0):
                    continue
            x = t.a @ b1
        produced += 1
        verdict = check_sustainable(t, x)
        assert not verdict.sustainable
    print("\n[criterion 4] PASS - 100 constructed positives (with rank-deficient "
          "cases) sustainable with positive margins, 100 negatives rejected")


def test_criterion_5_taxation_existence():
    rng = np.random.default_rng(505)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = random_indecomposable(rng, n)
        a *= rng.uniform(0.2, 0.9, n) / a.sum(axis=0)
        t = Technology(a)
        big_x = rng.uniform(0.5, 3.0, n)
        family = tax_family(t, big_x)
        for c0 in np.linspace(family.c0_max / 10.0, family.c0_max, 10):
            pi = family.pi(float(c0))
            # the taxed equations: clearing at unit prices with x = psi
            residual = clearing_residual(t, (1.0 - pi) * big_x, np.ones(n))
            assert np.max(np.abs(residual)) < 1e-8
        best = family.best_pi
        assert np.min(best) == 0.0
        assert np.all(best < 1.0)
    print("\n[criterion 5] PASS - taxed clearing equations hold to 1e-8 across the "
          "c0 grid on 50 instances; best taxation has an exactly untaxed sector")


def test_criterion_6_bounds_reconstruction():
    rng = np.random.default_rng(606)
    feasible_seen = 0
    for trial in range(100):
        n = int(rng.integers(2, 7))
        a = random_indecomposable(rng, n)
        a *= rng.uniform(0.2, 0.9, n) / a.sum(axis=0)
        t = Technology(a)
        ratios = 1.0 - a.sum(axis=0)
        if trial % 2 == 0:
            pi = rng.uniform(0.05, 0.95, n)
        else:
            beta = rng.uniform(1.0, 0.999 / float(np.max(1.0 - ratios)))
            pi = 1.0 - beta * (1.0 - ratios) * rng.uniform(1.0, 1.1, n)
            if np.any(pi <= 0.0) or np.any(pi >= 1.0):
                continue
        report = tax_bounds(pi, ratios, t_value=t)
        if not report.feasible:
            continue
        feasible_seen += 1
        lo, hi = report.beta_interval
        assert lo < report.witness_beta <= hi
        normalized = report.final_y / np.max(report.final_y)
        assert np.all(normalized > 1e-10)
    assert feasible_seen >= 25
    print(f"\n[criterion 6] PASS - reconstructed final consumption strictly positive "
          f"in all {feasible_seen} feasible cases out of 100")


def test_criterion_7_aggregation_identities():
    rng = np.random.default_rng(707)
    for _ in range(100):
        m = int(rng.integers(3, 13))
        n = int(rng.integers(2, min(5, m)))
        t = random_productive(rng, m, rho=float(rng.uniform(0.3, 0.7)))
        c = rng.uniform(0.2, 1.5, m)
        x = leontief_solve(t, c)
        margins = rng.uniform(0.1, 1.0, m)
        p = np.linalg.solve(np.eye(m) - t.a.T, margins)
        assignment = np.concatenate([np.arange(n), rng.integers(0, n, m - n)])
        rng.shuffle(assignment)
        amap = AggregationMap(m=m, n=n, assignment=tuple(int(v) for v in assignment))

        table = aggregate(t, p, x, amap)
        scale = max(1.0, float(np.max(table.big_x)))
        assert abs(np.sum(table.consumption) - np.sum(table.delta)) < 1e-10 * scale
        assert is_productive(table.technology)
        p_hat = rng.uniform(0.4, 2.5, n)
        x_hat = rng.uniform(0.4, 2.5, n)
        assert scaling_identity_check(t, p, x, amap, p_hat, x_hat)
        assert aggregated_value_added_check(t, p, x, amap, p_hat)
        unit = relative_prices(table, table.delta / table.big_x)
        assert np.max(np.abs(unit - 1.0)) < 1e-10
    print("\n[criterion 7] PASS - balance, productivity, scaling and unit-price "
          "identities hold to 1e-10 on 100 fine economies")


def test_criterion_8_worked_micro_examples():
    started = time.perf_counter()
    sym = Technology([[0.2, 0.3], [0.3, 0.2]])
    ones = np.array([1.0, 1.0])

    p = prices_on_support(sym, ones, np.array([2.0, 2.0]), [0, 1])
    assert np.max(np.abs(p - 0.5)) < 1e-10

    d = min_ratios(sym, ones)
    assert np.max(np.abs(d - 10.0 / 3.0)) < 1e-10

    point = solution_from_alpha(sym, ones, np.array([0.5, 0.5]))
    assert abs(point.scale - 1.2) < 1e-10

    value_units = Technology(sym.a)
    family = tax_family(value_units, ones)
    assert abs(family.c0_max - 4.0) < 1e-10
    for c0 in (0.5, 1.0, 2.5, 4.0):
        assert np.max(np.abs(family.pi(c0) - (1.0 - 0.25 * c0))) < 1e-10

    fine = Technology([[0.1, 0.1, 0.2], [0.1, 0.1, 0.2], [0.2, 0.2, 0.1]])
    amap = AggregationMap(m=3, n=2, assignment=(0, 0, 1))
    table = aggregate(fine, np.ones(3), np.ones(3), amap)
    assert np.max(np.abs(table.a_bar - np.array([[0.2, 0.4], [0.2, 0.1]]))) < 1e-10
    assert np.max(np.abs(table.big_x - np.array([2.0, 1.0]))) < 1e-10
    assert np.max(np.abs(table.consumption - np.array([1.2, 0.5]))) < 1e-10

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\n[criterion 8] PASS - worked micro-examples reproduced to 1e-10, "
          f"{elapsed:.3f}s")
