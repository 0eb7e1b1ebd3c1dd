import numpy as np
import pytest

from ioequil import Technology, load_table
from ioequil.errors import SolverStallError
from ioequil.qp import solve_min_excess

from conftest import (
    column_sums_in_value_units,
    data_path,
    dependent_columns,
    qp_enumeration_oracle,
    random_indecomposable,
    solve_min_excess_cold_reference,
    solve_min_excess_qr_reference,
    two_block,
    value_table_supply,
)


def test_worked_partial_clearing_example():
    a = np.array([[0.1, 0.2], [0.2, 0.1]])
    b = np.array([1.0, 3.0])
    result = solve_min_excess(a, b)
    # hand solution: supply of good one binds, z = (10, 0), objective 1
    assert np.allclose(result.z, [10.0, 0.0], atol=1e-8)
    assert result.objective == pytest.approx(1.0, abs=1e-10)
    assert result.binding_rows == (0,)
    assert result.kkt_residual < 1e-10


def test_certificate_not_recomputed_after_the_loop(monkeypatch):
    # one NNLS for the least-distance start, whose working set (bound z_2 = 0,
    # supply row 0) gives z = (10, 0); the loop's first pass finds a zero step
    # and certifies it with the multipliers from R, without a second NNLS
    from ioequil import qp

    calls = []
    original = qp.nnls

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(qp, "nnls", counted)
    result = solve_min_excess(np.array([[0.1, 0.2], [0.2, 0.1]]), np.array([1.0, 3.0]))
    assert len(calls) == 1
    assert result.start == "ldp" and result.iterations == 1
    assert result.kkt_residual < 1e-10


def test_empty_working_set_reports_gradient_norm():
    # min (z - 1)^2 + 25: the optimum z = 1 is reached with no bound and no
    # supply row in the working set, so the certificate is the gradient norm
    a = np.array([[1.0], [0.0]])
    b = np.array([1.0, 5.0])
    result = solve_min_excess(a, b)
    assert np.array_equal(result.z, [1.0])
    assert result.binding_rows == ()
    gradient = 2.0 * a.T @ (a @ result.z - b)
    assert result.kkt_residual == float(np.linalg.norm(gradient)) == 0.0


def test_exact_fit_when_supply_in_cone_image():
    a = np.array([[0.2, 0.3], [0.3, 0.2]])
    b = a @ np.array([2.0, 2.0])
    result = solve_min_excess(a, b)
    assert result.objective < 1e-18
    assert np.max(np.abs(a @ result.z - b)) < 1e-9


def test_matches_enumeration_oracle(rng):
    for trial in range(150):
        n = int(rng.integers(1, 5))
        a = rng.uniform(0.0, 1.0, (n, n))
        kind = trial % 4
        if kind == 0 and n > 1:
            a[:, -1] = a[:, 0]            # duplicated column, singular normal matrix
        elif kind == 1 and n > 1:
            a[-1, :] = 0.5 * a[0, :]      # dependent rows
        np.fill_diagonal(a, np.maximum(a.diagonal(), 0.05))
        if kind == 2:
            b = np.maximum(a @ rng.uniform(0.0, 2.0, n), 1e-3)
        else:
            b = rng.uniform(0.3, 3.0, n)
        result = solve_min_excess(a, b)
        assert np.min(result.z) >= -1e-12
        assert np.max(a @ result.z - b) <= 1e-10 * max(1.0, float(np.max(b)))
        oracle_obj, _ = qp_enumeration_oracle(a, b)
        assert result.objective <= oracle_obj + 1e-7 * max(1.0, oracle_obj)
        assert result.objective >= oracle_obj - 1e-7 * max(1.0, oracle_obj)


def test_kkt_certificate_on_larger_instances(rng):
    for _ in range(100):
        n = 8
        a = random_indecomposable(rng, n, density=0.7, low=0.0)
        b = rng.uniform(0.3, 3.0, n)
        result = solve_min_excess(a, b)
        assert result.kkt_residual < 1e-10
        assert np.max(a @ result.z - b) <= 1e-10 * max(1.0, float(np.max(b)))


NNLS_CALLS = {
    "least-distance start": np.array([[0.1, 0.2], [0.2, 0.1]]),
}


@pytest.mark.parametrize("what", NNLS_CALLS)
def test_nnls_cap_is_a_typed_stall(monkeypatch, what):
    from ioequil import qp

    def capped(*args, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(qp, "nnls", capped)
    with pytest.raises(SolverStallError, match=f"NNLS for the {what} failed"):
        solve_min_excess(NNLS_CALLS[what], np.array([1.0, 3.0]))


def test_zero_image_starts_at_the_zero_vertex():
    # A = 0 and its shift are both rejected by the LU test: the loop starts
    # at z = 0 and certifies it there
    a = np.zeros((2, 2))
    b = np.array([1.0, 2.0])
    result = solve_min_excess(a, b)
    assert np.array_equal(result.z, [0.0, 0.0])
    assert result.objective == 5.0
    assert result.iterations == 1
    assert result.start == "zero"


def test_singular_technology_starts_from_the_shifted_matrix():
    # toy3's sectors s1 and s2 have equal input rows, so A fails the LU rank
    # test and A + SHIFT max|A| E passes it; its optimum is not unique, and
    # the rebuild on A reaches the z = (5/6, 5/6, 5/3) that
    # TestToy3ExactOracles pins (supply b = X / 2), certified on the first pass
    table = load_table(data_path("toy3.csv"))
    result = solve_min_excess(table.technology.a, table.big_x / 2.0)
    assert result.start == "shifted" and result.iterations == 1
    assert np.max(np.abs(result.z - [5.0 / 6.0, 5.0 / 6.0, 5.0 / 3.0])) < 1e-13


def test_infeasible_least_distance_point_falls_back_to_the_zero_start(monkeypatch):
    # an empty least-distance working set rebuilds z = A^-1 b = (50/3, -10/3),
    # which breaks z >= 0: the loop starts at z = 0 with every bound in the
    # working set, without a second NNLS, and reaches the optimum z = (10, 0)
    from ioequil import qp

    calls = []
    original = qp.nnls

    def empty_first(matrix, rhs):
        calls.append(1)
        return (np.zeros(matrix.shape[1]), 1.0) if len(calls) == 1 else original(matrix, rhs)

    monkeypatch.setattr(qp, "nnls", empty_first)
    result = solve_min_excess(np.array([[0.1, 0.2], [0.2, 0.1]]), np.array([1.0, 3.0]))
    assert len(calls) == 1 and result.start == "zero"
    assert np.allclose(result.z, [10.0, 0.0], atol=1e-8) and result.binding_rows == (0,)


def _bundled(name):
    table = load_table(data_path(name))
    return table.a_bar, table.big_x / 2.0


def _random(n, density, deficiency=0):
    rng = np.random.default_rng([n, int(10 * density), deficiency])
    if deficiency:
        a = dependent_columns(rng, n, deficiency, density)
    else:
        a = random_indecomposable(rng, n, density=density)
    a = column_sums_in_value_units(rng, a)
    return a, value_table_supply(rng, a)


SAME_START_INSTANCES = {
    "toy2": (lambda: _bundled("toy2.csv"), "ldp"),
    "toy3": (lambda: _bundled("toy3.csv"), "shifted"),
    "dense n=20": (lambda: _random(20, 1.0), "ldp"),
    "30% density n=20": (lambda: _random(20, 0.3), "ldp"),
    "dense n=60": (lambda: _random(60, 1.0), "ldp"),
    "30% density n=60": (lambda: _random(60, 0.3), "ldp"),
    "rank n-1 n=20": (lambda: _random(20, 0.3, deficiency=1), "shifted"),
}


@pytest.mark.parametrize("kind", SAME_START_INSTANCES)
def test_technology_reuses_its_lu_for_the_same_result(kind):
    # a Technology hands the QP the factors of its cached lu; an array is
    # factored by the same call inside the QP
    make, start = SAME_START_INSTANCES[kind]
    a, b = make()
    from_array = solve_min_excess(a, b)
    from_technology = solve_min_excess(Technology(a), b)
    assert from_array.start == start
    assert from_technology.z.tobytes() == from_array.z.tobytes()
    assert (from_technology.start, from_technology.iterations) == (start, from_array.iterations)


REFERENCE_INSTANCES = {
    "dense n=60": lambda rng: column_sums_in_value_units(rng, random_indecomposable(rng, 60)),
    "30% density n=60": lambda rng: column_sums_in_value_units(
        rng, random_indecomposable(rng, 60, density=0.3)),
    "two 40-sector blocks at 1e-3": lambda rng: two_block(rng, 80, 40, 1e-3),
}


@pytest.mark.parametrize("kind", REFERENCE_INSTANCES)
def test_matches_cold_start_reference(kind):
    rng = np.random.default_rng(list(REFERENCE_INSTANCES).index(kind))
    for _ in range(2):
        a = REFERENCE_INSTANCES[kind](rng)
        b = value_table_supply(rng, a)
        warm = solve_min_excess(a, b)
        cold = solve_min_excess_cold_reference(a, b)
        assert cold.binding_rows and cold.iterations > 50   # a real active-set path
        assert abs(warm.objective - cold.objective) <= 1e-12 * cold.objective
        assert np.max(np.abs(warm.z - cold.z)) <= 1e-10 * max(1.0, float(np.max(cold.z)))
        assert warm.binding_rows == cold.binding_rows
        assert warm.kkt_residual < 1e-10


def test_warm_start_saves_three_quarters_of_the_iterations():
    rng = np.random.default_rng(60)
    a = REFERENCE_INSTANCES["dense n=60"](rng)
    b = value_table_supply(rng, a)
    warm = solve_min_excess(a, b)
    cold = solve_min_excess_cold_reference(a, b)
    assert 4 * warm.iterations < cold.iterations


def assert_matches_qr_reference(a, b, same_rows=True):
    """The least-distance start reaches the reference loop's objective and its
    A z, which is unique on the optimal face; with ``same_rows`` also its
    binding rows. Returns the least-distance result."""
    result = solve_min_excess(a, b)
    reference = solve_min_excess_qr_reference(a, b)
    assert abs(result.objective - reference.objective) <= 1e-12 * max(1.0, reference.objective)
    scale = max(1.0, float(np.max(np.abs(b))))
    assert np.max(np.abs(a @ result.z - a @ reference.z)) <= 1e-10 * scale
    if same_rows:
        assert result.binding_rows == reference.binding_rows
    assert result.kkt_residual < 1e-10
    return result


@pytest.mark.parametrize("kind", REFERENCE_INSTANCES)
def test_least_distance_start_matches_qr_reference(kind):
    # A is nonsingular on value tables: one pass of the loop certifies the
    # rebuilt least-distance optimum
    rng = np.random.default_rng(list(REFERENCE_INSTANCES).index(kind))
    for _ in range(2):
        a = REFERENCE_INSTANCES[kind](rng)
        result = assert_matches_qr_reference(a, value_table_supply(rng, a))
        assert result.start == "ldp" and result.iterations == 1


def test_matches_qr_reference_on_singular_instances(rng):
    # the duplicated-column and dependent-row instances of the enumeration
    # test. At an optimal face the working set is not unique, so only the
    # objective and A z are compared. Most fail the LU rank test and take the
    # shifted start; the raised diagonal makes a few nonsingular
    starts = []
    for trial in range(100):
        n = int(rng.integers(2, 5))
        a = rng.uniform(0.0, 1.0, (n, n))
        if trial % 2 == 0:
            a[:, -1] = a[:, 0]
        else:
            a[-1, :] = 0.5 * a[0, :]
        np.fill_diagonal(a, np.maximum(a.diagonal(), 0.05))
        starts.append(assert_matches_qr_reference(a, rng.uniform(0.3, 3.0, n), same_rows=False).start)
    assert starts.count("shifted") > 80 and set(starts) == {"shifted", "ldp"}


def test_least_distance_start_matches_qr_reference_at_200_sectors():
    rng = np.random.default_rng(200)
    a = column_sums_in_value_units(rng, random_indecomposable(rng, 200, density=0.3))
    assert assert_matches_qr_reference(a, value_table_supply(rng, a)).start == "ldp"


def count_nnls_calls(monkeypatch, solve, a, b) -> int:
    from ioequil import qp

    calls = []
    original = qp.nnls

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(qp, "nnls", counted)
    solve(a, b)
    return len(calls)


def test_one_certificate_per_solve(monkeypatch):
    # the reference loop reads the multipliers from R and fits one NNLS
    # certificate at the exit, after its scaled start's NNLS; the
    # least-distance start certifies from R's multipliers, so its start is
    # the only NNLS of the solve
    rng = np.random.default_rng(60)
    a = REFERENCE_INSTANCES["dense n=60"](rng)
    b = value_table_supply(rng, a)
    assert count_nnls_calls(monkeypatch, solve_min_excess_qr_reference, a, b) == 2
    assert count_nnls_calls(monkeypatch, solve_min_excess, a, b) == 1


def test_failed_exit_certificate_is_a_degenerate_working_set(monkeypatch):
    # at z = (10, 0) the multipliers from R are non-negative; a gradient moved
    # off the cone of the working normals leaves a certificate residual of
    # |shift| = 1e-3 > tol, and no multiplier to drop
    from ioequil import qp

    original = qp._kkt_residual
    residuals = []

    def perturbed(a, gradient, fixed, rows, multipliers):
        residuals.append(original(a, gradient + 1e-3 / np.sqrt(2.0), fixed, rows, multipliers))
        return residuals[-1]

    monkeypatch.setattr(qp, "_kkt_residual", perturbed)
    with pytest.raises(SolverStallError, match="degenerate working set: no droppable constraint"):
        solve_min_excess(np.array([[0.1, 0.2], [0.2, 0.1]]), np.array([1.0, 3.0]))
    assert residuals == [pytest.approx(1e-3, rel=1e-9)]


@pytest.mark.parametrize("seed", range(4))
def test_least_distance_start_matches_qr_reference_at_400_dense_sectors(seed):
    rng = np.random.default_rng([seed, 400])
    a = column_sums_in_value_units(rng, random_indecomposable(rng, 400))
    assert assert_matches_qr_reference(a, value_table_supply(rng, a)).start == "ldp"


def test_dense_table_past_the_default_nnls_cap_certifies():
    # the smallest table of a search over n = 200, 210, ..., 370 and seeds
    # 0-7 on which an NNLS fit of the gradient to the optimal working normals
    # stops at scipy's default cap of 3 iterations per column: the scaled
    # NNLS start's exit certificate raised SolverStallError here
    from scipy.optimize import nnls

    rng = np.random.default_rng([2, 310])
    a = column_sums_in_value_units(rng, random_indecomposable(rng, 310))
    b = value_table_supply(rng, a)
    result = solve_min_excess(a, b)
    assert result.start == "ldp" and result.kkt_residual < 1e-10
    assert np.min(result.z) >= 0.0 and np.max(a @ result.z - b) <= 1e-12 * float(np.max(b))
    normals = np.hstack([np.eye(310)[:, result.z == 0.0], -a[list(result.binding_rows)].T])
    with pytest.raises(RuntimeError, match="Maximum number of iterations"):
        nnls(normals, 2.0 * a.T @ (a @ result.z - b))


@pytest.mark.parametrize("n, deficiency, density", [
    (n, deficiency, density) for n in (60, 200) for deficiency in (1, 5) for density in (1.0, 0.3)])
def test_rank_deficient_table_certifies_from_the_shifted_start(monkeypatch, n, deficiency, density):
    # A of rank n - 1 or n - 5 fails the LU test; its shift passes it, and the
    # working set of the shifted least-distance program is optimal for A
    # itself. Without any start the loop from zero reaches the same optimum
    from ioequil import qp

    rng = np.random.default_rng([n, deficiency, int(10 * density)])
    a = column_sums_in_value_units(rng, dependent_columns(rng, n, deficiency, density))
    b = value_table_supply(rng, a)
    assert np.linalg.matrix_rank(a) == n - deficiency
    assert count_nnls_calls(monkeypatch, solve_min_excess, a, b) == 1
    result = assert_matches_qr_reference(a, b, same_rows=False)
    assert result.start == "shifted" and result.iterations == 1
    monkeypatch.setattr(qp, "nonsingular_lu", lambda m: None)
    assert assert_matches_qr_reference(a, b, same_rows=False).start == "zero"
