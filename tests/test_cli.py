import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import ioequil
from ioequil import cli, errors, load_table, loads_table, tax_family
from ioequil.cli import main
from ioequil.real_economy import IOTable, analyze, dumps_table
from ioequil.reporting import validate_report

from conftest import (
    data_path,
    equal_radius_blocks,
    leontief_value_table,
    random_indecomposable,
    record_calls,
    record_technologies,
    seeded_table,
    two_block,
)

# (argv, exit code, SHA-256 of the --format json stdout) for every command on
# the bundled tables. Refactors must keep these bytes; a change to them must be
# a declared correctness fix with the new hash recorded here.
GOLDEN_JSON = [
    (('check', 'toy2.csv'), 0, 'b4d9269dfd7a58eaf596f53a9fadb5666d822c5ec7f4b79c245c47e5df9bb01e'),
    (('sustainable', 'toy2.csv'), 0, '85e2ced594145c3e569c2ad426fe5c9bf56d8cffe3beef2b31ba4acbbf23528e'),
    (('sustainable', 'toy2.csv', '--tax-bounds'), 0, 'cc2d852398896d48fb865d56c9fa11a6a1c6d8afda6e2c498364795c8ed086c0'),
    (('equilibrium', 'toy2.csv'), 0, 'bb01d92e0a958c3337ee47601a017e2aa7911c284de58789b645112b3abae1df'),
    (('equilibrium', 'toy2.csv', '--alpha', '0.5,0.5'), 0, '7302859f7ef86a92d545786fb2fdb497ab2939bf03214f0201be80f149e2b0bc'),
    (('tax', 'toy2.csv', 'existing'), 0, 'e5829621e4ae5233a96be512c00b4132441a14418af143743c81dd945239e415'),
    (('tax', 'toy2.csv', 'best'), 0, '65bc3ad47dfe5cb64cd4ebacf124315390ccfdaefa591a810a9cd4dbf0769c40'),
    (('tax', 'toy2.csv', 'bounds'), 0, 'ca12764764e1e249b8437ae66f228ff5b3847002d7da49d36d020df59b621c9b'),
    (('tax', 'toy2.csv', 'value-added'), 0, '2c4f7fe394f4f42d09875b550748ca2d0923cb262cc48fbc6074fcf9d51b9306'),
    (('check', 'toy2_overtaxed.csv'), 0, 'b0562a5919661ec574836da3f9d19513e009cfea7fadda7612ebe71fa55d44e4'),
    (('sustainable', 'toy2_overtaxed.csv'), 1, '90180069a2207b328e4d248387f0c1ec160732c9dadad03256130b68d7eebd27'),
    (('sustainable', 'toy2_overtaxed.csv', '--tax-bounds'), 1, '643bfdc38f1c63a6d1d61f771a3cbdf358ff78938175e81e397d2b137b9cb05e'),
    (('equilibrium', 'toy2_overtaxed.csv'), 0, '516e1c96aca805907529143b24a93118582ba74b68c9baf0eb7c8eefec3e1c58'),
    (('tax', 'toy2_overtaxed.csv', 'existing'), 0, '163a738240a484094ecbc6309aa2752f50764ede5e1cd81fd8db84322c93f6f5'),
    (('tax', 'toy2_overtaxed.csv', 'best'), 0, 'af36539a736504973b2134bb6e6c1a3e4c92dea8e06c8d9d79cc97d771f5cda3'),
    (('tax', 'toy2_overtaxed.csv', 'bounds'), 1, 'f45467c8e4305f11c449bab6766f9f3e8b80b5e6887430923e71e825bd41eb1e'),
    (('tax', 'toy2_overtaxed.csv', 'value-added'), 0, '303dbc9e95b0950ed469ece9ee770b714cf713d7037877c622e25a111f1d8ac3'),
    (('check', 'toy3.csv'), 0, '17bcd3e9acdb04bd958d8692af7fbe7a7633a0d9ce6b36beb42c1eed60d8185d'),
    # toy3's A is singular; these two carry the exact certificate of
    # test_sustainability.py::TestSingularBranch::test_toy3_exact_certificate
    (('sustainable', 'toy3.csv'), 1, '1f87d4d2b98aa53e28f82e084d1004b7bca1872e8fae6c519f140c34af40ddea'),
    (('sustainable', 'toy3.csv', '--tax-bounds'), 1, '2d74961d3fa27e5b6cab41868b9ad9c8392f062af2dab997d9c36c8f267d80a2'),
    # these two carry the exact prices and best_pi of TestToy3ExactOracles
    (('equilibrium', 'toy3.csv'), 0, '6add8d794a64019a2d1ec5215e19ee7cd25bcc31d38c620d5ccabece7cb08ab0'),
    (('equilibrium', 'toy3.csv', '--alpha', '0.25,0.25,0.5'), 0, '121de920a5c6fe5ad3e2630cc3dee421d2eead9f28bcb43a5aba3c36ccc48d2f'),
    (('tax', 'toy3.csv', 'existing'), 0, '0ff755bc4ca50b2eaea5c593cfbcd3f5d6cb1350e5e6470ff236b8b58981b95c'),
    (('tax', 'toy3.csv', 'best'), 0, '0fc851a39711bc1e1aadcfa00b75fa0d76fdb1f7c47e8354b25e7685a5a96af7'),
    (('tax', 'toy3.csv', 'bounds'), 0, '2b5a952964b0bf1e21d60e776cd63bfc3e3e4ea9d407a9a779405b2a23fe4e17'),
    (('tax', 'toy3.csv', 'value-added'), 0, '32e17fa1115950cdfa23ad7e2e5d7da6f2f0d9ddd63863a64dbd52311a2d429f'),
    (('aggregate', 'toy3.csv', 'toy3to2.map', '--delta-hat', '0.4,0.6'), 0, '5e9a4bca725e86201a292ad8b5539830f14ef51fb0b98f2caef6ae4688e4baed'),
    # test_byte_order_mark_map reads the last entry
    (('aggregate', 'toy3.csv', 'toy3to2.map'), 0, 'b2052fcdbc7cc7209080f62c155299bac9709f4e3ee137d75073aa7081c75f3c'),
]

@pytest.fixture
def toy2(tmp_path):
    dest = tmp_path / "toy2.csv"
    shutil.copyfile(data_path("toy2.csv"), dest)
    return dest


@pytest.fixture
def overtaxed(tmp_path):
    dest = tmp_path / "toy2_overtaxed.csv"
    shutil.copyfile(data_path("toy2_overtaxed.csv"), dest)
    return dest


@pytest.fixture
def toy3(tmp_path):
    dest = tmp_path / "toy3.csv"
    shutil.copyfile(data_path("toy3.csv"), dest)
    return dest


@pytest.fixture
def map32(tmp_path):
    dest = tmp_path / "toy3to2.map"
    shutil.copyfile(data_path("toy3to2.map"), dest)
    return dest


@pytest.fixture
def equal_radius(tmp_path):
    # two dense blocks of radius 0.45, coupled at 1e-6: power steps alone
    # cannot separate the two leading eigenvalues
    a = equal_radius_blocks(np.random.default_rng(0), 40, 16, 1e-6)
    dest = tmp_path / "equal-radius.csv"
    dest.write_text(dumps_table(leontief_value_table(np.random.default_rng(0), a)))
    return dest


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCheck:
    def test_balanced_toy_passes(self, capsys, toy2):
        code, doc = run_json(capsys, ["check", str(toy2), "--format", "json"])
        assert code == 0
        assert doc["results"]["pass"] is True
        assert validate_report(doc) == []

    def test_decomposable_named_failure(self, capsys, tmp_path):
        path = tmp_path / "block.csv"
        path.write_text(
            "sector,a,b,C,E,I,X\n"
            "a,0.5,0.0,0.5,0,0,1\n"
            "b,0.0,0.5,0.5,0,0,1\n"
            "T1,0.25,0.25\nZ1,0.25,0.25\n"
        )
        code, doc = run_json(capsys, ["check", str(path), "--format", "json"])
        assert code == 1
        assert doc["results"]["indecomposable"] is False
        assert any("decomposable" in d for d in doc["diagnostics"])

    def test_parse_error_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,table\n")
        assert main(["check", str(path)]) == 2

    def test_missing_file_exit_two(self):
        assert main(["check", "/nonexistent/table.csv"]) == 2

    def test_spectral_radius_computed_once(self, capsys, toy2, monkeypatch):
        from ioequil import cli, core

        calls = []
        original = core.spectral_radius

        def counted(a, *args, **kwargs):
            calls.append(1)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(core, "spectral_radius", counted)
        monkeypatch.setattr(cli, "spectral_radius", counted)
        code, doc = run_json(capsys, ["check", str(toy2), "--format", "json"])
        assert code == 0
        assert len(calls) == 1
        assert doc["results"]["spectral_radius"] == pytest.approx(0.5)

    def test_spectral_radius_cap_exits_three(self, capsys, equal_radius, monkeypatch):
        # toy2's barycentre is its Perron vector, so its bracket closes before
        # any step; here the bracket is still open after the power steps
        from ioequil import core

        monkeypatch.setattr(core, "NODA_STEPS", 0)
        assert main(["check", str(equal_radius), "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "spectral radius bracket [" in captured.err
        assert "still open after 0 Noda steps" in captured.err

    def test_equal_block_radii_are_certified(self, capsys, equal_radius):
        code, doc = run_json(capsys, ["check", str(equal_radius), "--format", "json"])
        assert code == 0
        oracle = float(np.max(np.abs(np.linalg.eigvals(load_table(equal_radius).technology.a))))
        # the report rounds to 12 significant digits
        assert doc["results"]["spectral_radius"] == pytest.approx(oracle, rel=5e-12)

    def test_row_imbalance_reported_not_raised(self, capsys, tmp_path):
        path = tmp_path / "imbalanced.csv"
        path.write_text(
            "sector,a,b,C,E,I,X\n"
            "a,0.2,0.3,0.51,0,0,1\n"
            "b,0.3,0.2,0.5,0,0,1\n"
            "T1,0.25,0.25\nZ1,0.25,0.25\n"
        )
        code, doc = run_json(capsys, ["check", str(path), "--format", "json"])
        assert code == 1
        assert doc["results"]["row_balance_gap"] == pytest.approx(0.01)
        assert doc["results"]["column_balance_gap"] == pytest.approx(0.0, abs=1e-15)
        assert doc["results"]["pass"] is False
        assert any(d.startswith("row balance off by relative 0.01") for d in doc["diagnostics"])
        assert not any("column balance" in d for d in doc["diagnostics"])

    def test_column_imbalance_reported_not_raised(self, capsys, tmp_path):
        # toy2 with T1 of agri raised by 0.01: only the column identity breaks
        path = tmp_path / "column-imbalanced.csv"
        path.write_text(data_path("toy2.csv").read_text().replace("T1,0.25,", "T1,0.26,"))
        code, doc = run_json(capsys, ["check", str(path), "--format", "json"])
        assert code == 1
        assert doc["results"]["column_balance_gap"] == pytest.approx(0.01)
        assert doc["results"]["row_balance_gap"] == 0.0
        assert doc["results"]["productive"] and doc["results"]["indecomposable"]
        assert doc["diagnostics"] == ["column balance off by relative 0.01"]

    def test_unproductive_note_makes_no_claim_on_the_radius(self, capsys, tmp_path):
        # A = (1 - 1e-11) P for a column-stochastic P: rho = 1 - 1e-11 < 1, but
        # max (E - A)^-1 1 exceeds 1 / POSITIVE_TOL, so the solve calls it not productive
        a = (1.0 - 1e-11) * np.array([[0.6, 0.3], [0.4, 0.7]])
        gap = 1.0 - a.sum(axis=1)
        value_added = 0.5 * (1.0 - a.sum(axis=0))
        table = IOTable(names=("s1", "s2"), z=a, big_x=np.ones(2), t1=value_added,
                        z1=value_added, consumption=np.maximum(gap, 0.0),
                        exports=np.zeros(2), imports=np.maximum(-gap, 0.0))
        path = tmp_path / "near-unit-radius.csv"
        path.write_text(dumps_table(table))
        code, doc = run_json(capsys, ["check", str(path), "--format", "json"])
        assert code == 1
        assert doc["results"]["productive"] is False
        assert doc["results"]["spectral_radius"] < 1.0
        assert any("not productive" in d for d in doc["diagnostics"])
        assert not any("spectral radius" in d or ">= 1" in d for d in doc["diagnostics"])


class TestSustainable:
    def test_toy_verdict_with_certificate(self, capsys, toy2):
        code, doc = run_json(capsys, ["sustainable", str(toy2), "--format", "json"])
        assert code == 0
        criterion = doc["results"]["criterion"]
        assert criterion["sustainable"] is True
        assert np.allclose(criterion["alpha"], [1.0, 1.0])
        assert np.allclose(criterion["prices"], [0.5, 0.5])

    def test_overtaxed_not_sustainable_exit_one(self, capsys, overtaxed):
        code, doc = run_json(capsys, ["sustainable", str(overtaxed), "--format", "json"])
        assert code == 1
        assert doc["results"]["existing_tax"]["sustainable_at_unit_prices"] is False

    def test_tax_bounds_flag_adds_interval(self, capsys, toy2):
        code, doc = run_json(capsys, ["sustainable", str(toy2), "--tax-bounds", "--format", "json"])
        assert "tax_bounds" in doc["results"]
        assert doc["results"]["tax_bounds"]["feasible"] is True

    def test_singular_output_outside_column_space_exits_one(self, capsys, tmp_path):
        # toy3 with sector s2's gross output doubled: rows s1 and s2 of
        # A = Z / X stay equal, so every A b1 has equal first two entries
        # while x = (1, 2, 1); no b1 exists and the mode is not sustainable
        path = tmp_path / "toy3_s2_doubled.csv"
        path.write_text(
            "sector,s1,s2,s3,C,E,I,X\n"
            "s1,0.1,0.1,0.2,0.6,0,0,1\n"
            "s2,0.1,0.1,0.2,1.6,0,0,2\n"
            "s3,0.2,0.2,0.1,0.5,0,0,1\n"
            "T1,0.3,0.8,0.25\nZ1,0.3,0.8,0.25\n"
        )
        a = load_table(path).technology.a
        assert np.array_equal(a[0], a[1])
        code, doc = run_json(capsys, ["sustainable", str(path), "--format", "json"])
        assert code == 1
        assert doc["results"]["criterion"]["sustainable"] is False


class TestUntaxedSectorNote:
    @pytest.mark.parametrize("argv", [["tax", "bounds"], ["sustainable", "--tax-bounds"]],
                             ids=["tax bounds", "sustainable --tax-bounds"])
    def test_reports_carry_the_tax_bounds_note(self, capsys, tmp_path, argv):
        # toy2 with sector agri untaxed: T1 = (0, 0.25), Z1 = (0.5, 0.25)
        path = tmp_path / "toy2_untaxed.csv"
        path.write_text(data_path("toy2.csv").read_text().replace(
            "T1,0.25,0.25\nZ1,0.25,0.25", "T1,0,0.25\nZ1,0.5,0.25"))
        code, doc = run_json(capsys, [argv[0], str(path), *argv[1:], "--format", "json"])
        assert code == 1
        assert doc["diagnostics"] == [
            "some sectors are untaxed; the feasibility bounds assume strictly positive taxation"]


class TestEquilibrium:
    def test_symmetric_toy_full_clearing(self, capsys, toy2):
        code, doc = run_json(capsys, ["equilibrium", str(toy2), "--format", "json"])
        assert code == 0
        assert doc["results"]["excess_level"] == 0.0
        assert doc["results"]["slack"] == []

    def test_decomposable_table_clearing_at_unit_prices(self, capsys, tmp_path):
        # A = diag(0.5, 0.5) clears at unit prices with pi0 = 0.5; no
        # reported field needs an indecomposable matrix
        path = tmp_path / "diagonal.csv"
        path.write_text(
            "sector,a,b,C,E,I,X\n"
            "a,0.5,0,0.5,0,0,1\n"
            "b,0,0.5,0.5,0,0,1\n"
            "T1,0.25,0.25\nZ1,0.25,0.25\n"
        )
        code, doc = run_json(capsys, ["equilibrium", str(path), "--format", "json"])
        assert code == 0
        results = doc["results"]
        assert results["mode"] == "support"
        assert results["binding"] == [1, 2] and results["slack"] == []
        assert results["prices"] == [0.5, 0.5]
        assert results["supply"] == [0.5, 0.5]
        assert results["excess_level"] == 0.0

    @pytest.mark.parametrize("argv", [["equilibrium"], ["sustainable", "--tax-bounds"]])
    def test_no_gross_output_reconstruction(self, capsys, toy2, monkeypatch, argv):
        # neither command reports the gross-output reconstruction of
        # tax_bounds, so analyze does not ask for it
        from ioequil import taxation

        calls = []
        original = taxation.balanced_eigenvector

        def counted(m, *args, **kwargs):
            calls.append(1)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(taxation, "balanced_eigenvector", counted)
        code, _ = run_json(capsys, [argv[0], str(toy2), *argv[1:], "--format", "json"])
        assert code == 0
        assert calls == []

    def test_overtaxed_reports_binding_set_and_positive_excess(self, capsys, overtaxed):
        code, doc = run_json(capsys, ["equilibrium", str(overtaxed), "--format", "json"])
        assert code == 0
        assert doc["results"]["excess_level"] > 0.0
        assert doc["results"]["binding"] == [2]
        assert doc["results"]["slack"] == [1]

    def test_alpha_flag(self, capsys, toy2):
        code, doc = run_json(
            capsys, ["equilibrium", str(toy2), "--alpha", "0.5,0.5", "--format", "json"])
        assert code == 0
        point = doc["results"]["alpha_point"]
        assert point["scale"] >= 1.0


def weak_table_csv(coupling: float) -> str:
    """Balanced 40-sector table over two dense blocks coupled at ``coupling``."""
    rng = np.random.default_rng(0)
    a = two_block(rng, 40, 16, coupling)
    x = np.linalg.solve(np.eye(40) - a, rng.uniform(0.5, 1.5, 40))
    z = a * x[None, :]
    delta = x - z.sum(axis=0)
    final = x - z.sum(axis=1)
    names = [f"s{k + 1}" for k in range(40)]
    lines = [",".join(["sector", *names, "C", "E", "I", "X"])]
    for k in range(40):
        lines.append(",".join([names[k], *(repr(float(v)) for v in [*z[k], final[k], 0.0, 0.0, x[k]])]))
    lines.append(",".join(["T1", *(repr(float(v)) for v in 0.3 * delta)]))
    lines.append(",".join(["Z1", *(repr(float(v)) for v in 0.7 * delta)]))
    return "\n".join(lines) + "\n"


class TestWeakCoupling:
    @pytest.mark.parametrize("argv", [["equilibrium"], ["sustainable"], ["tax", "best"]],
                             ids=["equilibrium", "sustainable", "tax best"])
    def test_finishes_without_an_iteration_cap(self, capsys, tmp_path, argv):
        # the price and balanced-weight loops this table used to need ran
        # into their 10^6-step cap and exited 3 after seconds
        path = tmp_path / "weak.csv"
        path.write_text(weak_table_csv(1e-6))
        start = time.perf_counter()
        code = main([argv[0], str(path), *argv[1:], "--format", "json"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert elapsed < 0.5
        assert code in (0, 1) and captured.err == ""
        assert validate_report(json.loads(captured.out)) == []


class TestEqualRadiusBlocks:
    @pytest.mark.parametrize("argv", [["sustainable"], ["equilibrium"], ["tax", "best"]],
                             ids=["sustainable", "equilibrium", "tax best"])
    def test_answers_without_the_spectral_radius(self, capsys, equal_radius, monkeypatch, argv):
        # both blocks have radius 0.45, so check's radius needs its Noda
        # steps; no other command may compute the radius
        from ioequil import core

        def no_iteration(a):
            raise AssertionError("only check reports the spectral radius")

        monkeypatch.setattr(core, "spectral_radius", no_iteration)
        monkeypatch.setattr(cli, "spectral_radius", no_iteration)
        code = main([argv[0], str(equal_radius), *argv[1:], "--format", "json"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert "error:" not in captured.err
        assert validate_report(json.loads(captured.out)) == []


class TestToy3ExactOracles:
    """Hand solutions behind the golden hashes of toy3 `equilibrium` and `tax best`."""

    def test_equilibrium_prices(self, capsys):
        # pi0 = T1 / Delta = 1/2, so the supply is b = X / 2 = (1/2, 1/2, 1/2).
        # Sectors 1 and 2 have identical columns, so the optimal face is the
        # segment z = (5/6 + t, 5/6 - t, 5/3) with A z = b. The program lands
        # on its midpoint t = 0, which is positive on every row, so
        # prices live on the support: y = z / b = (5/3, 5/3, 10/3) and
        # p = diag(y) A^T p reads p_1 = p_2 = (5/3)(p_1 / 10 + p_2 / 10 + p_3 / 5),
        # so p_3 = 2 p_1, and p_3 = (10/3)(p_1 / 5 + p_2 / 5 + p_3 / 10) holds:
        # p = (1/4, 1/4, 1/2), equal prices for the identical sectors
        state = analyze(load_table(data_path("toy3.csv"))).equilibrium
        assert state.mode == "support"
        assert np.max(np.abs(state.z - [5 / 6, 5 / 6, 5 / 3])) < 1e-13
        assert np.max(np.abs(state.p - [0.25, 0.25, 0.5])) < 1e-13
        code, doc = run_json(capsys, ["equilibrium", str(data_path("toy3.csv")), "--format", "json"])
        assert code == 0
        assert doc["results"]["prices"] == [0.25, 0.25, 0.5]
        assert doc["results"]["mode"] == "support"
        # A z = b on every row, so every market clears and nothing is unsold
        assert doc["results"]["binding"] == [1, 2, 3]
        assert doc["results"]["real_consumption"] == doc["results"]["supply"]
        assert doc["results"]["excess_level"] == 0.0

    def test_best_pi(self, capsys):
        # A d = s * d holds at d = (1/3, 1/3, 1/3) (A's rows sum to its column
        # sums s = (2/5, 2/5, 1/2)), so factor = d s / X = s / 3 and
        # best_pi = 1 - factor / max(factor) = (1/5, 1/5, 0)
        table = load_table(data_path("toy3.csv"))
        family = tax_family(table.technology, table.big_x, table.delta)
        assert np.max(np.abs(family.v0 - 1.0 / 3.0)) < 1e-13
        assert np.max(np.abs(family.best_pi - [0.2, 0.2, 0.0])) < 1e-13
        code, doc = run_json(capsys, ["tax", str(data_path("toy3.csv")), "best", "--format", "json"])
        assert code == 0
        assert doc["results"]["best_pi"] == [0.2, 0.2, 0.0]


class TestTax:
    def test_best_on_symmetric_toy(self, capsys, toy2):
        code, doc = run_json(capsys, ["tax", str(toy2), "best", "--format", "json"])
        assert code == 0
        assert np.allclose(doc["results"]["best_pi"], [0.0, 0.0])
        assert doc["results"]["c0_max"] == pytest.approx(4.0)

    def test_bounds_infeasible_exit_one(self, capsys, overtaxed):
        code, doc = run_json(capsys, ["tax", str(overtaxed), "bounds", "--format", "json"])
        assert code == 1
        assert doc["results"]["feasible"] is False
        assert doc["results"]["interval"] is None

    def test_value_added_pi_is_one_minus_column_sums(self, capsys, toy2):
        code, doc = run_json(capsys, ["tax", str(toy2), "value-added", "--format", "json"])
        assert code == 0
        assert np.allclose(doc["results"]["pi"], [0.5, 0.5])

    def test_existing(self, capsys, overtaxed):
        code, doc = run_json(capsys, ["tax", str(overtaxed), "existing", "--format", "json"])
        assert code == 0
        assert np.allclose(doc["results"]["pi0"], [0.1, 0.9])


class TestAggregate:
    def test_worked_example_and_emitted_csv(self, capsys, toy3, map32, tmp_path):
        out = tmp_path / "coarse.csv"
        code, doc = run_json(
            capsys, ["aggregate", str(toy3), str(map32), "--out", str(out), "--format", "json"])
        assert code == 0
        assert np.allclose(doc["results"]["a_bar"], [[0.2, 0.4], [0.2, 0.1]])
        assert np.allclose(doc["results"]["X"], [2.0, 1.0])
        assert np.allclose(doc["results"]["C"], [1.2, 0.5])
        assert doc["results"]["sum_C"] == pytest.approx(doc["results"]["sum_Delta"])
        emitted = loads_table(out.read_text())
        assert np.allclose(emitted.a_bar, [[0.2, 0.4], [0.2, 0.1]])
        assert np.allclose(emitted.t1, [0.6, 0.25]) and np.allclose(emitted.z1, [0.6, 0.25])
        code, doc = run_json(capsys, ["tax", str(out), "existing", "--format", "json"])
        assert code == 0 and np.allclose(doc["results"]["pi0"], [0.5, 0.5])

    def test_emitted_csv_keeps_the_grouped_production_taxes(self, capsys, tmp_path):
        # oracle from the fine table: the coarse T1 is the fine T1 summed per
        # group, and the coarse tax share is grouped T1 over grouped Delta
        rng = np.random.default_rng(6)
        a = random_indecomposable(rng, 6)
        a *= rng.uniform(0.35, 0.75, 6) / a.sum(axis=0)
        table = leontief_value_table(rng, a)
        share = rng.uniform(0.1, 0.6, 6)
        table = IOTable(table.names, table.z, table.big_x, share * table.delta,
                        (1.0 - share) * table.delta, table.consumption, table.exports,
                        table.imports)
        path, amap, out = tmp_path / "fine.csv", tmp_path / "pairs.map", tmp_path / "coarse.csv"
        path.write_text(dumps_table(table))
        amap.write_text("".join(f"{k + 1} {k // 2 + 1}\n" for k in range(6)))
        assert main(["aggregate", str(path), str(amap), "--out", str(out)]) == 0
        capsys.readouterr()

        fine, coarse = load_table(path), load_table(out)
        t1 = fine.t1.reshape(3, 2).sum(axis=1)
        delta = fine.delta.reshape(3, 2).sum(axis=1)
        assert np.allclose(coarse.t1, t1, rtol=1e-12)
        assert np.allclose(coarse.delta, delta, rtol=1e-12)
        code, doc = run_json(capsys, ["tax", str(out), "existing", "--format", "json"])
        assert code == 0 and np.allclose(doc["results"]["pi0"], t1 / delta, rtol=1e-10)

    def test_identity_map_recodes(self, capsys, toy3, tmp_path):
        path = tmp_path / "id.map"
        path.write_text("1 1\n2 2\n3 3\n")
        code, doc = run_json(capsys, ["aggregate", str(toy3), str(path), "--format", "json"])
        assert code == 0
        assert doc["results"]["coarse_sectors"] == 3

    @pytest.mark.parametrize("text, err", [
        ("1 1\n2\n", "{path}:2: expected 'fine coarse', got '2'"),
        ("1 1 # pair\n2 one\n", "{path}:2: non-integer index in '2 one'"),
        ("0 1\n", "{path}:1: indices are 1-based and positive"),
        ("# no pairs\n\n", "{path}: empty aggregation map"),
        ("1 1\n2 1\n3 3\n", "every coarse sector needs at least one preimage"),
    ], ids=["not a pair", "non-integer", "zero index", "empty", "no preimage"])
    def test_bad_map_exits_two_with_one_error_line(self, capsys, toy3, tmp_path, text, err):
        path = tmp_path / "bad.map"
        path.write_text(text)
        assert main(["aggregate", str(toy3), str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {err.format(path=path)}\n")

    def test_delta_hat_flag(self, capsys, toy3, map32):
        code, doc = run_json(
            capsys,
            ["aggregate", str(toy3), str(map32), "--delta-hat", "0.6,0.5", "--format", "json"])
        assert code == 0
        assert len(doc["results"]["relative_prices"]) == 2


# exit code of each root of the error hierarchy: input, model hypothesis, numerical
ERROR_ROOTS = {
    errors.ParseError: 2,
    errors.BalanceError: 2,
    errors.HypothesisViolatedError: 1,
    errors.NumericalError: 3,
}
ERROR_CLASSES = [value for value in vars(errors).values()
                 if isinstance(value, type) and value.__module__ == errors.__name__]


def _raised(cls):
    """An instance of an error class, built with the arguments its constructor needs."""
    if cls is errors.NotInConeError:
        return cls(0)
    if cls is errors.ZeroValueAddedError:
        return cls(0, "sector 'agri' has non-positive value added")
    return cls(f"{cls.__name__} raised")


def _root_exit_code(cls) -> int:
    """The exit code of the one root of ERROR_ROOTS that cls descends from; 1 for ModelError."""
    return next((code for root, code in ERROR_ROOTS.items() if issubclass(cls, root)), 1)


def _exit_code_cases():
    cases = [pytest.param(_raised(cls), _root_exit_code(cls), id=cls.__name__)
             for cls in ERROR_CLASSES if cls is not errors.PipelineError]
    # a PipelineError takes the exit code of its cause
    cases += [pytest.param(errors.PipelineError("stage", _raised(root)), code,
                           id=f"PipelineError({root.__name__})")
              for root, code in ERROR_ROOTS.items()]
    cases += [pytest.param(ValueError("bad value"), 2, id="ValueError"),
              pytest.param(OSError("unreadable"), 2, id="OSError")]
    return cases


class TestExitCodes:
    @pytest.mark.parametrize("exc, code", _exit_code_cases())
    def test_every_error_class_exit_code(self, capsys, toy2, monkeypatch, exc, code):
        def explode(args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "check", explode)
        assert main(["check", str(toy2)]) == code
        assert capsys.readouterr() == ("", f"error: {exc}\n")

    @pytest.mark.parametrize("command", [["check"], ["sustainable"]])
    def test_negative_flow_exits_two(self, capsys, tmp_path, command):
        # toy2 with agri's delivery to industry at -0.3: refused at every tolerance
        path = tmp_path / "negative.csv"
        path.write_text(data_path("toy2.csv").read_text().replace(
            "agri,0.2,0.3,", "agri,0.2,-0.3,"))
        assert main([*command, str(path)]) == 2
        assert capsys.readouterr() == ("", "error: flow Z['agri' -> 'industry'] is negative\n")

    def test_column_imbalance_exits_two(self, capsys, tmp_path):
        # toy2 with agri's T1 raised to 0.26: its column is off by 0.01
        path = tmp_path / "column.csv"
        path.write_text(data_path("toy2.csv").read_text().replace("T1,0.25,", "T1,0.26,"))
        assert main(["sustainable", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "error: column balance fails for sector 'agri': sum Z - (X - Delta) = 0.01\n")

    def test_nnls_cap_in_the_program_exits_three(self, capsys, monkeypatch):
        # toy3 runs the minimum-excess program from the shifted least-distance
        # start; scipy's NNLS cap is an untyped RuntimeError that must leave
        # as a typed stage failure
        from ioequil import qp

        def capped(*args, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(qp, "nnls", capped)
        assert main(["equilibrium", str(data_path("toy3.csv")), "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: stage 'min-excess-qp': NNLS for the least-distance start failed")
        assert "Traceback" not in captured.err

    def test_balance_residual_failure_exits_three(self, capsys, toy2, monkeypatch):
        from ioequil import balance

        original = balance.perron_vector

        def perturbed(m, what):
            p = original(m, what)
            p[0] *= 1.0 + 1e-6
            return p

        monkeypatch.setattr(balance, "perron_vector", perturbed)
        assert main(["tax", str(toy2), "best", "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: balance residual ")

    def test_infeasible_program_result_exits_three(self, capsys, monkeypatch, overtaxed):
        # a z the active-set solver returns outside A z <= b is a numerical
        # breakdown, not a model hypothesis that fails
        import dataclasses

        from ioequil import qp

        original = qp.solve_min_excess

        def infeasible(t, b):
            result = original(t, b)
            return dataclasses.replace(result, z=result.z * (1.0 + 1e-6))

        monkeypatch.setattr(qp, "solve_min_excess", infeasible)
        assert main(["equilibrium", str(overtaxed), "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: stage 'min-excess-qp': active-set result violates feasibility\n"

    def test_price_reconstruction_failure_exits_three(self, capsys, monkeypatch, tmp_path):
        # the generalized branch checks that its prices reproduce z: a
        # perturbed fixed point fails that check as a numerical breakdown. z
        # is positive on two sectors here, so the perturbation is no rescaling
        from ioequil import equilibrium

        path = tmp_path / "generalized.csv"
        path.write_text(dumps_table(seeded_table(np.random.default_rng(1), 3, 1.0)))
        code, doc = run_json(capsys, ["equilibrium", str(path), "--format", "json"])
        assert (code, doc["results"]["mode"]) == (0, "generalized")
        original = equilibrium.consumption_prices

        def perturbed(a, z, ell, what):
            p = original(a, z, ell, what)
            p[0] *= 1.0 + 1e-6
            return p

        monkeypatch.setattr(equilibrium, "consumption_prices", perturbed)
        assert main(["equilibrium", str(path), "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: stage 'prices-from-consumption': "
                                "price reconstruction of z failed beyond tolerance\n")

    def test_fully_taxed_sector_is_a_hypothesis_failure(self, capsys, tmp_path):
        path = tmp_path / "full_tax.csv"
        path.write_text(
            "sector,a,b,C,E,I,X\n"
            "a,0.2,0.3,0.5,0,0,1\n"
            "b,0.3,0.2,0.5,0,0,1\n"
            "T1,0.5,0.25\nZ1,0.0,0.25\n"
        )
        assert main(["tax", str(path), "bounds"]) == 1
        assert capsys.readouterr().err == "error: taxation component 0 must lie in [0, 1)\n"

    @pytest.mark.parametrize("argv", [
        ["equilibrium", "{toy3}", "--alpha", "1,x"],
        ["aggregate", "{toy3}", "{map32}", "--delta-hat", "0.5,y"],
    ], ids=["alpha", "delta-hat"])
    def test_comma_list_that_is_not_numbers_exits_two(self, capsys, toy3, map32, argv):
        flag, value = argv[-2:]
        assert main([arg.format(toy3=toy3, map32=map32) for arg in argv]) == 2
        assert capsys.readouterr() == (
            "", f"error: {flag}: expected a comma-separated list of numbers, got {value!r}\n")

    def test_unknown_seed_flag_rejected(self, toy2):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(toy2), "--seed", "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [("check", "toy2.csv"), ("sustainable", "toy2.csv"),
                                      ("equilibrium", "toy2.csv"), ("tax", "toy2.csv", "existing"),
                                      ("aggregate", "toy3.csv", "toy3to2.map")],
                             ids=lambda argv: argv[0])
    def test_unwritable_out_exits_two_without_a_report(self, capsys, tmp_path, argv):
        paths = [str(data_path(a)) if a.endswith((".csv", ".map")) else a for a in argv]
        assert main(paths + ["--out", str(tmp_path / "missing" / "report.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["nan", "-1", "tight"])
    @pytest.mark.parametrize("command", ["check", "equilibrium"])
    def test_tolerance_must_be_a_number_at_least_zero(self, capsys, tmp_path, command, tol):
        # toy2 with C scaled by 1.5: every row is off by 0.25, which a NaN
        # tolerance would wave through and a negative one would flag on the
        # balanced columns too
        path = tmp_path / "unbalanced.csv"
        path.write_text(data_path("toy2.csv").read_text().replace("0.5,0,0,1", "0.75,0,0,1"))
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(path), "--tol", tol])
        assert excinfo.value.code == 2
        assert "argument --tol: invalid tolerance value" in capsys.readouterr().err
        assert main([command, str(path)]) == (1 if command == "check" else 2)
        assert main([command, str(path), "--tol", "inf"]) == 0


# sector u has a zero Z row and column (NACE T/U): the loader accepts the
# table, but its A is decomposable
ISOLATED_SECTOR_CSV = (
    "sector,a,b,u,C,E,I,X\n"
    "a,0.2,0.3,0,0.5,0,0,1\n"
    "b,0.3,0.2,0,0.5,0,0,1\n"
    "u,0,0,0,1,0,0,1\n"
    "T1,0.15,0.15,0.3\nZ1,0.35,0.35,0.7\n"
)
# sector agri spends its whole gross output on inputs: Delta = 0
ZERO_VALUE_ADDED_CSV = (
    "sector,agri,ind,C,E,I,X\n"
    "agri,0.5,0.2,0.3,0,0,1\n"
    "ind,0.5,0.3,0.2,0,0,1\n"
    "T1,0,0.1\nZ1,0,0.4\n"
)
DECOMPOSABLE = {
    "sustainable": "sustainability test requires an indecomposable matrix",
    "tax best": "taxation family requires an indecomposable matrix",
    "tax bounds": "reconstruction requires an indecomposable matrix",
    "tax value-added": "value-added taxation requires an indecomposable matrix",
}
# u supplies psi_u > 0 at a zero input cost: the unit-price clearing test refuses
# the table before the minimum-excess program would find it decomposable
UNIT_PRICE_CLEARING = "stage 'unit-price-clearing': input cost of sector 2 vanishes at these prices"
NO_VALUE_ADDED = "sector 'agri' has non-positive value added"
COLUMN_SUMS = "value-unit column sums must lie strictly inside (0, 1)"
# toy2 with sector agri subsidised: T1 = (-0.05, 0.25), Z1 = (0.55, 0.25) keep Delta
SUBSIDISED_CSV = (
    "sector,agri,industry,C,E,I,X\n"
    "agri,0.2,0.3,0.5,0,0,1\n"
    "industry,0.3,0.2,0.5,0,0,1\n"
    "T1,-0.05,0.25\nZ1,0.55,0.25\n"
)
SUBSIDY_OBSERVED = "observed taxation T1/Delta of sector 'agri' must lie in [0, 1)"
SUBSIDY_BOUNDS = "taxation component 0 must lie in [0, 1)"
# column sums 1.1, so rho(A) = 1.1 and Delta < 0: no sustainable certificate
# exists, and the existing-tax analysis refuses the negative value added
UNPRODUCTIVE_CSV = (
    "sector,a,b,C,E,I,X\n"
    "a,0.5,0.6,0,0,0.1,1\n"
    "b,0.6,0.5,0,0,0.1,1\n"
    "T1,-0.05,-0.05\nZ1,-0.05,-0.05\n"
)
NEGATIVE_VALUE_ADDED = "sector 'a' has non-positive value added"
HYPOTHESIS_TABLES = {"isolated": ISOLATED_SECTOR_CSV, "zero-delta": ZERO_VALUE_ADDED_CSV,
                     "subsidised": SUBSIDISED_CSV, "unproductive": UNPRODUCTIVE_CSV}


class TestHypothesisFailures:
    @pytest.mark.parametrize("table, argv, code, err", [
        pytest.param(table, argv, code, err, id=f"{table} {' '.join(argv)}")
        for table, argv, code, err in [
            ("isolated", ["check"], 1, None),
            ("isolated", ["sustainable"], 1, DECOMPOSABLE["sustainable"]),
            ("isolated", ["sustainable", "--tax-bounds"], 1, DECOMPOSABLE["sustainable"]),
            ("isolated", ["equilibrium"], 1, UNIT_PRICE_CLEARING),
            ("isolated", ["tax", "existing"], 0, None),
            ("isolated", ["tax", "best"], 1, DECOMPOSABLE["tax best"]),
            ("isolated", ["tax", "bounds"], 1, DECOMPOSABLE["tax bounds"]),
            ("isolated", ["tax", "value-added"], 1, DECOMPOSABLE["tax value-added"]),
            ("zero-delta", ["check"], 0, None),
            ("zero-delta", ["sustainable", "--tax-bounds"], 1, NO_VALUE_ADDED),
            ("zero-delta", ["equilibrium"], 1, NO_VALUE_ADDED),
            ("zero-delta", ["tax", "existing"], 1, NO_VALUE_ADDED),
            ("zero-delta", ["tax", "best"], 1, COLUMN_SUMS),
            ("zero-delta", ["tax", "bounds"], 1, NO_VALUE_ADDED),
            ("zero-delta", ["tax", "value-added"], 1, COLUMN_SUMS),
            ("subsidised", ["check"], 0, None),
            ("subsidised", ["sustainable"], 1, SUBSIDY_OBSERVED),
            ("subsidised", ["equilibrium"], 1, SUBSIDY_OBSERVED),
            ("subsidised", ["tax", "existing"], 0, None),
            ("subsidised", ["tax", "best"], 0, None),
            ("subsidised", ["tax", "bounds"], 1, SUBSIDY_BOUNDS),
            ("subsidised", ["tax", "value-added"], 0, None),
            ("unproductive", ["check"], 1, None),
            ("unproductive", ["sustainable"], 1, NEGATIVE_VALUE_ADDED),
        ]
    ])
    def test_exit_code_and_single_error_line(self, capsys, tmp_path, table, argv, code, err):
        # stderr holds the one error line, or nothing: no numpy warning precedes it
        path = tmp_path / "table.csv"
        path.write_text(HYPOTHESIS_TABLES[table])
        assert main([argv[0], str(path), *argv[1:]]) == code
        assert capsys.readouterr().err == ("" if err is None else f"error: {err}\n")

    def test_no_numpy_warning_on_stderr(self, tmp_path):
        # a fresh interpreter prints warnings that pytest would capture
        path = tmp_path / "table.csv"
        path.write_text(ISOLATED_SECTOR_CSV)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ioequil.__file__))}
        done = subprocess.run([sys.executable, "-m", "ioequil.cli", "equilibrium", str(path)],
                              capture_output=True, text=True, env=env)
        assert (done.returncode, done.stderr) == (1, f"error: {UNIT_PRICE_CLEARING}\n")

    def test_merging_the_isolated_sector_is_the_remedy(self, capsys, tmp_path):
        # aggregating u into b gives an indecomposable coarse table
        path, amap, coarse = tmp_path / "table.csv", tmp_path / "merge.map", tmp_path / "coarse.csv"
        path.write_text(ISOLATED_SECTOR_CSV)
        amap.write_text("1 1\n2 2\n3 2\n")
        assert main(["aggregate", str(path), str(amap), "--out", str(coarse)]) == 0
        for mode in ("best", "bounds", "value-added"):
            assert main(["tax", str(coarse), mode]) == 0
        assert capsys.readouterr().err == ""


class TestErrorRoots:
    def test_every_error_descends_from_exactly_one_root(self):
        # ModelError is the common base; PipelineError takes the class of its cause
        assert len(ERROR_CLASSES) > len(ERROR_ROOTS)
        for cls in ERROR_CLASSES:
            if cls in (errors.ModelError, errors.PipelineError):
                continue
            assert sum(issubclass(cls, root) for root in ERROR_ROOTS) == 1, cls.__name__

    @pytest.mark.parametrize("root, command, text", [
        (errors.ParseError, "check", "not,a,table\n"),
        (errors.HypothesisViolatedError, "sustainable", ISOLATED_SECTOR_CSV),
        (errors.NumericalError, "check", None),
    ], ids=["input", "hypothesis", "numerical"])
    def test_exit_code_and_one_error_line(self, capsys, monkeypatch, tmp_path, equal_radius,
                                          root, command, text):
        from ioequil import core

        path = tmp_path / "table.csv"
        if text is None:
            # the radius bracket of equal_radius is still open after the power steps
            monkeypatch.setattr(core, "NODA_STEPS", 0)
            path = equal_radius
        else:
            path.write_text(text)
        assert main([command, str(path)]) == ERROR_ROOTS[root]
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.fixture(scope="module")
def table40(tmp_path_factory):
    """A generated 40-sector Leontief table at 30% density and a map pairing its sectors."""
    root = tmp_path_factory.mktemp("table40")
    rng = np.random.default_rng(40)
    a = random_indecomposable(rng, 40, density=0.3)
    a *= rng.uniform(0.35, 0.75, 40) / a.sum(axis=0)
    table = leontief_value_table(rng, a)
    (root / "table.csv").write_text(dumps_table(table))
    (root / "pairs.map").write_text("".join(f"{k + 1} {k // 2 + 1}\n" for k in range(40)))
    return root / "table.csv", root / "pairs.map"


class TestFactsDecidedOnce:
    @pytest.mark.parametrize("argv", [
        ["check"], ["sustainable", "--tax-bounds"], ["equilibrium"],
        ["equilibrium", "--alpha", ",".join(["1"] + ["0"] * 39)],
        ["tax", "best"], ["tax", "bounds"], ["tax", "value-added"], ["aggregate"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_one_technology_one_sweep(self, capsys, monkeypatch, table40, argv):
        path, amap = table40
        a = load_table(path).a_bar
        built = record_technologies(monkeypatch)
        indecomposable = record_calls(monkeypatch, "core.is_indecomposable")
        productive = record_calls(monkeypatch, "core.is_productive")
        factored = record_calls(monkeypatch, "core.nonsingular_lu")
        maps = [str(amap)] if argv[0] == "aggregate" else []
        code = main([argv[0], str(path), *maps, *argv[1:], "--format", "json"])
        assert code in (0, 1) and capsys.readouterr().err == ""

        own = [t for t in built if t.a.shape == a.shape and np.array_equal(t.a, a)]
        assert len(own) == 1
        # a sweep of A or of its transpose, the balance matrix of the taxation
        # commands, reads the Technology or a view of its own matrix
        (t,) = own
        assert sum(x is t or (isinstance(x, np.ndarray) and np.shares_memory(x, t.a))
                   for x in indecomposable) <= 1
        # check reports productivity and aggregate's relative prices need it;
        # a sustainable certificate implies it, so no other command asks
        assert len(productive) == (argv[0] in ("check", "aggregate"))
        # the sustainability solve and the QP start share the one LU of A
        assert sum(x.shape == a.shape and np.array_equal(x, a) for x in factored) <= 1

    @pytest.mark.parametrize("argv", [["equilibrium"], ["sustainable", "--tax-bounds"]],
                             ids=lambda argv: " ".join(argv))
    def test_toy3_support_branch_decided_once(self, capsys, monkeypatch, toy3, argv):
        # toy3's optimum binds on every row and carries support prices:
        # prices_on_support alone sweeps the binding minor and checks the
        # support conditions. The minor equals A here, but the Technology
        # sweeps its own A, so the minor sweeps are those of arrays that
        # share no memory with it
        built = record_technologies(monkeypatch)
        sweeps = record_calls(monkeypatch, "core.is_indecomposable")
        support = record_calls(monkeypatch, "equilibrium._support_violation")
        code, doc = run_json(capsys, [argv[0], str(toy3), *argv[1:], "--format", "json"])
        if argv[0] == "equilibrium":
            assert (code, doc["results"]["mode"]) == (0, "support")

        (t,) = built
        minors = [x for x in sweeps if not np.shares_memory(x, t.a)]
        assert len(minors) == 1 and np.array_equal(minors[0], t.a)
        assert support == [t]


    @pytest.mark.parametrize("argv", [
        ["check"], ["sustainable", "--tax-bounds"], ["equilibrium"],
        ["tax", "best"], ["tax", "bounds"], ["tax", "value-added"], ["aggregate"],
    ], ids=lambda argv: " ".join(argv))
    @pytest.mark.parametrize("name", ["toy2", "toy3", "table40"])
    def test_one_price_map_and_the_balance_solve_call_perron(self, capsys, monkeypatch, tmp_path,
                                                              table40, name, argv):
        # each caller of perron_vector calls it once, so equal counts mean no
        # other code builds a Perron fixed point
        if name == "table40":
            path, amap = table40
        else:
            path, amap = data_path(f"{name}.csv"), tmp_path / "identity.map"
            amap.write_text("".join(f"{k} {k}\n" for k in range(1, int(name[-1]) + 1)))
        perron = record_calls(monkeypatch, "core.perron_vector")
        prices = record_calls(monkeypatch, "sustainability.consumption_prices")
        balanced = record_calls(monkeypatch, "balance.balanced_eigenvector")
        maps = [str(amap)] if argv[0] == "aggregate" else []
        code = main([argv[0], str(path), *maps, *argv[1:], "--format", "json"])
        assert code in (0, 1) and capsys.readouterr().err == ""
        assert len(perron) == len(prices) + len(balanced)
        if argv[0] == "sustainable" or argv[1:] in (["best"], ["value-added"]):
            assert perron


class TestDeterminism:
    def test_byte_identical_json(self, capsys, toy2):
        main(["sustainable", str(toy2), "--format", "json"])
        first = capsys.readouterr().out
        main(["sustainable", str(toy2), "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_all_reports_validate_against_schema(self, capsys, toy2, toy3, map32, overtaxed):
        commands = [
            ["check", str(toy2)],
            ["sustainable", str(toy2)],
            ["equilibrium", str(overtaxed)],
            ["tax", str(toy2), "best"],
            ["aggregate", str(toy3), str(map32)],
        ]
        for argv in commands:
            main(argv + ["--format", "json"])
            doc = json.loads(capsys.readouterr().out)
            assert validate_report(doc) == [], argv

    @pytest.mark.parametrize("argv, code, sha256", GOLDEN_JSON,
                             ids=[" ".join(argv) for argv, _, _ in GOLDEN_JSON])
    def test_json_bytes_match_golden(self, capsys, argv, code, sha256):
        paths = [str(data_path(a)) if a.endswith((".csv", ".map")) else a for a in argv]
        assert main(paths + ["--format", "json"]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256

    def test_report_written_to_out_path(self, capsys, toy2, tmp_path):
        out = tmp_path / "report.json"
        main(["check", str(toy2), "--format", "json", "--out", str(out)])
        printed = capsys.readouterr().out
        assert out.read_text() == printed


class TestOneReadOneParser:
    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_carriage_return_tables(self, capsys, tmp_path, newline):
        lf = data_path("toy3.csv").read_bytes()
        path = tmp_path / "toy3.csv"
        path.write_bytes(lf.replace(b"\n", newline))
        code, report = run_json(capsys, ["tax", str(path), "best", "--format", "json"])
        _, reference = run_json(capsys, ["tax", str(data_path("toy3.csv")), "best", "--format", "json"])
        assert code == 0
        assert report["inputs_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert report["results"] == reference["results"]
        assert load_table(path).z.tobytes() == load_table(data_path("toy3.csv")).z.tobytes()

    def test_byte_order_mark_map(self, capsys, tmp_path):
        path = tmp_path / "toy3to2.map"
        path.write_bytes(b"\xef\xbb\xbf" + data_path("toy3to2.map").read_bytes())
        argv, code, sha256 = GOLDEN_JSON[-1]
        assert argv == ("aggregate", "toy3.csv", "toy3to2.map")
        assert main(["aggregate", str(data_path("toy3.csv")), str(path), "--format", "json"]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256

    def test_invalid_utf8_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        # the position counts bytes of the whole file, carriage returns included
        path.write_bytes(b"sector,a\r\n" * 3000 + b"\xff\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 30000: invalid start byte\n")

    def test_parser_built_once_and_reused(self, capsys, toy2, toy3):
        runs = [
            ["tax", str(toy3), "best", "--format", "json", "--tol", "1e-3"],
            ["sustainable", str(toy2), "--tax-bounds", "--format", "json"],
            ["check", str(toy3)],
        ]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ioequil.__file__))}
        cli.build_parser.cache_clear()
        for argv in runs:
            code = main(argv)
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "ioequil.cli", *argv],
                                   capture_output=True, text=True, env=env)
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert cli.build_parser.cache_info().misses == 1

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path):
        path = tmp_path / "toy2.csv"
        path.write_bytes(b"\xef\xbb\xbf" + data_path("toy2.csv").read_bytes())
        code, report = run_json(capsys, ["check", str(path), "--format", "json"])
        _, reference = run_json(capsys, ["check", str(data_path("toy2.csv")), "--format", "json"])
        assert code == 0
        assert report.pop("inputs_digest") == hashlib.sha256(path.read_bytes()).hexdigest()
        reference.pop("inputs_digest")
        assert report == reference

    def test_oversized_quoted_cell_exit_two(self, capsys, tmp_path):
        # a quote sends the rows through csv, whose field limit is 131,072 characters
        path = tmp_path / "long.csv"
        path.write_text('sector,"a",C,E,I,X\na,' + "1" * 200_000 + ",0,0,0,1\nT1,0\nZ1,0\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "error: CSV line 2: field larger than field limit (131072)\n"


def _scipy_modules_after(code: str, *argv: str) -> tuple[subprocess.CompletedProcess, list[str]]:
    """Run ``code`` in a fresh interpreter; its stderr lists the scipy modules loaded at exit."""
    probe = ("import atexit, sys\n"
             "atexit.register(lambda: print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
             " file=sys.stderr))\n" + code)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ioequil.__file__))}
    done = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env)
    return done, done.stderr.split()


class TestImportCost:
    # scipy costs several times numpy's import; each command loads only the
    # parts of it that it calls
    def test_cli_import_loads_no_scipy(self):
        done, loaded = _scipy_modules_after("import ioequil.cli")
        assert done.returncode == 0
        assert loaded == []

    def test_aggregate_loads_no_scipy_optimize(self):
        done, loaded = _scipy_modules_after(
            "from ioequil.cli import main\nsys.exit(main(sys.argv[1:]))",
            "aggregate", str(data_path("toy3.csv")), str(data_path("toy3to2.map")), "--format", "json")
        assert done.returncode == 0
        assert json.loads(done.stdout)["command"] == "aggregate"
        assert not [m for m in loaded if m == "scipy.optimize" or m.startswith("scipy.optimize.")]

    def test_equilibrium_clearing_at_unit_prices_loads_no_scipy(self):
        # toy2 clears at unit prices, so analyze bypasses the minimum-excess
        # QP and with it every scipy function the QP imports
        done, loaded = _scipy_modules_after(
            "from ioequil.cli import main\nsys.exit(main(sys.argv[1:]))",
            "equilibrium", str(data_path("toy2.csv")), "--format", "json")
        assert done.returncode == 0
        assert json.loads(done.stdout)["results"]["excess_level"] == 0.0
        assert loaded == []

    def test_sustainable_loads_no_scipy_optimize_or_sparse(self):
        # toy2's A passes core.nonsingular_lu, which imports scipy.linalg on
        # call; the singular branch's linear program is never reached
        done, loaded = _scipy_modules_after(
            "from ioequil.cli import main\nsys.exit(main(sys.argv[1:]))",
            "sustainable", str(data_path("toy2.csv")), "--format", "json")
        assert done.returncode == 0
        assert json.loads(done.stdout)["command"] == "sustainable"
        assert "scipy.linalg" in loaded
        assert not [m for m in loaded if m.split(".")[:2] in (["scipy", "optimize"], ["scipy", "sparse"])]

    def test_check_loads_no_scipy(self):
        # indecomposability is two numpy reachability sweeps; check calls
        # no other function that imports scipy
        done, loaded = _scipy_modules_after(
            "from ioequil.cli import main\nsys.exit(main(sys.argv[1:]))",
            "check", str(data_path("toy2.csv")), "--format", "json")
        assert done.returncode == 0
        assert json.loads(done.stdout)["command"] == "check"
        assert loaded == []

    def test_check_reaching_noda_steps_loads_no_scipy(self, equal_radius):
        # the Noda steps solve with numpy's LAPACK, not scipy's
        done, loaded = _scipy_modules_after(
            "from ioequil.cli import main\nsys.exit(main(sys.argv[1:]))",
            "check", str(equal_radius), "--format", "json")
        assert done.returncode == 0
        assert json.loads(done.stdout)["results"]["spectral_radius"] == pytest.approx(0.45, rel=1e-11)
        assert loaded == []
