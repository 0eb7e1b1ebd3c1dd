import hashlib
import json
import shutil

import numpy as np
import pytest

from ioequil import loads_table
from ioequil.cli import main
from ioequil.reporting import validate_report

from conftest import data_path

# (argv, exit code, SHA-256 of the --format json stdout) for every command on
# the bundled tables. Refactors must keep these bytes; a change to them must be
# a declared correctness fix with the new hash recorded here.
GOLDEN_JSON = [
    (('check', 'toy2.csv'), 0, 'b4d9269dfd7a58eaf596f53a9fadb5666d822c5ec7f4b79c245c47e5df9bb01e'),
    (('sustainable', 'toy2.csv'), 0, '85e2ced594145c3e569c2ad426fe5c9bf56d8cffe3beef2b31ba4acbbf23528e'),
    (('sustainable', 'toy2.csv', '--tax-bounds'), 0, 'cc2d852398896d48fb865d56c9fa11a6a1c6d8afda6e2c498364795c8ed086c0'),
    (('equilibrium', 'toy2.csv'), 0, 'bb01d92e0a958c3337ee47601a017e2aa7911c284de58789b645112b3abae1df'),
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
    (('sustainable', 'toy3.csv'), 1, 'f8b171823c4519c94154167d1ca74c431bd5fc913fd5ffd6032ab2f8f75577e7'),
    (('sustainable', 'toy3.csv', '--tax-bounds'), 1, '04eaf34d6913e977b6e61e3869e21cb8ede9a6dc45454755c19a8e7af1fc6852'),
    (('equilibrium', 'toy3.csv'), 0, '06b09217b4f3690ac7fdb73cb5d5774ab25a7485e6bcd33e77d17aa44a57a1e5'),
    (('tax', 'toy3.csv', 'existing'), 0, '0ff755bc4ca50b2eaea5c593cfbcd3f5d6cb1350e5e6470ff236b8b58981b95c'),
    (('tax', 'toy3.csv', 'best'), 0, 'b5ae83ca145c682260744fc2ff3dadb4cd21d0a9dd78fc34f252268e4efad6d7'),
    (('tax', 'toy3.csv', 'bounds'), 0, '2b5a952964b0bf1e21d60e776cd63bfc3e3e4ea9d407a9a779405b2a23fe4e17'),
    (('tax', 'toy3.csv', 'value-added'), 0, '32e17fa1115950cdfa23ad7e2e5d7da6f2f0d9ddd63863a64dbd52311a2d429f'),
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

    def test_spectral_radius_cap_exits_three(self, capsys, toy2, monkeypatch):
        # toy2 settles on the second step (its Perron vector is the starting
        # barycentre), so a cap of one step is the one that bites here
        from ioequil import core

        monkeypatch.setattr(core, "FIXED_POINT_MAXITER", 1)
        assert main(["check", str(toy2), "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "spectral radius iteration hit the cap" in captured.err

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


class TestEquilibrium:
    def test_symmetric_toy_full_clearing(self, capsys, toy2):
        code, doc = run_json(capsys, ["equilibrium", str(toy2), "--format", "json"])
        assert code == 0
        assert doc["results"]["excess_level"] == 0.0
        assert doc["results"]["slack"] == []

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

    def test_identity_map_recodes(self, capsys, toy3, tmp_path):
        path = tmp_path / "id.map"
        path.write_text("1 1\n2 2\n3 3\n")
        code, doc = run_json(capsys, ["aggregate", str(toy3), str(path), "--format", "json"])
        assert code == 0
        assert doc["results"]["coarse_sectors"] == 3

    def test_delta_hat_flag(self, capsys, toy3, map32):
        code, doc = run_json(
            capsys,
            ["aggregate", str(toy3), str(map32), "--delta-hat", "0.6,0.5", "--format", "json"])
        assert code == 0
        assert len(doc["results"]["relative_prices"]) == 2


class TestExitCodes:
    def test_numerical_failure_maps_to_three(self, toy2, monkeypatch):
        from ioequil import cli
        from ioequil.errors import NoConvergenceError

        def explode(args):
            raise NoConvergenceError("iteration cap")

        monkeypatch.setitem(cli._COMMANDS, "check", explode)
        assert cli.main(["check", str(toy2)]) == 3

    def test_pipeline_numerical_cause_maps_to_three(self, toy2, monkeypatch):
        from ioequil import cli
        from ioequil.errors import PipelineError, SolverStallError

        def explode(args):
            raise PipelineError("min-excess-qp", SolverStallError("stalled"))

        monkeypatch.setitem(cli._COMMANDS, "equilibrium", explode)
        assert cli.main(["equilibrium", str(toy2)]) == 3

    def test_pipeline_analysis_cause_maps_to_one(self, toy2, monkeypatch):
        from ioequil import cli
        from ioequil.errors import HypothesisViolatedError, PipelineError

        def explode(args):
            raise PipelineError("binding-set", HypothesisViolatedError("empty"))

        monkeypatch.setitem(cli._COMMANDS, "equilibrium", explode)
        assert cli.main(["equilibrium", str(toy2)]) == 1

    def test_fully_taxed_sector_is_input_error(self, tmp_path):
        path = tmp_path / "full_tax.csv"
        path.write_text(
            "sector,a,b,C,E,I,X\n"
            "a,0.2,0.3,0.5,0,0,1\n"
            "b,0.3,0.2,0.5,0,0,1\n"
            "T1,0.5,0.25\nZ1,0.0,0.25\n"
        )
        assert main(["tax", str(path), "bounds"]) == 2

    def test_unknown_seed_flag_rejected(self, toy2):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(toy2), "--seed", "1"])
        assert excinfo.value.code == 2


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
