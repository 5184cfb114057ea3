import dataclasses
import json
import os

import pytest

from cartier.cli import main


def _dead_worker(task):
    os._exit(1)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariantsCommand:
    def test_ordinary_genus2(self, capsys):
        code, out, err = run_cli(
            capsys, "invariants", "--p", "3", "--poly", "0,1,0,0,0,1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "cartier-report/1"
        assert doc["a_number"] == 0 and doc["p_rank"] == 2
        assert "a-number=0" in err

    def test_superspecial_genus2(self, capsys):
        code, out, _ = run_cli(
            capsys, "invariants", "--p", "5", "--poly", "0,1,0,0,0,1"
        )
        assert code == 0
        assert json.loads(out)["a_number"] == 2

    def test_extension_field(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "invariants",
            "--p", "3", "--k", "2", "--mod", "1,0,1",
            "--poly", "0,[1,0],0,0,0,[1,0]",
        )
        assert code == 0
        assert json.loads(out)["k"] == 2

    def test_non_prime_p_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "invariants", "--p", "4", "--poly", "0,1,0,1"
        )
        assert code == 2
        assert err.startswith("error: invalid-input:")

    def test_even_degree_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "invariants", "--p", "3", "--poly", "1,0,0,0,1"
        )
        assert code == 3
        assert err.startswith("error: unsupported:")


class TestSearchCommand:
    def test_exhaustive_with_witness(self, capsys):
        code, out, err = run_cli(
            capsys,
            "search",
            "--p", "3", "--genus", "2",
            "--fix", "c0=0,c5=1",
            "--exhaustive", "--require-smooth", "--target-a", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["matched"] == 6
        assert doc["counts"]["enumerated"] == 81
        assert len(doc["witnesses"]) == 6
        assert doc["witnesses"][0]["a_number"] == 1
        assert "matched 6 of 81" in err

    def test_zero_matches_still_exit_0(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "search",
            "--p", "3", "--genus", "2",
            "--fix", "c0=0,c5=1",
            "--exhaustive", "--require-smooth", "--target-a", "2",
        )
        assert code == 0
        assert json.loads(out)["matched"] == 0

    def test_random_zero_samples(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "search",
            "--p", "7", "--k", "2", "--genus", "4",
            "--fix", "c0=0,c9=1",
            "--random", "--samples", "0", "--seed", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"]["enumerated"] == 0 and doc["matched"] == 0

    def test_budget_exceeded_exits_4(self, capsys):
        code, _, err = run_cli(
            capsys,
            "search",
            "--p", "7", "--genus", "4",
            "--fix", "c0=0,c9=1",
            "--exhaustive", "--budget", "100",
        )
        assert code == 4
        assert err.startswith("error: budget:")

    def test_invalid_spec_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "search",
            "--p", "3", "--genus", "2",
            "--fix", "c0=0",  # leading coefficient not fixed
            "--exhaustive",
        )
        assert code == 2
        assert err.startswith("error: invalid-input:")

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "search",
            "--p", "3", "--genus", "2",
            "--fix", "c0=0,c5=1",
            "--exhaustive", "--require-smooth", "--target-a", "1", "--csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,k,genus,coeffs,a_number,p_rank,smooth"
        assert len(lines) == 7
        p, k, genus, coeffs, a, pr, smooth = lines[1].split(",")
        assert (p, k, genus, a, smooth) == ("3", "1", "2", "1", "true")
        assert coeffs.count(";") == 5

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "search",
            "--p", "3", "--genus", "2",
            "--fix", "c0=0,c5=1",
            "--exhaustive", "--require-smooth", "--target-a", "1",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["matched"] == 6

    def test_threads_identical_documents(self, capsys):
        args = [
            "search",
            "--p", "5", "--genus", "3",
            "--fix", "c0=0,c7=1",
            "--exhaustive", "--require-smooth", "--target-a", "2",
        ]
        _, out1, _ = run_cli(capsys, *args, "--threads", "1")
        _, out4, _ = run_cli(capsys, *args, "--threads", "4")
        assert out1 == out4

    def test_factor_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "search",
            "--p", "7", "--k", "2", "--degree", "9",
            "--factor", "0,6,1",
            "--fix", "c7=1",
            "--random", "--samples", "50", "--seed", "5",
            "--require-smooth", "--target-a", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["spec"]["factor"] == "[0,0],[6,0],[1,0]"
        assert doc["counts"]["enumerated"] == 50


class TestVerifyCommand:
    def test_theorem1_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "theorem1", "--p", "3", "--genus", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True and doc["observed"]["matched"] == 0
        assert "PASS" in err

    def test_theorem1_f9(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "theorem1", "--p", "3", "--k", "2", "--genus", "3"
        )
        assert code == 0
        assert json.loads(out)["observed"]["enumerated"] == 531441

    def test_p_rank_witnesses_p5(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "p-rank-witnesses", "--p", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["observed"]["count_p_rank_0"] == 16
        assert doc["observed"]["count_p_rank_1"] == 20

    def test_missing_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "theorem1")
        assert code == 2
        assert err.startswith("error: invalid-input:")


class TestReproduceCommand:
    def test_script2_smoke(self, capsys):
        code, out, err = run_cli(
            capsys, "reproduce", "--script", "2", "--samples", "25", "--seed", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["script"] == 2
        assert doc["expected_matched"] == 0
        assert doc["report"]["counts"]["enumerated"] == 25
        assert "expected N=0" in err

    def test_seed_changes_document_but_not_shape(self, capsys):
        _, out1, _ = run_cli(
            capsys, "reproduce", "--script", "2", "--samples", "40", "--seed", "1"
        )
        _, out2, _ = run_cli(
            capsys, "reproduce", "--script", "2", "--samples", "40", "--seed", "2"
        )
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["report"]["seed"] == 1 and d2["report"]["seed"] == 2


class TestArgumentErrors:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "search", "--bogus")[0] == 2

    def test_mode_required(self, capsys):
        code, _, _ = run_cli(
            capsys, "search", "--p", "3", "--genus", "2", "--fix", "c0=0,c5=1"
        )
        assert code == 2

    def test_zero_factor_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "search",
            "--p", "7", "--genus", "1",
            "--exhaustive", "--fix", "c0=0,c3=1", "--factor", "0",
        )
        assert code == 2
        assert err.startswith("error: invalid-input:")

    @pytest.mark.parametrize("field", [["--p", "1031"], ["--p", "3", "--k", "7"]])
    def test_field_above_search_cap_exits_2_before_drawing(
        self, capsys, monkeypatch, field
    ):
        import cartier.search as search

        def no_draws(*args):
            raise AssertionError("candidates drawn for an oversized field")

        monkeypatch.setattr(search, "_make_tasks", no_draws)
        code, _, err = run_cli(
            capsys,
            "search", *field, "--genus", "2", "--fix", "c0=0,c5=1",
            "--random", "--samples", "5", "--seed", "1",
        )
        assert code == 2
        assert err.startswith("error: invalid-input:")
        assert "order <= 1024" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--p", "3", "--genus", "2", "--fix", "c0=0,c5=1",
             "--exhaustive"],
            ["verify", "theorem1", "--p", "3", "--genus", "3"],
            ["reproduce", "--script", "2", "--samples", "10"],
        ],
    )
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, capsys, argv, threads):
        code, out, err = run_cli(capsys, *argv, "--threads", threads)
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid-input:")
        assert "threads must be >= 1" in err

    def test_random_samples_over_budget_exits_4_before_drawing(
        self, capsys, monkeypatch
    ):
        import cartier.search as search

        def no_draws(*args):
            raise AssertionError("sample drawn for a search over budget")

        monkeypatch.setattr(search, "_rand_below", no_draws)
        code, out, err = run_cli(
            capsys,
            "search", "--p", "5", "--genus", "2", "--fix", "c0=0,c5=1",
            "--random", "--samples", "100", "--budget", "10",
        )
        assert code == 4
        assert out == ""
        assert err.startswith("error: budget:")


class TestFailureExitCodes:
    WITNESS_SEARCH = (
        "search", "--p", "3", "--genus", "2", "--fix", "c0=0,c5=1",
        "--exhaustive", "--require-smooth", "--target-a", "1",
    )

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_revalidation_failure_exits_6(self, capsys, monkeypatch, threads):
        # the object layer disagrees with the kernel on every witness; at
        # --threads 2 the disagreement is found on a pool worker
        import cartier.search as search

        real = search.invariants
        monkeypatch.setattr(
            search, "invariants", lambda f: dataclasses.replace(real(f), a_number=2)
        )
        code, out, err = run_cli(capsys, *self.WITNESS_SEARCH, "--threads", threads)
        assert code == 6
        assert out == ""
        assert err.startswith("error: internal:")
        assert "a=2, wanted 1" in err

    def test_dead_worker_exits_5(self, capsys, monkeypatch):
        import cartier._kernel as _kernel

        monkeypatch.setattr(_kernel, "scan", _dead_worker)
        code, out, err = run_cli(capsys, *self.WITNESS_SEARCH, "--threads", "2")
        assert code == 5
        assert out == ""
        assert err.startswith("error: resource: BrokenProcessPool")

    def test_memory_error_exits_5(self, capsys, monkeypatch):
        import cartier.search as search

        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(search, "_make_tasks", out_of_memory)
        code, out, err = run_cli(capsys, *self.WITNESS_SEARCH)
        assert code == 5
        assert out == ""
        assert err.startswith("error: resource: MemoryError")
