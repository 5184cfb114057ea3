import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cartier.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text())


TEST_PID = os.getpid()


def _dead_worker(task):
    # dies only on a pool worker, so a search that never starts the pool
    # fails its test instead of ending the test process
    if os.getpid() == TEST_PID:
        raise AssertionError("scan ran outside the worker pool")
    os._exit(1)


def assert_no_child_left():
    # every child this test process forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

    def test_modulus_in_one_pair_of_brackets(self, capsys):
        argv = ("invariants", "--p", "3", "--k", "2", "--poly", "0,[1,0],0,0,0,[1,0]")
        bare = run_cli(capsys, *argv, "--mod", "1,0,1")
        bracketed = run_cli(capsys, *argv, "--mod", " [1,0,1] ")
        assert bare[0] == 0
        assert bracketed[:2] == bare[:2]

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

    def test_no_prefilter_report_identical(self, capsys):
        # --target-a g-1 takes the rank-one path; --no-prefilter checks every
        # candidate.  The report echoes the flag and must not differ otherwise.
        argv = [
            "search", "--p", "7", "--genus", "3", "--fix", "c0=0,c1=1,c2=0,c7=1",
            "--exhaustive", "--require-smooth", "--target-a", "2", "--limit", "4",
        ]
        _, joined, _ = run_cli(capsys, *argv)
        _, plain, _ = run_cli(capsys, *argv, "--no-prefilter")
        assert json.loads(joined)["matched"] > 4
        flag = '"prefilter": '
        assert joined.count(flag + "true") == plain.count(flag + "false") == 1
        assert joined == plain.replace(flag + "false", flag + "true")

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

    @pytest.mark.parametrize(
        "field,genus,target",
        [(["--p", "3", "--k", "2"], 2, "1"), (["--p", "7", "--k", "2"], 1, "0")],
    )
    def test_csv_rows_over_extension_fields_parse(self, capsys, field, genus, target):
        # extension-field coefficients print as "[a,b]"; each row's coeffs
        # stays one quoted field
        degree = 2 * genus + 1
        code, out, _ = run_cli(
            capsys,
            "search", *field, "--genus", str(genus),
            "--fix", f"c0=0,c1=1,c{degree}=1",
            "--exhaustive", "--target-a", target, "--limit", "5", "--csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["p", "k", "genus", "coeffs", "a_number", "p_rank", "smooth"]
        assert len(rows) == 6
        for p, k, g, coeffs, a, pr, smooth in rows[1:]:
            assert (p, k, g, a) == (field[1], "2", str(genus), target)
            elements = coeffs.split(";")
            assert len(elements) == degree + 1
            assert all(re.fullmatch(r"\[\d,\d\]", el) for el in elements)
        assert '"[0,0];[1,0];' in out and "\r" not in out

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

    def test_script2_defaults_match_explicit_flags(self, capsys, monkeypatch):
        # the defaults are the published run: seed 1 and 10^6 samples; the
        # patched search runs 30 of them and records the spec it was given
        import cartier.search as search

        real = search.run_search
        specs = []

        def short_run(spec, **kwargs):
            specs.append(spec)
            return real(spec._replace(samples=30), **kwargs)

        monkeypatch.setattr(search, "run_search", short_run)
        _, implicit, _ = run_cli(capsys, "reproduce", "--script", "2")
        _, explicit, _ = run_cli(
            capsys, "reproduce", "--script", "2", "--seed", "1", "--samples", "1000000"
        )
        assert [(s.seed, s.samples) for s in specs] == [(1, 1_000_000)] * 2
        assert implicit == explicit


class TestGoldenReports:
    """The benchmark workloads' reports at the default seed, byte for byte
    against perfbench/golden/."""

    CASES = [
        (name, key, threads)
        for threads in ("1", "2")
        for name in sorted(WORKLOADS["workloads"])
        for key in ("argv", "setup_argv")
    ]

    # --threads 2 is the pool path the benchmark's wall_s runs
    @pytest.mark.parametrize(
        "name, key, threads",
        CASES,
        ids=[f"{n}-{k}" + ("" if t == "1" else f"-threads{t}") for n, k, t in CASES],
    )
    def test_report_matches_golden(self, capsys, name, key, threads):
        seed = str(WORKLOADS["default_seed"])
        argv = [a.replace("{seed}", seed) for a in WORKLOADS["workloads"][name][key]]
        suffix = ".setup.json" if key == "setup_argv" else ".json"
        code, out, _ = run_cli(capsys, *argv, "--threads", threads)
        assert code == 0
        assert out == (PERFBENCH / "golden" / f"{name}{suffix}").read_text()


def run_probe(probe, *argv):
    """Run ``probe`` with ``argv`` in a fresh interpreter; return its stdout
    and the words of its last stderr line."""
    res = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert res.returncode == 0, res.stderr
    return res.stdout, res.stderr.splitlines()[-1].split()


class TestPoolImport:
    """No run loads multiprocessing or concurrent.futures; the fork pool's
    module is loaded only by a run that starts a pool."""

    POOL_MODULES = ["multiprocessing", "concurrent.futures", "cartier._pool"]
    # cli.main in a fresh interpreter; the last stderr line names the pool
    # modules the run loaded
    PROBE = (
        "import sys\n"
        "from cartier.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(*(m for m in {POOL_MODULES!r} if m in sys.modules), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )

    def run_fresh(self, *argv):
        return run_probe(self.PROBE, *argv)

    SERIAL = {
        "invariants": ["invariants", "--p", "3", "--poly", "0,1,0,0,0,1"],
        "theorem1-f9-threads1": [
            *WORKLOADS["workloads"]["theorem1-f9"]["argv"], "--threads", "1"
        ],
        # 42 rank-one survivors are one piece
        "script1-f7-threads2": [
            *WORKLOADS["workloads"]["script1-f7"]["argv"], "--threads", "2"
        ],
        "script2-100-samples-threads2": [
            "reproduce", "--script", "2", "--samples", "100", "--threads", "2"
        ],
        # 7 to 9 one-candidate shards: too few candidates for a second worker
        **{
            f"{name}-setup-threads2": [
                *WORKLOADS["workloads"][name]["setup_argv"], "--threads", "2"
            ]
            for name in ("theorem1-f9", "script1-f7", "witness-heavy")
        },
    }

    @pytest.mark.parametrize("argv", SERIAL.values(), ids=SERIAL.keys())
    def test_one_task_runs_do_not_load_the_pool(self, argv):
        assert self.run_fresh(*argv)[1] == []

    def test_pooled_run_loads_the_pool_and_keeps_its_report(self):
        # 2 401 candidates in 7 top-coefficient shards at --threads 2: the
        # fork pool starts, and neither standard-library pool is loaded
        argv = WORKLOADS["workloads"]["witness-heavy"]["argv"]
        out, loaded = self.run_fresh(*argv, "--threads", "2")
        assert loaded == ["cartier._pool"]
        assert out == self.run_fresh(*argv, "--threads", "1")[0]

    @pytest.mark.parametrize(
        "name, key, threads, n_tasks, workers",
        [
            ("theorem1-f9", "setup_argv", 2, 9, 1),
            ("script1-f7", "setup_argv", 2, 7, 1),
            ("witness-heavy", "setup_argv", 2, 7, 1),
            ("witness-heavy", "argv", 2, 7, 2),
            ("witness-heavy", "argv", 64, 7, 3),
            ("theorem1-f9", "argv", 64, 1, 1),
            ("script2-f49", "argv", 64, 8, 8),
        ],
    )
    def test_worker_count_follows_the_candidates(
        self, capsys, monkeypatch, name, key, threads, n_tasks, workers
    ):
        # one worker per 1 000 candidates, at most one per task and thread:
        # 7 to 9 one-candidate set-up shards get one, 2 401 candidates in 7
        # shards get 3 and 2 x 10^4 samples in 8 pieces get 8
        from cartier import search

        made = []
        real = search._make_tasks

        def recorder(spec, budget):
            made.append(real(spec, budget))
            return made[-1]

        monkeypatch.setattr(search, "_make_tasks", recorder)
        seed = str(WORKLOADS["default_seed"])
        argv = [a.replace("{seed}", seed) for a in WORKLOADS["workloads"][name][key]]
        assert run_cli(capsys, *argv, "--threads", "1")[0] == 0
        [tasks] = made
        assert len(tasks) == n_tasks
        assert search._worker_count(tasks, threads) == workers


class TestForkPool:
    """Reports from the fork pool equal the serial ones, and every worker is
    reaped."""

    @staticmethod
    def decode_on_workers_only(monkeypatch):
        # at --threads > 1 the re-validation must run on the pool
        import cartier.search as search

        real = search._decode_witness

        def on_worker(spec, encodings):
            if os.getpid() == TEST_PID:
                raise AssertionError("witness re-validated outside the pool")
            return real(spec, encodings)

        monkeypatch.setattr(search, "_decode_witness", on_worker)

    @pytest.mark.parametrize(
        "name, threads, workers",
        [
            ("witness-heavy", "2", 2),
            ("witness-heavy", "3", 3),
            ("witness-heavy", "64", 3),
            ("script2-f49", "2", 2),
            ("script2-f49", "3", 3),
            ("script2-f49", "64", 8),
        ],
    )
    def test_pooled_report_equals_serial(
        self, capsys, monkeypatch, pool_starts, name, threads, workers
    ):
        # the golden file is the --threads 1 report (TestGoldenReports)
        self.decode_on_workers_only(monkeypatch)
        seed = str(WORKLOADS["default_seed"])
        argv = [a.replace("{seed}", seed) for a in WORKLOADS["workloads"][name]["argv"]]
        code, out, _ = run_cli(capsys, *argv, "--threads", threads)
        assert code == 0
        assert out == (PERFBENCH / "golden" / f"{name}.json").read_text()
        assert pool_starts == [workers]
        assert_no_child_left()

    def test_without_fork_the_search_runs_here(self, capsys, monkeypatch, pool_starts):
        # where os.fork does not exist the search runs as at --threads 1
        monkeypatch.delattr(os, "fork")
        code, out, _ = run_cli(
            capsys, *WORKLOADS["workloads"]["witness-heavy"]["argv"], "--threads", "2"
        )
        assert code == 0
        assert out == (PERFBENCH / "golden" / "witness-heavy.json").read_text()
        assert pool_starts == []


class TestStartupImports:
    """Start-up stays off the heavy standard-library modules: dataclasses
    alone pulls in inspect, ast, dis and tokenize."""

    HEAVY = ["dataclasses", "inspect"]
    # the modules the import and a serial search add to those this
    # interpreter had already loaded (site and its hooks included)
    PROBE = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from cartier.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(*(m for m in {HEAVY!r} if m in set(sys.modules) - before), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )

    def test_cli_import_and_serial_search_skip_dataclasses(self):
        argv = [*WORKLOADS["workloads"]["theorem1-f9"]["setup_argv"], "--threads", "1"]
        out, loaded = run_probe(self.PROBE, *argv)
        assert json.loads(out)["counts"]["enumerated"] == 9
        assert loaded == []


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

    @pytest.mark.parametrize("flags", [["--samples", "5"], ["--seed", "3"]])
    def test_exhaustive_draw_flags_exit_2(self, capsys, monkeypatch, flags):
        # a spec with samples would be a random search, so the flags must
        # not reach it
        import cartier.cli as cli

        def no_search(*args, **kwargs):
            raise AssertionError("search started despite a random-only flag")

        monkeypatch.setattr(cli, "run_search", no_search)
        code, out, err = run_cli(
            capsys,
            "search", "--p", "3", "--genus", "2", "--fix", "c0=0,c5=1",
            "--exhaustive", *flags,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid-input:")
        assert "only apply to --random searches" in err

    @pytest.mark.parametrize(
        "mod", ["[1,0,1", "1,0,1]", "[[1,0,1]]"], ids=["open", "close", "nested"]
    )
    def test_unbalanced_modulus_brackets_exit_2(self, capsys, mod):
        code, out, err = run_cli(
            capsys, "invariants", "--p", "3", "--k", "2", "--mod", mod,
            "--poly", "0,[1,0],0,0,0,[1,0]",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid-input: malformed --mod")

    @pytest.mark.parametrize("entry", ["c=1", "cx=1", "cc3=0", "3=0"])
    def test_fix_entry_without_index_exits_2(self, capsys, entry):
        code, out, err = run_cli(
            capsys,
            "search", "--p", "3", "--genus", "2", "--fix", f"c0=0,{entry},c5=1",
            "--exhaustive",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid-input:")
        assert f"malformed --fix entry {entry!r} (want cIDX=VALUE)" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--p", "7", "--genus", "2", "--fix", "c5=1",
             "--random", "--samples", "50", "--seed", "-1"],
            ["reproduce", "--script", "2", "--seed", "-1"],
        ],
        ids=["search", "reproduce-script2"],
    )
    def test_negative_seed_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid-input:") and "seed" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--p", "5", "--genus", "2", "--fix", "c0=0,c5=1",
             "--exhaustive", "--target-a", "1"],
            ["verify", "theorem1", "--p", "3", "--genus", "3"],
            ["reproduce", "--script", "2"],
        ],
        ids=["search", "verify-theorem1", "reproduce-script2"],
    )
    @pytest.mark.parametrize("where", ["missing-parent", "directory"])
    def test_unwritable_out_exits_2_before_searching(
        self, capsys, monkeypatch, tmp_path, argv, where
    ):
        import cartier.cli as cli
        import cartier.search as search

        def no_search(*args, **kwargs):
            raise AssertionError("search started despite an unwritable --out")

        monkeypatch.setattr(cli, "run_search", no_search)
        monkeypatch.setattr(search, "run_search", no_search)
        out = tmp_path
        if where == "missing-parent":
            out = tmp_path / "no" / "such" / "r.json"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith("error: invalid-input: --out")
        assert list(tmp_path.iterdir()) == []

    def test_negative_budget_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "search", "--p", "3", "--genus", "2", "--fix", "c0=0,c5=1",
            "--exhaustive", "--budget", "-1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid-input:")
        assert "budget must be >= 0" in err

    def test_prop_p5_other_p_exits_2(self, capsys, monkeypatch):
        # the exhaustive check exists at p = 5 only
        import cartier.search as search

        def no_search(*args, **kwargs):
            raise AssertionError("search started for an unsupported p")

        monkeypatch.setattr(search, "run_search", no_search)
        code, out, err = run_cli(capsys, "verify", "prop-p5", "--p", "7")
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid-input:")
        assert "forward_form_check" in err

    @pytest.mark.parametrize("fix", ["c0=0,c5=1,c7=1", "c-1=0,c5=1"])
    def test_fixed_index_outside_the_family_exits_2(self, capsys, fix):
        code, out, err = run_cli(
            capsys, "search", "--p", "5", "--genus", "2", "--exhaustive", "--fix", fix
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid-input:")
        assert "lies outside the cofactor" in err

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
            ["verify", "p-rank-witnesses", "--p", "3", "--genus", "5"],
            ["verify", "p-rank-witnesses", "--p", "3", "--k", "2"],
            ["verify", "p-rank-witnesses", "--p", "3", "--k", "1"],
            ["verify", "prop-p5", "--k", "3", "--genus", "9"],
            ["verify", "prop-p5", "--genus", "4"],
        ],
    )
    def test_verify_flag_the_suite_ignores_exits_2(self, capsys, monkeypatch, argv):
        import cartier.search as search

        def no_search(*args, **kwargs):
            raise AssertionError("search started despite an unused flag")

        monkeypatch.setattr(search, "run_search", no_search)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid-input:")
        assert "takes no --k or --genus" in err

    @pytest.mark.parametrize(
        "flags", [["--seed", "5"], ["--samples", "3"], ["--seed", "5", "--samples", "3"]]
    )
    def test_reproduce_script1_draw_flags_exit_2(self, capsys, monkeypatch, flags):
        # script 1 is exhaustive and draws nothing, so the flags would be ignored
        import cartier.search as search

        def no_search(*args, **kwargs):
            raise AssertionError("search started despite an unused flag")

        monkeypatch.setattr(search, "run_search", no_search)
        code, out, err = run_cli(capsys, "reproduce", "--script", "1", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid-input:")
        assert "only apply to --script 2" in err

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

        monkeypatch.setattr(search, "_draws_below", no_draws)
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
    def test_revalidation_failure_exits_6(
        self, capsys, monkeypatch, pool_starts, threads
    ):
        # the object layer disagrees with the kernel on every witness; at
        # --threads 2 the disagreement is found on a pool worker, which the
        # 81-candidate family reaches only in pieces of 2 and with a floor of
        # one candidate a worker
        import cartier.search as search

        monkeypatch.setattr(search, "_PIECE", 2)
        monkeypatch.setattr(search, "_WORKER_CANDIDATES", 1)
        real = search.invariants

        def disagree(f):
            # at --threads 2 only a worker disagrees, so exit 6 means the
            # failure was raised there and reached this process
            if threads == "2" and os.getpid() == TEST_PID:
                return real(f)
            return real(f)._replace(rank_a=real(f).genus - 2)

        monkeypatch.setattr(search, "invariants", disagree)
        code, out, err = run_cli(capsys, *self.WITNESS_SEARCH, "--threads", threads)
        assert code == 6
        assert out == ""
        assert err.startswith("error: internal:")
        assert "a=2, wanted 1" in err
        assert pool_starts == ([] if threads == "1" else [2])
        assert_no_child_left()

    @pytest.mark.parametrize(
        "tamper, reason",
        [
            (lambda w: [w[0] + 3, *w[1:]], "encoding outside [0, 3)"),
            (lambda w: [*w[:-1], 0], "wanted 5"),
            (lambda w: [*w[:-2], 0, 0], "wanted 5"),
        ],
        ids=["wrapped-encoding", "zero-leading", "degree-drop-2"],
    )
    def test_malformed_kernel_witness_exits_6(self, capsys, monkeypatch, tamper, reason):
        # re-validation takes the kernel's encodings as given: it neither
        # reduces them mod q nor lets Poly drop a zero leading coefficient
        import cartier._kernel as _kernel

        real = _kernel.scan

        def tampered(task):
            result = real(task)
            result["witnesses"] = [tamper(w) for w in result["witnesses"]]
            return result

        monkeypatch.setattr(_kernel, "scan", tampered)
        code, out, err = run_cli(capsys, *self.WITNESS_SEARCH)
        assert code == 6
        assert out == ""
        assert err.startswith("error: internal: witness re-validation failed")
        assert reason in err

    def test_dead_worker_exits_5(self, capsys, monkeypatch):
        # the rank-one search's survivors fit in one piece at the default
        # size and are too few for a second worker; pieces of 2 and a floor
        # of one candidate a worker send them to the pool
        import cartier._kernel as _kernel
        import cartier.search as search

        monkeypatch.setattr(search, "_PIECE", 2)
        monkeypatch.setattr(search, "_WORKER_CANDIDATES", 1)
        monkeypatch.setattr(_kernel, "scan", _dead_worker)
        code, out, err = run_cli(capsys, *self.WITNESS_SEARCH, "--threads", "2")
        assert code == 5
        assert out == ""
        assert re.fullmatch(
            r"error: resource: WorkerDiedError: pool worker [0-9]+ ended "
            r"\(exit code 1\) before answering\n",
            err,
        )
        assert_no_child_left()

    def test_closed_stdout_exits_5(self):
        # the report's reader is gone before the first byte: the write is a
        # resource error, and the exit prints nothing more
        read, write = os.pipe()
        os.close(read)
        try:
            res = subprocess.run(
                [sys.executable, "-m", "cartier", *self.WITNESS_SEARCH],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            )
        finally:
            os.close(write)
        assert res.returncode == 5
        error = "error: resource: BrokenPipeError: [Errno 32] Broken pipe\n"
        assert res.stderr == error

    def second_fork_fails(self, capsys, monkeypatch, error):
        # the pool's first worker starts and its second fork fails with
        # ``error``: the first worker is reaped before the error reaches main
        import cartier.search as search

        real_fork = os.fork
        forks = []

        def fork():
            forks.append(len(forks))
            if len(forks) == 2:
                raise OSError(error, os.strerror(error))
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(search, "_PIECE", 2)
        monkeypatch.setattr(search, "_WORKER_CANDIDATES", 1)
        code, out, err = run_cli(capsys, *self.WITNESS_SEARCH, "--threads", "2")
        assert (code, out) == (5, "")
        assert forks == [0, 1]
        assert_no_child_left()
        return err

    def test_pool_without_processes_exits_5(self, capsys, monkeypatch, pool_starts):
        err = self.second_fork_fails(capsys, monkeypatch, errno.EAGAIN)
        assert err.startswith("error: resource: BlockingIOError: [Errno 11]")
        assert pool_starts == [2]

    def test_pool_without_memory_exits_5(self, capsys, monkeypatch, pool_starts):
        err = self.second_fork_fails(capsys, monkeypatch, errno.ENOMEM)
        assert err.startswith("error: resource: OSError: [Errno 12]")
        assert pool_starts == [2]

    def test_memory_error_on_a_worker_exits_5(self, capsys, monkeypatch, pool_starts):
        # the exception reaches this process with its type
        import cartier._kernel as _kernel
        import cartier.search as search

        def out_of_memory(task):
            if os.getpid() == TEST_PID:
                raise AssertionError("scan ran outside the worker pool")
            raise MemoryError

        monkeypatch.setattr(search, "_PIECE", 2)
        monkeypatch.setattr(search, "_WORKER_CANDIDATES", 1)
        monkeypatch.setattr(_kernel, "scan", out_of_memory)
        code, out, err = run_cli(capsys, *self.WITNESS_SEARCH, "--threads", "2")
        assert (code, out) == (5, "")
        assert err == "error: resource: MemoryError: \n"
        assert pool_starts == [2]
        assert_no_child_left()

    @pytest.mark.parametrize(
        "error, code, kind",
        [(errno.ENOSPC, 5, "resource: OSError"), (errno.EACCES, 2, "invalid-input")],
    )
    def test_failed_report_write_exit_code(
        self, capsys, monkeypatch, tmp_path, error, code, kind
    ):
        # a full disk is out of resources; a refused write stays invalid input
        def refused(self, *args, **kwargs):
            raise OSError(error, os.strerror(error))

        monkeypatch.setattr(Path, "write_text", refused)
        out = tmp_path / "r.json"
        exit_code, stdout, err = run_cli(
            capsys, *self.WITNESS_SEARCH, "--out", str(out)
        )
        assert (exit_code, stdout) == (code, "")
        assert err == f"error: {kind}: [Errno {error}] {os.strerror(error)}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", [None, "old report\n"])
    def test_report_over_the_file_size_limit_exits_5(self, tmp_path, existing):
        # RLIMIT_FSIZE stops the write partway with EFBIG (Python ignores
        # SIGXFSZ): out of resources, and --out is left as it was
        out = tmp_path / "r.json"
        if existing is not None:
            out.write_text(existing)
        probe = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024))\n"
            "from cartier.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", probe, *self.WITNESS_SEARCH, "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert res.returncode == 5
        error = "error: resource: OSError: [Errno 27] File too large\n"
        assert res.stderr.endswith(error) and res.stderr.count("\n") == 1
        assert [f.name for f in tmp_path.iterdir()] == ([] if existing is None else ["r.json"])
        if existing is not None:
            assert out.read_text() == existing

    def test_report_replaces_out_whole(self, capsys, tmp_path):
        # a finished run replaces an existing --out and leaves no other file
        out = tmp_path / "r.json"
        out.write_text("old report\n")
        code, stdout, _ = run_cli(capsys, *self.WITNESS_SEARCH, "--out", str(out))
        assert (code, stdout) == (0, "")
        _, report, _ = run_cli(capsys, *self.WITNESS_SEARCH)
        assert out.read_text() == report
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize(
        "argv",
        [("invariants", "--p", "3", "--poly", "0,1,0,1"), WITNESS_SEARCH],
        ids=["invariants", "search"],
    )
    def test_full_stdout_exits_5(self, argv):
        # the report's write to a full device fails, and the exit flush of
        # the still-buffered report prints nothing more
        with open("/dev/full", "w") as full:
            res = subprocess.run(
                [sys.executable, "-m", "cartier", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            )
        assert res.returncode == 5
        error = "error: resource: OSError: [Errno 28] No space left on device\n"
        assert res.stderr == error

    def test_dead_worker_on_random_path_exits_5(self, capsys, monkeypatch):
        # 6000 samples are three pieces and enough candidates for two
        # workers, so a random search reaches the pool
        import cartier._kernel as _kernel

        monkeypatch.setattr(_kernel, "scan", _dead_worker)
        code, out, err = run_cli(
            capsys, "reproduce", "--script", "2", "--samples", "6000",
            "--seed", "1", "--threads", "2",
        )
        assert code == 5
        assert out == ""
        assert err.startswith("error: resource: WorkerDiedError: pool worker")
        assert_no_child_left()

    def test_random_over_budget_at_two_threads_exits_4_before_drawing(
        self, capsys, monkeypatch
    ):
        import cartier.search as search

        def no_draws(*args):
            raise AssertionError("sample drawn for a search over budget")

        monkeypatch.setattr(search, "_draws_below", no_draws)
        code, out, err = run_cli(
            capsys, "reproduce", "--script", "2", "--samples", "6000",
            "--seed", "1", "--budget", "5999", "--threads", "2",
        )
        assert code == 4
        assert out == ""
        assert err.startswith("error: budget:")

    def test_memory_error_exits_5(self, capsys, monkeypatch):
        import cartier.search as search

        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(search, "_make_tasks", out_of_memory)
        code, out, err = run_cli(capsys, *self.WITNESS_SEARCH)
        assert code == 5
        assert out == ""
        assert err.startswith("error: resource: MemoryError")
