"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

WORKLOADS = run.WORKLOADS["workloads"]


def _counts(doc: dict) -> dict:
    report = doc.get("report", doc)
    return {
        "enumerated": report["counts"]["enumerated"],
        "squarefree": report["counts"]["squarefree"],
        "matched": report["matched"],
        "witnesses": len(report["witnesses"]),
        "shard_count": report["shard_count"],
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_reports_carry_the_recorded_counts(name):
    doc = json.loads((run.GOLDEN / f"{name}.json").read_text())
    assert _counts(doc) == WORKLOADS[name]["counts"]


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in run.BENCH["workloads"]] == list(WORKLOADS)
    assert set(run.E2E_UNITS) == {"wall_s", "wall_1t_s", "setup_s", "peak_rss_mb"}
    predicted = {p["metric"] for p in run.WORKLOADS["predictions"]}
    assert predicted <= set(run.LAYER_UNITS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_setup_commands_match_golden_at_both_thread_counts(name):
    checker = run.Checker(name, WORKLOADS[name], run.WORKLOADS["default_seed"])
    argv = run.argv_for(WORKLOADS[name], "setup_argv", run.WORKLOADS["default_seed"])
    outs = []
    for threads in ("1", "2"):
        res = subprocess.run(
            [sys.executable, "-m", "cartier", *argv, "--threads", threads],
            env=run.cli_env(), cwd=ROOT, capture_output=True,
        )
        assert checker.check("setup_argv", res.returncode, res.stdout, *outs[-1:])
        outs.append(res.stdout)
    assert checker.failed == 0


def test_checker_counts_every_kind_of_wrong_output():
    name = "script1-f7"
    checker = run.Checker(name, WORKLOADS[name], 1)
    gold = checker.golden("argv")
    assert checker.check("argv", 0, gold)
    assert not checker.check("argv", 1, gold)
    assert not checker.check("argv", 0, gold + b" ")
    assert (checker.attempted, checker.failed) == (3, 2)

    seeded = run.Checker("script2-f49", WORKLOADS["script2-f49"], 12345)
    assert seeded.golden("argv") is None
    report = run.GOLDEN / "script2-f49.json"
    assert seeded.check("argv", 0, report.read_bytes())
    assert not seeded.check("argv", 0, report.read_bytes(), b"{}")
    assert not seeded.check("argv", 0, b"not json")


def test_revalidation_catches_a_tampered_witness():
    checker = run.Checker("script2-f49", WORKLOADS["script2-f49"], 12345)
    doc = json.loads((run.GOLDEN / "witness-heavy.json").read_text())
    doc["witnesses"] = doc["witnesses"][:20]
    assert checker.check("argv", 0, json.dumps(doc).encode())
    doc["witnesses"][0]["p_rank"] += 1
    assert not checker.check("argv", 0, json.dumps(doc).encode())


def test_summary_reports_a_percentile_only_with_ten_samples_beyond_it():
    few = run.summarize([3.0, 1.0, 2.0])
    assert few == {"n": 3, "median": 2.0, "max": 3.0}
    many = run.summarize([float(i) for i in range(1, 41)])
    assert many["n"] == 40 and many["median"] == 20.5
    assert sum(v > many["p75"] for v in range(1, 41)) >= 10


def test_calibration_times_every_allowed_cpu_and_restores_affinity():
    allowed = os.sched_getaffinity(0)
    times = run.calibrate()
    assert set(times) == allowed and all(t > 0 for t in times.values())
    assert os.sched_getaffinity(0) == allowed


def test_pinned_run_stays_on_its_cpu_and_restores_affinity():
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    out = run.OUT / "test-pinned.txt"
    run.OUT.mkdir(exist_ok=True)
    r = run.Run(["-c", "import os; print(sorted(os.sched_getaffinity(0)))"], out, cpu)
    assert r.exit_code == 0 and r.stdout.decode().strip() == f"[{cpu}]"
    assert os.sched_getaffinity(0) == allowed


def test_setup_runs_are_spread_over_the_rounds_and_samples_scaled(monkeypatch):
    clock = [0.0]
    calls = []
    cpus = sorted(os.sched_getaffinity(0))
    loops = {c: run.CAL_REF_S * (1 + i) for i, c in enumerate(cpus)}  # CPU i is 1+i times slower
    ticks = [0]

    def busy():  # only the slowest CPU does any work
        ticks[0] += 5
        return {c: ticks[0] if c == cpus[-1] else 0 for c in cpus}

    class FakeRun:
        def __init__(self, args, stdout_path, cpu=None):
            clock[0] += 1.0
            calls.append("setup" if "c4=0" in " ".join(args) else "full")
            self.wall_s, self.peak_rss_mb, self.exit_code = 1.0, 30.0, 0
            self.stdout = run.GOLDEN.joinpath(
                "script1-f7.setup.json" if calls[-1] == "setup" else "script1-f7.json"
            ).read_bytes()

    monkeypatch.setattr(run, "Run", FakeRun)
    monkeypatch.setattr(run, "calibrate", lambda: dict(loops))
    monkeypatch.setattr(run, "cpu_busy", busy)
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    checker = run.Checker("script1-f7", WORKLOADS["script1-f7"], 1)
    summary = run.measure_e2e(WORKLOADS["script1-f7"], 1, 40.0, checker)
    timed = calls[1:]  # after the warm-up
    assert summary["setup_s"]["n"] == run.MIN_SETUP_RUNS
    # no burst of set-up runs at the end: at most one round's share of them
    tail = len(timed) - 1 - max(i for i, c in enumerate(timed) if c == "full")
    assert tail <= -(-run.MIN_SETUP_RUNS // summary["wall_s"]["n"]) + 1
    assert checker.failed == 0
    # an unpinned run is scaled by the CPUs it kept busy, a pinned one by its own
    assert set(summary["wall_s"]["scales"]) == {1 / len(cpus)}
    assert summary["wall_1t_s"]["scales"][:len(cpus)] == [1 / (1 + i) for i in range(len(cpus))]


def test_traced_run_repeats_the_recorded_counts():
    name = "script1-f7"
    argv = [*run.argv_for(WORKLOADS[name], "argv", 1), "--threads", "1"]
    heads = []
    for i in range(2):
        out = run.OUT / f"test-traced-{i}"
        out.mkdir(parents=True, exist_ok=True)
        res = subprocess.run(
            [sys.executable, str(HERE / "traced.py"), "--report", str(out / "r.json"),
             "--spans", str(out / "s.jsonl"), "--seed", "1", "--", *argv],
            env=run.cli_env(), cwd=ROOT, capture_output=True, text=True, check=True,
        )
        head, layers = (json.loads(line) for line in res.stdout.splitlines())
        assert layers["not_run"] == ["kernel.p_rank_us"]
        assert (out / "r.json").read_bytes() == (run.GOLDEN / f"{name}.json").read_bytes()
        spans = [json.loads(line) for line in (out / "s.jsonl").read_text().splitlines()]
        assert sum(s["name"] == "kernel.scan" for s in spans) == 7
        # every per-layer metric but the two that run.py measures itself
        assert set(run.LAYER_UNITS) - set(layers["metrics"]) == {"cli.import_s",
                                                                 "trace.overhead_s"}
        # measured through boundaries a kernel rewrite keeps
        assert {"kernel.scan_us_per_cand", "search.shard_count", "search.decode_s",
                "invariants.invariants_ms", "cli.report_json_ms"} <= set(layers["metrics"])
        heads.append(head)
    assert heads[0] == heads[1] == {"exit_code": 0, "counts": WORKLOADS[name]["counts"]}


def test_traced_run_reports_a_changed_primitive_as_absent():
    """A kernel primitive whose signature changed is absent, not an error."""
    name = "witness-heavy"
    argv = [*run.argv_for(WORKLOADS[name], "argv", 1), "--threads", "1"]
    out = run.OUT / "test-traced-changed"
    out.mkdir(parents=True, exist_ok=True)
    # the CLI runs unchanged; the kernel's p_rank changes before the timings
    patch = (
        "import sys, traced\n"
        "from cartier import _kernel\n"
        "sample = traced._sample_candidates\n"
        "def changed(*args):\n"
        "    for cls in (_kernel.PrimeKernel, _kernel.TableKernel):\n"
        "        cls.p_rank = lambda self, rows, g, batch: 0\n"
        "    return sample(*args)\n"
        "traced._sample_candidates = changed\n"
        "sys.exit(traced.main(sys.argv[1:]))\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", patch, "--report", str(out / "r.json"),
         "--spans", str(out / "s.jsonl"), "--seed", "1", "--", *argv],
        env=dict(run.cli_env(), PYTHONPATH=f"{run.SRC}{os.pathsep}{HERE}"),
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    head, layers = (json.loads(line) for line in res.stdout.splitlines())
    assert head == {"exit_code": 0, "counts": WORKLOADS[name]["counts"]}
    metrics = layers["metrics"]
    assert "kernel.p_rank_us" not in metrics
    assert {"kernel.squarefree_us", "kernel.half_power_us", "kernel.rank_us",
            "kernel.table_build_ms", "invariants.rank_us"} <= set(metrics)
    # target rank 2: scan never runs the rank-one prefilter on this workload
    assert layers["not_run"] == ["kernel.prefilter_us", "kernel.prefilter_pass_ratio"]
    assert set(layers["not_run"]) <= set(metrics)


def test_runner_fails_without_the_program():
    bare = run.OUT / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "script1-f7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
    shutil.rmtree(bare)
