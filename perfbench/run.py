"""Benchmark of the cartier CLI: end-to-end wall time, set-up time and memory
per workload, and per-layer timings from a separate traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload script1-f7 --seed 1 --seconds 25 --trace 0

--workload is a name from perfbench/workloads.json, or "all".
--trace 0 measures the end-to-end metrics, --trace 1 the per-layer metrics
from one traced run, --trace 2 both.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; a per-metric
summary and the machine record go to standard error, and the full result set
(every sample, the machine record, the spans) to .perfbench_out/.

The loop is closed: one CLI process at a time, each started after the last
one ended, from this single harness process.  Every CLI run is checked: exit
code, report bytes against perfbench/golden/ where a golden file covers the
seed, and the same bytes at --threads 1 and --threads nproc.  A seed with no
golden file is checked by cross-thread equality and by re-validating the
report's witnesses through the object layer.

End-to-end times are medians of samples each scaled to a reference CPU speed,
measured by a calibration loop run on each CPU just before and just after the
sample (see calibrate() and measure_e2e()); the unscaled samples are kept in
the result file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = ROOT / ".perfbench_out"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

MIN_SETUP_RUNS = 15  # set-up is short and noisy; its median needs many
CAL_LOOP = 300_000  # iterations of the calibration loop
CAL_REF_S = 0.030  # the loop's time on the reference CPU that times are scaled to
RUN_TIMEOUT_S = 150  # one CLI run; a hung run is killed and counts as failed
IMPORT_RUNS = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def argv_for(workload: dict, key: str, seed: int) -> list[str]:
    return [a.replace("{seed}", str(seed)) for a in workload[key]]


def golden_path(name: str, key: str, seed: int, workload: dict) -> Path | None:
    """The golden report covering this seed, if there is one."""
    if workload["seeded"] and seed != WORKLOADS["default_seed"]:
        return None
    suffix = ".setup.json" if key == "setup_argv" else ".json"
    return GOLDEN / f"{name}{suffix}"


class Run:
    """One finished CLI process: wall time, peak RSS, exit code, stdout."""

    def __init__(self, args: list[str], stdout_path: Path, cpu: int | None = None):
        """cpu: pin the process to this CPU, else let it use every allowed CPU."""
        allowed = os.sched_getaffinity(0)
        t0 = time.perf_counter()
        with open(stdout_path, "wb") as out:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})  # the child inherits the mask at fork
            try:
                proc = subprocess.Popen(
                    [sys.executable, *args],
                    stdout=out,
                    stderr=subprocess.DEVNULL,
                    env=cli_env(),
                    cwd=ROOT,
                    start_new_session=True,  # so a hung run is killed with its workers
                )
            finally:
                os.sched_setaffinity(0, allowed)
            watchdog = threading.Timer(RUN_TIMEOUT_S, os.killpg,
                                       (proc.pid, signal.SIGKILL))
            watchdog.start()
            try:
                # wait4 reports the largest RSS of the process and of every
                # descendant it reaped, i.e. the pool workers
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = time.perf_counter() - t0
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.exit_code = proc.returncode
        self.stdout = stdout_path.read_bytes()


class Checker:
    """Counts CLI runs and the ones whose output is wrong."""

    def __init__(self, name: str, workload: dict, seed: int):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._golden: dict[str, bytes | None] = {}

    def golden(self, key: str) -> bytes | None:
        if key not in self._golden:
            path = golden_path(self.name, key, self.seed, self.workload)
            self._golden[key] = path.read_bytes() if path else None
        return self._golden[key]

    def check(self, key: str, exit_code: int, stdout: bytes,
              other: bytes | None = None) -> bool:
        """other: the same command's report at another thread count."""
        self.attempted += 1
        problem = None
        gold = self.golden(key)
        if exit_code != 0:
            problem = f"exit code {exit_code}"
        elif gold is not None and stdout != gold:
            problem = "report differs from the golden file"
        elif other is not None and stdout != other:
            problem = "report differs between thread counts"
        elif gold is None:
            problem = self._revalidate(stdout)
        if problem:
            self.failed += 1
            self.problems.append(f"{self.name} {key}: {problem}")
        return problem is None

    def _revalidate(self, stdout: bytes) -> str | None:
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "report is not JSON"
        from cartier.search import revalidate_report_dict

        try:
            issues = revalidate_report_dict(doc.get("report", doc))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return f"report is malformed: {exc!r}"
        if issues:
            return "witness re-validation: " + "; ".join(issues[:3])
        return None


def summarize(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 20:
        pct = int(100 * (1 - 10 / len(values)))
        cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
        out[f"p{pct}"] = cut
    out["max"] = max(values)
    return out


def machine_record() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = res.stdout.strip() or None
        except OSError:
            pass
    # identifies the measured code where the checkout is not a git repository
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "loadavg_before": os.getloadavg(),
    }


def calibrate() -> dict[int, float]:
    """Time a fixed pure-Python loop once on each CPU this process may use.

    On a shared host each vCPU's speed drifts by tens of percent over
    seconds to minutes.  Run just before and just after a CLI run, the loop
    measures the speed that run got, and its wall time is scaled by it.
    """
    allowed = os.sched_getaffinity(0)
    times = {}
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            acc = 0
            for i in range(CAL_LOOP):
                acc += i * i % 7
            times[cpu] = time.perf_counter() - t0
    finally:
        os.sched_setaffinity(0, allowed)
    return times


def cpu_busy() -> dict[int, int]:
    """Clock ticks each CPU has spent busy since boot, or {} where /proc/stat
    cannot be read."""
    busy = {}
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                f = line.split()
                if f[0].startswith("cpu") and f[0][3:].isdigit():
                    # user, nice, system, irq, softirq; idle, iowait and steal excluded
                    busy[int(f[0][3:])] = sum(int(f[i]) for i in (1, 2, 3, 6, 7))
    except (OSError, IndexError, ValueError):
        return {}
    return busy


def measure_e2e(workload: dict, seed: int, seconds: float,
                checker: Checker) -> dict:
    """Per metric: the summary of the scaled samples, the unscaled samples
    and the scale of each."""
    n = nproc()
    cpus = sorted(os.sched_getaffinity(0))
    full = ["-m", "cartier", *argv_for(workload, "argv", seed)]
    setup = ["-m", "cartier", *argv_for(workload, "setup_argv", seed),
             "--threads", str(n)]
    out = OUT / "stdout.json"
    samples = {k: [] for k in E2E_UNITS}
    scales = {k: [] for k in E2E_UNITS if E2E_UNITS[k] == "s"}
    before = {}

    def timed(key: str, args: list[str], cpu: int | None = None) -> Run:
        """Run, then record its wall time and the speed around it: the loop on
        the pinned CPU, or for an unpinned run the loop on each CPU weighted
        by the time that CPU was busy during the run."""
        nonlocal before
        busy0 = cpu_busy()
        r = Run(args, out, cpu)
        if cpu is None:
            weight = {c: t - busy0[c] for c, t in cpu_busy().items()
                      if c in before and c in busy0}
        else:
            weight = {cpu: 1}
        after = calibrate()
        if not any(weight.values()):  # no busy counts: all CPUs alike
            weight = dict.fromkeys(before, 1)
        loop = sum(w * (before[c] + after[c]) / 2 for c, w in weight.items())
        before = after
        samples[key].append(r.wall_s)
        scales[key].append(CAL_REF_S * sum(weight.values()) / loop)
        return r

    def setup_run():
        # pinned like the --threads 1 run: it is serial but for a few tiny shards
        r = timed("setup_s", setup, cpus[len(samples["setup_s"]) % len(cpus)])
        checker.check("setup_argv", r.exit_code, r.stdout)

    Run(setup, out)  # warm-up: byte-compiles the package and fills the file cache
    before = calibrate()
    start = time.perf_counter()
    deadline = start + seconds
    rounds = 0
    while True:
        t0 = time.perf_counter()
        order = ["wall_s", "wall_1t_s"]
        reports = []
        for key in order if rounds % 2 == 0 else order[::-1]:  # alternate the first
            if key == "wall_s":
                r = timed(key, [*full, "--threads", str(n)])
                samples["peak_rss_mb"].append(r.peak_rss_mb)
            else:  # one process: pinned, so the loop measures the CPU it ran on
                r = timed(key, [*full, "--threads", "1"], cpus[rounds % len(cpus)])
            ok = checker.check("argv", r.exit_code, r.stdout, *reports[:1])
            reports.append(r.stdout)
            if not ok:
                break
        rounds += 1
        now = time.perf_counter()
        # set-up runs are spread over the run in proportion to the time spent
        while len(samples["setup_s"]) < MIN_SETUP_RUNS * min(1, (now - start) / seconds):
            setup_run()
        now = time.perf_counter()
        if now + (now - t0) / 2 > deadline:  # end as near the deadline as rounds allow
            break
    while len(samples["setup_s"]) < MIN_SETUP_RUNS:
        setup_run()
    summary = {}
    for k, v in samples.items():
        scaled = [t * f for t, f in zip(v, scales[k])] if k in scales else v
        summary[k] = dict(summarize(scaled), unit=E2E_UNITS[k], samples=v)
        if k in scales:
            summary[k]["scales"] = scales[k]
    return summary


def measure_layers(name: str, workload: dict, seed: int, checker: Checker,
                   tag: str) -> tuple[dict, dict]:
    full = [*argv_for(workload, "argv", seed), "--threads", "1"]
    detail: dict = {}

    imports = []
    code = "import time; t = time.perf_counter(); import cartier.cli; print(time.perf_counter() - t)"
    for _ in range(IMPORT_RUNS):
        res = subprocess.run([sys.executable, "-c", code], env=cli_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        imports.append(float(res.stdout))

    untraced = Run(["-m", "cartier", *full], OUT / "stdout.json")
    checker.check("argv", untraced.exit_code, untraced.stdout)

    report = OUT / f"{tag}.traced-report.json"
    spans = OUT / f"{tag}.spans.jsonl"
    cmd = [sys.executable, str(HERE / "traced.py"), "--report", str(report),
           "--spans", str(spans), "--seed", str(seed), "--", *full]
    t0 = time.perf_counter()
    with open(OUT / f"{tag}.traced-stderr.txt", "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=cli_env(), cwd=ROOT, text=True)
    try:
        first = proc.stdout.readline()
        traced_wall = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    try:
        head = json.loads(first)
        layers = json.loads(rest.strip().splitlines()[-1])
    except (ValueError, IndexError):
        checker.attempted += 1
        checker.failed += 1
        checker.problems.append(f"{name} traced run: exit {proc.returncode}, no result")
        return {}, detail

    checker.check("argv", head["exit_code"], report.read_bytes(), untraced.stdout)
    expected = workload["counts"]
    if expected is not None and golden_path(name, "argv", seed, workload):
        checker.attempted += 1
        if head["counts"] != expected:
            checker.failed += 1
            checker.problems.append(
                f"{name} exact counts {head['counts']} != recorded {expected}")

    metrics = dict(layers["metrics"])
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = traced_wall - untraced.wall_s
    detail.update(counts=head["counts"],
                  absent=[k for k in LAYER_UNITS if k not in metrics],
                  not_run_by_scan=layers.get("not_run", []),
                  traced_wall_s=traced_wall, untraced_wall_1t_s=untraced.wall_s,
                  import_s=imports, spans_file=str(spans.relative_to(ROOT)))
    return metrics, detail


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    workload = WORKLOADS["workloads"][name]
    checker = Checker(name, workload, seed)
    tag = f"{name}-seed{seed}-{time.strftime('%Y%m%dT%H%M%S')}"
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "machine": machine_record()}
    metrics: dict = {}
    if trace in (0, 2):
        record["e2e"] = measure_e2e(workload, seed, seconds, checker)
        for k, s in record["e2e"].items():
            metrics[k] = {"value": s["median"], "unit": s["unit"]}
    if trace in (1, 2):
        layers, detail = measure_layers(name, workload, seed, checker, tag)
        for k, unit in LAYER_UNITS.items():
            if k in layers:
                metrics[k] = {"value": layers[k], "unit": unit}
        record["trace"] = detail
    record["machine"]["loadavg_after"] = os.getloadavg()
    record["attempted"] = checker.attempted
    record["failed"] = checker.failed
    record["fail_share"] = checker.failed / max(1, checker.attempted)
    record["problems"] = checker.problems
    record["metrics"] = metrics
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print_summary(record)
    return record


def print_summary(record: dict) -> None:
    err = sys.stderr
    mach = record["machine"]
    print(f"== {record['workload']} seed={record['seed']}  nproc={mach['nproc']} "
          f"cpu={mach['cpu_model']!r} python={mach['python']} numpy={mach['numpy']} "
          f"commit={mach['git_commit']} load {mach['loadavg_before'][0]:.2f}"
          f" -> {mach['loadavg_after'][0]:.2f}", file=err)
    for k, s in record.get("e2e", {}).items():
        stats = "  ".join(f"{key}={val:.4f}" for key, val in s.items()
                          if key not in ("n", "unit", "samples", "scales"))
        line = f"  {k:<34} [{s['unit']}] n={s['n']}  {stats}"
        if "scales" in s:
            line += (f"  (unscaled median {statistics.median(s['samples']):.4f},"
                     f" scales {min(s['scales']):.3f}-{max(s['scales']):.3f})")
        print(line, file=err)
    print(f"  {'fail_share':<34} [ratio] {record['fail_share']:.4f} "
          f"({record['failed']} of {record['attempted']} runs)", file=err)
    for k, v in record["metrics"].items():
        if k not in E2E_UNITS:
            print(f"  {k:<34} [{v['unit']}] {v['value']:.6g}", file=err)
    trace = record.get("trace", {})
    if trace.get("absent"):
        print(f"  absent: {', '.join(trace['absent'])}", file=err)
    if trace.get("not_run_by_scan"):
        print(f"  timed, but scan does not run them here: "
              f"{', '.join(trace['not_run_by_scan'])}", file=err)
    for problem in record["problems"]:
        print(f"  FAILED: {problem}", file=err)


def main(argv=None) -> int:
    names = list(WORKLOADS["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, default=WORKLOADS["default_seed"])
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1, 2], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cartier" / "__init__.py").is_file():
        print(f"error: no cartier package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    chosen = names if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in chosen}
    if len(chosen) == 1:
        metrics = results[chosen[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items()
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
