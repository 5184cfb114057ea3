"""Single-process traced run of one cartier CLI command, plus per-layer
timings of the modules it calls.

Usage: python3 perfbench/traced.py --report FILE --spans FILE --seed N
       -- <cartier CLI arguments>

The command runs in this process at whatever --threads the arguments give
(run.py passes --threads 1, so every shard runs here).  Spans are recorded
from this file only, by wrapping the calls into each layer at the module
boundaries the search path goes through: cli.main, search.run_search,
search._make_tasks, _kernel.scan, search._decode_witness and the report dump
(cli._json).  Spans stay in memory and go to --spans as JSONL once the run
ends.

Standard output carries two JSON lines.  The first is printed as soon as the
command returns, so the caller can time the traced run alone; the second
carries the per-layer metrics.  A boundary or primitive that no longer exists
or no longer takes today's arguments (the kernel may be rewritten) is left out
of the metrics instead of raising; run.py reports it as absent.  A kernel step
that scan does not run on this workload is still timed, so that every metric
is reported, and is listed under "not_run".
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

SAMPLE = 600  # kernel candidates timed per primitive
OBJECT_POLYS = 40  # polynomials timed through the object layer
FIELD_PAIRS = 4000  # element pairs timed per field operation
REPS = 3  # passes per timing; the median pass is kept


class Tracer:
    """In-memory spans: name, start, end, parent id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.names: list[str] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr, if it exists, by a version that records a span."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = {
                "id": sid,
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)
        self.names.append(name)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = dict.fromkeys(self.names, 0.0)
        for s in self.spans:
            own = s["end"] - s["start"] - child[s["id"]]
            out[s["name"]] += own
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _per_call(fn, items, reps=REPS) -> float:
    """Median over passes of the mean seconds per call of fn(item)."""
    passes = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        passes.append((time.perf_counter() - t0) / len(items))
    return statistics.median(passes)


def _makespan(durations: list[float], workers: int) -> float:
    """Finish time of shards dealt in order to the first free worker."""
    free_at = [0.0] * max(1, min(workers, len(durations)))
    for d in durations:
        i = free_at.index(min(free_at))
        free_at[i] += d
    return max(free_at)


def _sample_candidates(tasks: list[dict], rng: random.Random, n: int):
    """Seeded candidates of the workload's family, as encodings of f, built
    from the task descriptions through the object layer."""
    from cartier.fields import make_field
    from cartier.poly import Poly

    t0 = tasks[0]
    field = make_field(t0["p"], t0["k"], t0["modulus"])
    factor = Poly.from_ints(field, t0["factor"]) if t0["factor"] else None
    q = field.order
    free = list(t0["free"])
    cof_len = t0["degree"] + 1 - (len(t0["factor"]) - 1 if t0["factor"] else 0)
    out = []
    for _ in range(n):
        task = rng.choice(tasks)
        u = [0] * cof_len
        for idx, enc in task["fixed"]:
            u[idx] = enc
        if "draws" in task:
            base = rng.randrange(task["count"]) * len(free)
            for t, idx in enumerate(free):
                u[idx] = task["draws"][base + t]
        else:  # an exhaustive shard pins the top free coefficient
            u[free[-1]] = task["top"]
            for idx in free[:-1]:
                u[idx] = rng.randrange(q)
        f = Poly.from_ints(field, u)
        if factor is not None:
            f = factor * f
        out.append([c.encoding for c in f.coeffs])
    return field, out


def _measure(m: dict, name: str, body) -> None:
    """m[name] = body(), or no entry if the code it calls does not fit."""
    try:
        m[name] = body()
    except Exception:
        pass


def _kernel_metrics(tasks, field, cands, m) -> list[str]:
    """Kernel primitives on the candidate sample, through the primitive that
    performs each step today.  Returns the metrics of the steps that scan
    does not run on this workload."""
    from cartier import _kernel
    from cartier.fields import make_field

    p = field.p
    e = (p - 1) // 2
    try:
        t0 = tasks[0]
        g = (t0["degree"] - 1) // 2
        target_rank = g - t0["target_a"] if t0["target_a"] is not None else None
        # the conditions under which scan runs each step
        steps = {"squarefree"}
        if t0["prefilter"] and target_rank == 1 and e >= 2:
            steps.add("prefilter")
        if e > 1 and (target_rank is not None or t0["target_p_rank"] is not None):
            steps.add("half_power")
        if target_rank is not None:
            steps.add("rank")
        if t0["target_p_rank"] is not None:
            steps.add("p_rank")
        kern = _kernel.get_kernel(p, field.k, tuple(field.modulus))
    except Exception:
        return []  # the task format or the kernel's entry point changed

    def prefilter(f):
        r1, rg = _kernel.end_rows(kern, f, g)
        return _kernel.rows_could_be_rank_le_1(kern, r1, rg)

    def cartier_rows(f):
        kappa = kern.poly_pow(f, e) if e > 1 else list(f)
        return _kernel.matrix_rows(kappa, g, p)

    try:
        smooth = [f for f in cands if kern.is_squarefree(f)]
    except Exception:
        smooth = cands
    try:
        rows = [cartier_rows(f) for f in smooth]
    except Exception:
        rows = None
    timings = {
        "squarefree": [("kernel.squarefree_us",
                        lambda: _per_call(kern.is_squarefree, cands) * 1e6)],
        "prefilter": [("kernel.prefilter_us", lambda: _per_call(prefilter, cands) * 1e6),
                      ("kernel.prefilter_pass_ratio",
                       lambda: sum(map(prefilter, cands)) / len(cands))],
        "half_power": [("kernel.half_power_us",
                        lambda: _per_call(lambda f: kern.poly_pow(f, e), smooth) * 1e6)],
        "rank": [("kernel.rank_us",
                  lambda: _per_call(lambda r: kern.rank([x[:] for x in r]), rows) * 1e6)],
        "p_rank": [("kernel.p_rank_us",
                    lambda: _per_call(lambda r: kern.p_rank(r, g), rows) * 1e6)],
    }
    not_run = []
    for step, metrics in timings.items():
        for name, body in metrics:
            _measure(m, name, body)
            if step not in steps:
                not_run.append(name)

    def table_build():
        f49 = make_field(7, 2)
        cache = getattr(_kernel, "_KERNELS", None)
        builds = []
        for _ in range(REPS):
            if cache is not None:
                cache.clear()
            t0 = time.perf_counter()
            _kernel.get_kernel(7, 2, tuple(f49.modulus))
            builds.append(time.perf_counter() - t0)
        return statistics.median(builds) * 1e3

    _measure(m, "kernel.table_build_ms", table_build)
    return not_run


def _object_metrics(field, polys, m, seed):
    from cartier.fields import random_element
    from cartier.invariants import cartier_matrix, invariants, make_curve, p_rank, rank
    from cartier.poly import half_power, is_squarefree

    curves = [make_curve(f) for f in polys]
    matrices = [cartier_matrix(c) for c in curves]
    m["invariants.invariants_ms"] = _per_call(invariants, polys) * 1e3
    m["invariants.rank_us"] = _per_call(rank, matrices) * 1e6
    m["invariants.p_rank_us"] = _per_call(p_rank, curves) * 1e6
    m["poly.half_power_us"] = _per_call(half_power, polys) * 1e6
    m["poly.is_squarefree_us"] = _per_call(is_squarefree, polys) * 1e6

    rng = random.Random(seed)
    pairs = [(random_element(field, rng), random_element(field, rng))
             for _ in range(FIELD_PAIRS)]
    m["fields.mul_ns"] = _per_call(lambda ab: ab[0] * ab[1], pairs) * 1e9
    m["fields.add_ns"] = _per_call(lambda ab: ab[0] + ab[1], pairs) * 1e9
    m["fields.frobenius_ns"] = _per_call(lambda ab: ab[0].frobenius(1), pairs) * 1e9


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--report", required=True, type=Path)
    ap.add_argument("--spans", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    import cartier._kernel as kernel_mod
    import cartier.cli as cli_mod
    import cartier.search as search_mod

    tasks: list[dict] = []
    results: list[dict] = []
    reports: list = []
    tracer.wrap(search_mod, "_make_tasks", "search.make_tasks",
                tasks.extend)
    tracer.wrap(kernel_mod, "scan", "kernel.scan", results.append)
    tracer.wrap(search_mod, "_decode_witness", "search.decode_witness")
    tracer.wrap(cli_mod, "_json", "cli.report_dump")
    for owner in (search_mod, cli_mod):
        tracer.wrap(owner, "run_search", "search.run_search", reports.append)
    tracer.wrap(cli_mod, "main", "cli.main")

    with open(args.report, "w") as fh, contextlib.redirect_stdout(fh):
        code = cli_mod.main(cli_args)
    counts = None
    if len(reports) == 1:
        rep = reports[0]
        counts = {
            "enumerated": rep.counts.enumerated,
            "squarefree": rep.counts.squarefree,
            "matched": rep.matched,
            "witnesses": len(rep.witnesses),
            "shard_count": rep.shard_count,
        }
    print(json.dumps({"exit_code": code, "counts": counts}), flush=True)
    tracer.write(args.spans)

    m: dict[str, float] = {}
    scans = tracer.durations("kernel.scan")
    enumerated = sum(r["enumerated"] for r in results)
    if scans and enumerated:
        m["kernel.scan_us_per_cand"] = sum(scans) / enumerated * 1e6
        m["kernel.squarefree_ratio"] = sum(r["squarefree"] for r in results) / enumerated
        m["search.shard_count"] = len(scans)
        m["search.shard_imbalance"] = max(scans) / statistics.mean(scans)
        workers = len(os.sched_getaffinity(0))
        m["search.parallel_eff"] = sum(scans) / (workers * _makespan(scans, workers))
    if "search.make_tasks" in tracer.names:
        m["search.make_tasks_s"] = sum(tracer.durations("search.make_tasks"))
    if "search.decode_witness" in tracer.names:
        decodes = tracer.durations("search.decode_witness")
        m["search.decode_s"] = sum(decodes)
        m["search.witnesses"] = len(decodes)
        m["search.decode_ms_per_witness"] = sum(decodes) / max(1, len(decodes)) * 1e3
    if "cli.report_dump" in tracer.names:
        m["cli.report_json_ms"] = sum(tracer.durations("cli.report_dump")) * 1e3
    m["cli.report_bytes"] = args.report.stat().st_size
    for name, own in tracer.self_times().items():
        m[f"{name}_self_s"] = own

    try:
        field, cands = _sample_candidates(tasks, random.Random(args.seed), SAMPLE)
    except Exception:
        cands = None  # the task format changed: sample-based timings are absent
    not_run = []
    if cands:
        not_run = _kernel_metrics(tasks, field, cands, m)
        from cartier.poly import Poly, is_squarefree

        if reports and reports[0].witnesses:
            polys = [w.f for w in reports[0].witnesses[:OBJECT_POLYS]]
        else:
            polys = [p for p in (Poly.from_ints(field, f) for f in cands)
                     if is_squarefree(p)][:OBJECT_POLYS]
        _object_metrics(field, polys, m, args.seed)
    print(json.dumps({"metrics": m, "not_run": not_run}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
