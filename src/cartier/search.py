"""Curve-family searches: exhaustive and seeded-random enumeration with
invariant filters, witness collection, and the named verification suites.

Families are declarative: a cofactor polynomial with some coefficients fixed
and the rest varying over the field, optionally multiplied by a fixed factor
(how branch-point constraints like x(x-1) | f are expressed).  Reports carry
the final expanded coefficient vectors.

Determinism contract: identical specs (including seed) produce identical
reports for any thread count.  Exhaustive spaces shard on the value of the
highest-order free coefficient; random mode draws every sample's coefficients
from a single MT19937 stream up front (sample-major, ascending free index)
and shards on contiguous sample blocks, so the candidate sequence never
depends on worker scheduling.  Shard results merge in shard order: counts add,
witness lists concatenate and truncate.  ``elapsed_ms`` is the one
non-reproducible field and is excluded from serialized reports unless asked
for.
"""

from __future__ import annotations

import functools
import random
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping

from . import _kernel
from .fields import FieldElement, FieldSpec, _rand_below, make_field
from .invariants import Invariants, invariants, report_fragment
from .poly import Poly

__all__ = [
    "SCHEMA",
    "DEFAULT_SEED",
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "RevalidationError",
    "SearchSpec",
    "SearchCounts",
    "Witness",
    "SearchReport",
    "ConsistencyReport",
    "PRankWitnessReport",
    "FormCheckResult",
    "monic_odd_family",
    "run_search",
    "verify_theorem1",
    "verify_genus_p_minus_1",
    "forward_form_check",
    "reproduce_script",
    "find_p_rank_witnesses",
    "verify_p_rank_witnesses",
    "revalidate_report_dict",
]

SCHEMA = "cartier-report/1"
DEFAULT_SEED = 1
DEFAULT_BUDGET = 2**32
_RANDOM_SHARD_SAMPLES = 100_000


class BudgetExceededError(ValueError):
    """The candidate count (exhaustive space or random samples) exceeds the
    configured budget."""


class RevalidationError(RuntimeError):
    """The object layer disagrees with the kernel on a collected witness."""


@dataclass(frozen=True)
class SearchSpec:
    """Declarative description of one curve-family search.

    ``degree`` is the degree of the full defining polynomial f.  ``fixed``
    and ``free`` index the cofactor's coefficients (the whole of f when
    ``factor`` is None); together they must cover the cofactor exactly, and
    the leading cofactor coefficient must be fixed and nonzero so every
    candidate has exact degree 2g+1.
    """

    field: FieldSpec
    degree: int
    fixed: Mapping[int, FieldElement]
    free: tuple[int, ...]
    mode: str = "exhaustive"
    samples: int | None = None
    seed: int | None = None
    target_a: int | None = None
    target_p_rank: int | None = None
    require_smooth: bool = False
    collect_limit: int = 10
    prefilter: bool = True
    factor: Poly | None = None

    @property
    def genus(self) -> int:
        return (self.degree - 1) // 2

    @property
    def cofactor_degree(self) -> int:
        d = self.degree
        if self.factor is not None:
            if self.factor.is_zero:
                raise ValueError("fixed factor must be nonzero")
            d -= int(self.factor.degree)
        return d

    def exhaustive_size(self) -> int:
        return self.field.order ** len(self.free)


def _validate_spec(spec: SearchSpec) -> None:
    if spec.degree < 3 or spec.degree % 2 == 0:
        raise ValueError(f"search degree must be odd and >= 3, got {spec.degree}")
    cap = _kernel.TableKernel.MAX_ORDER
    if spec.field.order > cap:
        raise ValueError(
            f"searches need a field of order <= {cap}, got {spec.field.order} "
            "(single-curve invariants have no cap)"
        )
    if spec.factor is not None:
        if spec.factor.spec != spec.field:
            raise ValueError("fixed factor is over a different field")
    cof_deg = spec.cofactor_degree
    if cof_deg < 0:
        raise ValueError("fixed factor degree exceeds the search degree")
    indices = sorted(spec.fixed) + sorted(spec.free)
    if sorted(indices) != list(range(cof_deg + 1)):
        raise ValueError(
            "fixed and free indices must disjointly cover the cofactor "
            f"coefficients 0..{cof_deg}"
        )
    if tuple(spec.free) != tuple(sorted(spec.free)):
        raise ValueError("free indices must be listed in ascending order")
    for idx, el in spec.fixed.items():
        if el.spec != spec.field:
            raise ValueError(f"fixed coefficient c{idx} is from a different field")
    if cof_deg not in spec.fixed or spec.fixed[cof_deg].is_zero:
        raise ValueError(
            "the leading cofactor coefficient must be fixed and nonzero "
            "(candidates must have exact degree)"
        )
    if spec.mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown search mode {spec.mode!r}")
    if spec.mode == "random":
        if spec.samples is None or spec.samples < 0:
            raise ValueError("random mode requires a sample count >= 0")
        if spec.seed is None:
            raise ValueError("random mode requires a seed")
        if not spec.free:
            raise ValueError("random mode needs at least one free coefficient")
    else:
        if spec.samples is not None or spec.seed is not None:
            raise ValueError("samples/seed only apply to random mode")
    g = spec.genus
    if spec.target_a is not None and not 0 <= spec.target_a <= g:
        raise ValueError(f"target a-number must lie in [0, {g}]")
    if spec.target_p_rank is not None and not 0 <= spec.target_p_rank <= g:
        raise ValueError(f"target p-rank must lie in [0, {g}]")
    if spec.collect_limit < 0:
        raise ValueError("collect_limit must be >= 0")


@dataclass(frozen=True)
class SearchCounts:
    enumerated: int
    squarefree: int
    rank_matched: int
    a_matched: int
    p_rank_matched: int

    def to_dict(self) -> dict:
        return {
            "enumerated": self.enumerated,
            "squarefree": self.squarefree,
            "rank_matched": self.rank_matched,
            "a_matched": self.a_matched,
            "p_rank_matched": self.p_rank_matched,
        }


@dataclass(frozen=True)
class Witness:
    f: Poly
    invariants: Invariants

    def fragment(self) -> dict:
        return report_fragment(self.f, self.invariants)


@dataclass(frozen=True)
class SearchReport:
    spec: SearchSpec
    counts: SearchCounts
    witnesses: tuple[Witness, ...]
    seed: int | None
    shard_count: int
    elapsed_ms: int

    @property
    def matched(self) -> int:
        """The count after the last active filter (the scripts' N)."""
        return self.counts.p_rank_matched

    def to_dict(self, include_timing: bool = False) -> dict:
        doc = {
            "schema": SCHEMA,
            "spec": _spec_to_dict(self.spec),
            "counts": self.counts.to_dict(),
            "matched": self.matched,
            "witnesses": [w.fragment() for w in self.witnesses],
            "seed": self.seed,
            "shard_count": self.shard_count,
        }
        if include_timing:
            doc["elapsed_ms"] = self.elapsed_ms
        return doc

    def csv_rows(self) -> list[list[str]]:
        """Witness rows: p,k,genus,coeffs(semicolon-joined),a_number,p_rank,smooth."""
        rows = [["p", "k", "genus", "coeffs", "a_number", "p_rank", "smooth"]]
        for w in self.witnesses:
            inv = w.invariants
            rows.append(
                [
                    str(self.spec.field.p),
                    str(self.spec.field.k),
                    str(inv.genus),
                    ";".join(str(c) for c in w.f.coeffs),
                    str(inv.a_number),
                    str(inv.p_rank),
                    str(inv.smooth).lower(),
                ]
            )
        return rows


def _spec_to_dict(spec: SearchSpec) -> dict:
    return {
        "p": spec.field.p,
        "k": spec.field.k,
        "modulus": list(spec.field.modulus),
        "degree": spec.degree,
        "factor": spec.factor.text() if spec.factor is not None else None,
        "fixed": {str(i): str(spec.fixed[i]) for i in sorted(spec.fixed)},
        "free": list(spec.free),
        "mode": spec.mode,
        "samples": spec.samples,
        "seed": spec.seed,
        "target_a": spec.target_a,
        "target_p_rank": spec.target_p_rank,
        "require_smooth": spec.require_smooth,
        "collect_limit": spec.collect_limit,
        "prefilter": spec.prefilter,
    }


def _base_task(spec: SearchSpec) -> dict:
    return {
        "p": spec.field.p,
        "k": spec.field.k,
        "modulus": list(spec.field.modulus),
        "degree": spec.degree,
        "factor": (
            [c.encoding for c in spec.factor.coeffs] if spec.factor is not None else None
        ),
        "fixed": sorted((i, el.encoding) for i, el in spec.fixed.items()),
        "free": list(spec.free),
        "mode": spec.mode,
        "require_smooth": spec.require_smooth,
        "target_a": spec.target_a,
        "target_p_rank": spec.target_p_rank,
        "prefilter": spec.prefilter,
        "collect_limit": spec.collect_limit,
    }


def _make_tasks(spec: SearchSpec, budget: int) -> list[dict]:
    base = _base_task(spec)
    q = spec.field.order
    if spec.mode == "exhaustive":
        size = spec.exhaustive_size()
        if size > budget:
            raise BudgetExceededError(
                f"exhaustive space of {size} candidates exceeds budget {budget}"
            )
        if not spec.free:
            return [dict(base, top=None)]
        return [dict(base, top=v) for v in range(q)]
    if spec.samples > budget:
        raise BudgetExceededError(
            f"{spec.samples} random samples exceed budget {budget}"
        )
    # random: one shared stream, sample-major, ascending free index
    rng = random.Random(spec.seed)
    nf = len(spec.free)
    typecode = "B" if q <= 256 else "I"
    draws = array(typecode)
    for _ in range(spec.samples * nf):
        draws.append(_rand_below(rng, q))
    tasks = []
    for start in range(0, spec.samples, _RANDOM_SHARD_SAMPLES):
        count = min(_RANDOM_SHARD_SAMPLES, spec.samples - start)
        block = draws[start * nf : (start + count) * nf]
        tasks.append(dict(base, draws=block, count=count))
    return tasks


def _merge(spec: SearchSpec, results: list[dict]) -> tuple[SearchCounts, list[list[int]]]:
    enumerated = squarefree = rank_matched = p_rank_matched = 0
    wits: list[list[int]] = []
    for res in results:
        enumerated += res["enumerated"]
        squarefree += res["squarefree"]
        rank_matched += res["rank_matched"]
        p_rank_matched += res["p_rank_matched"]
        if len(wits) < spec.collect_limit:
            wits.extend(res["witnesses"][: spec.collect_limit - len(wits)])
    counts = SearchCounts(
        enumerated=enumerated,
        squarefree=squarefree,
        rank_matched=rank_matched,
        a_matched=rank_matched,
        p_rank_matched=p_rank_matched,
    )
    return counts, wits


def _decode_witness(spec: SearchSpec, encodings: list[int]) -> Witness:
    f = Poly.from_ints(spec.field, encodings)
    inv = invariants(f)
    if spec.require_smooth and not inv.smooth:
        raise RevalidationError(f"witness re-validation failed (not smooth): {f}")
    if spec.target_a is not None and inv.a_number != spec.target_a:
        raise RevalidationError(
            f"witness re-validation failed (a={inv.a_number}, wanted {spec.target_a}): {f}"
        )
    if spec.target_p_rank is not None and inv.p_rank != spec.target_p_rank:
        raise RevalidationError(
            f"witness re-validation failed (p-rank={inv.p_rank}, "
            f"wanted {spec.target_p_rank}): {f}"
        )
    return Witness(f=f, invariants=inv)


def run_search(
    spec: SearchSpec, *, threads: int = 1, budget: int = DEFAULT_BUDGET
) -> SearchReport:
    """Enumerate or sample the family, filter, count, and collect witnesses.

    Every reported witness is re-validated through the object layer before
    it enters the report, which doubles as a kernel/reference cross-check on
    each match.  With a worker pool the merged, truncated witness list is
    re-validated on the same pool, in witness order.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _validate_spec(spec)
    t0 = time.perf_counter()
    tasks = _make_tasks(spec, budget)
    if threads <= 1 or len(tasks) <= 1:
        results = [_kernel.scan(t) for t in tasks]
        counts, wit_encs = _merge(spec, results)
        witnesses = tuple(_decode_witness(spec, enc) for enc in wit_encs)
    else:
        workers = min(threads, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_kernel.scan, tasks))
            counts, wit_encs = _merge(spec, results)
            # about four chunks per worker: few round trips, balanced tails
            chunk = max(1, len(wit_encs) // (4 * workers))
            decode = functools.partial(_decode_witness, spec)
            witnesses = tuple(pool.map(decode, wit_encs, chunksize=chunk))
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    return SearchReport(
        spec=spec,
        counts=counts,
        witnesses=witnesses,
        seed=spec.seed,
        shard_count=len(tasks),
        elapsed_ms=elapsed_ms,
    )


# ---------------------------------------------------------------------------
# named families and verification suites


def monic_odd_family(
    field: FieldSpec,
    genus: int,
    *,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
    target_a: int | None = None,
    target_p_rank: int | None = None,
    require_smooth: bool = True,
    collect_limit: int = 10,
    prefilter: bool = True,
) -> SearchSpec:
    """The normalized family f = c_1 x + ... + c_2g x^2g + x^(2g+1)."""
    degree = 2 * genus + 1
    return SearchSpec(
        field=field,
        degree=degree,
        fixed={0: field.zero, degree: field.one},
        free=tuple(range(1, degree)),
        mode=mode,
        samples=samples,
        seed=seed,
        target_a=target_a,
        target_p_rank=target_p_rank,
        require_smooth=require_smooth,
        collect_limit=collect_limit,
        prefilter=prefilter,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    claim: str
    parameters: dict
    expected: dict
    observed: dict
    passed: bool
    failures: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "claim": self.claim,
            "parameters": self.parameters,
            "expected": self.expected,
            "observed": self.observed,
            "pass": self.passed,
            "failures": list(self.failures),
        }


def verify_theorem1(
    p: int,
    k: int,
    genus: int,
    *,
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> ConsistencyReport:
    """Exhaustively confirm that no smooth curve of genus >= p in the monic
    normalized family has a-number genus-1 over F_{p^k}."""
    if genus < p:
        raise ValueError(
            f"the genus >= p consistency check needs genus >= {p}, got {genus}"
        )
    field = make_field(p, k)
    spec = monic_odd_family(field, genus, target_a=genus - 1, require_smooth=True)
    report = run_search(spec, threads=threads, budget=budget)
    return ConsistencyReport(
        claim="theorem1",
        parameters={"p": p, "k": k, "genus": genus},
        expected={"matched": 0},
        observed={"matched": report.matched, "enumerated": report.counts.enumerated},
        passed=report.matched == 0,
        failures=tuple(w.fragment() for w in report.witnesses),
    )


def _genus_p_minus_1_form(
    field: FieldSpec, c_high: FieldElement, c_low: FieldElement
) -> Poly:
    """x * (x + ((p-1)/2) * c_high)^(p-2) * (x + c_low^(1/p))^p for g = p-1.

    Instantiates the stated rank-one forms: p=5 gives x(x+2c8)^3(x+c4^(1/5))^5,
    p=7 gives x(x+3c12)^5(x+c6^(1/7))^7, p=11 gives x(x+5c20)^9(x+c10^(1/11))^11.
    """
    p = field.p
    half = field.element((p - 1) // 2)
    x = Poly.monomial(field, 1)
    lin_high = Poly(field, (half * c_high, field.one))
    lin_low = Poly(field, (c_low.pth_root(), field.one))
    return x * lin_high ** (p - 2) * lin_low**p


@dataclass(frozen=True)
class FormCheckResult:
    f: Poly
    invariants: Invariants

    def to_dict(self) -> dict:
        return {"schema": SCHEMA, **report_fragment(self.f, self.invariants)}


def forward_form_check(
    p: int, c_high: FieldElement, c_low: FieldElement
) -> FormCheckResult:
    """Build the stated g = p-1 factored form for p in {5, 7, 11} and report
    its invariants.  Rank is reported, never asserted: the forms are claimed
    necessary for rank one, not sufficient."""
    if p not in (5, 7, 11):
        raise ValueError(f"factored form is stated for p in {{5, 7, 11}}, got {p}")
    field = c_high.spec
    if field != c_low.spec:
        raise ValueError("form parameters must come from the same field")
    if field.p != p:
        raise ValueError(f"form parameters must lie in characteristic {p}")
    f = _genus_p_minus_1_form(field, c_high, c_low)
    return FormCheckResult(f=f, invariants=invariants(f))


def verify_genus_p_minus_1(
    p: int = 5, *, threads: int = 1, budget: int = DEFAULT_BUDGET
) -> ConsistencyReport:
    """Exhaustive check at p=5, g=4 over all 390,625 monic f with c0=0.

    Confirms (i) no smooth rank-one curve exists, and (ii) every rank-one
    instance in the claim's domain -- models not already singular at x = 0,
    i.e. c1 != 0 -- equals the reconstructed x(x+2*c8)^3(x+r)^5 with r^5 = c4,
    reading c8 and c4 off the instance.  Rank-one instances with c1 = 0 fall
    outside that hypothesis (the derivation of the form assumes the model is
    smooth at the origin); they do exist, are reported, and are checked to be
    non-squarefree, so the headline conclusion (i) holds unconditionally.
    """
    if p != 5:
        raise ValueError(
            "exhaustive form verification is feasible only for p=5 "
            "(p=7 and p=11 are forward checks, see forward_form_check)"
        )
    field = make_field(5, 1)
    genus = 4
    spec = monic_odd_family(
        field,
        genus,
        target_a=genus - 1,
        require_smooth=False,
        collect_limit=100_000,
    )
    report = run_search(spec, threads=threads, budget=budget)
    if len(report.witnesses) != report.matched:
        raise RuntimeError("rank-one instance collection overflowed its limit")
    smooth_rank1 = [w for w in report.witnesses if w.invariants.smooth]
    mismatches = []
    out_of_domain_smooth = []
    n_in_domain = 0
    n_out_domain = 0
    for w in report.witnesses:
        if w.f.coefficient(1).is_zero:
            n_out_domain += 1
            if w.invariants.smooth:
                out_of_domain_smooth.append(w.fragment())
            continue
        n_in_domain += 1
        c8 = w.f.coefficient(8)
        c4 = w.f.coefficient(4)
        expected_f = _genus_p_minus_1_form(field, c8, c4)
        if expected_f != w.f:
            mismatches.append(w.fragment())
    observed = {
        "enumerated": report.counts.enumerated,
        "rank1_total": report.matched,
        "smooth_rank1": len(smooth_rank1),
        "rank1_c1_nonzero": n_in_domain,
        "rank1_c1_zero": n_out_domain,
        "form_mismatches": len(mismatches),
    }
    failures = tuple(w.fragment() for w in smooth_rank1) + tuple(mismatches)
    return ConsistencyReport(
        claim="prop-p5",
        parameters={"p": 5, "k": 1, "genus": 4},
        expected={"smooth_rank1": 0, "form_mismatches": 0},
        observed=observed,
        passed=not smooth_rank1 and not mismatches and not out_of_domain_smooth,
        failures=failures,
    )


def reproduce_script(
    which: int,
    *,
    seed: int = DEFAULT_SEED,
    samples: int = 1_000_000,
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """The two published search runs, rebuilt family-for-family.

    Script 1: exhaustive genus-4 search over F_7, f = c1 x + ... + c8 x^8 + x^9,
    smooth curves with a = 3; expected 0 matches over 7^8 candidates.

    Script 2: seeded random genus-4 search over F_49 with branch points fixed
    at 0, 1 and infinity: f = x(x-1)h with h monic of degree 7, h's seven low
    coefficients drawn per sample; smooth curves with a = 3; 0 matches
    expected for the shipped default seed.
    """
    if which == 1:
        field = make_field(7, 1)
        spec = monic_odd_family(field, 4, target_a=3, require_smooth=True)
        return run_search(spec, threads=threads, budget=budget)
    if which == 2:
        field = make_field(7, 2)
        minus_one = -field.one
        factor = Poly(field, (field.zero, minus_one, field.one))  # x^2 - x = x(x-1)
        spec = SearchSpec(
            field=field,
            degree=9,
            fixed={7: field.one},
            free=tuple(range(7)),
            mode="random",
            samples=samples,
            seed=seed,
            target_a=3,
            require_smooth=True,
            factor=factor,
        )
        return run_search(spec, threads=threads, budget=budget)
    raise ValueError(f"script must be 1 or 2, got {which}")


@dataclass(frozen=True)
class PRankWitnessReport:
    """Counts of smooth a = g-1 curves split by p-rank 0 vs 1, with witnesses."""

    p: int
    genus: int
    rank0: SearchReport
    rank1: SearchReport

    @property
    def count_p_rank_0(self) -> int:
        return self.rank0.matched

    @property
    def count_p_rank_1(self) -> int:
        return self.rank1.matched

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "schema": SCHEMA,
            "p": self.p,
            "genus": self.genus,
            "count_p_rank_0": self.count_p_rank_0,
            "count_p_rank_1": self.count_p_rank_1,
            "rank0": self.rank0.to_dict(include_timing),
            "rank1": self.rank1.to_dict(include_timing),
        }


def find_p_rank_witnesses(
    p: int, *, genus: int = 3, threads: int = 1, budget: int = DEFAULT_BUDGET
) -> PRankWitnessReport:
    """Exhaust the monic normalized family and split the smooth a = genus-1
    curves by p-rank 0 vs 1 (a <= g - f forces the p-rank into {0, 1})."""
    field = make_field(p, 1)
    reports = []
    for target_pr in (0, 1):
        spec = monic_odd_family(
            field,
            genus,
            target_a=genus - 1,
            target_p_rank=target_pr,
            require_smooth=True,
        )
        reports.append(run_search(spec, threads=threads, budget=budget))
    return PRankWitnessReport(p=p, genus=genus, rank0=reports[0], rank1=reports[1])


def verify_p_rank_witnesses(
    p: int, *, threads: int = 1, budget: int = DEFAULT_BUDGET
) -> ConsistencyReport:
    """Both p-ranks 0 and 1 occur among smooth genus-3 curves with a = 2;
    at p = 7 the p-rank-1 curves also outnumber the p-rank-0 ones."""
    split = find_p_rank_witnesses(p, threads=threads, budget=budget)
    expected = {"count_p_rank_0": ">= 1", "count_p_rank_1": ">= 1"}
    passed = split.count_p_rank_0 >= 1 and split.count_p_rank_1 >= 1
    if p == 7:
        expected["ordering"] = "count_p_rank_1 > count_p_rank_0"
        passed = passed and split.count_p_rank_1 > split.count_p_rank_0
    return ConsistencyReport(
        claim="p-rank-witnesses",
        parameters={"p": p, "k": 1, "genus": split.genus},
        expected=expected,
        observed={
            "count_p_rank_0": split.count_p_rank_0,
            "count_p_rank_1": split.count_p_rank_1,
            "witnesses_p_rank_0": [w.fragment() for w in split.rank0.witnesses],
            "witnesses_p_rank_1": [w.fragment() for w in split.rank1.witnesses],
        },
        passed=passed,
    )


def revalidate_report_dict(doc: dict) -> list[str]:
    """Re-validate a serialized report's witnesses against the object layer.

    Returns a list of human-readable mismatch descriptions (empty = clean).
    """
    from .poly import parse_poly

    spec = doc.get("spec", {})
    field = make_field(spec["p"], spec["k"], spec.get("modulus"))
    problems = []
    for i, frag in enumerate(doc.get("witnesses", [])):
        f = parse_poly(field, ",".join(frag["coeffs"]))
        fresh = report_fragment(f)
        for key in ("genus", "smooth", "rank_A", "a_number", "p_rank"):
            if fresh[key] != frag[key]:
                problems.append(
                    f"witness {i}: {key} recomputes to {fresh[key]}, stored {frag[key]}"
                )
    return problems
