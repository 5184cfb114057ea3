"""Curve-family searches: exhaustive and seeded-random enumeration with
invariant filters and witness collection.

Families are declarative: a cofactor polynomial with some coefficients fixed
and the rest varying over the field, optionally multiplied by a fixed factor
(how branch-point constraints like x(x-1) | f are expressed).  Reports carry
the final expanded coefficient vectors.

Determinism contract: identical specs (including seed) produce identical
reports for any thread count.  Exhaustive spaces shard on the value of the
highest-order free coefficient.  Random mode draws every sample's
coefficients from one MT19937 stream up front (sample-major, ascending free
index) and cuts it into fixed pieces of ``_PIECE`` samples.  One plan per
search, ``_plan``, decides what runs: whether the squarefree count comes
from a sieve (see ``_kernel``), as it does for large exhaustive searches
with the prefilter on that have a rank target or do not require
smoothness, and whether a rank-one search's end-row test runs as one join
in the parent or candidate by candidate in scan.  The join comes only with
the sieve, and its survivors are cut into pieces in enumeration order.
The kernel decides how a task runs.  Every plan gives the per-candidate
path's report.  A pool gets one worker per
``_WORKER_CANDIDATES`` candidates checked, up to the thread count and the
task count, so a smaller search runs in this process at any thread count.
The pool (``_pool.ForkPool``) is forked once per search, after the tasks
are made, and serves both the scan and the witness re-validation: each
worker inherits the task list, so a scan request is a task's index and
only witness chunks and replies are pickled.  It hands the next request to
whichever worker answered and yields replies in request order; a
re-validation reply carries each witness's ``Invariants`` only, and the
parent builds its polynomial from the encodings it holds.  Where
``os.fork`` does not exist the search runs in this process.  Task results
merge in task order: counts add, witness lists concatenate and
truncate.  ``enumerated`` is the spec's, and ``shard_count`` never counts
pieces.  ``elapsed_ms`` is the one non-reproducible field and is never
serialized.
"""

from __future__ import annotations

import os
import random
import sys
import time
from array import array
from itertools import chain, islice
from typing import Iterable, Mapping, NamedTuple

from . import _kernel
from .fields import FieldElement, FieldSpec, _draws_below, make_field
from .invariants import Invariants, invariants, report_fragment
from .poly import Poly, parse_poly

__all__ = [
    "SCHEMA",
    "DEFAULT_SEED",
    "DEFAULT_SAMPLES",
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "RevalidationError",
    "WorkerDiedError",
    "SearchSpec",
    "SearchCounts",
    "Witness",
    "SearchReport",
    "run_search",
    "revalidate_report_dict",
]

SCHEMA = "cartier-report/1"
DEFAULT_SEED = 1
DEFAULT_SAMPLES = 1_000_000
DEFAULT_BUDGET = 2**32
# a random report's shard_count is the number of blocks of this many samples
_RANDOM_SHARD_SAMPLES = 100_000
# the assignments in one piece of random draws or of rank-one survivors: a
# divisor of _RANDOM_SHARD_SAMPLES, small enough that a few pieces per worker
# balance even a 2 x 10^4-sample search
_PIECE = 2_500
# the candidates that repay a pool: on a 2-core Xeon host the fork pool's
# import, start and teardown cost about 20 ms.  Script 2's 20 000 samples,
# about 36 ms of scan when the column pass took 1.8 us a candidate, took
# 44-46 ms in-process at two workers against 38-40 ms at one: half the scan
# saved, 6 ms more spent.  The per-candidate path of shards and survivor
# pieces costs 15-30 us a candidate (kernel.scan_us_per_cand of
# perfbench/run.py --trace 1 on witness-heavy), so a second worker, saving
# half the scan, repays 20 ms from 2 x 20 ms / (15-30 us), about 1 300-2 700
# candidates; a sieve-counted task costs less a candidate, so it breaks even
# later, not sooner, and a random piece the column pass takes, at 0.9-1.0 us
# a candidate since its gate shifts Euclid's divisors, only past about
# 40 000.
# A search of at most this many runs in this process: below that
# break-even, so moving the value up waits for benchmark pairs of its own
_WORKER_CANDIDATES = 1_000


class BudgetExceededError(ValueError):
    """The candidate count (exhaustive space or random samples) exceeds the
    configured budget."""


class RevalidationError(RuntimeError):
    """The object layer disagrees with the kernel on a collected witness."""


class WorkerDiedError(RuntimeError):
    """A pool worker ended before it answered its request."""


class SearchSpec(NamedTuple):
    """Declarative description of one curve-family search.

    ``degree`` is the degree of the full defining polynomial f.  ``fixed``
    maps indices of the cofactor's coefficients (the whole of f when
    ``factor`` is None) to their values; every index must lie in the
    cofactor, and the leading cofactor coefficient must be fixed and nonzero
    so every candidate has exact degree 2g+1.  Every other coefficient is
    ``free``.

    A spec with ``samples`` is a random search of that many draws from
    ``seed``; without it the search is exhaustive and takes no seed.
    """

    field: FieldSpec
    degree: int
    fixed: Mapping[int, FieldElement]
    samples: int | None = None
    seed: int | None = None
    target_a: int | None = None
    target_p_rank: int | None = None
    require_smooth: bool = False
    collect_limit: int = 10
    prefilter: bool = True
    factor: Poly | None = None

    @property
    def mode(self) -> str:
        return "exhaustive" if self.samples is None else "random"

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

    @property
    def free(self) -> tuple[int, ...]:
        """The cofactor indices not fixed, ascending."""
        return tuple(i for i in range(self.cofactor_degree + 1) if i not in self.fixed)

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
    for idx, el in spec.fixed.items():
        if not 0 <= idx <= cof_deg:
            raise ValueError(
                f"fixed coefficient c{idx} lies outside the cofactor "
                f"coefficients 0..{cof_deg}"
            )
        if el.spec != spec.field:
            raise ValueError(f"fixed coefficient c{idx} is from a different field")
    if cof_deg not in spec.fixed or spec.fixed[cof_deg].is_zero:
        raise ValueError(
            "the leading cofactor coefficient must be fixed and nonzero "
            "(candidates must have exact degree)"
        )
    if spec.mode == "random":
        if spec.samples < 0:
            raise ValueError("random mode requires a sample count >= 0")
        if spec.seed is None:
            raise ValueError("random mode requires a seed")
        # random.seed(n) uses |n|: a negative seed would repeat another's draws
        if spec.seed < 0:
            raise ValueError("the seed must be an integer >= 0")
        if not spec.free:
            raise ValueError("random mode needs at least one free coefficient")
    elif spec.seed is not None:
        raise ValueError("a seed only applies to random mode (give samples)")
    g = spec.genus
    if spec.target_a is not None and not 0 <= spec.target_a <= g:
        raise ValueError(f"target a-number must lie in [0, {g}]")
    if spec.target_p_rank is not None and not 0 <= spec.target_p_rank <= g:
        raise ValueError(f"target p-rank must lie in [0, {g}]")
    if spec.collect_limit < 0:
        raise ValueError("collect_limit must be >= 0")


class SearchCounts(NamedTuple):
    enumerated: int
    squarefree: int
    rank_matched: int
    p_rank_matched: int

    @property
    def a_matched(self) -> int:
        """Rank and a-number are one filter: a = g - rank(A)."""
        return self.rank_matched

    def to_dict(self) -> dict:
        return {
            "enumerated": self.enumerated,
            "squarefree": self.squarefree,
            "rank_matched": self.rank_matched,
            "a_matched": self.a_matched,
            "p_rank_matched": self.p_rank_matched,
        }


class Witness(NamedTuple):
    f: Poly
    invariants: Invariants

    def fragment(self) -> dict:
        return report_fragment(self.f, self.invariants)


class SearchReport(NamedTuple):
    """One search's result.  ``seed`` and ``shard_count`` are the spec's:
    the shard count is structural, the number of top-coefficient shards of
    an exhaustive search (q, or 1 with no free coefficient), or of started
    ``_RANDOM_SHARD_SAMPLES``-sample blocks of a random one, whatever the
    thread count and however the work was dispatched."""

    spec: SearchSpec
    counts: SearchCounts
    witnesses: tuple[Witness, ...]
    elapsed_ms: int

    @property
    def seed(self) -> int | None:
        return self.spec.seed

    @property
    def shard_count(self) -> int:
        spec = self.spec
        if spec.mode == "random":
            return -(-spec.samples // _RANDOM_SHARD_SAMPLES)
        return spec.field.order if spec.free else 1

    @property
    def matched(self) -> int:
        """The count after the last active filter (the scripts' N)."""
        return self.counts.p_rank_matched

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "spec": _spec_to_dict(self.spec),
            "counts": self.counts.to_dict(),
            "matched": self.matched,
            "witnesses": [w.fragment() for w in self.witnesses],
            "seed": self.seed,
            "shard_count": self.shard_count,
        }

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


def _affine_form(spec: SearchSpec) -> tuple[list[int], list[list[int]]]:
    """f0 and the b_i = factor * x^i (i in spec.free) of the family
    f = f0 + sum c_i b_i, as encodings of length degree + 1."""
    field = spec.field
    factor = spec.factor if spec.factor is not None else Poly.one(field)
    cofactor = [
        spec.fixed.get(i, field.zero) for i in range(spec.cofactor_degree + 1)
    ]

    def encodings(poly: Poly) -> list[int]:
        encs = [c.encoding for c in poly.coeffs]
        return encs + [0] * (spec.degree + 1 - len(encs))

    f0 = encodings(factor * Poly(field, cofactor))
    return f0, [encodings(factor * Poly.monomial(field, i)) for i in spec.free]


def _plan(spec: SearchSpec) -> tuple[bool, str | None]:
    """What the search runs, (sieve, end_rows).  ``sieve``: the squarefree
    count comes from ``_kernel.squarefree_count``, not candidate by
    candidate, for an exhaustive search with the prefilter on whose family
    outnumbers the monic h the sieve may visit, and which has a rank target
    or does not require smoothness.  Its tasks then test a cofactor only
    under ``require_smooth``, after the end-row and rank tests; with
    smoothness required and no rank target the test stays the first, cheap
    gate.  ``end_rows``: where a rank-one (a = g-1) search with the
    prefilter on runs the end-row test.  "join" only with the sieve, since
    survivor pieces never see the members the join dropped; "scan" for
    ``_kernel.rows_could_be_rank_le_1`` on each candidate's ``end_rows``
    otherwise, at p >= 5 (at p = 3 the half power is f itself); None
    elsewhere.  At genus 1 the matrix is 1 x 1 and rows 1 and g are one
    row, so neither runs."""
    q = spec.field.order
    sieve = (
        spec.prefilter
        and spec.mode == "exhaustive"
        and (spec.target_a is not None or not spec.require_smooth)
        and q ** len(spec.free) > sum(q**d for d in range(spec.degree // 2 + 1))
    )
    if not spec.prefilter or spec.target_a != spec.genus - 1 or spec.genus < 2:
        return sieve, None
    if sieve:
        return True, "join"
    return False, "scan" if spec.field.p >= 5 else None


def _make_tasks(spec: SearchSpec, budget: int) -> list[dict]:
    """Top-coefficient shards or pieces of ``draws``, each the spec's echo
    with the factor and fixed values as encodings, whether scan runs the
    end-row test (``prefilter``), whether it counts squarefree candidates
    (``count_squarefree``) and the candidates it checks (``count``)."""
    sieve, end_rows = _plan(spec)
    base = dict(
        _spec_to_dict(spec),
        factor=(
            [c.encoding for c in spec.factor.coeffs] if spec.factor is not None else None
        ),
        fixed=sorted((i, el.encoding) for i, el in spec.fixed.items()),
        prefilter=end_rows == "scan",
        count_squarefree=not sieve,
    )
    q = spec.field.order
    nf = len(spec.free)
    typecode = "B" if q <= 256 else "H"  # a value in one byte, or two
    if spec.mode == "exhaustive":
        size = spec.exhaustive_size()
        if size > budget:
            raise BudgetExceededError(
                f"exhaustive space of {size} candidates exceeds budget {budget}"
            )
        if end_rows != "join":
            tops = range(q) if spec.free else [None]
            return [dict(base, top=v, count=size // len(tops)) for v in tops]
        # the join's survivors in enumeration order, each the little-endian
        # bytes of its values; a piece joins _PIECE of them
        kern = _kernel.get_kernel(spec.field.p, spec.field.k, spec.field.modulus)
        rows = _kernel.rank_one_survivors(
            kern, *_affine_form(spec), spec.free, spec.require_smooth
        )
        pieces = []
        while chunk := b"".join(islice(rows, _PIECE)):
            pieces.append(array(typecode, chunk))
            if sys.byteorder == "big":
                pieces[-1].byteswap()
    else:
        if spec.samples > budget:
            raise BudgetExceededError(
                f"{spec.samples} random samples exceed budget {budget}"
            )
        # one shared stream, sample-major, ascending free index, each piece
        # filled in turn
        starts = range(0, spec.samples, _PIECE)
        sizes = [min(_PIECE, spec.samples - s) * nf for s in starts]
        pieces = list(_draws_below(random.Random(spec.seed), q, sizes))
    return [dict(base, draws=d, count=len(d) // nf) for d in pieces]


def _worker_count(tasks: list[dict], threads: int) -> int:
    """The pool size for ``tasks``: at most ``threads``, one per task and one
    per ``_WORKER_CANDIDATES`` candidates the tasks check."""
    checked = sum(t["count"] for t in tasks)
    return min(threads, len(tasks), -(-checked // _WORKER_CANDIDATES))


def _merge(
    spec: SearchSpec, results: Iterable[dict]
) -> tuple[SearchCounts, list[list[int]]]:
    # the sieve runs before results is drawn, so it overlaps a pool's scan
    sieved = None
    if _plan(spec)[0]:
        kern = _kernel.get_kernel(spec.field.p, spec.field.k, spec.field.modulus)
        sieved = _kernel.squarefree_count(kern, *_affine_form(spec))
    squarefree = rank_matched = p_rank_matched = 0
    wits: list[list[int]] = []
    for res in results:
        squarefree += res["squarefree"]
        rank_matched += res["rank_matched"]
        p_rank_matched += res["p_rank_matched"]
        if len(wits) < spec.collect_limit:
            wits.extend(res["witnesses"][: spec.collect_limit - len(wits)])
    counts = SearchCounts(
        enumerated=spec.samples if spec.mode == "random" else spec.exhaustive_size(),
        squarefree=squarefree if sieved is None else sieved,
        rank_matched=rank_matched,
        p_rank_matched=p_rank_matched,
    )
    return counts, wits


def _filter_failure(
    inv: Invariants,
    require_smooth: bool,
    target_a: int | None,
    target_p_rank: int | None,
) -> str | None:
    """Why ``inv`` fails the search filters, or None when it passes them."""
    if require_smooth and not inv.smooth:
        return "not smooth"
    if target_a is not None and inv.a_number != target_a:
        return f"a={inv.a_number}, wanted {target_a}"
    if target_p_rank is not None and inv.p_rank != target_p_rank:
        return f"p-rank={inv.p_rank}, wanted {target_p_rank}"
    return None


def _witness_poly(spec: SearchSpec, encodings: list[int]) -> Poly:
    # taken as given: no encoding is wrapped and no leading zero is dropped
    field = spec.field
    if not all(0 <= e < field.order for e in encodings):
        raise RevalidationError(
            f"witness re-validation failed (encoding outside [0, {field.order})): "
            f"{list(encodings)}"
        )
    f = Poly(field, [field.from_encoding(e) for e in encodings])
    if f.degree != spec.degree:
        raise RevalidationError(
            f"witness re-validation failed (degree {f.degree}, wanted "
            f"{spec.degree}): {list(encodings)}"
        )
    return f


def _decode_witness(spec: SearchSpec, encodings: list[int]) -> Witness:
    f = _witness_poly(spec, encodings)
    inv = invariants(f)
    failure = _filter_failure(
        inv, spec.require_smooth, spec.target_a, spec.target_p_rank
    )
    if failure:
        raise RevalidationError(f"witness re-validation failed ({failure}): {f}")
    return Witness(f=f, invariants=inv)


def run_search(
    spec: SearchSpec, *, threads: int = 1, budget: int = DEFAULT_BUDGET
) -> SearchReport:
    """Enumerate or sample the family, filter, count, and collect witnesses.

    Every reported witness is re-validated through the object layer before
    it enters the report, which doubles as a kernel/reference cross-check on
    each match.  With a worker pool the merged, truncated witness list is
    re-validated on the same pool, in witness order.

    The pool gets at most ``threads`` workers, one per task (shard or
    piece) and one per ``_WORKER_CANDIDATES`` candidates the tasks check, so
    that each worker repays its start-up.  It is forked, and its module
    imported, only when that comes to two or more workers and ``os.fork``
    exists; every other search runs in this process, as at ``threads`` = 1.
    Every worker is reaped before this returns or raises: an exception
    raised on a worker is raised here with its type, and a worker that ends
    without answering raises ``WorkerDiedError``.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    _validate_spec(spec)
    t0 = time.perf_counter()
    tasks = _make_tasks(spec, budget)
    workers = _worker_count(tasks, threads)
    if workers <= 1 or not hasattr(os, "fork"):
        counts, wit_encs = _merge(spec, map(_kernel.scan, tasks))
        witnesses = tuple(_decode_witness(spec, enc) for enc in wit_encs)
    else:
        from ._pool import ForkPool

        # the workers inherit the tasks: a scan request is a task's index
        def scan(i: int) -> dict:
            return _kernel.scan(tasks[i])

        # a reply carries the invariants only: this process holds the
        # encodings and builds each polynomial from them
        def decode(encs: list[list[int]]) -> list[Invariants]:
            return [_decode_witness(spec, enc).invariants for enc in encs]

        with ForkPool(workers, (scan, decode)) as pool:
            counts, wit_encs = _merge(spec, pool.map(scan, range(len(tasks))))
            # about four chunks per worker: few round trips, balanced tails
            chunk = max(1, len(wit_encs) // (4 * workers))
            chunks = (wit_encs[i : i + chunk] for i in range(0, len(wit_encs), chunk))
            invs = chain.from_iterable(pool.map(decode, chunks))
            witnesses = tuple(
                Witness(_witness_poly(spec, enc), inv)
                for enc, inv in zip(wit_encs, invs, strict=True)
            )
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    return SearchReport(
        spec=spec, counts=counts, witnesses=witnesses, elapsed_ms=elapsed_ms
    )


def revalidate_report_dict(doc: dict) -> list[str]:
    """Re-validate a serialized report against the object layer: every
    witness's invariants and the spec's filters, and the witness count
    min(matched, collect_limit).  Returns human-readable mismatch
    descriptions (empty = clean).
    """
    spec = doc.get("spec", {})
    field = make_field(spec["p"], spec["k"], spec.get("modulus"))
    witnesses = doc.get("witnesses", [])
    problems = []
    expected = min(doc["matched"], spec["collect_limit"])
    if len(witnesses) != expected:
        problems.append(f"report holds {len(witnesses)} witnesses, expected {expected}")
    for i, frag in enumerate(witnesses):
        f = parse_poly(field, ",".join(frag["coeffs"]))
        inv = invariants(f)
        fresh = report_fragment(f, inv)
        for key in ("genus", "smooth", "rank_A", "a_number", "p_rank"):
            if fresh[key] != frag[key]:
                problems.append(
                    f"witness {i}: {key} recomputes to {fresh[key]}, stored {frag[key]}"
                )
        failure = _filter_failure(
            inv, spec["require_smooth"], spec["target_a"], spec["target_p_rank"]
        )
        if failure:
            problems.append(f"witness {i}: fails the spec's filters ({failure})")
    return problems
