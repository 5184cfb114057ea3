"""Command-line surface: curve invariants, family searches, verification
suites, and the published-script reproductions.

Structured reports (JSON, or CSV witness rows with --csv) go to stdout or
--out; human-readable summaries and errors go to stderr, so pipelines stay
clean.  Reports never contain wall-clock timing, which keeps identical flags
byte-identical across runs and thread counts; timing is reported on stderr.

A report for --out is written to a temporary file beside it and renamed
over it only once the write has succeeded, so a failed run leaves --out as it
was.

Exit codes: 0 ok, 1 verification failure, 2 invalid input, 3 unsupported
input (even-degree model), 4 candidate budget exceeded, 5 out of resources
(a worker process ended before answering or could not be forked, memory,
disk space, disk quota, the file-size limit or file descriptors ran out, or
the reader closed stdout), 6 internal error (the object layer rejected a
witness the kernel found, on this process or on a worker).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
from pathlib import Path

from .fields import FieldSpec, make_field, parse_element, _split_csv
from .invariants import UnsupportedDegreeError, invariants, report_fragment
from .poly import parse_poly
from .search import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    SCHEMA,
    BudgetExceededError,
    RevalidationError,
    SearchReport,
    SearchSpec,
    WorkerDiedError,
    run_search,
)
from .suites import (
    reproduce_script,
    verify_genus_p_minus_1,
    verify_p_rank_witnesses,
    verify_theorem1,
)

__all__ = ["main"]

# an OSError with one of these is out of resources, not invalid input: no
# process or memory to fork a pool worker, no disk space, quota or file size
# left for the report, no file descriptor left, or stdout's reader gone
_RESOURCE_ERRNOS = frozenset({
    errno.EAGAIN, errno.ENOMEM, errno.ENOSPC, errno.EDQUOT, errno.EFBIG,
    errno.EMFILE, errno.ENFILE, errno.EPIPE,
})


def _field_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    parser.add_argument("--k", type=int, default=1, help="extension degree (default 1)")
    parser.add_argument(
        "--mod",
        default=None,
        help="modulus coefficients over F_p, ascending, e.g. '1,0,1' for x^2+1",
    )


def _run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker processes (default 1); reports do not depend on it",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="cap on exhaustive candidates (the whole family, as 'enumerated' "
        "counts it, also where only rank-one survivors are checked) or random "
        "samples (default 2^32)",
    )


def _output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write the report to a file")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", action="store_true", help="emit the JSON report (the default)"
    )
    fmt.add_argument(
        "--csv", action="store_true", help="emit CSV witness rows instead of JSON"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartier",
        description=(
            "Cartier-Manin matrices, a-numbers and p-ranks of hyperelliptic "
            "curves y^2 = f(x) over small finite fields, plus curve-family "
            "searches."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="invariants of one curve")
    _field_args(p_inv)
    p_inv.add_argument(
        "--poly",
        required=True,
        help="defining polynomial, ascending coefficients, e.g. '0,1,0,0,0,1'",
    )
    p_inv.add_argument("--out", default=None, help="write the report to a file")

    p_search = sub.add_parser("search", help="search a curve family")
    _field_args(p_search)
    group = p_search.add_mutually_exclusive_group(required=True)
    group.add_argument("--genus", type=int, help="genus g (degree becomes 2g+1)")
    group.add_argument("--degree", type=int, help="degree of f (odd, >= 3)")
    p_search.add_argument(
        "--fix",
        default=None,
        help="fixed coefficients, e.g. 'c0=0,c9=1' (of the cofactor when "
        "--factor is given); unlisted indices vary",
    )
    p_search.add_argument(
        "--factor",
        default=None,
        help="fixed polynomial factor of f (text format), e.g. '0,6,1' for x(x-1) over F_7",
    )
    mode = p_search.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--random", action="store_true")
    p_search.add_argument("--samples", type=int, default=None, help="random sample count")
    p_search.add_argument(
        "--seed", type=int, default=None, help=f"random seed (default {DEFAULT_SEED})"
    )
    p_search.add_argument("--require-smooth", action="store_true")
    p_search.add_argument("--target-a", type=int, default=None)
    p_search.add_argument("--target-p-rank", type=int, default=None)
    p_search.add_argument(
        "--limit", type=int, default=10, help="witness collection cap (default 10)"
    )
    p_search.add_argument(
        "--no-prefilter",
        action="store_true",
        help="check every candidate: no rank-one prefilter, and no end-row "
        "join for --target-a g-1 (same counts and witnesses; slower)",
    )
    _run_args(p_search)
    _output_args(p_search)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument(
        "suite", choices=["theorem1", "prop-p5", "p-rank-witnesses"]
    )
    p_verify.add_argument("--p", type=int, default=None)
    p_verify.add_argument(
        "--k", type=int, default=None, help="extension degree (theorem1; default 1)"
    )
    p_verify.add_argument("--genus", type=int, default=None, help="genus (theorem1)")
    _run_args(p_verify)
    p_verify.add_argument("--out", default=None)

    p_rep = sub.add_parser("reproduce", help="re-run a published search script")
    p_rep.add_argument("--script", type=int, choices=[1, 2], required=True)
    p_rep.add_argument(
        "--seed", type=int, default=None,
        help=f"random seed (script 2 only; default {DEFAULT_SEED})",
    )
    p_rep.add_argument(
        "--samples", type=int, default=None,
        help=f"random sample count (script 2 only; default {DEFAULT_SAMPLES})",
    )
    _run_args(p_rep)
    _output_args(p_rep)

    return parser


def _make_field_from_args(args) -> FieldSpec:
    mod = None
    if args.mod is not None:
        text = args.mod.strip()
        if text[:1] == "[" and text[-1:] == "]":
            text = text[1:-1]
        if "[" in text or "]" in text:
            raise ValueError(f"malformed --mod {args.mod!r} (want 1,0,1 or [1,0,1])")
        mod = [int(c) for c in text.split(",")]
    return make_field(args.p, args.k, mod)


def _check_out(out: str | None) -> None:
    """Reject an --out that cannot be written before any work starts; the
    report is still written only at the end, so a failed run leaves none."""
    if not out:
        return
    path = Path(out)
    if path.is_dir():
        raise ValueError(f"--out {out!r} is a directory")
    if not path.parent.is_dir() or not os.access(path.parent, os.W_OK | os.X_OK):
        raise ValueError(
            f"--out {out!r}: directory {str(path.parent)!r} is missing or not writable"
        )


def _write_report(out: str, text: str) -> None:
    """Write ``text`` to a new file beside ``out`` and rename it over
    ``out`` once the write has succeeded; a device or FIFO is written in
    place."""
    path = Path(out).resolve()  # a symlink stays, and its target is replaced
    if path.exists() and not path.is_file():
        path.write_text(text)
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    # O_EXCL: a name that already exists, as a file or a link, is not ours
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_report(out, text + "\n")
    else:
        try:
            print(text, flush=True)  # a closed reader shows here, not at exit
        except OSError:
            # the report stays buffered: send the exit flush to /dev/null
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def _report_text(report: SearchReport, as_csv: bool) -> str:
    if as_csv:
        # RFC 4180 quoting, so the commas of F_{p^k} elements stay in one
        # field; imported here, so that only --csv runs pay for csv
        import csv
        import io

        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(report.csv_rows())
        return out.getvalue().removesuffix("\n")  # _emit ends the last line
    return _json(report.to_dict())


def _parse_fix(field: FieldSpec, text: str | None) -> dict:
    fixed = {}
    if not text:
        return fixed
    for part in _split_csv(text):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        # a negative index is well formed, and lies outside the cofactor
        match = re.fullmatch(r"c(-?[0-9]+)", key.strip())
        if not sep or match is None:
            raise ValueError(f"malformed --fix entry {part!r} (want cIDX=VALUE)")
        idx = int(match[1])
        if idx in fixed:
            raise ValueError(f"coefficient c{idx} fixed twice")
        fixed[idx] = parse_element(field, value)
    return fixed


def _cmd_invariants(args) -> int:
    field = _make_field_from_args(args)
    f = parse_poly(field, args.poly)
    inv = invariants(f)
    doc = {"schema": SCHEMA, **report_fragment(f, inv)}
    _emit(_json(doc), args.out)
    print(
        f"genus {inv.genus} curve over F_{field.order}: "
        f"smooth={inv.smooth}, rank(A)={inv.rank_a}, "
        f"a-number={inv.a_number}, p-rank={inv.p_rank}",
        file=sys.stderr,
    )
    return 0


def _cmd_search(args) -> int:
    field = _make_field_from_args(args)
    degree = args.degree if args.degree is not None else 2 * args.genus + 1
    factor = parse_poly(field, args.factor) if args.factor else None
    fixed = _parse_fix(field, args.fix)
    samples, seed = args.samples, args.seed
    if args.random:
        samples = samples if samples is not None else DEFAULT_SAMPLES
        seed = seed if seed is not None else DEFAULT_SEED
    elif samples is not None or seed is not None:
        # a spec with samples is a random search
        raise ValueError("--samples/--seed only apply to --random searches")
    spec = SearchSpec(
        field=field,
        degree=degree,
        fixed=fixed,
        samples=samples,
        seed=seed,
        target_a=args.target_a,
        target_p_rank=args.target_p_rank,
        require_smooth=args.require_smooth,
        collect_limit=args.limit,
        prefilter=not args.no_prefilter,
        factor=factor,
    )
    report = run_search(spec, threads=args.threads, budget=args.budget)
    _emit(_report_text(report, args.csv), args.out)
    print(
        f"matched {report.matched} of {report.counts.enumerated} candidates "
        f"({report.counts.squarefree} squarefree) in {report.elapsed_ms} ms "
        f"over {report.shard_count} shards",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "theorem1":
        if args.p is None or args.genus is None:
            raise ValueError("verify theorem1 needs --p and --genus")
        k = args.k if args.k is not None else 1
        result = verify_theorem1(
            args.p, k, args.genus, threads=args.threads, budget=args.budget
        )
    elif args.k is not None or args.genus is not None:
        raise ValueError(f"verify {args.suite} takes no --k or --genus")
    elif args.suite == "prop-p5":
        if args.p not in (None, 5):
            raise ValueError(
                "exhaustive form verification is feasible only for p=5 "
                "(p=7 and p=11 are forward checks, see forward_form_check)"
            )
        result = verify_genus_p_minus_1(threads=args.threads, budget=args.budget)
    else:
        if args.p is None:
            raise ValueError("verify p-rank-witnesses needs --p")
        result = verify_p_rank_witnesses(
            args.p, threads=args.threads, budget=args.budget
        )
    _emit(_json(result.to_dict()), args.out)
    status = "PASS" if result.passed else "FAIL"
    print(f"verify {args.suite}: {status}", file=sys.stderr)
    return 0 if result.passed else 1


def _cmd_reproduce(args) -> int:
    draws = {"seed": args.seed, "samples": args.samples}
    draws = {key: value for key, value in draws.items() if value is not None}
    if draws and args.script == 1:
        raise ValueError("--seed/--samples only apply to --script 2")
    report = reproduce_script(
        args.script,
        **draws,
        threads=args.threads,
        budget=args.budget,
    )
    observed = report.matched
    doc = {
        "schema": SCHEMA,
        "script": args.script,
        "expected_matched": 0,
        "observed_matched": observed,
        "reproduces": observed == 0,
        "report": report.to_dict(),
    }
    _emit(_json(doc) if not args.csv else _report_text(report, True), args.out)
    if observed == 0:
        verdict = "PASS"
        code = 0
    elif args.script == 2:
        # a verified hit in the random family is a finding, not a failure
        verdict = "NOTABLE FINDING (hits re-validated; see witnesses)"
        code = 0
    else:
        verdict = "FAIL"
        code = 1
    print(
        f"script {args.script}: expected N=0, observed N={observed}, {verdict} "
        f"({report.elapsed_ms} ms)",
        file=sys.stderr,
    )
    return code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        _check_out(args.out)
        if args.command == "invariants":
            return _cmd_invariants(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_reproduce(args)
    except BudgetExceededError as exc:
        print(f"error: budget: {exc}", file=sys.stderr)
        return 4
    except RevalidationError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 6
    except (MemoryError, WorkerDiedError) as exc:
        print(f"error: resource: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    except UnsupportedDegreeError as exc:
        print(f"error: unsupported: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        if isinstance(exc, OSError) and exc.errno in _RESOURCE_ERRNOS:
            print(f"error: resource: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 5
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
