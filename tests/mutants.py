"""Mutation check: plant known faults in ``src/`` and require the tests to
catch each one.

Each entry of ``MUTANTS`` is one exact text substitution in one file under
``src/`` and the test modules that must fail once it is made.  For each
entry the script copies the repository (without ``.git``) to a temporary
directory, makes the substitution there, and runs the modules with
``pytest -x`` under a timeout, with ``PYTHONPATH`` pointing at the copy's
``src``.  A mutant is killed when pytest reports a failing test or an
error; a run that times out counts as killed and is reported as a timeout.
The script exits 1 when a mutant survives, a substitution does not match
its file exactly once, or a run ends without pytest reporting a failure
(so a broken environment does not pass as a kill), and 0 otherwise.  It
uses only the standard library and pytest, and pytest does not collect it
(its name does not start with ``test_``).

Run it from anywhere, on every entry or on the named ones:

    python tests/mutants.py [name ...]
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    modules: tuple[str, ...]


MUTANTS = [
    Mutant(
        "plan-joins-without-sieve",
        "src/cartier/search.py",
        '    return False, "scan" if spec.field.p >= 5 else None\n',
        '    return False, "join" if spec.field.p >= 5 else None\n',
        ("tests/test_search.py",),
    ),
    Mutant(
        "no-late-squarefree-gate",
        "src/cartier/_kernel.py",
        "        if smooth_last and not squarefree(u):\n            continue\n",
        "",
        ("tests/test_search.py",),
    ),
    Mutant(
        "sieve-solutions-off-by-one",
        "src/cartier/_kernel.py",
        "else q ** (cols - rank)\n",
        "else q ** (cols - rank + 1)\n",
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "row-g-window-one-short",
        "src/cartier/_kernel.py",
        "slice(max(0, length - e - 1), length)",
        "slice(max(0, length - e), length)",
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "join-drops-wild-b",
        "src/cartier/_kernel.py",
        "else by_rowg.get(key, []) + wild_b\n",
        "else by_rowg.get(key, [])\n",
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "end-row-test-always-passes",
        "src/cartier/_kernel.py",
        '    (which forces rank >= 2)."""\n',
        '    (which forces rank >= 2)."""\n    return True\n',
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "irreducibles-list-path-reversed",
        "src/cartier/_kernel.py",
        "            return [x for v in vals for x in kern.add[mul[r][v]]]\n",
        "            return [x for v in vals for x in kern.add[mul[r][v]]][::-1]\n",
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "column-series-doubled",
        "src/cartier/_columns.py",
        "    return out, L.zeros(a[0])\n",
        "    return [L.scale(x, 2) for x in out], L.zeros(a[0])\n",
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "column-shift-ignores-roots-of-a",
        "src/cartier/_columns.py",
        "            a_root = L.zeros(_value(L, a, s)) & top\n",
        "            a_root = 0\n",
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "column-zero-divisor-coprime",
        "src/cartier/_columns.py",
        "        out |= zero\n",
        "",
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "cofactor-test-skips-roots",
        "src/cartier/_kernel.py",
        "            if not acc:\n                return False\n",
        "",
        ("tests/test_kernel.py",),
    ),
]

_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".perfbench_out", ".hypothesis"
)


def run(mutant: Mutant) -> str:
    """'killed' with the first failing test, 'timeout', 'survived', or why
    the mutant was neither: a substitution that is not exact, or a run that
    ended without a pytest summary of failures (pytest missing, say)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        target = copy / mutant.path
        text = target.read_text()
        found = text.count(mutant.old)
        if found != 1:
            return f"substitution matches {found} times, not once"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        # a session of its own, so a timeout also ends the search's pool workers
        proc = subprocess.Popen([*argv, *mutant.modules], cwd=copy, env=env,
                                start_new_session=True,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                text=True)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "timeout"
        if proc.returncode == 0:
            return "survived"
        lines = out.splitlines()
        summary = lines[-1] if lines else ""
        if proc.returncode in (1, 2) and ("failed" in summary or "error" in summary):
            failures = (x for x in lines if x.startswith(("FAILED", "ERROR")))
            return f"killed by {next(failures, summary)}"
        return f"exit {proc.returncode}, no test failed: {summary or '(no output)'}"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = False
    for mutant in chosen:
        t0 = time.perf_counter()
        outcome = run(mutant)
        took = time.perf_counter() - t0
        print(f"{mutant.name}: {outcome} ({took:.0f} s)", flush=True)
        failed |= not outcome.startswith(("killed", "timeout"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
