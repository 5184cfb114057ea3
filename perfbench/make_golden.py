"""Write perfbench/golden/ from the current code: each workload's report and
set-up report at the default seed, checked to be byte-identical at
--threads 1 and --threads 2.  Run from the repository root:

    python3 perfbench/make_golden.py

Run it only on purpose, when a change is meant to alter report bytes, and
say so where the change is described.
"""

import subprocess
import sys

import run


def main() -> int:
    seed = run.WORKLOADS["default_seed"]
    for name, wl in run.WORKLOADS["workloads"].items():
        for key in ("argv", "setup_argv"):
            outs = {
                threads: subprocess.run(
                    [sys.executable, "-m", "cartier", *run.argv_for(wl, key, seed),
                     "--threads", threads],
                    env=run.cli_env(), cwd=run.ROOT, capture_output=True, check=True,
                ).stdout
                for threads in ("1", "2")
            }
            if outs["1"] != outs["2"]:
                print(f"{name} {key}: reports differ between thread counts",
                      file=sys.stderr)
                return 1
            path = run.golden_path(name, key, seed, wl)
            path.write_bytes(outs["1"])
            print(f"{path.name}: {len(outs['1'])} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
