#!/usr/bin/env python3
"""Build the request-level benchmark from source and run it.

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Builds bench/e2e/e2e.exe with dune inside this checkout, with the shared
dune cache off so that nothing is written outside it, then runs it with
the same arguments. The last line of its output is the result as JSON.
A failed build exits non-zero before anything is measured.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXE = ROOT / "_build" / "default" / "bench" / "e2e" / "e2e.exe"


def main():
    build = subprocess.run(
        ["dune", "build", "--root", str(ROOT), "--cache=disabled",
         "--display=quiet", "./bench/e2e/e2e.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    return subprocess.run([str(EXE), *sys.argv[1:]], cwd=ROOT,
                          timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
