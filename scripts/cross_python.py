#!/usr/bin/env python3
"""Cross-interpreter check: the CLI gives the same bytes on every Python.

Runs ``python -m evrforge.cli`` with ``PYTHONPATH=src`` under each
interpreter given and under the one running this script, and compares
stdout, stderr and the exit code of each run.  The forms are ``check``
(text and interchange), ``report`` (audit, mission and coverage),
``score`` and ``export`` (interchange, dot and csv) on every fixture, one
``trace`` and one ``diff``.  Each difference is printed; the exit code is
1 when there is one, else 0.  Every interpreter is first asked for its
version: one that cannot run is named on a ``cannot run PYTHON: ...``
line, and the exit code is 2 before any form runs.  Standard library only,
so it runs where pytest is not installed.

    python scripts/cross_python.py /path/to/python3.10 /path/to/python3.13
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "tests" / "fixtures").glob("*.evr"))
PER_FIXTURE = (
    ("check",), ("check", "--format", "interchange"),
    ("report", "--kind", "audit"), ("report", "--kind", "mission"), ("report", "--kind", "coverage"),
    ("score",),
    ("export", "--format", "interchange"), ("export", "--format", "dot"), ("export", "--format", "csv"),
)
FORMS = [(*form[:1], path, *form[1:]) for path in FIXTURES for form in PER_FIXTURE] + [
    ("trace", "tests/fixtures/tm_clean.evr", "D1"),
    ("diff", "tests/fixtures/tm_clean.evr", "tests/fixtures/tm_full.evr"),
]


def run(python: str, form: tuple[str, ...]) -> tuple[bytes, bytes, int]:
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run([python, "-m", "evrforge.cli", *form], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    return done.stdout, done.stderr, done.returncode


def version(python: str) -> str:
    """The interpreter's version; ``OSError`` when it cannot run."""
    done = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                          capture_output=True, text=True)
    if done.returncode:
        first = done.stderr.strip().partition("\n")[0]
        raise OSError(f"exit code {done.returncode}: {first}")
    return done.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("pythons", nargs="+", metavar="PYTHON",
                        help="interpreters to compare with the running one")
    args = parser.parse_args(argv)

    versions = {}
    for python in (sys.executable, *args.pythons):
        try:
            versions[python] = version(python)
        except OSError as error:
            print(f"cannot run {python}: {error}")
            versions[python] = None
    if None in versions.values():
        return 2
    expected = {form: run(sys.executable, form) for form in FORMS}
    differences = 0
    for python in args.pythons:
        name = f"{python} ({versions[python]})"
        matched = 0
        for form, want in expected.items():
            got = run(python, form)
            parts = [part for part, a, b in zip(("stdout", "stderr", "exit code"), got, want)
                     if a != b]
            if parts:
                differences += 1
                print(f"{name}: evrforge {' '.join(form)}: {', '.join(parts)} differ")
                if got[2] != want[2]:
                    print(f"  exit code {got[2]}, expected {want[2]}")
                for part, a, b in zip(("stdout", "stderr"), got, want):
                    line = next(((x, y) for x, y in zip_longest(a.splitlines(), b.splitlines())
                                 if x != y), None)
                    if line:
                        print(f"  first {part} line differs: {line[0]!r}, expected {line[1]!r}")
            else:
                matched += 1
        print(f"{name}: {matched} of {len(FORMS)} runs match Python {versions[sys.executable]}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
