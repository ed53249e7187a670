#!/usr/bin/env python3
"""Standalone parser fuzzer.

Feeds seeded random token soup into the register parser and checks the
robustness contract: no crash, document present exactly when there are no
errors, and every diagnostic span inside the input's bounds.  The soup and
the contract are acceptance 9's, from ``tests/support.py``.  It also checks
that the lexer gives the same tokens and diagnostics as the reference lexer
in ``tests/support.py``, and that ``parse_register``, which parses fast and
parses again located only when something must be placed, gives the same
result as the located parse alone.  Besides a fixed piece list, the soup draws on
every block keyword and attribute key of the parser's block table, and on
the lines of the ``evrforge init`` scaffold, which open every kind of block
and give every attribute a value, so that each attribute reader is reached.

    python scripts/fuzz_parse.py --count 100000 --seed 123456
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from evrforge import dsl  # noqa: E402
from evrforge.cli import scaffold_text  # noqa: E402
from tests.support import (  # noqa: E402
    FUZZ_PIECES, fuzz_source, located_lex, reference_lex, robustness_breach)

TABLE = {*dsl._BLOCKS, *(a.key for block in dsl._BLOCKS.values() for a in block.attrs)}
SCAFFOLD = {line.strip() for line in scaffold_text("fuzz").splitlines()
            if line.strip() and not line.startswith("#")}
PIECES = FUZZ_PIECES + sorted((TABLE | SCAFFOLD) - set(FUZZ_PIECES))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=123456)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    started = time.monotonic()
    with_errors = 0
    for i in range(args.count):
        text = fuzz_source(rng, PIECES)
        if located_lex(text, "fuzz.evr") != reference_lex(text, "fuzz.evr"):
            print(f"lexer differs from the reference at input {i}: {text!r}")
            return 1
        result = dsl.parse_register(text, "fuzz.evr")
        if result != dsl._parse(text, "fuzz.evr", located=True):
            print(f"parse differs from the located parse at input {i}: {text!r}")
            return 1
        breach = robustness_breach(text, result)
        if breach:
            print(f"{breach} at input {i}: {text!r}")
            return 1
        with_errors += bool(result.errors)
    elapsed = time.monotonic() - started
    print(f"{args.count} inputs, {with_errors} with errors, "
          f"no crashes, all spans in bounds, lexing as the reference, "
          f"parsing as the located parse ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
