#!/usr/bin/env python3
"""Standalone parser fuzzer.

Feeds seeded random token soup into the register parser and checks the
robustness contract: no crash, document present exactly when there are no
errors, and every diagnostic span inside the input's bounds.  The soup and
the contract are acceptance 9's, from ``tests/support.py``.  It also checks
that the parser reads the tokens, and the lexer reports the diagnostics, of
the reference lexer in ``tests/support.py``, and, for the runs in
``REFERENCE``, that the parses show what they showed before the parser
became one pass: the
SHA-256 over every parse's ``parse_digest`` (its rendered diagnostics with
their spans' ends, its header and its canonical document) must equal the
one recorded for the run's count and seed.  Other runs print their digest.
The inputs are parsed twice, with every block kind held to the parser's
table (tier 0) and then to its compiled readers (tier 1), and each pass
must give that digest; the lexer is checked in the first.
Besides a fixed piece list, the soup draws on every block keyword and
attribute key of the parser's block table, and on the lines of the
``evrforge init`` scaffold, which open every kind of block and give every
attribute a value, so that each attribute reader is reached.

    python scripts/fuzz_parse.py --count 100000 --seed 123456
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from evrforge import dsl  # noqa: E402
from evrforge.cli import scaffold_text  # noqa: E402
from tests.support import (  # noqa: E402
    FUZZ_PIECES, by_place, fuzz_source, lexed, parse_digest, reference_lex, robustness_breach, tier)

TABLE = {*dsl._BLOCKS, *(a.key for block in dsl._BLOCKS.values() for a in block.attrs)}
SCAFFOLD = {line.strip() for line in scaffold_text("fuzz").splitlines()
            if line.strip() and not line.startswith("#")}
PIECES = FUZZ_PIECES + sorted((TABLE | SCAFFOLD) - set(FUZZ_PIECES))
# (count, seed): the digest of the run, computed with the parser that parsed
# a source fast and again, located, whenever anything had to be placed.
REFERENCE = {
    (100_000, 123456): "f2a648afff5e787d1c4d7b36996d1698376e49dd396cb4fe1dfb078a08dbb93a",
    (2_000, 5): "3b372c31c8a92bfec74d57178d8cc7d5ae90bbf41ca53f6c4f1fa67d446fe257",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=123456)
    args = parser.parse_args(argv)

    reference = REFERENCE.get((args.count, args.seed))
    for level in (0, 1):
        rng = random.Random(args.seed)
        started = time.monotonic()
        with_errors = 0
        digest = hashlib.sha256()
        with tier(level):
            for i in range(args.count):
                text = fuzz_source(rng, PIECES)
                if level == 0:  # the lexer is the same in both tiers
                    tokens, diags = reference_lex(text, "fuzz.evr")
                    if lexed(text, "fuzz.evr") != (tokens, by_place(diags)):
                        print(f"lexer differs from the reference at input {i}: {text!r}")
                        return 1
                result = dsl.parse_register(text, "fuzz.evr")
                digest.update(parse_digest(result).encode("ascii"))
                breach = robustness_breach(text, result)
                if breach:
                    print(f"tier {level}: {breach} at input {i}: {text!r}")
                    return 1
                with_errors += bool(result.errors)
        elapsed = time.monotonic() - started
        if reference is not None and digest.hexdigest() != reference:
            print(f"tier {level}: the parses differ from the reference: digest "
                  f"{digest.hexdigest()}, recorded {reference}")
            return 1
        print(f"tier {level}: {args.count} inputs, {with_errors} with errors, "
              f"no crashes, all spans in bounds, "
              + ("lexing as the reference, " if level == 0 else "")
              + f"parse digest {digest.hexdigest()}" + (" as recorded" if reference else "")
              + f" ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
