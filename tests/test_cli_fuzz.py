"""A seeded fuzz of every subcommand, called in process through ``cli.main``.

Inputs are mutants of the fixtures and the scaffold (a line deleted, two
tokens swapped), random bytes, re-encodings (UTF-16 with a BOM, Latin-1,
CR-only line ends) and bad option and entity values.  Every call runs
twice and must keep the CLI contract: an exit code in 0..3, no exception
and no traceback, the same stdout both times, and for exit 3 exactly one
line on stderr and nothing on stdout.
"""

from __future__ import annotations

import random
import re

from evrforge import cli

from .conftest import FIXTURES

SEED = 9
CLEAN = str(FIXTURES / "tm_clean.evr")
SOURCES = ("scaffold_demo.evr", "tm_clean.evr", "tm_chain.evr", "tm_warnings.evr")
ARGVS = (
    ["check", "{}"], ["check", "{}", "--format", "interchange"],
    ["report", "{}", "--kind", "audit"], ["report", "{}", "--kind", "mission"],
    ["report", "{}", "--kind", "coverage"], ["trace", "{}", "1.1.1-C1"], ["score", "{}"],
    ["diff", "{}", CLEAN], ["diff", CLEAN, "{}"], ["export", "{}", "--format", "interchange"],
    ["export", "{}", "--format", "dot"], ["export", "{}", "--format", "csv"],
)
TOKEN = re.compile(r'"[^"\n]*"|\S+')


def _mutant(rng: random.Random, text: str) -> str:
    if rng.random() < 0.5:
        lines = text.split("\n")
        del lines[rng.randrange(len(lines))]
        return "\n".join(lines)
    first, second = sorted(rng.sample(list(TOKEN.finditer(text)), 2), key=lambda t: t.start())
    return (text[:first.start()] + second.group() + text[first.end():second.start()]
            + first.group() + text[second.end():])


def _inputs(rng: random.Random) -> list[bytes]:
    texts = [(FIXTURES / name).read_text(encoding="utf-8") for name in SOURCES]
    inputs = [_mutant(rng, rng.choice(texts)).encode("utf-8") for _ in range(30)]
    inputs += [rng.randbytes(rng.randrange(1, 200)) for _ in range(4)]
    alphabet = b'abcdeghnrstv19."\n -,#'
    inputs += [b'register "R" phase design\n' + bytes(rng.choices(alphabet, k=300))
               for _ in range(4)]
    text = cli.scaffold_text("Zürich façade")
    inputs += [text.encode("utf-16"), text.encode("latin-1"),
               text.replace("\n", "\r").encode("utf-8")]
    return inputs


def _keeps_the_contract(argv: list[str], capsys) -> int:
    runs = []
    for _ in range(2):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if code == 3:
            assert len(err.splitlines()) == 1 and out == "", (argv, err)
        runs.append(out)
    assert runs[0] == runs[1], argv
    return code


def test_mutated_registers_keep_the_contract(tmp_path, capsys):
    rng = random.Random(SEED)
    codes = set()
    for i, data in enumerate(_inputs(rng)):
        path = tmp_path / f"in{i}.evr"
        path.write_bytes(data)
        for argv in (ARGVS[i % len(ARGVS)], ARGVS[(i + 5) % len(ARGVS)]):
            codes.add(_keeps_the_contract([arg.format(path) for arg in argv], capsys))
    assert codes == {0, 1, 2, 3}


def test_bad_option_values_exit_three_with_one_line(tmp_path, capsys):
    nowhere = str(tmp_path / "missing" / "out.txt")
    for argv in (
        ["check", CLEAN, "--format", "yaml"], ["check", CLEAN, "--format", ""],
        ["report", CLEAN, "--kind", "poster"], ["report", CLEAN, "--kind", "AUDIT"],
        ["export", CLEAN, "--format", "xml"], ["export", CLEAN, "--format", "Dot"],
        ["check", CLEAN, "--rules", "VBE-R99"], ["check", CLEAN, "--rules", "VBE-R01, vbe-r02"],
        ["trace", CLEAN, "7.7.7"], ["trace", CLEAN, ""], ["trace", CLEAN, "end"],
        ["trace", CLEAN, "Zürich"], ["report", CLEAN, "--out", nowhere],
        ["export", CLEAN, "--out", nowhere], ["check"], ["frobnicate", CLEAN],
    ):
        assert _keeps_the_contract(argv, capsys) == 3, argv


def test_init_keeps_the_contract(tmp_path, capsys):
    for i, name in enumerate(("demo", "Zürich façade", 'a "quoted" name', "", "   ")):
        _keeps_the_contract(["init", name, "--out", str(tmp_path / f"{i}.evr")], capsys)
        _keeps_the_contract(["init", name, "--out", str(tmp_path / f"{i}.evr"), "--force"],
                            capsys)
    assert _keeps_the_contract(["init", "demo", "--out", str(tmp_path)], capsys) == 3
