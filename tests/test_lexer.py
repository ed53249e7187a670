"""The master-regex lexer against the character loop it replaced.

``support.reference_lex`` is the old lexer, unchanged.  Both must give the
same tokens and the same diagnostics, in the same order, on the fixtures,
on generated registers and on seeded soup of the characters where a
tokenizer can slip: quotes, backslashes, line ends, the blanks the format
accepts and the ones it rejects, and non-ASCII letters and digits that
``\\w``, ``\\d`` or case folding would wrongly accept.

The tests at the end hold the chunked lexer, ``dsl._lexemes``, to the
lexemes and diagnostics of ``dsl._lex``, which it may call only for a chunk
that is not clean; the ordinal of each lexeme to its index, and the sweep
that locates it to ``_lex``'s offsets; and ``parse_register`` to the
digests, in ``tests/fixtures/parse_digests.txt``, of what the parser showed
when it parsed a source twice to place a diagnostic.
"""

from __future__ import annotations

import gc
import importlib.util
import random
import time
from collections.abc import Iterator
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest

from evrforge import dsl

from .conftest import FIXTURES
from .support import (FUZZ_PIECES, fuzz_source, located_lex, parse_digest, random_register,
                      reference_lex, reporter)

SOUP = ['"', "\\", "\n", "\r", "\t", "\x0b", "\x0c", "#", ",", ".", "-", "T", "C",
        "0", "1", "7", "é", "記", "٣", "ſ", " ", "x", "_", '"ab"', "1.2", "1.1.1-T"]


def _assert_same(source: str) -> None:
    tokens, diags = located_lex(source, "in.evr")
    ref_tokens, ref_diags = reference_lex(source, "in.evr")
    assert tokens == ref_tokens, source
    assert diags == ref_diags, source


def _soup(rng: random.Random) -> str:
    text = "".join(rng.choice(SOUP) for _ in range(rng.randint(0, 24)))
    if rng.random() < 0.5:
        text += "".join(rng.choice(" \t\r") for _ in range(rng.randint(1, 3)))
        text += rng.choice(["", "\n", "\nx"])
    return text


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.evr")))
def test_fixtures_lex_like_the_reference(name):
    _assert_same((FIXTURES / name).read_text(encoding="utf-8"))


def test_generated_registers_lex_like_the_reference():
    for seed in range(200):
        _assert_same(dsl.serialize_canonical(random_register(random.Random(seed))))


def test_character_soup_lexes_like_the_reference():
    rng = random.Random(8080)
    for _ in range(3000):
        _assert_same(_soup(rng))


@pytest.mark.parametrize("source", [
    "", "\n", "  ", "x \t\r", "x  \n", "a\r\nb", '"\\', '"a\\', '"a\\q', '"\\"', '"a\\qb" 1',
    '"a" # c "d', "1.", "1.1.", "1.1-", "1.1-T", "1-T1", "1.1-X1", "٣", "ſ", "é1", "\x0b\x0c",
    # One scan of the whole source: line ends, and what runs up to them.
    'register "x"\r\nphase concept\r\n', '"a\r\n"b"\r\n', "x\r\n\r\n", '"ab\ncd "e"',
    '"a\\\nb', '"a\\q\n"\\', '"\\\r\n1.1', "x\n# c", "# c\r\nx", "x # c\r", "x\n  \n\t\n",
    "x\n\n\n", "x\n \r", "\n\n",
])
def test_edge_cases_lex_like_the_reference(source):
    _assert_same(source)


def test_locator_counts_lines_from_either_side_of_the_last_offset():
    rng = random.Random(2024)
    for _ in range(300):
        source = _soup(rng) + "\n" + _soup(rng)
        locate = dsl._locator(source, "s.evr")
        for start in rng.choices(range(len(source) + 1), k=12):
            span = locate(start, start)
            assert (span.start_line, span.start_col) == (
                source.count("\n", 0, start) + 1, start - source.rfind("\n", 0, start)), source


def test_a_header_span_after_a_later_warning_keeps_its_line():
    """P006 points back at the block's header, behind the P090 just made."""
    source = ('register "x" phase concept\nstakeholder S1 "n"\n  bogus 1\nend\n'
              'stakeholder S2 "m"\n  kind direct\n  bogus 2\nend\n')
    assert [d.render() for d in dsl.parse_register(source, "b.evr").diagnostics] == [
        "ERROR P006 b.evr:2:1: stakeholder S1 declares no kind",
        "WARNING P090 b.evr:3:3: unknown attribute key 'bogus'",
        "WARNING P090 b.evr:7:3: unknown attribute key 'bogus'"]


@pytest.mark.parametrize("tail", [" " * 100_000, "\t" * 100_000, "\r" * 100_000,
                                  " \t\r" * 33_333 + "\n"], ids=["sp", "tab", "cr", "mix-lf"])
def test_trailing_blanks_parse_in_linear_time(tail):
    """Blanks at the very end of a source, with no line end after them, once
    made the scan retry from every blank: 8,000 spaces took about 7 s."""
    started = time.perf_counter()
    result = dsl.parse_register('register "x" phase concept' + tail, "b.evr")
    assert time.perf_counter() - started < 2
    assert result.diagnostics == () and result.document is not None


def test_malformed_strings_report_every_problem_in_order():
    tokens, diags = located_lex('x "a\\qb\\', "s.evr")
    assert [(kind, text, value, col, end_col)
            for kind, text, value, line, col, end_col in tokens] == [
        ("IDENT", "x", "x", 1, 2), ("STRING", '"a\\qb\\', "a\\qb\\", 3, 9), ("EOF", "", "", 9, 9)]
    assert [(d.code, d.span.start_col, d.span.end_col) for d in diags] == [
        ("P003", 5, 5), ("P003", 8, 8), ("P002", 3, 8)]


def test_lexer_yields_tokens_as_they_are_pulled():
    report, diags = reporter('x @ "y', "p.evr")
    tokens = dsl._lex('x @ "y', report)
    assert isinstance(tokens, Iterator) and not isinstance(tokens, list)
    assert next(tokens) == ("IDENT", "x", "x", 0, 1) and diags == []
    assert next(tokens)[0] == "STRING" and [d.code for d in diags] == ["P004", "P002"]
    assert next(tokens)[0] == "EOF"


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.evr")))
def test_tokens_are_plain_tuples_the_collector_untracks(name):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    tokens = list(dsl._lex(source, reporter(source, name)[0]))
    shape = (str, str, str, int, int)
    assert all(type(tok) is tuple and tuple(map(type, tok)) == shape for tok in tokens)
    gc.collect()
    assert not any(gc.is_tracked(tok) for tok in tokens)


def test_fuzz_script_runs_clean(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "fuzz_parse.py"
    spec = importlib.util.spec_from_file_location("fuzz_parse", path)
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    assert fuzz.main(["--count", "2000", "--seed", "5"]) == 0, capsys.readouterr().out


@pytest.mark.parametrize("tail,found", [
    ("later\n", "'later'"), ('"x"', "'\"x\"'"), ("", "'end of input'"),
])
def test_enum_error_lists_the_allowed_values(tail, found):
    result = dsl.parse_register('register "TM" phase ' + tail, "p.evr")
    assert [d.render() for d in result.diagnostics] == [
        f"ERROR P020 p.evr:1:21: expected one of concept, exploration, design, "
        f"deployment for phase, found {found}"]


# ---------------------------------------------------------------------------
# The chunked lexer against ``_lex``, the ordinals against the lexemes, and
# the parse against the digests of what it showed before it was one pass

# One line per source: the ``parse_digest`` of its parse and its label, in
# the order of ``_differential_sources`` and ``EDGE_ROWS``.  They were
# computed with the parser that parsed a source fast and then again,
# located, whenever anything had to be placed.
REFERENCE = FIXTURES / "parse_digests.txt"


def _reference() -> dict[str, str]:
    lines = REFERENCE.read_text(encoding="utf-8").splitlines()
    return {label: digest for digest, label in (line.split(" ", 1) for line in lines)}


def _located_lexemes(source: str) -> tuple[list[str], list]:
    """The lexemes ``_lex`` gives the parser, a string's value quoted anew,
    and ``_lex``'s diagnostics."""
    report, diags = reporter(source, "in.evr")
    return ([dsl._quote(value) if kind == "STRING" else value
             for kind, _, value, _, _ in dsl._lex(source, report)], diags)


def _assert_lexes_as_located(source: str) -> bool:
    """``dsl._lexemes`` gives the lexemes and diagnostics of ``_lex``, which
    it calls only for a chunk that is not clean; each lexeme pulled has its
    index as its ordinal, and both ``_located`` and the lexemes ``_lexemes``
    keeps give its text and offset as ``_lex`` does.  True when every chunk
    of ``source`` is clean."""
    report, diags = reporter(source, "in.evr")
    known = {}
    with mock.patch.object(dsl, "_lex", wraps=dsl._lex) as lex:
        lexemes = list(chain.from_iterable(dsl._lexemes(source, [0, iter(())], report, known)))
    assert (lexemes, diags) == _located_lexemes(source), source
    parser = dsl._Parser(source, "in.evr")
    ordinals = [parser.here()]
    while parser.tok:
        parser.advance()
        ordinals.append(parser.here())
    assert ordinals == list(range(len(lexemes))), source
    tokens = dict(enumerate(dsl._lex(source, lambda *problem: None)))
    assert dsl._located(source, set(ordinals)) == {
        ordinal: (None, text, None, start, end)
        for ordinal, (_, text, _, start, end) in tokens.items()}, source
    assert {ordinal: tokens[ordinal] for ordinal in known} == known, source
    return not lex.called


def _differential_sources() -> list[tuple[str, str]]:
    """(label, source) for the fixtures, 100 generated registers, 3,000
    fuzz sources drawn also from the block table and the scaffold, and the
    scaffold mutants of ``test_pins``."""
    from evrforge.cli import scaffold_text

    from .test_pins import SCAFFOLD, _scaffold_mutants

    table = {*dsl._BLOCKS, *(a.key for block in dsl._BLOCKS.values() for a in block.attrs)}
    scaffold = {line.strip() for line in scaffold_text("fuzz").splitlines()
                if line.strip() and not line.startswith("#")}
    pieces = FUZZ_PIECES + sorted((table | scaffold) - set(FUZZ_PIECES))
    rng = random.Random(2121)
    return [*((f"fixture {name}", (FIXTURES / name).read_text(encoding="utf-8"))
              for name in sorted(p.name for p in FIXTURES.glob("*.evr"))),
            *((f"seed {seed}", dsl.serialize_canonical(random_register(random.Random(seed))))
              for seed in range(100)),
            *((f"fuzz {i}", fuzz_source(rng, pieces)) for i in range(3000)),
            *((f"mutant {name}", source)
              for name, source in _scaffold_mutants(SCAFFOLD.read_text(encoding="utf-8")))]


def test_the_fast_lexer_agrees_with_the_located_one_and_the_parse_with_the_reference():
    reference = _reference()
    rows = _differential_sources()
    clean = [_assert_lexes_as_located(source) for _, source in rows]
    # Every fixture and generated register, and most mutants, lex without ``_lex``.
    assert all(clean[:106]) and sum(clean) > 1500, sum(clean)
    for label, source in rows:
        assert parse_digest(dsl.parse_register(source, "in.evr")) == reference[label], (
            f"the first source that parses otherwise than the reference: {label} {source!r}")


# A comment line of 80 characters; 900 of them fill more than one chunk.
_FILLER = "# " + "x" * 77 + "\n"
_HEADER = 'register "x" phase concept\n'
_BLOCK = 'stakeholder S1 "n"\n  kind direct\nend\n'

EDGE_ROWS = [  # (label, source, whether every chunk is clean)
    ("1.", _HEADER + "1.\n", False),
    ("1-T1", _HEADER + "stakeholder 1-T1\n", False),
    ("bad escape", 'register "a\\q" phase concept\n', False),
    ("open string", _HEADER + 'stakeholder S1 "open', False),
    ("cr", 'register "x"\r\nphase concept\r\n' + _BLOCK.replace("\n", "\r\n"), True),
    ("bom", "\ufeff" + _HEADER, False),
    ("non-ascii letter", _HEADER + _BLOCK.replace("S1", "Sé"), False),
    ("non-ascii string", _HEADER + 'stakeholder S1 "é 記"\n  kind direct\nend\n', True),
    ("blanks at the end", _HEADER + _BLOCK + " \t\r" * 3, True),
    ("blanks at a chunk's end", _HEADER + " " * (dsl._CHUNK + 10) + "\n" + _BLOCK + "  ", True),
    ("two chunks", _HEADER + _FILLER * 900 + _BLOCK, True),
    ("problem in the second chunk",
     _HEADER + _FILLER * 900 + _BLOCK.replace("direct", "direct @"), False),
]


@pytest.mark.parametrize("label,source,clean", EDGE_ROWS, ids=[row[0] for row in EDGE_ROWS])
def test_edge_cases_parse_like_the_reference(label, source, clean):
    assert _assert_lexes_as_located(source) is clean
    assert parse_digest(dsl.parse_register(source, "in.evr")) == _reference()[f"edge {label}"]


def test_a_second_chunk_with_a_problem_is_lexed_located_after_the_first():
    source = _HEADER + _FILLER * 900 + "x @\n"
    report, diags = reporter(source, "in.evr")
    with mock.patch.object(dsl, "_lex", wraps=dsl._lex) as lex:
        chunks = dsl._lexemes(source, [0, iter(())], report, {})
        assert list(next(chunks)) == ["register", '"x"', "phase", "concept"]
        assert not lex.called
        assert list(next(chunks)) == ["x"]
    assert lex.call_args.args[2:] == (source.find("\n", dsl._CHUNK) + 1, len(source))
    assert [d.render() for d in diags] == ["ERROR P004 in.evr:902:3: illegal character '@'"]
    assert list(next(chunks)) == [""]


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.evr")))
def test_a_clean_source_parses_without_the_located_lexer(name, monkeypatch):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    expected = dsl.parse_register(source, name)
    monkeypatch.setattr(dsl, "_lex", None)
    assert dsl.parse_register(source, name) == expected
