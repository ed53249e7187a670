"""The master-regex lexer against the character loop it replaced.

``support.reference_lex`` is the old lexer, unchanged.  The lexemes the
parser pulls, with their places found again by ordinal, must be its tokens,
and the lexer's diagnostics its diagnostics, on the fixtures, on generated
registers and on seeded soup of the characters where a tokenizer can slip:
quotes, backslashes, line ends, the blanks the format accepts and the ones
it rejects, and non-ASCII letters and digits that ``\\w``, ``\\d`` or case
folding would wrongly accept.

The tests at the end hold the chunked lexer, ``dsl._lexemes``, to the
reference, reading a chunk a match at a time only when it has a problem;
and ``parse_register`` to the digests, in ``tests/fixtures/parse_digests.txt``,
of what the parser showed when it parsed a source twice to place a
diagnostic.
"""

from __future__ import annotations

import importlib.util
import random
import signal
import sys
import time
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest

from evrforge import dsl

from .conftest import FIXTURES
from .support import (FUZZ_PIECES, GREEDY_LEXEME_RE, by_place, fuzz_source, lexed,
                      lexeme_forms_differ, parse_digest, random_register, reference_lex)

SOUP = ['"', "\\", "\n", "\r", "\t", "\x0b", "\x0c", "#", ",", ".", "-", "T", "C",
        "0", "1", "7", "é", "記", "٣", "ſ", " ", "x", "_", '"ab"', "1.2", "1.1.1-T"]


def _assert_same(source: str) -> None:
    tokens, diags = lexed(source, "in.evr")
    ref_tokens, ref_diags = reference_lex(source, "in.evr")
    assert tokens == ref_tokens, source
    assert diags == by_place(ref_diags), source


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


EDGE_CASES = [
    "", "\n", "  ", "x \t\r", "x  \n", "a\r\nb", '"\\', '"a\\', '"a\\q', '"\\"', '"a\\qb" 1',
    '"a" # c "d', "1.", "1.1.", "1.1-", "1.1-T", "1-T1", "1.1-X1", "٣", "ſ", "é1", "\x0b\x0c",
    # One scan of the whole source: line ends, and what runs up to them.
    'register "x"\r\nphase concept\r\n', '"a\r\n"b"\r\n', "x\r\n\r\n", '"ab\ncd "e"',
    '"a\\\nb', '"a\\q\n"\\', '"\\\r\n1.1', "x\n# c", "# c\r\nx", "x # c\r", "x\n  \n\t\n",
    "x\n\n\n", "x\n \r", "\n\n",
]


@pytest.mark.parametrize("source", EDGE_CASES)
def test_edge_cases_lex_like_the_reference(source):
    _assert_same(source)


# ``dsl._LEXEME`` with every repeat greedy: the pattern that lexed every chunk
# before its repeats were made possessive, and that still does on Python 3.10.
GREEDY = (
    r'[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*(?:('
    r'[A-Za-z_][A-Za-z0-9_]*'
    r'|"[^"\\\n]*(?:\\["\\][^"\\\n]*)*"'
    r'|[0-9]+(?:(?:\.[0-9]+)+(?:-[TC][0-9]+)?)?'
    r'|,|\Z)|"[^"\\\n]*(?:\\.?[^"\\\n]*)*"?|(?s:.))'
)


def test_python_3_10_compiles_the_lexeme_pattern_greedy():
    assert GREEDY_LEXEME_RE.pattern == GREEDY
    assert dsl._LEXEME != GREEDY
    possessive = sys.version_info >= (3, 11)
    assert dsl._LEXEME_RE.pattern == (dsl._LEXEME if possessive else GREEDY)


def test_the_greedy_and_possessive_lexeme_patterns_make_the_same_matches():
    """The greedy form never backtracks: no repeat is followed by anything
    that could match what it gave back, and after the blank run ``\\Z`` or
    ``(?s:.)`` always matches.  So making every repeat possessive, as
    Python 3.11 and later allow, changes no ``findall`` list and no match's
    span, on the fixtures, generated registers, the soups, every edge case
    and acceptance 9's first 5,000 inputs.  Where ``re`` has no possessive
    repeats, both sides are the greedy form."""
    soup, fuzz = random.Random(8080), random.Random(123456)
    sources = [
        *((FIXTURES / name).read_text(encoding="utf-8")
          for name in sorted(p.name for p in FIXTURES.glob("*.evr"))),
        *(dsl.serialize_canonical(random_register(random.Random(seed))) for seed in range(200)),
        *(_soup(soup) for _ in range(3000)), *EDGE_CASES, *(row[1] for row in EDGE_ROWS),
        'register "' + "\\q" * 1000 + '" phase concept\n', "x" + " \t\r" * 1000,
        *(fuzz_source(fuzz) for _ in range(5000)),
    ]
    assert [source for source in sources if lexeme_forms_differ(source)] == []


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


def test_bad_escapes_on_one_line_parse_in_linear_time():
    """100,000 unsupported escapes in one string: each is noted by the
    string's ordinal and its offset in the string, and placed in one sweep."""
    started = time.perf_counter()
    result = dsl.parse_register('register "' + "\\q" * 100_000 + '" phase concept\n', "b.evr")
    assert time.perf_counter() - started < 2
    assert len(result.diagnostics) == 100_000 and result.diagnostics[-1].span.start_col == 200_009


def test_locating_increasing_offsets_on_one_long_line_takes_linear_time():
    """``locate`` keeps the start of the current line, so each call scans only
    the gap since the last: 20,000 offsets on one 16 MB line without a line
    feed took 7 s when each call scanned back to the line start."""
    source = "x" * (16 << 20)
    locate = dsl._locator(source, "long.evr")
    def expire(signum, frame):
        raise TimeoutError("locating 20,000 offsets on one line took over 2 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(2)
    try:
        spans = [locate(start, start + 1) for start in range(0, len(source), len(source) // 20_000)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(spans) > 20_000 and spans[-1].start_line == 1
    assert spans[-1].start_col == (len(spans) - 1) * (len(source) // 20_000) + 1


def test_carriage_return_and_line_feed_forms_parse_in_comparable_time():
    """One diagnostic per block: with carriage returns the source is one line
    to ``locate``, which once made its placement quadratic."""
    source = 'register "p" phase concept\n' + 'stakeholder S1 "s"\nend\n' * 80_000
    times = []
    for form in (source, source.replace("\n", "\r")):
        started = time.perf_counter()
        result = dsl.parse_register(form, "b.evr")
        times.append(time.perf_counter() - started)
        assert len(result.diagnostics) == 80_000
    assert max(times) <= 3 * min(times), times


def test_malformed_strings_report_every_problem_in_order():
    tokens, diags = lexed('x "a\\qb\\', "s.evr")
    assert [(kind, text, value, col, end_col)
            for kind, text, value, line, col, end_col in tokens] == [
        ("IDENT", "x", "x", 1, 2), ("STRING", '"a\\qb\\', "a\\qb\\", 3, 9), ("EOF", "", "", 9, 9)]
    assert [(d.code, d.span.start_col, d.span.end_col) for d in diags] == [
        ("P002", 3, 8), ("P003", 5, 5), ("P003", 8, 8)]


def test_a_chunk_s_problems_are_noted_as_it_is_pulled():
    cursor, notes = [0, iter(())], []
    chunks = dsl._lexemes('x @ "y', cursor, notes)
    assert list(next(chunks)) == ["x"] and [note[0] for note in notes] == ["P004"]
    assert cursor[0] == 1
    assert list(next(chunks)) == ['"y"'] and [note[0] for note in notes] == ["P004", "P002"]
    assert cursor[0] == 3  # the illegal character's ordinal, 1, went to no lexeme
    assert list(next(chunks)) == [""] and cursor[0] == 4


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.evr")))
def test_a_clean_source_is_lexed_without_python_per_token(name):
    """One ``findall`` reads each chunk: pulling every lexeme resumes the
    generator once per chunk and once for the end of input, and calls no
    other Python function."""
    source = (FIXTURES / name).read_text(encoding="utf-8")
    parser = dsl._Parser(source, name)
    entered = []
    sys.setprofile(lambda frame, event, arg: event == "call"
                   and entered.append(frame.f_code.co_name))
    try:
        while parser.tok:
            parser.tok = parser.pull()
    finally:
        sys.setprofile(None)
    assert len(entered) <= 2 and set(entered) <= {"_lexemes"}, entered
    assert parser.notes == []


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
# The chunked lexer against the reference, and the parse against the digests
# of what it showed before it was one pass

# One line per source: the ``parse_digest`` of its parse and its label, in
# the order of ``_differential_sources`` and ``EDGE_ROWS``.  They were
# computed with the parser that parsed a source fast and then again,
# located, whenever anything had to be placed.
REFERENCE = FIXTURES / "parse_digests.txt"


def _reference() -> dict[str, str]:
    lines = REFERENCE.read_text(encoding="utf-8").splitlines()
    return {label: digest for digest, label in (line.split(" ", 1) for line in lines)}


def _assert_lexes_as_the_reference(source: str) -> bool:
    """The parser reads the tokens of ``reference_lex`` and the lexer notes
    its diagnostics; True when ``source`` has no problem lexeme."""
    with mock.patch.object(dsl, "_problem", wraps=dsl._problem) as problem:
        _assert_same(source)
    return not problem.called


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


def test_the_lexer_agrees_with_the_reference_and_the_parse_with_the_digests():
    reference = _reference()
    rows = _differential_sources()
    clean = [_assert_lexes_as_the_reference(source) for _, source in rows]
    # Every fixture and generated register, and most mutants, have no problem lexeme.
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
    assert _assert_lexes_as_the_reference(source) is clean
    assert parse_digest(dsl.parse_register(source, "in.evr")) == _reference()[f"edge {label}"]


def test_a_second_chunk_with_a_problem_is_read_a_match_at_a_time_after_the_first():
    source = _HEADER + _FILLER * 900 + "x @\n"
    cursor, notes = [0, iter(())], []
    with mock.patch.object(dsl, "_problem", wraps=dsl._problem) as problem:
        chunks = dsl._lexemes(source, cursor, notes)
        assert list(next(chunks)) == ["register", '"x"', "phase", "concept"]
        assert not problem.called
        assert list(next(chunks)) == ["x"]
    assert problem.call_args.args[0].span() == (len(source) - 3, len(source) - 1)
    assert notes == [("P004", "illegal character '@'", 5, False, "error", None)]
    assert list(next(chunks)) == [] and list(next(chunks)) == [""] and cursor[0] == 7


_PROBLEMS = {"P002": '"open', "P003": '"a\\qb"', "P004": "@"}


@pytest.mark.parametrize("code", sorted(_PROBLEMS))
@pytest.mark.parametrize("line", ["last", "first"])
def test_a_problem_beside_a_chunk_cut_is_placed_like_the_reference(code, line):
    """A problem on the last line of a chunk, line 820, which holds offset
    ``_CHUNK``, or on the first line of the next is read with that chunk,
    and placed at its own line and column."""
    head = _HEADER + _FILLER * 818
    problem = _PROBLEMS[code]
    if line == "last":
        source = head + f'stakeholder S1 "n" {problem} # {"x" * 70}\nkind direct\nend\n'
    else:
        source = head + f'stakeholder S1 "n" # {"x" * 70}\nkind direct {problem}\nend\n'
    cut = source.find("\n", dsl._CHUNK) + 1
    assert len(head) < dsl._CHUNK and source[cut:].startswith("kind")
    with mock.patch.object(dsl, "_problem", wraps=dsl._problem) as problem:
        list(chain.from_iterable(dsl._lexemes(source, [0, iter(())], [])))
    low, high = (0, cut) if line == "last" else (cut, len(source))
    assert [low <= call.args[0].start() < call.args[0].end() <= high
            for call in problem.call_args_list] == [True]
    _assert_same(source)
    lexical = [d for d in dsl.parse_register(source, "in.evr").diagnostics if d.code == code]
    assert [d.span.start_line for d in lexical] == [820 if line == "last" else 821]


def test_an_illegal_character_never_reaches_the_parser():
    """Illegal characters at the start and end of a line, of a chunk and of
    the source, and between tokens: the parser pulls only tokens, and each
    illegal character's ordinal goes to no lexeme."""
    source = ("@register \x0b\"x\" phase concept.\n" + _FILLER * 818 + "stakeholder S1 \"n\" -- "
              + "x" * 60 + "\n€kind direct\nend ٣\n+")
    tokens, diags = lexed(source, "in.evr")
    assert [d.code for d in diags] == ["P004"] * 8
    assert [tok[1] for tok in tokens] == ["register", '"x"', "phase", "concept", "stakeholder",
                                          "S1", '"n"', "x" * 60, "kind", "direct", "end", ""]
    parser = dsl._Parser(source, "in.evr")
    pulled = [parser.here()]
    while parser.tok:
        assert parser.tok[0] in '"_,' or parser.tok[0].isascii() and parser.tok[0].isalnum()
        parser.advance()
        pulled.append(parser.here())
    assert pulled == [1, 3, 4, 5, 7, 8, 9, 12, 14, 15, 16, 19]
    assert [d for d in dsl.parse_register(source, "in.evr").diagnostics if d.code == "P004"] == diags


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.evr")))
def test_a_clean_source_parses_without_reading_a_problem(name, monkeypatch):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    expected = dsl.parse_register(source, name)
    monkeypatch.setattr(dsl, "_problem", None)
    assert dsl.parse_register(source, name) == expected
