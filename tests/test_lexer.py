"""The master-regex lexer against the character loop it replaced.

``support.reference_lex`` is the old lexer, unchanged.  Both must give the
same tokens and the same diagnostics, in the same order, on the fixtures,
on generated registers and on seeded soup of the characters where a
tokenizer can slip: quotes, backslashes, line ends, the blanks the format
accepts and the ones it rejects, and non-ASCII letters and digits that
``\\w``, ``\\d`` or case folding would wrongly accept.
"""

from __future__ import annotations

import gc
import importlib.util
import random
from collections.abc import Iterator
from pathlib import Path

import pytest

from evrforge import dsl

from .conftest import FIXTURES
from .support import random_register, reference_lex

SOUP = ['"', "\\", "\n", "\r", "\t", "\x0b", "\x0c", "#", ",", ".", "-", "T", "C",
        "0", "1", "7", "é", "記", "٣", "ſ", " ", "x", "_", '"ab"', "1.2", "1.1.1-T"]


def _lex(source: str, file: str) -> tuple[list[tuple], list]:
    diags: list = []
    return list(dsl._lex(source, file, diags)), diags


def _assert_same(source: str) -> None:
    tokens, diags = _lex(source, "in.evr")
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


def test_malformed_strings_report_every_problem_in_order():
    tokens, diags = _lex('x "a\\qb\\', "s.evr")
    assert [(kind, text, value, col, end_col)
            for kind, text, value, line, col, end_col in tokens] == [
        ("IDENT", "x", "x", 1, 2), ("STRING", '"a\\qb\\', "a\\qb\\", 3, 9), ("EOF", "", "", 9, 9)]
    assert [(d.code, d.span.start_col, d.span.end_col) for d in diags] == [
        ("P003", 5, 5), ("P003", 8, 8), ("P002", 3, 8)]


def test_lexer_yields_tokens_as_they_are_pulled():
    diags: list = []
    tokens = dsl._lex('x @ "y', "p.evr", diags)
    assert isinstance(tokens, Iterator) and not isinstance(tokens, list)
    assert next(tokens) == ("IDENT", "x", "x", 1, 1, 2) and diags == []
    assert next(tokens)[0] == "STRING" and [d.code for d in diags] == ["P004", "P002"]
    assert next(tokens)[0] == "EOF"


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.evr")))
def test_tokens_are_plain_tuples_the_collector_untracks(name):
    tokens, _ = _lex((FIXTURES / name).read_text(encoding="utf-8"), name)
    shape = (str, str, str, int, int, int)
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
