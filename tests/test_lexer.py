"""The master-regex lexer against the character loop it replaced.

``support.reference_lex`` is the old lexer, unchanged.  Both must give the
same tokens and the same diagnostics, in the same order, on the fixtures,
on generated registers and on seeded soup of the characters where a
tokenizer can slip: quotes, backslashes, line ends, the blanks the format
accepts and the ones it rejects, and non-ASCII letters and digits that
``\\w``, ``\\d`` or case folding would wrongly accept.
"""

from __future__ import annotations

import random

import pytest

from evrforge import dsl

from .conftest import FIXTURES
from .support import random_register, reference_lex

SOUP = ['"', "\\", "\n", "\r", "\t", "\x0b", "\x0c", "#", ",", ".", "-", "T", "C",
        "0", "1", "7", "é", "記", "٣", "ſ", " ", "x", "_", '"ab"', "1.2", "1.1.1-T"]


def _tokens(tokens) -> list[tuple]:
    return [(t.kind, t.text, t.value, t.line, t.col, t.end_col) for t in tokens]


def _assert_same(source: str) -> None:
    tokens, diags = dsl._lex(source, "in.evr")
    ref_tokens, ref_diags = reference_lex(source, "in.evr")
    assert _tokens(tokens) == _tokens(ref_tokens), source
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
])
def test_edge_cases_lex_like_the_reference(source):
    _assert_same(source)


def test_malformed_strings_report_every_problem_in_order():
    tokens, diags = dsl._lex('x "a\\qb\\', "s.evr")
    assert [(t.kind, t.text, t.value, t.col, t.end_col) for t in tokens] == [
        ("IDENT", "x", "x", 1, 2), ("STRING", '"a\\qb\\', "a\\qb\\", 3, 9), ("EOF", "", "", 9, 9)]
    assert [(d.code, d.span.start_col, d.span.end_col) for d in diags] == [
        ("P003", 5, 5), ("P003", 8, 8), ("P002", 3, 8)]


@pytest.mark.parametrize("tail,found", [
    ("later\n", "'later'"), ('"x"', "'\"x\"'"), ("", "'end of input'"),
])
def test_enum_error_lists_the_allowed_values(tail, found):
    result = dsl.parse_register('register "TM" phase ' + tail, "p.evr")
    assert [d.render() for d in result.diagnostics] == [
        f"ERROR P020 p.evr:1:21: expected one of concept, exploration, design, "
        f"deployment for phase, found {found}"]
