"""The parser's two tiers read every source alike.

A block kind is read by the table (tier 0) until the table has read
``dsl._HOT`` blocks of it in the process, then by a reader compiled for it
(tier 1).  ``support.tier`` holds every kind to one tier.  Under each, the
sources of ``fixtures/parse_digests.txt``, the scaffold mutants of the
``parse`` pins, the first 20,000 inputs of acceptance 9 and a source for
each way a block can fail must give the same ``ParseResult``: document,
diagnostics and header; and a source with a recorded digest or pin must
give that.
"""

from __future__ import annotations

import json
import random
from unittest import mock

import pytest

from evrforge import dsl

from .support import fuzz_source, parse_digest, tier
from .test_dsl import _scaffold_blocks
from .test_lexer import EDGE_ROWS, _differential_sources, _reference
from .test_pins import PINS, SCAFFOLD, _scaffold_mutants


def _parsed(sources: list[str], level: int, file: str = "in.evr") -> list[dsl.ParseResult]:
    with tier(level):
        return [dsl.parse_register(source, file) for source in sources]


def _alike(rows: list[tuple[str, str]], file: str = "in.evr") -> list[dsl.ParseResult]:
    """The tier-0 results of the ``(label, source)`` rows, once the tier-1
    results are found equal to them."""
    sources = [source for _, source in rows]
    table, compiled = _parsed(sources, 0, file), _parsed(sources, 1, file)
    differ = [(label, source) for (label, source), a, b in zip(rows, table, compiled) if a != b]
    assert not differ, f"{len(differ)} sources parse otherwise in the tiers, e.g. {differ[0]}"
    return table


def test_the_digest_sources_parse_alike_and_as_recorded():
    reference = _reference()
    rows = [*_differential_sources(),
            *((f"edge {label}", source) for label, source, _ in EDGE_ROWS)]
    assert len(rows) == len(reference) == 4112
    for (label, source), result in zip(rows, _alike(rows)):
        assert parse_digest(result) == reference[label], label


def test_the_scaffold_mutants_parse_alike_and_as_pinned():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))["parse"]
    rows = list(_scaffold_mutants(SCAFFOLD.read_text(encoding="utf-8")))
    assert [name for name, _ in rows] == list(pinned)
    for (name, _), result in zip(rows, _alike(rows, SCAFFOLD.name)):
        flag = "no document" if result.document is None else "document"
        assert "\n".join([flag] + [d.render() for d in result.diagnostics]) == pinned[name], name


def test_the_first_acceptance_9_inputs_parse_alike():
    rng = random.Random(123456)
    _alike([(f"input {i}", fuzz_source(rng)) for i in range(20_000)])


_HEADER = 'register "x" phase design\n'

# (label, block source, a code its parse gives): one way each that a block
# fails or is read past a problem, and strings with escapes.
FAILING = [
    ("P006", 'stakeholder S1 "n"\n  region "EU"\nend\n', "P006"),
    ("P034", 'corevalue 1 "c" rank 1\n  endurance 3\n  depth 2\nend\n', "P034"),
    ("P018", 'mission\n  feature 1\nend\nmission\n  note "again"\nend\n', "P018"),
    ("P010", 'alias "a" "b"\nalias "a" "c"\n', "P010"),
    ("P090 with a value", 'stakeholder S1 "n"\n  kind direct\n  colour "red"\nend\n', "P090"),
    ("P090 with a key-like identifier",
     'stakeholder S1 "n"\n  colour kind direct\n  shade blue region "EU"\nend\n', "P090"),
    ("P090 with nothing after it", 'stakeholder S1 "n"\n  kind direct\n  colour\nend\n', "P090"),
    ("P090 at the end of input", 'stakeholder S1 "n"\n  kind direct\n  colour', "P090"),
    ("end of input inside a block", 'stakeholder S1 "n"\n  kind direct\n', "P001"),
    ("no key or end", 'stakeholder S1 "n"\n  kind direct\n  42\nend\n', "P001"),
    ("a wrong header keyword", 'quality 1.1 "q" from 1 direction supports\nend\n', "P001"),
    ("a bad header value", 'quality 1.1 "q" of x direction supports\nend\n', "P001"),
    ("a bad attribute value", 'control 1.1.1-C1 for 1.1.1-T1\n  rigor high\nend\n', "P001"),
    ("a list that fails partway", 'control 1.1.1-C1 for 1.1.1-T1, x\n  form technical\nend\n',
     "P012"),
    ("a nested value that fails partway",
     'evr 1.1.1 "t" of 1.1\n  threshold "m" ">=" oops\nend\n', "P001"),
    ("a subject that fails partway", 'attestation A1 risk 1.1\n  by "x"\nend\n', "P012"),
    ("a subject word that is none", 'attestation A1 riks 1\n  by "x"\nend\n', "P001"),
    ("a lens that fails partway", 'session SES1\n  lens cultural 7\nend\n', "P001"),
    ("an escaped string", 'stakeholder S1 "a \\"b\\" \\\\ c"\n  kind direct\n'
                          '  note "one \\\\"\n  note "two"\nend\n', None),
]


@pytest.mark.parametrize("label,source,code", FAILING, ids=[row[0] for row in FAILING])
def test_each_way_a_block_fails_parses_alike(label, source, code):
    # The block twice, so the second one follows a recovery.
    result, = _alike([(label, _HEADER + source + "\n" + source)])
    assert code is None or code in {d.code for d in result.diagnostics}, result.diagnostics


def test_an_incomplete_group_comes_before_a_missing_attribute():
    """No row of the table has both a required attribute and a group with a
    required member, so a row made for the test gives a block that lacks
    both: a reader that checks them in another order than the table fails."""
    row = dsl._Block("corevalue", "core_values", ("rank", ("priority_rank", dsl._INT, "rank")), (
        ("name", "name", dsl._STRING, "core value name"),
        ("", "hierarchy_scores", dsl._GROUP, "scores"),
    ))
    source = _HEADER + "corevalue 1 rank 1\n  endurance 3\nend\ncorevalue 2 rank 2\nend\n"
    with mock.patch.dict(dsl._BLOCKS, {"corevalue": row}):
        result, = _alike([("both", source)])
    assert [(d.code, d.message) for d in result.diagnostics] == [
        ("P034", "core value 1 scores are incomplete (missing depth, indivisibility, "
                 "bearer_independence, intrinsic_worth)"),
        ("P006", "core value 2 declares no name"),
    ]


def _reordered(lines: list[str], rng: random.Random) -> dict[str, list[str]]:
    """A block's lines with its attribute lines reversed, shuffled,
    duplicated, and with an unknown key between each two, by label."""
    head, attrs, end = lines[0], lines[1:-1], lines[1:][-1:]  # an alias has no ``end``
    shuffled = attrs[:]
    rng.shuffle(shuffled)
    unknown = [line for attr in attrs for line in ('  colour "red"', attr)][1:]
    return {label: [head, *body, *end] for label, body in (
        ("reversed", attrs[::-1]), ("shuffled", shuffled), ("duplicated", attrs + attrs),
        ("unknown keys between", unknown))}


@pytest.mark.parametrize("keyword", list(dsl._BLOCKS))
def test_attributes_in_any_order_parse_alike(keyword):
    """A compiled reader tests each key once per round of its loop, in
    declaration order: attributes in another order, repeated or among
    unknown keys take more rounds and must give what the table gives."""
    lines = _scaffold_blocks()[keyword]
    rng = random.Random(keyword)
    _alike([(f"{keyword} {label}", _HEADER + "\n".join(block) + "\n")
            for label, block in _reordered(lines, rng).items()])
