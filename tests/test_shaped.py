"""A parsed document is validated, indexed and audited on trust.

``dsl.parse_register`` marks the document it builds (``model._SHAPED``):
every id was read in its kind's shape.  Validation then splits numbered
ids without a match and matches identifier ids only where one is ``end``,
and the index splits control ids.  Each of these must give what the full
checks give on an unmarked ``replace`` copy, for documents with violations
too, under both parser tiers.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from evrforge import dsl, rules, trace
from evrforge import model as m

from .conftest import FIXTURES
from .support import (
    parse_validated, random_register, tier, validation_paths_differ, with_scanning_index)
from .test_dsl import _scaffold_blocks
from .test_pins import SCAFFOLD, _scaffold_mutants


def _sources() -> list[tuple[str, str, str]]:
    """(label, source, file name): the fixtures, the scaffold mutants and the
    canonical texts of ``random_register`` seeds 0..199."""
    rows = [(path.name, path.read_text(encoding="utf-8"), path.name)
            for path in sorted(FIXTURES.glob("*.evr"))]
    rows += [(f"mutant {name}", source, SCAFFOLD.name)
             for name, source in _scaffold_mutants(SCAFFOLD.read_text(encoding="utf-8"))]
    rows += [(f"seed {seed}", dsl.serialize_canonical(random_register(random.Random(seed))), "r.evr")
             for seed in range(200)]
    return rows


@pytest.mark.parametrize("level", [0, 1])
def test_a_parsed_document_and_its_unmarked_copy_validate_index_and_audit_alike(level):
    rows = _sources()
    assert len(rows) == 6 + 994 + 200
    validated = with_violations = 0
    with tier(level):
        for label, source, file in rows:
            _, doc = parse_validated(source, file)
            if doc is None:
                continue
            validated += 1
            with_violations += bool(m.validate_register(doc))
            assert validation_paths_differ(doc) == [], label
    # 323 sources reach validation, 44 of them with violations.
    assert validated >= 300 and with_violations >= 40, (validated, with_violations)


def _end_sources():
    """(kind, label, source, line) for each kind with identifier ids: the
    scaffold's first block of the kind with its id ``end``, after a header,
    and the line of the block's keyword."""
    blocks = _scaffold_blocks()
    for keyword, block in dsl._BLOCKS.items():
        if block.kind and m.ENTITY_KINDS[block.kind][2] is m.IDENT_RE:
            first, *rest = blocks[keyword]
            word, _, after = first.split(" ", 2) + [""] * (first.count(" ") < 2)
            head = " ".join(filter(None, [word, "end", after]))
            source = "\n".join(['register "x" phase deployment', "", head, *rest]) + "\n"
            yield block.kind, m.ENTITY_KINDS[block.kind][0], source, 3


@pytest.mark.parametrize("level", [0, 1])
def test_an_id_named_end_gets_p012_at_its_block(level):
    rows = list(_end_sources())
    assert {kind for kind, *_ in rows} == {
        kind for kind, (_, _, shape) in m.ENTITY_KINDS.items() if shape is m.IDENT_RE}
    with tier(level):
        for kind, label, source, line in rows:
            result, doc = parse_validated(source, "end.evr")
            assert doc is not None and result.document is None, kind
            assert [(d.code, d.span.start_line, d.message) for d in result.errors
                    if d.code == "P012"] == [
                ("P012", line, f"{label} id 'end' is reserved: it closes a block")], kind
            assert validation_paths_differ(doc, deep=False) == [], kind


def test_only_the_document_a_parse_builds_is_marked():
    doc = dsl.parse_register((FIXTURES / "tm_full.evr").read_text(encoding="utf-8")).document
    assert vars(doc)[m._SHAPED] is True
    assert m._SHAPED not in vars(replace(doc))
    assert m._SHAPED not in vars(random_register(random.Random(0)))


class _ScannedGroups:
    """Stands in for ``DocIndex._attestations_by_subject``: each lookup
    scans every attestation."""

    def __init__(self, attestations):
        self.attestations = attestations

    def get(self, key, default=None):
        found = [a for a in self.attestations if (a.subject.kind, a.subject.ref) == key]
        return found or default


def _scanned(doc: m.RegisterDocument) -> m.RegisterDocument:
    """An equal document whose index finds attestations by scanning, the way
    the rules and the coverage table read them, without a copy."""
    copy = with_scanning_index(doc)
    copy.index._attestations_by_subject = _ScannedGroups(doc.attestations)
    return copy


def test_rules_and_coverage_read_the_attestation_groups_as_a_scan_finds_them():
    docs = [dsl.parse_register(path.read_text(encoding="utf-8"), path.name).document
            for path in sorted(FIXTURES.glob("*.evr"))]
    docs += [random_register(random.Random(seed)) for seed in range(200)]
    for doc in filter(None, docs):
        scanned = _scanned(doc)
        assert rules.run_rules(doc) == rules.run_rules(scanned)
        assert trace.coverage_report(doc) == trace.coverage_report(scanned)
