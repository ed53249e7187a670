from __future__ import annotations

import gc
import itertools
import json
import random
import sys
import weakref
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evrforge import cli, dsl, rules, trace
from evrforge import model as m

from .conftest import FIXTURES
from .support import (FUZZ_PIECES, base_doc, fuzz_source, import_interchange, random_register,
                      reference_lex, unvalidated_analysis_doc)


def parse_ok(text: str) -> m.RegisterDocument:
    result = dsl.parse_register(text, "test.evr")
    assert result.document is not None, result.errors[:5]
    return result.document


registers = st.integers(min_value=0, max_value=2**32).map(
    lambda seed: random_register(random.Random(seed)))


class TestParse:
    def test_chain_fixture_counts(self, chain_doc):
        assert len(chain_doc.core_values) == 1
        assert chain_doc.core_values[0].id == 1
        assert chain_doc.core_values[0].name == "equality"
        assert len(chain_doc.qualities) >= 1
        assert [q.id for q in chain_doc.qualities][0] == "1.1"
        assert [e.id for e in chain_doc.evrs] == [
            "1.1.1", "1.1.2", "1.1.3", "1.1.4", "1.1.5"]

    def test_empty_input_gives_empty_document(self):
        result = dsl.parse_register("", "empty.evr")
        assert result.diagnostics == ()
        assert result.document is not None
        assert result.document.core_values == ()

    def test_comment_only_input_gives_empty_document(self):
        result = dsl.parse_register("# nothing here\n", "c.evr")
        assert result.document is not None
        assert result.diagnostics == ()

    def test_evr_prefix_mismatch_is_p014_with_span(self):
        text = (
            'register "TM" phase exploration\n\n'
            'soi\n  note "demo"\nend\n\n'
            'corevalue 1 "privacy" rank 1\nend\n\n'
            'quality 1.1 "confidentiality" of 1 direction supports\nend\n\n'
            'evr 1.2.1 "encrypted" of 1.1\nend\n'
        )
        result = dsl.parse_register(text, "bad.evr")
        assert result.document is None
        p014 = [d for d in result.diagnostics if d.code == "P014"]
        assert len(p014) == 1
        assert "prefix does not match parent quality" in p014[0].message
        assert p014[0].span.start_line == 13  # the evr header line

    def test_duplicate_id_reported(self):
        text = (
            'register "TM" phase concept\n'
            'stakeholder ST1 "a"\n  kind direct\nend\n'
            'stakeholder ST1 "b"\n  kind direct\nend\n'
        )
        result = dsl.parse_register(text, "dup.evr")
        assert result.document is None
        assert any(d.code == "P010" for d in result.diagnostics)

    def test_unknown_attribute_is_warning_p090(self):
        text = (
            'register "TM" phase concept\n'
            'stakeholder ST1 "a"\n  kind direct\n  colour "blue"\nend\n'
        )
        result = dsl.parse_register(text, "warn.evr")
        assert result.document is not None
        assert [d.code for d in result.diagnostics] == ["P090"]
        assert result.diagnostics[0].severity == "warning"

    def test_bare_reference_leaves_end_to_its_block(self):
        # A reference whose id is missing must not take the block's end for
        # an id, which swallowed the next block as unknown attributes.
        text = (
            'register "TM" phase exploration\n'
            'soi\n  note "demo"\nend\n'
            'stakeholder ST1 "patients"\n  kind direct\nend\n'
            'session SES1\n  participant{}\nend\n'
            'statement V1\n  session SES1\n  by ST1\n  lens utilitarian\nend\n'
        )
        result = dsl.parse_register(text.format(""), "ref.evr")
        assert [d.render() for d in result.diagnostics] == [
            "ERROR P001 ref.evr:10:1: expected stakeholder id, found 'end'"]
        assert [s.id for s in parse_ok(text.format(" ST1")).statements] == ["V1"]

    def test_an_id_named_end_is_refused(self):
        # The writer would put the id where a reader takes ``end`` for the
        # block's close, so the text would not parse back.
        doc = base_doc(m.Phase.EXPLORATION,
                       stakeholders=(m.Stakeholder("end", "patients", m.StakeholderKind.DIRECT),),
                       sessions=(m.ElicitationSession("SES1", participants=("end",)),))
        assert [(v.code, v.subject, v.message) for v in m.validate_register(doc)] == [
            ("P012", "end", "stakeholder id 'end' is reserved: it closes a block")]
        with pytest.raises(m.RegisterError):
            dsl.serialize_canonical(doc)

    def test_recovery_reports_multiple_block_errors(self):
        text = (
            'register "TM" phase concept\n'
            'stakeholder ST1 "a"\n  kind wrong\nend\n'
            'sos S1 "cloud"\n  cooperation sideways\nend\n'
        )
        result = dsl.parse_register(text, "multi.evr")
        assert result.document is None
        assert len(result.errors) == 2

    def test_error_monotonicity_deleting_bad_block(self):
        bad_block = 'sos S1 "cloud"\n  cooperation sideways\nend\n'
        text = 'register "TM" phase concept\n\n' + bad_block
        result = dsl.parse_register(text, "one.evr")
        codes = {d.code for d in result.errors}
        assert codes == {"P020"}
        cleaned = dsl.parse_register('register "TM" phase concept\n', "one.evr")
        assert not any(d.code == "P020" for d in cleaned.diagnostics)
        assert cleaned.document is not None

    def test_unterminated_string_has_in_bounds_span(self):
        result = dsl.parse_register('register "TM\n', "u.evr")
        assert result.document is None
        assert any(d.code == "P002" for d in result.diagnostics)
        for d in result.diagnostics:
            assert d.span.start_line >= 1
            assert d.span.start_col >= 1

    def test_cultural_lens_requires_framework(self):
        text = (
            'register "TM" phase exploration\n'
            'soi\n  note "demo"\nend\n'
            'session SES1\n  lens cultural ""\nend\n'
        )
        result = dsl.parse_register(text, "lens.evr")
        assert result.document is None
        assert any(d.code == "P030" for d in result.diagnostics)

    # A session's repeated ``lens`` lines and a statement's one ``lens``.
    LENSES = ('register "TM" phase exploration\nsoi\n  note "demo"\nend\n'
              'stakeholder ST1 "patients"\n  kind direct\nend\n'
              'session SES1\n  participant ST1\n  lens {lens}\n  lens {lens}\nend\n'
              'statement V1\n  session SES1\n  by ST1\n  lens {lens}\nend\n')

    @pytest.mark.parametrize("lens, read", [
        *((kind.value, m.Lens(kind)) for kind in m.LensKind if kind is not m.LensKind.CULTURAL),
        ('cultural "x"', m.Lens(m.LensKind.CULTURAL, "x")),
    ])
    def test_every_lens_kind_reads_to_its_lens(self, lens, read):
        doc = parse_ok(self.LENSES.format(lens=lens))
        assert doc.sessions[0].lenses_used == (read, read)
        assert doc.statements[0].lens == read

    @pytest.mark.parametrize("lens, rendered", [
        ("cultural", ["ERROR P030 lens.evr:8:1: cultural lens carries no framework name"]),
        ("end", ["ERROR P020 lens.evr:11:8: expected one of utilitarian, virtue, duty, cultural "
                 "for lens kind, found 'end'",
                 "ERROR P005 lens.evr:12:1: unknown block keyword 'end'"]),
        *((token, ["ERROR P020 lens.evr:11:8: expected one of utilitarian, virtue, duty, "
                   f"cultural for lens kind, found {token!r}"])
          for token in ('"x"', "7", "nosuch")),
    ])
    def test_a_lens_that_does_not_read_keeps_its_diagnostic(self, lens, rendered):
        text = self.LENSES.format(lens="duty").replace("lens duty\nend", f"lens {lens}\nend", 1)
        result = dsl.parse_register(text, "lens.evr")
        assert result.document is None
        assert [d.render() for d in result.diagnostics] == rendered

    def test_lexer_and_parser_problems_report_together(self):
        text = ('register "x" phase concept\nstakeholder S1 "a\\qb\n  kind direct @\nend\n'
                'stakeholder S2 "b"\n  kind nope\nend\n')
        result = dsl.parse_register(text, "mix.evr")
        assert [d.render() for d in result.diagnostics] == [
            "ERROR P002 mix.evr:2:16: unterminated string",
            "ERROR P003 mix.evr:2:18: unsupported escape sequence; "
            "only \\\" and \\\\ are recognized",
            "ERROR P004 mix.evr:3:15: illegal character '@'",
            "ERROR P020 mix.evr:6:8: expected one of direct, indirect for stakeholder kind, "
            "found 'nope'",
        ]

    def test_an_unknown_attestation_subject_is_reported_at_its_word(self):
        text = ('register "x" phase concept\nattestation A1 bogus\n  by "n"\nend\n'
                'stakeholder S1 "a"\n  kind direct\nend\n')
        result = dsl.parse_register(text, "a.evr")
        assert [d.render() for d in result.diagnostics] == [
            "ERROR P001 a.evr:2:16: expected priority, risk, mission, decision or rule, "
            "found 'bogus'"]

    def test_violations_are_placed_after_the_parse_in_any_order(self):
        # P011 and P023 sit before the P090 reported during the parse, so
        # their spans are located behind the last offset the parse located.
        text = ('# placement\nregister "TM" phase concept\n'
                'persona P1 "pat"\n  stakeholder NOBODY\nend\n'
                'stakeholder ST1 "a"\n  kind direct\n  colour "blue"\nend\n')
        result = dsl.parse_register(text, "v.evr")
        assert [d.render() for d in result.diagnostics] == [
            "ERROR P011 v.evr:3:1: persona P1 references unknown stakeholder 'NOBODY'",
            "ERROR P023 v.evr:3:1: personas are not allowed in phase concept",
            "WARNING P090 v.evr:8:3: unknown attribute key 'colour'",
        ]
        assert result.header == dsl.SourceSpan("v.evr", 2, 1, 2, 8)

    def test_a_violation_is_placed_at_an_entity_of_its_own_kind(self):
        # Ids are unique only within one kind: an alias and a persona named
        # like the stakeholder above them report at their own lines.
        text = ('# one id, three kinds\nregister "x" phase design\nsoi\n  note "runs a help desk"\nend\n'
                'stakeholder A "users"\n  kind direct\nend\n# an alias that names itself\nalias "A" "A"\n\n'
                'persona A "pat"\n  stakeholder NOPE\nend\n')
        result = dsl.parse_register(text, "a.evr")
        assert [d.render() for d in result.diagnostics] == [
            "ERROR P019 a.evr:10:1: alias 'A' maps to itself",
            "ERROR P011 a.evr:12:1: persona A references unknown stakeholder 'NOPE'",
        ]

    @pytest.mark.parametrize("source", ['sos register "x"\nend\n',
                                        'stakeholder register "x"\n  kind direct\nend\n'])
    def test_an_entity_named_register_is_not_the_header(self, source):
        result = dsl.parse_register(source, "r.evr")
        assert result.header is None
        assert result.diagnostics[0].render() == (
            "ERROR P001 r.evr:1:1: expected keyword 'register', found "
            + repr(source.split()[0]))

    def test_a_document_level_violation_is_placed_at_the_header(self):
        text = ('# header\nregister "x" phase exploration\n'
                'stakeholder register "a"\n  kind direct\nend\n')
        result = dsl.parse_register(text, "h.evr")
        assert [d.render() for d in result.diagnostics] == [
            "ERROR P029 h.evr:2:1: concept of operation must be recorded before phase "
            "exploration"]
        assert result.header == dsl.SourceSpan("h.evr", 2, 1, 2, 8)

    def test_a_carriage_return_in_a_string_is_p037(self):
        # ``parse_register`` itself: ``check`` reads every "\r" as a line end.
        text = ('register "x\ry" phase concept\nstakeholder S1 "a\rb"\n  kind direct\n'
                '  note "one\rtwo"\nend\n')
        result = dsl.parse_register(text, "a.evr")
        assert [d.render() for d in result.diagnostics] == [
            "ERROR P037 a.evr:1:1: register name must not contain line breaks",
            "ERROR P037 a.evr:1:1: soi name must not contain line breaks",
            "ERROR P037 a.evr:2:1: stakeholder name must not contain line breaks",
            "ERROR P037 a.evr:2:1: stakeholder note must not contain carriage returns",
        ]
        assert result.document is None

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no limit on int() digits")
    def test_numbers_past_a_lowered_digit_limit_are_refused_in_place(self):
        digits = "7" * 700
        text = (f'register "d" phase concept\nsos S1 "cloud"\n  tier {digits}\nend\n'
                f'corevalue 1 "privacy" rank {digits}\nend\n'
                f'quality 1.{digits} "q" of 1 direction supports\nend\n')
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            result = dsl.parse_register(text, "d.evr")
        finally:
            sys.set_int_max_str_digits(old)
        assert [d.render() for d in result.diagnostics] == [
            "ERROR P021 d.evr:3:8: tier is out of range (700 digits)",
            "ERROR P021 d.evr:5:28: priority rank is out of range (700 digits)",
            "ERROR P012 d.evr:7:9: expected a quality id of the form N.M, "
            "found a 702-character id",
        ]

    @pytest.mark.parametrize("source, rendered", [
        ('register "x" phase concept\nstakeholder S1 "a"\n  kind direct\n  colour "blue"\nend\n',
         ["WARNING P090 one.evr:4:3: unknown attribute key 'colour'"]),
        ('register "x" phase concept\nstakeholder S1 "a"\n  kind direct\n  "tea\\q"\nend\n',
         ["ERROR P001 one.evr:4:3: expected an attribute key or 'end', found '\"tea\\\\q\"'",
          "ERROR P003 one.evr:4:7: unsupported escape sequence; only \\\" and \\\\ are recognized"]),
        ('register "x" phase concept\nstakeholder S1 "a"\n  kind direct\n  colour "blue"\nend\n'
         'persona P1 "pat"\n  stakeholder NOBODY\nend\n',
         ["WARNING P090 one.evr:4:3: unknown attribute key 'colour'",
          "ERROR P011 one.evr:6:1: persona P1 references unknown stakeholder 'NOBODY'",
          "ERROR P023 one.evr:6:1: personas are not allowed in phase concept"]),
    ], ids=["warning", "problem", "violation"])
    def test_a_source_with_diagnostics_is_parsed_once(self, source, rendered, monkeypatch):
        made = []

        class Counted(dsl._Parser):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(dsl, "_Parser", Counted)
        result = dsl.parse_register(source, "one.evr")
        assert len(made) == 1
        assert [d.render() for d in result.diagnostics] == rendered

    def test_a_parser_is_freed_without_the_cyclic_collector(self):
        assert _assert_freed((FIXTURES / "tm_full.evr").read_text(encoding="utf-8")) == []

    def test_a_parser_that_placed_problems_is_freed_without_the_cyclic_collector(self):
        # A kept escape makes the lexer read the last chunk a match at a time; a P090 and a P001
        # are noted.
        source = (FIXTURES / "tm_full.evr").read_text(encoding="utf-8")
        assert _assert_freed(source + 'stakeholder S9 "a\\q"\n  bogus 1\n  ,\nend\n') == [
            "P003", "P090", "P001"]


def _assert_freed(source: str) -> list[str]:
    """A parser of ``source``, once it has parsed and placed its diagnostics,
    is freed as its last reference goes; the codes of those diagnostics."""
    parser = dsl._Parser(source, "f.evr")
    parser.parse()
    codes = [d.code for d in parser.placed()[0]]
    freed = weakref.ref(parser)
    gc.disable()
    try:
        del parser
        assert freed() is None
    finally:
        gc.enable()
    return codes


class TestSerialize:
    def test_empty_register_serializes_to_header_only(self):
        doc = m.new_empty_register("TM")
        assert dsl.serialize_canonical(doc) == 'register "TM" phase concept\n'

    def test_round_trip_on_chain_fixture(self, chain_doc):
        again = parse_ok(dsl.serialize_canonical(chain_doc))
        assert again == chain_doc

    def test_round_trip_on_clean(self, clean_doc):
        again = parse_ok(dsl.serialize_canonical(clean_doc))
        assert again == clean_doc

    def test_escaping_survives_round_trip(self):
        doc = replace(
            m.new_empty_register('say "hi" \\ there'),
            soi=m.Soi(name='say "hi" \\ there'),
            alias_map={'a "quoted" name': "privacy"},
        )
        assert parse_ok(dsl.serialize_canonical(doc)) == doc

    def test_every_short_string_of_quotes_and_backslashes_reads_back(self):
        """All 3,280 strings of length 0 to 7 over ``a``, ``\\`` and ``"``: the
        lexeme ``_quote`` writes reads back as the string, and as a project
        name the one-line register parses to it and is its own canonical text."""
        strings = ["".join(chars) for n in range(8) for chars in itertools.product('a\\"', repeat=n)]
        assert len(strings) == 3280
        for value in strings:
            lexeme = dsl._quote(value)
            assert dsl._sval(lexeme) == value, lexeme
            source = f"register {lexeme} phase concept\n"
            doc = parse_ok(source)
            assert doc.project.name == value, lexeme
            assert dsl.serialize_canonical(doc) == source

    def test_resolving_escapes_enters_no_python_function_but_sval(self):
        """``_sval`` resolves escapes in C.  A replacement template (``r"\\1"``)
        made ``re`` enter ``_subx``, ``filter`` and ``expand_template`` in
        Python for each match on Python 3.10 and 3.11; from 3.12 ``re``
        expands a template in C, so there this test passes with a template too."""
        value = 'she said "no" to C:\\temp\\' * 20
        lexeme = dsl._quote(value)
        assert len(lexeme) - len(value) - 2 == 80  # one backslash added per escape
        dsl._sval(lexeme)  # what re compiles and caches on a first call
        entered = []
        sys.setprofile(lambda frame, event, arg: event == "call"
                       and entered.append(frame.f_code.co_name))
        try:
            resolved = dsl._sval(lexeme)
        finally:
            sys.setprofile(None)
        assert resolved == value
        assert entered == ["_sval"]

    def test_multi_line_notes_survive_round_trip(self):
        doc = m.new_empty_register("TM")
        doc = replace(doc, phase=m.Phase.EXPLORATION,
                      soi=replace(doc.soi, concept_of_operation="line one\n\nline three\n"))
        assert parse_ok(dsl.serialize_canonical(doc)) == doc

    def test_repeated_lens_survives_round_trip(self):
        virtue, ubuntu = m.Lens(m.LensKind.VIRTUE), m.Lens(m.LensKind.CULTURAL, "ubuntu")
        doc = replace(
            m.new_empty_register("TM"), phase=m.Phase.EXPLORATION,
            soi=m.Soi(name="TM", concept_of_operation="demo"),
            sessions=(m.ElicitationSession(id="S1", lenses_used=(virtue, ubuntu, virtue, ubuntu)),),
        )
        assert m.validate_register(doc) == ()
        assert parse_ok(dsl.serialize_canonical(doc)) == doc

    @settings(max_examples=120, deadline=None)
    @given(registers)
    def test_round_trip_and_idempotence(self, doc):
        text = dsl.serialize_canonical(doc)
        again = parse_ok(text)
        assert again == doc
        assert dsl.serialize_canonical(again) == text

    def test_invalid_document_raises_instead_of_writing(self, clean_doc):
        first, *rest = clean_doc.controls
        doc = replace(clean_doc, controls=(replace(first, threats=()), *rest))
        with pytest.raises(m.RegisterError, match=f"control {first.id} mitigates no threats"):
            dsl.serialize_canonical(doc)

    def test_a_parsed_document_is_written_without_validating_it_again(self, monkeypatch):
        doc = parse_ok((FIXTURES / "tm_full.evr").read_text(encoding="utf-8"))
        validate, calls = m.validate_register, []
        monkeypatch.setattr(m, "validate_register",
                            lambda *args, **kwargs: calls.append(args) or validate(*args, **kwargs))
        text = dsl.serialize_canonical(doc)
        assert calls == []
        assert dsl.serialize_canonical(replace(doc)) == text
        assert len(calls) == 1
        with pytest.raises(m.RegisterError, match="sessions are not allowed in phase concept"):
            dsl.serialize_canonical(replace(doc, phase=m.Phase.CONCEPT))
        assert len(calls) == 2

    @pytest.mark.parametrize("name, target, message", [
        ("privacy", "privacy", "alias 'privacy' maps to itself"),
        ("a\nb", "anonymity", "alias name must not contain line breaks"),
    ])
    def test_an_alias_map_changed_after_the_parse_is_validated(self, name, target, message):
        doc = parse_ok('register "TM" phase concept\nalias "privacy" "anonymity"\n')
        dsl.serialize_canonical(doc)
        doc.alias_map[name] = target
        with pytest.raises(m.RegisterError) as refused:
            dsl.serialize_canonical(doc)
        assert str(refused.value) == f"cannot serialize an invalid register: {message}"


class TestBlockTable:
    def test_every_model_field_has_a_slot_or_attribute(self):
        for block in dsl._BLOCKS.values():
            slots = [slot for slot in block.head if not isinstance(slot, str)]
            covered = {a.field for a in slots + block.attrs} | set(block.derived)
            assert covered == {f.name for f in fields(block.cls)}, block.keyword
        slots = {block.slot for block in dsl._BLOCKS.values()}
        assert slots | {"project", "phase"} == {f.name for f in fields(m.RegisterDocument)}

    def test_line_break_messages_name_keyword_and_key(self, clean_doc):
        holder = replace(clean_doc.stakeholders[0], region="A\nB", description="one\r\ntwo")
        doc = replace(clean_doc, stakeholders=(holder, *clean_doc.stakeholders[1:]))
        assert [(v.subject, v.message) for v in m.validate_register(doc) if v.code == "P037"] == [
            (holder.id, "stakeholder note must not contain carriage returns"),
            (holder.id, "stakeholder region must not contain line breaks"),
        ]

    def test_a_source_without_a_carriage_return_parses_to_no_p037(self):
        """No token but a string can hold a line break, a string cannot hold a
        line feed, and notes join their lines with line feeds, which prose may
        hold: so only a source with a carriage return can give P037."""
        rng = random.Random(1717)
        sources = [*(path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.evr"))),
                   *(dsl.serialize_canonical(random_register(random.Random(seed)))
                     for seed in range(100)),
                   *(fuzz_source(rng) for _ in range(3000))]
        documents = 0
        for source in sources:
            assert "\r" not in source
            doc = dsl.parse_register(source, "p.evr").document
            if doc is not None:
                documents += 1
                assert [v for v in m.validate_register(doc) if v.code == "P037"] == [], source
        assert documents > 300


def _lexed(source: str) -> list[tuple]:
    return reference_lex(source, "t.evr")[0][:-1]  # EOF left out


# Every distinct token of the fixtures and of the fuzz soup, and numbers and
# ids past a lowered digit limit.
_TOKENS = list({tok[:3]: tok for tok in [
    *(tok for path in sorted(FIXTURES.glob("*.evr"))
      for tok in _lexed(path.read_text(encoding="utf-8"))),
    *(tok for piece in FUZZ_PIECES for tok in _lexed(piece)),
    *_lexed(f"{'7' * 700} 1.{'2' * 700} 1.1.{'3' * 650}-T1 {'0' * 641}"),
]}.values())


def _one_token_entries() -> list[tuple]:
    """One attribute entry of the parser, ``(name, test, convert, read,
    what, repeated)``, per reader of one token in the block table, with
    ``repeated`` false."""
    entries = {}
    for block in dsl._BLOCKS.values():
        heads = [slot for slot in block.reads if not isinstance(slot, str)]
        for entry in heads + list((block.keys or {}).values()):
            if entry[1] is not dsl._NO_LEXEME:
                entries.setdefault(entry[3], (*entry[:5], False))
    return list(entries.values())


def _outcome(call) -> tuple:
    try:
        return "value", call()
    except dsl._SyntaxProblem as problem:
        return "problem", problem.args


def _scaffold_blocks() -> dict[str, list[str]]:
    """The lines of the scaffold's first block of each kind, by keyword."""
    blocks: dict[str, list[str]] = {}
    lines = None
    for line in cli.scaffold_text("x").splitlines():
        keyword = line.split(" ", 1)[0]
        if keyword in dsl._BLOCKS and keyword not in blocks:
            blocks[keyword] = lines = [line]
        elif lines is not None and line.startswith(" "):
            lines.append(line)
        elif lines is not None and line == "end":
            lines.append(line)
            lines = None
    return blocks


def _with_each_token(block, lines: list[str]):
    """``lines`` with each token of ``_TOKENS`` in place of the value of each
    one-token header slot whose place on the line is fixed, and after each
    key of a one-token attribute on a line of its own before ``end``."""
    head = reference_lex(lines[0], "r.evr")[0]
    for at, slot in enumerate(block.reads):
        if slot.__class__ is not str and slot[1] is not dsl._NO_LEXEME:
            *_, col, end_col = head[at + 1]
            for tok in _TOKENS:
                yield "\n".join([lines[0][:col - 1] + tok[1] + lines[0][end_col - 1:], *lines[1:]])
        if slot.__class__ is not str and slot[1] is dsl._NO_LEXEME:
            break  # a value of several tokens: the next slot has no fixed place
    for key, entry in (block.keys or {}).items():
        if entry[1] is not dsl._NO_LEXEME:
            for tok in _TOKENS:
                yield "\n".join([*lines[:-1], f"  {key} {tok[1]}", lines[-1]])


def _block_outcome(source: str, read) -> tuple:
    """What ``read(parser, head)`` does with the block ``source``: its value or
    problem, and all it leaves in the parser."""
    parser = dsl._Parser(source, "r.evr")
    parser.advance()
    outcome = _outcome(lambda: read(parser, 0))
    return (outcome, parser.tok, parser.here(), parser.notes, parser.entities, parser.singles,
            parser.aliases, parser.heads)


class TestOneTokenReaders:
    """``parse_attrs`` reads a value of one token in place; the reader's own
    ``read`` must give the same value, or raise the same problem.  Each
    token is fed as a parse reads it, after a key in a source of its own.
    Each kind's compiled reader reads such a value in line too, so each
    token is also fed to it, in each one-token header slot and attribute of
    the scaffold's block of the kind, and it must leave what the table
    leaves."""

    def _compare(self):
        entries = _one_token_entries()
        assert len(entries) >= 20
        for entry in entries:
            name, read, what = entry[0], entry[3], entry[4]
            for tok in _TOKENS:
                source = f"k {tok[1]}\nend"
                values = {}
                inline_parser = dsl._Parser(source, "r.evr")
                inline = _outcome(lambda: inline_parser.parse_attrs({"k": entry}, values)
                                  or values[name])
                assert inline[0] == "problem" or inline_parser.tok == "", (entry, tok)
                parser = dsl._Parser(source, "r.evr")
                parser.advance()
                derived = _outcome(lambda: read(parser, what))
                assert derived[0] == "problem" or parser.tok == "end", (entry, tok)
                assert inline == derived, (entry, tok)
        blocks = _scaffold_blocks()
        assert blocks.keys() == dsl._BLOCKS.keys()
        for keyword, lines in blocks.items():
            block = dsl._BLOCKS[keyword]
            compiled = dsl._reader(block)
            for source in _with_each_token(block, lines):
                table = _block_outcome(source, lambda p, head: p.parse_block(block, head))
                assert _block_outcome(source, compiled) == table, (keyword, source)

    def test_inline_and_derived_reads_agree(self):
        self._compare()

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no limit on int() digits")
    def test_inline_and_derived_reads_agree_under_a_lowered_digit_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            self._compare()
        finally:
            sys.set_int_max_str_digits(old)


def _listify(value):
    """``value`` with every tuple, nested ones too, turned into a list."""
    if isinstance(value, tuple):
        return [_listify(item) for item in value]
    if is_dataclass(value):
        return replace(value, **{f.name: _listify(getattr(value, f.name)) for f in fields(value)})
    return value


class TestInterchange:
    def test_chain_evrs_array_has_length_five(self, chain_doc):
        payload = json.loads(dsl.export_interchange(chain_doc))
        assert len(payload["evrs"]) == 5

    def test_empty_register_has_empty_arrays(self):
        payload = json.loads(dsl.export_interchange(m.new_empty_register("X")))
        assert payload["core_values"] == []
        assert payload["stakeholders"] == []
        assert payload["mission"] is None

    def test_top_level_key_order_is_fixed(self):
        payload = json.loads(dsl.export_interchange(m.new_empty_register("X")))
        assert tuple(payload.keys()) == (
            "project", "phase", "soi", "sos_elements", "stakeholders", "contexts",
            "sessions", "statements", "core_values", "qualities", "evrs", "threats",
            "controls", "dispositions", "functional_requirements", "design_concepts",
            "personas", "attestations", "mission", "investment_decision", "feedback",
            "alias_map",
        )

    def test_lists_export_like_tuples(self, clean_doc):
        # Seed 244 holds at least one entity of every kind.
        for doc in (clean_doc, random_register(random.Random(244))):
            listed = _listify(doc)
            assert isinstance(listed.evrs, list) and isinstance(listed.sessions[0].lenses_used, list)
            assert dsl.export_interchange(listed) == dsl.export_interchange(doc)

    def test_reimport_equals_original(self, clean_doc):
        assert import_interchange(dsl.export_interchange(clean_doc)) == clean_doc

    @pytest.mark.parametrize("edit", [
        lambda p: p["controls"][0].pop("rigor"),
        lambda p: p["controls"][0].update(weight=1),
        lambda p: p["controls"][0].update(rigor="2"),
        lambda p: p["controls"][0].update(rigor=True),
        lambda p: p["attestations"][0]["signatory"].update(title="dr"),
        lambda p: p["sessions"][0].update(lenses_used=p["sessions"][0].pop("lenses")),
    ])
    def test_reader_rejects_what_the_model_does_not_declare(self, clean_doc, edit):
        payload = json.loads(dsl.export_interchange(clean_doc))
        edit(payload)
        with pytest.raises((TypeError, ValueError)):
            import_interchange(json.dumps(payload))

    @settings(max_examples=60, deadline=None)
    @given(registers)
    def test_reimport_round_trip(self, doc):
        assert import_interchange(dsl.export_interchange(doc)) == doc


def _assert_indent_2_json(text: str) -> None:
    """``text`` is exactly what ``json.dumps(indent=2)`` writes for its own
    payload: the same key order, spacing, escapes and numbers."""
    assert json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n" == text


# Characters a JSON string writer must escape, or must pass through as they are.
_AWKWARD = st.sampled_from(['"', "\\", "\x00", "\x08", "\x1f", "\x7f", "\n", "\r", "\t",
                            "\u2028", "\u2029", "\ufeff", "\U0001f600", "\U00010348", "é"])


def _holding(text: str) -> m.RegisterDocument:
    """An unvalidated document with ``text`` in strings at every depth: the
    project, a tuple item, a nested group, an enum's neighbours, alias keys."""
    doc = unvalidated_analysis_doc()
    signed = replace(doc.attestations[0], signatory_name=text, statement=text)
    return replace(
        doc, project=m.ProjectMeta(name=text, version=text),
        stakeholders=(m.Stakeholder(id=text, name=text, kind=m.StakeholderKind.DIRECT,
                                    description=text),),
        controls=(replace(doc.controls[0], threats=(text, text)), *doc.controls[1:]),
        attestations=(signed, *doc.attestations[1:]),
        alias_map={text: text, "b": text},
    )


class TestInterchangeText:
    """The interchange text, byte for byte, against ``json.dumps`` itself."""

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.evr")))
    def test_fixtures_export_as_json_dumps_writes(self, name):
        doc = parse_ok((FIXTURES / name).read_text(encoding="utf-8"))
        _assert_indent_2_json(dsl.export_interchange(doc))

    def test_generated_registers_export_as_json_dumps_writes(self):
        for seed in range(150):
            _assert_indent_2_json(dsl.export_interchange(random_register(random.Random(seed))))

    def test_unvalidated_and_empty_documents_export_as_json_dumps_writes(self):
        for doc in (unvalidated_analysis_doc(), m.new_empty_register("X")):
            _assert_indent_2_json(dsl.export_interchange(doc))

    @settings(max_examples=150, deadline=None)
    @given(st.text(st.one_of(_AWKWARD, st.characters()), max_size=12))
    def test_any_string_exports_as_json_dumps_writes(self, text):
        _assert_indent_2_json(dsl.export_interchange(_holding(text)))

    def test_numbers_outside_the_model_export_as_json_dumps_writes(self):
        doc = unvalidated_analysis_doc()
        odd = replace(doc.controls[0], rigor=1.5, description=None)
        _assert_indent_2_json(dsl.export_interchange(replace(doc, controls=(odd,))))

    def test_a_value_json_cannot_write_raises_register_error(self):
        doc = unvalidated_analysis_doc()
        odd = replace(doc.controls[0], threats={"1.1.1-T1"})
        with pytest.raises(m.RegisterError, match="Object of type set is not JSON serializable"):
            dsl.export_interchange(replace(doc, controls=(odd,)))


class TestSpanBounds:
    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=120))
    def test_arbitrary_text_never_crashes_and_spans_stay_in_bounds(self, text):
        result = dsl.parse_register(text, "fuzz.evr")
        lines = text.split("\n")
        for d in result.diagnostics:
            assert 1 <= d.span.start_line <= max(1, len(lines))
            line = lines[d.span.start_line - 1] if d.span.start_line <= len(lines) else ""
            assert 1 <= d.span.start_col <= len(line) + 1
        assert (result.document is not None) == (not result.errors)


_CONTRACT_SCRIPT = """
import sys
from evrforge import model as m
from evrforge import trace
from tests.support import apply_inverse

doc = m.new_empty_register("X")
m.ENTITY_KINDS = dict(list(m.ENTITY_KINDS.items())[:-1])
try:
    apply_inverse(doc, trace.diff_registers(doc, doc), doc)
except RuntimeError as exc:
    print(exc)
print(sys.flags.optimize)
"""


def test_contract_checks_hold_under_python_O():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(dsl.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(src.parent)])}
    done = subprocess.run([sys.executable, "-O", "-c", _CONTRACT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "apply_inverse does not match the document fields ['feedback']",
        "1",
    ]


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.evr")))
def test_the_pipeline_leaves_no_cyclic_garbage(name):
    def pipeline():
        doc = dsl.parse_register(text, name).document
        if doc is not None:
            m.validate_register(doc)
            findings = rules.run_rules(doc)
            dsl.serialize_canonical(doc)
            dsl.export_interchange(doc)
            cli.render_audit_report(doc, findings)
            trace.export_dot(doc)

    text = (FIXTURES / name).read_text(encoding="utf-8")
    pipeline()  # first uses build caches, which are kept
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        pipeline()
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert garbage == []
