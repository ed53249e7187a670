"""Text format for ethical value registers.

The format is line-oriented but indentation-insensitive: a register starts
with a ``register`` header, followed by keyword-opened blocks closed by
``end``.  Comments run from ``#`` to the end of the line.  Strings are
double-quoted with backslash escapes for quote and backslash only; longer
prose is written as repeated ``note`` lines inside a block.

Sketch of the grammar::

    register    := header block*
    header      := "register" STRING ["version" STRING] "phase" PHASE
    block       := soi | stakeholder | sos | context | session | statement
                 | corevalue | quality | evr | threat | control
                 | disposition | funcreq | concept | persona
                 | attestation | mission | decision | feedback | alias
    corevalue   := "corevalue" INT STRING "rank" INT attrs "end"
    quality     := "quality" N.M STRING "of" INT "direction" DIR attrs "end"
    evr         := "evr" N.M.K STRING "of" N.M attrs "end"
    threat      := "threat" N.M.K-Tj "of" N.M.K attrs "end"
    control     := "control" N.M.K-Cj "for" TID ("," TID)* attrs "end"
    alias       := "alias" STRING STRING
    attrs       := (KEY value*)*      keys and values declared per block kind

``_BLOCKS`` rows state the text format of each block kind once, header
slots and attributes in canonical order; an entity kind's id slot comes
from its document field (``model._kind``).  The parser, the canonical
writer and the line-break check (P037) all follow the table.  Parsing
never aborts: problems come back as diagnostics with source spans, and
recovery continues after a broken block so one run reports many errors.
A document is returned only when no error-severity diagnostic was
produced.
"""

import functools
import json
import re
import sys
from collections.abc import Callable, Iterator
from dataclasses import MISSING, fields, is_dataclass, replace
from enum import Enum
from itertools import chain, repeat
from operator import attrgetter, itemgetter

from . import model as m
from .model import record


@record
class SourceSpan:
    """Inclusive character span, 1-based lines and columns."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int


@record
class ParseDiagnostic:
    """One problem found in the source, at its span."""

    span: SourceSpan
    severity: str  # "error" or "warning"
    code: str
    message: str

    def render(self) -> str:
        where = f"{self.span.file}:{self.span.start_line}:{self.span.start_col}"
        return f"{self.severity.upper()} {self.code} {where}: {self.message}"


@record
class ParseResult:
    """The document read from a source, and every diagnostic on the way."""

    document: m.RegisterDocument | None
    diagnostics: tuple[ParseDiagnostic, ...]
    # The ``register`` keyword; None when the source has none, as an empty,
    # blank or comment-only source, whose document is an empty register.
    header: SourceSpan | None = None

    @property
    def errors(self) -> tuple[ParseDiagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")


# ---------------------------------------------------------------------------
# Lexer

# The parser decides on lexemes, plain ``str``: an identifier, a number or
# dotted id, a comma, a string with its quotes and escapes, and ``""`` at
# the end of input.  A lexeme's first character tells its kind, so a token
# keeps no kind, value or offset, only its ordinal: its index in the lexemes.
#
# ``_LEXEME_RE`` makes one match per lexeme, the blanks and comments before
# it included.  No token or comment spans a line, so ``_lexemes`` lexes a
# chunk of about 64 KB, cut after a line feed, with one ``findall``: no
# Python runs per token.  Group 1 is a token: an ASCII identifier, number or
# dotted id (no \d or \w, which take non-ASCII), a comma, or a string closed
# on its line whose escapes are \" or \\.  A problem matches outside it, so
# ``findall`` gives "" for it: another string, up to its closing quote or the
# line end, or an illegal character.  The empty match at a chunk's end, twice
# after its line feed, keeps ``findall`` from retrying the pattern from each
# blank after the last token.
_LEXEME_RE = re.compile(
    r'[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*(?:('
    r'[A-Za-z_][A-Za-z0-9_]*'
    r'|"[^"\\\n]*(?:\\["\\][^"\\\n]*)*"'
    r'|[0-9]+(?:(?:\.[0-9]+)+(?:-[TC][0-9]+)?)?'
    r'|,|\Z)|"[^"\\\n]*(?:\\.?[^"\\\n]*)*"?|(?s:.))'
)
_CHUNK = 1 << 16
_ESCAPE_RE = re.compile(r'\\(["\\])')
_ESCAPED = itemgetter(1)  # an escape's replacement, its character, taken in C
_ANY_ESCAPE_RE = re.compile(r'\\(.?)')  # a backslash and what it escapes in a string
_CLOSED_RE = re.compile(r'"(?:[^"\\]|\\.)*"')  # a string with its closing quote


def _lexemes(source: str, cursor: list, notes: list) -> Iterator[Iterator[str]]:
    """The lexemes of ``source``, an iterator over a list at a time, then over
    ``[""]``.  ``cursor`` holds the ordinal after the list being read and its
    iterator, so the ordinal of the lexeme last pulled costs no Python per
    token.  A chunk with a problem is read a match at a time, ``cursor[0]``
    the ordinal of the list's first lexeme, and each problem is noted by its
    ordinal: a string stays a lexeme, closed if it was not, for ``_sval``; an
    illegal character is none, so its ordinal goes to no lexeme and the
    lexemes around it come as two lists."""
    text = source if source.endswith("\n") else source + "\n"
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        lexemes = _LEXEME_RE.findall(text, start, end)
        if not all(lexemes[:-2]):  # less the chunk's end
            lexemes = []
            for match in _LEXEME_RE.finditer(text, start, end):
                lexeme = match[1]
                if lexeme is None:
                    at, lexeme = cursor[0] + len(lexemes), _problem(match)
                    if lexeme[0] != '"':
                        notes.append(("P004", f"illegal character {lexeme!r}", at, False, "error",
                                      None))
                        cursor[:] = at, iter(lexemes)
                        yield cursor[1]
                        cursor[0], lexemes = at + 1, []
                        continue
                    notes.extend(("P003", "unsupported escape sequence; only \\\" and \\\\ are "
                                  "recognized", at, False, "error", escape.start())
                                 for escape in _ANY_ESCAPE_RE.finditer(lexeme)
                                 if escape[1] not in ('"', "\\"))
                    if not _CLOSED_RE.fullmatch(lexeme):
                        notes.append(("P002", "unterminated string", at, False, "error", None))
                        lexeme += '"'
                lexemes.append(lexeme)
        del lexemes[-2:]  # the chunk's end
        cursor[:] = cursor[0] + len(lexemes), iter(lexemes)
        yield cursor[1]
        start = end
    cursor[:] = cursor[0] + 1, iter([""])
    yield cursor[1]


def _problem(match: re.Match) -> str:
    """A problem's lexeme: what follows the blanks on its match's last line."""
    return match[0].rpartition("\n")[2].lstrip(" \t\r")


def _swept(source: str, ordinals: set[int]) -> dict[int, tuple[int, int, str]]:
    """``(start, end, text)`` of the lexemes at ``ordinals`` by ordinal, from
    one sweep of ``_LEXEME_RE`` that stops at the last."""
    return {ordinal: (match.end() - len(text), match.end(), text)
            for ordinal, match in zip(range(max(ordinals, default=-1) + 1),
                                      _LEXEME_RE.finditer(source)) if ordinal in ordinals
            for text in (_problem(match) if match[1] is None else match[1],)}


def _is_string(lexeme: str) -> bool:
    return len(lexeme) > 1 and lexeme[0] == '"'


def _sval(lexeme: str) -> str:
    """A string's value: its quotes dropped and its escaped quotes and
    backslashes resolved; any other backslash is kept."""
    body = lexeme[1:-1]
    return _ESCAPE_RE.sub(_ESCAPED, body) if "\\" in body else body


def _locator(source: str, file: str) -> Callable[[int, int], SourceSpan]:
    """``locate(start, end)``, the span of ``source[start:end]`` on one line.  It
    keeps the line and line start of the offset asked for last, and scans only
    the gap to the next, so no line table is kept."""
    line, last, line_start = 1, 0, 0

    def locate(start: int, end: int) -> SourceSpan:
        nonlocal line, last, line_start
        if start >= last:
            line += source.count("\n", last, start)
            line_start = source.rfind("\n", last, start) + 1 or line_start
        else:
            line -= source.count("\n", start, last)
            if start < line_start:
                line_start = source.rfind("\n", 0, start) + 1
        last = start
        col = start - line_start + 1
        return SourceSpan(file, line, col, line, col + max(end - start - 1, 0))

    return locate


# ---------------------------------------------------------------------------
# Parser

class _SyntaxProblem(Exception):
    """A problem that ends a block, raised with the arguments of ``_Parser.note``."""


class _Parser:
    """Reads blocks from the lexemes of a source, and notes each problem by
    the ordinal of its lexeme.  It holds only the current lexeme, ``tok``,
    and pulls the next as it advances, so no lexeme is read twice.

    A block goes to its row's ``_Block.parse``, in one of two tiers: the
    table, ``parse_block`` and ``parse_attrs``, until the table has read
    ``_HOT`` blocks of the kind in this process, then the kind's compiled
    reader (``_reader``).  Both read a one-token value in place, by its
    reader's test of the lexeme (see ``_Reader``); a value of several
    tokens, or a lexeme that fails the test, goes to the reader's ``read``;
    a lexeme that is no key goes to ``unknown_key``.  Tier 0 stays so that
    a CLI call, which parses one small register, compiles nothing.

    Problems wait in ``notes`` with their lexemes' ordinals, a lexer's with
    its point's offset in the lexeme, until ``placed`` locates those lexemes
    in one sweep.  ``heads`` holds the kind and keyword ordinal of each block
    in ``entities`` and ``aliases``, and ``header`` the ordinal of
    ``register``, so that a violation can be noted at its block (``spans``)."""

    def __init__(self, source: str, file: str):
        self.source, self.file = source, file
        self.notes: list[tuple] = []
        self.cursor = [0, iter(())]
        # Nothing the lexer holds refers back to the parser: a cycle would
        # make every parser wait for the cyclic collector.
        self.pull = chain.from_iterable(_lexemes(source, self.cursor, self.notes)).__next__
        self.tok = self.pull()
        self.heads: list[tuple[str | None, int]] = []
        self.header: int | None = None

        self.project_name = ""
        self.version = ""
        self.phase = m.Phase.CONCEPT
        self.entities: dict[str, list] = {kind: [] for kind in m.ENTITY_KINDS}
        self.singles: dict[str, object] = {}  # soi, mission, investment_decision
        self.aliases: dict[str, str] = {}

    # -- token plumbing

    def advance(self) -> str:
        tok = self.tok
        if tok:
            self.tok = self.pull()
        return tok

    def here(self) -> int:
        """The ordinal of the current lexeme."""
        after, chunk = self.cursor
        return after - chunk.__length_hint__() - 1

    def note(self, code: str, message: str, ordinal: int, found: bool = False,
             severity: str = "error") -> None:
        """Note a problem at the lexeme ``ordinal``; when ``found``, ``placed``
        ends its message with the lexeme's text as the source spells it, quoted."""
        self.notes.append((code, message, ordinal, found, severity, None))

    def error(self, message: str, ordinal: int | None = None, code: str = "P001"):
        raise _SyntaxProblem(code, message, self.here() if ordinal is None else ordinal, False)

    def expected(self, what: str, code: str = "P001"):
        raise _SyntaxProblem(code, f"expected {what}, found ", self.here(), True)

    # -- what a one-token reader raises for a token that fails its test

    def need_string(self, what: str):
        self.expected(f"{what} (a quoted string)")

    def need_int(self, what: str):
        if not self.tok.isdigit():
            self.expected(f"{what} (an integer)")
        self.error(f"{what} is out of range ({len(self.tok)} digits)", code="P021")

    def need_bool(self, what: str):
        self.expected(f"true or false for {what}")

    def need_dotted(self, pattern, what: str):
        if not pattern.match(self.tok):
            self.expected(what, "P012")
        self.error(f"expected {what}, found a {len(self.tok)}-character id", code="P012")

    # -- readers of several tokens, or of more than one kind of token

    def need_number(self, what: str) -> int:
        """A core value number: an integer without a leading zero."""
        tok = self.tok
        if not tok.isdigit() or (len(tok) > 1 and tok[0] == "0"):
            self.expected(what, "P012")
        if _refused(tok):
            self.error(f"expected {what}, found a {len(tok)}-digit number", code="P012")
        return int(self.advance())

    def need_name(self, what: str, dotted) -> str:
        """A reference by id, or a dotted id that matches the pattern ``dotted``."""
        if dotted.match(self.tok):
            return self.advance()
        return _REF.read(self, what)

    def need_keyword(self, word: str) -> None:
        if self.tok != word:
            self.expected(f"keyword {word!r}")
        self.advance()

    def need_lens(self, what: str) -> m.Lens:
        """A lens the parser did not read in place (``_LENS``): ``cultural``
        and its framework, or a token that names no plain lens, which raises."""
        kind = _enum(m.LensKind).read(self, what)
        if kind is m.LensKind.CULTURAL and _is_string(self.tok):
            return m.Lens(kind, _sval(self.advance()))
        return m.Lens(kind)

    def need_subject(self, what: str) -> str:
        """A data subject: a stakeholder id, or any name as a string."""
        if m.IDENT_RE.match(self.tok):
            return self.advance()
        return _STRING.read(self, what)

    def need_attested(self, what: str) -> m.AttestationSubject:
        at = self.here()
        word = _IDENT.read(self, what)
        if word not in _ATTESTED:
            *words, last = _ATTESTED
            self.error(f"expected {', '.join(words)} or {last}, found {word!r}", at)
        kind, reader, ref_what = _ATTESTED[word]
        return m.AttestationSubject(kind, "" if reader is None else str(reader.read(self, ref_what)))

    # -- top level

    def parse(self) -> None:
        if not self.tok:
            return
        try:
            self.parse_header()
        except _SyntaxProblem as problem:
            self.note(*problem.args)
            self.skip_past_end(at_end=False)
        while self.tok:
            block = _BLOCKS.get(self.tok)
            if block is not None:
                head = self.here()
                self.tok = self.pull()
                try:
                    block.parse(self, head)
                except _SyntaxProblem as problem:
                    self.note(*problem.args)
                    self.skip_past_end()
            else:
                if self.tok.isidentifier():
                    self.note("P005", f"unknown block keyword {self.tok!r}", self.here())
                else:
                    self.note("P001", "expected a block keyword, found ", self.here(), True)
                self.advance()
                self.skip_past_end()

    def skip_past_end(self, at_end: bool = True) -> None:
        """Recovery: drop tokens up to the next block keyword or, when ``at_end``,
        until after an ``end``, as a block that was never closed ends at the
        next keyword and the next block still parses."""
        while self.tok:
            tok = self.tok
            if tok in _BLOCKS:
                return
            self.advance()
            if at_end and tok == "end":
                return

    def parse_header(self) -> None:
        at = self.here()
        self.need_keyword("register")
        self.header = at
        self.project_name = _STRING.read(self, "project name")
        if self.tok == "version":
            self.advance()
            self.version = _STRING.read(self, "version tag")
        self.need_keyword("phase")
        self.phase = _enum(m.Phase).read(self, "phase")

    def parse_block(self, block: "_Block", head: int) -> None:
        """The block after its keyword, the lexeme ``head``."""
        if block.single and block.slot in self.singles:
            self.note("P018", f"duplicate {block.keyword} block", head)
        values: dict = {}
        pull = self.pull
        for slot in block.reads:
            tok = self.tok
            if slot.__class__ is str:  # a keyword
                if tok != slot:
                    self.need_keyword(slot)  # raises
                self.tok = pull()
                continue
            field, test, convert, read, what = slot
            if test(tok):
                self.tok = pull()
                values[field] = tok if convert is None else convert(tok)
            else:
                values[field] = read(self, what)
        if block.keys is not None:
            self.parse_attrs(block.keys, values)
        if block.from_project:
            values.setdefault(block.from_project, self.project_name)
        obj = block.build(values, self, head)

        if block.single:
            self.singles.setdefault(block.slot, obj)
        elif block.cls is not _Alias:
            self.entities[block.slot].append(obj)
            self.heads.append((block.kind, head))
        elif obj.name in self.aliases:
            self.note("P010", f"duplicate alias {obj.name!r}", head)
        else:
            self.aliases[obj.name] = obj.target
            self.heads.append((None, head))

    def parse_attrs(self, keys: dict, values: dict) -> None:
        """Consume ``(KEY value*)*`` up to and including ``end``, each value
        read in place like a header slot's; a repeated attribute collects its
        values in a list."""
        pull = self.pull
        while True:
            tok = self.tok
            attr = keys.get(tok)
            if attr is None:
                if tok == "end":
                    self.tok = pull()
                    return
                self.unknown_key(keys)
                continue
            self.tok = tok = pull()
            name, test, convert, read, what, repeated = attr
            if test(tok):
                self.tok = pull()
                value = tok if convert is None else convert(tok)
            else:
                value = read(self, what)
            if not repeated:
                values[name] = value
            elif name in values:
                values[name].append(value)
            else:
                values[name] = [value]

    def unknown_key(self, keys) -> None:
        """Where an attribute key or ``end`` should be, a lexeme that is
        neither: an identifier is noted as P090 and dropped with the value
        after it (a lexeme that opens a value, or an identifier that is no
        key in ``keys``); end of input or any other lexeme raises."""
        tok = self.tok
        if not tok.isidentifier():
            if not tok:
                self.error("unexpected end of input inside a block (missing 'end')")
            self.expected("an attribute key or 'end'")
        self.note("P090", f"unknown attribute key {tok!r}", self.here(), False, "warning")
        self.advance()
        nxt = self.tok
        if nxt[:1] in _VALUE_START or (m.IDENT_RE.match(nxt) and nxt not in keys):
            self.advance()

    # -- assembly

    def build_document(self) -> m.RegisterDocument:
        # A persona's kind is its stakeholder's.
        kinds = {s.id: s.kind for s in self.entities["stakeholders"]}
        self.entities["personas"] = [
            replace(p, kind=kinds.get(p.stakeholder, m.StakeholderKind.DIRECT))
            for p in self.entities["personas"]
        ]
        return m.RegisterDocument(
            project=m.ProjectMeta(name=self.project_name, version=self.version),
            phase=self.phase,
            alias_map=dict(self.aliases),
            **{"soi": m.Soi(name=self.project_name), **self.singles},
            **{kind: tuple(items) for kind, items in self.entities.items()},
        )

    def spans(self) -> dict[tuple[str | None, str], int]:
        """The keyword ordinal of the first block of each kind and id."""
        ids = {kind: (str(obj.id) for obj in objs) for kind, objs in self.entities.items()}
        ids[None] = iter(self.aliases)
        spans = {}
        for kind, head in self.heads:
            spans.setdefault((kind, next(ids[kind])), head)
        return spans

    def placed(self) -> tuple[tuple[ParseDiagnostic, ...], SourceSpan | None]:
        """Every diagnostic in source order, and the header's span: the lexemes
        of the notes and of the header are located in one sweep."""
        header, notes = self.header, self.notes
        lexemes = _swept(self.source, {header, *(note[2] for note in notes)} - {None})
        locate = _locator(self.source, self.file)
        diagnostics = [
            ParseDiagnostic(locate(start, end) if offset is None
                            else locate(start + offset, start + offset), severity, code,
                            message + repr(text or "end of input") if found else message)
            for code, message, ordinal, found, severity, offset in notes
            for start, end, text in (lexemes[ordinal],)]
        return (tuple(sorted(diagnostics, key=lambda d: (d.span.start_line, d.span.start_col,
                                                         d.code, d.message))),
                None if header is None else locate(*lexemes[header][:2]))


# The first characters of a string, an integer and a dotted id: the lexemes
# that an unknown attribute key's value may start with.
_VALUE_START = frozenset('"0123456789')

# Where a document the parse validated clean keeps that verdict, beside its
# cached ``index``: a copy of ``alias_map``, its one mutable field.  ``==``,
# ``hash``, ``repr`` and ``replace`` read only the fields, so they ignore it.
_VALIDATED = "_validated_alias_map"


def parse_register(source_text: str, file_name: str = "<register>") -> ParseResult:
    """Parse register source into a document plus diagnostics.

    The document is present exactly when no error-severity diagnostic was
    produced.  Empty (or comment-only) input parses to an empty register.

    The source is parsed once, from lexemes that carry no position (see
    ``_Parser``).  Problems, warnings and violations are noted by ordinal,
    and only the lexemes noted are located, after the validation.

    Only a source with a carriage return can give P037, so a source without
    one is validated without the line-break walk: no token but a string can
    hold a line break, a string holds no line feed, and a note's lines are
    joined by line feeds, which prose may hold.  So the validation is
    complete either way, and a document returned keeps its clean verdict
    for :func:`serialize_canonical` (``_VALIDATED``).
    """
    parser = _Parser(source_text, file_name)
    parser.parse()
    doc = None
    if all(note[4] != "error" for note in parser.notes):
        doc = parser.build_document()
        violations = m.validate_register(doc, line_breaks="\r" in source_text)
        if not violations:
            doc.__dict__[_VALIDATED] = dict(doc.alias_map)
        spans = violations and parser.spans()
        for violation in violations:
            # At its block by kind and id, else (a document-level one too) at the header.
            kind, subject, header = violation.kind, violation.subject, parser.header
            parser.note(violation.code, violation.message,
                        header if kind is None and subject == "register"
                        else spans.get((kind, subject), header))
            doc = None  # a violation is an error
    diagnostics, header = parser.placed()
    return ParseResult(document=doc, diagnostics=diagnostics, header=header)


# ---------------------------------------------------------------------------
# The block table

def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _lens_text(lens: m.Lens) -> str:
    if lens.kind is m.LensKind.CULTURAL:
        return f"cultural {_quote(lens.framework)}"
    return _enum(m.LensKind).text(lens.kind)


_NO_LEXEME = frozenset().__contains__  # the test of a reader of several tokens


class _Reader:
    """One kind of value in the text format: how the parser reads it, how
    the writer spells it, and whether its strings must stay on one line.
    The writer calls ``text(value)``, most often a builtin, so that spelling
    a value enters no Python frame, or spells it in line (``_IN_LINE``).

    A value of one token also has a ``token`` form, ``(test, convert)``: a
    test of the lexeme and ``convert(lexeme)``, the value read (None keeps
    the lexeme).  The parser reads such a value in place, and ``_token``
    derives its ``read`` from the same form.  A reader of several tokens has
    a test that no lexeme passes; one whose common case is one token, as a
    lens, declares that case's form and reads the rest with ``read``."""

    __slots__ = ("read", "text", "checked", "token")

    def __init__(self, read: Callable, text: Callable, checked: bool = False,
                 token: tuple = (_NO_LEXEME, None)):
        self.read = read        # (parser, what) -> value
        self.text = text        # value -> text
        self.checked = checked  # a string, or a record whose str fields P037 checks
        self.token = token


def _token(test: Callable, convert: Callable | None, fail: Callable, text: Callable,
           checked: bool = False) -> _Reader:
    """A value of one token; ``fail(parser, what)`` raises the problem with a
    lexeme that ``test`` refuses."""
    def read(p, what):
        tok = p.tok
        if test(tok):
            p.tok = p.pull()
            return tok if convert is None else convert(tok)
        fail(p, what)

    return _Reader(read, text, checked, (test, convert))


# int() refuses numbers with more digits than ``_max_digits()``; 0 means no
# limit.  No limit can be set below ``_CHECKED``, and Python before 3.10.7
# has none.
_max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_CHECKED = getattr(sys.int_info, "str_digits_check_threshold", sys.maxsize)


def _refused(lexeme: str) -> bool:
    """Whether int() would refuse a run of digits in ``lexeme``."""
    limit = _max_digits()
    return 0 < limit < len(lexeme) and any(len(run) > limit
                                           for run in re.findall("[0-9]+", lexeme))


def _dotted(pattern) -> _Reader:
    """An id of the anchored ``pattern``."""
    return _token(lambda lexeme: pattern.match(lexeme) and (len(lexeme) <= _CHECKED
                                                             or not _refused(lexeme)), None,
                  lambda p, what: p.need_dotted(pattern, what), str)


@functools.cache
def _enum(enum_cls: type[Enum]) -> _Reader:
    """A member of ``enum_cls``, by its value."""
    members = {e.value: e for e in enum_cls}
    return _token(members.__contains__, members.__getitem__,
                  lambda p, what: p.expected(f"one of {', '.join(members)} for {what}", "P020"),
                  {e: e.value for e in enum_cls}.__getitem__)  # ``value`` runs in Python


def _commas(reader: _Reader) -> _Reader:
    """One or more values of ``reader``, separated by commas."""
    def read(p, what):
        items = [reader.read(p, what)]
        while p.tok == ",":
            p.advance()
            items.append(reader.read(p, what))
        return tuple(items)

    return _Reader(read, lambda items: ", ".join(map(reader.text, items)))


_STRING = _token(_is_string, _sval, _Parser.need_string, _quote, True)
_INT = _token(lambda lexeme: lexeme.isdigit() and (len(lexeme) <= _CHECKED
                                                   or not _refused(lexeme)),
              int, _Parser.need_int, str)
_BOOLS = {"true": True, "false": False}
_BOOL = _token(_BOOLS.__contains__, _BOOLS.__getitem__, _Parser.need_bool,
               {True: "true", False: "false"}.__getitem__)
_IDENT = _token(str.isidentifier, None, _Parser.expected, str)
_NUMBER = _Reader(_Parser.need_number, str)  # a core value's id
# A reference to an entity by its id: ``end`` closes the block instead.
_REF = _token(m.IDENT_RE.match, None, _Parser.expected, str)
# Prose: one ``note`` line per line of text.
_NOTE = _token(_is_string, _sval, lambda p, what: p.need_string("note text"), _quote, True)
# A lens of one word converts to one shared, frozen ``Lens`` per kind.
_PLAIN_LENSES = {kind.value: m.Lens(kind) for kind in m.LensKind if kind is not m.LensKind.CULTURAL}
_LENS = _Reader(_Parser.need_lens, _lens_text, True,
                (_PLAIN_LENSES.__contains__, _PLAIN_LENSES.__getitem__))
# A data subject is written bare when it names a stakeholder (``_IN_LINE``).
_SUBJECT = _Reader(_Parser.need_subject, lambda value, doc: value if (
    value in doc.index.stakeholders and m.IDENT_RE.match(value)) else _quote(value), True)
_ATTESTED = {  # subject word: (kind, reader of the ref or None, what)
    "priority": (m.SubjectKind.PRIORITY_DECISION, _INT, "core value number"),
    "risk": (m.SubjectKind.RISK_ACCEPTANCE, _dotted(m.CONTROL_ID_RE), "a control id"),
    "mission": (m.SubjectKind.MISSION, None, None),
    "decision": (m.SubjectKind.INVESTMENT_DECISION, None, None),
    "rule": (m.SubjectKind.RULE, _STRING, "rule id"),
}
_ATTESTED_WORDS = {kind: (word, reader) for word, (kind, reader, _) in _ATTESTED.items()}


def _attested_text(subject: m.AttestationSubject) -> str:
    word, reader = _ATTESTED_WORDS[subject.kind]
    return word if reader is None else f"{word} {reader.text(subject.ref)}"


# Placeholders the table compiles into a reader for the field's class.
_ENUM = _Reader(None, None)    # an enum member, by its value
_NESTED = _Reader(None, None)  # a dataclass, its fields in order on one line
_GROUP = _Reader(None, None)   # a dataclass whose fields are attributes of their own
_PLAIN = {str: _STRING, int: _INT, bool: _BOOL}


def _nested(cls: type) -> _Reader:
    parts = [(f.name, _PLAIN[f.type]) for f in fields(cls)]

    def read(p, whats):
        return cls(*[reader.read(p, what) for (_, reader), what in zip(parts, whats)])

    return _Reader(read, lambda value: " ".join([reader.text(getattr(value, name))
                                                 for name, reader in parts]), True)


def _held_class(hint) -> tuple[type, bool]:
    """The class a field holds (``X`` for ``X | None``), and whether the
    field is a tuple of them."""
    return getattr(hint, "__args__", (hint,))[0], getattr(hint, "__origin__", None) is tuple


def _default(f):
    if f.default is not MISSING:
        return f.default
    return MISSING if f.default_factory is MISSING else f.default_factory()


_DOCUMENT_HINTS = {f.name: f.type for f in fields(m.RegisterDocument)}


@record
class _Alias:
    """One ``alias`` line: a value name and the name it stands for."""

    name: str
    target: str


class _Attr:
    """One attribute of a block kind, compiled from its table entry for a
    field of type ``hint``."""

    __slots__ = ("key", "field", "member", "reader", "what", "missing", "default", "name", "held",
                 "gather", "get")

    def __init__(self, key: str | None, field: str, reader: _Reader, hint, what,
                 missing: str | None = None, default=MISSING, member: str | None = None):
        held, repeated = _held_class(hint)  # a tuple field: one item per line
        if reader is _ENUM:
            reader = _enum(held)
        elif reader is _NESTED:
            reader = _nested(held)
        self.key = key
        self.field = field
        self.member = member  # the field of a group this attribute fills
        self.reader = reader
        self.what = what
        self.missing = missing
        self.name = field if member is None else (field, member)  # the parser's key
        self.held = held
        # How the parser joins the values of a repeated attribute or of notes;
        # the writer writes them again one line each.
        self.gather = "\n".join if reader is _NOTE else tuple if repeated else None
        # A repeated attribute or a note starts empty.
        self.default = self.gather([]) if default is MISSING and self.gather else default
        # The value in a model object; None for the members of a group that is None.
        self.get = attrgetter(field) if member is None else (
            lambda obj: None if (group := getattr(obj, field)) is None else getattr(group, member))


class _Block:
    """One row of the block table, compiled for the parser, the canonical
    writer and the line-break check.

    ``head`` lists the header slots after the id in order: a literal
    keyword, or ``(field, reader, what)``.  ``attrs`` lists the attributes
    in canonical order as ``(key, field, reader[, what[, missing]])``:
    ``what`` names the value in error messages and ``missing`` names a
    required attribute that is absent (both default to the key).  A
    ``(prefix, field, _GROUP[, what])`` entry makes each field of the
    group's class an attribute keyed by prefix and field name.  ``attrs``
    is None for a block without attributes and ``end``.

    The rest comes from the model: the block's class is the one its slot,
    a field of the document, holds (``_Alias`` for ``alias_map``), an
    entity kind's id slot comes first, read as its field declares the id
    (``model._kind``: an identifier, a numbered form or a number), a field
    starts at its dataclass default (a repeated attribute or a note at
    empty), a field without one that nothing filled is reported as P006,
    and the writer leaves out a value equal to its default.

    The parser reads a block through ``parse`` in one of two tiers.  Tier 0
    is the table: ``_Parser.parse_block`` walks ``reads`` and ``keys`` and
    ``build`` makes the record.  Once the table has read ``_HOT`` blocks of
    a kind in this process, the kind gets a reader compiled from the same
    attributes (``_reader``), tier 1, and every later block of the kind goes
    through it.  Tier 0 stays because compiling all 20 readers would raise
    the first parse of ``tm_clean`` in a CLI call from about 1.5 to 13-22
    ms.  ``seen`` counts the blocks the table read; two threads that race
    on it at worst compile a kind twice, and either reader reads as the
    table does.
    """

    def __init__(self, keyword: str, slot: str, head: tuple = (),
                 attrs: tuple | None = (), *, noun: str | None = None,
                 from_project: str | None = None, derived: tuple = ()):
        self.keyword = keyword
        self.slot = slot  # the document field holding blocks of this kind
        self.cls = cls = _Alias if slot == "alias_map" else _held_class(_DOCUMENT_HINTS[slot])[0]
        self.single = slot not in m.ENTITY_KINDS and cls is not _Alias
        self.kind = slot if slot in m.ENTITY_KINDS else None  # the kind its violations name
        self.noun = noun or m.ENTITY_KINDS.get(slot, (keyword,))[0]
        self.from_project = from_project  # a field that defaults to the project name
        self.seen = 0  # the blocks of this kind the table has read
        hints = {f.name: f.type for f in fields(cls)}
        defaults = {f.name: _default(f) for f in fields(cls)}

        if self.kind:
            head = (("id", *_id_slot(self.kind, self.noun)), *head)
        # A header slot is an attribute without a key, always written.
        self.head = tuple(slot if isinstance(slot, str)
                          else _Attr(None, slot[0], slot[1], hints[slot[0]], slot[2])
                          for slot in head)
        slots = [slot for slot in self.head if not isinstance(slot, str)]
        self.id_field = None if self.single else slots[0].field

        self.attrs: list[_Attr] = []
        self.groups: list[tuple] = []
        for key, field, reader, *words in attrs or ():
            what = words[0] if words else key
            if reader is _GROUP:
                group = _held_class(hints[field])[0]
                members = [_Attr(key + f.name, field, _PLAIN[f.type], f.type, key + f.name,
                                 default=_default(f), member=f.name)
                           for f in fields(group)]
                self.groups.append((field, group, what, members))
                self.attrs += members
            else:
                self.attrs.append(_Attr(key, field, reader, hints[field], what,
                                        words[1] if len(words) > 1 else key, defaults[field]))

        # For the parser: each header slot as a keyword or as (field, test,
        # convert, read, what), each attribute by its key as (name, test,
        # convert, read, what, repeated).
        self.reads = tuple(slot if slot.__class__ is str else
                           (slot.field, *slot.reader.token, slot.reader.read, slot.what)
                           for slot in self.head)
        self.keys = None if attrs is None else {
            a.key: (a.name, *a.reader.token, a.reader.read, a.what, a.gather is not None)
            for a in self.attrs}
        self.gathered = [a for a in self.attrs if a.gather is not None]
        self.required = [a for a in self.attrs if a.member is None and a.default is MISSING]
        self.derived = derived  # fields the parser fills in after the block
        defaults.update({a.field: a.default for a in self.attrs if a.member is None})
        defaults.update(dict.fromkeys(derived))
        self.defaults = {field: value for field, value in defaults.items() if value is not MISSING}
        # For the line-break check: the slots and attributes that hold strings,
        # and of those that hold a record, as a lens, its fields of type str.
        self.texts = [(f"{keyword} {a.key or a.field}", a.get, a.gather is tuple, a.reader is _NOTE,
                       a.held is not str and [f.name for f in fields(a.held) if f.type is str])
                      for a in slots + self.attrs if a.reader.checked]

    def build(self, values: dict, parser: _Parser, head: int):
        """The model object from the values read for one block, whose keyword
        is the lexeme ``head``."""
        for a in self.gathered:
            if a.name in values:
                values[a.name] = a.gather(values[a.name])
        for field, group, what, members in self.groups:
            given = {a.member: values.pop(a.name) for a in members if a.name in values}
            if given:
                missing = [a.member for a in members
                           if a.member not in given and a.default is MISSING]
                if missing:
                    parser.error(f"{self.noun} {values[self.id_field]} {what} are incomplete "
                                 f"(missing {', '.join(missing)})", head, code="P034")
                values[field] = group(**given)
        for a in self.required:
            if a.field not in values:
                parser.error(f"{self.noun} {values[self.id_field]} declares no {a.missing}",
                             head, code="P006")
        return self.cls(**{**self.defaults, **values})

    def parse(self, parser: _Parser, head: int) -> None:
        """Tier 0: the table reads one block of this kind after its keyword,
        the lexeme ``head`` (``_Parser.parse_block``).  The ``_HOT``-th block
        compiles the kind's reader (``_reader``), which from then on reads
        every block of the kind in place of this method."""
        self.seen += 1
        if self.seen >= _HOT:
            self.parse = _reader(self)
        parser.parse_block(self, head)

    def held(self, doc: m.RegisterDocument):
        """The blocks of this kind in ``doc``, as model objects."""
        if self.cls is _Alias:
            return [_Alias(name, target) for name, target in doc.alias_map.items()]
        held = getattr(doc, self.slot)
        if not self.single:
            return held
        return () if held is None else (held,)

    @functools.cached_property
    def write(self) -> Callable:
        """``write(obj, doc)``: ``obj`` in canonical form, compiled on first use."""
        return _canonical(self)


def _id_slot(kind: str, noun: str) -> tuple[_Reader, str]:
    """The reader of an entity kind's id and the words its errors name it by."""
    shape = m.ENTITY_KINDS[kind][2]
    if shape is None:
        return _NUMBER, "a core value number"
    if shape is m.IDENT_RE:
        return _IDENT, f"{noun} id"
    noun, form, *_ = m._NUMBERED[kind]
    return _dotted(shape), f"{m._a(noun)} id of the form {form}"


_BLOCKS: dict[str, _Block] = {block.keyword: block for block in (
    _Block("soi", "soi", (), (
        ("name", "name", _STRING, "system name"),
        ("note", "concept_of_operation", _NOTE),
        ("region", "deployment_regions", _STRING, "region code"),
    ), from_project="name"),
    _Block("sos", "sos_elements", (("name", _STRING, "sos element name"),), (
        ("cooperation", "cooperation_type", _ENUM, "cooperation type", "cooperation type"),
        ("tier", "tier", _INT),
        ("personal_data", "processes_personal_data", _BOOL),
        ("ethical_scope", "in_ethical_scope", _BOOL),
        ("enabling_access", "access_to_enabling_elements", _BOOL),
    )),
    _Block("stakeholder", "stakeholders", (("name", _STRING, "stakeholder name"),), (
        ("kind", "kind", _ENUM, "stakeholder kind"),
        ("note", "description", _NOTE),
        ("region", "region", _STRING, "region code"),
        ("", "selection_profile", _GROUP),
    )),
    _Block("context", "contexts", (("name", _STRING, "context name"),), (
        ("captured", "captured", _ENUM, "capture stage"),
        ("element", "data_elements", _STRING, "data element"),
        ("data_type", "data_types", _STRING, "data type"),
        ("flow", "data_flows", _NESTED,
         ("flow source element", "flow sink element", "flow data type")),
        ("subject", "data_subjects", _SUBJECT, "data subject"),
        ("expect", "integrity_expectations", _STRING, "integrity expectation"),
    )),
    _Block("session", "sessions", (), (
        ("date", "date", _STRING, "session date"),
        ("participant", "participants", _REF, "stakeholder id"),
        ("lens", "lenses_used", _LENS, "lens kind"),
    )),
    _Block("statement", "statements", (), (
        ("session", "session", _REF, "session id"),
        ("by", "stakeholder", _REF, "stakeholder id"),
        ("lens", "lens", _LENS, "lens kind"),
        ("polarity", "polarity", _ENUM),
        ("note", "text", _NOTE),
        ("value", "named_values", _STRING, "value name"),
        ("extracted", "extracted_values", _STRING, "value name"),
    )),
    _Block("corevalue", "core_values", (
        ("name", _STRING, "core value name"), "rank", ("priority_rank", _INT, "priority rank"),
    ), (
        ("alias", "aliases", _STRING, "alias name"),
        ("intrinsic", "intrinsic", _BOOL),
        ("", "hierarchy_scores", _GROUP, "scores"),
        ("support", "supporting_statements", _REF, "statement id"),
    )),
    _Block("quality", "qualities", (
        ("name", _STRING, "quality name"),
        "of", ("core_value", _INT, "parent core value number"),
        "direction", ("direction", _ENUM, "direction"),
    ), (
        ("source", "source", _ENUM, "quality source"),
    )),
    _Block("evr", "evrs", (
        ("text", _STRING, "requirement text"),
        "of", ("quality", _dotted(m.QUALITY_ID_RE), "the parent quality id"),
    ), (
        ("kind", "kind", _ENUM, "EVR kind"),
        ("threshold", "threshold", _NESTED, ("threshold metric", "threshold comparator",
                                             "threshold level", "threshold rationale")),
        ("risk", "risk_path", _ENUM, "risk path"),
        ("legal", "legal_instruments", _STRING, "legal instrument"),
        ("harm_", "harm_flags", _GROUP),
        ("likelihood", "harm_likelihood", _ENUM, "harm likelihood"),
        ("demand", "protection_demand", _NESTED,
         ("protection demand level", "protection demand rationale")),
    )),
    _Block("threat", "threats", ("of", ("evr", _dotted(m.EVR_ID_RE), "the parent EVR id")), (
        ("realistic", "realistic", _BOOL),
        ("note", "description", _NOTE),
    )),
    _Block("control", "controls", (
        "for", ("threats", _commas(_dotted(m.THREAT_ID_RE)), "a threat id"),
    ), (
        ("rigor", "rigor", _INT),
        ("form", "form", _ENUM, "control form"),
        ("status", "status", _ENUM, "control status"),
        ("disposition", "implementing_disposition", _REF, "disposition id"),
        ("note", "description", _NOTE),
    )),
    _Block("disposition", "dispositions", (), (
        ("component", "soi_component", _STRING, "soi component", "soi component"),
        ("implements", "implements", _dotted(m.CONTROL_ID_RE), "a control id"),
        ("note", "description", _NOTE),
    )),
    _Block("funcreq", "functional_requirements", (), (
        ("note", "text", _NOTE),
    )),
    _Block("concept", "design_concepts", (("name", _STRING, "design concept name"),), (
        ("ethical", "ethical_refs",
         _dotted(re.compile(f"{m.EVR_ID_RE.pattern}|{m.CONTROL_ID_RE.pattern}")),
         "an EVR or control id"),
        ("functional", "functional_refs", _REF, "functional requirement id"),
    )),
    _Block("persona", "personas", (("name", _STRING, "persona name"),), (
        ("stakeholder", "stakeholder", _REF, "stakeholder id"),
        ("note", "narrative", _NOTE),
    ), derived=("kind",)),
    _Block("attestation", "attestations", (
        ("subject", _Reader(_Parser.need_attested, _attested_text, True), "attestation subject"),
    ), (
        ("by", "signatory_name", _STRING, "signatory name"),
        ("role", "signatory_role", _ENUM, "signatory role"),
        ("date", "date", _STRING),
        ("consent", "consent", _BOOL),
        ("note", "statement", _NOTE),
    )),
    _Block("mission", "mission", (), (
        ("note", "text", _NOTE),
        ("feature", "featured", _INT, "core value number"),
        ("signed", "signed_by", _REF, "attestation id"),
    )),
    _Block("decision", "investment_decision", (
        ("verdict", _ENUM, "verdict"),
    ), (
        ("note", "rationale", _NOTE),
        ("signed", "attestations", _REF, "attestation id"),
    )),
    _Block("feedback", "feedback", (), (
        ("date", "date", _STRING),
        ("from", "source", _Reader(_REF.read, str, True, _REF.token),
         "a stakeholder id or market", "source"),
        ("note", "text", _NOTE),
        ("resulted", "resulted", _Reader(lambda p, what: p.need_name(what, m.QUALITY_ID_RE),
                                         str, True), "a statement or quality id"),
        ("reprioritize", "reprioritization_required", _BOOL),
    ), noun="feedback"),
    _Block("alias", "alias_map", (
        ("name", _STRING, "alias name"), ("target", _STRING, "canonical name"),
    ), None),
)}


# ---------------------------------------------------------------------------
# Generated functions: the compiled readers

# The blocks of one kind the table reads in a process before the kind gets
# its compiled reader.  A reader compiles in 0.2-1 ms and saves about 4 us a
# block, so it pays for itself within about 250 more blocks of its kind;
# at 256 no CLI call on a committed fixture compiles one (the most blocks
# of one kind there is tm_full's 234 statements).
_HOT = 256


def _compiled(lines: list[str], bound: dict, name: str = "write") -> Callable:
    """The function ``name`` of ``lines``, compiled with the names ``bound`` as constants."""
    exec("\n    ".join([f"def make({', '.join(bound)}):", *lines, f"return {name}"]), globals(),
         made := {})
    return made["make"](**bound)


def _reader(block: _Block) -> Callable:
    """``block``'s compiled reader, ``read(p, head)``: what ``_Parser.parse_block``
    does with one block of the kind after its keyword, the lexeme ``head``,
    as straight-line Python.  Each field is a local, and so is the current
    lexeme, ``tok``, which goes to ``p.tok`` before any call that reads it or
    raises.  A string, an identifier, an integer, an enum member, a bool or
    a plain lens is tested and converted in line; a value of another
    one-token reader by its token form; any other value, or a lexeme that
    fails the test, by the reader's ``read``.  The attribute keys are an
    ``if``/``elif`` chain, the record is built by position, and the problems
    come as the table raises them: each incomplete group (P034), then each
    required attribute missing (P006)."""
    bound: dict = {}

    def constant(value) -> str:
        bound[name := f"_{len(bound)}"] = value
        return name

    def literal(value) -> str:
        plain = value is None or value.__class__ in (bool, int, str)
        return repr(value) if plain else constant(value)

    def local(a: _Attr) -> str:
        return f"f_{a.field}" if a.member is None else f"f_{a.field}__{a.member}"

    def read(a: _Attr, store: str) -> list[str]:
        """Lines that read ``a``'s value at ``tok``, and keep it by ``store``,
        a format of the value."""
        call = ["p.tok = tok", store.format(f"{constant(a.reader.read)}(p, {a.what!r})"),
                "tok = p.tok"]
        test, convert = a.reader.token
        if test is _NO_LEXEME:
            return call
        owner = getattr(test, "__self__", None)
        if test is _is_string and convert is _sval:
            test, value = "len(tok) > 1 and tok[0] == '\"'", \
                "(tok[1:-1] if '\\\\' not in tok else _sval(tok))"
        elif test is str.isidentifier and convert is None:
            test, value = "tok.isidentifier()", "tok"
        elif a.reader is _INT:
            test = "tok.isdigit() and (len(tok) <= _CHECKED or not _refused(tok))"
            value = "int(tok)"
        elif owner.__class__ is dict and convert == owner.__getitem__:  # an enum, bool or lens
            table = constant(owner)
            test, value = f"tok in {table}", f"{table}[tok]"
        else:
            test, value = f"{constant(test)}(tok)", (
                "tok" if convert is None else f"{constant(convert)}(tok)")
        return [f"if {test}:", "    " + store.format(value), "    tok = pull()", "else:",
                *("    " + line for line in call)]

    def problem(code: str, words: str, rest: str = "") -> str:
        """The line that raises ``code`` at the block, its message naming the block by id."""
        return (f"p.error({f'{block.noun} '!r} + format(f_{block.id_field}) + {words!r}{rest}, "
                f"head, code={code!r})")

    lines = ["def read(p, head):"]
    if block.single:
        lines += [f"    if {block.slot!r} in p.singles:",
                  f"        p.note('P018', {f'duplicate {block.keyword} block'!r}, head)"]
    lines += ["    pull = p.pull", "    tok = p.tok"]
    lines += [f"    {local(a)} = " + ("[]" if a.gather else "p.project_name"
                                       if a.field == block.from_project else "MISSING"
                                       if a.member is not None or a.default is MISSING
                                       else literal(a.default)) for a in block.attrs]
    for slot in block.head:
        if slot.__class__ is str:  # a keyword
            lines += [f"    if tok != {slot!r}:", "        p.tok = tok",
                      f"        p.need_keyword({slot!r})", "    tok = pull()"]
        else:
            lines += ["    " + line for line in read(slot, f"f_{slot.field} = {{}}")]
    if block.keys is None:  # no attributes and no ``end``
        lines.append("    p.tok = tok")
    else:
        branches = []
        for a in block.attrs:
            store = f"{local(a)}.append({{}})" if a.gather else f"{local(a)} = {{}}"
            branches += [f"elif tok == {a.key!r}:", "    tok = pull()",
                         *("    " + line for line in read(a, store))]
        branches += ["elif tok == 'end':", "    p.tok = pull()", "    break",
                     "else:", "    p.tok = tok", f"    p.unknown_key({constant(block.keys)})",
                     "    tok = p.tok"]
        branches[0] = branches[0][2:]  # the first ``elif`` is an ``if``
        lines += ["    while True:", *("        " + line for line in branches)]
    lines += [f"    {local(a)} = {constant(a.gather)}({local(a)}) if {local(a)} else "
              f"{literal(a.default)}" for a in block.gathered]
    for field, group, what, members in block.groups:
        lines += [f"    f_{field} = {literal(block.defaults[field])}",
                  f"    if {' or '.join(f'{local(a)} is not MISSING' for a in members)}:"]
        needed = ", ".join(f"({a.member!r}, {local(a)})" for a in members if a.default is MISSING)
        if needed:
            lines += [f"        missing = [name for name, v in ({needed},) if v is MISSING]",
                      "        if missing:",
                      "            " + problem("P034", f" {what} are incomplete (missing ",
                                               " + ', '.join(missing) + ')'")]
        given = ", ".join(local(a) if a.default is MISSING else
                          f"{local(a)} if {local(a)} is not MISSING else {literal(a.default)}"
                          for a in members)
        lines.append(f"        f_{field} = {constant(group)}({given})")
    for a in block.required:
        if a.field != block.from_project:  # never missing: it falls back to the project name
            lines += [f"    if {local(a)} is MISSING:",
                      "        " + problem("P006", f" declares no {a.missing}")]
    if block.cls is _Alias:
        lines += ["    if f_name in p.aliases:",
                  "        p.note('P010', 'duplicate alias ' + repr(f_name), head)",
                  "    else:",
                  "        p.aliases[f_name] = f_target",
                  "        p.heads.append((None, head))"]
        return _compiled(lines, bound, "read")
    held = {slot.field for slot in block.head if slot.__class__ is not str} | {
        a.field for a in block.attrs}
    built = f"{constant(block.cls)}(" + ", ".join(
        f"f_{f.name}" if f.name in held else literal(block.defaults[f.name])
        for f in fields(block.cls)) + ")"
    if block.single:
        lines.append(f"    p.singles.setdefault({block.slot!r}, {built})")
    else:
        lines += [f"    p.entities[{block.slot!r}].append({built})",
                  f"    p.heads.append(({block.kind!r}, head))"]
    return _compiled(lines, bound, "read")


# ---------------------------------------------------------------------------
# Canonical serialization and the line-break check

def serialize_canonical(doc: m.RegisterDocument) -> str:
    """Render a valid document in canonical form; an invalid one raises
    :class:`~evrforge.model.RegisterError`.

    A document that :func:`parse_register` returned was validated there,
    and is not validated again while its ``alias_map``, the one field that
    can change in place, still equals what the parser read.  Any other
    document, a ``replace`` of a parsed one included, is validated here.

    Blocks follow ``_BLOCKS`` in declaration order per kind, attributes
    appear in table order, and values equal to their defaults are omitted,
    so the output is a fixed point: parsing and re-serializing it gives the
    same bytes.
    """
    if doc.__dict__.get(_VALIDATED) != doc.alias_map:
        violations = m.validate_register(doc)
        if violations:
            raise m.RegisterError("cannot serialize an invalid register: "
                                  + "; ".join(v.message for v in violations[:3]))
    header = f"register {_quote(doc.project.name)}"
    if doc.project.version:
        header += f" version {_quote(doc.project.version)}"
    blocks = [f"{header} phase {doc.phase.value}"]
    for block in _BLOCKS.values():
        # An soi block that says nothing beyond the project name is left out.
        held = [obj for obj in block.held(doc) if not block.from_project
                or obj != block.cls(**{block.from_project: doc.project.name})]
        if held:
            blocks += map(block.write, held, repeat(doc))
    return "\n\n".join(blocks) + "\n"


# What the writers spell ``{0}`` as in place of a call of these text functions.
_LENS_WORDS = {kind: kind.value for kind in m.LensKind if kind is not m.LensKind.CULTURAL}
_IN_LINE = {_quote: "'\"' + {0}.replace('\\\\', '\\\\\\\\').replace('\"', '\\\\\"') + '\"'",
            _lens_text: "(_LENS_WORDS.get({0}.kind) or _lens_text({0}))",
            _SUBJECT.text: "_SUBJECT.text({0}, doc)"}


def _canonical(block: _Block) -> Callable:
    """``block``'s writer, each field, default and spelling fixed in it: the
    header in one expression, then a line for each attribute that is neither
    None nor its default, one per item of a repeated one or line of a note."""
    bound: dict = {}

    def constant(value) -> str:
        bound[name := f"_{len(bound)}"] = value
        return name

    def spelled(a: _Attr, value: str) -> str:
        text = a.reader.text
        return _IN_LINE[text].format(value) if text in _IN_LINE else f"{constant(text)}({value})"

    header = " + ' ' + ".join([repr(block.keyword)] + [
        repr(slot) if slot.__class__ is str else spelled(slot, f"obj.{slot.field}")
        for slot in block.head])
    if block.keys is None:  # a block without attributes is one line
        return _compiled(["def write(obj, doc):", f"    return {header}"], bound)
    lines, group = ["def write(obj, doc):", f"    out = [{header}]"], None
    for a in block.attrs:
        if a.member is not None and a.field != group:
            lines.append(f"    g = obj.{a.field}")
        group = a.member and a.field
        value = f"obj.{a.field}" if a.member is None else f"g.{a.member} if g is not None else None"
        default = "doc.project.name" if a.field == block.from_project else (
            a.default not in (MISSING, None) and constant(a.default))
        test = f"v is not None and v != {default}" if default else "v is not None"
        lines += [f"    v = {value}", f"    if {test}:"]
        if a.gather is None:
            lines.append(f"        out.append({f'  {a.key} '!r} + {spelled(a, 'v')})")
        else:
            items = "v.split('\\n')" if a.reader is _NOTE else "v"
            lines += [f"        for x in {items}:",
                      f"            out.append({f'  {a.key} '!r} + {spelled(a, 'x')})"]
    return _compiled(lines + ["    out.append('end')", "    return '\\n'.join(out)"], bound)


def _check_line_breaks(doc: m.RegisterDocument, bad: Callable) -> None:
    """Report P037 through ``bad(code, subject, message, kind)`` for a string the
    text format cannot carry: a line break in a single-line string, or a
    carriage return in prose (notes), which may hold line feeds."""

    def report(subject: str, label: str, prose: bool, kind: str | None = None) -> None:
        bad("P037", subject, f"{label} must not contain "
                             + ("carriage returns" if prose else "line breaks"), kind)

    for field in ("name", "version"):
        if "\n" in getattr(doc.project, field) or "\r" in getattr(doc.project, field):
            report("register", f"register {field}", False)
    for block in _BLOCKS.values():
        for obj in block.held(doc) if block.texts else ():
            for label, get, repeated, prose, names in block.texts:
                value = get(obj)
                if not value:
                    continue
                for item in value if repeated else (value,):
                    for text in [getattr(item, name) for name in names] if names else (item,):
                        if "\r" in text or (not prose and "\n" in text):
                            report("register" if block.single
                                   else str(getattr(obj, block.id_field)), label, prose, block.kind)


# ---------------------------------------------------------------------------
# Interchange export

# Where the interchange format departs from the model.  Each entry lists
# the keys that open a class's object, in order: a field written under its
# own name, a (key, field) pair for a renamed field, or a (key, {key: field})
# pair for fields nested as one object.  The remaining fields follow in
# field order under their own names; unlisted classes write every field so.
_INTERCHANGE_QUIRKS: dict[type, tuple] = {
    m.ElicitationSession: ("id", "date", "participants", ("lenses", "lenses_used")),
    m.Control: ("id", "threats", "description", "rigor"),
    m.ValueDisposition: ("id", "description"),
    m.Attestation: ("id", "subject",
                    ("signatory", {"name": "signatory_name", "role": "signatory_role"})),
    m.FeedbackEntry: ("id", "date"),
}


_WRITERS: dict[type, Callable] = {}  # _writer's result per class
_ENCODE = json.encoder.encode_basestring  # json.dumps's own string encoder, in C
# How json spells a scalar, by the first of these classes it is an instance of.
_SCALARS = ((str, _ENCODE), (bool, {True: "true", False: "false"}.get), (int, int.__repr__),
            (type(None), lambda value: "null"))


def _write(value, out: list, pad: str) -> None:
    """Append to ``out`` what ``json.dumps(indent=2, ensure_ascii=False)`` writes
    for a model value at indentation ``pad``: dataclasses and dicts as objects,
    tuples as arrays."""
    cls = type(value)
    (_WRITERS.get(cls) or _WRITERS.setdefault(cls, _writer(cls)))(value, out, pad)


def _json(value, out: list, pad: str) -> None:
    """A value outside the model's types, written by ``json``; one it refuses
    raises :class:`~evrforge.model.RegisterError`."""
    try:
        text = json.dumps(value, indent=2, ensure_ascii=False)
    except (TypeError, ValueError) as error:
        raise m.RegisterError(str(error)) from error
    out.append(text.replace("\n", "\n" + pad))


def _array(items, out: list, pad: str, cls: type | None = None) -> None:
    """A tuple as an array; an item of the record class ``cls`` by its writer."""
    if not items:
        out.append("[]")
        return
    inner = pad + "  "
    comma, write = ",\n" + inner, cls and _object(cls, inner)
    out.append("[\n" + inner)
    for item in items:
        write(item, out) if item.__class__ is cls else _write(item, out, inner)
        out.append(comma)
    out[-1] = "\n" + pad + "]"  # in place of the last comma


def _dict(items: dict, out: list, pad: str) -> None:
    """A dict of string keys as an object, in insertion order; one with any
    other key as ``json`` writes it or refuses it."""
    if not items:
        out.append("{}")
        return
    if any(key.__class__ is not str for key in items):
        return _json(items, out, pad)
    inner = pad + "  "
    comma = ",\n" + inner
    out.append("{\n" + inner)
    for key, value in items.items():
        out.append(_ENCODE(key) + ": ")
        _write(value, out, inner)
        out.append(comma)
    out[-1] = "\n" + pad + "}"  # in place of the last comma


def _writer(cls: type) -> Callable:
    """How ``_write`` writes a value of ``cls``."""
    if cls is tuple or cls is list:
        return _array
    if cls is dict:
        return _dict
    if is_dataclass(cls):
        return lambda value, out, pad: _object(cls, pad)(value, out)
    for base, spell in _SCALARS:
        if issubclass(cls, base):
            return lambda value, out, pad: out.append(spell(value))
    return _json


# How a record's writer spells a field's value ``v`` of these classes, in line.
_SPELLED = {str: "_ENCODE(v)", int: "repr(v)", bool: "('true' if v else 'false')"}


@functools.cache
def _object(cls: type, pad: str) -> Callable:
    """``write(obj, out)`` for a record class at an indentation, each key and
    separator fixed in it: a value of its field's class is written in line, a
    tuple of strings joined in C; any other value but None and ``()`` by ``_write``."""
    inner, hints = pad + "  ", {f.name: f.type for f in fields(cls)}
    plan = [(entry, entry) if isinstance(entry, str) else entry
            for entry in _INTERCHANGE_QUIRKS.get(cls, ())]
    taken = {name for _, held in plan
             for name in ((held,) if isinstance(held, str) else held.values())}
    plan += [(f.name, f.name) for f in fields(cls) if f.name not in taken]
    bound: dict = {}
    lines, opener = ["def write(obj, out):"], "{\n" + inner
    for name, held in plan:
        prefix, opener = opener + _ENCODE(name) + ": ", ",\n" + inner
        if not isinstance(held, str):  # fields nested as one object
            nested = ", ".join(f"{k!r}: obj.{field}" for k, field in held.items())
            lines += [f"    out.append({prefix!r})", f"    _dict({{{nested}}}, out, {inner!r})"]
            continue
        item, repeated = _held_class(hints[held])
        bound[f"{held}_class"] = item
        optional = type(None) in getattr(hints[held], "__args__", ())
        test, body, empty = "False", ["pass"], optional and ("is None", "null")
        generic = f"out.append({prefix!r}); _write(v, out, {inner!r})"
        if repeated and item is str:  # an item that is no string makes ``_ENCODE`` raise
            comma, closed, empty = ",\n" + inner + "  ", "\n" + inner + "]", ("== ()", "[]")
            test, body = "v.__class__ is tuple and v", [
                "try:", f"    out.append({prefix + '[' + comma[1:]!r} + {comma!r}.join("
                f"map(_ENCODE, v)) + {closed!r})", "except TypeError:", "    " + generic]
        elif repeated and is_dataclass(item):
            test, body = "v.__class__ is tuple", [
                f"out.append({prefix!r})", f"_array(v, out, {inner!r}, {held}_class)"]
        elif is_dataclass(item):
            test, body = f"v.__class__ is {held}_class", [
                f"out.append({prefix!r})", f"_object({held}_class, {inner!r})(v, out)"]
        elif not repeated and (item in _SPELLED or Enum in getattr(item, "__mro__", ())):
            test, body = f"v.__class__ is {held}_class", [
                f"out.append({prefix!r} + {_SPELLED.get(item, '_ENCODE(v)')})"]
        lines += [f"    v = obj.{held}", f"    if {test}:", *("        " + b for b in body)]
        if empty:  # None, or an empty tuple of strings, as a constant
            lines += [f"    elif v {empty[0]}:", f"        out.append({prefix + empty[1]!r})"]
        lines += ["    else:", "        " + generic]
    return _compiled(lines + [f"    out.append({chr(10) + pad + '}'!r})"], bound)


def export_interchange(doc: m.RegisterDocument) -> str:
    """Loss-free JSON rendering.  Keys follow the model's field order, apart
    from the quirks listed in ``_INTERCHANGE_QUIRKS``."""
    out: list[str] = []
    _write(doc, out, "")
    return "".join(out) + "\n"
