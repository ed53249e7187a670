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
    attrs       := (KEY value*)*      keys fixed per block kind

Parsing never aborts: problems come back as diagnostics with source spans,
and recovery continues after a broken block so one run reports many errors.
A document is returned only when no error-severity diagnostic was produced.
"""

from __future__ import annotations

import functools
import json
import re
from collections.abc import Callable
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from operator import attrgetter

from . import model as m


@dataclass(frozen=True)
class SourceSpan:
    """Inclusive character span, 1-based lines and columns."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int


@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    severity: str  # "error" or "warning"
    code: str
    message: str
    hint: str | None = None

    def render(self) -> str:
        where = f"{self.span.file}:{self.span.start_line}:{self.span.start_col}"
        return f"{self.severity.upper()} {self.code} {where}: {self.message}"


@dataclass(frozen=True)
class ParseResult:
    document: m.RegisterDocument | None
    diagnostics: tuple[ParseDiagnostic, ...]
    # The ``register`` keyword; None when the source has none, as an empty,
    # blank or comment-only source, whose document is an empty register.
    header: SourceSpan | None = None

    @property
    def errors(self) -> tuple[ParseDiagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")

    @property
    def warnings(self) -> tuple[ParseDiagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "warning")


# ---------------------------------------------------------------------------
# Lexer

class _Token:
    """One lexeme: kind is IDENT STRING INT DOTTED COMMA or EOF, and
    ``end_col`` is exclusive."""

    __slots__ = ("kind", "text", "value", "line", "col", "end_col")

    def __init__(self, kind: str, text: str, value: str, line: int, col: int,
                 end_col: int) -> None:
        self.kind = kind
        self.text = text
        self.value = value
        self.line = line
        self.col = col
        self.end_col = end_col

    def span(self, file: str) -> SourceSpan:
        return SourceSpan(file, self.line, self.col, self.line, max(self.col, self.end_col - 1))


# One match per lexeme, blanks before it included.  Neither strings nor
# comments span lines, so the source is matched one line at a time.  A
# string matches up to its closing quote or the end of the line, whatever
# its escapes, so malformed strings need no second pass.  Character classes
# are spelled out because the format is ASCII-only (no \d, \w).
_TOKEN_RE = re.compile(
    r'[ \t\r]*(?:'
    r'(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)'
    r'|(?P<STRING>"[^"\\]*(?:\\.?[^"\\]*)*(?P<close>"?))'
    r'|(?P<DOTTED>[0-9]+(?:\.[0-9]+)+(?:-[TC][0-9]+)?)'
    r'|(?P<INT>[0-9]+)'
    r'|(?P<COMMA>,)'
    r'|(?P<COMMENT>#.*)'
    r'|(?P<ILLEGAL>[^ \t\r]))'
)
_ESCAPE_RE = re.compile(r'\\(.?)')


def _unescape(body: str, line: int, col: int, file: str,
              diags: list[ParseDiagnostic]) -> str:
    """Resolve the escapes in a string body that starts at column ``col``.

    A backslash before anything but a quote or a backslash is kept as it is
    and reported.
    """
    def resolve(escape: re.Match) -> str:
        if escape[1] in ('"', "\\"):
            return escape[1]
        at = col + escape.start()
        diags.append(ParseDiagnostic(
            SourceSpan(file, line, at, line, at), "error", "P003",
            "unsupported escape sequence; only \\\" and \\\\ are recognized",
        ))
        return escape[0]

    return _ESCAPE_RE.sub(resolve, body)


def _lex(source: str, file: str) -> tuple[list[_Token], list[ParseDiagnostic]]:
    tokens: list[_Token] = []
    diags: list[ParseDiagnostic] = []
    append = tokens.append
    lines = source.split("\n")
    for lineno, text in enumerate(lines, 1):
        for match in _TOKEN_RE.finditer(text):
            kind = match.lastgroup
            start = match.start(kind)
            end = match.end()
            lexeme = text[start:end]
            if kind == "STRING":
                closed = match["close"]
                value = lexeme[1:-1] if closed else lexeme[1:]
                if "\\" in value:
                    value = _unescape(value, lineno, start + 2, file, diags)
                token = _Token(kind, lexeme, value, lineno, start + 1, end + 1)
                if not closed:
                    diags.append(ParseDiagnostic(token.span(file), "error", "P002",
                                                 "unterminated string"))
                append(token)
            elif kind == "ILLEGAL":
                diags.append(ParseDiagnostic(
                    SourceSpan(file, lineno, start + 1, lineno, start + 1), "error", "P004",
                    f"illegal character {lexeme!r}",
                ))
            elif kind != "COMMENT":
                append(_Token(kind, lexeme, lexeme, lineno, start + 1, end + 1))

    end = len(lines[-1]) + 1
    append(_Token("EOF", "", "", len(lines), end, end))
    return tokens, diags


# ---------------------------------------------------------------------------
# Parser

_BLOCK_KEYWORDS = {
    "soi", "sos", "stakeholder", "context", "session", "statement",
    "corevalue", "quality", "evr", "threat", "control", "disposition",
    "funcreq", "concept", "persona", "attestation", "mission", "decision",
    "feedback", "alias",
}


@functools.cache
def _enum_members(enum_cls: type[Enum]) -> dict[str, Enum]:
    return {e.value: e for e in enum_cls}


class _SyntaxProblem(Exception):
    def __init__(self, code: str, message: str, token: _Token):
        super().__init__(message)
        self.code = code
        self.message = message
        self.token = token


class _Parser:
    def __init__(self, tokens: list[_Token], file: str):
        self.tokens = tokens
        self.file = file
        self.pos = 0
        self.diags: list[ParseDiagnostic] = []
        self.spans: dict[str, SourceSpan] = {}

        self.project_name = ""
        self.version = ""
        self.phase = m.Phase.CONCEPT
        self.soi: m.Soi | None = None
        # Entities per document collection; personas are _RawPersona until
        # build_document resolves their kind.
        self.entities: dict[str, list] = {kind: [] for kind in m.ENTITY_KINDS}
        self.mission: m.ValueMission | None = None
        self.decision: m.InvestmentDecision | None = None
        self.aliases: dict[str, str] = {}

    # -- token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, token: _Token | None = None, code: str = "P001"):
        raise _SyntaxProblem(code, message, token or self.peek())

    def diag(self, severity: str, code: str, message: str, token: _Token) -> None:
        self.diags.append(ParseDiagnostic(token.span(self.file), severity, code, message))

    def need_string(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "STRING":
            self.error(f"expected {what} (a quoted string), found {tok.text or 'end of input'!r}")
        return self.advance().value

    def need_int(self, what: str) -> int:
        tok = self.peek()
        if tok.kind != "INT":
            self.error(f"expected {what} (an integer), found {tok.text or 'end of input'!r}")
        return int(self.advance().value)

    def need_ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "IDENT":
            self.error(f"expected {what}, found {tok.text or 'end of input'!r}")
        return self.advance().value

    def need_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.value != word:
            self.error(f"expected keyword {word!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def need_bool(self, what: str) -> bool:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value in ("true", "false"):
            return self.advance().value == "true"
        self.error(f"expected true or false for {what}, found {tok.text or 'end of input'!r}")

    def need_enum(self, enum_cls, what: str):
        tok = self.peek()
        member = _enum_members(enum_cls).get(tok.value) if tok.kind == "IDENT" else None
        if member is None:
            self.error(
                f"expected one of {', '.join(e.value for e in enum_cls)} for {what}, "
                f"found {tok.text or 'end of input'!r}",
                code="P020",
            )
        self.advance()
        return member

    def need_dotted(self, pattern, what: str) -> str:
        tok = self.peek()
        if tok.kind not in ("DOTTED", "INT") or not pattern.match(tok.value):
            self.error(f"expected {what}, found {tok.text or 'end of input'!r}", code="P012")
        return self.advance().value

    def record_span(self, entity_id: str, token: _Token) -> None:
        self.spans.setdefault(entity_id, token.span(self.file))

    # -- top level

    def parse(self) -> None:
        if self.peek().kind == "EOF":
            return
        try:
            self.parse_header()
        except _SyntaxProblem as problem:
            self.diag("error", problem.code, problem.message, problem.token)
            self.skip_to_block()
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind == "IDENT" and tok.value in _BLOCK_KEYWORDS:
                try:
                    self.parse_block(self.advance())
                except _SyntaxProblem as problem:
                    self.diag("error", problem.code, problem.message, problem.token)
                    self.skip_past_end()
            else:
                if tok.kind == "IDENT":
                    self.diag("error", "P005", f"unknown block keyword {tok.value!r}", tok)
                else:
                    self.diag("error", "P001", f"expected a block keyword, found {tok.text!r}", tok)
                self.advance()
                self.skip_past_end()

    def skip_to_block(self) -> None:
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind == "IDENT" and tok.value in _BLOCK_KEYWORDS:
                return
            self.advance()

    def skip_past_end(self) -> None:
        """Recovery: drop tokens until after the current block's end."""
        while self.peek().kind != "EOF":
            tok = self.advance()
            if tok.kind == "IDENT" and tok.value == "end":
                return
            if tok.kind == "IDENT" and tok.value in _BLOCK_KEYWORDS:
                # The block was evidently never closed; rewind so the next
                # block still parses.
                self.pos -= 1
                return

    def parse_header(self) -> None:
        head = self.need_keyword("register")
        self.record_span("register", head)
        self.project_name = self.need_string("project name")
        if self.peek().kind == "IDENT" and self.peek().value == "version":
            self.advance()
            self.version = self.need_string("version tag")
        self.need_keyword("phase")
        self.phase = self.need_enum(m.Phase, "phase")

    def parse_block(self, head: _Token) -> None:
        handler = getattr(self, f"block_{head.value}")
        handler(head)

    # -- attribute machinery

    def parse_attrs(self, keys: dict) -> None:
        """Consume ``(KEY value*)*`` up to and including ``end``."""
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                self.error("unexpected end of input inside a block (missing 'end')", tok)
            if tok.kind != "IDENT":
                self.error(f"expected an attribute key or 'end', found {tok.text!r}")
            if tok.value == "end":
                self.advance()
                return
            handler = keys.get(tok.value)
            if handler is None:
                self.diag("warning", "P090", f"unknown attribute key {tok.value!r}", tok)
                self.advance()
                nxt = self.peek()
                if nxt.kind in ("STRING", "INT", "DOTTED") or (
                    nxt.kind == "IDENT" and nxt.value != "end" and nxt.value not in keys
                ):
                    self.advance()
                continue
            self.advance()
            handler()

    def parse_lens(self) -> m.Lens:
        kind = self.need_enum(m.LensKind, "lens kind")
        framework = ""
        if kind is m.LensKind.CULTURAL and self.peek().kind == "STRING":
            framework = self.advance().value
        return m.Lens(kind=kind, framework=framework)

    def collect_notes(self) -> "_NoteAccumulator":
        return _NoteAccumulator()

    # -- blocks

    def block_soi(self, head: _Token) -> None:
        if self.soi is not None:
            self.diag("error", "P018", "duplicate soi block", head)
        regions: list[str] = []
        notes = self.collect_notes()
        state: dict = {}

        self.parse_attrs({
            "name": lambda: state.__setitem__("name", self.need_string("system name")),
            "note": lambda: notes.add(self.need_string("note text")),
            "region": lambda: regions.append(self.need_string("region code")),
        })
        # An soi block without a name inherits the project name.
        name = state["name"] if "name" in state else self.project_name
        soi = m.Soi(name=name, concept_of_operation=notes.text(),
                    deployment_regions=tuple(regions))
        if self.soi is None:
            self.soi = soi

    def block_sos(self, head: _Token) -> None:
        eid = self.need_ident("sos element id")
        self.record_span(eid, head)
        name = self.need_string("sos element name")
        state: dict = {"tier": 1, "personal_data": False, "ethical_scope": False,
                       "enabling_access": False}

        self.parse_attrs({
            "cooperation": lambda: state.__setitem__(
                "cooperation", self.need_enum(m.CooperationType, "cooperation type")),
            "tier": lambda: state.__setitem__("tier", self.need_int("tier")),
            "personal_data": lambda: state.__setitem__(
                "personal_data", self.need_bool("personal_data")),
            "ethical_scope": lambda: state.__setitem__(
                "ethical_scope", self.need_bool("ethical_scope")),
            "enabling_access": lambda: state.__setitem__(
                "enabling_access", self.need_bool("enabling_access")),
        })
        if "cooperation" not in state:
            self.error(f"sos element {eid} declares no cooperation type", head, code="P006")
        self.entities["sos_elements"].append(m.SosElement(
            id=eid, name=name, cooperation_type=state["cooperation"],
            tier=state["tier"], processes_personal_data=state["personal_data"],
            in_ethical_scope=state["ethical_scope"],
            access_to_enabling_elements=state["enabling_access"],
        ))

    def block_stakeholder(self, head: _Token) -> None:
        eid = self.need_ident("stakeholder id")
        self.record_span(eid, head)
        name = self.need_string("stakeholder name")
        notes = self.collect_notes()
        state: dict = {"region": ""}
        profile: dict = {}

        self.parse_attrs({
            "kind": lambda: state.__setitem__(
                "kind", self.need_enum(m.StakeholderKind, "stakeholder kind")),
            "note": lambda: notes.add(self.need_string("note text")),
            "region": lambda: state.__setitem__("region", self.need_string("region code")),
            "motivation": lambda: profile.__setitem__("motivation", self.need_string("motivation")),
            "power": lambda: profile.__setitem__("power", self.need_string("power")),
            "knowledge": lambda: profile.__setitem__("knowledge", self.need_string("knowledge")),
            "legitimization": lambda: profile.__setitem__(
                "legitimization", self.need_string("legitimization")),
        })
        if "kind" not in state:
            self.error(f"stakeholder {eid} declares no kind", head, code="P006")
        self.entities["stakeholders"].append(m.Stakeholder(
            id=eid, name=name, kind=state["kind"], description=notes.text(),
            region=state["region"],
            selection_profile=m.SelectionProfile(**profile) if profile else None,
        ))

    def block_context(self, head: _Token) -> None:
        eid = self.need_ident("context id")
        self.record_span(eid, head)
        name = self.need_string("context name")
        state: dict = {"captured": m.CaptureStage.PRE_DESIGN}
        elements: list[str] = []
        types: list[str] = []
        flows: list[m.DataFlow] = []
        subjects: list[str] = []
        expectations: list[str] = []

        def add_flow():
            source = self.need_string("flow source element")
            sink = self.need_string("flow sink element")
            dtype = self.need_string("flow data type")
            flows.append(m.DataFlow(source=source, sink=sink, data_type=dtype))

        def add_subject():
            tok = self.peek()
            if tok.kind == "IDENT" and tok.value != "end":
                subjects.append(self.advance().value)
            else:
                subjects.append(self.need_string("data subject"))

        self.parse_attrs({
            "captured": lambda: state.__setitem__(
                "captured", self.need_enum(m.CaptureStage, "capture stage")),
            "element": lambda: elements.append(self.need_string("data element")),
            "data_type": lambda: types.append(self.need_string("data type")),
            "flow": add_flow,
            "subject": add_subject,
            "expect": lambda: expectations.append(self.need_string("integrity expectation")),
        })
        self.entities["contexts"].append(m.ContextOfUse(
            id=eid, name=name, captured=state["captured"],
            data_elements=tuple(elements), data_flows=tuple(flows),
            data_subjects=tuple(subjects), data_types=tuple(types),
            integrity_expectations=tuple(expectations),
        ))

    def block_session(self, head: _Token) -> None:
        eid = self.need_ident("session id")
        self.record_span(eid, head)
        state: dict = {"date": ""}
        participants: list[str] = []
        lenses: list[m.Lens] = []

        self.parse_attrs({
            "date": lambda: state.__setitem__("date", self.need_string("session date")),
            "participant": lambda: participants.append(self.need_ident("stakeholder id")),
            "lens": lambda: lenses.append(self.parse_lens()),
        })
        self.entities["sessions"].append(m.ElicitationSession(
            id=eid, date=state["date"], participants=tuple(participants),
            lenses_used=tuple(lenses),
        ))

    def block_statement(self, head: _Token) -> None:
        eid = self.need_ident("statement id")
        self.record_span(eid, head)
        notes = self.collect_notes()
        state: dict = {"polarity": m.Polarity.POSITIVE}
        named: list[str] = []
        extracted: list[str] = []

        self.parse_attrs({
            "session": lambda: state.__setitem__("session", self.need_ident("session id")),
            "by": lambda: state.__setitem__("by", self.need_ident("stakeholder id")),
            "lens": lambda: state.__setitem__("lens", self.parse_lens()),
            "polarity": lambda: state.__setitem__(
                "polarity", self.need_enum(m.Polarity, "polarity")),
            "note": lambda: notes.add(self.need_string("note text")),
            "value": lambda: named.append(self.need_string("value name")),
            "extracted": lambda: extracted.append(self.need_string("value name")),
        })
        for required in ("session", "by", "lens"):
            if required not in state:
                self.error(f"statement {eid} declares no {required}", head, code="P006")
        self.entities["statements"].append(m.ValueStatement(
            id=eid, session=state["session"], stakeholder=state["by"],
            lens=state["lens"], text=notes.text(), polarity=state["polarity"],
            named_values=tuple(named), extracted_values=tuple(extracted),
        ))

    def block_corevalue(self, head: _Token) -> None:
        tok = self.peek()
        if tok.kind != "INT" or (len(tok.value) > 1 and tok.value.startswith("0")):
            self.error(f"expected a core value number, found {tok.text or 'end of input'!r}",
                       code="P012")
        cv_id = int(self.advance().value)
        self.record_span(str(cv_id), head)
        name = self.need_string("core value name")
        self.need_keyword("rank")
        rank = self.need_int("priority rank")
        aliases: list[str] = []
        supports: list[str] = []
        state: dict = {"intrinsic": True}
        scores: dict = {}

        criteria = ("endurance", "depth", "indivisibility", "bearer_independence",
                    "intrinsic_worth")

        def score_setter(criterion: str):
            return lambda: scores.__setitem__(criterion, self.need_int(criterion))

        keys: dict = {
            "alias": lambda: aliases.append(self.need_string("alias name")),
            "intrinsic": lambda: state.__setitem__("intrinsic", self.need_bool("intrinsic")),
            "support": lambda: supports.append(self.need_ident("statement id")),
        }
        for criterion in criteria:
            keys[criterion] = score_setter(criterion)
        self.parse_attrs(keys)

        hierarchy = None
        if scores:
            missing = [c for c in criteria if c not in scores]
            if missing:
                self.error(
                    f"core value {cv_id} scores are incomplete (missing {', '.join(missing)})",
                    head, code="P034",
                )
            hierarchy = m.HierarchyScores(**scores)
        self.entities["core_values"].append(m.CoreValue(
            id=cv_id, name=name, priority_rank=rank, aliases=tuple(aliases),
            intrinsic=state["intrinsic"], hierarchy_scores=hierarchy,
            supporting_statements=tuple(supports),
        ))

    def block_quality(self, head: _Token) -> None:
        qid = self.need_dotted(m.QUALITY_ID_RE, "a quality id of the form N.M")
        self.record_span(qid, head)
        name = self.need_string("quality name")
        self.need_keyword("of")
        parent = self.need_int("parent core value number")
        self.need_keyword("direction")
        direction = self.need_enum(m.QualityDirection, "direction")
        state: dict = {"source": m.QualitySource.STAKEHOLDER}

        self.parse_attrs({
            "source": lambda: state.__setitem__(
                "source", self.need_enum(m.QualitySource, "quality source")),
        })
        self.entities["qualities"].append(m.ValueQuality(
            id=qid, core_value=parent, name=name, direction=direction,
            source=state["source"],
        ))

    def block_evr(self, head: _Token) -> None:
        eid = self.need_dotted(m.EVR_ID_RE, "an EVR id of the form N.M.K")
        self.record_span(eid, head)
        text = self.need_string("requirement text")
        self.need_keyword("of")
        quality = self.need_dotted(m.QUALITY_ID_RE, "the parent quality id")
        state: dict = {
            "kind": m.EvrKind.ORGANIZATIONAL,
            "risk": m.RiskPath.UNCLASSIFIED,
            "likelihood": m.HarmLikelihood.UNLIKELY,
            "life": False, "health": False, "legal_breach": False,
        }
        legal: list[str] = []

        def set_threshold():
            metric = self.need_string("threshold metric")
            comparator = self.need_string("threshold comparator")
            level = self.need_string("threshold level")
            rationale = self.need_string("threshold rationale")
            state["threshold"] = m.Threshold(metric=metric, comparator=comparator,
                                             level=level, rationale=rationale)

        def set_demand():
            level = self.need_int("protection demand level")
            rationale = self.need_string("protection demand rationale")
            state["demand"] = m.ProtectionDemand(level=level, rationale=rationale)

        self.parse_attrs({
            "kind": lambda: state.__setitem__("kind", self.need_enum(m.EvrKind, "EVR kind")),
            "threshold": set_threshold,
            "risk": lambda: state.__setitem__("risk", self.need_enum(m.RiskPath, "risk path")),
            "legal": lambda: legal.append(self.need_string("legal instrument")),
            "harm_life": lambda: state.__setitem__("life", self.need_bool("harm_life")),
            "harm_health": lambda: state.__setitem__("health", self.need_bool("harm_health")),
            "harm_legal_breach": lambda: state.__setitem__(
                "legal_breach", self.need_bool("harm_legal_breach")),
            "likelihood": lambda: state.__setitem__(
                "likelihood", self.need_enum(m.HarmLikelihood, "harm likelihood")),
            "demand": set_demand,
        })
        self.entities["evrs"].append(m.Evr(
            id=eid, quality=quality, text=text, kind=state["kind"],
            threshold=state.get("threshold"), risk_path=state["risk"],
            legal_instruments=tuple(legal),
            harm_flags=m.HarmFlags(life=state["life"], health=state["health"],
                                   legal_breach=state["legal_breach"]),
            harm_likelihood=state["likelihood"],
            protection_demand=state.get("demand"),
        ))

    def block_threat(self, head: _Token) -> None:
        tid = self.need_dotted(m.THREAT_ID_RE, "a threat id of the form N.M.K-Tj")
        self.record_span(tid, head)
        self.need_keyword("of")
        evr = self.need_dotted(m.EVR_ID_RE, "the parent EVR id")
        notes = self.collect_notes()
        state: dict = {"realistic": True}

        self.parse_attrs({
            "realistic": lambda: state.__setitem__("realistic", self.need_bool("realistic")),
            "note": lambda: notes.add(self.need_string("note text")),
        })
        self.entities["threats"].append(m.Threat(id=tid, evr=evr, description=notes.text(),
                                                 realistic=state["realistic"]))

    def block_control(self, head: _Token) -> None:
        cid = self.need_dotted(m.CONTROL_ID_RE, "a control id of the form N.M.K-Cj")
        self.record_span(cid, head)
        self.need_keyword("for")
        threats = [self.need_dotted(m.THREAT_ID_RE, "a threat id")]
        while self.peek().kind == "COMMA":
            self.advance()
            threats.append(self.need_dotted(m.THREAT_ID_RE, "a threat id"))
        notes = self.collect_notes()
        state: dict = {"rigor": 1, "status": m.ControlStatus.PROPOSED}

        self.parse_attrs({
            "rigor": lambda: state.__setitem__("rigor", self.need_int("rigor")),
            "form": lambda: state.__setitem__(
                "form", self.need_enum(m.ControlForm, "control form")),
            "status": lambda: state.__setitem__(
                "status", self.need_enum(m.ControlStatus, "control status")),
            "disposition": lambda: state.__setitem__(
                "disposition", self.need_ident("disposition id")),
            "note": lambda: notes.add(self.need_string("note text")),
        })
        if "form" not in state:
            self.error(f"control {cid} declares no form", head, code="P006")
        self.entities["controls"].append(m.Control(
            id=cid, threats=tuple(threats), form=state["form"],
            description=notes.text(), rigor=state["rigor"], status=state["status"],
            implementing_disposition=state.get("disposition"),
        ))

    def block_disposition(self, head: _Token) -> None:
        did = self.need_ident("disposition id")
        self.record_span(did, head)
        notes = self.collect_notes()
        state: dict = {}
        implements: list[str] = []

        self.parse_attrs({
            "component": lambda: state.__setitem__(
                "component", self.need_string("soi component")),
            "implements": lambda: implements.append(
                self.need_dotted(m.CONTROL_ID_RE, "a control id")),
            "note": lambda: notes.add(self.need_string("note text")),
        })
        if "component" not in state:
            self.error(f"disposition {did} declares no soi component", head, code="P006")
        self.entities["dispositions"].append(m.ValueDisposition(
            id=did, soi_component=state["component"], implements=tuple(implements),
            description=notes.text(),
        ))

    def block_funcreq(self, head: _Token) -> None:
        fid = self.need_ident("functional requirement id")
        self.record_span(fid, head)
        notes = self.collect_notes()
        self.parse_attrs({
            "note": lambda: notes.add(self.need_string("note text")),
        })
        self.entities["functional_requirements"].append(
            m.FunctionalRequirement(id=fid, text=notes.text()))

    def block_concept(self, head: _Token) -> None:
        cid = self.need_ident("design concept id")
        self.record_span(cid, head)
        name = self.need_string("design concept name")
        ethical: list[str] = []
        functional: list[str] = []

        def add_ethical():
            tok = self.peek()
            if tok.kind == "DOTTED" and (m.EVR_ID_RE.match(tok.value)
                                         or m.CONTROL_ID_RE.match(tok.value)):
                ethical.append(self.advance().value)
            else:
                self.error(f"expected an EVR or control id, found {tok.text or 'end of input'!r}",
                           code="P012")

        self.parse_attrs({
            "ethical": add_ethical,
            "functional": lambda: functional.append(
                self.need_ident("functional requirement id")),
        })
        self.entities["design_concepts"].append(m.DesignConcept(
            id=cid, name=name, ethical_refs=tuple(ethical),
            functional_refs=tuple(functional),
        ))

    def block_persona(self, head: _Token) -> None:
        pid = self.need_ident("persona id")
        self.record_span(pid, head)
        name = self.need_string("persona name")
        notes = self.collect_notes()
        state: dict = {}

        self.parse_attrs({
            "stakeholder": lambda: state.__setitem__(
                "stakeholder", self.need_ident("stakeholder id")),
            "note": lambda: notes.add(self.need_string("note text")),
        })
        if "stakeholder" not in state:
            self.error(f"persona {pid} declares no stakeholder", head, code="P006")
        self.entities["personas"].append(_RawPersona(
            id=pid, name=name, stakeholder=state["stakeholder"],
            narrative=notes.text(),
        ))

    def block_attestation(self, head: _Token) -> None:
        aid = self.need_ident("attestation id")
        self.record_span(aid, head)
        kind_word = self.need_ident("attestation subject")
        if kind_word == "priority":
            subject = m.AttestationSubject(m.SubjectKind.PRIORITY_DECISION,
                                           str(self.need_int("core value number")))
        elif kind_word == "risk":
            subject = m.AttestationSubject(
                m.SubjectKind.RISK_ACCEPTANCE,
                self.need_dotted(m.CONTROL_ID_RE, "a control id"))
        elif kind_word == "mission":
            subject = m.AttestationSubject(m.SubjectKind.MISSION)
        elif kind_word == "decision":
            subject = m.AttestationSubject(m.SubjectKind.INVESTMENT_DECISION)
        elif kind_word == "rule":
            subject = m.AttestationSubject(m.SubjectKind.RULE,
                                           self.need_string("rule id"))
        else:
            self.error(
                f"expected priority, risk, mission, decision or rule, found {kind_word!r}")
        notes = self.collect_notes()
        state: dict = {"consent": False}

        self.parse_attrs({
            "by": lambda: state.__setitem__("by", self.need_string("signatory name")),
            "role": lambda: state.__setitem__(
                "role", self.need_enum(m.SignatoryRole, "signatory role")),
            "date": lambda: state.__setitem__("date", self.need_string("date")),
            "consent": lambda: state.__setitem__("consent", self.need_bool("consent")),
            "note": lambda: notes.add(self.need_string("note text")),
        })
        for required in ("by", "role", "date"):
            if required not in state:
                self.error(f"attestation {aid} declares no {required}", head, code="P006")
        self.entities["attestations"].append(m.Attestation(
            id=aid, subject=subject, signatory_name=state["by"],
            signatory_role=state["role"], date=state["date"],
            statement=notes.text(), consent=state["consent"],
        ))

    def block_mission(self, head: _Token) -> None:
        if self.mission is not None:
            self.diag("error", "P018", "duplicate mission block", head)
        notes = self.collect_notes()
        featured: list[int] = []
        signed: list[str] = []

        self.parse_attrs({
            "note": lambda: notes.add(self.need_string("note text")),
            "feature": lambda: featured.append(self.need_int("core value number")),
            "signed": lambda: signed.append(self.need_ident("attestation id")),
        })
        mission = m.ValueMission(text=notes.text(), featured=tuple(featured),
                                 signed_by=tuple(signed))
        if self.mission is None:
            self.mission = mission

    def block_decision(self, head: _Token) -> None:
        if self.decision is not None:
            self.diag("error", "P018", "duplicate decision block", head)
        verdict = self.need_enum(m.Verdict, "verdict")
        notes = self.collect_notes()
        signed: list[str] = []

        self.parse_attrs({
            "note": lambda: notes.add(self.need_string("note text")),
            "signed": lambda: signed.append(self.need_ident("attestation id")),
        })
        decision = m.InvestmentDecision(verdict=verdict, rationale=notes.text(),
                                        attestations=tuple(signed))
        if self.decision is None:
            self.decision = decision

    def block_feedback(self, head: _Token) -> None:
        fid = self.need_ident("feedback id")
        self.record_span(fid, head)
        notes = self.collect_notes()
        state: dict = {"date": "", "reprioritize": False}
        resulted: list[str] = []

        def set_source():
            tok = self.peek()
            if tok.kind == "IDENT" and tok.value != "end":
                state["source"] = self.advance().value
            else:
                self.error(f"expected a stakeholder id or market, found {tok.text or 'end of input'!r}")

        def add_resulted():
            tok = self.peek()
            if tok.kind == "IDENT" and tok.value != "end":
                resulted.append(self.advance().value)
            elif tok.kind == "DOTTED" and m.QUALITY_ID_RE.match(tok.value):
                resulted.append(self.advance().value)
            else:
                self.error(
                    f"expected a statement or quality id, found {tok.text or 'end of input'!r}")

        self.parse_attrs({
            "date": lambda: state.__setitem__("date", self.need_string("date")),
            "from": set_source,
            "note": lambda: notes.add(self.need_string("note text")),
            "resulted": add_resulted,
            "reprioritize": lambda: state.__setitem__(
                "reprioritize", self.need_bool("reprioritize")),
        })
        if "source" not in state:
            self.error(f"feedback {fid} declares no source", head, code="P006")
        self.entities["feedback"].append(m.FeedbackEntry(
            id=fid, source=state["source"], date=state["date"], text=notes.text(),
            resulted=tuple(resulted),
            reprioritization_required=state["reprioritize"],
        ))

    def block_alias(self, head: _Token) -> None:
        name = self.need_string("alias name")
        target = self.need_string("canonical name")
        if name in self.aliases:
            self.diag("error", "P010", f"duplicate alias {name!r}", head)
            return
        self.record_span(name, head)
        self.aliases[name] = target

    # -- assembly

    def build_document(self) -> m.RegisterDocument:
        soi = self.soi if self.soi is not None else m.Soi(name=self.project_name)
        collections = {kind: tuple(items) for kind, items in self.entities.items()}
        holders = {s.id: s for s in collections["stakeholders"]}
        collections["personas"] = tuple(
            m.Persona(
                id=p.id, name=p.name, stakeholder=p.stakeholder,
                kind=holders[p.stakeholder].kind if p.stakeholder in holders
                else m.StakeholderKind.DIRECT,
                narrative=p.narrative,
            )
            for p in collections["personas"]
        )
        return m.RegisterDocument(
            project=m.ProjectMeta(name=self.project_name, version=self.version),
            phase=self.phase,
            soi=soi,
            mission=self.mission,
            investment_decision=self.decision,
            alias_map=dict(self.aliases),
            **collections,
        )


@dataclass(frozen=True)
class _RawPersona:
    id: str
    name: str
    stakeholder: str
    narrative: str


class _NoteAccumulator:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, line: str) -> None:
        self.lines.append(line)

    def text(self) -> str:
        return "\n".join(self.lines)


def parse_register(source_text: str, file_name: str = "<register>") -> ParseResult:
    """Parse register source into a document plus diagnostics.

    The document is present exactly when no error-severity diagnostic was
    produced.  Empty (or comment-only) input parses to an empty register.
    """
    tokens, diagnostics = _lex(source_text, file_name)
    parser = _Parser(tokens, file_name)
    parser.parse()
    diagnostics = diagnostics + parser.diags

    doc = parser.build_document()
    had_syntax_errors = any(d.severity == "error" for d in diagnostics)
    if not had_syntax_errors:
        fallback = parser.spans.get("register", SourceSpan(file_name, 1, 1, 1, 1))
        for violation in m.validate_register(doc):
            span = parser.spans.get(violation.subject, fallback)
            diagnostics.append(ParseDiagnostic(span, "error", violation.code,
                                               violation.message))

    ordered = tuple(sorted(
        diagnostics,
        key=lambda d: (d.span.start_line, d.span.start_col, d.code, d.message),
    ))
    has_errors = any(d.severity == "error" for d in ordered)
    return ParseResult(document=None if has_errors else doc, diagnostics=ordered,
                       header=parser.spans.get("register"))


# ---------------------------------------------------------------------------
# Canonical serialization

def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _notes(out: list[str], text: str) -> None:
    if not text:
        return
    for line in text.split("\n"):
        out.append(f"  note {_quote(line)}")


def serialize_canonical(doc: m.RegisterDocument) -> str:
    """Render a valid document in canonical form.

    Declaration order is preserved per entity kind, attributes appear in a
    fixed order, and attributes equal to their parse defaults are omitted,
    so the output is a fixed point: parsing and re-serializing it gives the
    same bytes.
    """
    blocks: list[str] = []
    header = f"register {_quote(doc.project.name)}"
    if doc.project.version:
        header += f" version {_quote(doc.project.version)}"
    header += f" phase {doc.phase.value}"
    blocks.append(header)

    if doc.soi != m.Soi(name=doc.project.name):
        out = ["soi"]
        if doc.soi.name != doc.project.name:
            out.append(f"  name {_quote(doc.soi.name)}")
        _notes(out, doc.soi.concept_of_operation)
        for region in doc.soi.deployment_regions:
            out.append(f"  region {_quote(region)}")
        out.append("end")
        blocks.append("\n".join(out))

    for s in doc.sos_elements:
        out = [f"sos {s.id} {_quote(s.name)}"]
        out.append(f"  cooperation {s.cooperation_type.value}")
        if s.tier != 1:
            out.append(f"  tier {s.tier}")
        if s.processes_personal_data:
            out.append("  personal_data true")
        if s.in_ethical_scope:
            out.append("  ethical_scope true")
        if s.access_to_enabling_elements:
            out.append("  enabling_access true")
        out.append("end")
        blocks.append("\n".join(out))

    for h in doc.stakeholders:
        out = [f"stakeholder {h.id} {_quote(h.name)}"]
        out.append(f"  kind {h.kind.value}")
        _notes(out, h.description)
        if h.region:
            out.append(f"  region {_quote(h.region)}")
        if h.selection_profile is not None:
            p = h.selection_profile
            for key, value in (("motivation", p.motivation), ("power", p.power),
                               ("knowledge", p.knowledge),
                               ("legitimization", p.legitimization)):
                if value:
                    out.append(f"  {key} {_quote(value)}")
        out.append("end")
        blocks.append("\n".join(out))

    for c in doc.contexts:
        out = [f"context {c.id} {_quote(c.name)}"]
        if c.captured is not m.CaptureStage.PRE_DESIGN:
            out.append(f"  captured {c.captured.value}")
        for element in c.data_elements:
            out.append(f"  element {_quote(element)}")
        for dtype in c.data_types:
            out.append(f"  data_type {_quote(dtype)}")
        for flow in c.data_flows:
            out.append(f"  flow {_quote(flow.source)} {_quote(flow.sink)} {_quote(flow.data_type)}")
        holders = {s.id for s in doc.stakeholders}
        for subject in c.data_subjects:
            if subject in holders and m.IDENT_RE.match(subject):
                out.append(f"  subject {subject}")
            else:
                out.append(f"  subject {_quote(subject)}")
        for expectation in c.integrity_expectations:
            out.append(f"  expect {_quote(expectation)}")
        out.append("end")
        blocks.append("\n".join(out))

    for s in doc.sessions:
        out = [f"session {s.id}"]
        if s.date:
            out.append(f"  date {_quote(s.date)}")
        for participant in s.participants:
            out.append(f"  participant {participant}")
        for lens in s.lenses_used:
            out.append("  lens " + _lens_text(lens))
        out.append("end")
        blocks.append("\n".join(out))

    for st in doc.statements:
        out = [f"statement {st.id}"]
        out.append(f"  session {st.session}")
        out.append(f"  by {st.stakeholder}")
        out.append("  lens " + _lens_text(st.lens))
        if st.polarity is not m.Polarity.POSITIVE:
            out.append(f"  polarity {st.polarity.value}")
        _notes(out, st.text)
        for name in st.named_values:
            out.append(f"  value {_quote(name)}")
        for name in st.extracted_values:
            out.append(f"  extracted {_quote(name)}")
        out.append("end")
        blocks.append("\n".join(out))

    for cv in doc.core_values:
        out = [f"corevalue {cv.id} {_quote(cv.name)} rank {cv.priority_rank}"]
        for alias in cv.aliases:
            out.append(f"  alias {_quote(alias)}")
        if not cv.intrinsic:
            out.append("  intrinsic false")
        if cv.hierarchy_scores is not None:
            s = cv.hierarchy_scores
            out.append(f"  endurance {s.endurance}")
            out.append(f"  depth {s.depth}")
            out.append(f"  indivisibility {s.indivisibility}")
            out.append(f"  bearer_independence {s.bearer_independence}")
            out.append(f"  intrinsic_worth {s.intrinsic_worth}")
        for ref in cv.supporting_statements:
            out.append(f"  support {ref}")
        out.append("end")
        blocks.append("\n".join(out))

    for q in doc.qualities:
        out = [f"quality {q.id} {_quote(q.name)} of {q.core_value} direction {q.direction.value}"]
        if q.source is not m.QualitySource.STAKEHOLDER:
            out.append(f"  source {q.source.value}")
        out.append("end")
        blocks.append("\n".join(out))

    for e in doc.evrs:
        out = [f"evr {e.id} {_quote(e.text)} of {e.quality}"]
        if e.kind is not m.EvrKind.ORGANIZATIONAL:
            out.append(f"  kind {e.kind.value}")
        if e.threshold is not None:
            t = e.threshold
            out.append(f"  threshold {_quote(t.metric)} {_quote(t.comparator)} "
                       f"{_quote(t.level)} {_quote(t.rationale)}")
        if e.risk_path is not m.RiskPath.UNCLASSIFIED:
            out.append(f"  risk {e.risk_path.value}")
        for instrument in e.legal_instruments:
            out.append(f"  legal {_quote(instrument)}")
        if e.harm_flags.life:
            out.append("  harm_life true")
        if e.harm_flags.health:
            out.append("  harm_health true")
        if e.harm_flags.legal_breach:
            out.append("  harm_legal_breach true")
        if e.harm_likelihood is not m.HarmLikelihood.UNLIKELY:
            out.append(f"  likelihood {e.harm_likelihood.value}")
        if e.protection_demand is not None:
            out.append(f"  demand {e.protection_demand.level} "
                       f"{_quote(e.protection_demand.rationale)}")
        out.append("end")
        blocks.append("\n".join(out))

    for t in doc.threats:
        out = [f"threat {t.id} of {t.evr}"]
        if not t.realistic:
            out.append("  realistic false")
        _notes(out, t.description)
        out.append("end")
        blocks.append("\n".join(out))

    for c in doc.controls:
        out = [f"control {c.id} for {', '.join(c.threats)}"]
        if c.rigor != 1:
            out.append(f"  rigor {c.rigor}")
        out.append(f"  form {c.form.value}")
        if c.status is not m.ControlStatus.PROPOSED:
            out.append(f"  status {c.status.value}")
        if c.implementing_disposition is not None:
            out.append(f"  disposition {c.implementing_disposition}")
        _notes(out, c.description)
        out.append("end")
        blocks.append("\n".join(out))

    for d in doc.dispositions:
        out = [f"disposition {d.id}"]
        out.append(f"  component {_quote(d.soi_component)}")
        for cid in d.implements:
            out.append(f"  implements {cid}")
        _notes(out, d.description)
        out.append("end")
        blocks.append("\n".join(out))

    for f in doc.functional_requirements:
        out = [f"funcreq {f.id}"]
        _notes(out, f.text)
        out.append("end")
        blocks.append("\n".join(out))

    for dc in doc.design_concepts:
        out = [f"concept {dc.id} {_quote(dc.name)}"]
        for ref in dc.ethical_refs:
            out.append(f"  ethical {ref}")
        for ref in dc.functional_refs:
            out.append(f"  functional {ref}")
        out.append("end")
        blocks.append("\n".join(out))

    for p in doc.personas:
        out = [f"persona {p.id} {_quote(p.name)}"]
        out.append(f"  stakeholder {p.stakeholder}")
        _notes(out, p.narrative)
        out.append("end")
        blocks.append("\n".join(out))

    for a in doc.attestations:
        subject = {
            m.SubjectKind.PRIORITY_DECISION: lambda: f"priority {a.subject.ref}",
            m.SubjectKind.RISK_ACCEPTANCE: lambda: f"risk {a.subject.ref}",
            m.SubjectKind.MISSION: lambda: "mission",
            m.SubjectKind.INVESTMENT_DECISION: lambda: "decision",
            m.SubjectKind.RULE: lambda: f"rule {_quote(a.subject.ref)}",
        }[a.subject.kind]()
        out = [f"attestation {a.id} {subject}"]
        out.append(f"  by {_quote(a.signatory_name)}")
        out.append(f"  role {a.signatory_role.value}")
        out.append(f"  date {_quote(a.date)}")
        if a.consent:
            out.append("  consent true")
        _notes(out, a.statement)
        out.append("end")
        blocks.append("\n".join(out))

    if doc.mission is not None:
        out = ["mission"]
        _notes(out, doc.mission.text)
        for ref in doc.mission.featured:
            out.append(f"  feature {ref}")
        for ref in doc.mission.signed_by:
            out.append(f"  signed {ref}")
        out.append("end")
        blocks.append("\n".join(out))

    if doc.investment_decision is not None:
        dec = doc.investment_decision
        out = [f"decision {dec.verdict.value}"]
        _notes(out, dec.rationale)
        for ref in dec.attestations:
            out.append(f"  signed {ref}")
        out.append("end")
        blocks.append("\n".join(out))

    for fb in doc.feedback:
        out = [f"feedback {fb.id}"]
        if fb.date:
            out.append(f"  date {_quote(fb.date)}")
        out.append(f"  from {fb.source}")
        _notes(out, fb.text)
        for ref in fb.resulted:
            out.append(f"  resulted {ref}")
        if fb.reprioritization_required:
            out.append("  reprioritize true")
        out.append("end")
        blocks.append("\n".join(out))

    for name, target in doc.alias_map.items():
        blocks.append(f"alias {_quote(name)} {_quote(target)}")

    return "\n\n".join(blocks) + "\n"


def _lens_text(lens: m.Lens) -> str:
    if lens.kind is m.LensKind.CULTURAL:
        return f"cultural {_quote(lens.framework)}"
    return lens.kind.value


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


# _encoder's result per class.  A plain dict, not functools.cache: it is
# looked up once per exported value, and the dict is the cheaper lookup.
_ENCODERS: dict[type, Callable | None] = {}


def _plain(value):
    """The JSON form of a model value: dataclasses become objects, enums
    their values, tuples and lists arrays; anything else is kept."""
    cls = type(value)
    try:
        encode = _ENCODERS[cls]
    except KeyError:
        encode = _ENCODERS[cls] = _encoder(cls)
    return value if encode is None else encode(value)


def _encoder(cls: type) -> Callable | None:
    """How ``_plain`` converts a value of ``cls``; None keeps it as it is.
    A dataclass's key plan is worked out here, once per class."""
    if issubclass(cls, Enum):
        return attrgetter("value")
    if cls is tuple or cls is list:
        return lambda items: [_plain(item) for item in items]
    if not is_dataclass(cls):
        return None
    plan = [(entry, entry) if isinstance(entry, str) else entry
            for entry in _INTERCHANGE_QUIRKS.get(cls, ())]
    taken = {name for _, held in plan
             for name in ((held,) if isinstance(held, str) else held.values())}
    plan += [(f.name, f.name) for f in fields(cls) if f.name not in taken]
    return _object(plan)


def _object(plan) -> Callable:
    """Encoder of an object from its (key, field or {key: field}) pairs."""
    getters = [(key, attrgetter(held) if isinstance(held, str) else _object(held.items()))
               for key, held in plan]
    return lambda obj: {key: _plain(get(obj)) for key, get in getters}


def export_interchange(doc: m.RegisterDocument) -> str:
    """Loss-free JSON rendering.  Keys follow the model's field order, apart
    from the quirks listed in ``_INTERCHANGE_QUIRKS``."""
    return json.dumps(_plain(doc), indent=2, ensure_ascii=False) + "\n"
