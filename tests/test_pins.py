"""Pins on the parser, the writers, validation and diff.

``fixtures/pins.json`` holds SHA-256 digests of ``serialize_canonical`` and
``export_interchange`` for every fixture and ``random_register`` seeds
0..999, the violations ``validate_register`` reports for crafted invalid
documents (one entity duplicated, one id made non-identifier, seeds 0..99
demoted to phase concept), and the bucket contents and key order of
``diff_registers`` for seed pairs.  It also holds the rendered parse
diagnostics, and whether a document came back, for mutants of the
``evrforge init demo`` scaffold (``fixtures/scaffold_demo.evr``), and the
line-break violations (P037) for a line break injected into every string
field of the model.  The ``dangling`` section holds the raw violations
after each reference of the model is broken once (``BREAKS``), on the
first fixture or seed that holds it, and the ``graph`` section the digests
of ``trace.export_dot`` for every fixture and seeds 0..999.  The ``rules``
section holds the ``run_rules`` findings as (rule id, severity, subject,
message): in full for every fixture and the scaffold, as one digest per
seed for seeds 0..999.  A refactor of any of these must leave every pin as
it is.  Regenerate the file only for
an intended change of output:
``PYTHONPATH=src python -m tests.test_pins``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import random
import types
import typing
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from evrforge import dsl, rules, trace
from evrforge import model as m

from .conftest import FIXTURES, load_fixture
from .support import random_register, reference_lex

PINS = FIXTURES / "pins.json"
SCAFFOLD = FIXTURES / "scaffold_demo.evr"
SEEDS = range(1000)
KINDS = tuple(f.name for f in fields(m.RegisterDocument) if f.default == ())
IDENT_KINDS = ("sos_elements", "stakeholders", "contexts", "sessions", "statements",
               "dispositions", "functional_requirements", "design_concepts",
               "personas", "attestations", "feedback")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _violations(doc: m.RegisterDocument) -> list[list[str]]:
    return [[v.code, v.subject, v.message] for v in m.validate_register(doc)]


def _findings(doc: m.RegisterDocument) -> list[list[str]]:
    return [[d.rule_id, d.severity, d.subject, d.message] for d in rules.run_rules(doc)]


# One token of each kind, put in place of every token of another kind.
REPLACEMENTS = {"STRING": '"s"', "INT": "7", "DOTTED": "1.1.1", "IDENT": "word",
                "COMMA": ",", "END": "end"}


def _scaffold_mutants(text: str):
    """(name, source) for the scaffold with each line deleted (``-LINE``),
    each ``end`` dropped (``LINE:COL``) and each token after the first on
    its line replaced by one of every other kind (``LINE:COL=TOKEN``)."""
    lines = text.split("\n")

    def edit(line_no: int, col: int, end_col: int, new: str) -> str:
        line = lines[line_no - 1]
        return "\n".join(lines[:line_no - 1] + [line[:col - 1] + new + line[end_col - 1:]]
                         + lines[line_no:])

    for i, line in enumerate(lines):
        if line.strip() and not line.lstrip().startswith("#"):
            yield f"-{i + 1}", "\n".join(lines[:i] + lines[i + 1:])
    tokens, _ = reference_lex(text, SCAFFOLD.name)
    first: dict[int, tuple] = {}
    for tok in tokens[:-1]:
        kind, _, value, line, col, end_col = tok
        first.setdefault(line, tok)
        kind = "END" if kind == "IDENT" and value == "end" else kind
        if kind == "END":
            yield f"{line}:{col}", edit(line, col, end_col, "")
        elif first[line] is not tok:
            for other, new in REPLACEMENTS.items():
                if other != kind:
                    yield f"{line}:{col}={new}", edit(line, col, end_col, new)


def _parse_pins() -> dict[str, str]:
    pins = {}
    for name, source in _scaffold_mutants(SCAFFOLD.read_text(encoding="utf-8")):
        result = dsl.parse_register(source, SCAFFOLD.name)
        flag = "no document" if result.document is None else "document"
        pins[name] = "\n".join([flag] + [d.render() for d in result.diagnostics])
    return pins


def _string_shapes(hint, shape=()):
    """Where a string can sit in a document: field names, ``[]`` for a
    tuple item, ``{key}`` and ``{value}`` for the alias map."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        yield from _string_shapes(args[0], shape)
    elif origin is tuple:
        yield from _string_shapes(args[0], shape + ("[]",))
    elif origin is dict:
        yield shape + ("{key}",)
        yield shape + ("{value}",)
    elif hint is str:
        yield shape
    elif is_dataclass(hint):
        for name, sub in typing.get_type_hints(hint).items():
            yield from _string_shapes(sub, shape + (name,))


def _held(value, shape, path=()):
    """The paths to non-empty strings of ``shape`` in ``value``."""
    if not shape:
        if value:
            yield path
    elif value is not None:
        step, rest = shape[0], shape[1:]
        if step == "[]":
            for i, item in enumerate(value):
                yield from _held(item, rest, path + (i,))
        elif step in ("{key}", "{value}"):
            for key, item in value.items():
                if (key if step == "{key}" else item):
                    yield path + ((step, key),)
        else:
            yield from _held(getattr(value, step), rest, path + (step,))


def _inject(value, path, new):
    """``value`` with the string at ``path`` replaced by ``new(string)``."""
    if not path:
        return new(value)
    step, rest = path[0], path[1:]
    if isinstance(step, int):
        return value[:step] + (_inject(value[step], rest, new),) + value[step + 1:]
    if isinstance(step, tuple):
        where, key = step
        if where == "{value}":
            return {**value, key: new(value[key])}
        return {(new(k) if k == key else k): v for k, v in value.items()}
    return replace(value, **{step: _inject(getattr(value, step), rest, new)})


def _line_break_pins(named) -> dict[str, list]:
    """For every string shape: the first document holding it, and the P037
    (code, subject) pairs after a LF, then a CR, is put into the string."""
    pins = {}
    for shape in _string_shapes(m.RegisterDocument):
        key = ".".join(shape).replace(".[]", "[]").replace(".{", "{")
        for name, doc in named:
            path = next(_held(doc, shape), None)
            if path is not None:
                break
        else:
            pins[key] = None
            continue
        pins[key] = [name] + [
            [[v.code, v.subject] for v in m.validate_register(
                _inject(doc, path, lambda s: s[:1] + brk + s[1:])) if v.code == "P037"]
            for brk in ("\n", "\r")
        ]
    return pins


def _first_item(new):
    """A replacement for a reference field: its first id, or its only one,
    becomes ``new(doc, old)``; None when ``new`` finds nothing to put."""
    def replacement(doc, value):
        if not isinstance(value, tuple):
            return new(doc, value)
        item = new(doc, value[0])
        return None if item is None else (item,) + value[1:]
    return replacement


def _unknown(ref):
    return _first_item(lambda doc, old: ref)


def _other(kind):
    """Another entity of ``kind`` than the one named: a known target whose
    id has a different prefix."""
    return _first_item(lambda doc, old: next(
        (e.id for e in getattr(doc, kind) if str(e.id).split("-")[0] != str(old).split("-")[0]),
        None))


def _subject(kind, ref):
    return lambda doc, s: m.AttestationSubject(kind, ref) if s.kind is kind else None


def _set(slot, field, replacement):
    """A break: the first entity of ``slot`` (or the singleton) with a value
    in ``field`` for which ``replacement`` finds something gets it."""
    def broken(doc):
        held = getattr(doc, slot)
        entities = held if isinstance(held, tuple) else () if held is None else (held,)
        for i, entity in enumerate(entities):
            value = getattr(entity, field)
            new = None if value is None or value == () else replacement(doc, value)
            if new is None:
                continue
            entity = replace(entity, **{field: new})
            if entities is not held:
                return replace(doc, **{slot: entity})
            return replace(doc, **{slot: held[:i] + (entity,) + held[i + 1:]})
        return None
    return broken


def _drop(slot, kind):
    """A break: the singleton an attestation endorses is dropped."""
    return lambda doc: (replace(doc, **{slot: None})
                        if getattr(doc, slot) and doc.index.attestations_for(kind) else None)


# Every reference the model declares, broken once.  The P011 breaks name an
# unknown id or drop what is named; the P013/P014/P015/P024 breaks name a
# known id under another parent.
BREAKS = {
    "core value support": _set("core_values", "supporting_statements", _unknown("nowhere")),
    "quality core value": _set("qualities", "core_value", _unknown(99)),
    "EVR quality": _set("evrs", "quality", _unknown("9.9")),
    "threat EVR": _set("threats", "evr", _unknown("9.9.9")),
    "control threats": _set("controls", "threats", _unknown("9.9.9-T9")),
    "control without threats": _set("controls", "threats", lambda doc, value: ()),
    "control disposition": _set("controls", "implementing_disposition", _unknown("nowhere")),
    "disposition controls": _set("dispositions", "implements", _unknown("9.9.9-C9")),
    "session participants": _set("sessions", "participants", _unknown("nowhere")),
    "statement session": _set("statements", "session", _unknown("nowhere")),
    "statement stakeholder": _set("statements", "stakeholder", _unknown("nowhere")),
    "persona stakeholder": _set("personas", "stakeholder", _unknown("nowhere")),
    "concept ethical refs": _set("design_concepts", "ethical_refs", _unknown("9.9.9")),
    "concept functional refs": _set("design_concepts", "functional_refs", _unknown("nowhere")),
    "priority attestation": _set("attestations", "subject",
                                 _subject(m.SubjectKind.PRIORITY_DECISION, "99")),
    "risk attestation": _set("attestations", "subject",
                             _subject(m.SubjectKind.RISK_ACCEPTANCE, "9.9.9-C9")),
    "mission attestation": _drop("mission", m.SubjectKind.MISSION),
    "decision attestation": _drop("investment_decision", m.SubjectKind.INVESTMENT_DECISION),
    "rule attestation": _set("attestations", "subject", _subject(m.SubjectKind.RULE, "")),
    "mission featured": _set("mission", "featured", _unknown(99)),
    "mission signatures": _set("mission", "signed_by", _unknown("nowhere")),
    "decision attestations": _set("investment_decision", "attestations", _unknown("nowhere")),
    "feedback source": _set("feedback", "source", _unknown("nowhere")),
    "feedback results": _set("feedback", "resulted", _unknown("nowhere")),
    "quality prefix": _set("qualities", "core_value", _other("core_values")),
    "EVR prefix": _set("evrs", "quality", _other("qualities")),
    "threat prefix": _set("threats", "evr", _other("evrs")),
    "control threat prefix": _set("controls", "threats", _other("threats")),
}


def _dangling_pins(named) -> dict[str, list | None]:
    """For every break: the first document it applies to, and the raw
    violations of the broken document."""
    pins: dict[str, list | None] = {}
    for name, break_ in BREAKS.items():
        pins[name] = None
        for holder, doc in named:
            broken = break_(doc)
            if broken is not None:
                pins[name] = [holder] + _violations(broken)
                break
    return pins


@functools.cache
def compute_pins() -> dict:
    seeds = [random_register(random.Random(s)) for s in SEEDS]
    named = [(p.name, load_fixture(p.name)) for p in sorted(FIXTURES.glob("tm_*.evr"))]
    named += [(f"seed {s}", doc) for s, doc in enumerate(seeds)]
    holders = named[:5] + [(SCAFFOLD.name, load_fixture(SCAFFOLD.name))] + named[5:]

    duplicated: dict[str, list] = {}
    bad_id: dict[str, list] = {}
    for kind in KINDS:
        for name, doc in [(n, d) for n, d in named if getattr(d, kind)][:3]:
            first, *rest = getattr(doc, kind)
            key = f"{kind} in {name}"
            duplicated[key] = _violations(replace(doc, **{kind: (first, first, *rest)}))
            if kind in IDENT_KINDS:
                bad = replace(first, id="bad id")
                bad_id[key] = _violations(replace(doc, **{kind: (bad, *rest)}))

    diff: dict[str, dict] = {}
    for s in range(0, 20, 2):
        changes = trace.diff_registers(seeds[s], seeds[s + 1])
        diff[f"seed {s} -> {s + 1}"] = {
            bucket: [[kind, list(ids)] for kind, ids in getattr(changes, bucket).items()]
            for bucket in ("added", "removed", "modified")
        }

    return {
        "writers": {name: [_sha(dsl.serialize_canonical(doc)), _sha(dsl.export_interchange(doc))]
                    for name, doc in named},
        "graph": {name: _sha(trace.export_dot(doc)) for name, doc in holders},
        "duplicated": duplicated,
        "bad_id": bad_id,
        "demoted": {f"seed {s}": _sha(json.dumps(_violations(replace(seeds[s], phase=m.Phase.CONCEPT))))
                    for s in range(100)},
        "diff": diff,
        "line_breaks": _line_break_pins(holders),
        "dangling": _dangling_pins(holders),
        "rules": {**{name: _findings(doc) for name, doc in holders[:6]},
                  **{name: _sha(json.dumps(_findings(doc))) for name, doc in holders[6:]}},
        "parse": _parse_pins(),
    }


@pytest.mark.parametrize("section", ["writers", "duplicated", "bad_id", "demoted", "diff",
                                     "line_breaks", "dangling", "graph", "rules"])
def test_pins_hold(section):
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    assert compute_pins()[section] == pinned[section]


def test_parse_pins_hold():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))["parse"]
    computed = compute_pins()["parse"]
    assert computed.keys() == pinned.keys()
    changed = {name: (pinned[name], text) for name, text in computed.items()
               if text != pinned[name]}
    assert not changed, f"{len(changed)} mutants changed, e.g. {next(iter(changed.items()))}"


def test_pins_cover_every_kind():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    assert {key.split(" in ")[0] for key in pinned["duplicated"]} == set(KINDS)
    assert {key.split(" in ")[0] for key in pinned["bad_id"]} == set(IDENT_KINDS)
    assert all(pinned["line_breaks"].values())
    assert pinned["dangling"].keys() == BREAKS.keys() and all(pinned["dangling"].values())
    codes = {line.split()[1] for text in pinned["parse"].values() for line in text.split("\n")[1:]}
    assert {"P001", "P006", "P012", "P018", "P020", "P034", "P090"} <= codes


def test_committed_fixtures_are_what_the_builder_builds():
    # perfbench reads these files as pinned inputs, so the builder must
    # still make them byte for byte; its main() would overwrite them.
    path = Path(__file__).resolve().parents[1] / "scripts" / "build_fixtures.py"
    spec = importlib.util.spec_from_file_location("build_fixtures", path)
    build = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build)
    clean = load_fixture("tm_clean.evr")
    for name, doc in (("tm_full.evr", build.build_tm_full()),
                      ("tm_warnings.evr", build.derive_warnings_fixture(clean)),
                      ("tm_error.evr", build.derive_error_fixture(clean))):
        assert dsl.serialize_canonical(doc) == (FIXTURES / name).read_text(encoding="utf-8"), name


if __name__ == "__main__":
    PINS.write_text(json.dumps(compute_pins(), indent=1, ensure_ascii=False) + "\n",
                    encoding="utf-8")
