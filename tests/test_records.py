"""Record semantics: every frozen dataclass in the package keeps the
``==``, ``hash``, ``repr``, frozen-ness and ``dataclasses`` helpers of
``@dataclass(frozen=True)``, checked on one real instance of each class."""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import (MISSING, FrozenInstanceError, asdict, dataclass, field, fields,
                         is_dataclass, make_dataclass, replace)
from pathlib import Path

import pytest

from evrforge import analytics, cli, dsl, rules, trace
from evrforge import model as m

from .conftest import FIXTURES, load_fixture

# Run in a fresh interpreter: every ``<string>`` or ``<evrforge. ...>`` source
# (a record's ``__init__`` is ``<evrforge.model init Class>``) compiled while
# ``evrforge.cli`` is imported, with the module of the class whose type hints
# were being resolved when ``typing.get_type_hints`` compiled it, and the
# module that called ``compile``, ``exec`` or ``eval``.
_COMPILES = """
import json, sys

compiled = []

def hook(event, args):
    if event != "compile" or not (args[1] == "<string>" or str(args[1]).startswith("<evrforge.")):
        return
    frame, owner = sys._getframe(1), None
    caller = frame.f_globals["__name__"]
    while frame is not None:
        if frame.f_code.co_name == "get_type_hints" and frame.f_globals["__name__"] == "typing":
            owner = getattr(frame.f_locals["obj"], "__module__", None)
            break
        frame = frame.f_back
    source = args[0]
    compiled.append((source.decode() if isinstance(source, bytes) else str(source), owner, caller))

sys.addaudithook(hook)
import evrforge.cli
print(json.dumps(compiled))
"""


def _record_classes() -> list[type]:
    return [value for module in (m, dsl, rules, analytics, trace, cli)
            for value in vars(module).values()
            if isinstance(value, type) and is_dataclass(value)
            and value.__module__ == module.__name__]


def _walk(value, found: dict) -> None:
    """Record the first instance of each dataclass reachable from ``value``."""
    if is_dataclass(value) and not isinstance(value, type):
        found.setdefault(type(value), value)
        for f in fields(value):
            _walk(getattr(value, f.name), found)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _walk(item, found)
    elif isinstance(value, dict):
        for key, item in value.items():
            _walk(key, found)
            _walk(item, found)


def _instances() -> dict[type, object]:
    """One instance per record class, from the parsed fixtures and the
    public analytics, trace and rules results on them."""
    parsed = [dsl.parse_register((FIXTURES / name).read_text(encoding="utf-8"), name)
              for name in ("tm_full.evr", "tm_warnings.evr", "scaffold_demo.evr")]
    parsed.append(dsl.parse_register('register "x" phase nope\n', "bad.evr"))
    doc, warned, clean = parsed[0].document, parsed[1].document, load_fixture("tm_clean.evr")
    evr = replace(clean.evrs[0], protection_demand=m.ProtectionDemand(level=2, rationale="r"))
    weak = m.Control(id=f"{evr.id}-C9", threats=(), form=clean.controls[0].form)
    broken = replace(clean, qualities=clean.qualities[1:])
    found: dict[type, object] = {}
    for value in (
        parsed, clean, evr,
        m.validate_register(broken),
        m.advance_phase(replace(clean, phase=m.Phase.EXPLORATION, evrs=()), m.Phase.DESIGN),
        rules.rule_catalog(), rules.run_rules(warned),
        analytics.lens_coverage(doc), analytics.tally_values(doc),
        analytics.rank_values(clean.core_values),
        analytics.check_control_rigor(weak, evr),
        trace.build_graph(clean), trace.maturity_score(clean), trace.coverage_report(clean),
        trace.diff_registers(clean, doc),
        [dsl._Alias(name, target) for name, target in doc.alias_map.items()],
    ):
        _walk(value, found)
    return found


RECORDS = _record_classes()
INSTANCES = _instances()


def _id(cls: type) -> str:
    return f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__qualname__}"


def _field_values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in fields(obj))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _required(obj) -> dict:
    """The values of ``obj``'s fields that have no default."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)
            if f.default is MISSING and f.default_factory is MISSING}


def test_the_package_declares_48_records():
    assert len(RECORDS) == 48
    assert sorted(map(_id, RECORDS)) == sorted(map(_id, INSTANCES))


@pytest.fixture(params=RECORDS, ids=_id)
def record(request):
    return INSTANCES[request.param]


class TestFrozen:
    def test_setting_or_deleting_any_attribute_raises(self, record):
        for name in [f.name for f in fields(record)] + ["not_a_field"]:
            with pytest.raises(FrozenInstanceError) as raised:
                setattr(record, name, None)
            assert str(raised.value) == f"cannot assign to field {name!r}"
            with pytest.raises(FrozenInstanceError) as raised:
                delattr(record, name)
            assert str(raised.value) == f"cannot delete field {name!r}"

    def test_a_plain_subclass_refuses_only_the_fields(self, record):
        sub = type("Sub", (type(record),), {})(*_field_values(record))
        sub.not_a_field = 1
        del sub.not_a_field
        for f in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(sub, f.name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(sub, f.name)

    def test_a_frozen_dataclass_subclass_can_be_declared(self, record):
        cls = type(record)
        assert cls.__dataclass_params__.frozen
        sub = dataclass(frozen=True)(type("Sub", (cls,), {"__annotations__": {"extra": int},
                                                          "extra": 0}))
        obj = sub(**_required(record), extra=7)
        assert obj.extra == 7 and _required(obj) == _required(record)
        with pytest.raises(FrozenInstanceError):
            obj.extra = 1


class TestConstruction:
    def test_signature_is_that_of_a_frozen_dataclass(self, record):
        cls = type(record)
        twin = make_dataclass(cls.__name__, [
            (f.name, f.type, field(default=f.default, default_factory=f.default_factory))
            for f in fields(cls)], frozen=True)
        assert str(inspect.signature(cls)) == str(inspect.signature(twin))

    def test_each_instance_gets_a_fresh_factory_default(self):
        made = []
        for cls in RECORDS:
            for f in fields(cls):
                if f.default_factory is not MISSING:
                    first, second = (cls(**_required(INSTANCES[cls])) for _ in range(2))
                    assert getattr(first, f.name) == f.default_factory()
                    assert getattr(first, f.name) is not getattr(second, f.name)
                    made.append(f"{cls.__name__}.{f.name}")
        assert sorted(made) == ["Evr.harm_flags", "RegisterDocument.alias_map",
                                "RegisterDocument.soi"]

    def test_positional_and_keyword_arguments_fill_the_same_fields(self, record):
        values = _field_values(record)
        by_position = type(record)(*values)
        by_keyword = type(record)(**{f.name: getattr(record, f.name) for f in fields(record)})
        assert _field_values(by_position) == _field_values(by_keyword) == values
        assert by_position == record


def test_building_the_records_compiles_only_their_initializers():
    """Records are built at every CLI start, so building one compiles no
    ``__setattr__`` or ``__delattr__``, one ``__init__`` per class, and no
    annotation of ``model``, whose annotations are evaluated objects.  Nor
    does an ``evrforge`` module compile anything else at import: ``model``
    and ``dsl`` annotate with objects, so no field type is evaluated."""
    src = Path(m.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _COMPILES], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    compiled = json.loads(done.stdout)
    defined = [node for source, _, _ in compiled for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef)]
    assert not [node.name for node in defined if node.name in ("__setattr__", "__delattr__")]
    inits = Counter(tuple(arg.arg for arg in node.args.args[1:])
                    for node in defined if node.name == "__init__")
    assert inits == Counter(tuple(f.name for f in fields(cls)) for cls in RECORDS)
    assert not [source for source, owner, _ in compiled if owner == m.__name__]
    assert [(caller, source) for source, _, caller in compiled
            if caller.partition(".")[0] == "evrforge"
            and [(type(node), getattr(node, "name", None)) for node in ast.parse(source).body]
            != [(ast.FunctionDef, "__init__")]] == []


def test_each_record_class_compiles_its_methods_under_a_file_name_of_its_own():
    """So a profile or traceback tells one class's ``__init__`` or ``==``
    from another's."""
    assert m.Control.__init__.__code__.co_filename == "<evrforge.model init Control>"
    assert m.Threat.__init__.__code__.co_filename == "<evrforge.model init Threat>"
    assert len({cls.__init__.__code__.co_filename for cls in RECORDS}) == len(RECORDS)
    control = INSTANCES[m.Control]
    assert control == replace(control)
    assert m.Control.__eq__.__code__.co_filename == "<evrforge.model eq Control>"


class TestEquality:
    def test_equal_to_its_copy(self, record):
        copy = replace(record)
        assert copy is not record
        assert copy == record and not copy != record

    def test_a_change_to_any_one_field_makes_it_unequal(self, record):
        for f in fields(record):
            changed = replace(record, **{f.name: object()})
            assert changed != record and record != changed
            assert not changed == record

    def test_other_classes_are_not_implemented(self, record):
        others = [v for k, v in INSTANCES.items() if k is not type(record)][:3]
        for other in [*others, _field_values(record), None]:
            assert record.__eq__(other) is NotImplemented
            assert record != other

    def test_subclass_instances_are_not_implemented(self, record):
        sub = type("Sub", (type(record),), {})(*_field_values(record))
        assert record.__eq__(sub) is NotImplemented
        assert record != sub

    def test_cached_index_does_not_take_part(self):
        doc = load_fixture("tm_full.evr")
        doc.index
        fresh = replace(doc)
        assert "index" in vars(doc) and "index" not in vars(fresh)
        assert doc == fresh and fresh == doc


class TestHash:
    def test_hash_is_the_hash_of_the_field_tuple(self, record):
        values = _field_values(record)
        try:
            expected = hash(values)
        except TypeError:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected == hash(replace(record))

    def test_register_document_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(INSTANCES[m.RegisterDocument])


class TestRepr:
    def test_repr_names_each_field_in_order(self, record):
        inner = ", ".join(f"{f.name}={getattr(record, f.name)!r}" for f in fields(record))
        assert repr(record) == f"{type(record).__qualname__}({inner})"

    @pytest.mark.parametrize("name, digest", [
        ("tm_full.evr", "18f9b81e052a840351fe6a81cb468d9e9a5d14658667aba84cdc7f015bc9df19"),
        ("tm_clean.evr", "7e53866393aeceba77b6120f01dbf25bc46a0ff1d98f68522c559c9df389862e"),
    ])
    def test_document_repr_is_pinned(self, name, digest):
        assert _digest(repr(load_fixture(name))) == digest

    def test_a_record_inside_its_own_field_repr_as_dots(self):
        nodes: dict = {}
        graph = trace.TraceGraph(nodes=nodes, edges=(), parents={})
        nodes["self"] = graph
        assert repr(graph) == "TraceGraph(nodes={'self': ...}, edges=(), parents={})"


class TestDataclassHelpers:
    def test_fields_and_match_args_are_the_declared_fields(self):
        plan = "\n".join(f"{_id(cls)}: {' '.join(f.name for f in fields(cls))}"
                         for cls in sorted(RECORDS, key=_id))
        assert _digest(plan) == "53b6f162f16e3559836b6df2dc1586e937e9aa8daf9376b0bbdaff791caeb4aa"
        for cls in RECORDS:
            assert cls.__match_args__ == tuple(f.name for f in fields(cls))

    def test_asdict_of_a_document_is_pinned(self):
        doc = INSTANCES[m.RegisterDocument]
        assert _digest(repr(asdict(doc))) == (
            "3e269b28266fa8a5add29ff910ee11de17daca743fc4ce981017405e9595f6c6")

