"""Every public entry point returns or raises ``RegisterError``, on any document.

The documents are valid ones (fixtures and ``random_register`` seeds) and
invalid ones made from them: each of the 28 reference breaks of
``test_pins.BREAKS``, and each parented graph kind with its first entity
made its own parent.  Every function of ``evrforge.__all__`` and the three
``cli.render_*`` reports is called on each, under a time bound, since a
walk up a parent cycle once never returned.  The documents live here, not
in ``fixtures/pins.json``, so no pin moves with them.
"""

from __future__ import annotations

import contextlib
import json
import random
import re
import signal
from dataclasses import replace

import pytest

import evrforge
from evrforge import cli, trace
from evrforge import model as m

from .conftest import load_fixture
from .support import random_register
from .test_pins import BREAKS

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")

# The graph kinds whose entities chain to a parent, by the field naming it.
PARENTED = [(kind, field) for kind, field, _, _, parent in m.REFERENCES if parent]


class _TooLong(Exception):
    pass


def _alarm(signum, frame):
    raise _TooLong


@contextlib.contextmanager
def _bounded(seconds: int = 2):
    """Raise ``_TooLong`` in the block after ``seconds``."""
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _self_parented(doc: m.RegisterDocument, kind: str, field: str):
    """``doc`` with the first entity of ``kind`` named as its own parent."""
    held = getattr(doc, kind)
    if not held:
        return None
    first = held[0]
    own = first.id if not isinstance(getattr(first, field), tuple) else (first.id,)
    return replace(doc, **{kind: (replace(first, **{field: own}), *held[1:])})


def _documents() -> list[tuple[str, m.RegisterDocument]]:
    bases = [(name, load_fixture(name))
             for name in ("tm_full.evr", "tm_chain.evr", "scaffold_demo.evr")]
    bases += [(f"seed {seed}", random_register(random.Random(seed))) for seed in (*range(12), 17)]
    documents = list(bases)
    for name, doc in bases:
        for break_name, break_ in BREAKS.items():
            broken = break_(doc)
            if broken is not None:
                documents.append((f"{name}, {break_name}", broken))
        for kind, field in PARENTED:
            broken = _self_parented(doc, kind, field)
            if broken is not None:
                documents.append((f"{name}, {kind} {field} is itself", broken))
    return documents


def _calls(doc: m.RegisterDocument):
    """(name, call) for every public entry point, on ``doc`` or its parts."""
    api = evrforge
    yield "validate_register", lambda: api.validate_register(doc)
    for name in ("build_graph", "coverage_csv", "coverage_report", "export_dot",
                 "export_interchange", "lens_coverage", "maturity_score", "run_rules",
                 "serialize_canonical", "tally_values"):
        yield name, lambda name=name: getattr(api, name)(doc)
    yield "diff_registers", lambda: api.diff_registers(doc, doc)
    yield "diff_registers from empty", lambda: api.diff_registers(
        api.new_empty_register(doc.project.name), doc)
    for phase in m.Phase:
        yield f"advance_phase {phase.value}", lambda phase=phase: api.advance_phase(doc, phase)
    for rule in api.rule_catalog():
        yield f"check_rule {rule.rule_id}", lambda rule=rule: api.check_rule(doc, rule.rule_id)
    for name in (*doc.alias_map, "no such value"):
        yield f"resolve_alias {name}", lambda name=name: api.resolve_alias(doc, name)
    for evr in doc.evrs:
        yield f"classify_risk_path {evr.id}", lambda evr=evr: api.classify_risk_path(evr)
        for control in doc.controls:
            yield (f"check_control_rigor {control.id}",
                   lambda control=control, evr=evr: api.check_control_rigor(control, evr))

    def tally():
        counted = api.tally_values(doc)
        return api.tally_totals(counted), api.propose_core_values(counted, 1)

    yield "tally_totals and propose_core_values", tally
    yield "rank_values", lambda: api.rank_values(doc.core_values)
    yield "parse_register of the interchange", lambda: api.parse_register(
        api.export_interchange(doc))

    def chains():
        graph = api.build_graph(doc)
        for node in [*graph.nodes, *graph.parents.values()]:
            if node is not None:
                try:
                    api.trace_chain(graph, node)
                except m.RegisterError:
                    pass

    yield "trace_chain of every node and parent", chains
    yield "render_mission_report", lambda: cli.render_mission_report(doc)
    yield "render_coverage_report", lambda: cli.render_coverage_report(doc)
    yield "render_audit_report", lambda: cli.render_audit_report(doc, ())


DOCUMENTS = _documents()


def test_the_documents_hold_every_break_and_self_parent():
    names = [name for name, _ in DOCUMENTS]
    assert all(any(name.endswith(f", {b}") for name in names) for b in BREAKS)
    assert all(any(name.endswith(f", {kind} {field} is itself") for name in names)
               for kind, field in PARENTED)


@pytest.mark.parametrize("name,doc", DOCUMENTS, ids=[name for name, _ in DOCUMENTS])
def test_every_entry_point_returns_or_raises_register_error(name, doc):
    for call_name, call in _calls(doc):
        try:
            with _bounded():
                call()
        except m.RegisterError:
            pass
        except _TooLong:
            pytest.fail(f"{call_name} did not return within 2 s")
        except Exception as error:  # noqa: BLE001 - the contract under test
            pytest.fail(f"{call_name} raised {error!r}")


def _scaffold_graph(kind: str, **change):
    """The graph of the scaffold with its first entity of ``kind`` changed."""
    doc = load_fixture("scaffold_demo.evr")
    first, *rest = getattr(doc, kind)
    changed = replace(first, **change)
    return trace.build_graph(replace(doc, **{kind: (changed, *rest)})), changed.id


def test_a_parent_cycle_raises_register_error():
    graph, threat_id = _scaffold_graph("threats", evr="1.1.1-T1")
    assert graph.parents[threat_id] == threat_id
    with _bounded(), pytest.raises(m.RegisterError, match="meets '1.1.1-T1' twice"):
        trace.trace_chain(graph, threat_id)


def test_a_parent_that_is_no_node_raises_unknown_entity_error():
    graph, quality_id = _scaffold_graph("qualities", core_value=99)
    with _bounded(), pytest.raises(m.UnknownEntityError, match="unknown entity id '99'"):
        trace.trace_chain(graph, quality_id)


_DOT_ID = r'"((?:[^"\\]|\\.)*)"'  # a DOT string, its body captured
_DOT_NODE = re.compile(rf"  {_DOT_ID} \[label={_DOT_ID}\];")
_DOT_EDGE = re.compile(rf"  {_DOT_ID} -> {_DOT_ID};")


@pytest.mark.parametrize("change", [
    {"id": 'DC"1', "functional_refs": ('F1" -> "evil',)},
    {"id": "DC\\", "name": 'a \\"name\\', "ethical_refs": ("1.1.1\\", '"1.1.1')},
], ids=["quotes", "backslashes"])
def test_export_dot_quotes_ids_and_edge_ends(change):
    """An unvalidated document's ids may hold ``"`` and ``\\``: each still
    ends up inside one DOT string, so every line is one node or one edge
    statement, and the edges read back are the graph's."""
    doc = load_fixture("scaffold_demo.evr")
    first, *rest = doc.design_concepts
    doc = replace(doc, design_concepts=(replace(first, **change), *rest))
    head, *statements, tail = trace.export_dot(doc).split("\n")[:-1]
    assert (head, tail) == ("digraph register {", "}")
    assert [line for line in statements
            if not (_DOT_NODE.fullmatch(line) or _DOT_EDGE.fullmatch(line))] == []
    edges = [tuple(re.sub(r"\\(.)", r"\1", end) for end in edge.groups())
             for edge in map(_DOT_EDGE.fullmatch, statements) if edge]
    assert edges == list(trace.build_graph(doc).edges)


@pytest.mark.parametrize("aliases", [{1: "x"}, {True: "y", False: "n"}, {None: "z"}, {1.5: "w"},
                                     {float("nan"): "v", "a": "b"}],
                         ids=["int", "bool", "none", "float", "nan"])
def test_export_interchange_spells_dict_keys_as_json_dumps_does(aliases):
    """``json.dumps`` writes an int, float, bool or None key as a string,
    and so does the export, in place of raising ``TypeError``."""
    doc = load_fixture("tm_full.evr")
    payload = json.loads(evrforge.export_interchange(replace(doc, alias_map={})))
    payload["alias_map"] = aliases
    expected = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    assert evrforge.export_interchange(replace(doc, alias_map=aliases)) == expected


@pytest.mark.parametrize("change,message", [
    ({"alias_map": {("a",): "x"}}, "keys must be str, int, float, bool or None, not tuple"),
    ({"alias_map": {"a": {"x"}}}, "Object of type set is not JSON serializable"),
    ({"project": m.ProjectMeta(name="x", version=frozenset())},
     "Object of type frozenset is not JSON serializable"),
], ids=["tuple key", "set value", "frozenset field"])
def test_export_interchange_raises_register_error_for_what_json_refuses(change, message):
    doc = replace(load_fixture("tm_full.evr"), **change)
    with pytest.raises(m.RegisterError, match=message):
        evrforge.export_interchange(doc)
