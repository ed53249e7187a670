"""Traceability graph, maturity scoring, coverage tables and register diffs.

The graph mirrors the register's numbering chain: core values own
qualities, qualities own requirements, requirements own threats, threats
own controls, controls lead to the dispositions that implement them, and
design concepts point at the requirements they integrate.  The core-value
to requirement subgraph is a forest by construction, which is what makes
a trace from any entity back to its core value unique.
"""

from __future__ import annotations

import csv
import io
from dataclasses import fields

from . import model as m
from .dsl import _quote
from .model import record


@record
class TraceNode:
    """One entity in the traceability graph."""

    id: str
    kind: str
    name: str


@record
class TraceGraph:
    """The traceability graph: nodes by id, edges and each node's chain parent."""

    nodes: dict[str, TraceNode]
    edges: tuple[tuple[str, str], ...]
    # Chain parent per node: the unique upward step toward the core value.
    # Multi-parent artifacts (a control over several threats, a disposition
    # implementing several controls) chain through their first declared
    # parent; cross edges still appear in ``edges``.
    parents: dict[str, str | None]


def _graph_plan() -> list[tuple]:
    """Per node kind, in field order (``model.GRAPH_KINDS``): (collection,
    node kind, name field, links, flush); a node's kind is the ENTITY_KINDS
    label, ``_`` for spaces, and a link is (field, parent?, merged?).  Edges
    run from a parent to its child, else to what is named; edges two kinds
    name from both sides come merged, after the later kind."""
    kinds = m.GRAPH_KINDS
    pairs = {(kind, targets) for kind, _, targets, _, _ in m.REFERENCES}
    links = {kind: tuple((field, parent, (targets[0], (kind,)) in pairs)
                         for source, field, targets, _, parent in m.REFERENCES
                         if source == kind and kinds.keys() >= set(targets))
             for kind in kinds}
    last = max(i for i, kind in enumerate(kinds) if any(link[2] for link in links[kind]))
    return [(kind, m.ENTITY_KINDS[kind][0].replace(" ", "_"), name, links[kind], i == last)
            for i, (kind, name) in enumerate(kinds.items())]


_GRAPH_PLAN = _graph_plan()


def build_graph(doc: m.RegisterDocument) -> TraceGraph:
    """Assemble the traceability graph for a structurally valid document."""
    nodes: dict[str, TraceNode] = {}
    edges: list[tuple[str, str]] = []
    parents: dict[str, str | None] = {}
    merged: set[tuple[str, str]] = set()

    for kind, node_kind, name, links, flush in _GRAPH_PLAN:
        for entity in getattr(doc, kind):
            eid = str(entity.id)
            nodes[eid] = TraceNode(eid, node_kind, getattr(entity, name).split("\n", 1)[0])
            parent_id = None
            for field, parent, both_sides in links:
                refs = getattr(entity, field)
                if refs is None:
                    continue
                refs = refs if refs.__class__ is tuple else (str(refs),)
                if parent and refs:
                    parent_id = refs[0]
                put = merged.add if both_sides else edges.append
                for ref in refs:
                    put((ref, eid) if parent else (eid, ref))
            parents[eid] = parent_id
        if flush:
            edges.extend(sorted(merged))

    return TraceGraph(nodes=nodes, edges=tuple(edges), parents=parents)


def trace_chain(graph: TraceGraph, entity_id: str) -> tuple[TraceNode, ...]:
    """Unique chain from the root down to the entity, root first.

    The graph of an invalid document may name a parent that is no node,
    which raises :class:`~evrforge.model.UnknownEntityError`, or loop back
    to a node already on the chain, which raises ``RegisterError``."""
    chain: list[TraceNode] = []
    seen: set[str] = set()
    cursor: str | None = entity_id
    while cursor is not None:
        if cursor in seen:
            raise m.RegisterError(f"the chain of {entity_id!r} meets {cursor!r} twice")
        node = graph.nodes.get(cursor)
        if node is None:
            raise m.UnknownEntityError(f"unknown entity id {cursor!r}")
        seen.add(cursor)
        chain.append(node)
        cursor = graph.parents.get(cursor)
    chain.reverse()
    return tuple(chain)


@record
class MaturityScore:
    """How many core values the current design addresses, out of all."""

    addressed: int
    total: int
    ratio: float
    empty: bool

    def render(self) -> str:
        if self.empty:
            return f"{self.addressed}/{self.total} (empty)"
        return f"{self.addressed}/{self.total} ({self.ratio:.2f})"


def _value_addressed(idx: m.DocIndex, value_id: int) -> bool:
    """A core value counts as addressed when every supporting quality has at
    least one EVR and every high-risk EVR beneath it has each realistic
    threat covered by an accepted or implemented control."""
    for quality in idx.qualities_by_value.get(value_id, []):
        evrs = idx.evrs_by_quality.get(quality.id, [])
        if quality.direction is m.QualityDirection.SUPPORTS and not evrs:
            return False
        for evr in evrs:
            if evr.risk_path is not m.RiskPath.HIGH:
                continue
            for threat in idx.threats_by_evr.get(evr.id, []):
                if not threat.realistic:
                    continue
                covering = idx.controls_by_threat.get(threat.id, [])
                if not any(c.status in (m.ControlStatus.ACCEPTED,
                                        m.ControlStatus.IMPLEMENTED)
                           for c in covering):
                    return False
    return True


def maturity_score(doc: m.RegisterDocument) -> MaturityScore:
    """Fraction of core values addressed in the current design."""
    total = len(doc.core_values)
    if total == 0:
        return MaturityScore(addressed=0, total=0, ratio=0.0, empty=True)
    idx = doc.index
    addressed = sum(1 for cv in doc.core_values if _value_addressed(idx, cv.id))
    return MaturityScore(addressed=addressed, total=total,
                         ratio=addressed / total, empty=False)


@record
class CoverageRow:
    """One core value's coverage; the fields are the columns, in order."""

    core_value: str
    rank: int
    qualities: int
    evrs: int
    thresholds: int
    threats: int
    controls: int
    attestations: int
    addressed: bool

    def cells(self, true: str, false: str) -> list[str]:
        """The columns as text, a bool spelled ``true`` or ``false``."""
        return [(true if value else false) if value.__class__ is bool else str(value)
                for value in vars(self).values()]


COVERAGE_CSV_HEADER = ",".join(f.name for f in fields(CoverageRow))


def coverage_report(doc: m.RegisterDocument) -> tuple[CoverageRow, ...]:
    """One row per core value, ordered by priority rank."""
    idx = doc.index
    rows = []
    for cv in sorted(doc.core_values, key=lambda c: c.priority_rank):
        evrs = idx.evrs_under_value(cv.id)
        evr_ids = {e.id for e in evrs}
        threats = sum(len(idx.threats_by_evr.get(eid, [])) for eid in evr_ids)
        controls = [c for eid in evr_ids for c in idx.controls_by_evr.get(eid, [])]
        groups = idx._attestations_by_subject  # read, not copied as ``attestations_for`` does
        attestations = len(groups.get((m.SubjectKind.PRIORITY_DECISION, str(cv.id)), ()))
        attestations += sum(len(groups.get((m.SubjectKind.RISK_ACCEPTANCE, c.id), ())) for c in controls)
        rows.append(CoverageRow(
            core_value=cv.name,
            rank=cv.priority_rank,
            qualities=len(idx.qualities_by_value.get(cv.id, [])),
            evrs=len(evrs),
            thresholds=sum(1 for e in evrs if e.threshold is not None),
            threats=threats,
            controls=len(controls),
            attestations=attestations,
            addressed=_value_addressed(idx, cv.id),
        ))
    return tuple(rows)


def coverage_csv(doc: m.RegisterDocument) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(COVERAGE_CSV_HEADER.split(","))
    writer.writerows(row.cells("true", "false") for row in coverage_report(doc))
    return buffer.getvalue()


def export_dot(doc: m.RegisterDocument) -> str:
    """Graph in DOT form; node labels are id plus display name.  Ids, edge
    ends and labels are quoted alike, so no id can end its string early."""
    graph = build_graph(doc)
    lines = ["digraph register {"]
    for node in graph.nodes.values():
        lines.append(f'  {_quote(node.id)} [label={_quote(f"{node.id} {node.name}".strip())}];')
    for src, dst in graph.edges:
        lines.append(f"  {_quote(str(src))} -> {_quote(str(dst))};")  # a ref may be no str
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Register diffing

@record
class ChangeSet:
    """The ids added, removed and modified per kind between two register versions."""

    added: dict[str, tuple[str, ...]]
    removed: dict[str, tuple[str, ...]]
    modified: dict[str, tuple[str, ...]]
    new_core_values_require_reprioritization: bool

    @property
    def empty(self) -> bool:
        return not (any(self.added.values()) or any(self.removed.values())
                    or any(self.modified.values()))


def diff_registers(old: m.RegisterDocument, new: m.RegisterDocument) -> ChangeSet:
    """Entity-level diff keyed by explicit ids.

    Renamed entities keep their id and therefore show up as modified, not as
    a remove plus add.  Entities are looked up in each document's index.  Register-level singletons (project header, soi,
    mission, investment decision, alias map) are reported as modified
    pseudo-entities under the ``register`` kind.
    """
    added: dict[str, tuple[str, ...]] = {}
    removed: dict[str, tuple[str, ...]] = {}
    modified: dict[str, tuple[str, ...]] = {}

    for kind in m.ENTITY_KINDS:
        old_entities = getattr(old.index, kind)
        new_entities = getattr(new.index, kind)
        added[kind] = tuple(str(i) for i in new_entities if i not in old_entities)
        removed[kind] = tuple(str(i) for i in old_entities if i not in new_entities)
        modified[kind] = tuple(
            str(i) for i in new_entities
            if i in old_entities and new_entities[i] != old_entities[i]
        )

    register_changes = ["project"] if (old.project, old.phase) != (new.project, new.phase) else []
    register_changes += [name for name in ("soi", "mission", "investment_decision", "alias_map")
                         if getattr(old, name) != getattr(new, name)]
    added["register"] = ()
    removed["register"] = ()
    modified["register"] = tuple(register_changes)

    return ChangeSet(
        added=added,
        removed=removed,
        modified=modified,
        new_core_values_require_reprioritization=bool(added["core_values"]),
    )
