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
from dataclasses import dataclass

from . import model as m


@dataclass(frozen=True)
class TraceNode:
    id: str
    kind: str
    name: str


@dataclass(frozen=True)
class TraceGraph:
    nodes: dict[str, TraceNode]
    edges: tuple[tuple[str, str], ...]
    # Chain parent per node: the unique upward step toward the core value.
    # Multi-parent artifacts (a control over several threats, a disposition
    # implementing several controls) chain through their first declared
    # parent; cross edges still appear in ``edges``.
    parents: dict[str, str | None]


def _first_line(text: str) -> str:
    return text.split("\n", 1)[0] if text else ""


def build_graph(doc: m.RegisterDocument) -> TraceGraph:
    """Assemble the traceability graph for a structurally valid document."""
    nodes: dict[str, TraceNode] = {}
    edges: list[tuple[str, str]] = []
    parents: dict[str, str | None] = {}

    for cv in doc.core_values:
        nodes[str(cv.id)] = TraceNode(str(cv.id), "core_value", cv.name)
        parents[str(cv.id)] = None
    for q in doc.qualities:
        nodes[q.id] = TraceNode(q.id, "quality", q.name)
        edges.append((str(q.core_value), q.id))
        parents[q.id] = str(q.core_value)
    for e in doc.evrs:
        nodes[e.id] = TraceNode(e.id, "evr", _first_line(e.text))
        edges.append((e.quality, e.id))
        parents[e.id] = e.quality
    for t in doc.threats:
        nodes[t.id] = TraceNode(t.id, "threat", _first_line(t.description))
        edges.append((t.evr, t.id))
        parents[t.id] = t.evr
    for c in doc.controls:
        nodes[c.id] = TraceNode(c.id, "control", _first_line(c.description))
        for tid in c.threats:
            edges.append((tid, c.id))
        parents[c.id] = c.threats[0] if c.threats else None
    disposition_edges: set[tuple[str, str]] = set()
    for c in doc.controls:
        if c.implementing_disposition is not None:
            disposition_edges.add((c.id, c.implementing_disposition))
    for d in doc.dispositions:
        nodes[d.id] = TraceNode(d.id, "disposition", _first_line(d.description))
        for cid in d.implements:
            disposition_edges.add((cid, d.id))
        parents[d.id] = d.implements[0] if d.implements else None
    edges.extend(sorted(disposition_edges))
    for f in doc.functional_requirements:
        nodes[f.id] = TraceNode(f.id, "functional_requirement", _first_line(f.text))
        parents[f.id] = None
    for dc in doc.design_concepts:
        nodes[dc.id] = TraceNode(dc.id, "design_concept", dc.name)
        parents[dc.id] = None
        for ref in dc.ethical_refs + dc.functional_refs:
            edges.append((dc.id, ref))

    return TraceGraph(nodes=nodes, edges=tuple(edges), parents=parents)


def trace_chain(graph: TraceGraph, entity_id: str) -> tuple[TraceNode, ...]:
    """Unique chain from the root down to the entity, root first."""
    if entity_id not in graph.nodes:
        raise m.UnknownEntityError(f"unknown entity id {entity_id!r}")
    chain: list[TraceNode] = []
    cursor: str | None = entity_id
    while cursor is not None:
        chain.append(graph.nodes[cursor])
        cursor = graph.parents.get(cursor)
    chain.reverse()
    return tuple(chain)


@dataclass(frozen=True)
class MaturityScore:
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


@dataclass(frozen=True)
class CoverageRow:
    core_value: str
    rank: int
    qualities: int
    evrs: int
    thresholds: int
    threats: int
    controls: int
    attestations: int
    addressed: bool


COVERAGE_CSV_HEADER = "core_value,rank,qualities,evrs,thresholds,threats,controls,attestations,addressed"


def coverage_report(doc: m.RegisterDocument) -> tuple[CoverageRow, ...]:
    """One row per core value, ordered by priority rank."""
    idx = doc.index
    rows = []
    for cv in sorted(doc.core_values, key=lambda c: c.priority_rank):
        evrs = idx.evrs_under_value(cv.id)
        evr_ids = {e.id for e in evrs}
        threats = sum(len(idx.threats_by_evr.get(eid, [])) for eid in evr_ids)
        controls = [c for eid in evr_ids for c in idx.controls_by_evr.get(eid, [])]
        attestations = len(idx.attestations_for(m.SubjectKind.PRIORITY_DECISION, str(cv.id)))
        attestations += sum(
            len(idx.attestations_for(m.SubjectKind.RISK_ACCEPTANCE, c.id))
            for c in controls
        )
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
    for row in coverage_report(doc):
        writer.writerow([
            row.core_value, row.rank, row.qualities, row.evrs, row.thresholds,
            row.threats, row.controls, row.attestations,
            "true" if row.addressed else "false",
        ])
    return buffer.getvalue()


def export_dot(doc: m.RegisterDocument) -> str:
    """Graph in DOT form; node labels are id plus display name."""
    graph = build_graph(doc)
    lines = ["digraph register {"]
    for node in graph.nodes.values():
        label = f"{node.id} {node.name}".strip()
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  "{node.id}" [label="{label}"];')
    for src, dst in graph.edges:
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Register diffing

@dataclass(frozen=True)
class ChangeSet:
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
    a remove plus add.  Register-level singletons (project header, soi,
    mission, investment decision, alias map) are reported as modified
    pseudo-entities under the ``register`` kind.
    """
    added: dict[str, tuple[str, ...]] = {}
    removed: dict[str, tuple[str, ...]] = {}
    modified: dict[str, tuple[str, ...]] = {}

    for kind in m.ENTITY_KINDS:
        old_entities = {str(e.id): e for e in getattr(old, kind)}
        new_entities = {str(e.id): e for e in getattr(new, kind)}
        added[kind] = tuple(i for i in new_entities if i not in old_entities)
        removed[kind] = tuple(i for i in old_entities if i not in new_entities)
        modified[kind] = tuple(
            i for i in new_entities
            if i in old_entities and new_entities[i] != old_entities[i]
        )

    register_changes = []
    if old.project != new.project or old.phase != new.phase:
        register_changes.append("project")
    if old.soi != new.soi:
        register_changes.append("soi")
    if old.mission != new.mission:
        register_changes.append("mission")
    if old.investment_decision != new.investment_decision:
        register_changes.append("investment_decision")
    if old.alias_map != new.alias_map:
        register_changes.append("alias_map")
    added["register"] = ()
    removed["register"] = ()
    modified["register"] = tuple(register_changes)

    return ChangeSet(
        added=added,
        removed=removed,
        modified=modified,
        new_core_values_require_reprioritization=bool(added["core_values"]),
    )
