from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evrforge import dsl, trace
from evrforge import model as m

from .support import apply_inverse, base_doc, random_register

registers = st.integers(min_value=0, max_value=2**32).map(
    lambda seed: random_register(random.Random(seed)))


def _chain_doc() -> m.RegisterDocument:
    """One full chain: value 1 -> 1.1 -> 1.1.2 -> T1 -> C1 -> D1."""
    return base_doc(
        m.Phase.DESIGN,
        core_values=(m.CoreValue(id=1, name="privacy", priority_rank=1),),
        qualities=(m.ValueQuality(id="1.1", core_value=1, name="confidentiality"),),
        evrs=(
            m.Evr(id="1.1.1", quality="1.1", text="consent is informed",
                  risk_path=m.RiskPath.LOW),
            m.Evr(id="1.1.2", quality="1.1", text="records are encrypted",
                  risk_path=m.RiskPath.HIGH, legal_instruments=("law",),
                  protection_demand=m.ProtectionDemand(3, "breach exposure")),
        ),
        threats=(m.Threat(id="1.1.2-T1", evr="1.1.2", description="cloud breach"),),
        controls=(m.Control(id="1.1.2-C1", threats=("1.1.2-T1",),
                            form=m.ControlForm.STRUCTURAL, rigor=3,
                            status=m.ControlStatus.IMPLEMENTED,
                            implementing_disposition="D1"),),
        dispositions=(m.ValueDisposition(id="D1", soi_component="storage",
                                         implements=("1.1.2-C1",)),),
    )


def _count_relations(doc: m.RegisterDocument) -> int:
    pairs = set()
    for c in doc.controls:
        if c.implementing_disposition:
            pairs.add((c.id, c.implementing_disposition))
    for d in doc.dispositions:
        for cid in d.implements:
            pairs.add((cid, d.id))
    return (
        len(doc.qualities) + len(doc.evrs) + len(doc.threats)
        + sum(len(c.threats) for c in doc.controls)
        + len(pairs)
        + sum(len(dc.ethical_refs) + len(dc.functional_refs)
              for dc in doc.design_concepts)
    )


class TestBuildGraph:
    def test_chain_has_paths_to_all_five_evrs(self, chain_doc):
        graph = trace.build_graph(chain_doc)
        for k in range(1, 6):
            chain = trace.trace_chain(graph, f"1.1.{k}")
            assert [node.id for node in chain] == ["1", "1.1", f"1.1.{k}"]

    def test_empty_register_builds_empty_graph(self):
        graph = trace.build_graph(m.new_empty_register("X"))
        assert graph.nodes == {}
        assert graph.edges == ()

    @settings(max_examples=60, deadline=None)
    @given(registers)
    def test_edge_count_matches_independent_recount(self, doc):
        graph = trace.build_graph(doc)
        assert len(graph.edges) == _count_relations(doc)
        expected_nodes = (
            len(doc.core_values) + len(doc.qualities) + len(doc.evrs)
            + len(doc.threats) + len(doc.controls) + len(doc.dispositions)
            + len(doc.functional_requirements) + len(doc.design_concepts)
        )
        assert len(graph.nodes) == expected_nodes


    def test_edge_order_with_linked_design_concepts(self):
        chain = _chain_doc()
        doc = replace(
            chain,
            controls=chain.controls + (m.Control(id="1.1.2-C2", threats=("1.1.2-T1",),
                                                 form=m.ControlForm.PROCEDURAL),),
            # D2 comes first and names its control from its side only; D1
            # and 1.1.2-C1 name each other.
            dispositions=(m.ValueDisposition(id="D2", soi_component="desk",
                                             implements=("1.1.2-C2",)),)
            + chain.dispositions,
            functional_requirements=(m.FunctionalRequirement(id="F1"),
                                     m.FunctionalRequirement(id="F2")),
            design_concepts=(
                m.DesignConcept(id="DC1", name="vault", ethical_refs=("1.1.1", "1.1.2-C1"),
                                functional_refs=("F1",)),
                m.DesignConcept(id="DC2", name="desk", ethical_refs=("1.1.2", "1.1.2-C2"),
                                functional_refs=("F2", "F1")),
            ),
        )
        assert m.validate_register(doc) == ()
        graph = trace.build_graph(doc)
        assert graph.edges == (
            ("1", "1.1"), ("1.1", "1.1.1"), ("1.1", "1.1.2"), ("1.1.2", "1.1.2-T1"),
            ("1.1.2-T1", "1.1.2-C1"), ("1.1.2-T1", "1.1.2-C2"),
            ("1.1.2-C1", "D1"), ("1.1.2-C2", "D2"),
            ("DC1", "1.1.1"), ("DC1", "1.1.2-C1"), ("DC1", "F1"),
            ("DC2", "1.1.2"), ("DC2", "1.1.2-C2"), ("DC2", "F2"), ("DC2", "F1"),
        )
        assert list(graph.nodes) == ["1", "1.1", "1.1.1", "1.1.2", "1.1.2-T1", "1.1.2-C1",
                                     "1.1.2-C2", "D2", "D1", "F1", "F2", "DC1", "DC2"]
        assert [graph.nodes[i].kind for i in ("1.1.2-C2", "D2", "F1", "DC1")] == [
            "control", "disposition", "functional_requirement", "design_concept"]
        assert graph.parents == {
            "1": None, "1.1": "1", "1.1.1": "1.1", "1.1.2": "1.1", "1.1.2-T1": "1.1.2",
            "1.1.2-C1": "1.1.2-T1", "1.1.2-C2": "1.1.2-T1", "D2": "1.1.2-C2",
            "D1": "1.1.2-C1", "F1": None, "F2": None, "DC1": None, "DC2": None}


class TestTraceChain:
    def test_evr_chain(self, chain_doc):
        graph = trace.build_graph(chain_doc)
        chain = trace.trace_chain(graph, "1.1.3")
        assert [n.id for n in chain] == ["1", "1.1", "1.1.3"]
        assert [n.kind for n in chain] == ["core_value", "quality", "evr"]

    def test_root_chain_is_single_node(self, chain_doc):
        graph = trace.build_graph(chain_doc)
        assert [n.id for n in trace.trace_chain(graph, "1")] == ["1"]

    def test_control_chain_runs_through_threat(self):
        graph = trace.build_graph(_chain_doc())
        chain = trace.trace_chain(graph, "1.1.2-C1")
        assert [n.id for n in chain] == ["1", "1.1", "1.1.2", "1.1.2-T1", "1.1.2-C1"]

    def test_disposition_chains_to_its_control(self):
        graph = trace.build_graph(_chain_doc())
        chain = trace.trace_chain(graph, "D1")
        assert [n.id for n in chain][-2:] == ["1.1.2-C1", "D1"]

    def test_unknown_id_raises(self, chain_doc):
        graph = trace.build_graph(chain_doc)
        with pytest.raises(m.UnknownEntityError):
            trace.trace_chain(graph, "9.9.9")

    @settings(max_examples=40, deadline=None)
    @given(registers)
    def test_every_node_has_a_chain(self, doc):
        graph = trace.build_graph(doc)
        for node_id in graph.nodes:
            chain = trace.trace_chain(graph, node_id)
            assert chain[-1].id == node_id
            assert all(graph.parents[b.id] == a.id
                       for a, b in zip(chain, chain[1:]))


def _cluster(vid: int, complete: bool) -> dict:
    """Build one core value cluster; incomplete ones lack the EVR."""
    quality = m.ValueQuality(id=f"{vid}.1", core_value=vid, name=f"quality {vid}")
    evrs = ()
    if complete:
        evrs = (m.Evr(id=f"{vid}.1.1", quality=f"{vid}.1", text="met",
                      risk_path=m.RiskPath.LOW),)
    return {"quality": quality, "evrs": evrs}


def _brute_force_addressed(doc: m.RegisterDocument) -> int:
    count = 0
    for cv in doc.core_values:
        ok = True
        for q in doc.qualities:
            if q.core_value != cv.id:
                continue
            evrs = [e for e in doc.evrs if e.quality == q.id]
            if q.direction is m.QualityDirection.SUPPORTS and not evrs:
                ok = False
            for e in evrs:
                if e.risk_path is not m.RiskPath.HIGH:
                    continue
                for t in doc.threats:
                    if t.evr != e.id or not t.realistic:
                        continue
                    covered = any(
                        t.id in c.threats
                        and c.status in (m.ControlStatus.ACCEPTED,
                                         m.ControlStatus.IMPLEMENTED)
                        for c in doc.controls
                    )
                    if not covered:
                        ok = False
        count += ok
    return count


class TestMaturityScore:
    def test_seven_of_fourteen(self):
        clusters = [_cluster(i, complete=i <= 7) for i in range(1, 15)]
        doc = base_doc(
            m.Phase.DESIGN,
            core_values=tuple(m.CoreValue(id=i, name=f"v{i}", priority_rank=i)
                              for i in range(1, 15)),
            qualities=tuple(c["quality"] for c in clusters),
            evrs=tuple(e for c in clusters for e in c["evrs"]),
        )
        assert m.validate_register(doc) == ()
        score = trace.maturity_score(doc)
        assert (score.addressed, score.total, score.ratio) == (7, 14, 0.5)
        assert _brute_force_addressed(doc) == 7

    def test_empty_register(self):
        score = trace.maturity_score(m.new_empty_register("X"))
        assert (score.addressed, score.total, score.ratio) == (0, 0, 0.0)
        assert score.empty
        assert score.render() == "0/0 (empty)"

    def test_adding_missing_control_raises_addressed_by_one(self):
        doc = _chain_doc()
        broken = replace(doc, controls=(), dispositions=())
        assert m.validate_register(broken) == ()
        before = trace.maturity_score(broken)
        after = trace.maturity_score(doc)
        assert after.addressed == before.addressed + 1

    @settings(max_examples=60, deadline=None)
    @given(registers)
    def test_matches_brute_force(self, doc):
        assert trace.maturity_score(doc).addressed == _brute_force_addressed(doc)


class TestCoverageReport:
    def test_chain_fixture_equality_row(self, chain_doc):
        rows = trace.coverage_report(chain_doc)
        assert len(rows) == 1
        row = rows[0]
        assert row.core_value == "equality"
        assert row.qualities >= 1
        assert row.evrs == 5

    def test_empty_register_has_no_rows(self):
        assert trace.coverage_report(m.new_empty_register("X")) == ()

    def test_csv_header(self, chain_doc):
        text = trace.coverage_csv(chain_doc)
        assert text.splitlines()[0] == trace.COVERAGE_CSV_HEADER

    @settings(max_examples=40, deadline=None)
    @given(registers)
    def test_counts_match_document_scan(self, doc):
        rows = trace.coverage_report(doc)
        assert [r.rank for r in rows] == sorted(r.rank for r in rows)
        for row in rows:
            cv = next(c for c in doc.core_values if c.priority_rank == row.rank)
            quals = [q for q in doc.qualities if q.core_value == cv.id]
            evrs = [e for e in doc.evrs if e.quality in {q.id for q in quals}]
            evr_ids = {e.id for e in evrs}
            assert row.qualities == len(quals)
            assert row.evrs == len(evrs)
            assert row.thresholds == sum(1 for e in evrs if e.threshold)
            assert row.threats == sum(1 for t in doc.threats if t.evr in evr_ids)


class TestDot:
    def test_empty_register_yields_empty_graph(self):
        assert trace.export_dot(m.new_empty_register("X")) == "digraph register {\n}\n"

    def test_nodes_carry_id_and_name(self, chain_doc):
        text = trace.export_dot(chain_doc)
        assert '"1" [label="1 equality"];' in text
        assert '"1.1" -> "1.1.3";' in text


class TestDiff:
    def test_identity_diff_is_empty(self, clean_doc):
        changes = trace.diff_registers(clean_doc, clean_doc)
        assert changes.empty
        assert not changes.new_core_values_require_reprioritization

    def test_added_core_value_sets_flag(self, full_doc):
        extra = m.CoreValue(id=15, name="addiction avoidance", priority_rank=15)
        grown = replace(full_doc, core_values=full_doc.core_values + (extra,))
        assert m.validate_register(grown) == ()
        changes = trace.diff_registers(full_doc, grown)
        assert changes.added["core_values"] == ("15",)
        assert changes.new_core_values_require_reprioritization

    def test_removed_evr_listed(self, chain_doc):
        pruned = replace(chain_doc,
                         evrs=tuple(e for e in chain_doc.evrs if e.id != "1.1.5"))
        assert m.validate_register(pruned) == ()
        changes = trace.diff_registers(chain_doc, pruned)
        assert changes.removed["evrs"] == ("1.1.5",)
        assert not changes.new_core_values_require_reprioritization

    def test_rename_shows_as_modified(self, chain_doc):
        renamed = replace(chain_doc, core_values=(
            replace(chain_doc.core_values[0], name="fair access"),))
        changes = trace.diff_registers(chain_doc, renamed)
        assert changes.modified["core_values"] == ("1",)
        assert changes.added["core_values"] == ()

    @settings(max_examples=40, deadline=None)
    @given(registers, registers)
    def test_diff_symmetry(self, a, b):
        forward = trace.diff_registers(a, b)
        backward = trace.diff_registers(b, a)
        assert forward.added == backward.removed
        assert forward.removed == backward.added
        assert forward.modified.keys() == backward.modified.keys()
        for kind in forward.modified:
            assert set(forward.modified[kind]) == set(backward.modified[kind])

    @settings(max_examples=40, deadline=None)
    @given(registers, registers)
    def test_apply_inverse_reconstructs_old(self, old, new):
        changes = trace.diff_registers(old, new)
        rebuilt = apply_inverse(new, changes, old)
        assert dsl.serialize_canonical(rebuilt) == dsl.serialize_canonical(old)
