from __future__ import annotations

import random
import typing
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evrforge import dsl, rules
from evrforge import model as m

from .support import base_doc, random_register


class TestNewEmptyRegister:
    def test_creates_concept_phase_register(self):
        doc = m.new_empty_register("TM")
        assert doc.phase is m.Phase.CONCEPT
        assert doc.stakeholders == ()
        assert doc.core_values == ()

    def test_rejects_empty_name(self):
        with pytest.raises(m.RegisterError):
            m.new_empty_register("")
        with pytest.raises(m.RegisterError):
            m.new_empty_register("   ")

    def test_result_is_structurally_valid_and_rule_silent(self):
        doc = m.new_empty_register("X")
        assert m.validate_register(doc) == ()
        assert rules.run_rules(doc) == ()


class TestResolveAlias:
    def test_mapped_name_resolves(self):
        doc = replace(m.new_empty_register("TM"),
                      alias_map={"anonymity": "privacy"})
        assert m.resolve_alias(doc, "anonymity") == "privacy"

    def test_unmapped_name_passes_through(self):
        doc = m.new_empty_register("TM")
        assert m.resolve_alias(doc, "privacy") == "privacy"

    @given(st.dictionaries(
        st.text(min_size=1, max_size=6), st.text(min_size=1, max_size=6),
        max_size=6,
    ), st.text(min_size=1, max_size=6))
    def test_idempotent_on_valid_maps(self, mapping, name):
        # Keep only direct mappings, mirroring the structural invariant.
        mapping = {k: v for k, v in mapping.items()
                   if k != v and v not in mapping}
        doc = replace(m.new_empty_register("TM"), alias_map=mapping)
        once = m.resolve_alias(doc, name)
        assert m.resolve_alias(doc, once) == once


_CHAIN = dict(core_values=(m.CoreValue(id=1, name="privacy", priority_rank=1),),
              qualities=(m.ValueQuality(id="1.1", core_value=1, name="q"),),
              evrs=(m.Evr(id="1.1.1", quality="1.1", text="x"),))


def _with_demand(demand: m.ProtectionDemand) -> dict:
    return dict(_CHAIN, evrs=(replace(_CHAIN["evrs"][0], protection_demand=demand),))


def _no_go_signed_by(role: m.SignatoryRole) -> dict:
    """A no-go decision with a rationale, attested only by ``role``."""
    return dict(
        investment_decision=m.InvestmentDecision(m.Verdict.NO_GO, "harms outweigh gains", ("A1",)),
        attestations=(m.Attestation(
            id="A1", subject=m.AttestationSubject(m.SubjectKind.INVESTMENT_DECISION),
            signatory_name="Jane Doe", signatory_role=role, date="2020-04-01"),))


class TestAdvancePhase:
    def test_concept_to_exploration_needs_conop(self):
        doc = m.new_empty_register("TM")
        report = m.advance_phase(doc, m.Phase.EXPLORATION)
        assert isinstance(report, m.GateReport)
        assert any("concept of operation" in f for f in report.failures)

        ready = replace(doc, soi=replace(doc.soi, concept_of_operation="a help desk"))
        advanced = m.advance_phase(ready, m.Phase.EXPLORATION)
        assert isinstance(advanced, m.RegisterDocument)
        assert advanced.phase is m.Phase.EXPLORATION

    def test_exploration_to_design_without_evrs_fails(self):
        doc = base_doc(m.Phase.EXPLORATION)
        doc = replace(
            doc,
            core_values=(m.CoreValue(id=1, name="privacy", priority_rank=1),),
            mission=m.ValueMission(text="privacy first", featured=(1,)),
        )
        report = m.advance_phase(doc, m.Phase.DESIGN)
        assert isinstance(report, m.GateReport)
        assert "no EVRs defined" in report.failures

    @pytest.mark.parametrize("overrides, failures", [
        (dict(investment_decision=m.InvestmentDecision(m.Verdict.GO)),
         ("no core values defined", "no EVRs defined",
          "neither a value mission nor a no-go decision is recorded")),
        (dict(_CHAIN, core_values=(m.CoreValue(id=1, name="privacy", priority_rank=2),),
              mission=m.ValueMission(text="privacy first")),
         ("priority ranks are not fully assigned",)),
    ])
    def test_exploration_to_design_names_each_failed_gate(self, overrides, failures):
        report = m.advance_phase(base_doc(m.Phase.EXPLORATION, **overrides), m.Phase.DESIGN)
        assert report == m.GateReport(target=m.Phase.DESIGN, failures=failures)

    def test_invalid_document_raises_once_the_gate_holds(self):
        doc = replace(m.new_empty_register("TM"), alias_map={"a": "a"},
                      soi=m.Soi(name="TM", concept_of_operation="a help desk"))
        with pytest.raises(m.RegisterError, match="invalid after transition: alias 'a' maps to itself"):
            m.advance_phase(doc, m.Phase.EXPLORATION)

    def test_design_to_deployment_names_uncontrolled_evr(self, clean_doc):
        uncontrolled = m.Threat(id="2.1.1-T3", evr="2.1.1",
                                description="keys leak through tooling")
        doc = replace(clean_doc, threats=clean_doc.threats + (uncontrolled,))
        assert m.validate_register(doc) == ()
        report = m.advance_phase(doc, m.Phase.DEPLOYMENT)
        assert isinstance(report, m.GateReport)
        assert any("2.1.1" in f for f in report.failures)

    def test_clean_fixture_reaches_deployment(self, clean_doc):
        advanced = m.advance_phase(clean_doc, m.Phase.DEPLOYMENT)
        assert isinstance(advanced, m.RegisterDocument)
        assert m.validate_register(advanced) == ()

    def test_non_successor_target_raises(self):
        doc = m.new_empty_register("TM")
        with pytest.raises(m.InvalidTransitionError):
            m.advance_phase(doc, m.Phase.DESIGN)
        with pytest.raises(m.InvalidTransitionError):
            m.advance_phase(doc, m.Phase.CONCEPT)


class TestValidation:
    def test_every_collection_declares_its_kind(self):
        collections = [f.name for f in fields(m.RegisterDocument) if f.default == ()]
        assert list(m.ENTITY_KINDS) == collections

    def test_every_reference_is_declared(self):
        # A reference attribute of the text format cannot ship without the
        # REFERENCES entry that checks it (P011), indexes and draws it.
        declared = {(kind, field) for kind, field, *_ in m.REFERENCES}
        read = {(block.slot, attr.field) for block in dsl._BLOCKS.values()
                for attr in block.attrs if attr.reader is dsl._REF}
        assert read and read <= declared
        hints = typing.get_type_hints(m.RegisterDocument)
        for kind, field, targets, message, _ in m.REFERENCES:
            assert kind in m.ENTITY_KINDS or kind in ("mission", "investment_decision")
            assert field in {f.name for f in fields(typing.get_args(hints[kind])[0])}
            assert targets and set(targets) <= m.ENTITY_KINDS.keys()
            assert "{ref" in message

    @pytest.mark.parametrize("kind, entity", [
        ("qualities", m.ValueQuality(id="Q1", core_value=9, name="q")),
        ("evrs", m.Evr(id="E1", quality="9.9", text="t")),
        ("threats", m.Threat(id="T1", evr="9.9.9")),
        ("controls", m.Control(id="C1", threats=("9.9.9-T9",), form=m.ControlForm.STRUCTURAL,
                               implementing_disposition="nowhere")),
        # ``$`` would also match before a final line end.
        ("qualities", m.ValueQuality(id="1.1\n", core_value=9, name="q")),
        ("evrs", m.Evr(id="1.1.1\n", quality="9.9", text="t")),
        ("threats", m.Threat(id="1.1.1-T1\n", evr="9.9.9")),
        ("controls", m.Control(id="1.1.1-C1\n", threats=("9.9.9-T9",),
                               form=m.ControlForm.STRUCTURAL, implementing_disposition="nowhere")),
    ])
    def test_malformed_numbered_id_reports_only_its_shape(self, kind, entity):
        doc = base_doc(m.Phase.DESIGN, **{kind: (entity,)})
        assert [(v.code, v.subject) for v in m.validate_register(doc)] == [("P012", entity.id)]

    def test_an_id_with_a_final_line_end_is_not_identifier_shaped(self, clean_doc):
        # It would be written as ``S1`` and read back as another document.
        first, *rest = clean_doc.sos_elements
        doc = replace(clean_doc, sos_elements=(replace(first, id="S1\n"), *rest))
        assert [(v.code, v.subject) for v in m.validate_register(doc)] == [("P012", "S1\n")]
        with pytest.raises(m.RegisterError):
            dsl.serialize_canonical(doc)
        assert m.control_parent("1.1.1-C1\n") is None

    def test_duplicate_ids_rejected(self):
        doc = base_doc(m.Phase.EXPLORATION, stakeholders=(
            m.Stakeholder(id="ST1", name="a", kind=m.StakeholderKind.DIRECT),
            m.Stakeholder(id="ST1", name="b", kind=m.StakeholderKind.INDIRECT),
        ))
        codes = {v.code for v in m.validate_register(doc)}
        assert "P010" in codes

    def test_dangling_reference_rejected(self):
        doc = base_doc(m.Phase.EXPLORATION, sessions=(
            m.ElicitationSession(id="SES1", participants=("STX",)),))
        codes = {v.code for v in m.validate_register(doc)}
        assert "P011" in codes

    def test_quality_prefix_must_match_parent(self):
        doc = base_doc(
            m.Phase.EXPLORATION,
            core_values=(m.CoreValue(id=1, name="privacy", priority_rank=1),),
            qualities=(m.ValueQuality(id="1.1", core_value=2, name="q"),),
        )
        codes = {v.code for v in m.validate_register(doc)}
        assert "P013" in codes

    def test_evr_numbering_must_be_contiguous(self):
        doc = base_doc(
            m.Phase.EXPLORATION,
            core_values=(m.CoreValue(id=1, name="privacy", priority_rank=1),),
            qualities=(m.ValueQuality(id="1.1", core_value=1, name="q"),),
            evrs=(m.Evr(id="1.1.2", quality="1.1", text="x"),),
        )
        codes = {v.code for v in m.validate_register(doc)}
        assert "P016" in codes

    def test_rank_permutation_enforced(self):
        doc = base_doc(m.Phase.EXPLORATION, core_values=(
            m.CoreValue(id=1, name="a", priority_rank=1),
            m.CoreValue(id=2, name="b", priority_rank=3),
        ))
        codes = {v.code for v in m.validate_register(doc)}
        assert "P022" in codes

    def test_alias_chain_rejected(self):
        doc = replace(m.new_empty_register("TM"),
                      alias_map={"a": "b", "b": "c"})
        codes = {v.code for v in m.validate_register(doc)}
        assert "P019" in codes

    def test_controls_forbidden_in_concept_phase(self):
        doc = base_doc(m.Phase.CONCEPT, controls=(
            m.Control(id="1.1.1-C1", threats=("1.1.1-T1",),
                      form=m.ControlForm.PROCEDURAL),))
        codes = {v.code for v in m.validate_register(doc)}
        assert "P023" in codes

    def test_high_risk_evr_requires_demand(self):
        doc = base_doc(
            m.Phase.EXPLORATION,
            core_values=(m.CoreValue(id=1, name="privacy", priority_rank=1),),
            qualities=(m.ValueQuality(id="1.1", core_value=1, name="q"),),
            evrs=(m.Evr(id="1.1.1", quality="1.1", text="x",
                        risk_path=m.RiskPath.HIGH,
                        legal_instruments=("law",)),),
        )
        codes = {v.code for v in m.validate_register(doc)}
        assert "P032" in codes

    def test_implemented_control_requires_disposition(self):
        doc = base_doc(
            m.Phase.DESIGN,
            core_values=(m.CoreValue(id=1, name="privacy", priority_rank=1),),
            qualities=(m.ValueQuality(id="1.1", core_value=1, name="q"),),
            evrs=(m.Evr(id="1.1.1", quality="1.1", text="x"),),
            threats=(m.Threat(id="1.1.1-T1", evr="1.1.1"),),
            controls=(m.Control(id="1.1.1-C1", threats=("1.1.1-T1",),
                                form=m.ControlForm.PROCEDURAL,
                                status=m.ControlStatus.IMPLEMENTED),),
        )
        codes = {v.code for v in m.validate_register(doc)}
        assert "P025" in codes

    def test_mission_featured_must_be_rank_prefix(self):
        doc = base_doc(
            m.Phase.EXPLORATION,
            core_values=(m.CoreValue(id=1, name="a", priority_rank=1),
                         m.CoreValue(id=2, name="b", priority_rank=2)),
            mission=m.ValueMission(text="b first", featured=(2,)),
        )
        codes = {v.code for v in m.validate_register(doc)}
        assert "P027" in codes

    def test_no_go_requires_rationale_and_executive(self):
        doc = base_doc(m.Phase.EXPLORATION,
                       investment_decision=m.InvestmentDecision(
                           verdict=m.Verdict.NO_GO))
        codes = [v.code for v in m.validate_register(doc)]
        assert codes.count("P028") == 2

    @pytest.mark.parametrize("phase, overrides, expected", [
        (m.Phase.DESIGN, dict(_CHAIN, functional_requirements=(m.FunctionalRequirement(id="1.1.1"),)),
         [("P012", "1.1.1", "functional requirement id '1.1.1' is not identifier-shaped"),
          ("P010", "1.1.1", "functional requirement id collides with an ethical requirement id")]),
        (m.Phase.EXPLORATION, dict(core_values=(m.CoreValue(
            id=1, name="privacy", priority_rank=1, hierarchy_scores=m.HierarchyScores(5, 4, 6, 3, 0)),)),
         [("P021", "1", "hierarchy score indivisibility must be 1..5, got 6"),
          ("P021", "1", "hierarchy score intrinsic_worth must be 1..5, got 0")]),
        (m.Phase.EXPLORATION, _with_demand(m.ProtectionDemand(5, "breach exposes data")),
         [("P021", "1.1.1", "protection demand must be 1..4, got 5")]),
        (m.Phase.DESIGN, dict(_CHAIN, threats=(m.Threat(id="1.1.1-T1", evr="1.1.1"),),
                              controls=(m.Control(id="1.1.1-C1", threats=("1.1.1-T1",),
                                                  form=m.ControlForm.PROCEDURAL, rigor=5),)),
         [("P021", "1.1.1-C1", "control rigor must be 1..4, got 5")]),
        (m.Phase.CONCEPT, dict(sos_elements=(m.SosElement(
            id="S1", name="cloud", cooperation_type=m.CooperationType.VIRTUAL, tier=0),)),
         [("P021", "S1", "SOS element tier must be >= 1, got 0")]),
        (m.Phase.EXPLORATION, _with_demand(m.ProtectionDemand(2, "  ")),
         [("P033", "1.1.1", "protection demand on EVR 1.1.1 has no rationale")]),
        (m.Phase.DESIGN, dict(
            stakeholders=(m.Stakeholder(id="ST1", name="users", kind=m.StakeholderKind.DIRECT),),
            personas=(m.Persona(id="P1", name="a neighbour", stakeholder="ST1",
                                kind=m.StakeholderKind.INDIRECT),)),
         [("P035", "P1", "persona P1 kind indirect differs from its stakeholder's kind direct")]),
        (m.Phase.EXPLORATION, dict(attestations=(m.Attestation(
            id="A1", subject=m.AttestationSubject(m.SubjectKind.RULE, "VBE-C08"), signatory_name=" ",
            signatory_role=m.SignatoryRole.VALUE_EXPERT, date="2020-04-01"),)),
         [("P031", "A1", "attestation A1 has an empty signatory name")]),
        (m.Phase.CONCEPT, dict(alias_map={"privacy": "privacy"}),
         [("P019", "privacy", "alias 'privacy' maps to itself")]),
        (m.Phase.EXPLORATION, dict(sessions=(m.ElicitationSession(
            id="SES1", lenses_used=(m.Lens(m.LensKind.UTILITARIAN, "kantian ethics"),)),)),
         [("P030", "SES1", "utilitarian lens must not carry a framework name")]),
        (m.Phase.EXPLORATION, _no_go_signed_by(m.SignatoryRole.ENGINEER),
         [("P028", "register", "no-go decision carries no executive attestation")]),
        (m.Phase.EXPLORATION, _no_go_signed_by(m.SignatoryRole.EXECUTIVE), []),
    ], ids=["P010-funcreq-evr-id", "P021-hierarchy-score", "P021-protection-demand",
            "P021-control-rigor", "P021-sos-tier", "P033-blank-rationale", "P035-persona-kind",
            "P031-blank-signatory", "P019-self-alias", "P030-utilitarian-framework",
            "P028-no-go-engineer", "P028-no-go-executive"])
    def test_field_checks_report_exactly(self, phase, overrides, expected):
        violations = m.validate_register(base_doc(phase, **overrides))
        assert [(v.code, v.subject, v.message) for v in violations] == expected

    def test_generated_registers_are_valid(self):
        rng = random.Random(7)
        for _ in range(50):
            doc = random_register(rng)
            assert m.validate_register(doc) == ()
