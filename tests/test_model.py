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


_TWO_EVRS = dict(_CHAIN, evrs=(*_CHAIN["evrs"], m.Evr(id="1.1.2", quality="1.1", text="y")))


def _control(cid: str, threats: tuple, **kw) -> m.Control:
    return m.Control(id=cid, threats=threats, form=m.ControlForm.PROCEDURAL, **kw)


# One document that breaks most sections of validate_register at once, to pin
# their order: id shapes, ranks, scores, prefixes, EVR and control fields,
# references, numbering, flows, lenses, dates, attestations, the mission,
# the no-go decision, feedback, aliases, phase gating and the concept of operation.
_MANY_SECTIONS = dict(
    soi=m.Soi(name="TM"),
    sos_elements=(m.SosElement(id="S1", name="cloud", cooperation_type=m.CooperationType.VIRTUAL, tier=0),),
    stakeholders=(m.Stakeholder(id="ST1", name="users", kind=m.StakeholderKind.DIRECT),
                  m.Stakeholder(id="bad id", name="others", kind=m.StakeholderKind.DIRECT),
                  m.Stakeholder(id="ST1", name="again", kind=m.StakeholderKind.DIRECT)),
    contexts=(m.ContextOfUse(id="CTX1", name="clinic", data_flows=(m.DataFlow("phone", "", ""),)),
              m.ContextOfUse(id="CTX2", name="home", captured=m.CaptureStage.POST_DEPLOYMENT)),
    sessions=(m.ElicitationSession(id="SES1", date="2020-02-30", participants=("ST1",),
                                   lenses_used=(m.Lens(m.LensKind.CULTURAL),)),),
    statements=(m.ValueStatement(id="V1", session="SES1", stakeholder="ST1",
                                 lens=m.Lens(m.LensKind.DUTY, "kantian ethics")),),
    core_values=(m.CoreValue(id=1, name="a", priority_rank=1,
                             hierarchy_scores=m.HierarchyScores(6, 4, 4, 4, 4)),
                 m.CoreValue(id=2, name="b", priority_rank=3)),
    qualities=(m.ValueQuality(id="1.1", core_value=1, name="q"),
               m.ValueQuality(id="2.1", core_value=1, name="r")),
    evrs=(m.Evr(id="1.1.1", quality="1.1", text="x", risk_path=m.RiskPath.HIGH,
                threshold=m.Threshold("wait", "~", "2 days")),
          m.Evr(id="E9", quality="1.1", text="y", protection_demand=m.ProtectionDemand(5, ""))),
    threats=(m.Threat(id="1.1.1-T1", evr="1.1.1"), m.Threat(id="1.1.2-T1", evr="1.1.1")),
    controls=(_control("C9", ("1.1.1-T1",)),
              _control("1.1.1-C1", ("1.1.2-T1",), rigor=7, status=m.ControlStatus.IMPLEMENTED),
              _control("1.1.1-C2", ())),
    dispositions=(m.ValueDisposition(id="D1", soi_component="app", implements=()),),
    functional_requirements=(m.FunctionalRequirement(id="1.1.1"),),
    personas=(m.Persona(id="P1", name="n", stakeholder="ST1", kind=m.StakeholderKind.INDIRECT),
              m.Persona(id="P2", name="o", stakeholder="NOPE", kind=m.StakeholderKind.DIRECT)),
    attestations=(m.Attestation(id="A1", subject=m.AttestationSubject(m.SubjectKind.PRIORITY_DECISION, "99"),
                                signatory_name="", signatory_role=m.SignatoryRole.EXECUTIVE, date="soon"),),
    mission=m.ValueMission(text="b first", featured=(2,)),
    investment_decision=m.InvestmentDecision(m.Verdict.NO_GO),
    feedback=(m.FeedbackEntry(id="FB1", source="nobody", date="later"),),
    alias_map={"a": "a"},
)
_MANY_SECTIONS_FOUND = [
    ("P010", "ST1", "duplicate stakeholder id 'ST1'"),
    ("P012", "bad id", "stakeholder id 'bad id' is not identifier-shaped"),
    ("P012", "1.1.1", "functional requirement id '1.1.1' is not identifier-shaped"),
    ("P010", "1.1.1", "functional requirement id '1.1.1' is also an evr id"),
    ("P022", "register", "priority ranks do not form a permutation of 1..2"),
    ("P021", "1", "hierarchy score endurance must be 1..5, got 6"),
    ("P013", "2.1", "quality id prefix 2 does not match parent core value 1"),
    ("P012", "E9", "EVR id 'E9' is not of the form N.M.K"),
    ("P020", "1.1.1", "threshold comparator '~' is not one of </<=/=/>=/>"),
    ("P032", "1.1.1", "high-risk EVR 1.1.1 has no protection demand"),
    ("P021", "E9", "protection demand must be 1..4, got 5"),
    ("P033", "E9", "protection demand on EVR E9 has no rationale"),
    ("P015", "1.1.2-T1", "threat id prefix does not match its EVR"),
    ("P012", "C9", "control id 'C9' is not of the form N.M.K-Cj"),
    ("P024", "1.1.1-C1", "control 1.1.1-C1 references threat 1.1.2-T1 outside its EVR 1.1.1"),
    ("P021", "1.1.1-C1", "control rigor must be 1..4, got 7"),
    ("P025", "1.1.1-C1", "implemented control 1.1.1-C1 names no implementing disposition"),
    ("P011", "1.1.1-C2", "control 1.1.1-C2 mitigates no threats"),
    ("P011", "P2", "persona P2 references unknown stakeholder 'NOPE'"),
    ("P026", "D1", "disposition D1 implements no controls"),
    ("P021", "S1", "SOS element tier must be >= 1, got 0"),
    ("P017", "CTX1", "data flow source 'phone' is not a declared element"),
    ("P017", "CTX1", "data flow sink '' is not a declared element"),
    ("P017", "CTX1", "data flow type '' is not a declared data type"),
    ("P030", "SES1", "cultural lens carries no framework name"),
    ("P031", "SES1", "session date '2020-02-30' is not an ISO date"),
    ("P030", "V1", "duty lens must not carry a framework name"),
    ("P035", "P1", "persona P1 kind indirect differs from its stakeholder's kind direct"),
    ("P031", "A1", "attestation A1 has an empty signatory name"),
    ("P031", "A1", "attestation A1 date 'soon' is not an ISO date"),
    ("P011", "A1", "attestation A1 endorses unknown core value '99'"),
    ("P027", "register", "mission featured values are not a prefix of the priority order"),
    ("P028", "register", "no-go decision has no rationale"),
    ("P028", "register", "no-go decision carries no executive attestation"),
    ("P011", "FB1", "feedback FB1 source 'nobody' is neither a stakeholder nor 'market'"),
    ("P031", "FB1", "feedback date 'later' is not an ISO date"),
    ("P019", "a", "alias 'a' maps to itself"),
    ("P023", "CTX2", "post-deployment contexts are not allowed in phase design"),
    ("P029", "register", "concept of operation must be recorded before phase design"),
]


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
          ("P010", "1.1.1", "functional requirement id '1.1.1' is also an evr id")]),
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
        (m.Phase.DESIGN, dict(_CHAIN, threats=(m.Threat(id="1.1.2-T1", evr="1.1.1"),)),
         [("P015", "1.1.2-T1", "threat id prefix does not match its EVR")]),
        (m.Phase.DESIGN, dict(_TWO_EVRS, threats=(m.Threat(id="1.1.2-T1", evr="1.1.2"),),
                              controls=(_control("1.1.1-C1", ("1.1.2-T1",)),)),
         [("P024", "1.1.1-C1", "control 1.1.1-C1 references threat 1.1.2-T1 outside its EVR 1.1.1")]),
        (m.Phase.CONCEPT, dict(contexts=(m.ContextOfUse(
            id="CTX1", name="clinic", data_elements=("app",), data_types=("record",),
            data_flows=(m.DataFlow("phone", "cloud", "video"),)),)),
         [("P017", "CTX1", "data flow source 'phone' is not a declared element"),
          ("P017", "CTX1", "data flow sink 'cloud' is not a declared element"),
          ("P017", "CTX1", "data flow type 'video' is not a declared data type")]),
        (m.Phase.DESIGN, dict(dispositions=(m.ValueDisposition(id="D1", soi_component="app", implements=()),)),
         [("P026", "D1", "disposition D1 implements no controls")]),
        (m.Phase.EXPLORATION, dict(soi=m.Soi(name="TM", concept_of_operation="  ")),
         [("P029", "register", "concept of operation must be recorded before phase exploration")]),
        (m.Phase.EXPLORATION, dict(sessions=(m.ElicitationSession(id="SES1", date="2020-02-30"),)),
         [("P031", "SES1", "session date '2020-02-30' is not an ISO date")]),
        (m.Phase.EXPLORATION, dict(attestations=(m.Attestation(
            id="A1", subject=m.AttestationSubject(m.SubjectKind.RULE, "VBE-C08"), signatory_name="Jane Doe",
            signatory_role=m.SignatoryRole.VALUE_EXPERT, date="1 April 2020"),)),
         [("P031", "A1", "attestation A1 date '1 April 2020' is not an ISO date")]),
        (m.Phase.DESIGN, dict(feedback=(m.FeedbackEntry(id="FB1", source="market", date="2020-4-1"),)),
         [("P031", "FB1", "feedback date '2020-4-1' is not an ISO date")]),
        (m.Phase.CONCEPT, dict(mission=m.ValueMission(text="privacy first")),
         [("P023", "register", "a mission is not allowed in phase concept")]),
        (m.Phase.CONCEPT, dict(investment_decision=m.InvestmentDecision(m.Verdict.GO)),
         [("P023", "register", "an investment decision is not allowed in phase concept")]),
        (m.Phase.DESIGN, dict(contexts=(m.ContextOfUse(
            id="CTX1", name="clinic", captured=m.CaptureStage.POST_DEPLOYMENT),)),
         [("P023", "CTX1", "post-deployment contexts are not allowed in phase design")]),
        (m.Phase.EXPLORATION, dict(_CHAIN, qualities=(m.ValueQuality(
            id="1.1", core_value=1, name="q", source=m.QualitySource.POST_DEPLOYMENT),)),
         [("P023", "1.1", "post-deployment qualities are not allowed in phase exploration")]),
        (m.Phase.DESIGN, dict(_CHAIN, controls=(_control("1.1.1-C1", ()),)),
         [("P011", "1.1.1-C1", "control 1.1.1-C1 mitigates no threats")]),
        (m.Phase.EXPLORATION, dict(_CHAIN, evrs=(replace(_CHAIN["evrs"][0], threshold=m.Threshold(
            "wait", "~", "2 days")),)),
         [("P020", "1.1.1", "threshold comparator '~' is not one of </<=/=/>=/>")]),
        (m.Phase.EXPLORATION, dict(core_values=(m.CoreValue(id=2, name="b", priority_rank=2),
                                                m.CoreValue(id=1, name="a", priority_rank=1))),
         [("P016", "2", "core value ids must run 1..2 in order; found 2 at position 1"),
          ("P016", "1", "core value ids must run 1..2 in order; found 1 at position 2")]),
        (m.Phase.DESIGN, dict(
            core_values=_CHAIN["core_values"], qualities=(m.ValueQuality(id="1.2", core_value=1, name="q"),),
            evrs=(m.Evr(id="1.2.2", quality="1.2", text="x"),),
            threats=(m.Threat(id="1.2.2-T2", evr="1.2.2"),),
            controls=(_control("1.2.2-C2", ("1.2.2-T2",)),)),
         [("P016", "1", "quality numbering under core value 1 is not contiguous from 1"),
          ("P016", "1.2", "EVR numbering under quality 1.2 is not contiguous from 1"),
          ("P016", "1.2.2", "threat numbering under EVR 1.2.2 is not contiguous from 1"),
          ("P016", "1.2.2", "control numbering under EVR 1.2.2 is not contiguous from 1")]),
        (m.Phase.EXPLORATION, dict(core_values=(m.CoreValue(id=1, name="a", priority_rank=1),
                                                m.CoreValue(id=2, name="b", priority_rank=3))),
         [("P022", "register", "priority ranks do not form a permutation of 1..2")]),
        (m.Phase.EXPLORATION, dict(core_values=(m.CoreValue(id=1, name="a", priority_rank=1),
                                                m.CoreValue(id=2, name="b", priority_rank=2)),
                                   mission=m.ValueMission(text="b first", featured=(2,))),
         [("P027", "register", "mission featured values are not a prefix of the priority order")]),
        (m.Phase.EXPLORATION, dict(_CHAIN, evrs=(replace(_CHAIN["evrs"][0], risk_path=m.RiskPath.HIGH),)),
         [("P032", "1.1.1", "high-risk EVR 1.1.1 has no protection demand")]),
        (m.Phase.DESIGN, _MANY_SECTIONS, _MANY_SECTIONS_FOUND),
        # Forms that date.fromisoformat reads from Python 3.11 on, and 3.10 refuses.
        (m.Phase.EXPLORATION, dict(sessions=(m.ElicitationSession(id="SES1", date="20200401"),)),
         [("P031", "SES1", "session date '20200401' is not an ISO date")]),
        (m.Phase.DESIGN, dict(feedback=(m.FeedbackEntry(id="FB1", source="market", date="2020-W14-3"),)),
         [("P031", "FB1", "feedback date '2020-W14-3' is not an ISO date")]),
    ], ids=["P010-funcreq-evr-id", "P021-hierarchy-score", "P021-protection-demand",
            "P021-control-rigor", "P021-sos-tier", "P033-blank-rationale", "P035-persona-kind",
            "P031-blank-signatory", "P019-self-alias", "P030-utilitarian-framework",
            "P028-no-go-engineer", "P028-no-go-executive", "P015-threat-prefix",
            "P024-threat-outside-evr", "P017-flow", "P026-no-controls", "P029-no-conop",
            "P031-session-date", "P031-attestation-date", "P031-feedback-date", "P023-mission",
            "P023-investment-decision", "P023-post-deployment-context",
            "P023-post-deployment-quality", "P011-no-threats", "P020-comparator",
            "P016-core-value-order", "P016-numbering", "P022-ranks", "P027-mission-prefix",
            "P032-no-demand", "many-sections-in-order", "P031-basic-date-form",
            "P031-week-date-form"])
    def test_field_checks_report_exactly(self, phase, overrides, expected):
        violations = m.validate_register(replace(base_doc(phase), **overrides))
        assert [(v.code, v.subject, v.message) for v in violations] == expected

    @pytest.mark.parametrize("kind, field, parent_kind, code, moved", [
        ("qualities", "core_value", "core_values", "P013", 98),
        ("evrs", "quality", "qualities", "P014", 91),
        ("threats", "evr", "evrs", "P015", 56),
        ("controls", "threats", "threats", "P024", 35),
    ])
    def test_a_moved_entity_gives_one_violation(self, kind, field, parent_kind, code, moved):
        # One fault, one diagnostic: the first entity of a numbered kind
        # moved under another existing parent (a control: to a threat of
        # another EVR) breaks its prefix, and its numbering stays whole.
        seen = 0
        for seed in range(300):
            doc = random_register(random.Random(seed))
            first, *rest = getattr(doc, kind) or (None,)
            if first is None:
                continue
            old = m.control_parent(first.id) if kind == "controls" else getattr(first, field)
            other = next((p.id for p in getattr(doc, parent_kind)
                          if (p.evr if kind == "controls" else p.id) != old), None)
            if other is None:
                continue
            new = (other, *first.threats[1:]) if kind == "controls" else other
            moved_doc = replace(doc, **{kind: (replace(first, **{field: new}), *rest)})
            found = [(v.code, v.subject, v.kind) for v in m.validate_register(moved_doc)]
            assert found == [(code, first.id, kind)], seed
            seen += 1
        assert seen == moved

    def test_generated_registers_are_valid(self):
        rng = random.Random(7)
        for _ in range(50):
            doc = random_register(rng)
            assert m.validate_register(doc) == ()
