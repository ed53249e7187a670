from __future__ import annotations

import functools
import random
from dataclasses import replace

import pytest

from evrforge import model as m
from evrforge import rules

from .support import base_doc, random_register, violation_cases


class TestCatalog:
    def test_fourteen_errors_twenty_warnings(self):
        catalog = rules.rule_catalog()
        assert sum(1 for r in catalog if r.severity == "error") == 14
        assert sum(1 for r in catalog if r.severity == "warning") == 20

    def test_every_rule_has_anchor_and_mode(self):
        for rule in rules.rule_catalog():
            assert rule.anchor.strip()
            assert rule.title.strip()
            assert rule.predicate.strip()
            assert rule.mode in ("structural", "attested")

    def test_rule_ids_unique(self):
        ids = [r.rule_id for r in rules.rule_catalog()]
        assert len(ids) == len(set(ids))

    def test_catalog_is_stable_across_calls(self):
        assert rules.rule_catalog() == rules.rule_catalog()


class TestRunRules:
    def test_empty_register_in_concept_is_silent(self):
        assert rules.run_rules(m.new_empty_register("TM")) == ()

    def test_missing_indirect_stakeholder_is_r02(self):
        doc = base_doc(m.Phase.EXPLORATION, stakeholders=(
            m.Stakeholder(id="ST1", name="users", kind=m.StakeholderKind.DIRECT),))
        hits = [d for d in rules.run_rules(doc) if d.rule_id == "VBE-R02"]
        assert len(hits) == 1
        assert hits[0].severity == "error"

    def test_session_without_duty_lens_is_r05a(self, chain_doc):
        sessions = tuple(
            replace(s, lenses_used=tuple(
                lens for lens in s.lenses_used if lens.kind is not m.LensKind.DUTY))
            for s in chain_doc.sessions
        )
        mutated = replace(chain_doc, sessions=sessions)
        hits = [d for d in rules.run_rules(mutated) if d.rule_id == "VBE-R05a"]
        assert len(hits) == 1
        assert hits[0].subject == "SES1"

    def test_clean_fixture_is_diagnostic_free(self, clean_doc):
        assert rules.run_rules(clean_doc) == ()

    def test_determinism(self, full_doc):
        assert rules.run_rules(full_doc) == rules.run_rules(full_doc)

    def test_output_sorted_errors_first(self, full_doc):
        diags = rules.run_rules(full_doc)
        severities = [d.severity for d in diags]
        assert severities == sorted(severities, key=lambda s: 0 if s == "error" else 1)

    def test_unknown_selection_raises(self, clean_doc):
        with pytest.raises(m.RegisterError, match="VBE-R99"):
            rules.run_rules(clean_doc, selection={"VBE-R99"})

    def test_selection_filters_output(self):
        doc = base_doc(m.Phase.EXPLORATION)
        all_ids = {d.rule_id for d in rules.run_rules(doc)}
        assert "VBE-R02" in all_ids
        only = rules.run_rules(doc, selection={"VBE-R02"})
        assert {d.rule_id for d in only} == {"VBE-R02"}

    def test_empty_selection_means_all_rules(self):
        doc = base_doc(m.Phase.EXPLORATION)
        assert rules.run_rules(doc, selection=set()) == rules.run_rules(doc)


class TestCheckRule:
    def test_r13_flags_likely_health_harm_on_low_path(self):
        evr = m.Evr(id="1.1.1", quality="1.1", text="confidential records",
                    risk_path=m.RiskPath.LOW,
                    harm_flags=m.HarmFlags(health=True),
                    harm_likelihood=m.HarmLikelihood.REASONABLY_LIKELY)
        doc = base_doc(
            m.Phase.DESIGN,
            core_values=(m.CoreValue(id=1, name="privacy", priority_rank=1),),
            qualities=(m.ValueQuality(id="1.1", core_value=1, name="q"),),
            evrs=(evr,),
        )
        hits = rules.check_rule(doc, "VBE-R13")
        assert len(hits) == 1
        assert "high-risk design path" in hits[0].message

    def test_c02_directed_with_access_passes(self):
        doc = base_doc(m.Phase.EXPLORATION, sos_elements=(
            m.SosElement(id="S1", name="cloud",
                         cooperation_type=m.CooperationType.DIRECTED,
                         access_to_enabling_elements=True),))
        assert rules.check_rule(doc, "VBE-C02") == ()

    def test_c01_tier_one_out_of_scope_warns(self):
        doc = base_doc(m.Phase.EXPLORATION, sos_elements=(
            m.SosElement(id="S1", name="cloud",
                         cooperation_type=m.CooperationType.COLLABORATIVE,
                         tier=1, processes_personal_data=True,
                         in_ethical_scope=False),))
        hits = rules.check_rule(doc, "VBE-C01")
        assert len(hits) == 1
        assert hits[0].severity == "warning"

    def test_check_rule_matches_run_rules_subset(self, full_doc):
        everything = rules.run_rules(full_doc)
        for rule in rules.rule_catalog():
            subset = tuple(d for d in everything if d.rule_id == rule.rule_id)
            assert rules.check_rule(full_doc, rule.rule_id) == subset


class TestMonotoneRepair:
    @pytest.mark.parametrize("rule_id", sorted(violation_cases()))
    def test_violation_fires_and_repair_clears(self, rule_id):
        bad, good, subject = violation_cases()[rule_id]
        assert m.validate_register(bad) == ()
        assert m.validate_register(good) == ()

        before = rules.check_rule(bad, rule_id)
        assert [d.subject for d in before] == [subject]

        after = rules.check_rule(good, rule_id)
        assert after == ()

    @pytest.mark.parametrize("rule_id, change", [
        ("VBE-R07", {"signatory_role": m.SignatoryRole.ENGINEER}),
        ("VBE-R10", {"signatory_role": m.SignatoryRole.ENGINEER}),
        ("VBE-C08", {"signatory_role": m.SignatoryRole.ENGINEER}),
        ("VBE-C09", {"signatory_role": m.SignatoryRole.ENGINEER}),
        ("VBE-C11", {"signatory_role": m.SignatoryRole.ENGINEER}),
        ("VBE-C12", {"signatory_role": m.SignatoryRole.EXECUTIVE}),
        ("VBE-C12", {"consent": False}),
        ("VBE-C13", {"signatory_role": m.SignatoryRole.ENGINEER}),
        ("VBE-C20", {"signatory_role": m.SignatoryRole.EXECUTIVE}),
    ])
    def test_repair_needs_the_demanded_signer(self, rule_id, change):
        _, good, subject = violation_cases()[rule_id]
        wrong = replace(good, attestations=tuple(replace(a, **change) for a in good.attestations))
        assert [d.subject for d in rules.check_rule(wrong, rule_id)] == [subject]

    def test_all_rules_have_a_case(self):
        assert set(violation_cases()) == {r.rule_id for r in rules.rule_catalog()}

    def test_severity_fidelity(self):
        by_id = {r.rule_id: r for r in rules.rule_catalog()}
        for rule_id, (bad, _, _) in violation_cases().items():
            for diag in rules.check_rule(bad, rule_id):
                assert diag.severity == by_id[rule_id].severity


@functools.cache
def _design_seeds() -> tuple[m.RegisterDocument, ...]:
    """``random_register`` seeds 0..199 at phase design or later."""
    docs = (random_register(random.Random(seed)) for seed in range(200))
    return tuple(doc for doc in docs if m.phase_at_least(doc.phase, m.Phase.DESIGN))


class TestAttestedRulesOnRandomRegisters:
    # random_register signs only VBE-C08 and VBE-C19, so these three fire on
    # every design-phase seed; the signer that silences each, and consent.
    SIGNERS = {"VBE-C09": (m.SignatoryRole.STAKEHOLDER_REP, False),
               "VBE-C11": (m.SignatoryRole.EXECUTIVE, False),
               "VBE-C12": (m.SignatoryRole.STAKEHOLDER_REP, True)}

    @pytest.mark.parametrize("rule_id", sorted(SIGNERS))
    def test_only_the_demanded_signer_silences_the_rule(self, rule_id):
        role, consent = self.SIGNERS[rule_id]

        def fired(doc, role, consent):
            signed = replace(doc, attestations=(*doc.attestations, m.Attestation(
                id="A_signed", subject=m.AttestationSubject(m.SubjectKind.RULE, rule_id),
                signatory_name="Jane Doe", signatory_role=role, date="2020-04-01",
                consent=consent)))
            assert m.validate_register(signed) == ()
            return [d.subject for d in rules.check_rule(signed, rule_id)]

        assert len(_design_seeds()) > 50
        for doc in _design_seeds():
            assert [d.subject for d in rules.check_rule(doc, rule_id)] == ["register"]
            assert fired(doc, role, consent) == []
            for other in m.SignatoryRole:
                if other is not role:
                    assert fired(doc, other, consent) == ["register"], other
            if consent:
                assert fired(doc, role, False) == ["register"]


class TestPhaseGating:
    def test_design_rules_stay_quiet_in_exploration(self):
        doc = base_doc(m.Phase.EXPLORATION,
                       core_values=(m.CoreValue(id=1, name="privacy", priority_rank=1),))
        fired = {d.rule_id for d in rules.run_rules(doc)}
        # Completeness rules about the design output do not fire yet.
        assert "VBE-R07" not in fired
        assert "VBE-R11" not in fired
        assert "VBE-C14a" not in fired

    def test_gated_rule_fires_at_its_phase(self):
        doc = base_doc(m.Phase.DESIGN,
                       core_values=(m.CoreValue(id=1, name="privacy", priority_rank=1),))
        fired = {d.rule_id for d in rules.run_rules(doc)}
        assert "VBE-R07" in fired
        assert "VBE-C14a" in fired
