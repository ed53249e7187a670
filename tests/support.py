"""Shared builders for the test suite.

Eight things live here: a seeded generator of structurally valid registers
used by the bulk round-trip and monotonicity runs, the table of
violation/repair document pairs behind the monotone-repair checks, scanning
oracles for the indexed analysis layer, the parse fuzz soup and the digest
that parse differentials compare, ``tier``, which holds every block kind
to one of the parser's two tiers, the reference lexer that the
master-regex lexer is checked against (with the parser's lexemes put in its
shape), a strict reader of the interchange
export, and the inverse of a register diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import sys
import types
import typing
from dataclasses import astuple, fields, is_dataclass, replace
from enum import Enum

from evrforge import dsl, trace
from evrforge import model as m
from evrforge.dsl import ParseDiagnostic, SourceSpan

ALL_LENSES = (
    m.Lens(m.LensKind.UTILITARIAN),
    m.Lens(m.LensKind.VIRTUE),
    m.Lens(m.LensKind.DUTY),
)

_WORDS = ["care", "data", "trust", "video", "doctor", "patient", "referral",
          "consent", "cloud", "rating", "記録", "prüfen"]
_SPECIAL = ['"', "\\", "'", "#", ":", "->"]
_VALUE_POOL = ["privacy", "equality", "trust", "health", "efficiency",
               "honesty", "respect"]
_ALIAS_POOL = ["anonymity", "fairness", "candor"]


def _line(rng: random.Random, max_words: int = 4) -> str:
    parts = [rng.choice(_WORDS) for _ in range(rng.randint(1, max_words))]
    if rng.random() < 0.3:
        parts.append(rng.choice(_SPECIAL))
    return " ".join(parts)


def _prose(rng: random.Random, max_lines: int = 3) -> str:
    return "\n".join(_line(rng) for _ in range(rng.randint(0, max_lines)))


def _date(rng: random.Random) -> str:
    return f"20{rng.randint(19, 26)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


def random_register(rng: random.Random) -> m.RegisterDocument:
    """One structurally valid register with phase-appropriate content."""
    phase = rng.choice(list(m.Phase))
    level = m.PHASE_ORDER[phase]

    regions = [f"R{i}" for i in range(rng.randint(0, 2))]
    conop = _prose(rng)
    if level >= 1 and not conop:
        conop = "operates a remote advice service"

    stakeholders = [
        m.Stakeholder(
            id=f"ST{i}",
            name=_line(rng),
            kind=rng.choice(list(m.StakeholderKind)),
            description=_prose(rng, 2),
            region=rng.choice([""] + regions) if regions else "",
            selection_profile=(
                m.SelectionProfile(motivation=_line(rng), power=_line(rng))
                if rng.random() < 0.2 else None
            ),
        )
        for i in range(rng.randint(0, 3))
    ]
    holder_ids = [s.id for s in stakeholders]

    sos = [
        m.SosElement(
            id=f"S{i}", name=_line(rng),
            cooperation_type=rng.choice(list(m.CooperationType)),
            tier=rng.randint(1, 3),
            processes_personal_data=rng.random() < 0.5,
            in_ethical_scope=rng.random() < 0.5,
            access_to_enabling_elements=rng.random() < 0.5,
        )
        for i in range(rng.randint(0, 2))
    ]

    contexts = []
    for i in range(rng.randint(0, 2)):
        elements = [_line(rng, 2) for _ in range(rng.randint(0, 2))]
        dtypes = [_line(rng, 2) for _ in range(rng.randint(0, 1))]
        flows = []
        if elements and dtypes and rng.random() < 0.7:
            flows.append(m.DataFlow(source=rng.choice(elements),
                                    sink=rng.choice(elements),
                                    data_type=dtypes[0]))
        subjects = []
        if holder_ids and rng.random() < 0.5:
            subjects.append(rng.choice(holder_ids))
        if rng.random() < 0.3:
            subjects.append(_line(rng, 2))
        stage = m.CaptureStage.PRE_DESIGN
        if level >= 3 and rng.random() < 0.3:
            stage = m.CaptureStage.POST_DEPLOYMENT
        contexts.append(m.ContextOfUse(
            id=f"CTX{i}", name=_line(rng), captured=stage,
            data_elements=tuple(elements), data_flows=tuple(flows),
            data_subjects=tuple(subjects), data_types=tuple(dtypes),
            integrity_expectations=tuple(_line(rng) for _ in range(rng.randint(0, 2))),
        ))

    alias_map: dict[str, str] = {}
    for name in rng.sample(_ALIAS_POOL, rng.randint(0, 2)):
        alias_map[name] = rng.choice(_VALUE_POOL)

    sessions: list[m.ElicitationSession] = []
    statements: list[m.ValueStatement] = []
    core_values: list[m.CoreValue] = []
    qualities: list[m.ValueQuality] = []
    evrs: list[m.Evr] = []
    threats: list[m.Threat] = []
    controls: list[m.Control] = []
    dispositions: list[m.ValueDisposition] = []
    funcreqs: list[m.FunctionalRequirement] = []
    concepts: list[m.DesignConcept] = []
    personas: list[m.Persona] = []
    attestations: list[m.Attestation] = []
    feedback: list[m.FeedbackEntry] = []
    mission = None
    decision = None

    if level >= 1:
        for i in range(rng.randint(0, 2)):
            lenses = list(rng.sample(ALL_LENSES, rng.randint(0, 3)))
            if rng.random() < 0.3:
                lenses.append(m.Lens(m.LensKind.CULTURAL, framework=_line(rng, 2)))
            sessions.append(m.ElicitationSession(
                id=f"SES{i}", date=_date(rng) if rng.random() < 0.8 else "",
                participants=tuple(rng.sample(holder_ids,
                                              rng.randint(0, len(holder_ids)))),
                lenses_used=tuple(lenses),
            ))
        if sessions and holder_ids:
            for i in range(rng.randint(0, 4)):
                statements.append(m.ValueStatement(
                    id=f"V{i}",
                    session=rng.choice(sessions).id,
                    stakeholder=rng.choice(holder_ids),
                    lens=rng.choice(ALL_LENSES),
                    text=_prose(rng, 2),
                    polarity=rng.choice(list(m.Polarity)),
                    named_values=tuple(rng.sample(_VALUE_POOL, rng.randint(0, 2))),
                    extracted_values=tuple(rng.sample(_VALUE_POOL, rng.randint(0, 1))),
                ))

        n_values = rng.randint(0, 3)
        ranks = list(range(1, n_values + 1))
        rng.shuffle(ranks)
        for i in range(n_values):
            scores = None
            if rng.random() < 0.6:
                scores = m.HierarchyScores(*(rng.randint(1, 5) for _ in range(5)))
            core_values.append(m.CoreValue(
                id=i + 1, name=rng.choice(_VALUE_POOL), priority_rank=ranks[i],
                aliases=tuple(
                    a for a in rng.sample(_ALIAS_POOL, rng.randint(0, 1))
                ),
                intrinsic=rng.random() < 0.8,
                hierarchy_scores=scores,
                supporting_statements=tuple(
                    s.id for s in rng.sample(statements,
                                             rng.randint(0, min(2, len(statements))))
                ),
            ))
            for minor in range(1, rng.randint(0, 2) + 1):
                source = rng.choice([m.QualitySource.STAKEHOLDER,
                                     m.QualitySource.CONCEPTUAL_INVESTIGATION])
                if level >= 3 and rng.random() < 0.2:
                    source = m.QualitySource.POST_DEPLOYMENT
                qualities.append(m.ValueQuality(
                    id=f"{i + 1}.{minor}", core_value=i + 1, name=_line(rng),
                    direction=rng.choice(list(m.QualityDirection)), source=source,
                ))

        for quality in qualities:
            for k in range(1, rng.randint(0, 2) + 1):
                risk = rng.choice([m.RiskPath.UNCLASSIFIED, m.RiskPath.LOW,
                                   m.RiskPath.HIGH])
                demand = None
                if risk is m.RiskPath.HIGH:
                    demand = m.ProtectionDemand(level=rng.randint(1, 4),
                                                rationale=_line(rng))
                threshold = None
                if rng.random() < 0.5:
                    threshold = m.Threshold(
                        metric=_line(rng, 2),
                        comparator=rng.choice(m.THRESHOLD_COMPARATORS),
                        level=_line(rng, 1), rationale=_line(rng, 2),
                    )
                evrs.append(m.Evr(
                    id=f"{quality.id}.{k}", quality=quality.id, text=_line(rng),
                    kind=rng.choice(list(m.EvrKind)), threshold=threshold,
                    risk_path=risk,
                    legal_instruments=tuple(_line(rng, 1)
                                            for _ in range(rng.randint(0, 1))),
                    harm_flags=m.HarmFlags(life=rng.random() < 0.2,
                                           health=rng.random() < 0.3,
                                           legal_breach=rng.random() < 0.2),
                    harm_likelihood=rng.choice(list(m.HarmLikelihood)),
                    protection_demand=demand,
                ))

        has_mission = rng.random() < 0.5
        has_decision = rng.random() < 0.5
        verdict = rng.choice(list(m.Verdict)) if has_decision else None

        n_att = rng.randint(0, 3)
        subject_choices: list[m.AttestationSubject] = [
            m.AttestationSubject(m.SubjectKind.RULE, "VBE-C08"),
            m.AttestationSubject(m.SubjectKind.RULE, "VBE-C19"),
        ]
        if core_values:
            subject_choices.append(m.AttestationSubject(
                m.SubjectKind.PRIORITY_DECISION, str(rng.choice(core_values).id)))
        if has_mission:
            subject_choices.append(m.AttestationSubject(m.SubjectKind.MISSION))
        if has_decision:
            subject_choices.append(m.AttestationSubject(m.SubjectKind.INVESTMENT_DECISION))
        for i in range(n_att):
            attestations.append(m.Attestation(
                id=f"A{i}", subject=rng.choice(subject_choices),
                signatory_name=_line(rng, 2),
                signatory_role=rng.choice(list(m.SignatoryRole)),
                date=_date(rng), statement=_prose(rng, 2),
                consent=rng.random() < 0.5,
            ))
        if has_decision and verdict is m.Verdict.NO_GO:
            attestations.append(m.Attestation(
                id=f"A{n_att}",
                subject=m.AttestationSubject(m.SubjectKind.INVESTMENT_DECISION),
                signatory_name=_line(rng, 2),
                signatory_role=m.SignatoryRole.EXECUTIVE,
                date=_date(rng), statement="", consent=True,
            ))

        if has_mission:
            by_rank = sorted(core_values, key=lambda c: c.priority_rank)
            featured = tuple(c.id for c in by_rank[:rng.randint(0, len(by_rank))])
            mission = m.ValueMission(
                text=_prose(rng, 2), featured=featured,
                signed_by=tuple(a.id for a in rng.sample(
                    attestations, rng.randint(0, min(1, len(attestations))))),
            )
        if has_decision:
            if verdict is m.Verdict.NO_GO:
                decision = m.InvestmentDecision(
                    verdict=verdict, rationale=_line(rng),
                    attestations=(attestations[-1].id,),
                )
            else:
                decision = m.InvestmentDecision(verdict=verdict,
                                                rationale=_prose(rng, 1))

    if level >= 2:
        for evr in evrs:
            for j in range(1, rng.randint(0, 2) + 1):
                threats.append(m.Threat(
                    id=f"{evr.id}-T{j}", evr=evr.id,
                    description=_prose(rng, 2),
                    realistic=rng.random() < 0.7,
                ))
        threats_by_evr: dict[str, list[m.Threat]] = {}
        for threat in threats:
            threats_by_evr.setdefault(threat.evr, []).append(threat)
        for evr_id, own in threats_by_evr.items():
            for j in range(1, rng.randint(0, 2) + 1):
                chosen = rng.sample(own, rng.randint(1, len(own)))
                controls.append(m.Control(
                    id=f"{evr_id}-C{j}",
                    threats=tuple(t.id for t in chosen),
                    form=rng.choice(list(m.ControlForm)),
                    description=_prose(rng, 2),
                    rigor=rng.randint(1, 4),
                    status=rng.choice([m.ControlStatus.PROPOSED,
                                       m.ControlStatus.ACCEPTED]),
                ))
        if controls:
            for i in range(rng.randint(0, 2)):
                dispositions.append(m.ValueDisposition(
                    id=f"D{i}", soi_component=_line(rng, 2),
                    implements=tuple(c.id for c in rng.sample(
                        controls, rng.randint(1, min(2, len(controls))))),
                    description=_prose(rng, 2),
                ))
        if dispositions:
            controls = [
                replace(c, status=m.ControlStatus.IMPLEMENTED,
                        implementing_disposition=rng.choice(dispositions).id)
                if rng.random() < 0.3 else c
                for c in controls
            ]

        funcreqs = [m.FunctionalRequirement(id=f"F{i}", text=_prose(rng, 2))
                    for i in range(rng.randint(0, 2))]
        if rng.random() < 0.5:
            ethical_pool = [e.id for e in evrs] + [c.id for c in controls]
            concepts.append(m.DesignConcept(
                id="DC0", name=_line(rng),
                ethical_refs=tuple(rng.sample(ethical_pool,
                                              rng.randint(0, min(2, len(ethical_pool))))),
                functional_refs=tuple(f.id for f in rng.sample(
                    funcreqs, rng.randint(0, len(funcreqs)))),
            ))
        if holder_ids:
            holders = {s.id: s for s in stakeholders}
            for i in range(rng.randint(0, 2)):
                ref = rng.choice(holder_ids)
                personas.append(m.Persona(
                    id=f"P{i}", name=_line(rng), stakeholder=ref,
                    kind=holders[ref].kind, narrative=_prose(rng, 2),
                ))
        for i in range(rng.randint(0, 2)):
            source = m.MARKET_SOURCE
            if holder_ids and rng.random() < 0.6:
                source = rng.choice(holder_ids)
            resulted_pool = [s.id for s in statements] + [q.id for q in qualities]
            feedback.append(m.FeedbackEntry(
                id=f"FB{i}", source=source,
                date=_date(rng) if rng.random() < 0.8 else "",
                text=_prose(rng, 2),
                resulted=tuple(rng.sample(resulted_pool,
                                          rng.randint(0, min(2, len(resulted_pool))))),
                reprioritization_required=rng.random() < 0.2,
            ))

    doc = m.RegisterDocument(
        project=m.ProjectMeta(name=_line(rng, 2),
                              version=_line(rng, 1) if rng.random() < 0.3 else ""),
        phase=phase,
        soi=m.Soi(name=_line(rng, 2), concept_of_operation=conop,
                  deployment_regions=tuple(regions)),
        sos_elements=tuple(sos),
        stakeholders=tuple(stakeholders),
        contexts=tuple(contexts),
        sessions=tuple(sessions),
        statements=tuple(statements),
        core_values=tuple(core_values),
        qualities=tuple(qualities),
        evrs=tuple(evrs),
        threats=tuple(threats),
        controls=tuple(controls),
        dispositions=tuple(dispositions),
        functional_requirements=tuple(funcreqs),
        design_concepts=tuple(concepts),
        personas=tuple(personas),
        attestations=tuple(attestations),
        mission=mission,
        investment_decision=decision,
        feedback=tuple(feedback),
        alias_map=alias_map,
    )
    violations = m.validate_register(doc)
    assert not violations, f"generator produced an invalid register: {violations[:3]}"
    return doc


# ---------------------------------------------------------------------------
# Violation / repair pairs, one per rule.

def base_doc(phase: m.Phase, **overrides) -> m.RegisterDocument:
    conop = "" if phase is m.Phase.CONCEPT else "runs a remote advice help desk"
    return m.RegisterDocument(
        project=m.ProjectMeta(name="TM"),
        phase=phase,
        soi=m.Soi(name="TM", concept_of_operation=conop),
        **overrides,
    )


def _stakeholder(i: int, kind=m.StakeholderKind.DIRECT, region="") -> m.Stakeholder:
    return m.Stakeholder(id=f"ST{i}", name=f"group {i}", kind=kind, region=region)


def _session(lenses=ALL_LENSES) -> m.ElicitationSession:
    return m.ElicitationSession(id="SES1", date="2020-02-18", lenses_used=tuple(lenses))


def _cv(i: int = 1, rank: int | None = None) -> m.CoreValue:
    return m.CoreValue(id=i, name=f"value {i}", priority_rank=rank or i)


def _quality(qid="1.1", cv=1, direction=m.QualityDirection.SUPPORTS,
             source=m.QualitySource.CONCEPTUAL_INVESTIGATION) -> m.ValueQuality:
    return m.ValueQuality(id=qid, core_value=cv, name=f"quality {qid}",
                          direction=direction, source=source)


def _evr(eid="1.1.1", quality="1.1", **kw) -> m.Evr:
    return m.Evr(id=eid, quality=quality, text=f"requirement {eid}", **kw)


def _high_evr(eid="1.1.1", quality="1.1", **kw) -> m.Evr:
    return _evr(eid, quality, risk_path=m.RiskPath.HIGH,
                legal_instruments=("data protection law",),
                protection_demand=m.ProtectionDemand(3, "breach exposes data"), **kw)


def _threshold() -> m.Threshold:
    return m.Threshold(metric="coverage", comparator=">=", level="95 percent",
                       rationale="audited")


def _attestation(aid: str, subject: m.AttestationSubject,
                 role=m.SignatoryRole.EXECUTIVE, consent=False) -> m.Attestation:
    return m.Attestation(id=aid, subject=subject, signatory_name="Jane Doe",
                         signatory_role=role, date="2020-04-01", consent=consent)


def _rule_attestation(rule_id: str, role=m.SignatoryRole.EXECUTIVE,
                      consent=False) -> m.Attestation:
    return _attestation(f"A_{rule_id[-3:]}",
                        m.AttestationSubject(m.SubjectKind.RULE, rule_id),
                        role=role, consent=consent)


def violation_cases() -> dict[str, tuple[m.RegisterDocument, m.RegisterDocument, str]]:
    """rule id -> (violating doc, minimally repaired doc, expected subject)."""
    cases: dict[str, tuple[m.RegisterDocument, m.RegisterDocument, str]] = {}

    sos_bad = m.SosElement(id="S1", name="cloud",
                           cooperation_type=m.CooperationType.ACKNOWLEDGED,
                           processes_personal_data=True, in_ethical_scope=False,
                           access_to_enabling_elements=True)
    bad = base_doc(m.Phase.EXPLORATION, sos_elements=(sos_bad,))
    good = replace(bad, sos_elements=(replace(sos_bad, in_ethical_scope=True),))
    cases["VBE-R01"] = (bad, good, "S1")

    bad = base_doc(m.Phase.EXPLORATION, stakeholders=(_stakeholder(1),))
    good = replace(bad, stakeholders=(
        _stakeholder(1), _stakeholder(2, m.StakeholderKind.INDIRECT)))
    cases["VBE-R02"] = (bad, good, "register")

    ctx = m.ContextOfUse(id="CTX1", name="use", captured=m.CaptureStage.PRE_DESIGN,
                         integrity_expectations=("consent",))
    bad = base_doc(m.Phase.EXPLORATION)
    cases["VBE-R03"] = (bad, replace(bad, contexts=(ctx,)), "register")

    bad = base_doc(m.Phase.EXPLORATION,
                   sessions=(_session(lenses=ALL_LENSES[:2]),))
    cases["VBE-R05a"] = (bad, replace(bad, sessions=(_session(),)), "SES1")

    bad = base_doc(m.Phase.EXPLORATION, sessions=(_session(),))
    bad = replace(bad, soi=replace(bad.soi, deployment_regions=("AT",)))
    cultural = _session(lenses=ALL_LENSES + (m.Lens(m.LensKind.CULTURAL, "local tradition"),))
    cases["VBE-R05b"] = (bad, replace(bad, sessions=(cultural,)), "register")

    statement = m.ValueStatement(id="V1", session="SES1", stakeholder="ST1",
                                 lens=ALL_LENSES[0], text="a concern")
    bad = base_doc(m.Phase.EXPLORATION, stakeholders=(_stakeholder(1),),
                   sessions=(_session(),), statements=(statement,))
    good = replace(bad, statements=(replace(statement, named_values=("privacy",)),))
    cases["VBE-R06"] = (bad, good, "V1")

    bad = base_doc(m.Phase.DESIGN, core_values=(_cv(1),))
    good = replace(bad, attestations=(
        _attestation("A1", m.AttestationSubject(m.SubjectKind.PRIORITY_DECISION, "1")),))
    cases["VBE-R07"] = (bad, good, "1")

    bad = base_doc(m.Phase.DEPLOYMENT)
    entry = m.FeedbackEntry(id="FB1", source=m.MARKET_SOURCE, date="2021-01-15",
                            text="observed misuse")
    cases["VBE-R08"] = (bad, replace(bad, feedback=(entry,)), "register")

    bad = base_doc(
        m.Phase.DESIGN,
        core_values=(_cv(1, rank=1), _cv(2, rank=2)),
        qualities=(_quality("2.1", cv=2),),
        evrs=(_high_evr("2.1.1", "2.1"),),
    )
    good = replace(bad, attestations=(
        _attestation("A1", m.AttestationSubject(m.SubjectKind.PRIORITY_DECISION, "2"),
                     role=m.SignatoryRole.VALUE_EXPERT),))
    cases["VBE-R09"] = (bad, good, "2")

    bad = base_doc(m.Phase.DESIGN)
    good = replace(
        bad,
        attestations=(_attestation(
            "A1", m.AttestationSubject(m.SubjectKind.INVESTMENT_DECISION)),),
        investment_decision=m.InvestmentDecision(
            verdict=m.Verdict.GO, rationale="worth building",
            attestations=("A1",)),
    )
    cases["VBE-R10"] = (bad, good, "register")

    bad = base_doc(m.Phase.DESIGN, core_values=(_cv(1),),
                   qualities=(_quality(source=m.QualitySource.STAKEHOLDER),),
                   evrs=(_evr(risk_path=m.RiskPath.LOW),))
    good = replace(bad, qualities=(_quality(),))
    cases["VBE-R11"] = (bad, good, "1")

    bad = base_doc(m.Phase.DESIGN, core_values=(_cv(1),), qualities=(_quality(),))
    good = replace(bad, evrs=(_evr(risk_path=m.RiskPath.LOW),))
    cases["VBE-R12"] = (bad, good, "1.1")

    misclassified = _evr(risk_path=m.RiskPath.LOW,
                         harm_flags=m.HarmFlags(health=True),
                         harm_likelihood=m.HarmLikelihood.REASONABLY_LIKELY)
    bad = base_doc(m.Phase.DESIGN, core_values=(_cv(1),), qualities=(_quality(),),
                   evrs=(misclassified,))
    good = replace(bad, evrs=(replace(
        misclassified, risk_path=m.RiskPath.HIGH,
        protection_demand=m.ProtectionDemand(3, "harm to health is likely")),))
    cases["VBE-R13"] = (bad, good, "1.1.1")

    chain = dict(core_values=(_cv(1),), qualities=(_quality(),),
                 evrs=(_evr(risk_path=m.RiskPath.LOW),),
                 functional_requirements=(m.FunctionalRequirement(id="F1", text="search"),))
    bad = base_doc(m.Phase.DESIGN, **chain)
    good = replace(bad, design_concepts=(
        m.DesignConcept(id="DC1", name="baseline", ethical_refs=("1.1.1",),
                        functional_refs=("F1",)),))
    cases["VBE-R14"] = (bad, good, "register")

    plain = m.SosElement(id="S1", name="cdn", cooperation_type=m.CooperationType.VIRTUAL,
                         tier=1, in_ethical_scope=False)
    bad = base_doc(m.Phase.EXPLORATION, sos_elements=(plain,))
    good = replace(bad, sos_elements=(replace(plain, in_ethical_scope=True),))
    cases["VBE-C01"] = (bad, good, "S1")

    managed = m.SosElement(id="S1", name="cloud", tier=2,
                           cooperation_type=m.CooperationType.DIRECTED,
                           access_to_enabling_elements=False)
    bad = base_doc(m.Phase.EXPLORATION, sos_elements=(managed,))
    good = replace(bad, sos_elements=(
        replace(managed, access_to_enabling_elements=True),))
    cases["VBE-C02"] = (bad, good, "S1")

    bad = base_doc(m.Phase.EXPLORATION, stakeholders=(_stakeholder(1),))
    bad = replace(bad, soi=replace(bad.soi, deployment_regions=("AT",)))
    good = replace(bad, stakeholders=(_stakeholder(1, region="AT"),))
    cases["VBE-C03"] = (bad, good, "AT")

    bare_ctx = m.ContextOfUse(id="CTX1", name="use")
    bad = base_doc(m.Phase.EXPLORATION, contexts=(bare_ctx,))
    good = replace(bad, contexts=(
        replace(bare_ctx, integrity_expectations=("consent first",)),))
    cases["VBE-C04"] = (bad, good, "CTX1")

    bad = base_doc(m.Phase.DEPLOYMENT, contexts=(ctx,))
    good = replace(bad, contexts=(ctx, m.ContextOfUse(
        id="CTX2", name="field use", captured=m.CaptureStage.POST_DEPLOYMENT)))
    cases["VBE-C05"] = (bad, good, "register")

    bad = base_doc(m.Phase.EXPLORATION, sessions=(_session(),))
    cases["VBE-C06"] = (bad, replace(bad, contexts=(ctx,)), "register")

    risk_chain = dict(
        core_values=(_cv(1),), qualities=(_quality(),),
        evrs=(_evr(risk_path=m.RiskPath.LOW),),
        threats=(m.Threat(id="1.1.1-T1", evr="1.1.1", description="goes stale"),),
        controls=(m.Control(id="1.1.1-C1", threats=("1.1.1-T1",),
                            form=m.ControlForm.PROCEDURAL),),
    )
    bad = base_doc(m.Phase.DESIGN, **risk_chain)
    good = replace(bad, dispositions=(
        m.ValueDisposition(id="D1", soi_component="review process",
                           implements=("1.1.1-C1",)),))
    cases["VBE-C07"] = (bad, good, "register")

    bad = base_doc(m.Phase.EXPLORATION)
    good = replace(bad, attestations=(
        _rule_attestation("VBE-C08", role=m.SignatoryRole.VALUE_EXPERT),))
    cases["VBE-C08"] = (bad, good, "register")

    bad = base_doc(m.Phase.DESIGN)
    good = replace(bad, attestations=(
        _rule_attestation("VBE-C09", role=m.SignatoryRole.STAKEHOLDER_REP),))
    cases["VBE-C09"] = (bad, good, "register")

    bad = base_doc(m.Phase.DESIGN)
    good = replace(bad, attestations=(_rule_attestation("VBE-C11"),))
    cases["VBE-C11"] = (bad, good, "register")

    bad = base_doc(m.Phase.DESIGN)
    good = replace(bad, attestations=(
        _rule_attestation("VBE-C12", role=m.SignatoryRole.STAKEHOLDER_REP,
                          consent=True),))
    cases["VBE-C12"] = (bad, good, "register")

    bad = base_doc(m.Phase.DESIGN)
    good = replace(
        bad,
        attestations=(_attestation("A1", m.AttestationSubject(m.SubjectKind.MISSION)),),
        mission=m.ValueMission(text="we build for people", signed_by=("A1",)),
    )
    cases["VBE-C13"] = (bad, good, "register")

    bad = base_doc(m.Phase.DESIGN, core_values=(_cv(1),))
    good = replace(bad, qualities=(_quality(),),
                   evrs=(_evr(risk_path=m.RiskPath.LOW),))
    cases["VBE-C14a"] = (bad, good, "1")

    bad = base_doc(m.Phase.DESIGN, core_values=(_cv(1),), qualities=(_quality(),),
                   evrs=(_evr(risk_path=m.RiskPath.LOW),))
    good = replace(bad, evrs=(_evr(risk_path=m.RiskPath.LOW, threshold=_threshold()),))
    cases["VBE-C14b"] = (bad, good, "1.1.1")

    direct_persona = m.Persona(id="P1", name="a user", stakeholder="ST1",
                               kind=m.StakeholderKind.DIRECT)
    bad = base_doc(m.Phase.DESIGN, stakeholders=(_stakeholder(1),),
                   personas=(direct_persona,))
    good = replace(
        bad,
        stakeholders=(_stakeholder(1), _stakeholder(2, m.StakeholderKind.INDIRECT)),
        personas=(direct_persona,
                  m.Persona(id="P2", name="a neighbour", stakeholder="ST2",
                            kind=m.StakeholderKind.INDIRECT)),
    )
    cases["VBE-C15"] = (bad, good, "register")

    bad = base_doc(m.Phase.DESIGN, core_values=(_cv(1),), qualities=(_quality(),),
                   evrs=(_evr(risk_path=m.RiskPath.LOW),))
    good = replace(bad, threats=(
        m.Threat(id="1.1.1-T1", evr="1.1.1", description="could drift"),))
    cases["VBE-C16"] = (bad, good, "1.1.1")

    market_entry = m.FeedbackEntry(id="FB1", source=m.MARKET_SOURCE, text="press report")
    bad = base_doc(m.Phase.DESIGN, stakeholders=(_stakeholder(1),),
                   feedback=(market_entry,))
    good = replace(bad, feedback=(
        market_entry,
        m.FeedbackEntry(id="FB2", source="ST1", text="asked for clearer wording")))
    cases["VBE-C17"] = (bad, good, "register")

    sibling = _evr("1.1.2", "1.1")
    bad = base_doc(m.Phase.DESIGN, core_values=(_cv(1),), qualities=(_quality(),),
                   evrs=(_high_evr(), sibling))
    good = replace(bad, evrs=(_high_evr(), replace(sibling, risk_path=m.RiskPath.LOW)))
    cases["VBE-C18"] = (bad, good, "1.1.2")

    bad = base_doc(m.Phase.DEPLOYMENT)
    good = replace(bad, attestations=(
        _rule_attestation("VBE-C19", role=m.SignatoryRole.ENGINEER),))
    cases["VBE-C19"] = (bad, good, "register")

    accepted = m.Control(id="1.1.1-C1", threats=("1.1.1-T1",),
                         form=m.ControlForm.STRUCTURAL, rigor=3,
                         status=m.ControlStatus.ACCEPTED)
    bad = base_doc(
        m.Phase.DESIGN, core_values=(_cv(1),), qualities=(_quality(),),
        evrs=(_high_evr(),),
        threats=(m.Threat(id="1.1.1-T1", evr="1.1.1", description="breach"),),
        controls=(accepted,),
    )
    good = replace(bad, attestations=(
        _attestation("A1", m.AttestationSubject(m.SubjectKind.RISK_ACCEPTANCE, "1.1.1-C1"),
                     role=m.SignatoryRole.ENGINEER),))
    cases["VBE-C20"] = (bad, good, "1.1.1-C1")

    return cases


# ---------------------------------------------------------------------------
# Scanning oracles for the analysis layer: the attestation lookup, coverage
# table and value check as they were before the index grouped attestations by
# subject and listed threats and controls per EVR.  Differential tests compare
# the indexed code against these.

class ScanningIndex(m.DocIndex):
    """DocIndex whose attestation lookup scans every attestation."""

    def __init__(self, doc: m.RegisterDocument) -> None:
        super().__init__(doc)
        self._all_attestations = doc.attestations

    def attestations_for(self, kind: m.SubjectKind, ref: str = "") -> list[m.Attestation]:
        return [
            a
            for a in self._all_attestations
            if a.subject.kind is kind and a.subject.ref == ref
        ]


def with_scanning_index(doc: m.RegisterDocument) -> m.RegisterDocument:
    """An equal document whose cached index is a :class:`ScanningIndex`."""
    copy = replace(doc)
    copy.__dict__["index"] = ScanningIndex(copy)
    return copy


def oracle_value_addressed(idx: m.DocIndex, value_id: int) -> bool:
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


def oracle_maturity_score(doc: m.RegisterDocument) -> trace.MaturityScore:
    total = len(doc.core_values)
    if total == 0:
        return trace.MaturityScore(addressed=0, total=0, ratio=0.0, empty=True)
    idx = ScanningIndex(doc)
    addressed = sum(1 for cv in doc.core_values if oracle_value_addressed(idx, cv.id))
    return trace.MaturityScore(addressed=addressed, total=total,
                               ratio=addressed / total, empty=False)


def oracle_coverage_report(doc: m.RegisterDocument) -> tuple[trace.CoverageRow, ...]:
    idx = ScanningIndex(doc)
    rows = []
    for cv in sorted(doc.core_values, key=lambda c: c.priority_rank):
        evrs = idx.evrs_under_value(cv.id)
        evr_ids = {e.id for e in evrs}
        threats = [t for t in doc.threats if t.evr in evr_ids]
        controls = [c for c in doc.controls if m.control_parent(c.id) in evr_ids]
        attestations = len(idx.attestations_for(m.SubjectKind.PRIORITY_DECISION, str(cv.id)))
        attestations += sum(
            len(idx.attestations_for(m.SubjectKind.RISK_ACCEPTANCE, c.id))
            for c in controls
        )
        rows.append(trace.CoverageRow(
            core_value=cv.name,
            rank=cv.priority_rank,
            qualities=len(idx.qualities_by_value.get(cv.id, [])),
            evrs=len(evrs),
            thresholds=sum(1 for e in evrs if e.threshold is not None),
            threats=len(threats),
            controls=len(controls),
            attestations=attestations,
            addressed=oracle_value_addressed(idx, cv.id),
        ))
    return tuple(rows)


def unvalidated_analysis_doc() -> m.RegisterDocument:
    """A design-phase document that fails validation in the ways the index
    must tolerate: a duplicate EVR id, an orphan control whose EVR does not
    exist, a rule attestation with an empty ref, and a risk acceptance whose
    ref is a core value id."""
    risk = m.SubjectKind.RISK_ACCEPTANCE
    return base_doc(
        m.Phase.DESIGN,
        core_values=(_cv(1), _cv(2)),
        qualities=(_quality("1.1", 1), _quality("2.1", 2)),
        evrs=(_high_evr("1.1.1"), _evr("1.1.1"), _high_evr("2.1.1", "2.1")),
        threats=(m.Threat(id="1.1.1-T1", evr="1.1.1"),
                 m.Threat(id="2.1.1-T1", evr="2.1.1")),
        controls=(
            m.Control(id="1.1.1-C1", threats=("1.1.1-T1",), form=m.ControlForm.STRUCTURAL,
                      status=m.ControlStatus.ACCEPTED),
            m.Control(id="2.1.1-C1", threats=("2.1.1-T1",), form=m.ControlForm.STRUCTURAL,
                      status=m.ControlStatus.IMPLEMENTED),
            m.Control(id="9.9.9-C1", threats=("9.9.9-T1",), form=m.ControlForm.STRUCTURAL,
                      status=m.ControlStatus.ACCEPTED),
        ),
        attestations=(
            _attestation("A1", m.AttestationSubject(m.SubjectKind.PRIORITY_DECISION, "1")),
            _attestation("A2", m.AttestationSubject(risk, "1.1.1-C1"),
                         role=m.SignatoryRole.ENGINEER),
            _attestation("A3", m.AttestationSubject(risk, "1.1.1-C1")),
            _attestation("A4", m.AttestationSubject(risk, "9.9.9-C1"),
                         role=m.SignatoryRole.ENGINEER),
            _attestation("A5", m.AttestationSubject(m.SubjectKind.RULE, "")),
            _attestation("A6", m.AttestationSubject(risk, "2")),
        ),
    )


# ---------------------------------------------------------------------------
# Parse robustness: the seeded token soup that acceptance 9 and
# ``scripts/fuzz_parse.py`` feed the parser, and the contract each parse keeps.

FUZZ_PIECES = [
    "register", "phase", "end", "corevalue", "quality", "evr", "threat",
    "control", "stakeholder", "session", "statement", "mission", "alias",
    "of", "for", "rank", "direction", "supports", "undermines", "note",
    "kind", "lens", "true", "false", '"text"', '"unterminated', '""',
    "1", "42", "1.1", "1.1.1", "1.1.1-T1", "1.1.1-C1", "007", ",", "#c",
    "\\", '"a\\"b"', '"a\\qb"', "€", "日本語", "~", "xyz", "concept",
    "exploration", "@", "-", ".", '"', "direct",
]


def fuzz_source(rng: random.Random, pieces: list[str] = FUZZ_PIECES) -> str:
    """Up to 14 of ``pieces``, each followed by a blank or a line end."""
    out = []
    for _ in range(rng.randint(0, 14)):
        out.append(rng.choice(pieces))
        out.append(rng.choice([" ", " ", "\n", "\t", "  "]))
    return "".join(out)


def robustness_breach(text: str, result: dsl.ParseResult) -> str | None:
    """What ``result``, the parse of ``text``, breaks of the contract, or None:
    a document exactly when there are no errors, and every span's line and
    column inside ``text``."""
    if (result.document is not None) == bool(result.errors):
        return "contract breach"
    lines = text.split("\n")
    for d in result.diagnostics:
        if not 1 <= d.span.start_line <= max(1, len(lines)):
            return "line out of bounds"
        line = lines[d.span.start_line - 1] if d.span.start_line <= len(lines) else ""
        if not 1 <= d.span.start_col <= len(line) + 1:
            return "column out of bounds"
    return None


def parse_digest(result: dsl.ParseResult) -> str:
    """SHA-256 of all that ``result`` shows: each diagnostic rendered, with
    the line and column its span ends at, the header's span, and the
    document in canonical form (None without one)."""
    shown = [[(d.render(), d.span.end_line, d.span.end_col) for d in result.diagnostics],
             result.header and astuple(result.header),
             result.document and dsl.serialize_canonical(result.document)]
    return hashlib.sha256(json.dumps(shown).encode("ascii")).hexdigest()


@contextlib.contextmanager
def tier(level: int):
    """Every block kind read by the table (``level`` 0: its count reset, no
    compiled reader, and none compiled however many blocks it reads) or by
    its reader compiled now (1), inside the block; each kind's count and
    reader, and ``dsl._HOT``, are as they were after it."""
    blocks = list(dsl._BLOCKS.values())
    saved = [(block.seen, block.__dict__.get("parse")) for block in blocks]
    hot = dsl._HOT
    dsl._HOT = sys.maxsize
    for block in blocks:
        block.seen = 0
        block.__dict__.pop("parse", None)
        if level:
            block.parse = dsl._reader(block)
    try:
        yield
    finally:
        dsl._HOT = hot
        for block, (seen, parse) in zip(blocks, saved):
            block.seen = seen
            block.__dict__.pop("parse", None)
            if parse is not None:
                block.parse = parse


# ---------------------------------------------------------------------------
# Reference lexer: the character loop that the master-regex lexer replaced,
# kept so a differential test and ``scripts/fuzz_parse.py`` can compare the two.

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")


def reference_lex(source: str, file: str) -> tuple[list[tuple], list[ParseDiagnostic]]:
    """The character-by-character lexer that the master-regex lexer replaced,
    its tokens as ``(kind, text, value, line, col, end_col)``."""
    tokens: list[tuple] = []
    diags: list[ParseDiagnostic] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def point(length: int = 1) -> SourceSpan:
        return SourceSpan(file, line, col, line, col + max(length - 1, 0))

    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        if ch == ",":
            tokens.append(("COMMA", ",", ",", line, col, col + 1))
            i += 1
            col += 1
            continue
        if ch == '"':
            start_col = col
            i += 1
            col += 1
            buf: list[str] = []
            closed = False
            while i < n:
                c = source[i]
                if c == "\n":
                    break
                if c == '"':
                    i += 1
                    col += 1
                    closed = True
                    break
                if c == "\\":
                    if i + 1 < n and source[i + 1] in ('"', "\\"):
                        buf.append(source[i + 1])
                        i += 2
                        col += 2
                        continue
                    diags.append(ParseDiagnostic(
                        SourceSpan(file, line, col, line, col),
                        "error", "P003",
                        "unsupported escape sequence; only \\\" and \\\\ are recognized",
                    ))
                    buf.append(c)
                    i += 1
                    col += 1
                    continue
                buf.append(c)
                i += 1
                col += 1
            if not closed:
                diags.append(ParseDiagnostic(
                    SourceSpan(file, line, start_col, line, max(start_col, col - 1)),
                    "error", "P002", "unterminated string",
                ))
            tokens.append(("STRING", source[i - (col - start_col):i], "".join(buf),
                           line, start_col, col))
            continue
        if ch in _DIGITS:
            start_col = col
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            dotted = False
            while j < n and source[j] == "." and j + 1 < n and source[j + 1] in _DIGITS:
                dotted = True
                j += 1
                while j < n and source[j] in _DIGITS:
                    j += 1
            if dotted and j + 2 < n and source[j] == "-" and source[j + 1] in "TC" and source[j + 2] in _DIGITS:
                j += 2
                while j < n and source[j] in _DIGITS:
                    j += 1
            text = source[i:j]
            col += len(text)
            i = j
            tokens.append(("DOTTED" if dotted else "INT", text, text,
                           line, start_col, col))
            continue
        if ch in _IDENT_START:
            start_col = col
            j = i
            while j < n and source[j] in _IDENT_CONT:
                j += 1
            text = source[i:j]
            col += len(text)
            i = j
            tokens.append(("IDENT", text, text, line, start_col, col))
            continue
        diags.append(ParseDiagnostic(point(), "error", "P004",
                                     f"illegal character {ch!r}"))
        i += 1
        col += 1

    tokens.append(("EOF", "", "", line, col, col))
    return tokens, diags


def lexed(source: str, file: str) -> tuple[list[tuple], list[ParseDiagnostic]]:
    """What the parser reads of ``source``, in the reference lexer's shape:
    each lexeme it pulls, its kind told by its first character, its value
    by ``dsl._sval``, and its text and place by the sweep that locates the
    lexeme's ordinal; and the lexer's problems as ``placed`` gives them."""
    parser = dsl._Parser(source, file)
    pulled = [(parser.here(), parser.tok)]
    while parser.tok:
        parser.advance()
        pulled.append((parser.here(), parser.tok))
    swept = dsl._swept(source, {ordinal for ordinal, _ in pulled})
    locate = dsl._locator(source, file)
    tokens = []
    for ordinal, lexeme in pulled:
        start, end, text = swept[ordinal]
        span = locate(start, end)
        kind = ("EOF" if not lexeme else "STRING" if lexeme[0] == '"' else "COMMA" if lexeme == ","
                else "IDENT" if lexeme[0] in _IDENT_START else "DOTTED" if "." in lexeme else "INT")
        tokens.append((kind, text, dsl._sval(lexeme) if kind == "STRING" else lexeme,
                       span.start_line, span.start_col, span.start_col + end - start))
    return tokens, list(parser.placed()[0])


def by_place(diags: list[ParseDiagnostic]) -> list[ParseDiagnostic]:
    """``diags`` in the order ``parse_register`` gives diagnostics."""
    return sorted(diags, key=lambda d: (d.span.start_line, d.span.start_col, d.code, d.message))


# ---------------------------------------------------------------------------
# Interchange reader: the oracle that the export is loss-free.  It is driven
# by the model's type hints and knows only the format's two renames, so a
# key the export moves, drops or retypes fails here rather than passing
# through a shared table.

def import_interchange(text: str) -> m.RegisterDocument:
    """The document an interchange export describes; raises on any key or
    value the model does not declare."""
    return _decode(m.RegisterDocument, json.loads(text))


def _decode(hint, data):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return None if data is None else _decode(args[0], data)
    if origin is tuple:
        return tuple(_decode(args[0], item) for item in _expect(data, list))
    if origin is dict:
        return {_expect(k, str): _expect(v, str) for k, v in _expect(data, dict).items()}
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint(_expect(data, str))
    if is_dataclass(hint):
        data = dict(_expect(data, dict))
        if data.keys() & {"lenses_used", "signatory_name", "signatory_role"}:
            raise ValueError(f"{hint.__name__} holds a field under its model name, not its key")
        if "lenses" in data:
            data["lenses_used"] = data.pop("lenses")
        for key, value in _expect(data.pop("signatory", {}), dict).items():
            data[f"signatory_{key}"] = value
        hints = typing.get_type_hints(hint)
        if data.keys() != hints.keys():
            raise ValueError(f"{hint.__name__} keys {sorted(data)} are not its fields {sorted(hints)}")
        return hint(**{name: _decode(hints[name], value) for name, value in data.items()})
    return _expect(data, hint)


def _expect(value, kind: type):
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, found {value!r}")
    return value


# ---------------------------------------------------------------------------
# Diff inverse: the oracle that ``trace.diff_registers`` captures every
# difference.

def apply_inverse(new: m.RegisterDocument, changes: trace.ChangeSet,
                  old: m.RegisterDocument) -> m.RegisterDocument:
    """Rebuild the old document from the new one, steered by the changeset.

    Entities the changeset does not mention are taken from ``new``
    unchanged, so an incomplete diff produces a visibly wrong result.
    """
    kwargs: dict = {}
    for kind in m.ENTITY_KINDS:
        old_entities = {str(e.id): e for e in getattr(old, kind)}
        rebuilt = [
            e for e in getattr(new, kind)
            if str(e.id) not in changes.added[kind]
        ]
        rebuilt = [
            old_entities[str(e.id)] if str(e.id) in changes.modified[kind] else e
            for e in rebuilt
        ]
        order = {str(e.id): i for i, e in enumerate(getattr(old, kind))}
        rebuilt.extend(old_entities[i] for i in changes.removed[kind])
        rebuilt.sort(key=lambda e: order[str(e.id)])
        kwargs[kind] = tuple(rebuilt)

    register_changes = set(changes.modified.get("register", ()))
    kwargs["project"] = old.project if "project" in register_changes else new.project
    kwargs["phase"] = old.phase if "project" in register_changes else new.phase
    kwargs["soi"] = old.soi if "soi" in register_changes else new.soi
    kwargs["mission"] = old.mission if "mission" in register_changes else new.mission
    kwargs["investment_decision"] = (
        old.investment_decision if "investment_decision" in register_changes
        else new.investment_decision
    )
    kwargs["alias_map"] = (
        dict(old.alias_map) if "alias_map" in register_changes else dict(new.alias_map)
    )
    uncovered = {f.name for f in fields(m.RegisterDocument)} ^ set(kwargs)
    if uncovered:
        raise RuntimeError(f"apply_inverse does not match the document fields {sorted(uncovered)}")
    return m.RegisterDocument(**kwargs)
