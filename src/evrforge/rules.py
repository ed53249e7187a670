"""Conformance rule catalog and evaluation engine.

The catalog holds 34 rules: 14 hard process requirements (severity
``error``) and 20 recommendations (severity ``warning``).  Structural rules
are decided from the document content alone.  Attested rules are decided by
the presence of a signed attestation with the demanded subject and
signatory role; the tool never judges what the signed statement says, only
that a named person signed it.

Rules are phase-gated: a rule participates only once the register has
reached the rule's phase, so an early-phase register is not flooded with
complaints about artifacts it cannot have yet.
"""

from __future__ import annotations

from typing import Callable

from . import analytics
from . import model as m
from .model import record


@record
class Rule:
    """One catalog entry: what it demands and why, and the phase it starts at."""

    rule_id: str
    severity: str  # "error" or "warning"
    mode: str  # "structural" or "attested"
    title: str
    anchor: str
    predicate: str
    phase: m.Phase


@record
class Diagnostic:
    """One rule finding on one subject."""

    rule_id: str
    severity: str
    subject: str
    message: str
    # Populated only when a caller maps subjects back to source positions;
    # rule evaluation itself works on documents, not text.
    span: object | None = None

    def render(self) -> str:
        return f"{self.severity.upper()} {self.rule_id} {self.subject}: {self.message}"


Finding = tuple[str, str]  # (subject, message)
CheckFn = Callable[[m.RegisterDocument, m.DocIndex], list[Finding]]

_RULES: list[Rule] = []
_CHECKS: dict[str, CheckFn] = {}


def _rule(rule_id: str, severity: str, mode: str, title: str, anchor: str,
          predicate: str, phase: m.Phase):
    def register(fn: CheckFn) -> CheckFn:
        _RULES.append(Rule(rule_id=rule_id, severity=severity, mode=mode,
                           title=title, anchor=anchor, predicate=predicate,
                           phase=phase))
        _CHECKS[rule_id] = fn
        return fn
    return register


def _signed(idx: m.DocIndex, kind: m.SubjectKind, ref: str,
            role: m.SignatoryRole | None = None, consent: bool = False) -> bool:
    """Whether an attestation on (kind, ref) is signed, by ``role`` if given."""
    return any((role is None or a.signatory_role is role) and (a.consent or not consent)
               for a in idx._attestations_by_subject.get((kind, ref), ()))


def _attested(rule_id: str, role: m.SignatoryRole | None, gap: str,
              consent: bool = False) -> CheckFn:
    """The check of a rule met by an attestation on the rule itself."""
    def check(doc, idx):
        if _signed(idx, m.SubjectKind.RULE, rule_id, role, consent):
            return []
        return [("register", f"{gap} (rule {rule_id})")]
    return check


def _legally_flagged(idx: m.DocIndex, value_id: int) -> bool:
    return any(e.legal_instruments for e in idx.evrs_under_value(value_id))


# ---------------------------------------------------------------------------
# Requirements (errors)

@_rule("VBE-R01", "error", "structural",
       "Personal-data SOS elements are in ethical scope",
       "the operator answers for the values and operations of its partner ecosystem",
       "every SOS element with processes_personal_data is in_ethical_scope",
       m.Phase.EXPLORATION)
def _r01(doc, idx):
    return [
        (s.id, f"SOS element {s.id} processes personal data but sits outside the ethical scope")
        for s in doc.sos_elements
        if s.processes_personal_data and not s.in_ethical_scope
    ]


@_rule("VBE-R02", "error", "structural",
       "Direct and indirect stakeholders involved",
       "design happens in cooperation with representatives of both direct and indirect stakeholders",
       "at least one direct and one indirect stakeholder are declared",
       m.Phase.EXPLORATION)
def _r02(doc, idx):
    kinds = {s.kind for s in doc.stakeholders}
    missing = [k.value for k in (m.StakeholderKind.DIRECT, m.StakeholderKind.INDIRECT)
               if k not in kinds]
    if missing:
        return [("register", f"no {' or '.join(missing)} stakeholder is declared")]
    return []


@_rule("VBE-R03", "error", "structural",
       "Deployment context envisioned before design",
       "teams explore or envision the context of use before the ethical analysis starts",
       "at least one context captured pre_design exists",
       m.Phase.EXPLORATION)
def _r03(doc, idx):
    if not any(c.captured is m.CaptureStage.PRE_DESIGN for c in doc.contexts):
        return [("register", "no pre-design context of use is recorded")]
    return []


@_rule("VBE-R05a", "error", "structural",
       "All three elicitation lenses used per session",
       "value elicitation is guided by questions from the utilitarian, virtue and duty lenses",
       "every session's lenses include utilitarian, virtue and duty",
       m.Phase.EXPLORATION)
def _r05a(doc, idx):
    out = []
    for gap in analytics.lens_coverage(doc).sessions:
        if gap.missing:
            names = ", ".join(k.value for k in gap.missing)
            out.append((gap.session_id, f"session {gap.session_id} lacks lenses: {names}"))
    return out


@_rule("VBE-R05b", "error", "structural",
       "Culture-specific lens used for deployment regions",
       "a culture-specific framework from each deployment region complements the three standing lenses",
       "when deployment regions are declared, some session uses a cultural lens",
       m.Phase.EXPLORATION)
def _r05b(doc, idx):
    if analytics.lens_coverage(doc).cultural_lens_missing:
        regions = ", ".join(doc.soi.deployment_regions)
        return [("register",
                 f"deployment regions ({regions}) are declared but no session used a cultural lens")]
    return []


@_rule("VBE-R06", "error", "structural",
       "Stakeholders name the values they care about",
       "when stakeholders describe an issue, they always name the values at stake",
       "every statement has a non-empty named_values list",
       m.Phase.EXPLORATION)
def _r06(doc, idx):
    return [
        (s.id, f"statement {s.id} names no values")
        for s in doc.statements if not s.named_values
    ]


@_rule("VBE-R07", "error", "attested",
       "Executives sign each priority decision",
       "corporate leaders take an active, personally bound part in prioritizing core values",
       "every core value has an executive-signed priority attestation",
       m.Phase.DESIGN)
def _r07(doc, idx):
    return [
        (str(cv.id), f"priority of core value {cv.id} ({cv.name}) lacks an executive attestation")
        for cv in doc.core_values
        if not _signed(idx, m.SubjectKind.PRIORITY_DECISION, str(cv.id), m.SignatoryRole.EXECUTIVE)
    ]


@_rule("VBE-R08", "error", "structural",
       "Stakeholder feedback collected after launch",
       "feedback cycles from service stakeholders continue once the system is launched",
       "in phase deployment at least one feedback entry exists",
       m.Phase.DEPLOYMENT)
def _r08(doc, idx):
    if not doc.feedback:
        return [("register", "no stakeholder feedback is recorded after deployment")]
    return []


@_rule("VBE-R09", "error", "structural",
       "Legal boundaries cap the priority order",
       "legally anchored principles bound corporate action and outrank lesser values",
       "no legally flagged core value ranks below an unflagged one without an attested justification",
       m.Phase.DESIGN)
def _r09(doc, idx):
    flagged = {cv.id: cv for cv in doc.core_values if _legally_flagged(idx, cv.id)}
    unflagged = [cv for cv in doc.core_values if cv.id not in flagged]
    out = []
    for cv in flagged.values():
        outranked_by = [u for u in unflagged if u.priority_rank < cv.priority_rank]
        if not outranked_by:
            continue
        if _signed(idx, m.SubjectKind.PRIORITY_DECISION, str(cv.id)):
            continue
        names = ", ".join(u.name for u in outranked_by)
        out.append((str(cv.id),
                    f"legally flagged core value {cv.id} ({cv.name}) is ranked below {names} "
                    "without an attested justification"))
    return out


@_rule("VBE-R10", "error", "attested",
       "Go or no-go decision recorded",
       "deciding against investment on ethical grounds is a live option and the decision is recorded",
       "an investment decision with an executive attestation exists",
       m.Phase.DESIGN)
def _r10(doc, idx):
    dec = doc.investment_decision
    if dec is None:
        return [("register", "no investment decision is recorded")]
    if not idx.signed_by_executive(dec.attestations):
        return [("register", "the investment decision carries no executive attestation")]
    return []


@_rule("VBE-R11", "error", "structural",
       "Conceptual investigation per core value",
       "each core value is completed and refined through a conceptual investigation",
       "every core value has at least one quality with source conceptual_investigation",
       m.Phase.DESIGN)
def _r11(doc, idx):
    out = []
    for cv in doc.core_values:
        if not any(q.source is m.QualitySource.CONCEPTUAL_INVESTIGATION
                   for q in idx.qualities_by_value.get(cv.id, [])):
            out.append((str(cv.id),
                        f"core value {cv.id} ({cv.name}) has no conceptually investigated quality"))
    return out


@_rule("VBE-R12", "error", "structural",
       "Requirements derived per supporting quality",
       "tangible requirements are derived for each value quality",
       "every quality with direction supports has at least one EVR",
       m.Phase.DESIGN)
def _r12(doc, idx):
    return [
        (q.id, f"supporting quality {q.id} ({q.name}) has no EVRs")
        for q in doc.qualities
        if q.direction is m.QualityDirection.SUPPORTS
        and not idx.evrs_by_quality.get(q.id)
    ]


@_rule("VBE-R13", "error", "structural",
       "Risk path classification is consistent",
       "legally recognized breaches and reasonably likely harm to life or health force the high-risk path",
       "each EVR's stored risk path equals the classifier's verdict",
       m.Phase.DESIGN)
def _r13(doc, idx):
    out = []
    for evr in doc.evrs:
        computed = analytics.classify_risk_path(evr)
        if evr.risk_path is m.RiskPath.UNCLASSIFIED:
            out.append((evr.id, f"EVR {evr.id} has not been assigned a risk path "
                                f"(classifier says {computed.value})"))
        elif evr.risk_path is not computed:
            if computed is m.RiskPath.HIGH:
                out.append((evr.id,
                            f"EVR {evr.id} must take the high-risk design path "
                            f"but is stored as {evr.risk_path.value}"))
            else:
                out.append((evr.id,
                            f"EVR {evr.id} is stored as {evr.risk_path.value} "
                            f"but the classifier says {computed.value}"))
    return out


@_rule("VBE-R14", "error", "structural",
       "One holistic design concept",
       "ethical and functional requirements integrate into one holistic system design concept",
       "when functional requirements exist, some design concept references both an ethical and a functional requirement",
       m.Phase.DESIGN)
def _r14(doc, idx):
    if not doc.functional_requirements:
        return []
    for dc in doc.design_concepts:
        if dc.ethical_refs and dc.functional_refs:
            return []
    return [("register",
             "functional requirements exist but no design concept ties them to ethical requirements")]


# ---------------------------------------------------------------------------
# Recommendations (warnings)

@_rule("VBE-C01", "warning", "structural",
       "First-tier SOS partners in ethical scope",
       "at least the first-tier partner systems join the ethical analysis",
       "every tier-1 SOS element is in_ethical_scope",
       m.Phase.EXPLORATION)
def _c01(doc, idx):
    return [
        (s.id, f"first-tier SOS element {s.id} ({s.name}) is outside the ethical scope")
        for s in doc.sos_elements
        if s.tier == 1 and not s.in_ethical_scope
    ]


@_rule("VBE-C02", "warning", "structural",
       "Controllability of managed partners",
       "for acknowledged and directed cooperation the operator can reach the enabling system elements",
       "acknowledged or directed SOS elements have access_to_enabling_elements",
       m.Phase.EXPLORATION)
def _c02(doc, idx):
    return [
        (s.id, f"{s.cooperation_type.value} SOS element {s.id} ({s.name}) "
               "grants no access to its enabling elements")
        for s in doc.sos_elements
        if s.cooperation_type in (m.CooperationType.ACKNOWLEDGED, m.CooperationType.DIRECTED)
        and not s.access_to_enabling_elements
    ]


@_rule("VBE-C03", "warning", "structural",
       "Stakeholders from each deployment region",
       "an international rollout brings in stakeholder representatives from every deployment region",
       "every deployment region has at least one stakeholder with that region",
       m.Phase.EXPLORATION)
def _c03(doc, idx):
    covered = {s.region for s in doc.stakeholders if s.region}
    return [
        (region, f"no stakeholder represents deployment region {region}")
        for region in doc.soi.deployment_regions
        if region not in covered
    ]


@_rule("VBE-C04", "warning", "structural",
       "Context descriptions surface early ethical issues",
       "describing a context is the first chance to grasp potential ethical issues around the system",
       "every pre-design context records integrity expectations",
       m.Phase.EXPLORATION)
def _c04(doc, idx):
    return [
        (c.id, f"pre-design context {c.id} ({c.name}) records no integrity expectations")
        for c in doc.contexts
        if c.captured is m.CaptureStage.PRE_DESIGN and not c.integrity_expectations
    ]


@_rule("VBE-C05", "warning", "structural",
       "Context captured after deployment",
       "the context of use is captured again once the system is in the field",
       "in phase deployment at least one post-deployment context exists",
       m.Phase.DEPLOYMENT)
def _c05(doc, idx):
    if not any(c.captured is m.CaptureStage.POST_DEPLOYMENT for c in doc.contexts):
        return [("register", "no post-deployment context of use is recorded")]
    return []


@_rule("VBE-C06", "warning", "structural",
       "Context work precedes elicitation",
       "context-of-use scenarios are considered as early as possible, at the latest when the system meets a concrete industry",
       "when sessions exist, at least one context exists",
       m.Phase.EXPLORATION)
def _c06(doc, idx):
    if doc.sessions and not doc.contexts:
        return [("register", "elicitation sessions were held before any context of use was described")]
    return []


@_rule("VBE-C07", "warning", "structural",
       "Value dispositions built into the system",
       "values are carried by the system through dispositions engineers build into it",
       "once design starts, core values are backed by at least one disposition",
       m.Phase.DESIGN)
def _c07(doc, idx):
    if doc.core_values and not doc.dispositions:
        return [("register", "core values are declared but no value disposition is recorded")]
    return []


_rule("VBE-C08", "warning", "attested",
      "Value expert assigned",
      "a dedicated value expert with conceptual, legal and technical fluency supports the exploration",
      "an attestation for rule VBE-C08 signed by a value_expert exists",
      m.Phase.EXPLORATION)(
    _attested("VBE-C08", m.SignatoryRole.VALUE_EXPERT,
              "no value expert has attested to holding the role"))


_rule("VBE-C09", "warning", "attested",
      "Clustering confirmed with stakeholders",
      "stakeholder representatives reconfirm that the distilled core values and their expected quality effects capture what was raised",
      "an attestation for rule VBE-C09 signed by a stakeholder_rep exists",
      m.Phase.DESIGN)(
    _attested("VBE-C09", m.SignatoryRole.STAKEHOLDER_REP,
              "no stakeholder representative confirmed the core value clustering"))


_rule("VBE-C11", "warning", "attested",
      "Executives endorse universalizable values",
      "leaders support only core values they would publicly endorse as universal principles",
      "an attestation for rule VBE-C11 signed by an executive exists",
      m.Phase.DESIGN)(
    _attested("VBE-C11", m.SignatoryRole.EXECUTIVE,
              "no executive has publicly endorsed the core values"))


_rule("VBE-C12", "warning", "attested",
      "Stakeholders consent to the priorities",
      "value priorities are not decided by force from the top, but with the true consent of stakeholder representatives",
      "an attestation for rule VBE-C12 signed by a stakeholder_rep with consent exists",
      m.Phase.DESIGN)(
    _attested("VBE-C12", m.SignatoryRole.STAKEHOLDER_REP,
              "no consenting stakeholder representative signed off on the priorities",
              consent=True))


@_rule("VBE-C13", "warning", "attested",
       "Mission statement signed by leadership",
       "a public mission statement summarizes the value priorities and is signed by organizational leaders",
       "a mission exists and one of its attestations is executive-signed",
       m.Phase.DESIGN)
def _c13(doc, idx):
    if doc.mission is None:
        return [("register", "no value mission statement is recorded")]
    if not idx.signed_by_executive(doc.mission.signed_by):
        return [("register", "the value mission is not signed by an executive")]
    return []


@_rule("VBE-C14a", "warning", "structural",
       "Traceability chain populated",
       "the chain from core values through qualities to requirements is traced with a numbering system",
       "every core value has at least one quality",
       m.Phase.DESIGN)
def _c14a(doc, idx):
    return [
        (str(cv.id), f"core value {cv.id} ({cv.name}) has no value qualities; the chain is not traced")
        for cv in doc.core_values
        if not idx.qualities_by_value.get(cv.id)
    ]


@_rule("VBE-C14b", "warning", "structural",
       "Thresholds determined per EVR",
       "minimum threshold levels or performance outcomes make each requirement verifiable",
       "every EVR carries a threshold",
       m.Phase.DESIGN)
def _c14b(doc, idx):
    return [
        (e.id, f"EVR {e.id} has no minimum threshold")
        for e in doc.evrs if e.threshold is None
    ]


@_rule("VBE-C15", "warning", "structural",
       "Indirect stakeholders among personas",
       "persona analysis includes stand-ins for indirect stakeholders, not only users",
       "at least one persona mirrors an indirect stakeholder",
       m.Phase.DESIGN)
def _c15(doc, idx):
    if not any(p.kind is m.StakeholderKind.INDIRECT for p in doc.personas):
        return [("register", "no persona represents an indirect stakeholder")]
    return []


@_rule("VBE-C16", "warning", "structural",
       "Risk thinking on the low-risk path",
       "even low-risk requirements are designed in a spirit of what could go wrong",
       "every low-risk EVR has at least one threat considered",
       m.Phase.DESIGN)
def _c16(doc, idx):
    return [
        (e.id, f"low-risk EVR {e.id} has no threats considered")
        for e in doc.evrs
        if e.risk_path is m.RiskPath.LOW and not idx.threats_by_evr.get(e.id)
    ]


@_rule("VBE-C17", "warning", "structural",
       "Feedback traced to stakeholders",
       "continuous feedback comes from the stakeholders themselves, not only from market observation",
       "when feedback exists, at least one entry cites a stakeholder source",
       m.Phase.DESIGN)
def _c17(doc, idx):
    if doc.feedback and all(f.source == m.MARKET_SOURCE for f in doc.feedback):
        return [("register", "all feedback entries come from market observation; none cite a stakeholder")]
    return []


@_rule("VBE-C18", "warning", "structural",
       "Risk analysis covers the whole quality",
       "risk-assessment-based design starts at the value quality level and covers all its requirements",
       "no EVR stays unclassified while a sibling under the same quality is high-risk",
       m.Phase.DESIGN)
def _c18(doc, idx):
    out = []
    for quality_id, evrs in idx.evrs_by_quality.items():
        if any(e.risk_path is m.RiskPath.HIGH for e in evrs):
            for e in evrs:
                if e.risk_path is m.RiskPath.UNCLASSIFIED:
                    out.append((e.id,
                                f"EVR {e.id} is unclassified although quality {quality_id} "
                                "is on the high-risk path"))
    return out


_rule("VBE-C19", "warning", "attested",
      "Audit register kept available",
      "the register lets management and auditors recap at any time what the goals were, who was involved and who signed",
      "an attestation for rule VBE-C19 exists",
      m.Phase.DEPLOYMENT)(
    _attested("VBE-C19", None, "nobody attested that the audit register is published"))


@_rule("VBE-C20", "warning", "attested",
       "Engineers endorse accepted controls",
       "engineers put their names on the level of control they chose against each value threat",
       "every accepted or implemented control on a high-risk EVR has an engineer-signed risk acceptance",
       m.Phase.DESIGN)
def _c20(doc, idx):
    out = []
    for parent, controls in idx.controls_by_evr.items():
        evr = idx.evrs.get(parent)
        if evr is None or evr.risk_path is not m.RiskPath.HIGH:
            continue
        for control in controls:
            if control.status is m.ControlStatus.PROPOSED or _signed(
                    idx, m.SubjectKind.RISK_ACCEPTANCE, control.id, m.SignatoryRole.ENGINEER):
                continue
            out.append((control.id,
                        f"control {control.id} on high-risk EVR {parent} lacks an "
                        "engineer-signed risk acceptance"))
    return out


# ---------------------------------------------------------------------------
# Engine

def rule_catalog() -> tuple[Rule, ...]:
    """The fixed catalog, in declaration order."""
    return tuple(_RULES)


def require_known(rule_ids: set[str]) -> None:
    """Raise :class:`RegisterError` naming the ids no rule of the catalog has."""
    unknown = sorted(set(rule_ids) - set(_CHECKS))
    if unknown:
        raise m.RegisterError(f"unknown rule ids: {', '.join(unknown)}")


def run_rules(doc: m.RegisterDocument,
              selection: set[str] | None = None) -> tuple[Diagnostic, ...]:
    """Evaluate rules against a structurally valid document.

    ``selection`` limits evaluation to the given rule ids; an empty or
    absent selection means every rule.  Unknown ids raise.  Output is
    sorted by (severity, rule id, subject) with errors first, so identical
    documents always produce identical lists.
    """
    if selection is not None:
        require_known(selection)
        if not selection:
            selection = None

    idx = doc.index
    findings: list[Diagnostic] = []
    for rule in _RULES:
        if selection is not None and rule.rule_id not in selection:
            continue
        if not m.phase_at_least(doc.phase, rule.phase):
            continue
        for subject, message in _CHECKS[rule.rule_id](doc, idx):
            findings.append(Diagnostic(rule_id=rule.rule_id, severity=rule.severity,
                                       subject=subject, message=message))
    findings.sort(key=lambda d: (0 if d.severity == "error" else 1,
                                 d.rule_id, d.subject, d.message))
    return tuple(findings)


def check_rule(doc: m.RegisterDocument, rule_id: str) -> tuple[Diagnostic, ...]:
    """Diagnostics that run_rules would emit for one rule."""
    return run_rules(doc, selection={rule_id})
