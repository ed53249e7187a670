"""Exploration-phase computations.

Covers elicitation-lens coverage, frequency tallies over stakeholder value
statements, a threshold-based core-value proposal, the criteria-weighted
ranking aid, risk-path classification and the demand-versus-rigor check.

The proposal and ranking outputs are advisory.  The register's explicit
core values and human-set priority ranks always remain the binding record;
nothing here writes back into a document.
"""

from __future__ import annotations

from dataclasses import fields

from . import model as m
from .model import record

MANDATORY_LENSES = (m.LensKind.UTILITARIAN, m.LensKind.VIRTUE, m.LensKind.DUTY)

CRITERIA = tuple(f.name for f in fields(m.HierarchyScores))


@record
class SessionLensGap:
    """The standing lenses one session did not use."""

    session_id: str
    missing: tuple[m.LensKind, ...]


@record
class LensCoverage:
    """The lens gaps of every session, and the register-level cultural flag."""

    sessions: tuple[SessionLensGap, ...]
    cultural_lens_missing: bool


def lens_coverage(doc: m.RegisterDocument) -> LensCoverage:
    """Which of the three standing lenses each session skipped, plus a
    register-level flag when deployment regions are declared but no session
    ever used a culture-specific lens."""
    gaps = []
    any_cultural = False
    for session in doc.sessions:
        kinds = {lens.kind for lens in session.lenses_used}
        if m.LensKind.CULTURAL in kinds:
            any_cultural = True
        missing = tuple(k for k in MANDATORY_LENSES if k not in kinds)
        gaps.append(SessionLensGap(session_id=session.id, missing=missing))
    flag = bool(doc.soi.deployment_regions) and not any_cultural
    return LensCoverage(sessions=tuple(gaps), cultural_lens_missing=flag)


@record
class TallyEntry:
    """How many statements name one value, by polarity, and which ones."""

    positive: int
    negative: int
    statements: tuple[str, ...]


ValueTally = dict[str, TallyEntry]


def tally_values(doc: m.RegisterDocument) -> ValueTally:
    """Count statements per canonical value name, split by polarity.

    A statement contributes at most once per canonical name, over the union
    of its named and extracted values after alias resolution.  Keys appear
    in first-mention order.
    """
    counts: dict[str, list] = {}
    for statement in doc.statements:
        canon: list[str] = []
        for raw in statement.named_values + statement.extracted_values:
            name = m.resolve_alias(doc, raw)
            if name not in canon:
                canon.append(name)
        for name in canon:
            entry = counts.setdefault(name, [0, 0, []])
            if statement.polarity is m.Polarity.POSITIVE:
                entry[0] += 1
            else:
                entry[1] += 1
            entry[2].append(statement.id)
    return {
        name: TallyEntry(positive=pos, negative=neg, statements=tuple(ids))
        for name, (pos, neg, ids) in counts.items()
    }


def tally_totals(tally: ValueTally) -> tuple[int, int]:
    """Sum of (positive, negative) statement potentials across all names."""
    return (sum(e.positive for e in tally.values()),
            sum(e.negative for e in tally.values()))


def propose_core_values(tally: ValueTally, min_count: int) -> tuple[str, ...]:
    """Names mentioned at least ``min_count`` times, most frequent first.

    Ties break lexicographically.  This is a proposal for the value expert;
    it never writes core values into a register.
    """
    if min_count < 1:
        raise m.RegisterError("min_count must be at least 1")
    qualified = [
        (name, entry.positive + entry.negative)
        for name, entry in tally.items()
        if entry.positive + entry.negative >= min_count
    ]
    qualified.sort(key=lambda pair: (-pair[1], pair[0]))
    return tuple(name for name, _ in qualified)


@record
class PairComparison:
    """The criteria scores and totals of two core values, in ranked order."""

    first: int
    second: int
    first_scores: tuple[int, int, int, int, int]
    second_scores: tuple[int, int, int, int, int]
    first_total: float
    second_total: float


@record
class RankingExplanation:
    """An advisory order of core values, with the totals and comparisons behind it."""

    order: tuple[int, ...]
    totals: dict[int, float]
    comparisons: tuple[PairComparison, ...]


def rank_values(core_values, weights=(1.0, 1.0, 1.0, 1.0, 1.0)) -> RankingExplanation:
    """Advisory ordering of core values by weighted superiority criteria.

    Total score is the weighted sum of the five criteria; higher first.
    Ties break by the human-set priority rank, then by id.  Every pair in
    the resulting order gets a comparison record for reporting.
    """
    weights = tuple(float(w) for w in weights)
    if len(weights) != len(CRITERIA):
        raise m.RegisterError(f"expected {len(CRITERIA)} weights, got {len(weights)}")
    if any(w < 0 for w in weights):
        raise m.RegisterError("weights must be non-negative")
    if not any(weights):
        raise m.RegisterError("weights must not all be zero")

    values = list(core_values)
    for cv in values:
        if cv.hierarchy_scores is None:
            raise m.RegisterError(f"core value {cv.id} ({cv.name}) has no hierarchy scores")

    totals = {
        cv.id: sum(w * s for w, s in zip(weights, cv.hierarchy_scores.as_tuple()))
        for cv in values
    }
    ordered = sorted(values, key=lambda cv: (-totals[cv.id], cv.priority_rank, cv.id))

    comparisons = []
    for i, first in enumerate(ordered):
        for second in ordered[i + 1:]:
            comparisons.append(PairComparison(
                first=first.id,
                second=second.id,
                first_scores=first.hierarchy_scores.as_tuple(),
                second_scores=second.hierarchy_scores.as_tuple(),
                first_total=totals[first.id],
                second_total=totals[second.id],
            ))
    return RankingExplanation(
        order=tuple(cv.id for cv in ordered),
        totals=totals,
        comparisons=tuple(comparisons),
    )


def classify_risk_path(evr: m.Evr) -> m.RiskPath:
    """Decide the design path an EVR belongs on.

    High when a legal instrument is attached, a legal breach is flagged, or
    a reasonably likely harm to life or health is flagged; low otherwise.
    """
    if evr.legal_instruments or evr.harm_flags.legal_breach:
        return m.RiskPath.HIGH
    if (evr.harm_flags.life or evr.harm_flags.health) and \
            evr.harm_likelihood is m.HarmLikelihood.REASONABLY_LIKELY:
        return m.RiskPath.HIGH
    return m.RiskPath.LOW


@record
class RigorViolation:
    """A control whose rigor is below its EVR's protection demand."""

    control_id: str
    evr_id: str
    rigor: int
    demand: int


def check_control_rigor(control: m.Control, evr: m.Evr) -> RigorViolation | None:
    """None when the control's rigor meets the EVR's protection demand.

    EVRs without a recorded demand are always satisfied.  The control must
    actually belong to the EVR (by id prefix), otherwise this is a usage
    error and raises.
    """
    if m.control_parent(control.id) != evr.id:
        raise m.RegisterError(
            f"control {control.id} does not belong to EVR {evr.id}")
    if evr.risk_path is m.RiskPath.HIGH and evr.protection_demand is None:
        raise m.RegisterError(f"high-risk EVR {evr.id} has no protection demand")
    if evr.protection_demand is None:
        return None
    if control.rigor < evr.protection_demand.level:
        return RigorViolation(control_id=control.id, evr_id=evr.id,
                              rigor=control.rigor,
                              demand=evr.protection_demand.level)
    return None
