from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evrforge import analytics
from evrforge import model as m

from .support import base_doc, random_register


def _session_doc(lenses, regions=()):
    doc = base_doc(m.Phase.EXPLORATION, sessions=(
        m.ElicitationSession(id="SES1", lenses_used=tuple(lenses)),))
    return replace(doc, soi=replace(doc.soi, deployment_regions=tuple(regions)))


def _statement_doc(specs, alias_map=None):
    """specs: iterable of (polarity, named values, extracted values)."""
    holder = m.Stakeholder(id="ST1", name="users", kind=m.StakeholderKind.DIRECT)
    session = m.ElicitationSession(id="SES1")
    statements = tuple(
        m.ValueStatement(
            id=f"V{i}", session="SES1", stakeholder="ST1",
            lens=m.Lens(m.LensKind.UTILITARIAN),
            polarity=polarity, named_values=tuple(named),
            extracted_values=tuple(extracted),
        )
        for i, (polarity, named, extracted) in enumerate(specs)
    )
    doc = base_doc(m.Phase.EXPLORATION, stakeholders=(holder,),
                   sessions=(session,), statements=statements)
    return replace(doc, alias_map=dict(alias_map or {}))


class TestLensCoverage:
    def test_full_session_has_no_gap(self):
        doc = _session_doc([m.Lens(m.LensKind.UTILITARIAN),
                            m.Lens(m.LensKind.VIRTUE),
                            m.Lens(m.LensKind.DUTY)])
        report = analytics.lens_coverage(doc)
        assert report.sessions[0].missing == ()

    def test_missing_duty_reported(self):
        doc = _session_doc([m.Lens(m.LensKind.UTILITARIAN),
                            m.Lens(m.LensKind.VIRTUE)])
        report = analytics.lens_coverage(doc)
        assert report.sessions[0].missing == (m.LensKind.DUTY,)

    def test_cultural_flag_raised_on_full_fixture(self, full_doc):
        report = analytics.lens_coverage(full_doc)
        assert report.cultural_lens_missing
        for gap in report.sessions:
            assert gap.missing == ()

    def test_cultural_flag_needs_declared_regions(self):
        doc = _session_doc([m.Lens(m.LensKind.UTILITARIAN)], regions=())
        assert not analytics.lens_coverage(doc).cultural_lens_missing

    @given(st.sets(st.sampled_from(list(m.LensKind))))
    def test_missing_empty_iff_mandatory_lenses_present(self, kinds):
        lenses = [m.Lens(k, "f" if k is m.LensKind.CULTURAL else "")
                  for k in kinds]
        doc = _session_doc(lenses)
        report = analytics.lens_coverage(doc)
        expected_covered = set(analytics.MANDATORY_LENSES) <= kinds
        assert (report.sessions[0].missing == ()) == expected_covered


class TestTallyValues:
    def test_alias_resolution_counts_one_value_three_times(self):
        doc = _statement_doc(
            [(m.Polarity.POSITIVE, ["control"], []),
             (m.Polarity.POSITIVE, ["security"], []),
             (m.Polarity.POSITIVE, ["anonymity"], [])],
            alias_map={"control": "privacy", "security": "privacy",
                       "anonymity": "privacy"},
        )
        tally = analytics.tally_values(doc)
        assert set(tally) == {"privacy"}
        assert tally["privacy"].positive == 3
        assert tally["privacy"].negative == 0
        assert tally["privacy"].statements == ("V0", "V1", "V2")

    def test_no_statements_means_empty_tally(self):
        doc = base_doc(m.Phase.EXPLORATION)
        assert analytics.tally_values(doc) == {}

    def test_statement_counts_once_per_canonical_name(self):
        doc = _statement_doc(
            [(m.Polarity.NEGATIVE, ["anonymity"], ["privacy"])],
            alias_map={"anonymity": "privacy"},
        )
        tally = analytics.tally_values(doc)
        assert tally["privacy"].negative == 1

    def test_full_fixture_totals(self, full_doc):
        positive, negative = analytics.tally_totals(analytics.tally_values(full_doc))
        assert negative == 214
        assert positive == 253

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_conservation(self, seed):
        doc = random_register(random.Random(seed))
        tally = analytics.tally_values(doc)
        contributed = sum(len(e.statements) for e in tally.values())
        expected = 0
        for statement in doc.statements:
            names = {m.resolve_alias(doc, n)
                     for n in statement.named_values + statement.extracted_values}
            expected += len(names)
        assert contributed == expected


class TestProposeCoreValues:
    def test_threshold_filters(self):
        tally = {
            "privacy": analytics.TallyEntry(2, 1, ("V0", "V1", "V2")),
            "efficiency": analytics.TallyEntry(1, 0, ("V3",)),
        }
        assert analytics.propose_core_values(tally, 2) == ("privacy",)

    def test_empty_tally(self):
        assert analytics.propose_core_values({}, 1) == ()

    def test_equal_counts_sort_lexicographically(self):
        tally = {
            "privacy": analytics.TallyEntry(1, 0, ("V0",)),
            "equality": analytics.TallyEntry(0, 1, ("V1",)),
            "health": analytics.TallyEntry(1, 0, ("V2",)),
        }
        assert analytics.propose_core_values(tally, 1) == (
            "equality", "health", "privacy")

    def test_min_count_below_one_rejected(self):
        with pytest.raises(m.RegisterError):
            analytics.propose_core_values({}, 0)

    @given(st.dictionaries(
        st.text(min_size=1, max_size=5),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        max_size=8,
    ), st.integers(1, 6))
    def test_downward_closed_in_min_count(self, raw, min_count):
        tally = {name: analytics.TallyEntry(p, n, ())
                 for name, (p, n) in raw.items()}
        lower = set(analytics.propose_core_values(tally, min_count))
        higher = set(analytics.propose_core_values(tally, min_count + 1))
        assert higher <= lower


def _scored(vid, rank, scores):
    return m.CoreValue(id=vid, name=f"value {vid}", priority_rank=rank,
                       hierarchy_scores=m.HierarchyScores(*scores))


class TestRankValues:
    def test_respect_outranks_efficiency(self, full_doc):
        by_name = {cv.name: cv for cv in full_doc.core_values}
        respect = by_name["respect"]
        efficiency = by_name["efficiency"]
        assert respect.hierarchy_scores.as_tuple() == (5, 5, 5, 4, 5)
        assert efficiency.hierarchy_scores.as_tuple() == (2, 2, 3, 2, 1)
        explanation = analytics.rank_values([efficiency, respect])
        assert explanation.order[0] == respect.id

    def test_single_value(self):
        explanation = analytics.rank_values([_scored(1, 1, (3, 3, 3, 3, 3))])
        assert explanation.order == (1,)
        assert explanation.comparisons == ()

    def test_missing_scores_named_in_error(self):
        bare = m.CoreValue(id=2, name="efficiency", priority_rank=2)
        with pytest.raises(m.RegisterError, match="efficiency"):
            analytics.rank_values([_scored(1, 1, (3, 3, 3, 3, 3)), bare])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(m.RegisterError):
            analytics.rank_values([_scored(1, 1, (3, 3, 3, 3, 3))],
                                  weights=(0, 0, 0, 0, 0))

    @pytest.mark.parametrize("weights, message", [
        ((1, 1, 1, 1), "expected 5 weights, got 4"),
        ((1, 1, -1, 1, 1), "weights must be non-negative"),
    ])
    def test_malformed_weights_rejected(self, weights, message):
        with pytest.raises(m.RegisterError, match=message):
            analytics.rank_values([_scored(1, 1, (3, 3, 3, 3, 3))], weights=weights)

    def test_ties_break_by_priority_rank(self):
        first = _scored(1, 2, (3, 3, 3, 3, 3))
        second = _scored(2, 1, (3, 3, 3, 3, 3))
        explanation = analytics.rank_values([first, second])
        assert explanation.order == (2, 1)

    def test_comparisons_cover_every_pair(self):
        values = [_scored(i, i, (i, 1, 1, 1, 1)) for i in range(1, 5)]
        explanation = analytics.rank_values(values)
        assert len(explanation.comparisons) == 6

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(*(st.integers(1, 5) for _ in range(5))),
                 min_size=1, max_size=6),
        st.tuples(*(st.integers(0, 4) for _ in range(5))),
        st.integers(1, 9),
    )
    def test_order_invariant_under_positive_weight_scaling(self, matrix, weights, factor):
        if not any(weights):
            weights = (1, 0, 0, 0, 0)
        values = [_scored(i + 1, i + 1, scores) for i, scores in enumerate(matrix)]
        base = analytics.rank_values(values, weights)
        scaled = analytics.rank_values(values, tuple(w * factor for w in weights))
        assert base.order == scaled.order


def _evr_with(life=False, health=False, legal_breach=False,
              likely=False, instruments=()):
    return m.Evr(
        id="1.1.1", quality="1.1", text="requirement",
        legal_instruments=tuple(instruments),
        harm_flags=m.HarmFlags(life=life, health=health, legal_breach=legal_breach),
        harm_likelihood=(m.HarmLikelihood.REASONABLY_LIKELY if likely
                         else m.HarmLikelihood.UNLIKELY),
    )


class TestClassifyRiskPath:
    def test_legal_instrument_with_health_harm_is_high(self):
        evr = _evr_with(health=True, likely=True, instruments=("GDPR",))
        assert analytics.classify_risk_path(evr) is m.RiskPath.HIGH

    def test_nothing_flagged_is_low(self):
        assert analytics.classify_risk_path(_evr_with()) is m.RiskPath.LOW

    def test_unlikely_life_harm_is_low(self):
        assert analytics.classify_risk_path(_evr_with(life=True)) is m.RiskPath.LOW

    def test_full_decision_table(self):
        # Independent oracle: written straight from the decision logic's
        # definition, exercised over every flag/likelihood combination.
        def oracle(life, health, breach, likely):
            if breach:
                return m.RiskPath.HIGH
            if (life or health) and likely:
                return m.RiskPath.HIGH
            return m.RiskPath.LOW

        for life, health, breach, likely in itertools.product(
                [False, True], repeat=4):
            evr = _evr_with(life=life, health=health, legal_breach=breach,
                            likely=likely)
            assert analytics.classify_risk_path(evr) is oracle(
                life, health, breach, likely), (life, health, breach, likely)


class TestControlRigor:
    def _pair(self, rigor, demand):
        evr = m.Evr(id="1.1.1", quality="1.1", text="x",
                    risk_path=m.RiskPath.HIGH if demand else m.RiskPath.LOW,
                    legal_instruments=("law",) if demand else (),
                    protection_demand=(m.ProtectionDemand(demand, "because")
                                       if demand else None))
        control = m.Control(id="1.1.1-C1", threats=("1.1.1-T1",),
                            form=m.ControlForm.PROCEDURAL, rigor=rigor)
        return control, evr

    def test_rigor_below_demand_is_violation(self):
        control, evr = self._pair(rigor=2, demand=4)
        violation = analytics.check_control_rigor(control, evr)
        assert violation is not None
        assert violation.rigor == 2
        assert violation.demand == 4

    def test_rigor_meeting_demand_is_ok(self):
        control, evr = self._pair(rigor=1, demand=1)
        assert analytics.check_control_rigor(control, evr) is None

    def test_low_risk_without_demand_is_ok(self):
        control, evr = self._pair(rigor=1, demand=0)
        assert analytics.check_control_rigor(control, evr) is None

    def test_high_risk_evr_without_demand_rejected(self):
        control, evr = self._pair(rigor=2, demand=0)
        evr = replace(evr, risk_path=m.RiskPath.HIGH)
        with pytest.raises(m.RegisterError, match="high-risk EVR 1.1.1 has no protection demand"):
            analytics.check_control_rigor(control, evr)

    def test_mismatched_pair_rejected(self):
        control, _ = self._pair(rigor=2, demand=0)
        other = m.Evr(id="2.1.1", quality="2.1", text="y")
        with pytest.raises(m.RegisterError):
            analytics.check_control_rigor(control, other)
