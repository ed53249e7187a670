"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line on success.
Tolerances are exact unless stated otherwise; the bulk runs use seeded
generators so every run exercises the same inputs.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import replace

from evrforge import analytics, cli, dsl, rules, trace
from evrforge import model as m

from .conftest import FIXTURES
from .support import fuzz_source, random_register, robustness_breach, violation_cases


def _load(name):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return dsl.parse_register(text, name)


def test_acceptance_1_chain_fixture_fidelity():
    started = time.monotonic()
    result = _load("tm_chain.evr")
    assert result.document is not None
    doc = result.document

    assert len(doc.core_values) == 1
    assert doc.core_values[0].id == 1
    assert doc.core_values[0].name == "equality"
    assert [e.id for e in doc.evrs] == ["1.1.1", "1.1.2", "1.1.3", "1.1.4", "1.1.5"]

    chain = trace.trace_chain(trace.build_graph(doc), "1.1.3")
    assert [node.id for node in chain] == ["1", "1.1", "1.1.3"]

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 equality chain fixture fidelity: PASS ({elapsed:.3f}s)")


def test_acceptance_2_elicitation_counts():
    started = time.monotonic()
    result = _load("tm_full.evr")
    assert result.document is not None
    doc = result.document

    assert len(doc.core_values) == 14
    positive, negative = analytics.tally_totals(analytics.tally_values(doc))
    assert negative == 214
    assert positive == 253
    assert positive + negative == 467

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 elicitation counts 214/253/14: PASS ({elapsed:.3f}s)")


def test_acceptance_3_rule_catalog_shape():
    catalog = rules.rule_catalog()
    errors = [r for r in catalog if r.severity == "error"]
    warnings = [r for r in catalog if r.severity == "warning"]
    assert len(errors) == 14
    assert len(warnings) == 20
    for rule in catalog:
        assert rule.anchor.strip(), rule.rule_id
    print("ACCEPTANCE 3 rule catalog 14 errors / 20 warnings, anchored: PASS")


def test_acceptance_4_risk_path_decision_table():
    # Truth-table oracle coded independently of the classifier: enumerate
    # the whole table and compare verdicts combination by combination.
    def oracle(life: bool, health: bool, breach: bool, likely: bool,
               instruments: bool) -> str:
        if instruments or breach:
            return "high"
        if likely and (life or health):
            return "high"
        return "low"

    checked = 0
    for life, health, breach, likely in itertools.product([False, True], repeat=4):
        for instruments in (False, True):
            evr = m.Evr(
                id="1.1.1", quality="1.1", text="x",
                legal_instruments=("law",) if instruments else (),
                harm_flags=m.HarmFlags(life=life, health=health,
                                       legal_breach=breach),
                harm_likelihood=(m.HarmLikelihood.REASONABLY_LIKELY if likely
                                 else m.HarmLikelihood.UNLIKELY),
            )
            assert analytics.classify_risk_path(evr).value == oracle(
                life, health, breach, likely, instruments)
            checked += 1
    assert checked == 32  # 16 flag/likelihood combinations, with and without instruments
    print("ACCEPTANCE 4 risk-path decision table: PASS")


def test_acceptance_5_round_trip_thousand_registers():
    started = time.monotonic()
    rng = random.Random(20260808)
    for i in range(1000):
        doc = random_register(rng)
        text = dsl.serialize_canonical(doc)
        result = dsl.parse_register(text, f"gen{i}.evr")
        assert result.document is not None, (i, result.errors[:3])
        assert result.document == doc, i
        assert dsl.serialize_canonical(result.document) == text, i
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 5 round trip x1000: PASS ({elapsed:.1f}s)")


def test_acceptance_6_monotone_repair_every_rule():
    cases = violation_cases()
    assert set(cases) == {r.rule_id for r in rules.rule_catalog()}
    for rule_id, (bad, good, subject) in cases.items():
        assert m.validate_register(bad) == (), rule_id
        assert m.validate_register(good) == (), rule_id
        before = rules.check_rule(bad, rule_id)
        assert [d.subject for d in before] == [subject], rule_id
        assert rules.check_rule(good, rule_id) == (), rule_id
    print(f"ACCEPTANCE 6 monotone repair across {len(cases)} rules: PASS")


def _add_evr(rng: random.Random, doc: m.RegisterDocument) -> m.RegisterDocument:
    if not doc.qualities:
        return doc
    quality = rng.choice(doc.qualities)
    k = sum(1 for e in doc.evrs if e.quality == quality.id) + 1
    risk = rng.choice([m.RiskPath.UNCLASSIFIED, m.RiskPath.LOW, m.RiskPath.HIGH])
    evr = m.Evr(
        id=f"{quality.id}.{k}", quality=quality.id, text="added requirement",
        risk_path=risk,
        protection_demand=(m.ProtectionDemand(rng.randint(1, 4), "added demand")
                           if risk is m.RiskPath.HIGH else None),
    )
    return replace(doc, evrs=doc.evrs + (evr,))


def _add_control(rng: random.Random, doc: m.RegisterDocument) -> m.RegisterDocument:
    threats_by_evr: dict[str, list[m.Threat]] = {}
    for threat in doc.threats:
        threats_by_evr.setdefault(threat.evr, []).append(threat)
    if not threats_by_evr:
        return doc
    evr_id = rng.choice(sorted(threats_by_evr))
    own = threats_by_evr[evr_id]
    j = sum(1 for c in doc.controls if m.control_parent(c.id) == evr_id) + 1
    status = rng.choice([m.ControlStatus.PROPOSED, m.ControlStatus.ACCEPTED])
    disposition = None
    if doc.dispositions and rng.random() < 0.3:
        status = m.ControlStatus.IMPLEMENTED
        disposition = rng.choice(doc.dispositions).id
    control = m.Control(
        id=f"{evr_id}-C{j}",
        threats=tuple(t.id for t in rng.sample(own, rng.randint(1, len(own)))),
        form=rng.choice(list(m.ControlForm)),
        rigor=rng.randint(1, 4),
        status=status,
        implementing_disposition=disposition,
    )
    return replace(doc, controls=doc.controls + (control,))


def _add_disposition(rng: random.Random, doc: m.RegisterDocument) -> m.RegisterDocument:
    if not doc.controls:
        return doc
    disposition = m.ValueDisposition(
        id=f"DM{len(doc.dispositions)}",
        soi_component="added component",
        implements=tuple(c.id for c in rng.sample(
            list(doc.controls), rng.randint(1, min(2, len(doc.controls))))),
    )
    return replace(doc, dispositions=doc.dispositions + (disposition,))


def test_acceptance_7_maturity_monotone_under_additions():
    rng = random.Random(44)
    sequences = 0
    while sequences < 500:
        doc = random_register(rng)
        if m.PHASE_ORDER[doc.phase] < 2 or not doc.qualities:
            continue
        sequences += 1
        addressed = trace.maturity_score(doc).addressed
        for _ in range(rng.randint(1, 8)):
            mutate = rng.choice([_add_evr, _add_control, _add_disposition])
            doc = mutate(rng, doc)
            assert m.validate_register(doc) == ()
            now = trace.maturity_score(doc).addressed
            assert now >= addressed, "maturity dropped after an addition"
            addressed = now
    print("ACCEPTANCE 7 maturity monotonicity over 500 sequences: PASS")


def test_acceptance_8_ranking_order_invariance():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 8)
        ranks = list(range(1, n + 1))
        rng.shuffle(ranks)
        values = [
            m.CoreValue(
                id=i + 1, name=f"v{i + 1}", priority_rank=ranks[i],
                hierarchy_scores=m.HierarchyScores(
                    *(rng.randint(1, 5) for _ in range(5))),
            )
            for i in range(n)
        ]
        weights = [rng.randint(0, 5) for _ in range(5)]
        if not any(weights):
            weights[rng.randrange(5)] = 1
        factor = rng.choice([2, 3, 7, 0.5, 10])
        base = analytics.rank_values(values, weights)
        scaled = analytics.rank_values(values, [w * factor for w in weights])
        assert base.order == scaled.order

    full = _load("tm_full.evr").document
    by_name = {cv.name: cv for cv in full.core_values}
    explanation = analytics.rank_values([by_name["efficiency"], by_name["respect"]])
    assert explanation.order[0] == by_name["respect"].id
    print("ACCEPTANCE 8 ranking order invariance x200: PASS")


def test_acceptance_9_parser_robustness_100k():
    rng = random.Random(123456)
    started = time.monotonic()
    for i in range(100_000):
        text = fuzz_source(rng)
        breach = robustness_breach(text, dsl.parse_register(text, "fuzz.evr"))
        assert breach is None, (breach, i, text)
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE 9 parser robustness x100000: PASS ({elapsed:.1f}s)")


def test_acceptance_10_cli_contract(capsys):
    assert cli.main(["check", str(FIXTURES / "tm_clean.evr")]) == 0
    assert cli.main(["check", str(FIXTURES / "tm_warnings.evr")]) == 1
    assert cli.main(["check", str(FIXTURES / "tm_error.evr")]) == 2
    assert cli.main(["check", str(FIXTURES / "does_not_exist.evr")]) == 3
    capsys.readouterr()

    assert cli.main(["report", str(FIXTURES / "tm_clean.evr"),
                     "--kind", "audit"]) == 0
    rendered = capsys.readouterr().out
    golden = (FIXTURES / "audit_golden.txt").read_text(encoding="utf-8")
    assert rendered == golden
    print("ACCEPTANCE 10 CLI exit codes and audit golden: PASS")
