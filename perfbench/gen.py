"""Seeded generators for the benchmark's register inputs.

Both generators write register *text* with their own code, so the inputs do
not depend on the program under test.  Each one also returns what it knows
about the register it wrote (entity counts, the expected coverage rows, the
expected diff of an edit), which the workloads use as an independent check
of the program's output.
"""

from __future__ import annotations

import random
import re

LENSES = ("utilitarian", "virtue", "duty")
CONTROL_FORMS = ("functional", "non_functional", "operational", "procedural",
                 "organizational", "structural")
VALUE_NAMES = ("equality", "privacy", "trustworthiness", "accuracy", "health",
               "knowledge", "honesty", "respect", "accountability", "reliability",
               "security", "transparency", "convenience", "efficiency", "autonomy")
WORDS = ("patients", "doctors", "video", "referral", "consent", "records", "cloud",
         "rating", "specialist", "insurance", "region", "appointment", "privacy",
         "trust", "access", "waiting", "diagnosis", "prüfen", "記録", "\"quoted\"",
         "back\\slash", "# not a comment")


def quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _phrase(rng: random.Random, lo: int = 3, hi: int = 9) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def _date(rng: random.Random) -> str:
    return f"20{rng.randint(19, 25)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


def _block(head: str, lines: list[str]) -> str:
    return "\n".join([head] + ["  " + line for line in lines] + ["end"])


def _scores(rng: random.Random) -> list[str]:
    return [f"{name} {rng.randint(1, 5)}" for name in
            ("endurance", "depth", "indivisibility", "bearer_independence",
             "intrinsic_worth")]


# ---------------------------------------------------------------------------
# ladder-audit: n core values x 3 qualities x 3 EVRs, 2 threats, 2 controls
# and one engineer risk acceptance per EVR, in phase design.

def ladder_register(n: int, seed: int) -> tuple[str, dict]:
    """Register text plus the coverage rows and maturity an audit must show."""
    rng = random.Random(f"ladder/{n}/{seed}")
    blocks = [
        f'register {quote(f"ladder n={n}")} version {quote(str(seed))} phase design',
        _block("soi", ['name "ladder platform"',
                       f"note {quote('Operates a remote advice service: ' + _phrase(rng, 1, 3))}",
                       'region "AT"']),
        _block('sos S1 "cloud store"', ["cooperation acknowledged", "tier 1",
                                        "personal_data true", "ethical_scope true",
                                        "enabling_access true"]),
        _block('stakeholder ST1 "patients"', ["kind direct", 'region "AT"']),
        _block('stakeholder ST2 "neighbours"', ["kind indirect"]),
        _block('context CTX1 "consultation"', [
            "captured pre_design", 'element "session"', 'element "store"',
            'data_type "health data"', 'flow "session" "store" "health data"',
            "subject ST1", 'expect "consent first"']),
        _block("session SES1", ['date "2020-02-18"', "participant ST1", "participant ST2",
                                "lens utilitarian", "lens virtue", "lens duty",
                                'lens cultural "regional tradition"']),
        _block("statement V1", ["session SES1", "by ST1", "lens utilitarian",
                                f"note {quote(_phrase(rng, 1, 3))}", 'value "equality"']),
    ]
    ranks = list(range(1, n + 1))
    rng.shuffle(ranks)
    attestations: list[str] = []
    coverage: list[tuple] = []
    addressed_total = 0
    for i in range(1, n + 1):
        blocks.append(_block(f"corevalue {i} {quote(f'cv-{i}')} rank {ranks[i - 1]}",
                             _scores(rng) + (["support V1"] if i == 1 else [])))
        priority_signed = rng.random() < 0.5
        if priority_signed:
            attestations.append(_block(f"attestation P{i} priority {i}", [
                'by "Carl Brandt"', "role executive", f'date "{_date(rng)}"']))
        cv_blocks: list[str] = []
        implemented: list[str] = []
        thresholds = threats = controls = risk_signed = 0
        addressed = True
        for j in range(1, 4):
            direction = "supports" if rng.random() < 0.8 else "undermines"
            source = rng.choice(("conceptual_investigation", "stakeholder"))
            cv_blocks.append(_block(f"quality {i}.{j} {quote(_phrase(rng, 1, 3))} of {i} "
                                    f"direction {direction}", [f"source {source}"]))
            for k in range(1, 4):
                eid = f"{i}.{j}.{k}"
                risk = rng.choices(("high", "low", "unclassified"), (4, 4, 2))[0]
                lines = [f"kind {rng.choice(('technical', 'organizational'))}"]
                if rng.random() < 0.8:
                    thresholds += 1
                    lines.append(f'threshold {quote(_phrase(rng, 1, 3))} ">=" "95 percent" '
                                 f"{quote(_phrase(rng, 1, 3))}")
                lines.append(f"risk {risk}")
                if risk == "high":
                    if rng.random() < 0.5:
                        lines.append('legal "GDPR"')
                    lines.append(f"demand {rng.randint(1, 4)} {quote(_phrase(rng, 1, 3))}")
                if rng.random() < 0.3:
                    lines += ["harm_health true", "likelihood reasonably_likely"]
                cv_blocks.append(_block(f"evr {eid} {quote(_phrase(rng, 1, 3))} of {i}.{j}", lines))
                uncovered_realistic = False
                for t in (1, 2):
                    realistic = rng.random() < 0.7
                    lines = [f"realistic {'true' if realistic else 'false'}"]
                    if rng.random() < 0.5:
                        lines.append(f"note {quote(_phrase(rng, 1, 3))}")
                    cv_blocks.append(_block(f"threat {eid}-T{t} of {eid}", lines))
                    status = rng.choices(("proposed", "accepted", "implemented"), (3, 4, 3))[0]
                    lines = [f"rigor {rng.randint(1, 4)}", f"form {rng.choice(CONTROL_FORMS)}",
                             f"status {status}"]
                    if status == "implemented":
                        lines.append(f"disposition D{i}")
                        implemented.append(f"{eid}-C{t}")
                    cv_blocks.append(_block(f"control {eid}-C{t} for {eid}-T{t}", lines))
                    if realistic and status == "proposed":
                        uncovered_realistic = True
                threats += 2
                controls += 2
                risk_signed += 1
                attestations.append(_block(f"attestation R{i}_{j}_{k} risk {eid}-C1", [
                    f'by "{rng.choice(("Mira Holzer", "Jan Novak"))}"', "role engineer",
                    f'date "{_date(rng)}"']))
                if risk == "high" and uncovered_realistic:
                    addressed = False
        if implemented:
            cv_blocks.append(_block(f"disposition D{i}", [
                f'component "component {i}"'] + [f"implements {c}" for c in implemented]))
        blocks.extend(cv_blocks)
        addressed_total += addressed
        coverage.append((f"cv-{i}", ranks[i - 1], 3, 9, thresholds, threats, controls,
                         priority_signed + risk_signed, addressed))
    top = sorted(range(1, n + 1), key=lambda i: ranks[i - 1])[:2]
    blocks += attestations
    blocks += [
        _block("attestation M1 mission", ['by "Carl Brandt"', "role executive",
                                          'date "2020-04-02"']),
        _block("mission", [f"note {quote(_phrase(rng, 1, 3))}"] + [f"feature {i}" for i in top]
               + ["signed M1"]),
        _block("decision go", [f"note {quote(_phrase(rng, 1, 3))}"]),
        _block("funcreq F1", [f"note {quote(_phrase(rng, 1, 3))}"]),
        _block('concept DC1 "baseline"', ["ethical 1.1.1", "functional F1"]),
        _block('persona PE1 "a neighbour"', ["stakeholder ST2"]),
    ]
    coverage.sort(key=lambda row: row[1])
    facts = {"n": n, "seed": seed, "core_values": n, "qualities": 3 * n, "evrs": 9 * n,
             "threats": 18 * n, "controls": 18 * n, "attestations": len(attestations) + 1,
             "coverage": coverage,
             "maturity": f"{addressed_total}/{n} ({addressed_total / n:.2f})"}
    return "\n\n".join(blocks) + "\n", facts


# ---------------------------------------------------------------------------
# corpus-roundtrip: elicitation-heavy registers in the family of tm_full, with
# one block of every kind so that each codec path runs.

class _Corpus:
    """Ordered blocks keyed by (diff kind, id), so that an edit knows its diff."""

    def __init__(self) -> None:
        self.blocks: list[tuple[str, str, str]] = []

    def add(self, kind: str, eid: str, text: str) -> None:
        self.blocks.append((kind, eid, text))

    def render(self) -> str:
        return "\n\n".join(text for _, _, text in self.blocks) + "\n"

    def count(self, kind: str) -> int:
        return sum(1 for k, _, _ in self.blocks if k == kind)


def _corpus_blocks(rng: random.Random, name: str, index: int) -> _Corpus:
    # Sizes follow the index, not the seed, so that every seed's corpus has
    # the same spread of sizes (about 28 to 73 KB) and only the content varies.
    doc = _Corpus()
    n_holders = 16 + index % 9
    n_statements = 100 + 15 * (index % 16)
    n_values = 10 + index % 6
    doc.add("register", "project", f"register {quote(name)} version \"1.0\" phase design")
    doc.add("register", "soi", _block("soi", [
        f"name {quote(name + ' platform')}", f"note {quote(_phrase(rng, 8, 14))}",
        f"note {quote(_phrase(rng, 8, 14))}", 'region "AT"']))
    for s in (1, 2):
        doc.add("sos_elements", f"S{s}", _block(f"sos S{s} {quote(_phrase(rng, 2, 3))}", [
            f"cooperation {rng.choice(('virtual', 'collaborative', 'acknowledged', 'directed'))}",
            f"tier {s}", "personal_data true", "ethical_scope true", "enabling_access true"]))
    holders = [f"ST{h:02d}" for h in range(1, n_holders + 1)]
    for h, sid in enumerate(holders):
        lines = [f"kind {'direct' if h < n_holders * 2 // 3 else 'indirect'}"]
        if rng.random() < 0.5:
            lines.append('region "AT"')
        if rng.random() < 0.2:
            lines += [f"{key} {quote(_phrase(rng, 2, 4))}"
                      for key in ("motivation", "power", "knowledge", "legitimization")]
        doc.add("stakeholders", sid, _block(f"stakeholder {sid} {quote(_phrase(rng, 2, 5))}",
                                            lines))
    doc.add("contexts", "CTX1", _block('context CTX1 "video consultation"', [
        "captured pre_design", 'element "video session"', 'element "record store"',
        'data_type "health data"', 'flow "video session" "record store" "health data"',
        f"subject {holders[0]}", f"expect {quote(_phrase(rng))}"]))
    for s in (1, 2, 3):
        lines = [f'date "{_date(rng)}"'] + [f"participant {p}" for p in rng.sample(holders, 4)]
        lines += [f"lens {lens}" for lens in LENSES] + ['lens cultural "regional tradition"']
        doc.add("sessions", f"SES{s}", _block(f"session SES{s}", lines))
    statements = [f"V{v:03d}" for v in range(1, n_statements + 1)]
    for sid in statements:
        lines = [f"session SES{rng.randint(1, 3)}", f"by {rng.choice(holders)}",
                 f"lens {rng.choice(LENSES)}",
                 f"polarity {rng.choice(('positive', 'negative'))}",
                 f"note {quote(_phrase(rng, 6, 12))}",
                 f"value {quote(rng.choice(VALUE_NAMES))}"]
        if rng.random() < 0.6:
            lines.append(f"extracted {quote(rng.choice(VALUE_NAMES))}")
        doc.add("statements", sid, _block(f"statement {sid}", lines))
    ranks = list(range(1, n_values + 1))
    rng.shuffle(ranks)
    for i in range(1, n_values + 1):
        lines = _scores(rng) + [f"support {s}" for s in rng.sample(statements, 2)]
        if i % 3 == 0:
            lines.append(f"alias {quote(VALUE_NAMES[i - 1] + ' in practice')}")
        if i % 4 == 0:
            lines.append("intrinsic false")
        doc.add("core_values", str(i), _block(
            f"corevalue {i} {quote(VALUE_NAMES[i - 1])} rank {ranks[i - 1]}", lines))
    for i in (1, 2):
        doc.add("qualities", f"{i}.1", _block(
            f"quality {i}.1 {quote(_phrase(rng, 2, 4))} of {i} direction supports",
            ["source conceptual_investigation"]))
        doc.add("evrs", f"{i}.1.1", _block(f"evr {i}.1.1 {quote(_phrase(rng))} of {i}.1", [
            "kind technical", f'threshold {quote(_phrase(rng, 1, 3))} ">=" "95 percent" "audited"',
            "risk high", 'legal "GDPR"', "harm_health true", f"harm_life {str(i == 2).lower()}",
            f"harm_legal_breach {str(i == 2).lower()}", "likelihood reasonably_likely",
            f"demand 3 {quote(_phrase(rng))}"]))
        doc.add("threats", f"{i}.1.1-T1", _block(f"threat {i}.1.1-T1 of {i}.1.1", [
            "realistic true", f"note {quote(_phrase(rng))}"]))
        doc.add("threats", f"{i}.1.1-T2", _block(f"threat {i}.1.1-T2 of {i}.1.1", [
            "realistic false", f"note {quote(_phrase(rng))}"]))
        head = f"control {i}.1.1-C1 for {i}.1.1-T1, {i}.1.1-T2"
        doc.add("controls", f"{i}.1.1-C1", _block(head, [
            f"rigor {rng.randint(1, 4)}", "form structural", "status implemented",
            "disposition D1", f"note {quote(_phrase(rng))}"]))
    doc.add("dispositions", "D1", _block("disposition D1", [
        'component "storage layer"', "implements 1.1.1-C1", "implements 2.1.1-C1",
        f"note {quote(_phrase(rng))}"]))
    doc.add("functional_requirements", "F1", _block("funcreq F1", [
        f"note {quote(_phrase(rng))}"]))
    doc.add("design_concepts", "DC1", _block('concept DC1 "help desk"', [
        "ethical 1.1.1", "ethical 2.1.1-C1", "functional F1"]))
    doc.add("personas", "P1", _block(f"persona P1 {quote(_phrase(rng, 2, 3))}", [
        f"stakeholder {holders[-1]}", f"note {quote(_phrase(rng))}"]))
    top = sorted(range(1, n_values + 1), key=lambda i: ranks[i - 1])[:2]
    for aid, head, role in (("A1", "priority 1", "executive"), ("A2", "risk 1.1.1-C1", "engineer"),
                            ("A3", "mission", "executive"), ("A4", "decision", "executive"),
                            ("A5", 'rule "VBE-C08"', "value_expert")):
        doc.add("attestations", aid, _block(f"attestation {aid} {head}", [
            f"by {quote(_phrase(rng, 2, 2))}", f"role {role}", f'date "{_date(rng)}"',
            f"note {quote(_phrase(rng))}"] + (["consent true"] if aid == "A5" else [])))
    doc.add("register", "mission", _block("mission", [
        f"note {quote(_phrase(rng, 8, 14))}"] + [f"feature {i}" for i in top] + ["signed A3"]))
    doc.add("register", "investment_decision", _block("decision go", [
        f"note {quote(_phrase(rng))}", "signed A4"]))
    doc.add("feedback", "FB1", _block("feedback FB1", [
        f'date "{_date(rng)}"', f"from {rng.choice(holders)}", f"note {quote(_phrase(rng))}",
        f"resulted {statements[0]}", "resulted 1.1"]))
    doc.add("feedback", "FB2", _block("feedback FB2", [
        "from market", "reprioritize true", f"note {quote(_phrase(rng))}"]))
    doc.add("register", "alias_map", 'alias "anonymity" "privacy"')
    return doc


_EDITED_NOTE = "note \"edited in revision two\""


def corpus_register(index: int, seed: int) -> tuple[str, str, dict]:
    """(source, seeded edit of the source, facts including the expected diff)."""
    rng = random.Random(f"corpus/{index}/{seed}")
    doc = _corpus_blocks(rng, f"corpus {seed}-{index}", index)
    source = doc.render()
    counts = {kind: doc.count(kind) for kind in
              ("stakeholders", "statements", "core_values", "attestations")}

    # The edit rewrites a few statements, drops the persona, adds a
    # stakeholder and changes a control's rigor.
    expected = {"added": {"stakeholders": ["ST99"]}, "removed": {"personas": ["P1"]},
                "modified": {"statements": [], "controls": ["1.1.1-C1"]}}
    targets = set(rng.sample([eid for k, eid, _ in doc.blocks if k == "statements"], 3))
    edited = _Corpus()
    for kind, eid, text in doc.blocks:
        if kind == "statements" and eid in targets:
            text = text.replace("\nend", f"\n  {_EDITED_NOTE}\nend")
            expected["modified"]["statements"].append(eid)
        elif kind == "personas":
            continue
        elif kind == "controls" and eid == "1.1.1-C1":
            rigor = "  rigor 1" if "  rigor 4" in text else "  rigor 4"
            text = re.sub(r"  rigor \d", rigor, text)
        edited.add(kind, eid, text)
        if kind == "stakeholders" and eid == "ST01":
            edited.add(kind, "ST99", _block('stakeholder ST99 "late joiners"', ["kind direct"]))
    return source, edited.render(), {"counts": counts, "diff": expected}
