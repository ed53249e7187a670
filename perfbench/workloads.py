"""The three workloads: inputs, the timed operation and its output checks.

Every workload is a closed loop with one client.  ``setup`` makes the
inputs from the seed and verifies them; ``load`` reads them back in the
measuring process; ``run`` is the timed operation, and a long one calls
``speed.take()`` between its stages (see worker.SpeedSamples); ``check``
judges its output after the clock has stopped.  An operation fails on a
wrong exit code, a digest mismatch, a broken fixed point or an exception.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONOPTIMIZE", None)
    return env


def verified_document(text: str, name: str):
    """Parse generated register text, which must parse with zero error
    diagnostics and pass ``validate_register`` before any timing."""
    from evrforge import dsl, model

    parsed = dsl.parse_register(text, name)
    if parsed.document is None or parsed.errors:
        raise ValueError(f"generated {name} does not parse: "
                         f"{[d.render() for d in parsed.errors[:3]]}")
    if model.validate_register(parsed.document):
        raise ValueError(f"generated {name} fails validate_register")
    return parsed.document


class Workload:
    """Defaults shared by the workloads; each one overrides what differs."""

    name = ""

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed

    def schedule(self, inputs: list[Input]):
        while True:
            yield from inputs

    def headline(self, key: str) -> bool:
        """Whether ops on this input count toward op_ms_p50 and op_ms_tail."""
        return True

    def pinned_ok(self) -> bool:
        return True

    def probe_path(self, inputs: list[Input]) -> Path:
        """The register the per-rule probe runs on: the largest input."""
        return max(inputs, key=lambda inp: inp.kb).data["path"]


class Input:
    """One distinct input of a workload; ops on it are grouped under its key."""

    def __init__(self, key: str, kb: float, data: dict) -> None:
        self.key = key
        self.kb = kb
        self.data = data
        self.reference: dict | None = None


# ---------------------------------------------------------------------------
# cli-mix

def _fixture(name: str) -> str:
    return f"tests/fixtures/{name}.evr"


# A fixed round robin over the five committed fixtures.  The seed picks
# where the loop starts.
CLI_ROUND = (
    ["check", _fixture("tm_clean")],
    ["check", _fixture("tm_warnings"), "--format=interchange"],
    ["report", _fixture("tm_clean"), "--kind=audit"],
    ["report", _fixture("tm_full"), "--kind=mission"],
    ["report", _fixture("tm_chain"), "--kind=coverage"],
    ["score", _fixture("tm_warnings")],
    ["trace", _fixture("tm_clean"), "2.1.1-C1"],
    ["export", _fixture("tm_full"), "--format=interchange"],
    ["export", _fixture("tm_chain"), "--format=dot"],
    ["export", _fixture("tm_clean"), "--format=csv"],
    ["diff", _fixture("tm_clean"), _fixture("tm_warnings")],
    ["diff", _fixture("tm_warnings"), _fixture("tm_clean")],
    ["check", _fixture("tm_error")],
    ["check", _fixture("tm_full"), "--format=interchange"],
)


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


def rule_triples(argv: list[str], stdout: str, stderr: str) -> list[list[str]]:
    """(rule id, severity, subject) of every rule finding, sorted."""
    if "--format=interchange" in argv:
        found = [[d["rule_id"], d["severity"], d["subject"]]
                 for d in json.loads(stdout)["diagnostics"]]
    else:
        found = []
        for line in stderr.splitlines():
            severity, _, rest = line.partition(" ")
            rule_id, _, rest = rest.partition(" ")
            if severity in ("ERROR", "WARNING") and rule_id.startswith("VBE-"):
                found.append([rule_id, severity.lower(), rest.partition(": ")[0]])
    return sorted(found)


def cli_outcome(argv: list[str], code: int, stdout: str, stderr: str) -> dict:
    """The parts of a CLI call's output that the benchmark pins.

    ``check`` output will gain source locations, so only its exit code, its
    closing count line and its finding triples are pinned; every other
    command is pinned byte for byte.
    """
    if argv[0] == "check":
        lines = stderr.splitlines()
        closing = lines[-1] if lines and "--format=interchange" not in argv else ""
        return {"exit": code, "closing": closing,
                "triples": rule_triples(argv, stdout, stderr)}
    return {"exit": code, "stdout_sha256": sha256(stdout)}


class CliMix(Workload):
    name = "cli-mix"

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        self.traced = False
        self.trace_out = work / "cli-spans.jsonl"

    def setup(self) -> dict:
        import evrforge.cli  # noqa: F401  (compiles the package's .pyc files)

        missing = [a[1] for a in CLI_ROUND if not (ROOT / a[1]).is_file()]
        if missing:
            raise FileNotFoundError(f"missing fixtures: {missing}")
        warm = subprocess.run([sys.executable, "-m", "evrforge.cli", "score",
                               _fixture("tm_clean")], cwd=ROOT, env=child_env(),
                              capture_output=True, timeout=60)
        if warm.returncode != 0:
            raise RuntimeError(f"warm-up call failed: {warm.stderr.decode()[-300:]}")
        return {"inputs": {p.name: p.stat().st_size for p in sorted(FIXTURES.glob("*.evr"))}}

    def load(self) -> list[Input]:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["cli-mix"]
        golden = (FIXTURES / "audit_golden.txt").read_text(encoding="utf-8")
        inputs = []
        for argv in CLI_ROUND:
            key = cli_key(argv)
            kb = sum((ROOT / a).stat().st_size for a in argv if a.endswith(".evr")) / 1024
            inp = Input(key, kb, {"argv": argv, "expected": expected[key]})
            if argv[:3] == ["report", _fixture("tm_clean"), "--kind=audit"]:
                inp.data["golden"] = golden
            inputs.append(inp)
        return inputs

    def schedule(self, inputs: list[Input]):
        i = self.seed % len(inputs)
        while True:
            yield inputs[i]
            i = (i + 1) % len(inputs)

    def probe_path(self, inputs: list[Input]) -> Path:
        return FIXTURES / "tm_clean.evr"

    def command(self, argv: list[str]) -> list[str]:
        if self.traced:
            return [sys.executable, str(TRACED_CLI), str(self.trace_out)] + argv
        return [sys.executable, "-m", "evrforge.cli"] + argv

    def run(self, inp: Input, op: int, speed):
        env = child_env()
        if self.traced:
            env["PERFBENCH_OP"] = str(op)
        done = subprocess.run(self.command(inp.data["argv"]), cwd=ROOT, env=env,
                              capture_output=True, timeout=60)
        return done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")

    def check(self, inp: Input, result) -> bool:
        code, stdout, stderr = result
        if "golden" in inp.data and stdout != inp.data["golden"]:
            return False
        return cli_outcome(inp.data["argv"], code, stdout, stderr) == inp.data["expected"]


# ---------------------------------------------------------------------------
# ladder-audit

LADDER_SIZES = (100, 200)


class LadderAudit(Workload):
    name = "ladder-audit"

    def setup(self) -> dict:
        meta = {}
        for n in LADDER_SIZES:
            text, facts = gen.ladder_register(n, self.seed)
            doc = verified_document(text, f"ladder-{n}.evr")
            counts = {kind: len(getattr(doc, kind)) for kind in
                      ("core_values", "qualities", "evrs", "threats", "controls",
                       "attestations")}
            if any(counts[k] != facts[k] for k in counts):
                raise ValueError(f"ladder n={n} entity counts {counts} differ from the generator")
            (self.work / f"ladder-{n}.evr").write_text(text, encoding="utf-8")
            (self.work / f"ladder-{n}.json").write_text(json.dumps(facts), encoding="utf-8")
            meta[f"n={n}"] = {"bytes": len(text.encode("utf-8")), **counts}
        return {"inputs": meta}

    def load(self) -> list[Input]:
        inputs = []
        for n in LADDER_SIZES:
            path = self.work / f"ladder-{n}.evr"
            facts = json.loads((self.work / f"ladder-{n}.json").read_text(encoding="utf-8"))
            inputs.append(Input(f"n={n}", path.stat().st_size / 1024,
                                {"path": path, "facts": facts}))
        return inputs

    def headline(self, key: str) -> bool:
        return key == f"n={LADDER_SIZES[-1]}"

    def run(self, inp: Input, op: int, speed):
        from evrforge import cli, dsl, rules

        with open(inp.data["path"], encoding="utf-8") as handle:
            source = handle.read()
        doc = dsl.parse_register(source, str(inp.data["path"])).document
        speed.take()
        diagnostics = rules.run_rules(doc)
        speed.take()
        report = cli.render_audit_report(doc, diagnostics)
        return report, len(diagnostics)

    def check(self, inp: Input, result) -> bool:
        report, findings = result
        outcome = {"sha256": sha256(report), "findings": findings}
        if inp.reference is None:
            if not _audit_matches_facts(report, inp.data["facts"]):
                return False
            inp.reference = outcome
        return outcome == inp.reference


def _audit_matches_facts(report: str, facts: dict) -> bool:
    """The coverage table and maturity line agree with what was generated."""
    lines = report.split("\n")
    start = lines.index("COVERAGE") + 3  # title, underline, column header
    rows = []
    for line in lines[start:]:
        if not line:
            break
        cells = line.split()
        rows.append([cells[0]] + [int(c) for c in cells[1:8]] + [cells[8] == "yes"])
    expected = [list(row) for row in facts["coverage"]]
    maturity = lines[lines.index("MATURITY") + 2]
    header = [f"project: ladder n={facts['n']}", f"version: {facts['seed']}", "phase: design"]
    return rows == expected and maturity == facts["maturity"] and lines[2:5] == header


# ---------------------------------------------------------------------------
# corpus-roundtrip

CORPUS_SIZE = 16


class CorpusRoundtrip(Workload):
    name = "corpus-roundtrip"

    def setup(self) -> dict:
        meta = {}
        for i in range(CORPUS_SIZE):
            source, edited, facts = gen.corpus_register(i, self.seed)
            verified_document(source, f"corpus-{i}.evr")
            verified_document(edited, f"corpus-{i}.edit.evr")
            (self.work / f"corpus-{i}.evr").write_text(source, encoding="utf-8")
            (self.work / f"corpus-{i}.edit.evr").write_text(edited, encoding="utf-8")
            (self.work / f"corpus-{i}.json").write_text(json.dumps(facts), encoding="utf-8")
            meta[f"corpus-{i}"] = {"bytes": len(source.encode("utf-8")),
                                   "edit_bytes": len(edited.encode("utf-8")),
                                   **facts["counts"]}
        return {"inputs": meta}

    def load(self) -> list[Input]:
        inputs = []
        for i in range(CORPUS_SIZE):
            path = self.work / f"corpus-{i}.evr"
            edit = self.work / f"corpus-{i}.edit.evr"
            facts = json.loads((self.work / f"corpus-{i}.json").read_text(encoding="utf-8"))
            inputs.append(Input(f"corpus-{i}",
                                (path.stat().st_size + edit.stat().st_size) / 1024,
                                {"path": path, "edit": edit, "facts": facts}))
        return inputs

    def schedule(self, inputs: list[Input]):
        order = list(inputs)
        random.Random(f"corpus-order/{self.seed}").shuffle(order)
        while True:
            yield from order

    def pinned_ok(self) -> bool:
        """Canonical text and interchange of the committed fixtures are unchanged."""
        from evrforge import dsl

        pinned = json.loads(EXPECTED.read_text(encoding="utf-8"))["fixtures"]
        for name, digests in pinned.items():
            doc = dsl.parse_register((FIXTURES / name).read_text(encoding="utf-8"), name).document
            if doc is None or fixture_digests(doc) != digests:
                return False
        return True

    def run(self, inp: Input, op: int, speed):
        from evrforge import dsl, trace

        with open(inp.data["path"], encoding="utf-8") as handle:
            source = handle.read()
        doc = dsl.parse_register(source, str(inp.data["path"])).document
        canonical = dsl.serialize_canonical(doc)
        fixed_point = dsl.parse_register(canonical, "canonical").document == doc
        interchange = dsl.export_interchange(doc)
        with open(inp.data["edit"], encoding="utf-8") as handle:
            edited = dsl.parse_register(handle.read(), str(inp.data["edit"])).document
        changes = trace.diff_registers(doc, edited)
        return canonical, fixed_point, interchange, changes

    def check(self, inp: Input, result) -> bool:
        canonical, fixed_point, interchange, changes = result
        facts = inp.data["facts"]
        diff = {bucket: {kind: list(ids) for kind, ids in getattr(changes, bucket).items() if ids}
                for bucket in ("added", "removed", "modified")}
        outcome = {"canonical": sha256(canonical), "interchange": sha256(interchange)}
        if inp.reference is None:
            exported = json.loads(interchange)
            counts = {kind: len(exported[kind]) for kind in facts["counts"]}
            if counts != facts["counts"]:
                return False
            inp.reference = outcome
        return fixed_point and diff == facts["diff"] and outcome == inp.reference


def fixture_digests(doc) -> dict:
    from evrforge import dsl

    return {"canonical": sha256(dsl.serialize_canonical(doc)),
            "interchange": sha256(dsl.export_interchange(doc))}


WORKLOADS = {w.name: w for w in (CliMix, LadderAudit, CorpusRoundtrip)}
