"""Command line front end.

Subcommands: check, report, trace, score, diff, init, export.  Diagnostics
go to standard error; reports and exported artifacts go to standard output
or the path given with --out.  Exit codes: 0 clean, 1 warnings only, 2
errors, 3 usage or I/O failure (a standard output closed early too), 4
internal error; each exit 3 prints one line on stderr, argparse's ``invalid
choice`` line for an unknown --format or --kind and ``evrforge: ...``
otherwise.  A file without a ``register`` header (empty, blank or
comment-only) exits 2 with one line on stderr.  Any other exception in
``main`` is a defect of this tool: it prints one line, ``evrforge: internal
error: TYPE: MESSAGE``, and exits 4, or, under ``python -X dev``,
propagates with its traceback.

Output is byte-deterministic for fixed inputs: reports never include wall
clock time, only dates recorded inside the register itself.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dsl, rules, trace
from . import model as m

EXIT_CLEAN = 0
EXIT_WARNINGS = 1
EXIT_ERRORS = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 3, not 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evrforge",
                     description="Check, analyze and report on ethical value registers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse a register and run the rule catalog")
    p.set_defaults(handler=cmd_check)
    p.add_argument("path")
    p.add_argument("--rules", default=None,
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--format", dest="fmt", default="text", choices=("text", "interchange"))
    p.add_argument("--strict", action="store_true",
                   help="exit 2 when warnings are present")

    p = sub.add_parser("report", help="render an audit, mission or coverage report")
    p.set_defaults(handler=cmd_report)
    p.add_argument("path")
    p.add_argument("--kind", default="audit", choices=_REPORTS)
    p.add_argument("--out", default=None)

    p = sub.add_parser("trace", help="print the chain from core value to an entity")
    p.set_defaults(handler=cmd_trace)
    p.add_argument("path")
    p.add_argument("entity_id")

    p = sub.add_parser("score", help="print the ethical maturity score")
    p.set_defaults(handler=cmd_score)
    p.add_argument("path")

    p = sub.add_parser("diff", help="compare two register versions")
    p.set_defaults(handler=cmd_diff)
    p.add_argument("old_path")
    p.add_argument("new_path")

    p = sub.add_parser("init", help="write a commented scaffold register")
    p.set_defaults(handler=cmd_init)
    p.add_argument("project_name")
    p.add_argument("--out", default=None)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("export", help="export interchange, dot or csv artifacts")
    p.set_defaults(handler=cmd_export)
    p.add_argument("path")
    p.add_argument("--format", dest="fmt", default="interchange", choices=_EXPORTS)
    p.add_argument("--out", default=None)

    return parser


class _Failure(Exception):
    """Ends a subcommand with an exit code and, unless the message is None,
    one ``evrforge: MESSAGE`` line on standard error."""

    def __init__(self, code: int, message: str | None):
        super().__init__(message)
        self.code = code
        self.message = message


def _read_source(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise _Failure(EXIT_USAGE, f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8-sig")  # drops a leading BOM
    except UnicodeDecodeError as exc:
        # exc.object is the input after any BOM; all before exc.start is valid.
        before = exc.object[:exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        line, col = before.count("\n") + 1, len(before) - before.rfind("\n")
        raise _Failure(EXIT_USAGE,
                       f"cannot decode {path}:{line}:{col}: byte 0x{exc.object[exc.start]:02x} "
                       f"is not valid UTF-8 ({exc.reason})") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")  # as text-mode open() does


def _parse_file(path: str) -> dsl.ParseResult:
    result = dsl.parse_register(_read_source(path), path)
    if result.document is not None and result.header is None:
        raise _Failure(EXIT_ERRORS, f"{path}: no register header "
                                    "(the file is empty or holds only comments)")
    return result


def _print_parse_diagnostics(result: dsl.ParseResult) -> None:
    for diagnostic in result.diagnostics:
        print(diagnostic.render(), file=sys.stderr)


def _parsed(path: str) -> dsl.ParseResult:
    """The parse of ``path``, which holds a document; on parse errors its
    diagnostics go to standard error and the subcommand exits 2."""
    result = _parse_file(path)
    if result.document is None:
        _print_parse_diagnostics(result)
        raise _Failure(EXIT_ERRORS, None)
    return result


def _write_file(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8") as handle:
            handle.write(text)
    except FileExistsError as exc:
        raise _Failure(EXIT_USAGE, f"{path} already exists (use --force to overwrite)") from exc
    except OSError as exc:
        raise _Failure(EXIT_USAGE, f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_file(out, text)


def _tally(*groups) -> tuple[int, int]:
    """The error and warning counts over groups of parse or rule diagnostics."""
    severities = [d.severity for group in groups for d in group]
    return severities.count("error"), severities.count("warning")


def _exit_code(errors: int, warnings: int, strict: bool = False) -> int:
    """Errors exit 2, as warnings do under --strict; warnings alone exit 1."""
    if errors or (warnings and strict):
        return EXIT_ERRORS
    return EXIT_WARNINGS if warnings else EXIT_CLEAN


def cmd_check(args) -> int:
    selection = None
    if args.rules:
        selection = {rid.strip() for rid in args.rules.split(",") if rid.strip()}
        try:
            rules.require_known(selection)
        except m.RegisterError as exc:
            raise _Failure(EXIT_USAGE, str(exc)) from exc

    result = _parse_file(args.path)
    doc = result.document
    diagnostics = () if doc is None else rules.run_rules(doc, selection)
    errors, warnings = _tally(result.diagnostics, diagnostics)
    if args.fmt == "interchange":
        payload = {
            "parse_diagnostics": [
                {"code": d.code, "severity": d.severity, "file": d.span.file,
                 "line": d.span.start_line, "col": d.span.start_col,
                 "message": d.message}
                for d in result.diagnostics
            ],
            "diagnostics": [
                {"rule_id": d.rule_id, "severity": d.severity,
                 "subject": d.subject, "message": d.message}
                for d in diagnostics
            ],
        }
        sys.stdout.write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
    else:
        _print_parse_diagnostics(result)
        for diagnostic in diagnostics:
            print(diagnostic.render(), file=sys.stderr)
        print(f"{errors} errors, {warnings} warnings", file=sys.stderr)
    return _exit_code(errors, warnings, args.strict)


def _signature_line(doc: m.RegisterDocument, attestation_id: str) -> str:
    att = doc.index.attestations.get(attestation_id)
    if att is None:
        return attestation_id
    return f"{att.signatory_name} ({att.signatory_role.value}), {att.date}"


def render_mission_report(doc: m.RegisterDocument) -> str:
    lines = ["VALUE MISSION", "============="]
    if doc.mission is None:
        lines.append("none")
    else:
        lines.extend(doc.mission.text.split("\n") if doc.mission.text else ["none"])
    lines.append("")
    lines.append("featured core values:")
    by_id = doc.index.core_values
    if doc.mission is not None and doc.mission.featured:
        for i, ref in enumerate(doc.mission.featured, start=1):
            name = by_id[ref].name if ref in by_id else str(ref)
            lines.append(f"  {i}. {name}")
    else:
        lines.append("  none")
    lines.append("")
    lines.append("signed:")
    if doc.mission is not None and doc.mission.signed_by:
        for ref in doc.mission.signed_by:
            lines.append(f"  {_signature_line(doc, ref)}")
    else:
        lines.append("  none")
    return "\n".join(lines) + "\n"


def _coverage_table(doc: m.RegisterDocument) -> list[str]:
    rows = trace.coverage_report(doc)
    if not rows:
        return ["none"]
    table = [trace.COVERAGE_CSV_HEADER.split(",")]
    table += [row.cells("yes", "no") for row in rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    return [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in table
    ]


def render_coverage_report(doc: m.RegisterDocument) -> str:
    lines = ["VALUE COVERAGE", "=============="]
    lines.extend(_coverage_table(doc))
    return "\n".join(lines) + "\n"


def render_audit_report(doc: m.RegisterDocument,
                        diagnostics: tuple[rules.Diagnostic, ...]) -> str:
    lines = ["ETHICAL VALUE REGISTER AUDIT", "============================"]
    lines.append(f"project: {doc.project.name}")
    lines.append(f"version: {doc.project.version or 'none'}")
    lines.append(f"phase: {doc.phase.value}")

    lines.extend(["", "MISSION", "-------"])
    if doc.mission is None:
        lines.append("none")
    else:
        lines.extend(doc.mission.text.split("\n") if doc.mission.text else ["none"])
        by_id = doc.index.core_values
        featured = "; ".join(
            f"{ref} {by_id[ref].name}" if ref in by_id else str(ref)
            for ref in doc.mission.featured
        )
        lines.append(f"featured: {featured or 'none'}")
        signatures = "; ".join(_signature_line(doc, ref) for ref in doc.mission.signed_by)
        lines.append(f"signed: {signatures or 'none'}")

    lines.extend(["", "PRIORITIES", "----------"])
    if doc.core_values:
        for cv in sorted(doc.core_values, key=lambda c: c.priority_rank):
            lines.append(f"{cv.priority_rank}  {cv.name}")
    else:
        lines.append("none")

    lines.extend(["", "COVERAGE", "--------"])
    lines.extend(_coverage_table(doc))

    lines.extend(["", "DIAGNOSTICS", "-----------"])
    lines.append("{} errors, {} warnings".format(*_tally(diagnostics)))
    for diagnostic in diagnostics:
        lines.append(diagnostic.render())

    lines.extend(["", "ATTESTATIONS", "------------"])
    if doc.attestations:
        for att in doc.attestations:
            subject = dsl._ATTESTED_WORDS[att.subject.kind][0]
            if att.subject.ref:
                subject += f" {att.subject.ref}"
            consent = ", consent given" if att.consent else ""
            lines.append(f"{att.id}  {subject}  {att.signatory_name} "
                         f"({att.signatory_role.value})  {att.date}{consent}")
    else:
        lines.append("none")

    lines.extend(["", "MATURITY", "--------"])
    lines.append(trace.maturity_score(doc).render())
    return "\n".join(lines) + "\n"


# Report kinds, in the order --help lists them.  A renderer is looked up when
# called, so a replaced module attribute (a tracer's wrapper) is what runs.
_REPORTS = {
    "audit": lambda doc, diagnostics: render_audit_report(doc, diagnostics),
    "mission": lambda doc, diagnostics: render_mission_report(doc),
    "coverage": lambda doc, diagnostics: render_coverage_report(doc),
}


def cmd_report(args) -> int:
    result = _parsed(args.path)
    diagnostics = rules.run_rules(result.document)
    _write_output(_REPORTS[args.kind](result.document, diagnostics), args.out)
    return _exit_code(*_tally(diagnostics, result.diagnostics))


def cmd_trace(args) -> int:
    graph = trace.build_graph(_parsed(args.path).document)
    try:
        chain = trace.trace_chain(graph, args.entity_id)
    except m.UnknownEntityError as exc:
        raise _Failure(EXIT_USAGE, str(exc)) from exc
    for node in chain:
        print(f"{node.id}  {node.kind}  {node.name}")
    return EXIT_CLEAN


def cmd_score(args) -> int:
    print(trace.maturity_score(_parsed(args.path).document).render())
    return EXIT_CLEAN


def cmd_diff(args) -> int:
    old_result = _parse_file(args.old_path)
    new_result = _parse_file(args.new_path)
    if old_result.document is None or new_result.document is None:
        for result in (old_result, new_result):
            if result.document is None:
                _print_parse_diagnostics(result)
        return EXIT_ERRORS

    changes = trace.diff_registers(old_result.document, new_result.document)
    if changes.empty:
        print("no changes")
        return EXIT_CLEAN
    if changes.new_core_values_require_reprioritization:
        print("REPRIORITIZATION REQUIRED")
    for label, bucket in (("added", changes.added), ("removed", changes.removed),
                          ("modified", changes.modified)):
        entries = [(kind, eid) for kind, ids in bucket.items() for eid in ids]
        if not entries:
            continue
        print(f"{label}:")
        for kind, eid in entries:
            print(f"  {kind} {eid}")
    return EXIT_CLEAN


_TEMPLATE = '''\
# Ethical value register scaffold for {name}.
# One example block of every kind; adapt or delete freely.
# Check it any time with: evrforge check <this file>

register {qname} phase design

soi
  name {qname}
  note "Describe in broad outline what the system is meant to do."
  region "EU"
end

# Partner systems the service depends on.
sos S1 "cloud storage provider"
  cooperation acknowledged
  tier 1
  personal_data true
  ethical_scope true
  enabling_access true
end

stakeholder ST1 "end users"
  kind direct
  note "People who use the system directly."
  region "EU"
  motivation "wants quick answers they can trust"
  power "can switch to another service at any time"
  knowledge "knows their own needs and constraints"
  legitimization "their personal data is processed"
end

stakeholder ST2 "local communities"
  kind indirect
  note "Affected by the system without ever using it."
end

context CTX1 "everyday use"
  captured pre_design
  element "user records"
  element "analytics store"
  data_type "usage data"
  flow "user records" "analytics store" "usage data"
  subject ST1
  expect "data is processed only for the declared purpose"
end

# An elicitation session must use all three standing lenses; add a
# culture-specific lens for every region the system will be deployed in.
session SES1
  date "2026-01-15"
  participant ST1
  participant ST2
  lens utilitarian
  lens virtue
  lens duty
  lens cultural "a regional ethics tradition"
end

statement V1
  session SES1
  by ST1
  lens cultural "a regional ethics tradition"
  polarity positive
  note "The service saves people time."
  value "convenience"
  extracted "efficiency"
end

corevalue 1 "privacy" rank 1
  alias "data protection"
  intrinsic true
  endurance 5
  depth 4
  indivisibility 4
  bearer_independence 4
  intrinsic_worth 5
  support V1
end

quality 1.1 "confidentiality" of 1 direction supports
  source conceptual_investigation
end

evr 1.1.1 "Personal data is encrypted at rest and in transit" of 1.1
  kind technical
  threshold "encrypted records" ">=" "100 percent" "coverage is verifiable in storage audits"
  risk high
  legal "data protection law"
  harm_life false
  harm_health true
  harm_legal_breach true
  likelihood reasonably_likely
  demand 3 "a breach exposes personal data"
end

threat 1.1.1-T1 of 1.1.1
  realistic true
  note "A misconfigured bucket exposes stored records."
end

control 1.1.1-C1 for 1.1.1-T1
  rigor 3
  form structural
  status implemented
  disposition D1
  note "Storage encryption is enforced by policy and checked in CI."
end

disposition D1
  component "storage layer"
  implements 1.1.1-C1
  note "Default-on encryption for every data store."
end

funcreq F1
  note "Users can search their own records."
end

concept DC1 "baseline architecture"
  ethical 1.1.1
  functional F1
end

persona P1 "a neighbour affected by the rollout"
  stakeholder ST2
  note "Never uses the system, still lives with its effects."
end

attestation A1 priority 1
  by "Jane Example"
  role executive
  date "2026-01-20"
  note "I endorse privacy as our top priority."
end

attestation A2 risk 1.1.1-C1
  by "Sam Example"
  role engineer
  date "2026-01-21"
  note "I stand by the chosen control rigor."
end

attestation A3 mission
  by "Jane Example"
  role executive
  date "2026-01-22"
end

attestation A4 decision
  by "Jane Example"
  role executive
  date "2026-01-22"
end

attestation A5 rule "VBE-C12"
  by "Alex Example"
  role stakeholder_rep
  date "2026-01-23"
  consent true
  note "The user panel agrees with the value priorities."
end

mission
  note {mission}
  feature 1
  signed A3
end

decision go
  note "The value analysis supports proceeding."
  signed A4
end

feedback FB1
  date "2026-02-01"
  from ST1
  note "Early testers ask for clearer consent wording."
  resulted V1
  reprioritize false
end

alias "secrecy" "privacy"
'''


def scaffold_text(project_name: str) -> str:
    mission = f"We build {project_name} so that people keep control over their personal data."
    return _TEMPLATE.format(name=project_name, qname=dsl._quote(project_name),
                            mission=dsl._quote(mission))


def cmd_init(args) -> int:
    if not args.project_name.strip():
        raise _Failure(EXIT_USAGE, "project name must not be empty")
    if "\n" in args.project_name or "\r" in args.project_name:
        raise _Failure(EXIT_USAGE, "project name must not contain line breaks")
    out = args.out if args.out is not None else f"{args.project_name}.evr"
    _write_file(out, scaffold_text(args.project_name), "w" if args.force else "x")
    return EXIT_CLEAN


# Export formats, in the same listed order and looked up the same way.
_EXPORTS = {
    "interchange": lambda doc: dsl.export_interchange(doc),
    "dot": lambda doc: trace.export_dot(doc),
    "csv": lambda doc: trace.coverage_csv(doc),
}


def cmd_export(args) -> int:
    _write_output(_EXPORTS[args.fmt](_parsed(args.path).document), args.out)
    return EXIT_CLEAN


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except _Failure as failure:
        if failure.message is not None:
            print(f"evrforge: {failure.message}", file=sys.stderr)
        return failure.code
    except BrokenPipeError:  # devnull takes the flush at exit, as the signal docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("evrforge: cannot write standard output: Broken pipe", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        if sys.flags.dev_mode:
            raise
        message = " ".join(str(exc).splitlines())
        print(f"evrforge: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
