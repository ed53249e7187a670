from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from evrforge import cli, dsl, trace
from evrforge import model as m

from .conftest import FIXTURES
from .support import import_interchange

CLEAN = str(FIXTURES / "tm_clean.evr")
WARNINGS = str(FIXTURES / "tm_warnings.evr")
ERROR = str(FIXTURES / "tm_error.evr")
CHAIN = str(FIXTURES / "tm_chain.evr")


def write_doc(tmp_path, doc, name="register.evr") -> str:
    path = tmp_path / name
    path.write_text(dsl.serialize_canonical(doc), encoding="utf-8")
    return str(path)


class TestCheck:
    def test_clean_fixture_exits_zero(self, capsys):
        assert cli.main(["check", CLEAN]) == 0
        assert "0 errors, 0 warnings" in capsys.readouterr().err

    def test_warnings_fixture_exits_one(self, capsys):
        assert cli.main(["check", WARNINGS]) == 1
        err = capsys.readouterr().err
        assert "VBE-C14b" in err
        assert "0 errors, 1 warnings" in err

    def test_error_fixture_exits_two_with_one_r02_line(self, capsys):
        assert cli.main(["check", ERROR]) == 2
        err = capsys.readouterr().err
        r02_lines = [line for line in err.splitlines() if "VBE-R02" in line]
        assert len(r02_lines) == 1
        assert r02_lines[0].startswith("ERROR VBE-R02 register:")

    def test_an_id_two_graph_kinds_share_is_one_p010(self, tmp_path, capsys):
        # The trace graph keys nodes by id: a concept named like the
        # disposition D1 would hide it from ``trace`` and ``export``.
        source = (FIXTURES / "scaffold_demo.evr").read_text(encoding="utf-8")
        path = tmp_path / "dup.evr"
        path.write_text(source.replace("\nconcept DC1 ", "\nconcept D1 "), encoding="utf-8")
        assert cli.main(["check", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("ERROR")]
        assert errors == [f"ERROR P010 {path}:119:1: design concept id 'D1' is also a disposition id"]

    def test_nonexistent_path_exits_three(self, capsys):
        assert cli.main(["check", "/nonexistent/register.evr"]) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_strict_promotes_warnings(self):
        assert cli.main(["check", WARNINGS, "--strict"]) == 2

    def test_rules_selection(self, capsys):
        assert cli.main(["check", ERROR, "--rules", "VBE-C15"]) == 1
        err = capsys.readouterr().err
        assert "VBE-R02" not in err
        assert "VBE-C15" in err

    def test_unknown_rule_id_exits_three(self, capsys):
        assert cli.main(["check", CLEAN, "--rules", "VBE-R99"]) == 3
        assert "VBE-R99" in capsys.readouterr().err

    def test_unknown_rule_id_is_refused_before_the_register_is_read(self, tmp_path, capsys):
        path = tmp_path / "broken.evr"
        path.write_text("register oops\n", encoding="utf-8")
        assert cli.main(["check", str(path), "--rules", "VBE-R99"]) == 3
        assert capsys.readouterr() == ("", "evrforge: unknown rule ids: VBE-R99\n")

    def test_interchange_format_emits_json(self, capsys):
        assert cli.main(["check", WARNINGS, "--format", "interchange"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"][0]["rule_id"] == "VBE-C14b"

    def test_unknown_format_exits_three(self):
        assert cli.main(["check", CLEAN, "--format", "yaml"]) == 3

    def test_interchange_lists_parse_warnings_with_their_position(self, tmp_path, capsys):
        path = tmp_path / "extra.evr"
        path.write_text('register "X" phase concept\nsoi\n  name "X"\n  colour "blue"\nend\n',
                        encoding="utf-8")
        assert cli.main(["check", str(path), "--format", "interchange"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "parse_diagnostics": [{"code": "P090", "severity": "warning", "file": str(path),
                                   "line": 4, "col": 3,
                                   "message": "unknown attribute key 'colour'"}],
            "diagnostics": [],
        }

    def test_interchange_lists_the_parse_errors_of_a_broken_register(self, tmp_path, capsys):
        path = tmp_path / "broken.evr"
        path.write_text('register "X" phase concept\nstakeholder S1 "a"\n  kind nope\nend\n',
                        encoding="utf-8")
        assert cli.main(["check", str(path), "--format", "interchange"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out) == {
            "parse_diagnostics": [{"code": "P020", "severity": "error", "file": str(path),
                                   "line": 3, "col": 8,
                                   "message": "expected one of direct, indirect for "
                                              "stakeholder kind, found 'nope'"}],
            "diagnostics": [],
        }

    def test_parse_errors_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.evr"
        path.write_text('register "X" phase concept\nquality 1.1 "q" of 1 '
                        'direction supports\nend\n', encoding="utf-8")
        assert cli.main(["check", str(path)]) == 2
        assert "P011" in capsys.readouterr().err

    def test_input_file_is_not_mutated(self):
        before = (FIXTURES / "tm_clean.evr").read_bytes()
        cli.main(["check", CLEAN])
        assert (FIXTURES / "tm_clean.evr").read_bytes() == before


class TestReport:
    def test_mission_report_contains_fixture_sentence(self, capsys):
        assert cli.main(["report", CLEAN, "--kind", "mission"]) == 0
        out = capsys.readouterr().out
        assert "regardless of insurance status or money" in out
        assert "equality" in out

    def test_register_without_mission_renders_none_and_warns(
            self, tmp_path, clean_doc, capsys):
        stripped = replace(
            clean_doc,
            mission=None,
            attestations=tuple(a for a in clean_doc.attestations if a.id != "A4"),
        )
        assert m.validate_register(stripped) == ()
        path = write_doc(tmp_path, stripped)
        assert cli.main(["report", path, "--kind", "mission"]) == 1
        out = capsys.readouterr().out
        assert "none" in out

    def test_a_signature_the_document_lacks_is_printed_bare(self, clean_doc):
        # Neither renderer validates its document, so a library caller can
        # pass a mission that cites an attestation the document lacks.
        doc = replace(clean_doc, mission=replace(clean_doc.mission, signed_by=("A4", "A99")))
        signed = "Carl Brandt (executive), 2020-04-02"
        assert cli.render_mission_report(doc).endswith(f"\nsigned:\n  {signed}\n  A99\n")
        assert f"\nsigned: {signed}; A99\n" in cli.render_audit_report(doc, ())

    def test_audit_report_matches_golden(self, capsys):
        assert cli.main(["report", CLEAN, "--kind", "audit"]) == 0
        golden = (FIXTURES / "audit_golden.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_identical_runs_identical_bytes(self, capsys):
        cli.main(["report", CLEAN, "--kind", "audit"])
        first = capsys.readouterr().out
        cli.main(["report", CLEAN, "--kind", "audit"])
        assert capsys.readouterr().out == first

    def test_parse_error_produces_no_report(self, tmp_path, capsys):
        path = tmp_path / "broken.evr"
        path.write_text("register oops\n", encoding="utf-8")
        assert cli.main(["report", str(path), "--kind", "audit"]) == 2
        assert capsys.readouterr().out == ""

    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "audit.txt"
        assert cli.main(["report", CLEAN, "--kind", "audit",
                         "--out", str(target)]) == 0
        golden = (FIXTURES / "audit_golden.txt").read_text(encoding="utf-8")
        assert target.read_text(encoding="utf-8") == golden

    def test_coverage_kind_renders_table(self, capsys):
        assert cli.main(["report", CLEAN, "--kind", "coverage"]) == 0
        out = capsys.readouterr().out
        assert "core_value" in out
        assert "equality" in out

    def test_empty_register_audit_renders_none_markers(self, tmp_path, capsys):
        path = write_doc(tmp_path, m.new_empty_register("X"))
        assert cli.main(["report", path, "--kind", "audit"]) == 0
        out = capsys.readouterr().out
        for section in ("MISSION", "PRIORITIES", "COVERAGE", "DIAGNOSTICS",
                        "ATTESTATIONS", "MATURITY"):
            assert section in out
        assert out.count("none") >= 4
        assert "0/0 (empty)" in out

    def test_unknown_report_kind_exits_three(self):
        assert cli.main(["report", CLEAN, "--kind", "poster"]) == 3


class TestTrace:
    def test_evr_chain_has_three_lines(self, capsys):
        assert cli.main(["trace", CHAIN, "1.1.3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("1  core_value  equality")
        assert lines[2].startswith("1.1.3  evr  ")

    def test_root_chain_has_one_line(self, capsys):
        assert cli.main(["trace", CHAIN, "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_control_chain_has_five_lines(self, capsys):
        assert cli.main(["trace", CLEAN, "2.1.1-C1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert lines[3].split("  ")[0] == "2.1.1-T1"

    def test_unknown_id_exits_three(self, capsys):
        assert cli.main(["trace", CHAIN, "7.7.7"]) == 3
        assert "unknown entity" in capsys.readouterr().err


class TestScore:
    def test_clean_fixture_is_fully_addressed(self, capsys):
        assert cli.main(["score", CLEAN]) == 0
        assert capsys.readouterr().out == "3/3 (1.00)\n"

    def test_empty_register_scores_empty(self, tmp_path, capsys):
        path = write_doc(tmp_path, m.new_empty_register("X"))
        assert cli.main(["score", path]) == 0
        assert capsys.readouterr().out == "0/0 (empty)\n"

    def test_partial_score_renders_ratio(self, tmp_path, capsys, chain_doc):
        # Quality 1.2 supports but has no EVRs, so equality is unaddressed.
        path = write_doc(tmp_path, chain_doc)
        assert cli.main(["score", path]) == 0
        assert capsys.readouterr().out == "0/1 (0.00)\n"

    def test_score_equals_library_output(self, capsys, full_doc):
        from evrforge import trace
        assert cli.main(["score", str(FIXTURES / "tm_full.evr")]) == 0
        assert capsys.readouterr().out == trace.maturity_score(full_doc).render() + "\n"


class TestDiff:
    def test_identical_files_report_no_changes(self, capsys):
        assert cli.main(["diff", CLEAN, CLEAN]) == 0
        assert capsys.readouterr().out == "no changes\n"

    def test_added_core_value_shows_banner(self, tmp_path, clean_doc, capsys):
        extra = m.CoreValue(id=4, name="sustainability", priority_rank=4)
        grown = replace(clean_doc, core_values=clean_doc.core_values + (extra,))
        path = write_doc(tmp_path, grown)
        assert cli.main(["diff", CLEAN, path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("REPRIORITIZATION REQUIRED\n")
        assert "core_values 4" in out

    def test_removed_evr_listed(self, tmp_path, chain_doc, capsys):
        pruned = replace(chain_doc,
                         evrs=tuple(e for e in chain_doc.evrs if e.id != "1.1.5"))
        path = write_doc(tmp_path, pruned)
        assert cli.main(["diff", CHAIN, path]) == 0
        out = capsys.readouterr().out
        assert "REPRIORITIZATION" not in out
        assert "removed:" in out
        assert "evrs 1.1.5" in out

    def test_parse_failure_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.evr"
        path.write_text("register\n", encoding="utf-8")
        assert cli.main(["diff", CLEAN, str(path)]) == 2


class TestInit:
    def test_scaffold_parses_and_checks_warning_free_or_warnings_only(
            self, tmp_path, capsys):
        target = tmp_path / "demo.evr"
        assert cli.main(["init", "demo", "--out", str(target)]) == 0
        assert cli.main(["check", str(target)]) in (0, 1)
        err = capsys.readouterr().err
        assert "ERROR" not in err

    def test_scaffold_contains_the_three_lens_keywords(self, tmp_path):
        target = tmp_path / "demo.evr"
        cli.main(["init", "demo", "--out", str(target)])
        text = target.read_text(encoding="utf-8")
        for keyword in ("utilitarian", "virtue", "duty"):
            assert f"lens {keyword}" in text

    def test_scaffold_shows_every_block_keyword_and_attribute_key(self, tmp_path):
        target = tmp_path / "demo.evr"
        cli.main(["init", "demo", "--out", str(target)])
        lines = target.read_text(encoding="utf-8").splitlines()
        keywords = {line.split()[0] for line in lines if line[:1].isalpha()}
        keys = {line.split()[0] for line in lines if line.startswith("  ")}
        assert set(dsl._BLOCKS) <= keywords
        assert {a.key for block in dsl._BLOCKS.values() for a in block.attrs} <= keys

    def test_existing_file_without_force_exits_three(self, tmp_path, capsys):
        target = tmp_path / "demo.evr"
        target.write_text("precious", encoding="utf-8")
        assert cli.main(["init", "demo", "--out", str(target)]) == 3
        assert target.read_text(encoding="utf-8") == "precious"
        assert cli.main(["init", "demo", "--out", str(target), "--force"]) == 0

    def test_unwritable_destination_exits_three(self, capsys):
        assert cli.main(["init", "demo", "--out",
                         "/nonexistent/dir/demo.evr"]) == 3

    @pytest.mark.parametrize("name", ['a"b', "a\\b", "a\tb"])
    def test_scaffold_of_any_one_line_name_checks_without_parse_diagnostics(
            self, tmp_path, capsys, name):
        target = tmp_path / "demo.evr"
        assert cli.main(["init", name, "--out", str(target)]) == 0
        assert cli.main(["check", str(target)]) <= 1
        assert not [line for line in capsys.readouterr().err.splitlines()
                    if line.split()[1:2] and line.split()[1].startswith("P")]
        doc = dsl.parse_register(target.read_text(encoding="utf-8")).document
        assert doc.mission.text == (
            f"We build {name} so that people keep control over their personal data.")

    @pytest.mark.parametrize("name", ["a\nb", "a\rb"])
    def test_name_with_a_line_break_is_refused(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["init", name]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "evrforge: project name must not contain line breaks"]
        assert list(tmp_path.iterdir()) == []


class TestExport:
    def test_csv_header_is_exact(self, capsys):
        assert cli.main(["export", CLEAN, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == (
            "core_value,rank,qualities,evrs,thresholds,threats,controls,"
            "attestations,addressed")

    def test_dot_for_empty_register_has_zero_nodes(self, tmp_path, capsys):
        path = write_doc(tmp_path, m.new_empty_register("X"))
        assert cli.main(["export", path, "--format", "dot"]) == 0
        assert capsys.readouterr().out == "digraph register {\n}\n"

    def test_interchange_reimports_to_equal_model(self, clean_doc, capsys):
        assert cli.main(["export", CLEAN, "--format", "interchange"]) == 0
        assert import_interchange(capsys.readouterr().out) == clean_doc

    def test_unknown_format_exits_three(self):
        assert cli.main(["export", CLEAN, "--format", "xml"]) == 3


class TestDispatch:
    @pytest.mark.parametrize("module, name, argv", [
        (cli, "render_audit_report", ["report", CLEAN, "--kind", "audit"]),
        (cli, "render_mission_report", ["report", CLEAN, "--kind", "mission"]),
        (cli, "render_coverage_report", ["report", CLEAN, "--kind", "coverage"]),
        (dsl, "export_interchange", ["export", CLEAN, "--format", "interchange"]),
        (trace, "export_dot", ["export", CLEAN, "--format", "dot"]),
        (trace, "coverage_csv", ["export", CLEAN, "--format", "csv"]),
    ], ids=["audit", "mission", "coverage", "interchange", "dot", "csv"])
    def test_renderer_is_looked_up_on_its_module_when_called(self, monkeypatch, capsys,
                                                             module, name, argv):
        # A tracer wraps functions by replacing module attributes.
        monkeypatch.setattr(module, name, lambda *args: "replaced\n")
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "replaced\n"


class TestSourceEncoding:
    @pytest.mark.parametrize("argv", [
        ["check", "{}"], ["report", "{}"], ["trace", "{}", "1"], ["score", "{}"],
        ["diff", CLEAN, "{}"], ["export", "{}"],
    ])
    @pytest.mark.parametrize("bom,newline", [
        (b"", "\n"), (b"\xef\xbb\xbf", "\n"), (b"", "\r\n"), (b"", "\r"),
    ], ids=["lf", "bom", "crlf", "cr"])
    def test_undecodable_byte_exits_three_with_its_position(self, tmp_path, capsys,
                                                            argv, bom, newline):
        path = tmp_path / "bad.evr"
        path.write_bytes(bom + f'register "TM"{newline}  é'.encode("utf-8") + b"\xff\n")
        assert cli.main([arg.format(path) for arg in argv]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"evrforge: cannot decode {path}:2:4: byte 0xff is not valid UTF-8 "
            "(invalid start byte)"
        ]
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tail", [b"", b"\n@\n"], ids=["clean", "parse-error"])
    def test_bom_and_crlf_check_like_the_plain_file(self, tmp_path, capsys, tail):
        source = Path(CLEAN).read_bytes() + tail
        path = tmp_path / "register.evr"
        outcomes = []
        for variant in (source, b"\xef\xbb\xbf" + source, source.replace(b"\n", b"\r\n")):
            path.write_bytes(variant)
            code = cli.main(["check", str(path)])
            outcomes.append((code, capsys.readouterr()))
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        code, captured = outcomes[0]
        assert "Traceback" not in captured.err
        if tail:
            assert code == 2 and f"{path}:316:1: illegal character '@'" in captured.err
        else:
            assert code == 0 and captured.err == "0 errors, 0 warnings\n"


class TestLongIntegers:
    """Numbers longer than int() reads are one diagnostic, not a crash."""

    @pytest.mark.parametrize("body, code", [
        ('sos S1 "n"\n  cooperation virtual\n  tier {}\nend\n', "P021"),
        ('corevalue 1{} "v" rank 1\nend\n', "P012"),
        ('corevalue 1 "v" rank 1\nend\nquality 1.1{} "q" of 1 direction supports\nend\n',
         "P012"),
    ], ids=["tier", "corevalue", "quality"])
    def test_exits_two_with_one_diagnostic(self, tmp_path, capsys, body, code):
        path = tmp_path / "long.evr"
        path.write_text('register "X" phase exploration\nsoi\n  note "n"\nend\n'
                        + body.format("9" * 5000), encoding="utf-8")
        assert cli.main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "9" * 100 not in err
        diagnostic, summary = err.splitlines()
        assert diagnostic.startswith(f"ERROR {code} {path}:")
        assert summary == "1 errors, 0 warnings"


class TestEmptyRegister:
    @pytest.mark.parametrize("argv", [
        ["check", "{}"], ["check", "{}", "--format", "interchange"], ["report", "{}"],
        ["trace", "{}", "1"], ["score", "{}"], ["diff", CLEAN, "{}"], ["diff", "{}", CLEAN],
        ["export", "{}"],
    ])
    @pytest.mark.parametrize("content", [
        b"", b"\n  \t\r\n\n", b"# a comment\n   # another\n", b"\xef\xbb\xbf",
    ], ids=["zero-bytes", "blank", "comments", "bom"])
    def test_file_without_header_exits_two_with_one_line(self, tmp_path, capsys,
                                                         argv, content):
        path = tmp_path / "empty.evr"
        path.write_bytes(content)
        assert cli.main([arg.format(path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"evrforge: {path}: no register header "
            "(the file is empty or holds only comments)"
        ]
        assert captured.out == ""

    def test_library_still_parses_empty_source_to_an_empty_document(self):
        result = dsl.parse_register("# nothing\n", "e.evr")
        assert result.document is not None and result.header is None
        header = dsl.parse_register('# first\n  register "" phase concept\n', "h.evr")
        assert header.document is not None
        assert header.header == dsl.SourceSpan("h.evr", 2, 3, 2, 10)

    def test_header_with_empty_project_name_still_checks(self, tmp_path, capsys):
        path = tmp_path / "named.evr"
        path.write_text('register "" phase concept\n', encoding="utf-8")
        assert cli.main(["check", str(path)]) == 0
        assert capsys.readouterr().err == "0 errors, 0 warnings\n"


class TestUsage:
    def test_missing_subcommand_exits_three(self, capsys):
        assert cli.main([]) == 3

    def test_unknown_subcommand_exits_three(self, capsys):
        assert cli.main(["frobnicate"]) == 3


class TestExitCodeContract:
    def test_codes_match_worst_diagnostic_severity(self, tmp_path, capsys):
        import random

        from evrforge import rules

        from .support import random_register

        rng = random.Random(5150)
        for i in range(25):
            doc = random_register(rng)
            path = write_doc(tmp_path, doc, f"gen{i}.evr")
            code = cli.main(["check", path])
            capsys.readouterr()
            diagnostics = rules.run_rules(doc)
            if any(d.severity == "error" for d in diagnostics):
                assert code == 2
            elif diagnostics:
                assert code == 1
            else:
                assert code == 0

    @pytest.mark.parametrize("argv", [["check", CLEAN], ["report", CLEAN, "--kind=audit"]])
    def test_an_unexpected_exception_exits_four_with_one_line(self, monkeypatch, capsys, argv):
        from evrforge import rules

        def broken(doc, idx):
            raise RuntimeError("rule crashed\non two lines")

        monkeypatch.setitem(rules._CHECKS, "VBE-R01", broken)
        assert cli.main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "evrforge: internal error: RuntimeError: rule crashed on two lines\n"

    def test_under_python_dev_mode_the_exception_propagates(self):
        script = ("import sys\nfrom evrforge import cli, rules\n"
                  "def broken(doc, idx): raise RuntimeError('rule crashed')\n"
                  "rules._CHECKS['VBE-R01'] = broken\n"
                  f"sys.exit(cli.main(['check', {CLEAN!r}]))\n")
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-X", "dev", "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert done.returncode == 1
        assert "Traceback" in done.stderr and "RuntimeError: rule crashed" in done.stderr
        assert "internal error" not in done.stderr


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv, code", [
        (["check", CLEAN], 0),
        (["check", "/nonexistent/register.evr"], 3),
    ])
    def test_python_dash_m_exits_with_the_code_of_main(self, argv, code):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(src.parent)])}
        done = subprocess.run([sys.executable, "-m", "evrforge.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == code, done.stderr

    @pytest.mark.parametrize("command", ["score", "export"])
    def test_a_closed_standard_output_is_an_io_failure(self, command):
        """A reader that stopped early gets one line and exit 3, and the
        flush at exit adds no ``Exception ignored`` report."""
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(src.parent)])}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "evrforge.cli", command, str(FIXTURES / "tm_full.evr")],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (
            3, "evrforge: cannot write standard output: Broken pipe\n")

    def test_importing_the_cli_loads_every_layer(self):
        """``perfbench/run.py --trace 1`` reports ``X.import_self_ms`` for the
        evrforge modules that ``import evrforge.cli`` loads, and exits 3 when
        a declared per-layer metric is missing; so that import must load all
        six modules, and none of them may be deferred."""
        names = ("cli", "dsl", "model", "rules", "analytics", "trace")
        probe = ("import sys, evrforge.cli; "
                 f"print(*(n for n in {names!r} if 'evrforge.' + n in sys.modules))")
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == list(names)


def _script(name: str):
    """The module of ``scripts/<name>.py``."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_roundtrip_times_the_working_tree(tmp_path, monkeypatch):
    """``scripts/ab.py``'s round-trip timer, built for the working tree on two
    corpus registers, runs once and gives a time."""
    ab = _script("ab")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        package = ab.load(None, "evrforge_ab_smoke", tmp_path)
        run = ab.timer(package, "roundtrip", ab.inputs("corpus")[:2])
        assert run() > 0
    finally:
        for name in [name for name in sys.modules if name.startswith("evrforge_ab_smoke")]:
            del sys.modules[name]


def test_ab_audit_times_the_working_tree(tmp_path, monkeypatch):
    """``scripts/ab.py``'s audit timer, built for the working tree on the
    ladder register, runs once and gives a time; on the corpus it is refused."""
    ab = _script("ab")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        package = ab.load(None, "evrforge_ab_audit", tmp_path)
        assert ab.timer(package, "audit", ab.inputs("ladder"))() > 0
    finally:
        for name in [name for name in sys.modules if name.startswith("evrforge_ab_audit")]:
            del sys.modules[name]
    with pytest.raises(SystemExit) as refused:
        ab.main(["HEAD", "audit", "--inputs", "corpus"])
    assert refused.value.code == 2


def test_ab_importtime_times_the_working_tree(tmp_path):
    """``scripts/ab.py importtime``'s timer imports the working tree's CLI
    once in a fresh interpreter and gives its modules' self time."""
    ab = _script("ab")
    ab.extract(None, "evrforge_ab_import", tmp_path)
    assert ab.import_timer("evrforge_ab_import", tmp_path)() > 0


def test_cross_python_names_an_interpreter_that_cannot_run(monkeypatch, capsys):
    """The check fails with one line before it runs any form."""
    cross = _script("cross_python")
    monkeypatch.setattr(cross, "run", lambda python, form: pytest.fail(f"ran {form}"))
    assert cross.main(["/nonexistent/python3"]) == 2
    assert capsys.readouterr().out == ("cannot run /nonexistent/python3: [Errno 2] "
                                       "No such file or directory: '/nonexistent/python3'\n")
