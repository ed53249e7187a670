"""The document index: built once per document, and in agreement with the
scanning oracles in ``support``."""

from __future__ import annotations

import gc
import random
import weakref
from dataclasses import FrozenInstanceError, asdict, replace

import pytest

from evrforge import cli, dsl, rules, trace
from evrforge import model as m

from .conftest import load_fixture
from .support import (
    oracle_coverage_report,
    oracle_maturity_score,
    random_register,
    unvalidated_analysis_doc,
    with_scanning_index,
)


def _counting(monkeypatch, name: str) -> list[int]:
    """Replace ``model.<name>`` by a wrapper that counts its calls."""
    calls = [0]
    original = getattr(m, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(m, name, counted)
    return calls


class TestIndexLifetime:
    def test_audit_pipeline_builds_one_index(self, monkeypatch):
        builds = _counting(monkeypatch, "DocIndex")
        doc = load_fixture("tm_full.evr")
        cli.render_audit_report(doc, rules.run_rules(doc))
        assert builds[0] == 1

    def test_coverage_resolves_each_control_once(self, monkeypatch):
        doc = replace(load_fixture("tm_clean.evr"))  # no index built yet
        assert len(doc.core_values) > 1 and doc.controls
        calls = _counting(monkeypatch, "control_parent")
        trace.coverage_report(doc)
        assert calls[0] <= len(doc.controls)

    def test_replace_gets_a_fresh_index(self):
        doc = load_fixture("tm_clean.evr")
        assert "VBE-R07" not in {d.rule_id for d in rules.run_rules(doc)}
        unsigned = replace(doc, attestations=())
        assert unsigned.index is not doc.index
        assert unsigned.index.attestations == {}
        assert "VBE-R07" in {d.rule_id for d in rules.run_rules(unsigned)}

    def test_cached_index_is_invisible_to_the_dataclass(self):
        doc = load_fixture("tm_clean.evr")
        assert "index" in vars(doc)  # validation during the parse built it
        bare = replace(doc)
        assert "index" not in vars(bare)
        assert bare == doc and repr(bare) == repr(doc) and asdict(bare) == asdict(doc)
        assert dsl.parse_register(dsl.serialize_canonical(doc), "x").document == doc
        with pytest.raises(FrozenInstanceError):
            doc.phase = m.Phase.CONCEPT

    def test_document_and_index_are_freed_by_refcount(self):
        doc = load_fixture("tm_clean.evr")
        refs = (weakref.ref(doc), weakref.ref(doc.index))
        gc.disable()
        try:
            del doc
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


def _assert_matches_oracle(doc: m.RegisterDocument) -> None:
    assert trace.coverage_report(doc) == oracle_coverage_report(doc)
    assert trace.maturity_score(doc) == oracle_maturity_score(doc)
    assert rules.run_rules(doc) == rules.run_rules(with_scanning_index(doc))


class TestAgainstScanningOracle:
    def test_random_registers(self):
        for seed in range(200):
            _assert_matches_oracle(random_register(random.Random(seed)))

    @pytest.mark.parametrize("name", ["tm_chain.evr", "tm_clean.evr", "tm_error.evr",
                                      "tm_full.evr", "tm_warnings.evr"])
    def test_fixtures(self, name):
        _assert_matches_oracle(load_fixture(name))

    def test_unvalidated_document(self):
        doc = unvalidated_analysis_doc()
        codes = {v.code for v in m.validate_register(doc)}
        assert "P010" in codes  # the duplicate EVR id
        rows = trace.coverage_report(doc)
        assert [r.attestations for r in rows] == [3, 0]
        _assert_matches_oracle(doc)
