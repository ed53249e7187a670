"""Pins on the writers, validation and diff.

``fixtures/pins.json`` holds SHA-256 digests of ``serialize_canonical`` and
``export_interchange`` for every fixture and ``random_register`` seeds
0..999, the violations ``validate_register`` reports for crafted invalid
documents (one entity duplicated, one id made non-identifier, seeds 0..99
demoted to phase concept), and the bucket contents and key order of
``diff_registers`` for seed pairs.  A refactor of any of these must leave
every pin as it is.  Regenerate the file only for an intended change of
output: ``PYTHONPATH=src python -m tests.test_pins``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import fields, replace

import pytest

from evrforge import dsl, trace
from evrforge import model as m

from .conftest import FIXTURES, load_fixture
from .support import random_register

PINS = FIXTURES / "pins.json"
SEEDS = range(1000)
KINDS = tuple(f.name for f in fields(m.RegisterDocument) if f.default == ())
IDENT_KINDS = ("sos_elements", "stakeholders", "contexts", "sessions", "statements",
               "dispositions", "functional_requirements", "design_concepts",
               "personas", "attestations", "feedback")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _violations(doc: m.RegisterDocument) -> list[list[str]]:
    return [[v.code, v.subject, v.message] for v in m.validate_register(doc)]


@functools.cache
def compute_pins() -> dict:
    seeds = [random_register(random.Random(s)) for s in SEEDS]
    named = [(p.name, load_fixture(p.name)) for p in sorted(FIXTURES.glob("*.evr"))]
    named += [(f"seed {s}", doc) for s, doc in enumerate(seeds)]

    duplicated: dict[str, list] = {}
    bad_id: dict[str, list] = {}
    for kind in KINDS:
        for name, doc in [(n, d) for n, d in named if getattr(d, kind)][:3]:
            first, *rest = getattr(doc, kind)
            key = f"{kind} in {name}"
            duplicated[key] = _violations(replace(doc, **{kind: (first, first, *rest)}))
            if kind in IDENT_KINDS:
                bad = replace(first, id="bad id")
                bad_id[key] = _violations(replace(doc, **{kind: (bad, *rest)}))

    diff: dict[str, dict] = {}
    for s in range(0, 20, 2):
        changes = trace.diff_registers(seeds[s], seeds[s + 1])
        diff[f"seed {s} -> {s + 1}"] = {
            bucket: [[kind, list(ids)] for kind, ids in getattr(changes, bucket).items()]
            for bucket in ("added", "removed", "modified")
        }

    return {
        "writers": {name: [_sha(dsl.serialize_canonical(doc)), _sha(dsl.export_interchange(doc))]
                    for name, doc in named},
        "duplicated": duplicated,
        "bad_id": bad_id,
        "demoted": {f"seed {s}": _sha(json.dumps(_violations(replace(seeds[s], phase=m.Phase.CONCEPT))))
                    for s in range(100)},
        "diff": diff,
    }


@pytest.mark.parametrize("section", ["writers", "duplicated", "bad_id", "demoted", "diff"])
def test_pins_hold(section):
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    assert compute_pins()[section] == pinned[section]


def test_pins_cover_every_kind():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    assert {key.split(" in ")[0] for key in pinned["duplicated"]} == set(KINDS)
    assert {key.split(" in ")[0] for key in pinned["bad_id"]} == set(IDENT_KINDS)


if __name__ == "__main__":
    PINS.write_text(json.dumps(compute_pins(), indent=1, ensure_ascii=False) + "\n",
                    encoding="utf-8")
