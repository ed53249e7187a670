"""The two writers, ``serialize_canonical`` and ``export_interchange``.

``fixtures/writer_digests.txt`` holds, for each input below, the SHA-256 of
both writers' output, or the class name of the exception a writer raised,
as the writers gave them before they were generated from the declarations.
The inputs are the fixtures, ``random_register`` seeds 0..199, the 16
corpus registers of the benchmark (seed 7), and an ill-typed family: the
first entity of each kind in three fixtures with each field set in turn to
``"zz"``, ``7``, ``None``, ``("a",)`` or ``1.5``, wherever that changes its
type.  Run this module to record the file again:

    PYTHONPATH=src python -m tests.test_writers

The writers are compiled on first use, so a run that never writes compiles
none, and one that writes compiles one writer per block kind or record
class it writes, once.  A block kind's reader is compiled once the table has
read ``dsl._HOT`` blocks of it in a process, so no CLI call on a fixture
compiles one.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

from evrforge import dsl
from evrforge import model as m
from perfbench import gen

from .conftest import FIXTURES, load_fixture
from .support import random_register

DIGESTS = FIXTURES / "writer_digests.txt"
ILL_TYPED = ("zz", 7, None, ("a",), 1.5)


def _documents():
    """(name, document) of every input, in the file's order."""
    for path in sorted(FIXTURES.glob("*.evr")):
        yield path.name, load_fixture(path.name)
    for seed in range(200):
        yield f"seed {seed}", random_register(random.Random(seed))
    for index in range(16):
        source = gen.corpus_register(index, 7)[0]
        yield f"corpus {index}", dsl.parse_register(source, f"corpus-{index}.evr").document
    for name in ("tm_full.evr", "tm_chain.evr", "scaffold_demo.evr"):
        doc = load_fixture(name)
        for kind in m.ENTITY_KINDS:
            held = getattr(doc, kind)
            if not held:
                continue
            first, *rest = held
            for f in fields(first):
                for value in ILL_TYPED:
                    if type(value) is not type(getattr(first, f.name)):
                        changed = replace(first, **{f.name: value})
                        yield (f"{name}, {kind}[0].{f.name} = {value!r}",
                               replace(doc, **{kind: (changed, *rest)}))


def _written(write, doc) -> str:
    """The SHA-256 of what ``write`` gives for ``doc``, or the class name of
    what it raises."""
    try:
        text = write(doc)
    except Exception as error:  # noqa: BLE001 - the class is the record
        return type(error).__name__
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rows() -> list[str]:
    return ["\t".join((name, _written(dsl.serialize_canonical, doc),
                       _written(dsl.export_interchange, doc)))
            for name, doc in _documents()]


def test_the_writers_give_the_recorded_bytes_or_exception():
    recorded = DIGESTS.read_text(encoding="utf-8").splitlines()
    rows = _rows()
    assert len(rows) == len(recorded) == 966
    changed = [(was, now) for was, now in zip(recorded, rows) if was != now]
    assert not changed, f"{len(changed)} rows changed, e.g. {changed[0]}"


# Run in a fresh interpreter, since an audit hook cannot be removed: the
# ``<string>`` sources that ``evrforge.dsl`` compiles in each step.
_COMPILES = """
import contextlib, io, json, sys
from dataclasses import fields, is_dataclass

compiled = []

def hook(event, args):
    if (event == "compile" and args[1] == "<string>"
            and sys._getframe(1).f_globals["__name__"] == "evrforge.dsl"):
        compiled.append(args[0] if isinstance(args[0], str) else args[0].decode())

sys.addaudithook(hook)
from evrforge import cli, dsl

fixtures = sys.argv[1]
steps = {}

def step(name, call):
    del compiled[:]
    with contextlib.redirect_stdout(io.StringIO()):
        call()
    steps[name] = list(compiled)

for command in (["check", fixtures + "/tm_clean.evr"], ["score", fixtures + "/tm_clean.evr"],
                ["trace", fixtures + "/tm_clean.evr", "D1"]):
    step(command[0], lambda: cli.main(command))
doc = dsl.parse_register(open(fixtures + "/tm_full.evr", encoding="utf-8").read()).document
for writer in ("serialize_canonical", "export_interchange"):
    step(writer, lambda: getattr(dsl, writer)(doc))
    step(writer + " again", lambda: getattr(dsl, writer)(doc))

def records(value, depth, found):
    # Each record class with the depth of the JSON object it is written as.
    if is_dataclass(value):
        found.add((type(value), depth))
        for f in fields(value):
            records(getattr(value, f.name), depth + 1, found)
    elif isinstance(value, (tuple, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            records(item, depth + 1, found)
    return found

rows = [block.keyword for block in dsl._BLOCKS.values() if block.held(doc)]

def fresh():
    # The parser as a new process has it: no block read, no reader compiled.
    for block in dsl._BLOCKS.values():
        block.seen = 0
        block.__dict__.pop("parse", None)

# Each cli-mix command shape on each fixture, as its own CLI call.
readers = []
for name in ("tm_clean", "tm_warnings", "tm_error", "tm_full", "tm_chain"):
    path = f"{fixtures}/{name}.evr"
    for argv in (["check", path], ["check", path, "--format=interchange"],
                 ["report", path, "--kind=audit"], ["report", path, "--kind=mission"],
                 ["report", path, "--kind=coverage"], ["score", path], ["trace", path, "2.1.1-C1"],
                 ["export", path, "--format=interchange"], ["export", path, "--format=dot"],
                 ["export", path, "--format=csv"], ["diff", path, f"{fixtures}/tm_clean.evr"],
                 ["diff", f"{fixtures}/tm_clean.evr", path]):
        fresh()
        with contextlib.redirect_stderr(io.StringIO()):
            step("cli", lambda: cli.main(argv))
        readers.append([argv, [text for text in steps["cli"] if "def read(p, head)" in text]])

# A register with more than ``_HOT`` blocks of two kinds, and fewer than half
# as many of a third, parsed twice in a new process.
fresh()
many = 'register "x" phase design\\n' + "".join(
    [f'stakeholder S{i} "n"\\n  kind direct\\nend\\n' for i in range(dsl._HOT + 50)]
    + [f'funcreq F{i}\\n  note "n"\\nend\\n' for i in range(dsl._HOT + 1)]
    + [f'session SES{i}\\nend\\n' for i in range(dsl._HOT // 2 - 1)])
for again in ("", " again"):
    step("many" + again, lambda: dsl.parse_register(many))
print(json.dumps({"steps": steps, "rows": len(rows), "records": len(records(doc, 0, set())),
                  "readers": readers}))
"""


def test_the_writers_compile_on_first_use_only():
    src = Path(dsl.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _COMPILES, str(FIXTURES)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    steps = seen["steps"]
    assert steps["check"] == steps["score"] == steps["trace"] == []
    assert 0 < len(steps["serialize_canonical"]) <= seen["rows"]
    assert 0 < len(steps["export_interchange"]) <= seen["records"]
    for writer in ("serialize_canonical", "export_interchange"):
        assert len(set(steps[writer])) == len(steps[writer])
        assert steps[writer + " again"] == []
    # No CLI call on a fixture compiles a reader; a register with more than
    # ``_HOT`` blocks of a kind compiles one reader for each such kind, once.
    assert len(seen["readers"]) == 60
    assert not [argv for argv, compiled in seen["readers"] if compiled]
    assert len(steps["many"]) == 2
    assert all("def read(p, head)" in text for text in steps["many"])
    assert [kind for kind in ("stakeholders", "functional_requirements", "sessions")
            if any(f"({kind!r}, head)" in text for text in steps["many"])] == [
        "stakeholders", "functional_requirements"]
    assert steps["many again"] == []


if __name__ == "__main__":
    DIGESTS.write_text("".join(row + "\n" for row in _rows()), encoding="utf-8")
