#!/usr/bin/env python3
"""In-process A/B timing of one library function at two revisions.

Each revision's ``src/evrforge`` is taken with ``git archive`` into a
temporary directory and imported under a package name of its own, so both
run in this one process on the same inputs.  HEAD defaults to the working
tree.  BASE is imported once more after HEAD, as BASE', a control: a tree
imported later can run a few per cent slower in the same process, so a
HEAD/BASE ratio means something only beside the BASE'/BASE ratio of the
same tree.  The inputs come from the benchmark's generators
(``perfbench/gen.py``, only read): the 16 registers of corpus-roundtrip and
the n=200 register of ladder-audit.  Each round times BASE, HEAD and BASE'
once each over one input set with ``time.process_time``, in rotating
order; the script prints each side's median and quartiles, the median and
quartiles of the paired HEAD/BASE and BASE'/BASE ratios, and the number of
rounds each was faster than BASE.  Standard library only.

    python scripts/ab.py 1752349 parse_register
    python scripts/ab.py 1752349 HEAD run_rules --inputs ladder --rounds 31

FUNCTION is one of ``parse_register`` (source text to result),
``validate_register``, ``run_rules``, ``serialize_canonical`` and
``export_interchange`` (each on the documents its own revision parsed), or
``roundtrip``, corpus-roundtrip's op on each corpus register and its edit:
parse, ``serialize_canonical``, parse of that text, which must give an
``==`` document, ``export_interchange``, parse of the edit and
``diff_registers``.  ``roundtrip`` runs on the corpus only.  ``importtime``
times no function and reads no inputs: each round runs ``python -X importtime -c "import
<tree>.cli"`` once per tree, in a subprocess with ``PYTHONDONTWRITEBYTECODE=1``
so that every module is compiled, and takes the sum of the tree's modules'
self times, in ms, for that tree's time.

    python scripts/ab.py c53530f importtime --rounds 21
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import gen  # noqa: E402

SEED = 7
CORPUS_SIZE = 16
LADDER_N = 200
CALLS = {  # function: (module, attribute, takes the parsed document)
    "parse_register": ("dsl", "parse_register", False),
    "validate_register": ("model", "validate_register", True),
    "run_rules": ("rules", "run_rules", True),
    "serialize_canonical": ("dsl", "serialize_canonical", True),
    "export_interchange": ("dsl", "export_interchange", True),
}


def extract(revision: str | None, name: str, into: Path) -> None:
    """Put the package ``evrforge`` of ``revision`` (None: the working tree)
    into ``into`` as the package ``name``."""
    target = into / name
    if revision is None:
        shutil.copytree(ROOT / "src" / "evrforge", target,
                        ignore=shutil.ignore_patterns("__pycache__"))
    else:
        archive = into / f"{name}.zip"
        subprocess.run(["git", "archive", "--format=zip", "-o", str(archive), revision,
                        "src/evrforge"], cwd=ROOT, check=True)
        with zipfile.ZipFile(archive) as zipped:
            zipped.extractall(into / f"{name}-tree")
        shutil.move(into / f"{name}-tree" / "src" / "evrforge", target)


def load(revision: str | None, name: str, into: Path):
    """The package ``evrforge`` of ``revision``, imported as ``name``."""
    extract(revision, name, into)
    return importlib.import_module(name)


def import_timer(name: str, into: Path):
    """A call that imports ``name.cli`` from ``into`` in a fresh interpreter
    without ``.pyc`` and returns the self time of ``name``'s modules in ms."""
    env = {**os.environ, "PYTHONPATH": str(into), "PYTHONDONTWRITEBYTECODE": "1"}

    def run() -> float:
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {name}.cli"],
                              env=env, capture_output=True, text=True, check=True)
        rows = [line.removeprefix("import time:").split("|")
                for line in done.stderr.splitlines() if line.startswith("import time:")]
        return sum(int(self_us) for self_us, _, module in rows
                   if module.strip().partition(".")[0] == name) / 1000

    return run


def inputs(which: str) -> list[tuple[str, str, str | None]]:
    """(name, source, edited source) of the corpus registers, or of the
    ladder register, which has no edit."""
    if which == "corpus":
        return [(f"corpus-{i}.evr", *gen.corpus_register(i, SEED)[:2]) for i in range(CORPUS_SIZE)]
    return [(f"ladder-{LADDER_N}.evr", gen.ladder_register(LADDER_N, SEED)[0], None)]


def document(package, name: str, source: str):
    doc = package.dsl.parse_register(source, name).document
    if doc is None:
        raise SystemExit(f"{package.__name__} does not parse {name}")
    return doc


def roundtrip(package):
    """corpus-roundtrip's op, as ``perfbench/workloads.py`` runs it, on
    ``(name, source, edited source)``."""
    dsl = importlib.import_module(f"{package.__name__}.dsl")
    diff = importlib.import_module(f"{package.__name__}.trace").diff_registers

    def op(name: str, source: str, edited: str) -> None:
        doc = dsl.parse_register(source, name).document
        canonical = dsl.serialize_canonical(doc)
        if dsl.parse_register(canonical, "canonical").document != doc:
            raise SystemExit(f"{package.__name__}: {name} is not a canonical fixed point")
        dsl.export_interchange(doc)
        diff(doc, dsl.parse_register(edited, name + ".edit").document)

    return op


def timer(package, function: str, sources: list[tuple[str, str, str | None]]):
    """A call that runs ``function`` of ``package`` once over every input
    and returns its process time in ms."""
    if function == "roundtrip":
        call, args = roundtrip(package), sources
    else:
        module, attribute, on_document = CALLS[function]
        call = getattr(importlib.import_module(f"{package.__name__}.{module}"), attribute)
        args = [(document(package, name, source),) if on_document else (source, name)
                for name, source, _ in sources]

    def run() -> float:
        gc.collect()
        started = time.process_time()
        for arg in args:
            call(*arg)
        return (time.process_time() - started) * 1000

    return run


def quartiles(values: list[float], digits: int = 2) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]"


def batches(args, trees: dict[str, tuple[str | None, str]], into: Path):
    """(title, {side: run}) for each input set ``args`` asks for, each
    side's tree put into ``into`` first, under its name in ``trees``."""
    if args.function == "importtime":
        for revision, name in trees.values():
            extract(revision, name, into)
        yield ("import evrforge.cli, self ms of the package's modules without .pyc",
               {side: import_timer(name, into) for side, (_, name) in trees.items()})
        return
    packages = {side: load(revision, name, into) for side, (revision, name) in trees.items()}
    every = ("corpus", "ladder") if args.function in CALLS else ("corpus",)
    for which in every if args.inputs == "both" else (args.inputs,):
        sources = inputs(which)
        kb = sum(len(source.encode("utf-8")) for _, source, _ in sources) / 1024
        yield (f"{args.function} on {which} ({len(sources)} inputs, {kb:.0f} KB), process ms",
               {side: timer(package, args.function, sources)
                for side, package in packages.items()})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("revisions", nargs="+", metavar="REV",
                        help="BASE, and HEAD (default: the working tree)")
    parser.add_argument("function", choices=sorted([*CALLS, "roundtrip", "importtime"]))
    parser.add_argument("--inputs", choices=("corpus", "ladder", "both"), default="both")
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args(argv)
    if len(args.revisions) > 2:
        parser.error("at most two revisions")
    if args.function == "roundtrip" and args.inputs == "ladder":
        parser.error("roundtrip runs on the corpus only")
    base_rev, head_rev = (args.revisions + [None])[:2]

    with tempfile.TemporaryDirectory(prefix="evrforge-ab-") as tmp:
        sys.path.insert(0, tmp)
        trees = {"base": (base_rev, "evrforge_base"), "head": (head_rev, "evrforge_head"),
                 "base'": (base_rev, "evrforge_control")}
        labels = {"base": f"base {base_rev}", "head": f"head {head_rev or 'working tree'}",
                  "base'": f"base' {base_rev} (control)"}
        sides = list(trees)
        for title, runs in batches(args, trees, Path(tmp)):
            for run in runs.values():  # warm caches and lazy state on every side
                run()
            times: dict[str, list[float]] = {side: [] for side in sides}
            for i in range(args.rounds):
                for side in sides[i % 3:] + sides[:i % 3]:
                    times[side].append(runs[side]())
            print(f"{title}, {args.rounds} rounds, median [quartiles]:")
            for side in sides:
                print(f"  {labels[side]}: {quartiles(times[side])}")
            for side in ("head", "base'"):
                ratios = [t / b for t, b in zip(times[side], times["base"])]
                wins = sum(t < b for t, b in zip(times[side], times["base"]))
                print(f"  paired {side}/base ratio {quartiles(ratios, 3)}, "
                      f"{side} faster in {wins} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
