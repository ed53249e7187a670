"""Spans and call counts around the package's public functions.

The tracer replaces functions through their module attributes (for example
``evrforge.trace.coverage_report``), so calls made from inside the package
resolve to the wrapper as well and nest as child spans.  Very hot functions
are counted rather than spanned.  Spans stay in memory until the caller
writes them out.
"""

from __future__ import annotations

import time
from collections import Counter

# (module, attribute, span name); the attribute is looked up on
# ``evrforge.<module>`` when the tracer is installed.
SPANNED = (
    ("dsl", "parse_register", "dsl.parse_register"),
    ("dsl", "serialize_canonical", "dsl.serialize_canonical"),
    ("dsl", "export_interchange", "dsl.export_interchange"),
    ("model", "validate_register", "model.validate_register"),
    ("model", "DocIndex", "model.DocIndex"),
    ("rules", "run_rules", "rules.run_rules"),
    ("rules", "check_rule", "rules.check_rule"),
    ("analytics", "lens_coverage", "analytics.lens_coverage"),
    ("trace", "coverage_report", "trace.coverage_report"),
    ("trace", "maturity_score", "trace.maturity_score"),
    ("trace", "build_graph", "trace.build_graph"),
    ("trace", "diff_registers", "trace.diff_registers"),
    ("cli", "render_audit_report", "cli.render_audit_report"),
)
COUNTED = (
    ("model", "control_parent", "model.control_parent.calls"),
    ("model.DocIndex", "attestations_for", "model.DocIndex.attestations_for.calls"),
)
# Span name -> (count name, amount added per call), recorded after the span
# has closed.
POST_COUNTS = {
    "rules.run_rules": ("rules.findings", lambda args, result: len(result)),
    "dsl.parse_register": ("dsl.parse_register.bytes",
                           lambda args, result: len(args[0].encode("utf-8"))),
}


class Tracer:
    """Records spans as [name, start, end, parent index, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name)

    def install(self) -> None:
        import importlib

        # Counted methods are patched on the class before the class itself
        # is replaced by its spanning wrapper.
        for module_name, attr, name in COUNTED:
            owner = importlib.import_module("evrforge." + module_name.split(".")[0])
            if "." in module_name:
                owner = getattr(owner, module_name.split(".")[1])
            setattr(owner, attr, self._counted(getattr(owner, attr), name))
        for module_name, attr, name in SPANNED:
            module = importlib.import_module("evrforge." + module_name)
            setattr(module, attr, self._spanned(getattr(module, attr), name))

    def _counted(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.op, name)] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanned(self, fn, name):
        post = POST_COUNTS.get(name)

        def spanned(*args, **kwargs):
            with _Span(self, name):
                result = fn(*args, **kwargs)
            if post is not None:
                self.counts[(self.op, post[0])] += post[1](args, result)
            return result
        return spanned

    def export(self) -> dict:
        return {"spans": self.spans,
                "counts": [[op, name, n] for (op, name), n in self.counts.items()]}


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer._stack[-1] if tracer._stack else None
        tracer.spans.append([self.name, time.perf_counter(), None, parent, tracer.op])
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[self.index][2] = time.perf_counter()
        tracer._stack.pop()
        return False


def summarize(spans: list[list], counts: list[list]) -> dict:
    """Per op id: {span name: [total ms, self ms, calls]}, the summed duration
    of the top-level spans, and {count name: n}.

    A span's self time is its duration minus the durations of its direct
    children; the tracer is single-threaded, so children never overlap.
    """
    child_ms = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child_ms[parent] += (end - start) * 1000.0
    per_op: dict = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        total = (end - start) * 1000.0
        entry = per_op.setdefault(op, _empty())
        acc = entry["spans"].setdefault(name, [0.0, 0.0, 0])
        acc[0] += total
        acc[1] += total - child_ms[i]
        acc[2] += 1
        if parent is None:
            entry["spanned_ms"] += total
    for op, name, n in counts:
        per_op.setdefault(op, _empty())["counts"][name] += n
    return per_op


def _empty() -> dict:
    return {"spans": {}, "spanned_ms": 0.0, "counts": Counter()}
