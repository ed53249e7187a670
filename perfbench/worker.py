"""One benchmark process: set up a workload, measure it, or trace it.

    python3 perfbench/worker.py '{"mode": "setup|measure|trace", "workload": ...,
                                  "seed": ..., "work": ..., "seconds": ...}'

``run.py`` starts one worker at a time and reads the JSON object the worker
prints as its last line.  Each measuring worker is a fresh process, so its
peak resident memory belongs to one workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402
from calibrate import speed_sample_ms  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


def loop(workload, inputs, seconds: float,
         tracer: Tracer | None = None) -> tuple[list[dict], float]:
    """Closed loop: the next op starts when the previous one has finished.

    The loop stops at the end of the first pass over the inputs that ends
    after ``seconds``, so every run has the same mix of inputs and per-op
    counts do not depend on where time ran out.
    """
    ops = []
    start = time.perf_counter()
    deadline = start + seconds
    for op, inp in enumerate(workload.schedule(inputs)):
        if tracer is not None:
            tracer.op = op
        speed = SpeedSamples()
        t0 = time.perf_counter()
        try:
            result = workload.run(inp, op, speed)
            ms = (time.perf_counter() - t0) * 1000.0 - speed.inside_ms
            ok = workload.check(inp, result)
        except Exception:
            ms = (time.perf_counter() - t0) * 1000.0 - speed.inside_ms
            ok = False
            traceback.print_exc()
        result = None  # release the op's output before the closing sample
        speed.take()
        if not ok:
            print(f"perfbench: op {op} on {inp.key} failed its check", file=sys.stderr)
        ops.append({"key": inp.key, "kb": inp.kb, "ms": ms, "ok": ok,
                    "cal_ms": statistics.fmean(speed.samples)})
        if time.perf_counter() >= deadline and (op + 1) % len(inputs) == 0:
            break
    return ops, time.perf_counter() - start


class SpeedSamples:
    """Calibration samples around one op (see calibrate.py).

    One sample is taken when the op starts and one after it ends.  A long op
    also takes samples between its stages; their time is kept out of the
    op's time.
    """

    def __init__(self) -> None:
        self.samples = [speed_sample_ms()]
        self.inside_ms = 0.0

    def take(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(speed_sample_ms())
        self.inside_ms += (time.perf_counter() - t0) * 1000.0


def peak_rss_mb(workload) -> float:
    children = isinstance(workload, workloads.CliMix)
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cli_main_probe(repeats: int = 3) -> tuple[dict, bool]:
    """In-process ``cli.main(argv)`` per subcommand, output captured and checked."""
    from evrforge import cli

    expected = json.loads(workloads.EXPECTED.read_text(encoding="utf-8"))["cli-mix"]
    times: dict[str, list[float]] = {}
    ok = True
    for _ in range(repeats):
        for argv in workloads.CLI_ROUND:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                code = cli.main(list(argv))
                ms = (time.perf_counter() - t0) * 1000.0
            times.setdefault(argv[0], []).append(ms)
            outcome = workloads.cli_outcome(argv, code, stdout.getvalue(), stderr.getvalue())
            ok = ok and outcome == expected[workloads.cli_key(argv)]
    return {sub: statistics.median(ms) for sub, ms in times.items()}, ok


def rule_probe(tracer: Tracer, path: Path, repeats: int = 3) -> dict:
    """Self time of each rule through the public ``check_rule``, less its index build."""
    from evrforge import dsl, rules

    tracer.op = "probe"
    doc = dsl.parse_register(path.read_text(encoding="utf-8"), str(path)).document
    for k in range(repeats):
        for rule in rules.rule_catalog():
            tracer.op = ("rule", rule.rule_id, k)
            rules.check_rule(doc, rule.rule_id)
    per_op = summarize(tracer.spans, [])
    samples: dict[str, list[float]] = {}
    for op, entry in per_op.items():
        if isinstance(op, tuple):
            spans = entry["spans"]
            ms = spans["rules.check_rule"][0] - spans.get("model.DocIndex", [0.0])[0]
            samples.setdefault(op[1], []).append(ms)
    return {rule_id: statistics.median(ms) for rule_id, ms in samples.items()}


def attach_spans(ops: list[dict], per_op: dict) -> None:
    for op, record in enumerate(ops):
        entry = per_op.get(op, {"spans": {}, "spanned_ms": 0.0, "counts": {}})
        record.update(spans=entry["spans"], spanned_ms=entry["spanned_ms"],
                      counts=dict(entry["counts"]))


def main() -> int:
    args = json.loads(sys.argv[1])
    workload = workloads.WORKLOADS[args["workload"]](Path(args["work"]), args["seed"])
    if args["mode"] == "setup":
        print(json.dumps(workload.setup()))
        return 0

    inputs = workload.load()
    out = {"pinned_ok": workload.pinned_ok()}
    if args["mode"] == "measure":
        warm, _ = loop(workload, inputs[:1], 0.0)
        ops, elapsed = loop(workload, inputs, args["seconds"])
        out.update(ops=warm + ops, warm_ops=len(warm), elapsed_s=elapsed,
                   peak_rss_mb=peak_rss_mb(workload))
    else:
        main_ms, probe_ok = cli_main_probe()
        tracer = Tracer()
        if isinstance(workload, workloads.CliMix):
            workload.traced = True
            ops, elapsed = loop(workload, inputs, args["seconds"])
            per_op: dict = {}
            for line in workload.trace_out.read_text(encoding="utf-8").splitlines():
                exported = json.loads(line)
                per_op.update(summarize(exported["spans"], exported["counts"]))
            tracer.install()
        else:
            tracer.install()
            ops, elapsed = loop(workload, inputs, args["seconds"], tracer)
            per_op = summarize(tracer.spans, tracer.export()["counts"])
        attach_spans(ops, per_op)
        out.update(ops=ops, warm_ops=0, elapsed_s=elapsed, cli_main_ms=main_ms,
                   pinned_ok=out["pinned_ok"] and probe_ok,
                   rule_self_ms=rule_probe(tracer, workload.probe_path(inputs)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
