"""evrforge benchmark: one workload, one run, every metric by name and unit.

    python3 perfbench/run.py --workload {cli-mix,ladder-audit,corpus-roundtrip}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  With ``--trace 0`` the run sets the
workload up three times in fresh processes (``setup_s`` is the median),
then measures it untraced for S seconds and prints the end-to-end metrics.
With ``--trace 1`` it measures S/2 seconds untraced and S/2 seconds with
spans around the package's public functions, each in its own process, and
prints the per-layer metrics.  The metric names and units are the ones in
BENCHMARK.json; perfbench/README.md says what each one should move.

The last line of standard output is the result object; the line before it
holds the details behind it (seed, inputs, sample counts, the tail
percentile used, interpreter start time).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from calibrate import REFERENCE_MS, speed_sample_ms

ROOT = workloads.ROOT
OUT = ROOT / ".perfbench-out"
BENCHMARK = ROOT / "BENCHMARK.json"
WORKER = Path(__file__).resolve().parent / "worker.py"
TIME_LIMIT_S = 170.0
SETUP_REPEATS = 3
PROBE_REPEATS = 5
LAYER_DOUBLING = ("dsl.parse_register", "model.validate_register", "model.DocIndex",
                  "rules.run_rules", "trace.coverage_report", "trace.maturity_score",
                  "cli.render_audit_report")


class BenchError(Exception):
    pass


def required_files() -> list[Path]:
    names = {a for argv in workloads.CLI_ROUND for a in argv if a.endswith(".evr")}
    return ([BENCHMARK, workloads.SRC / "evrforge" / "cli.py", workloads.EXPECTED,
             workloads.FIXTURES / "audit_golden.txt"] + [ROOT / n for n in sorted(names)])


def spawn(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion; past the deadline, kill its whole process
    group (a worker's own CLI child included) and wait for it."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached")
    with subprocess.Popen(argv, cwd=ROOT, env=workloads.child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as child:
        try:
            stdout, stderr = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise BenchError(f"{argv[1:3]} did not finish within the time limit") from exc
    return subprocess.CompletedProcess(argv, child.returncode, stdout, stderr)


def worker(args: dict, deadline: float) -> tuple[dict, float, float]:
    """Run one worker process; returns its result, its wall time in seconds
    and the calibration kernel's time around it."""
    before = speed_sample_ms()
    t0 = time.perf_counter()
    done = spawn([sys.executable, str(WORKER), json.dumps(args)], deadline)
    wall = time.perf_counter() - t0
    cal_ms = (before + speed_sample_ms()) / 2
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"worker {args['mode']} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1]), wall, cal_ms


def interp_start_ms(deadline: float) -> float:
    """Median wall time of ``python -c pass``: a floor that shows machine drift."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        spawn([sys.executable, "-c", "pass"], deadline)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def import_times_ms(deadline: float) -> dict:
    """Median ``-X importtime`` figures for ``import evrforge.cli``."""
    samples: dict[str, list[float]] = {}
    for _ in range(PROBE_REPEATS):
        done = spawn([sys.executable, "-X", "importtime", "-c", "import evrforge.cli"], deadline)
        for line in done.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            module = parts[2].strip()
            if module.startswith("evrforge."):
                short = module.removeprefix("evrforge.")
                samples.setdefault(f"{short}.import_self_ms", []).append(int(parts[0]) / 1000)
                if short == "cli":
                    samples.setdefault("cli.import_ms", []).append(int(parts[1]) / 1000)
    return {name: statistics.median(values) for name, values in samples.items()}


# ---------------------------------------------------------------------------
# Statistics

def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least ten
    samples beyond it.  Below 40 samples, a quarter of the samples must lie
    beyond it instead, so that a short run still reports a steady upper
    percentile rather than its single slowest op."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(10, n // 4)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def doubling_ratio(groups: dict[str, tuple[float, list[float]]]) -> float:
    """Time ratio per doubling of input size: 2**slope of a least-squares
    line through log(median time) against log(input size), one point per
    distinct input with a positive time.  0 when those inputs span less than
    a factor of 1.5 in size, too little to fit a slope."""
    points = [(math.log(kb), math.log(statistics.median(ms)))
              for kb, ms in groups.values() if statistics.median(ms) > 0]
    if not points or max(x for x, _ in points) - min(x for x, _ in points) < math.log(1.5):
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    slope = (sum((x - mx) * (y - my) for x, y in points)
             / sum((x - mx) ** 2 for x, _ in points))
    return 2.0 ** slope


def ref_ms(op: dict) -> float:
    """The op's wall time scaled to the reference speed (see calibrate.py)."""
    return op["ms"] * REFERENCE_MS / op["cal_ms"]


def by_input(ops: list[dict], value) -> dict[str, tuple[float, list[float]]]:
    groups: dict[str, tuple[float, list[float]]] = {}
    for op in ops:
        groups.setdefault(op["key"], (op["kb"], []))[1].append(value(op))
    return groups


# ---------------------------------------------------------------------------
# Metrics

def end_to_end(workload, setups: list[tuple[float, float]], result: dict) -> tuple[dict, dict]:
    """Times are scaled to the reference speed; the details keep the wall times."""
    timed = result["ops"][result["warm_ops"]:]
    head = [op for op in timed if workload.headline(op["key"])]
    tail_ms, percentile, samples = tail([ref_ms(op) for op in head])
    busy_s = sum(ref_ms(op) for op in timed) / 1000.0
    metrics = {
        "setup_s": statistics.median(wall * REFERENCE_MS / cal for wall, cal in setups),
        "op_ms_p50": statistics.median(ref_ms(op) for op in head),
        "op_ms_tail": tail_ms,
        "ops_per_s": len(timed) / busy_s,
        "input_kb_per_s": sum(op["kb"] for op in timed) / busy_s,
        "doubling_ratio": doubling_ratio(by_input(timed, ref_ms)),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    details = {"setup_wall_s": [wall for wall, _ in setups],
               "op_wall_ms_p50": statistics.median(op["ms"] for op in head),
               "cal_ms_p50": statistics.median(op["cal_ms"] for op in timed),
               "ops": len(timed), "headline_ops": len(head), "elapsed_s": result["elapsed_s"],
               "tail_percentile": percentile, "tail_samples": samples,
               "per_input_ref_ms_p50": {k: statistics.median(v) for k, (_, v)
                                        in by_input(timed, ref_ms).items()}}
    return metrics, details


def per_layer(workload, untraced: dict, traced: dict) -> tuple[dict, dict]:
    ops = traced["ops"]
    head = [op for op in ops if workload.headline(op["key"])]

    def mean(value) -> float:
        return statistics.fmean(value(op) for op in head)

    def span(name: str, field: int) -> float:
        return mean(lambda op: op["spans"].get(name, [0.0, 0.0, 0])[field])

    def count(name: str) -> float:
        return mean(lambda op: op["counts"].get(name, 0))

    plain = [ref_ms(op) for op in untraced["ops"][untraced["warm_ops"]:]
             if workload.headline(op["key"])]
    parsed_kb = count("dsl.parse_register.bytes") / 1024
    op_ms = mean(lambda op: op["ms"])
    spanned_ms = mean(lambda op: op["spanned_ms"])
    metrics = {
        "cli.render_audit_report.self_ms": span("cli.render_audit_report", 1),
        "dsl.parse_register.self_ms": span("dsl.parse_register", 1),
        "dsl.parse_register.us_per_kb": (span("dsl.parse_register", 1) * 1000 / parsed_kb
                                         if parsed_kb else 0.0),
        "dsl.serialize_canonical.ms": span("dsl.serialize_canonical", 0),
        "dsl.export_interchange.ms": span("dsl.export_interchange", 0),
        "model.validate_register.ms": span("model.validate_register", 0),
        "model.DocIndex.ms": span("model.DocIndex", 0),
        "model.DocIndex.builds": span("model.DocIndex", 2),
        "model.DocIndex.attestations_for.calls": count("model.DocIndex.attestations_for.calls"),
        "model.control_parent.calls": count("model.control_parent.calls"),
        "rules.run_rules.self_ms": span("rules.run_rules", 1),
        "rules.findings": count("rules.findings"),
        "analytics.lens_coverage.calls": span("analytics.lens_coverage", 2),
        "analytics.lens_coverage.ms": span("analytics.lens_coverage", 0),
        "trace.coverage_report.self_ms": span("trace.coverage_report", 1),
        "trace.maturity_score.self_ms": span("trace.maturity_score", 1),
        "trace.build_graph.ms": span("trace.build_graph", 0),
        "trace.diff_registers.ms": span("trace.diff_registers", 0),
        "trace_overhead_ratio": (statistics.median(ref_ms(op) for op in head)
                                 / statistics.median(plain)),
        "op.unspanned_share": 1.0 - spanned_ms / op_ms,
    }
    for name in LAYER_DOUBLING:
        metrics[f"{name}.doubling_ratio"] = doubling_ratio(
            by_input(ops, lambda op: op["spans"].get(name, [0.0])[0]))
    for sub, ms in traced["cli_main_ms"].items():
        metrics[f"cli.main_ms.{sub}"] = ms
    for rule_id, ms in traced["rule_self_ms"].items():
        metrics[f"rules.{rule_id}.self_ms"] = ms
    details = {"cal_ms_p50": statistics.median(op["cal_ms"] for op in ops),
               "traced_ops": len(ops), "headline_ops": len(head), "untraced_ops": len(plain),
               "traced_op_ms": op_ms, "spanned_ms": spanned_ms,
               "unspanned_ms": op_ms - spanned_ms}
    return metrics, details


def run(args, work: Path) -> tuple[dict, dict, dict]:
    """(result fields other than metrics, details, measured metrics by name)"""
    deadline = time.monotonic() + TIME_LIMIT_S
    workload = workloads.WORKLOADS[args.workload](work, args.seed)
    base = {"workload": args.workload, "seed": args.seed, "work": str(work)}
    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                     "interp_start_ms": interp_start_ms(deadline)}
    if args.trace:
        setup, _, _ = worker(dict(base, mode="setup"), deadline)
        untraced, _, _ = worker(dict(base, mode="measure", seconds=args.seconds / 2), deadline)
        traced, _, _ = worker(dict(base, mode="trace", seconds=args.seconds / 2), deadline)
        metrics, more = per_layer(workload, untraced, traced)
        metrics.update(import_times_ms(deadline))
        metrics["cli.interp_start_ms"] = details["interp_start_ms"]
        results = [untraced, traced]
        OUT.mkdir(exist_ok=True)
        ops_file = OUT / f"{args.workload}-seed{args.seed}-ops.json"
        ops_file.write_text(json.dumps(traced["ops"]), encoding="utf-8")
        more["ops_file"] = str(ops_file.relative_to(ROOT))
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            setup, wall, cal_ms = worker(dict(base, mode="setup"), deadline)
            setups.append((wall, cal_ms))
        measured, _, _ = worker(dict(base, mode="measure", seconds=args.seconds), deadline)
        metrics, more = end_to_end(workload, setups, measured)
        results = [measured]
    attempted = sum(len(r["ops"]) for r in results)
    failed = sum(1 for r in results for op in r["ops"] if not op["ok"])
    if args.trace:
        metrics["failed_ratio"] = failed / attempted
    details.update(more, inputs=setup["inputs"])
    correct = failed == 0 and all(r["pinned_ok"] for r in results)
    return {"correct": correct, "attempted": attempted, "failed": failed}, details, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [str(p.relative_to(ROOT)) for p in required_files() if not p.is_file()]
    if missing:
        print(f"perfbench: not an evrforge checkout, missing {missing}", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]

    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        summary, details, measured = run(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    absent = [m["name"] for m in wanted if m["name"] not in measured]
    if absent:
        print(f"perfbench: metrics not measured: {absent}", file=sys.stderr)
        return 3
    print(json.dumps(details))
    summary["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                          for m in wanted}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
