"""Run one skyway-delivery benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mission-small --seed 1 --seconds 25 --trace 0

Load is a closed loop in one process: each mission starts when the previous
one has ended and been checked. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` every other pass over the input pool
runs with span wrappers installed and the run reports per-layer metrics and
the tracing overhead. The last line of stdout is one JSON object; the lines
before it give every metric by name with its unit, the environment, and
where the full record (and, when traced, the spans) was written.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import spans
import workloads as wl

MIN_MISSIONS = 11  # the tail percentile needs ten samples beyond it
SETUP_REPS = 3  # set up at least this often per run...
SETUP_SECONDS = 1.0  # ...and again while the set-ups so far took less than this

# The end-to-end metrics BENCHMARK.json bounds. The median and tail mission
# times and the error rate are printed beside them but not bounded: the
# error rate is 0 on a correct program, and on a shared 2-core machine whose
# speed switches between two levels the median and the tail jump between
# those levels from run to run, by more than the largest bound, while the
# mean (missions_per_s) moves smoothly.
END_TO_END = {
    "missions_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Public function -> (span name, counter of work done, read from its result).
LAYERS = {
    "generate_scenario": ("scenario.generate", None),
    "parse_scenario": ("scenario.parse",
                       lambda s: {"nodes": len(s.network.nodes),
                                  "segments": len(s.network.segments)}),
    "build_network": ("graph.build", None),
    "shortest_paths_from": ("graph.sssp", lambda r: {"calls": 1}),
    "plan_ndf": ("planner.ndf", None),
    "plan_optimal": ("planner.exhaustive", None),
    "simulate_mission": ("simulator.simulate",
                         lambda r: {"telemetry_rows": len(r[0]),
                                    "energy_legs": len(r[1].energy.legs),
                                    "aborted": int(not r[1].completed)}),
    "export_telemetry": ("scenario.export_csv", lambda text: {"csv_bytes": len(text)}),
    "serialize_report": ("scenario.report_json", None),
}

# Per-layer metric -> (unit, span name, what is taken from it). "self" is the
# span's self time per mission, "count:<key>" a work count per mission (both
# as the median over the traced missions that reach the span), "call" the
# duration of a span outside any mission (set-up and probes) as a median
# per call, "total:<key>" a count summed over all traced missions, and
# "overhead" the traced minus the untraced median mission time.
PER_LAYER = {
    "scenario.generate_ms": ("ms", "scenario.generate", "call"),
    "scenario.parse_ms": ("ms", "scenario.parse", "self"),
    "graph.nodes": ("count", "scenario.parse", "count:nodes"),
    "graph.segments": ("count", "scenario.parse", "count:segments"),
    "graph.build_ms": ("ms", "graph.build", "self"),
    "graph.sssp_ms": ("ms", "graph.sssp", "self"),
    "graph.sssp_calls": ("count", "graph.sssp", "count:calls"),
    "planner.ndf_ms": ("ms", "planner.ndf", "self"),
    "planner.exhaustive_ms": ("ms", "planner.exhaustive", "self"),
    "simulator.simulate_ms": ("ms", "simulator.simulate", "self"),
    "simulator.telemetry_rows": ("count", "simulator.simulate", "count:telemetry_rows"),
    "simulator.aborted": ("count", "simulator.simulate", "total:aborted"),
    "energy.legs": ("count", "simulator.simulate", "count:energy_legs"),
    "scenario.export_csv_ms": ("ms", "scenario.export_csv", "self"),
    "scenario.csv_bytes": ("bytes", "scenario.export_csv", "count:csv_bytes"),
    "scenario.report_json_ms": ("ms", "scenario.report_json", "self"),
    "cli.interpreter_ms": ("ms", "cli.interpreter", "call"),
    "cli.import_ms": ("ms", "cli.import", "call"),
    "cli.plan_ms": ("ms", "cli.plan", "self"),
    "cli.run_ms": ("ms", "cli.run", "self"),
    "cli.compare_ms": ("ms", "cli.compare", "self"),
    "trace.overhead_ms": ("ms", None, "overhead"),
}


def environment(name: str, seed: int, seconds: int, trace: int) -> dict:
    commit = None  # the benchmark may run from an export that is not a git repository
    if (wl.ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src_files = sorted(wl.SRC.rglob("*.py"))
    src_digest = wl.sha(b"".join(p.relative_to(wl.SRC).as_posix().encode() + b"\0"
                                 + p.read_bytes() for p in src_files))
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": sys.executable, "python_version": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "commit": commit, "src_sha256": src_digest,
    }


class Loop:
    """Closed-loop results: per-mission wall times, failures and aborts."""

    def __init__(self):
        self.plain_ms: list[float] = []
        self.traced_ms: list[float] = []
        self.failed = 0
        self.aborted = 0

    @property
    def attempted(self) -> int:
        return len(self.plain_ms) + len(self.traced_ms)


def run_loop(workload, items, golden, seconds: float, tracer=None) -> Loop:
    loop = Loop()
    # A traced run flies at least one untraced and one traced pass.
    minimum = MIN_MISSIONS if tracer is None else max(MIN_MISSIONS, 2 * len(items))
    deadline = time.perf_counter() + seconds
    i = 0
    while i < minimum or time.perf_counter() < deadline:
        item = items[i % len(items)]
        # Whole passes over the pool alternate, so traced and untraced
        # missions fly the same inputs.
        traced = tracer is not None and (i // len(items)) % 2 == 1
        if tracer is not None and i % len(items) == 0 and workload.in_children:
            probe_cli(tracer)
        end = None
        start = time.perf_counter_ns()
        try:
            if traced:
                out = tracer.call(workload.span_name(item), i, workload.fly, item)
            else:
                out = workload.fly(item)
            end = time.perf_counter_ns()
            check = workload.check(item, out, golden)
        except Exception:
            if end is None:  # the mission itself raised
                end = time.perf_counter_ns()
            traceback.print_exc(file=sys.stderr)
            check = wl.Check(False, 0)
        (loop.traced_ms if traced else loop.plain_ms).append((end - start) / 1e6)
        loop.failed += not check.ok
        loop.aborted += check.aborted
        if not check.ok:
            print(f"mission {i} ({item[0]}): output check failed", file=sys.stderr)
        i += 1
    return loop


def probe_cli(tracer) -> None:
    tracer.record("cli.interpreter", 0, round(wl.probe_interpreter() * 1e9))
    tracer.record("cli.import", 0, round(wl.probe_import() * 1e9))


def setup(workload, golden, seed):
    """Set up several times; returns the pool and the median set-up seconds.

    One set-up is a fresh interpreter's import of the package plus building
    the input pool in this process.
    """
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
        import_s = wl.probe_import()
        start = time.perf_counter()
        items = workload.setup(golden, seed)
        times.append(import_s + time.perf_counter() - start)
    return items, statistics.median(times)


def tail(times_ms: list[float]) -> tuple[float, float]:
    """The highest sample with ten samples beyond it, and its percentile."""
    ordered = sorted(times_ms)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, loop: Loop, setup_s: float) -> tuple[dict, list[str]]:
    times = loop.plain_ms
    ok = loop.attempted - loop.failed
    tail_ms, tail_pct = tail(times)
    values = {
        "missions_per_s": ok / (sum(times) / 1e3),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    lines = [f"{name:<16} {values[name]:.6g} {unit}" for name, unit in END_TO_END.items()]
    lines.append(f"{'mission_ms_p50':<16} {statistics.median(times):.6g} ms")
    lines.append(f"{'mission_ms_tail':<16} {tail_ms:.6g} ms (p{tail_pct:.2f} of n={len(times)})")
    lines.append(f"{'error_rate':<16} {loop.failed / loop.attempted:.6g} ratio "
                 f"({loop.failed} failed of {loop.attempted} attempted)")
    lines.append(f"aborted: {loop.aborted} battery aborts (a correct result) "
                 f"in {loop.attempted} missions")
    return values, lines


def per_layer(tracer: spans.Tracer, loop: Loop) -> tuple[dict, list[str]]:
    own = tracer.self_ns()
    per_mission: dict[tuple[str, str], dict[int, float]] = {}
    calls: dict[str, list[float]] = {}
    totals: dict[tuple[str, str], int] = {}
    for span, self_ns in zip(tracer.spans, own):
        if span.mission is None:
            calls.setdefault(span.name, []).append(span.ms)
            continue
        bucket = per_mission.setdefault((span.name, "self"), {})
        bucket[span.mission] = bucket.get(span.mission, 0.0) + self_ns / 1e6
        for key, count in span.counts.items():
            bucket = per_mission.setdefault((span.name, f"count:{key}"), {})
            bucket[span.mission] = bucket.get(span.mission, 0) + count
            totals[(span.name, f"total:{key}")] = totals.get((span.name, f"total:{key}"), 0) + count
    traced_p50 = statistics.median(loop.traced_ms)
    plain_p50 = statistics.median(loop.plain_ms)
    values = {}
    for metric, (_, span_name, take) in PER_LAYER.items():
        if take == "overhead":
            values[metric] = traced_p50 - plain_p50
            continue
        if take.startswith("total:"):
            values[metric] = totals.get((span_name, take), 0)
            continue
        if take == "call":
            samples = calls.get(span_name)
        else:
            samples = list(per_mission.get((span_name, take), {}).values())
        values[metric] = statistics.median(samples) if samples else 0.0

    lines = [f"{name:<26} {value:.6g} {PER_LAYER[name][0]}" for name, value in values.items()]
    mission_ns = sum(s.end_ns - s.start_ns for s in tracer.spans
                     if s.mission is not None and s.parent is None)
    shares: dict[str, int] = {}
    for span, self_ns in zip(tracer.spans, own):
        if span.mission is not None:
            shares[span.name] = shares.get(span.name, 0) + self_ns
    lines.append("self-time share of traced mission time:")
    lines += [f"  {name:<24} {100.0 * ns / mission_ns:6.2f}%"
              for name, ns in sorted(shares.items(), key=lambda kv: -kv[1])]
    lines.append(f"tracing overhead: traced p50 {traced_p50:.6g} ms vs untraced p50 "
                 f"{plain_p50:.6g} ms over {loop.attempted} missions, {len(tracer.spans)} spans")
    return values, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = wl.WORKLOADS[args.workload]
    golden = wl.load_golden()[args.workload]
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    record: dict = {"env": env}
    try:
        if args.trace:
            tracer = spans.Tracer(wl.sd, LAYERS)
            items = tracer.call("setup", None, workload.setup, golden, args.seed)
            loop = run_loop(workload, items, golden, args.seconds, tracer)
            metrics, lines = per_layer(tracer, loop)
            units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
            record["spans"] = tracer.dump()
        else:
            items, setup_s = setup(workload, golden, args.seed)
            loop = run_loop(workload, items, golden, args.seconds)
            metrics, lines = end_to_end(workload, loop, setup_s)
            units = END_TO_END
            record["mission_ms"] = loop.plain_ms
    finally:
        workload.close()

    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record.update(result)
    wl.OUT_DIR.mkdir(exist_ok=True)
    out_path = wl.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {loop.attempted} missions, "
          f"{loop.failed} failed")
    print("\n".join(lines))
    print("env: " + json.dumps(env))
    print(f"record: {out_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
