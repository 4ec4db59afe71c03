"""mapforge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-corpus --seed 3 --seconds 30 --trace 0

Runs from the root of a checkout and benchmarks ``src/mapforge`` there,
single-process.  Set-up (import, input generation, warm-up) is repeated
``SETUPS`` times and its median reported.  Then units of the workload run
until ``--seconds`` is used up, always at least one full cycle.  Every
output is checked.  Times in the JSON result are speed-scaled (see
speed.py); the report lines give wall times beside them.  Report lines go to stdout and the last line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  A traced run alternates an untraced and a traced copy of
each cycle, so the overhead is measured on the same inputs; its spans
are written to ``perfbench/out/``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import checks
import speed
import tracer as tracing
import workloads

SETUPS = 5
END_TO_END = ("setup_s", "peak_rss_mb", "part_a_s", "part_b_s", "part_c_s", "part_d_s")
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def machine() -> dict:
    """Interpreter, numpy and CPU facts to print beside the figures."""
    info = {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": platform.processor() or "unknown",
            "caches": [], "timing": "wall clock (time.perf_counter), single process, "
                                     "scaled by speed.Clock in the JSON result"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if entry.startswith("index"):
                parts = []
                for field in ("level", "type", "size"):
                    with open(os.path.join(base, entry, field), encoding="utf-8") as fh:
                        parts.append(fh.read().strip())
                info["caches"].append("L{} {} {}".format(*parts))
    except OSError:
        pass
    return info


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(workload, seed):
    """Import, generate and warm up ``SETUPS`` times.

    Returns (mf, median scaled seconds, median wall seconds).
    """
    def once():
        mf = workloads.import_mapforge()
        workload.setup(mf, seed)
        return mf

    scaled, wall = [], []
    for _ in range(SETUPS):
        mf = workload.clock.run(once)
        scaled.append(workload.clock.scaled)
        wall.append(workload.clock.wall)
    return mf, statistics.median(scaled), statistics.median(wall)


def measure(workload, seconds):
    """Untraced units in cycle order; after the first full cycle, a unit
    that would not finish within ``seconds`` is skipped, and the run ends
    when none would."""
    cycle = workload.cycle()
    last: dict[str, float] = {}
    samples = []
    start = time.perf_counter()
    index = skipped = 0
    while skipped < len(cycle):
        key = cycle[index % len(cycle)]
        index += 1
        if key in last and time.perf_counter() - start + last[key] > seconds:
            skipped += 1
            continue
        skipped = 0
        t0 = time.perf_counter()
        samples.append(workload.run(key, tracing.NullTracer()))
        last[key] = time.perf_counter() - t0
    return samples


def measure_traced(workload, mf, seconds):
    """Pairs of one untraced and one traced cycle on the same inputs."""
    tracer = tracing.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    pair_s = 0.0
    cycles = 0
    while cycles == 0 or time.perf_counter() - start + pair_s <= seconds:
        t0 = time.perf_counter()
        untraced += [workload.run(key, tracing.NullTracer())
                     for key in workload.cycle()]
        with tracing.installed(tracer, vars(mf)):
            traced += [workload.run(key, tracer) for key in workload.cycle()]
        pair_s = time.perf_counter() - t0
        cycles += 1
    return untraced, traced, tracer, cycles


def write_trace(name, seed, info, spans, metrics):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "machine": info, "metrics": metrics,
                   "span_fields": ["name", "start", "end", "parent", "value"],
                   "spans": spans}, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        expected = checks.load_expected()
        workload = workloads.WORKLOADS[args.workload](expected, speed.Clock())
        mf, setup_s, setup_wall = set_up(workload, args.seed)
    except (workloads.MissingProgram, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    info = machine()
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"machine: python {info['python']}, numpy {info['numpy']}, nproc {info['nproc']}, "
          f"{info['cpu']}; {', '.join(info['caches'])}; timings are {info['timing']}")

    if args.trace:
        samples, traced, tracer, cycles = measure_traced(workload, mf, args.seconds)
        everything = samples + traced
    else:
        samples = measure(workload, args.seconds)
        everything = samples
    attempted = sum(s.attempted for s in everything)
    failed = sum(s.failed for s in everything)
    for s in everything:
        for what in s.failures[:5]:
            print(f"FAILED {what}")

    rows = [("setup_s", setup_s, "s", f"median of {SETUPS} set-ups, scaled"),
            ("setup_wall_s", setup_wall, "s", "the same, wall"),
            ("peak_rss_mb", peak_rss_mb(), "MB", "whole process")]
    parts = workload.part_values(samples)
    walls = workload.part_values(samples, wall=True)
    for part in workload.PARTS:
        how = "half-scaled" if part in workload.NUMPY_PARTS else "scaled"
        rows.append((part, parts[part], "s", f"{workload.PARTS[part]}, {how}"))
        rows.append((part.replace("_s", "_wall_s"), walls[part], "s", "the same, wall"))
    rows += workload.report(samples)
    rows.append(("fail_ratio", failed / attempted if attempted else 1.0, "",
                 f"{failed} of {attempted} operations failed"))
    if args.trace:
        overhead = sum(s.scaled for s in traced) / sum(s.scaled for s in samples) - 1.0
        per_layer = tracing.layer_metrics(tracer.spans, cycles)
        per_layer.update(tracing.check_metrics(tracer.spans, workloads.CHECK_IDS, cycles))
        per_layer.update(tracing.verb_metrics(tracer.spans, cycles))
        per_layer["trace.overhead"] = overhead
        rows.append(("trace.overhead", overhead, "ratio",
                     f"traced / untraced - 1, scaled, over {cycles} cycle pairs"))
        path = write_trace(workload.name, args.seed, info, tracer.spans, per_layer)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path)}")
    for name, value, unit, note in rows:
        print(f"{name:<28} {value:>14.6g} {unit:<6} {note}")

    if args.trace:
        metrics = {name: {"value": value, "unit": tracing.unit_of(name)}
                   for name, value in per_layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in rows if name in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
