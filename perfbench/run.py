"""The sgideals benchmark: one workload per run, checked against goldens.

    python3 perfbench/run.py --workload pool6 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src.
--seed drives only the generated inputs (relabelings of fixed tables).
With --trace 0 the run repeats whole passes over the workload's inputs for
about --seconds seconds, and at least until the 90th percentile of its
operation latencies has ten samples above it, then prints the end-to-end
metrics.  With --trace 1 it makes one untraced pass, then one pass with
every public function of the package traced, prints the per-layer metrics
and writes the spans to perfbench/.work/spans-<workload>-<seed>.json.
The last line of standard output is the result as one JSON object.
"""
from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

import inputs
import layers
import metrics
import spans
import workloads

clock = time.perf_counter

SETUP_REPEATS = 7


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    sg = inputs.import_sgideals(root)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"have {sorted(workloads.WORKLOADS)}")
    goldens = inputs.load_goldens()
    wl = workloads.WORKLOADS[args.workload](sg, goldens, root)
    speed = wl.speed()
    rec = workloads.Recorder(speed)
    rec.check(sg.verify.registered_ids() == goldens["check_ids"], "registered check ids")

    # set-up: importing the package in a fresh interpreter, then building
    # the inputs from the seed; repeated, and reported as the median
    import_times, build_work = [], []
    for _ in range(SETUP_REPEATS):
        import_times.append(workloads.import_seconds(sg, root))
        speed.sample()
        a = clock()
        wl.setup(args.seed)
        b = clock()
        build_work.append((a, b, b - a))
        speed.sample()

    if args.trace:
        units, values = traced_run(sg, wl, rec, args, import_times)
    else:
        units, values = measured_run(wl, rec, args.seconds)
        values["setup_s"] = statistics.median(
            imp + speed.scaled([piece]) for imp, piece in zip(import_times, build_work))

    for msg in rec.failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} {values[name]} {unit}")
    print(metrics.result_line(rec.failed == 0, rec.attempted, rec.failed, values, units))
    return 0


def measured_run(wl, rec, seconds: float) -> tuple[dict, dict]:
    """Untraced passes; returns the end-to-end units and values but setup_s."""
    speed = rec.speed
    passes = []
    start = clock()
    while True:
        with speed.running():
            passes.append(wl.run_pass(rec))
        elapsed = clock() - start
        if (len(rec.latency) >= workloads.MIN_SAMPLES
                and elapsed + statistics.median(sum(w[2] for w in p) for p in passes) > seconds):
            break
    wl.finish(rec)
    latency = [dur * speed.scale_for(a, b) for a, b, dur in rec.latency]
    values = {
        "wall_s": statistics.median(speed.scaled(p) for p in passes),
        "peak_rss_mb": wl.peak_rss_mb(),
        "ok_ratio": 1.0 - rec.failed / rec.attempted,
        "verdicts_per_s": rec.verdicts / speed.scaled(rec.verdict_work),
        "p50_ms": 1e3 * metrics.percentile(latency, 50),
        "p90_ms": 1e3 * metrics.percentile(latency, 90),
    }
    info = {"passes": len(passes), "ops": len(rec.latency), "verdicts": rec.verdicts,
            "scale": speed.scale(), "reference_samples": len(speed.times),
            "measured_wall_s": statistics.median(sum(w[2] for w in p) for p in passes),
            "measured_p50_ms": 1e3 * metrics.percentile([w[2] for w in rec.latency], 50)}
    if rec.enum_work:
        info["classes_per_s"] = rec.classes / speed.scaled(rec.enum_work)
    if len(latency) >= metrics.min_samples(99):
        info["p99_ms"] = 1e3 * metrics.percentile(latency, 99)
    print("info " + " ".join(f"{k}={v}" for k, v in info.items()))
    return {k: unit for k, (unit, _better) in metrics.END_TO_END.items()}, values


def traced_run(sg, wl, rec, args, import_times) -> tuple[dict, dict]:
    """One untraced pass, then one traced pass; returns the per-layer units
    and values, and writes the spans."""
    speed = rec.speed
    with speed.running():
        untraced = speed.scaled(wl.run_pass(rec))
    tracer = spans.Tracer()
    observers = layers.Observers()
    pauses = []
    tracer.install(sg, inputs.MODULES, observers.callbacks())
    traced_rec = workloads.Recorder(speed)
    # speed samples taken inside traced calls are cut out of their spans
    speed.on_sample = lambda a, b: pauses.append((a, b, tracer.current()))
    try:
        with speed.running():
            traced = speed.scaled(wl.run_pass(traced_rec, tracer))
    finally:
        speed.on_sample = None
        tracer.uninstall()
    wl.finish(rec)
    rec.attempted += traced_rec.attempted
    rec.failures += traced_rec.failures
    observers.merge(wl.counts)

    units = {k: unit for k, (unit, _better) in metrics.per_layer(wl.check_ids).items()}
    values = layers.layer_metrics(tracer, wl.roots, observers.count, wl.check_ids, pauses)
    scale = speed.scale()
    values = {k: v * scale if units[k] == "s" else v for k, v in values.items()}
    # cli_reports times its children's imports; the others only set-up's
    child_import = layers.median_span(tracer, wl.roots, "cli.import")
    values["cli.import_s"] = child_import * scale or statistics.median(import_times)
    leaves = layers.children_named(tracer, wl.roots, "corpus.enumerate_monoids_with_zero",
                                   "core.Semigroup")
    values.update({
        "corpus.enumerate.leaves": leaves,
        "corpus.enumerate.classes": traced_rec.classes,
        "corpus.enumerate.useful_ratio": traced_rec.classes / leaves if leaves else 0.0,
        "verify.holds": traced_rec.tally["holds"],
        "verify.vacuous": traced_rec.tally["vacuous"],
        "verify.discrepancy": traced_rec.tally["discrepancy"],
        "verify.vacuous_cap": traced_rec.tally["vacuous_cap"],
        "cli.usage_exit_mismatch": workloads.usage_exit_mismatch(sg, wl.root),
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
    })
    work = os.path.join(inputs.HERE, ".work")
    os.makedirs(work, exist_ok=True)
    tracer.dump(os.path.join(work, f"spans-{args.workload}-{args.seed}.json"),
                roots=wl.roots, pauses=pauses, counters=observers.count)
    return units, values


if __name__ == "__main__":
    sys.exit(main())
