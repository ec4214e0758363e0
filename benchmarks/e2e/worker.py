"""One measured unit of one workload, in a fresh interpreter.

``run.py`` starts this script once per unit so the process-wide frontend
memo, cost memo and ``ru_maxrss`` start clean.  The last line printed is one
JSON object; everything the parent reports comes from it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))


def report_trace(tracer, workload, outcome, wall_s: float, stopped: float, full: bool) -> None:
    """Fold the spans into ``outcome.layer`` and check the trace itself."""
    from tracer import SPAN_TARGETS

    layer = outcome.layer
    trace = tracer.aggregate(stopped, ("simulator.simulate", "rl.collect_batch"))
    for name in SPAN_TARGETS:
        layer[f"{name}.calls"] = trace["calls"].get(name, 0)
        layer[f"{name}.self_s"] = trace["self_s"].get(name, 0.0)
    layer["simulator.simulate_in_ppo.calls"] = trace["nested_calls"]
    layer["trace.spans"] = trace["spans"]
    # Tracing cost = spans recorded x the cost of recording one.
    layer["trace.overhead_share"] = trace["spans"] * tracer.span_cost() / wall_s
    layer["trace.unattributed_share"] = trace["root_self_s"] / trace["root_total_s"]
    # Self times of the measuring thread's span tree must add up to the
    # wall measured independently by the caller.
    layer["trace.self_sum_error"] = abs(trace["root_tree_self_s"] - wall_s) / wall_s
    if full:  # smoke sizes do not reach every layer
        for name in workload.live_spans:
            outcome.check(trace["calls"].get(name, 0) > 0, f"dead span: {name} recorded no call")
        for name in workload.dead_spans:
            outcome.check(trace["calls"].get(name, 0) == 0,
                          f"bypass broken: {name} recorded {trace['calls'].get(name)} calls")
    outcome.check(layer["trace.self_sum_error"] <= 0.02,
                  f"self times miss the wall by {layer['trace.self_sum_error']:.1%}")
    outcome.check(layer["trace.overhead_share"] <= 0.05,
                  f"tracing overhead {layer['trace.overhead_share']:.1%} exceeds 5%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--workdir", help="empty scratch directory for this unit")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--fill", metavar="CACHE_DIR",
                        help="train_warm_joint only: run the store-filling cold run")
    args = parser.parse_args(argv)

    from hostspeed import SpeedProbe, pin_to_one_cpu

    pin_to_one_cpu()
    setup_probe = SpeedProbe()  # before the heavy imports: they are set-up too

    import workloads
    from tracer import ROOT, Tracer

    size = workloads.size_of(args.workload, args.size)
    if args.fill:
        filled = workloads.fill_store(args.seed, size, args.fill)
        print(json.dumps({**filled, "excess_s": setup_probe.finish().excess_s}))
        return 0

    workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer()
    measure = workload.measure
    if args.traced:
        tracer.install()
        measure = tracer.wrap(ROOT, measure)
    state = workload.setup(args.seed, size, args.workdir)
    # Set-up CPU the neighbour cost us, here and in a store-filling child.
    setup_excess_s = setup_probe.finish().excess_s + state.get("setup_excess_s", 0.0)

    probe = SpeedProbe()
    tracer.active = args.traced
    started = time.perf_counter()
    measure_started = time.monotonic()
    outcome = measure(state)
    stopped = time.perf_counter()
    tracer.active = False
    # CPU time with the neighbour's interference divided out (hostspeed.py);
    # idle time — waiting on a socket or a queue — is kept as measured.
    reading = probe.finish()
    wall_s = stopped - started

    if workload.verify is not None:
        workload.verify(state, outcome)
    if workload.teardown is not None:
        workload.teardown(state)

    layer = outcome.layer
    layer.update({"raw.wall_s": wall_s, "raw.cpu_s": reading.cpu_s,
                  "host.slowdown": reading.slowdown})
    if args.traced:
        report_trace(tracer, workload, outcome, wall_s, stopped, full=args.size == "full")

    print(json.dumps({
        "measure_started": measure_started,
        "setup_excess_s": setup_excess_s,
        "wall_s": wall_s,
        "wall_ref_s": wall_s - reading.excess_s,
        "cpu_ref_s": reading.cpu_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "quality": outcome.quality,
        "counts": outcome.counts,
        "layer": layer,
        "window_ms": outcome.window_ms,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
