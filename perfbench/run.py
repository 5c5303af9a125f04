"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_cases --seed 1 --seconds 15 --trace 0

Workloads: ``paper_cases``, ``service_mix``, ``family_check`` (see
``perfbench/NOTES.md``).  ``--trace 0`` measures the end-to-end metrics
with tracing off.  ``--trace 1`` runs the same work twice, untraced and
then traced, and prints the per-layer metrics, the tracing overhead and
the share of the traced wall that the layers cover.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
failed checks are listed on standard error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys

WORKLOADS = ("paper_cases", "service_mix", "family_check")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit "
                             "(what setup_s times)")
    return parser.parse_args(argv)


def _untraced_metrics(args, leg) -> dict:
    from catalog import end_to_end_metrics
    from common import p50, p95, peak_rss_mb, time_setup

    setup_s = leg.extras.get("setup_s")
    if setup_s is None:
        setup_s = time_setup(args.workload, args.seed)
    return end_to_end_metrics({
        "setup_s": setup_s,
        "points_per_s": leg.items_per_s(),
        "point_s_p50": p50(leg.item_times()),
        "point_s_p95": p95(leg.item_times()),
        "peak_rss_mb": leg.extras.get("peak_rss_mb") or peak_rss_mb(),
    })


def _traced_metrics(plain, traced) -> dict:
    from catalog import layer_values, per_layer_metrics

    values = dict(plain.extras)
    values.update(traced.extras)
    values.update(layer_values(traced.layers))
    # Whatever no layer covers is reported, not dropped.
    covered = traced.layers.covered() + traced.extras.get("serve.dispatch_s",
                                                          0.0)
    values["pipeline.overhead_s"] = max(0.0, traced.wall - covered)
    values["trace.coverage"] = min(1.0, covered / traced.wall)
    # Both legs host-normalised, so a change of host speed between them
    # does not read as overhead.
    values["trace.overhead_s"] = traced.seconds - plain.seconds
    print(f"traced wall {traced.wall:.3f} s, untraced {plain.wall:.3f} s "
          f"(normalised {traced.seconds:.3f} s, {plain.seconds:.3f} s), "
          f"layers cover {values['trace.coverage']:.1%}; uncovered span "
          f"self time: {dict(traced.layers.uncovered)}", file=sys.stderr)
    return per_layer_metrics(values)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print("perfbench: run from the root of a checkout (no src/repro "
              "here)", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    # Each vCPU of a shared host swings between speeds on its own, so the
    # run and every process it starts share one CPU, the one whose speed
    # the reference samples measure (common.HostSpeed).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # A shell that starts this in the background ignores SIGINT, and
    # children would inherit that; servers are stopped with SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # A run stopped from outside still runs the workloads' clean-up, which
    # stops their servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from common import Outcome

    module = importlib.import_module(args.workload)
    inputs = module.setup(args.seed)
    if args.setup_only:
        return 0
    outcome = Outcome()
    leg = module.measure(inputs, args.seed, args.seconds, outcome)
    if args.trace:
        import layers

        for target in layers.install():
            print(f"perfbench: no hook target {target}", file=sys.stderr)
        traced = module.measure(inputs, args.seed, args.seconds, outcome,
                                traced=True, passes=leg.extras["passes"])
        metrics = _traced_metrics(leg, traced)
    else:
        metrics = _untraced_metrics(args, leg)
    for failure in outcome.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": outcome.failed_items == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed_items,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
