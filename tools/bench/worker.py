"""One benchmark process: set up a workload, then time passes.

Started by ``run.py``, never by hand. It notes when set-up (imports,
seeded inputs, oracle, one discarded warm-up pass) is done, so the
parent can time set-up from process start, then runs timed passes over
its share of the workload's variants in turn until its share of the
run's seconds is used, and prints one JSON line with what it measured:
each pass's host seconds, and the seconds of the reference loop
(``reference.py``) run just before and just after it. With ``--trace
PATH`` it instead traces input generation and one pass, writes the
Chrome trace to PATH, and reports the per-layer metrics.

Garbage left by set-up is frozen out of the collector's view, and a
full collection runs before every pass, untimed, so each pass starts
from the same heap and its collections fall at the same points.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bench import require_src  # noqa: E402

require_src()

from bench.layers import KEEP, LAYERS, per_layer_metrics  # noqa: E402
from bench.reference import NOMINAL_S, reference_seconds  # noqa: E402
from bench.tracer import LayerTracer  # noqa: E402
from bench.workloads import WORKLOADS, build  # noqa: E402
from repro.obs.validate import validate_file  # noqa: E402


def _variant_record(result) -> dict:
    sim, digest = result.signature()
    return {"sim": sim, "digest": digest, "latencies": result.latencies}


def _check_repeat(result, first: dict, report: dict, label: str) -> None:
    """A pass whose simulated numbers differ from an earlier pass on the
    same inputs fails every op it ran."""
    sim, digest = result.signature()
    if sim != first["sim"] or digest != first["digest"]:
        report["failed"] += result.attempted
        report["errors"].append(f"{label}: simulated numbers differ from "
                                 "an earlier pass on the same inputs")


def _record(result, report: dict) -> None:
    report["attempted"] += result.attempted
    report["failed"] += result.failed
    report["errors"].extend(result.errors)


def assigned(variants: int, process: int, processes: int) -> list:
    """The variants process ``process`` of ``processes`` times; with
    fewer variants than processes they are shared."""
    return list(range(variants))[process % variants::processes]


def timed(options, workload, report: dict) -> None:
    mine = assigned(workload.variants, options.process, options.processes)
    first = {0: report["reference"]}
    began = time.perf_counter()
    index = 0
    reference = reference_seconds()
    while index < len(mine) or time.perf_counter() - began < options.seconds:
        variant = mine[index % len(mine)]
        gc.collect()
        start = time.perf_counter()
        result = workload.run_pass(variant)
        seconds = time.perf_counter() - start
        after = reference_seconds()
        report["passes"].append({"variant": variant, "seconds": seconds,
                                 "reference_s": [reference, after]})
        reference = after
        _record(result, report)
        if variant in first:
            _check_repeat(result, first[variant], report, f"pass {index}")
        else:
            first[variant] = _variant_record(result)
        if index == 0:
            # Peak through set-up and one timed pass: later passes only
            # move it with the timing of garbage collection.
            report["rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        index += 1
    report["variants"] = first


def traced(options, workload, tracer, report: dict) -> None:
    before_pass = tracer.totals()
    gc.collect()
    reference = reference_seconds()
    tracer.install()
    start = time.perf_counter()
    try:
        result = workload.run_pass(0)
    finally:
        tracer.uninstall()
    seconds = time.perf_counter() - start
    reference = (reference + reference_seconds()) / 2
    _record(result, report)
    _check_repeat(result, report["reference"], report, "traced pass")
    # The untraced time comes at the reference speed; compare at this
    # process's speed.
    untraced = options.untraced_pass_s * reference / NOMINAL_S
    report["per_layer"] = per_layer_metrics(tracer, before_pass, seconds,
                                            untraced)
    tracer.write_chrome(options.trace, f"bench {options.workload}")
    problems = validate_file(options.trace)
    report["attempted"] += 1
    if problems:
        report["failed"] += 1
        report["errors"].extend(f"trace: {p}" for p in problems[:5])
    if hasattr(workload, "ladder"):
        report["ladder"] = workload.ladder()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--process", type=int, default=0)
    parser.add_argument("--processes", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", help="Chrome trace output path")
    parser.add_argument("--untraced-pass-s", type=float, default=0.0)
    options = parser.parse_args(argv)

    report = {"attempted": 0, "failed": 0, "errors": [], "passes": []}
    cls = WORKLOADS[options.workload]
    tracer = None
    if options.trace:
        tracer = LayerTracer(LAYERS, KEEP)
        with tracer:
            workload = cls(options.seed, [0])
        workload.prepare()
    else:
        variants = sorted({0, *assigned(cls.variants, options.process,
                                        options.processes)})
        workload = build(options.workload, options.seed, variants)
    warm = workload.run_pass(0)
    _record(warm, report)
    report["reference"] = _variant_record(warm)
    gc.collect()
    gc.freeze()
    report["ready_at"] = time.clock_gettime(time.CLOCK_MONOTONIC)

    if tracer is not None:
        traced(options, workload, tracer, report)
    else:
        timed(options, workload, report)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
