#!/usr/bin/env python3
"""Compare two benchmark reports (``run.py -o``): base, then new.

Usage::

    python3 tools/bench/compare.py BASE.json NEW.json

For each workload and end-to-end metric it prints both values (for
``pass_s`` the mean over variants of each variant's median pass, the
median otherwise), quartiles and sample counts (of all passes for
``pass_s``), and a verdict from the metric's direction and bound in
``BENCHMARK.json``:

* ``worse`` / ``better`` -- the value moved by more than the bound;
* ``within bound``;
* ``unresolved`` -- either side's spread (quartile distance over
  median) is wider than the bound, unless every new sample is better
  than every base sample.

Simulated numbers are exact for a seed, so when both reports used the
same seed every simulated number that moved is listed with its own
verdict (bound 0). Per-layer metrics, when both reports have them, are
listed as changes without a verdict. The exit code is 1 on any
``worse`` verdict or any rise in a workload's fail ratio, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bench.report import load_benchmark, simulated_unit  # noqa: E402


def _worse_by(base: float, new: float, better: str) -> float:
    """Relative change, positive when ``new`` is worse."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _spread(summary: dict) -> float:
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / abs(median) if median else 0.0


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    worse = _worse_by(base["value"], new["value"], better)
    if max(_spread(base), _spread(new)) > bound:
        if better == "lower":
            all_better = max(new["samples"]) < min(base["samples"])
        else:
            all_better = min(new["samples"]) > max(base["samples"])
        return "better" if all_better else "unresolved"
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "within bound"


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def compare(base: dict, new: dict, benchmark: dict) -> int:
    status = 0
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        old, cur = base["workloads"][workload], new["workloads"][workload]
        print(f"== {workload} ==")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if name not in old["end_to_end"] or name not in cur["end_to_end"]:
                continue
            a, b = old["end_to_end"][name], cur["end_to_end"][name]
            result = verdict(a, b, metric["better"], metric["bound"])
            status |= result == "worse"
            print(f"  {name:<14} base {_fmt(a['value'])} "
                  f"[{_fmt(a['q1'])}, {_fmt(a['q3'])}] n={a['n']}  "
                  f"new {_fmt(b['value'])} [{_fmt(b['q1'])}, {_fmt(b['q3'])}] "
                  f"n={b['n']}  {metric['unit']}  "
                  f"{100 * (b['value'] - a['value']) / a['value']:+.1f}%  "
                  f"{result} (bound {metric['bound']:.0%})")
        if cur["fail_ratio"] > old["fail_ratio"]:
            status = 1
            print(f"  fail_ratio rose: {old['fail_ratio']:.6g} -> "
                  f"{cur['fail_ratio']:.6g}  worse")
        if old["seed"] != cur["seed"]:
            print(f"  simulated numbers not compared: seeds {old['seed']} "
                  f"and {cur['seed']} differ")
        else:
            moved = 0
            for name in sorted(set(old["simulated"]) | set(cur["simulated"])):
                a, b = old["simulated"].get(name), cur["simulated"].get(name)
                if a == b:
                    continue
                moved += 1
                unit, better = simulated_unit(name)
                if a is None or b is None or better is None:
                    result = "changed"
                else:
                    result = ("worse" if _worse_by(a, b, better) > 0
                              else "better")
                status |= result == "worse"
                print(f"  simulated {name}: {a} -> {b} {unit}  {result}")
            if not moved:
                print("  simulated numbers: all identical")
        if "per_layer" in old and "per_layer" in cur:
            for name, a in old["per_layer"].items():
                b = cur["per_layer"].get(name)
                if b is not None and b != a:
                    print(f"  per layer {name}: {_fmt(a)} -> {_fmt(b)}")
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    options = parser.parse_args(argv)
    base = json.loads(options.base.read_text())
    new = json.loads(options.new.read_text())
    return compare(base, new, load_benchmark())


if __name__ == "__main__":
    raise SystemExit(main())
