"""Checks on the benchmark itself.

Run from the repository root (tier 1 collects only ``tests/``)::

    PYTHONPATH=src python -m pytest -q tools/bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bench import ROOT, require_src  # noqa: E402

require_src()

from bench import workloads as W  # noqa: E402
from bench.compare import compare, verdict  # noqa: E402
from bench.layers import KEEP, LAYERS, per_layer_metrics  # noqa: E402
from bench.reference import NOMINAL_S, at_reference_speed  # noqa: E402
from bench.report import load_benchmark, pass_seconds, summarize  # noqa: E402
from bench.tracer import LayerTracer, resolve  # noqa: E402
from repro.obs import validate_chrome_trace  # noqa: E402

RUN = ROOT / "tools" / "bench" / "run.py"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = load_benchmark()


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module", params=list(W.WORKLOADS))
def invocation(request, tmp_path_factory):
    """One short but complete invocation per workload: three processes,
    one second of timed passes, the full report."""
    out = tmp_path_factory.mktemp("bench") / "report.json"
    proc = _run("--workload", request.param, "--seconds", "1", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    return (request.param, json.loads(proc.stdout.splitlines()[-1]),
            json.loads(out.read_text()))


def test_benchmark_names_use_allowed_characters():
    names = [w["name"] for w in BENCHMARK["workloads"]] + [
        m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(W.WORKLOADS)


def test_every_end_to_end_metric_is_emitted_with_its_unit(invocation):
    workload, line, report = invocation
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: metric["unit"] for name, metric in
            line["metrics"].items()} == expected
    assert all(metric["value"] > 0 for metric in line["metrics"].values())
    simulated = report["workloads"][workload]["simulated"]
    assert all(NAME.fullmatch(name) for name in simulated)


def test_simulated_numbers_agree_across_passes_and_processes(invocation):
    # run.py fails every op of a pass or process whose simulated
    # numbers differ from another run of the same inputs.
    workload, _line, report = invocation
    result = report["workloads"][workload]
    assert result["failed"] == 0, result["errors"]
    assert result["end_to_end"]["setup_s"]["n"] == 3
    again = W.build(workload, 11)
    first, second = again.run_pass(), again.run_pass()
    assert first.signature() == second.signature()


def test_seed_changes_the_request_stream():
    def arrivals(seed):
        return [(r.arrival, r.tenant, r.query)
                for r in W.request_stream(seed, 0, 50, 4000.0)]

    assert arrivals(11) == arrivals(11)
    assert arrivals(11) != arrivals(12)
    assert W.ServeRead(11).streams[0] != W.ServeRead(12).streams[0]


@pytest.mark.parametrize("workload, query", [("single_dpu", "q6"),
                                             ("serve_read", "q1")])
def test_a_wrong_oracle_raises_the_fail_ratio(workload, query):
    bench = W.build(workload, 11)
    assert bench.run_pass().failed == 0
    bench.oracle[query] = ()
    result = bench.run_pass()
    assert 0 < result.failed <= result.attempted


def test_tracer_restores_every_attribute_and_catches_aliases():
    import repro.cluster as cluster_package
    import repro.cluster.scaleout as scaleout
    import repro.serve.frontend as frontend
    from repro.serve.cache import PlanCache

    targets = [t for names in LAYERS.values() for t in names]
    originals = {t: resolve(t)[2] for t in targets}
    original_ids = {id(obj) for obj in originals.values()}
    bindings = [(module, attribute, value)
                for module in list(sys.modules.values())
                for attribute, value in list(vars(module).items())
                if id(value) in original_ids]
    run = scaleout.cluster_compiled_query
    assert "get" not in PlanCache.__dict__

    with LayerTracer(LAYERS, KEEP):
        assert scaleout.cluster_compiled_query is not run
        assert frontend.cluster_compiled_query is scaleout.cluster_compiled_query
        assert (cluster_package.cluster_compiled_query
                is scaleout.cluster_compiled_query)
        assert "get" in PlanCache.__dict__
        assert all(resolve(t)[2] is not originals[t] for t in targets)

    assert "get" not in PlanCache.__dict__
    assert all(resolve(t)[2] is originals[t] for t in targets)
    assert all(getattr(module, attribute) is value
               for module, attribute, value in bindings)


@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_a_traced_pass_leaves_every_simulated_number_identical(workload):
    bench = W.build(workload, 11)
    untraced = bench.run_pass()
    tracer = LayerTracer(LAYERS, KEEP)
    before = tracer.totals()
    with tracer:
        traced = bench.run_pass()
    assert traced.signature() == untraced.signature()
    assert validate_chrome_trace(tracer.chrome_trace(workload)) == []
    metrics = per_layer_metrics(tracer, before, 1.0, 1.0)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["host.sim.calls"] > 0 and metrics["sql.runs"] > 0


def test_a_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "tools" / "bench", tmp_path / "tools" / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "tools/bench/run.py", "--workload", "single_dpu",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pass_seconds_takes_each_variants_median():
    # A burst in one pass of variant 0 does not reach the estimate;
    # variants average.
    passes = [{"variant": 0, "seconds": s} for s in (1.0, 5.0, 2.0)]
    passes.append({"variant": 1, "seconds": 7.0})
    assert pass_seconds(passes) == pytest.approx((2.0 + 7.0) / 2)


def test_times_are_scaled_by_the_reference_loop_around_them():
    assert at_reference_speed(3.0, [NOMINAL_S, 2 * NOMINAL_S]) == (
        pytest.approx(2.0))


def _summary(samples):
    return summarize(samples)


@pytest.mark.parametrize("base, new, expected", [
    ([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "worse"),
    ([1.0, 1.0, 1.0], [0.8, 0.8, 0.8], "better"),
    ([1.0, 1.0, 1.0], [1.05, 1.05, 1.05], "within bound"),
    ([0.5, 1.0, 1.5], [1.0, 1.0, 1.0], "unresolved"),
    ([0.9, 1.0, 1.5], [0.5, 0.6, 0.7], "better"),
])
def test_compare_verdicts(base, new, expected):
    assert verdict(_summary(base), _summary(new), "lower", 0.1) == expected


def test_compare_fails_on_a_rise_in_fail_ratio(capsys):
    def report(fail_ratio, cycles):
        return {"workloads": {"w": {
            "seed": 11, "fail_ratio": fail_ratio,
            "end_to_end": {"pass_s": _summary([1.0, 1.0, 1.0])},
            "simulated": {"p99_cycles": cycles}}}}

    assert compare(report(0.0, 10.0), report(0.0, 10.0), BENCHMARK) == 0
    assert compare(report(0.0, 10.0), report(0.1, 10.0), BENCHMARK) == 1
    assert compare(report(0.0, 10.0), report(0.0, 11.0), BENCHMARK) == 1
    assert "p99_cycles: 10.0 -> 11.0 cycles  worse" in capsys.readouterr().out
