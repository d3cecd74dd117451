"""The serving loop's fast paths against their references.

``WeightedFairQueue.pop`` asks its eligibility predicate lazily, in
(finish tag, flow name) order, and ``ServingFrontend.run`` reads token
buckets only through it: the lazy pop must dequeue exactly what the
old full scan over every flow did, however the queue, its weights and
its tenants' buckets evolve. ``run`` checks every request's tenant
before it simulates anything.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime.admission import TokenBucket, WeightedFairQueue
from repro.serve import QueryRequest
from test_serving import (  # noqa: F401  (module fixtures)
    _frontend, catalog, data, query_texts)


class _FullScanQueue:
    """The SFQ queue as it was before ``pop`` tested eligibility
    lazily: every ``pop`` scans every flow in name order and keeps the
    smallest finish tag among the eligible ones. The reference the
    lazy ``pop`` must match."""

    def __init__(self):
        self._weights, self._queues, self._finish = {}, {}, {}
        self._vtime = 0.0

    def register(self, flow, weight=1.0):
        self._weights[flow] = float(weight)
        self._queues.setdefault(flow, [])
        self._finish.setdefault(flow, 0.0)

    def push(self, flow, item):
        if flow not in self._weights:
            self.register(flow)
        start = max(self._vtime, self._finish[flow])
        finish = start + 1.0 / self._weights[flow]
        self._finish[flow] = finish
        self._queues[flow].append((start, finish, item))

    def flows(self):
        return [flow for flow, queue in self._queues.items() if queue]

    def pop(self, eligible=None):
        best = None
        for flow in sorted(self._queues):
            if not self._queues[flow]:
                continue
            if eligible is not None and not eligible.get(flow, True):
                continue
            finish = self._queues[flow][0][1]
            if best is None or finish < best[1]:
                best = (flow, finish)
        if best is None:
            return None
        flow = best[0]
        start, _finish, item = self._queues[flow].pop(0)
        self._vtime = max(self._vtime, start)
        return flow, item


_FLOWS = ["a", "b", "c", "d", "e"]
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from(_FLOWS + ["new"])),
        st.tuples(st.just("pop"), st.sampled_from(["all", "some"]),
                  st.lists(st.booleans(), min_size=6, max_size=6)),
        st.tuples(st.just("buckets"),
                  st.floats(min_value=0.0, max_value=40_000.0)),
    ),
    max_size=80)


class TestLazyPopDifferential:
    """The lazy ``pop`` dequeues exactly what the full scan did, under
    any weights, pushes, pops and eligibility, including the serving
    loop's use: token buckets read at random instants, each dequeue
    taking one token from the popped flow's bucket."""

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0]),
                            min_size=5, max_size=5),
           rates=st.lists(st.floats(min_value=0.01, max_value=2.0),
                          min_size=6, max_size=6),
           backlog=st.lists(st.sampled_from(_FLOWS), max_size=24),
           ops=_OPS)
    @example(weights=[8.0, 1.0, 1.0, 1.0, 1.0], rates=[1.0] * 6,
             backlog=["a", "a", "b"],
             ops=[("pop", "all", [True] * 6)] * 3)
    def test_lazy_pop_matches_full_scan(self, weights, rates, backlog, ops):
        lazy, full = WeightedFairQueue(), _FullScanQueue()
        for flow, weight in zip(_FLOWS, weights):
            lazy.register(flow, weight)
            full.register(flow, weight)
        flows = _FLOWS + ["new"]
        lazy_buckets = {f: TokenBucket(r, 2.0) for f, r in zip(flows, rates)}
        full_buckets = {f: TokenBucket(r, 2.0) for f, r in zip(flows, rates)}
        now, item = 0.0, 0
        for op in [("push", flow) for flow in backlog] + ops:
            if op[0] == "push":
                lazy.push(op[1], item)
                full.push(op[1], item)
                item += 1
                continue
            if op[0] == "buckets":
                # Advance the clock and dequeue the way the serving
                # loop does: eligible means a token now; the full scan
                # reads every backlogged bucket, the lazy pop only up
                # to the first flow with a token.
                now += op[1]
                asked = []

                def has_token(flow):
                    asked.append(flow)
                    return lazy_buckets[flow].cycles_until_available(
                        now) == 0.0

                got = lazy.pop(has_token)
                want = full.pop({
                    flow: full_buckets[flow].cycles_until_available(now)
                    == 0.0 for flow in full.flows()})
                assert len(asked) == len(set(asked))
                assert got == want
                if got is not None:
                    assert asked[-1] == got[0]
                    assert lazy_buckets[got[0]].try_take(now)
                    assert full_buckets[got[0]].try_take(now)
                continue
            _op, kind, bits = op
            verdict = dict(zip(flows, bits))
            if kind == "all":
                got, want = lazy.pop(), full.pop()
            else:
                got, want = lazy.pop(verdict.__getitem__), full.pop(verdict)
            assert got == want
        assert len(lazy) == sum(len(q) for q in full._queues.values())
        assert lazy.flows() == full.flows()
        # Reading a bucket less often leaves the same bucket behind.
        for flow in flows:
            for later in (0.0, 1.0, 10_000.0):
                assert (lazy_buckets[flow].cycles_until_available(now + later)
                        == full_buckets[flow].cycles_until_available(
                            now + later))


class TestTenantCheck:
    def test_unknown_tenant_rejected_before_simulating(self, data, catalog,
                                                       query_texts):
        # A request from a tenant the frontend was not built with used
        # to register a weight-1 flow silently and then fail with a
        # bare KeyError from the token buckets, after earlier requests'
        # cluster jobs had already run.
        frontend = _frontend(data, catalog, query_texts)
        requests = [QueryRequest(0, "acme", "gold", "q6", 0.0),
                    QueryRequest(1, "ghost", "gold", "q1", 10.0)]
        with pytest.raises(ValueError, match="request 1 .*'ghost'"):
            frontend.run(requests)
        assert frontend.cluster.engine.now == 0.0
        assert frontend.plan_cache.stats()["misses"] == 0
        assert len(frontend.queue) == 0
        assert frontend.queue.flows() == []
