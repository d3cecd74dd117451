"""Open-loop client generator for the serving benchmarks.

Requests arrive on a Poisson process (exponential interarrivals) that
does **not** wait for responses — the open-loop discipline that
exposes queueing collapse, unlike closed-loop clients whose think
time self-throttles offered load. Tenant popularity is Zipfian
(probability ∝ 1/rank^s over the tenant list order), the query mix is
uniform over the supplied names, and everything derives from one
``numpy`` Generator seed, so a workload is a pure function of
``(tenants, query_mix, seed, zipf_s, num_requests, mean
interarrival)`` and two runs replay byte-identical request streams.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["OpenLoopWorkload", "QueryRequest"]


@dataclass(frozen=True)
class QueryRequest:
    """One client query: who asks what, and when (in sim cycles)."""

    index: int
    tenant: str
    tier: str
    query: str
    arrival: float


class OpenLoopWorkload:
    """Deterministic Zipf-over-tenants x uniform-over-queries stream.

    ``tenants`` maps tenant name -> tier name; Zipf rank follows the
    dict's insertion order (first tenant is the most popular).
    """

    def __init__(
        self,
        tenants: Dict[str, str],
        query_mix: Sequence[str],
        seed: int = 0,
        zipf_s: float = 1.1,
    ) -> None:
        if not tenants:
            raise ValueError("workload needs at least one tenant")
        if not query_mix:
            raise ValueError("workload needs at least one query")
        self.tenants = dict(tenants)
        self.query_mix = list(query_mix)
        self.seed = int(seed)
        self.zipf_s = float(zipf_s)
        weights = np.array(
            [1.0 / (rank ** self.zipf_s)
             for rank in range(1, len(self.tenants) + 1)]
        )
        self._tenant_names = list(self.tenants)
        self._tenant_probs = weights / weights.sum()
        # The tenant draw is numpy's own for a scalar ``rng.choice(n,
        # p=probs)``: one ``rng.random()`` placed in this CDF (cumsum,
        # then divided by its last entry) with a right-side search. It
        # takes the same bits, without re-checking ``p`` every draw.
        cdf = np.cumsum(self._tenant_probs)
        cdf /= cdf[-1]
        self._tenant_cdf = cdf.tolist()

    def generate(
        self,
        num_requests: int,
        mean_interarrival_cycles: float,
    ) -> List[QueryRequest]:
        """Draw ``num_requests`` arrivals at the given offered load
        (mean cycles between arrivals across *all* tenants)."""
        if mean_interarrival_cycles <= 0:
            raise ValueError(
                f"mean interarrival must be positive: "
                f"{mean_interarrival_cycles}"
            )
        rng = np.random.default_rng(self.seed)
        names = self._tenant_names
        cdf = self._tenant_cdf
        requests: List[QueryRequest] = []
        arrival = 0.0
        for index in range(num_requests):
            arrival += float(rng.exponential(mean_interarrival_cycles))
            tenant = names[bisect_right(cdf, rng.random())]
            query = self.query_mix[int(rng.integers(len(self.query_mix)))]
            requests.append(QueryRequest(
                index=index,
                tenant=tenant,
                tier=self.tenants[tenant],
                query=query,
                arrival=arrival,
            ))
        return requests
