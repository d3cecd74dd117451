"""Multi-tenant serving layer: QoS tiers, caches, shared-scan batching.

See docs/SERVING.md for the full design; the pieces are

* :mod:`repro.serve.qos` — tier specs (scheduler weight + per-tenant
  token bucket);
* :mod:`repro.serve.workload` — deterministic open-loop client
  generator (Zipfian tenants x uniform query mix);
* :mod:`repro.serve.cache` — plan/result LRUs keyed on each query's
  data version (the newest version among the columns it reads);
* :mod:`repro.serve.frontend` — the dispatcher tying them to
  :func:`~repro.cluster.scaleout.cluster_batched_queries`.
"""

from .cache import PlanCache, ResultCache
from .frontend import CompletedRequest, ServingFrontend, ServingReport
from .qos import BRONZE, DEFAULT_TIERS, GOLD, SILVER, TierSpec
from .workload import OpenLoopWorkload, QueryRequest

__all__ = [
    "BRONZE",
    "CompletedRequest",
    "DEFAULT_TIERS",
    "GOLD",
    "OpenLoopWorkload",
    "PlanCache",
    "QueryRequest",
    "ResultCache",
    "SILVER",
    "ServingFrontend",
    "ServingReport",
    "TierSpec",
]
