"""repro.serve: the memory-advisor service.

Turns the analytic engine into a traffic-serving system. Four layers,
each a thin module:

* **Advisor** (:mod:`repro.serve.advisor`) — the query surface: validate
  and normalize an advise request, derive its content-addressed cache
  key, and rank candidate ``platform/mode`` configurations by predicted
  execution time. Everything else is transport around this module.
* **HTTP** (:mod:`repro.serve.http`) — a hand-rolled HTTP/1.1 layer on
  asyncio streams (stdlib only; no new runtime dependencies).
* **Batcher** (:mod:`repro.serve.batcher`) — coalesces identical
  in-flight queries onto one execution, cache lookup included.
* **Pool** (:mod:`repro.serve.pool`) — a sharded worker-process pool
  reusing the scheduler's timeout/recycle machinery, with cross-process
  trace propagation so every request yields one rooted span tree.

:mod:`repro.serve.app` wires the layers into :class:`ServeApp`, fronted
by the shared result cache; :mod:`repro.serve.bench` is the load harness
behind ``repro serve-bench``.
"""

from repro.serve.advisor import (
    ADVISE_SCHEMA_VERSION,
    QueryError,
    advise,
    default_candidates,
    evaluate,
    normalize,
    query_key,
)
from repro.serve.app import ServeApp, ServeConfig, run_server

__all__ = [
    "ADVISE_SCHEMA_VERSION",
    "QueryError",
    "ServeApp",
    "ServeConfig",
    "advise",
    "default_candidates",
    "evaluate",
    "normalize",
    "query_key",
    "run_server",
]
