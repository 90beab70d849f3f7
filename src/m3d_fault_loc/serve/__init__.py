"""Inference serving subsystem: registry, queued service, HTTP API.

Layers, bottom up:

- :mod:`m3d_fault_loc.serve.cache` — content-hash LRU result cache keyed on
  a canonical graph digest, so repeated queries of the same netlist are
  answered without a forward pass.
- :mod:`m3d_fault_loc.serve.metrics` — counters / gauges / latency
  histograms, exported as JSON and Prometheus text.
- :mod:`m3d_fault_loc.serve.registry` — versioned ``.npz`` model artifacts
  with checksums and metadata, plus an activation pointer the service
  hot-reloads from.
- :mod:`m3d_fault_loc.serve.service` — :class:`LocalizationService`: a
  thread-safe request queue feeding one worker that scores each graph
  with ``DelayFaultLocalizer.node_scores``, with every request gated by the
  m3dlint contract engine (ERROR findings reject, never a wrong answer).
- :mod:`m3d_fault_loc.serve.resilience` — deadlines, load shedding,
  circuit breaker, health state machine, and retry/backoff policies that
  make every failure mode explicit, bounded, and observable.
- :mod:`m3d_fault_loc.serve.http` — the JSON request-handler base shared by
  the server, the router and the chaos stub replica.
- :mod:`m3d_fault_loc.serve.server` — stdlib ``http.server`` JSON API
  (``POST /localize``, ``GET /healthz``, ``GET /metrics``, ``GET /model``).
"""
