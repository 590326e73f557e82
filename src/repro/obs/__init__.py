"""Live observability: telemetry registry, metrics endpoint, tracing.

A :class:`repro.runtime.cluster.LiveReport` is post-mortem: it is
assembled after a run ends.  This package makes a *running* live
cluster inspectable:

* :mod:`repro.obs.telemetry` — the in-process registry of counters,
  gauge callbacks and :class:`repro.metrics.histogram.LogHistogram`
  summaries that hot paths update (or that scrape time pulls from
  existing state), rendered as Prometheus v0 text or a JSON snapshot;
* :mod:`repro.obs.httpd` — the plain-asyncio HTTP endpoint serving
  ``/metrics``, ``/vars.json`` and ``/healthz``;
* :mod:`repro.obs.tracing` — sampled causal-lifecycle spans
  (``put → wal_synced → replicate_sent → installed → visible``) as
  JSONL, with trace ids reusing the version identity ``(sr, ut)``
  already carried in every replication frame;
* :mod:`repro.obs.top` — the ``repro-top`` CLI polling every endpoint
  of a deployment and rendering a per-partition live table.

The whole package is live-only and off by default
(:class:`repro.common.config.TelemetryConfig`): the simulation backend
never consults it, and with it disabled the wire frames and per-seed
sim reports are byte-identical to an engine without it (pinned by
``tests/obs/test_telemetry_off.py``).
"""

from repro.obs.telemetry import Telemetry

__all__ = ["Telemetry"]
