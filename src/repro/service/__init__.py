"""Fleet execution: a campaign coordinator service and worker node agents.

The package drives the campaign scheduler of :mod:`repro.core.leasebook`
across the wire:

* :mod:`repro.service.protocol` — typed, validated JSON wire messages;
* :mod:`repro.service.client` — HTTP client with bounded retry/timeout and
  seeded exponential backoff + jitter;
* :mod:`repro.service.jobs` — the coordinator-side transport: one lease
  book per scenario, so network leases carry the same ``(lease_id,
  attempt)`` tokens as local shards, missed heartbeats reclaim them with
  exponential backoff, and exhausted retries escalate to the poison policy;
* :mod:`repro.service.coordinator` — the ``repro serve`` HTTP service
  (stdlib :class:`~http.server.ThreadingHTTPServer`; zero new deps);
* :mod:`repro.service.worker` — the ``repro worker`` node agent: register,
  lease shard ranges, stream record batches, heartbeat.

The invariant carried over from local execution: because trials are pure
functions of ``(seed, index)`` and records merge by trial index, a fleet
run's merged artifacts are **byte-identical** to a local ``--workers 1``
run of the same spec — regardless of node count, kills, partitions or
retries.
"""

from repro.service.client import CoordinatorClient, HttpClient, ServiceError
from repro.service.coordinator import CampaignCoordinator
from repro.service.jobs import FleetJob, scenario_from_wire, scenario_to_wire
from repro.service.worker import WorkerAgent

__all__ = [
    "CampaignCoordinator",
    "CoordinatorClient",
    "FleetJob",
    "HttpClient",
    "ServiceError",
    "WorkerAgent",
    "scenario_from_wire",
    "scenario_to_wire",
]
