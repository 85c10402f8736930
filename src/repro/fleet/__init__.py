"""The worker fleet: distributed runners over the ``repro-api/1`` wire.

A coordinator-mode server (``repro serve --fleet``) leases cache-miss job
groups to ``repro worker`` runner processes over three HTTP endpoints
(``/v1/fleet/lease`` / ``complete`` / ``heartbeat``); runners execute them
with the ordinary in-process engine and post the verdict back.  Only JSON
documents cross the wire.  ``repro loadtest`` (:mod:`repro.fleet.loadtest`)
is the matching load generator.

See ``docs/ARCHITECTURE.md`` (fleet section) for the lease lifecycle.
"""

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.loadtest import LOADTEST_SCHEMA, run_loadtest
from repro.fleet.worker import FleetWorker

__all__ = [
    "FleetCoordinator",
    "FleetWorker",
    "LOADTEST_SCHEMA",
    "run_loadtest",
]
