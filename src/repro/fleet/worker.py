"""The fleet runner: leases job groups over HTTP, executes them locally.

:class:`FleetWorker` is the process behind ``repro worker``.  It pulls
:class:`~repro.api.schema.LeaseGrant` documents from a coordinator,
executes each group with an ordinary in-process
:class:`~repro.service.engine.SynthesisService` — so portfolio racing,
the process pool, and the broken-pool degrade all work on a runner
exactly as they do locally — and posts the runner-contract payload back.
The embedded service's verdict memo stays on the runner: only JSON
(problem, options, verdict, plan) crosses the wire, and any other field a
grant carries is ignored.

A daemon heartbeat thread extends the active lease while a group
executes; if the coordinator reports the lease unknown (expired under us,
or a sibling won), the runner finishes anyway and lets the coordinator's
first-completion-wins/late-completion logic sort it out.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from typing import Any, Dict, Optional

from repro.api.schema import LeaseCompletion, LeaseGrant
from repro.net.serialize import plan_to_dict
from repro.service.client import ReproClient
from repro.service.engine import SynthesisService
from repro.service.jobs import JobResult


class FleetWorker:
    """One runner process: lease → execute → complete, forever.

    Args:
        base_url: the coordinator server (``repro serve --fleet``).
        client: a pre-built :class:`~repro.service.client.ReproClient`
            instead of ``base_url`` (tests inject one).
        worker_id: stable identity the runner's leases are held in.
            Defaults to a fresh ``worker-<pid>-<nonce>``.
        workers: pool size of the embedded engine (``1`` = serial, the
            default — runner processes are meant to be cheap).
        lease_wait: seconds each lease call long-polls for work.
        max_groups: groups requested per lease call.
    """

    def __init__(
        self,
        base_url: Optional[str] = None,
        *,
        client: Optional[ReproClient] = None,
        worker_id: Optional[str] = None,
        workers: int = 1,
        lease_wait: float = 5.0,
        max_groups: int = 1,
    ):
        if client is None:
            if base_url is None:
                raise ValueError("pass base_url or client")
            client = ReproClient(base_url)
        self.client = client
        self.worker_id = worker_id or f"worker-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.lease_wait = max(0.0, lease_wait)
        self.max_groups = max(1, max_groups)
        self.service = SynthesisService(workers=workers)
        self.leases_completed = 0
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask the run loop to exit after the in-flight grant (thread-safe)."""
        self._stop.set()

    def close(self) -> None:
        self.service.close()

    def __enter__(self) -> "FleetWorker":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self, *, max_leases: Optional[int] = None) -> int:
        """Lease and execute until :meth:`stop` (or ``max_leases``).

        Returns how many grants this call completed.  Transport errors
        propagate — the CLI turns them into exit status 1; a supervisor
        (or CI) restarts the runner, and the coordinator's lease TTL has
        already re-enqueued anything it held.
        """
        completed_at_entry = self.leases_completed
        while not self._stop.is_set():
            grants = self.client.fleet_lease(
                self.worker_id, max_groups=self.max_groups, wait=self.lease_wait
            )
            for grant in grants:
                self._execute_grant(grant)
                self.leases_completed += 1
                if (
                    max_leases is not None
                    and self.leases_completed - completed_at_entry >= max_leases
                ):
                    return self.leases_completed - completed_at_entry
            if self._stop.is_set():
                break
        return self.leases_completed - completed_at_entry

    def _execute_grant(self, grant: LeaseGrant) -> None:
        stop_beat = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(grant, stop_beat),
            name=f"repro-heartbeat-{grant.lease_id}",
            daemon=True,
        )
        beat.start()
        try:
            payload = self._run_group(grant)
        finally:
            stop_beat.set()
            beat.join(timeout=5.0)
        self.client.fleet_complete(
            LeaseCompletion(
                lease_id=grant.lease_id,
                worker_id=self.worker_id,
                payload=payload,
            )
        )

    def _run_group(self, grant: LeaseGrant) -> Dict[str, Any]:
        """Execute one leased group on the embedded engine; the grant's
        base-plan hint (delta submissions) warm-starts the search here just
        as it would on the coordinator's own pool."""
        job = self.service.submit(
            grant.problem,
            options=grant.options,
            warm_order=grant.warm_order,
        )
        result = self.service.result(job.job_id)
        return _payload_from_result(result)

    def _heartbeat_loop(self, grant: LeaseGrant, stop: threading.Event) -> None:
        """Extend the lease while its group executes; swallow transport
        errors (a missed beat only costs the TTL grace)."""
        interval = max(0.5, grant.deadline_seconds / 3.0)
        while not stop.wait(interval):
            try:
                self.client.fleet_heartbeat(self.worker_id, (grant.lease_id,))
            except Exception:  # noqa: BLE001 — liveness only
                time.sleep(0)  # keep trying until the group finishes


def _payload_from_result(result: JobResult) -> Dict[str, Any]:
    """A settled :class:`JobResult` as the runner-contract payload dict."""
    payload: Dict[str, Any] = {
        "status": result.status.value,
        "seconds": result.seconds,
    }
    if result.message:
        payload["message"] = result.message
    if result.backend is not None:
        payload["backend"] = result.backend
    if result.plan is not None:
        payload["plan"] = plan_to_dict(result.plan)
    return payload
