"""The fleet coordinator: a lease queue behind the scheduler's runner hook.

:class:`FleetCoordinator` is installed on a
:class:`~repro.service.engine.SynthesisService` via ``set_group_runner``;
the scheduler then hands it every micro-batch of cache-miss job groups
instead of running them on the local executors.  The coordinator queues
them as *leases* that ``repro worker`` runners pull over HTTP:

1. **lease** — a runner asks for work; the coordinator grants it the
   oldest queued group together with the problem document and the fully
   resolved options.
2. **heartbeat** — leases carry deadlines; a runner extends them by
   heartbeating.  An expired lease — runner crash, heartbeat loss, or a
   malformed completion that never arrived — is re-enqueued at the front
   of the queue (``attempt + 1``); after ``max_attempts`` the group
   settles as an ``error`` so a dying fleet never strands a job (the
   same invariant the broken-pool degrade established in-process).
3. **complete** — the runner returns the engine's runner-contract payload.
   First completion wins; a *late* completion for a superseded lease
   still settles the group if no sibling beat it (its work is real).

Only JSON documents cross the wire: a runner keeps its verdict memo to
itself, so nothing a runner (or any other HTTP client) sends is ever
unpickled here.  Lease state and worker liveness are serialized under one
condition variable: HTTP handler threads and the scheduler thread meet
only here.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.api.schema import (
    HeartbeatRequest,
    LeaseCompletion,
    LeaseGrant,
    LeaseRequest,
)
from repro.service.jobs import JobStatus, SynthesisJob

#: The scheduler's group key: (problem fingerprint, timeout budget).
_GroupKey = Tuple[str, Optional[float]]

#: Seconds before an unheartbeated lease is presumed lost and re-enqueued.
DEFAULT_LEASE_TTL = 30.0

#: Seconds without any request from a worker before it is dropped from the
#: connected set (its leases expire immediately — heartbeat loss).
DEFAULT_WORKER_TTL = 60.0

#: Lease attempts per group before it settles as an error.
DEFAULT_MAX_ATTEMPTS = 3

#: Cap on one lease call's long-poll; runners loop to wait longer.
MAX_LEASE_WAIT = 30.0

#: Retired lease ids remembered for late completions / heartbeats.
MAX_RETIRED_LEASES = 4096

#: How often waiting threads re-check deadlines.
_TICK_SECONDS = 0.25


@dataclass
class _PendingGroup:
    """One job group awaiting (re-)lease."""

    key: _GroupKey
    group: List[SynthesisJob]
    attempt: int = 1


@dataclass
class _Lease:
    """One granted lease; ``deadline`` is monotonic."""

    lease_id: str
    pending: _PendingGroup
    worker_id: str
    deadline: float


class FleetCoordinator:
    """Routes the scheduler's cache-miss groups to remote runners.

    Args:
        lease_ttl / worker_ttl / max_attempts: see the module constants.

    The instance is both the service's *group runner* (``__call__``
    follows the executor contract: groups in, ``(key, payload)`` out) and
    the target of the three fleet endpoints (:meth:`lease`,
    :meth:`complete`, :meth:`heartbeat`, called from handler threads).
    """

    def __init__(
        self,
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        worker_ttl: float = DEFAULT_WORKER_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ):
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        if worker_ttl <= 0:
            raise ValueError(f"worker_ttl must be positive, got {worker_ttl}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.lease_ttl = lease_ttl
        self.worker_ttl = worker_ttl
        self.max_attempts = max_attempts
        self._cv = threading.Condition()
        self._pending: Deque[_PendingGroup] = deque()
        self._leases: Dict[str, _Lease] = {}
        self._settled: Dict[_GroupKey, Dict[str, Any]] = {}
        #: worker id -> monotonic time of its last request (any endpoint)
        self._workers: Dict[str, float] = {}
        #: lease id -> (disposition, group key) for late completions;
        #: bounded — the fleet must not grow memory with every lease ever
        self._retired: "OrderedDict[str, Tuple[str, _GroupKey]]" = OrderedDict()
        self._worker_stats: Dict[str, Dict[str, float]] = {}
        self._ids = itertools.count(1)
        self._closing = False
        # counters surfaced via gauges_dict
        self.leases_granted_total = 0
        self.leases_expired_total = 0
        self.completions_accepted_total = 0
        self.completions_late_total = 0

    # ------------------------------------------------------------------
    # the scheduler side (group-runner contract)
    # ------------------------------------------------------------------
    def __call__(
        self, groups: Dict[_GroupKey, List[SynthesisJob]]
    ) -> Iterator[Tuple[_GroupKey, Dict[str, Any]]]:
        """Queue ``groups`` for lease; yield each verdict as runners report.

        Runs on the scheduler thread.  Blocks (in ticks, so deadlines keep
        being enforced) until every group settles; on :meth:`close` the
        still-open remainder settles as ``error`` payloads so the engine
        never strands a job behind a vanished fleet.
        """
        with self._cv:
            for key, group in groups.items():
                self._pending.append(_PendingGroup(key=key, group=group))
            self._cv.notify_all()
        remaining = set(groups)
        while remaining:
            with self._cv:
                self._expire_due_locked()
                while not self._closing and not any(
                    key in self._settled for key in remaining
                ):
                    self._cv.wait(timeout=_TICK_SECONDS)
                    self._expire_due_locked()
                ready: List[Tuple[_GroupKey, Dict[str, Any]]] = [
                    (key, self._settled.pop(key))
                    for key in list(remaining)
                    if key in self._settled
                ]
                if self._closing:
                    open_keys = remaining - {key for key, _ in ready}
                    self._abandon_locked(open_keys)
                    ready.extend(
                        (
                            key,
                            {
                                "status": JobStatus.ERROR.value,
                                "message": "fleet coordinator closed before "
                                "the group settled",
                                "seconds": 0.0,
                            },
                        )
                        for key in open_keys
                    )
            remaining.difference_update(key for key, _ in ready)
            yield from ready

    def _abandon_locked(self, keys: "set[_GroupKey]") -> None:
        """Drop queue/lease state for groups the closing runner settles."""
        self._pending = deque(
            pending for pending in self._pending if pending.key not in keys
        )
        for lease_id, lease in list(self._leases.items()):
            if lease.pending.key in keys:
                del self._leases[lease_id]
                self._retire_locked(lease_id, "abandoned", lease.pending.key)

    def close(self) -> None:
        """Stop coordinating: wake every waiter, refuse new work.

        Idempotent.  Runners see empty lease replies and rejected
        completions from here on; the scheduler settles open groups as
        errors (see :meth:`__call__`).
        """
        with self._cv:
            self._closing = True
            self._cv.notify_all()

    # ------------------------------------------------------------------
    # the runner side (HTTP handler threads)
    # ------------------------------------------------------------------
    def lease(self, request: LeaseRequest) -> List[LeaseGrant]:
        """Grant up to ``max_groups`` queued groups to the runner.

        Long-polls up to ``request.wait`` seconds (capped at
        :data:`MAX_LEASE_WAIT`) when nothing is queued.  An empty list
        is a valid answer — the runner just polls again.
        """
        deadline = time.monotonic() + min(max(0.0, request.wait), MAX_LEASE_WAIT)
        with self._cv:
            while True:
                self._touch_worker_locked(request.worker_id)
                self._expire_due_locked()
                if self._closing:
                    return []
                grants = self._grant_locked(request.worker_id, request.max_groups)
                if grants:
                    return grants
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._cv.wait(timeout=min(remaining, _TICK_SECONDS))

    def complete(self, completion: LeaseCompletion) -> Dict[str, Any]:
        """Accept a runner's executed group; first completion wins.

        Returns ``{"accepted": bool, "known": bool}``: a late completion
        for a lease the coordinator retired is *known* but only accepted
        when no sibling settled the group first.
        """
        with self._cv:
            self._touch_worker_locked(completion.worker_id)
            lease = self._leases.get(completion.lease_id)
            known = lease is not None or completion.lease_id in self._retired
            accepted = False
            if not self._closing:
                if lease is not None:
                    del self._leases[completion.lease_id]
                    self._retire_locked(
                        completion.lease_id, "completed", lease.pending.key
                    )
                    self._settle_locked(
                        lease.pending.key, completion, completion.worker_id
                    )
                    accepted = True
                elif completion.lease_id in self._retired:
                    # the lease expired (or was superseded) but the work
                    # arrived anyway — use it unless a sibling already won
                    _, key = self._retired[completion.lease_id]
                    accepted = self._settle_late_locked(key, completion)
            if accepted:
                self.completions_accepted_total += 1
                self._cv.notify_all()
            else:
                self.completions_late_total += 1
            return {"accepted": accepted, "known": known}

    def heartbeat(self, request: HeartbeatRequest) -> Dict[str, Any]:
        """Refresh the worker's liveness and its listed leases' deadlines.

        Returns ``{"unknown": [...]}`` naming leases the coordinator no
        longer holds for this worker (expired and re-enqueued, or settled
        by a sibling) so the runner can abandon them mid-flight.
        """
        now = time.monotonic()
        with self._cv:
            self._touch_worker_locked(request.worker_id)
            self._expire_due_locked()
            unknown = []
            for lease_id in request.lease_ids:
                lease = self._leases.get(lease_id)
                if lease is not None and lease.worker_id == request.worker_id:
                    lease.deadline = now + self.lease_ttl
                else:
                    unknown.append(lease_id)
            return {"unknown": unknown}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def gauges_dict(self) -> Dict[str, Any]:
        """Point-in-time fleet gauges for ``/v1/metrics``."""
        now = time.monotonic()
        with self._cv:
            outstanding: Dict[str, int] = {}
            for lease in self._leases.values():
                outstanding[lease.worker_id] = outstanding.get(lease.worker_id, 0) + 1
            workers = {}
            for worker_id, last in sorted(self._workers.items()):
                stats = self._worker_stats.get(worker_id, {})
                workers[worker_id] = {
                    "last_heartbeat_age_s": round(now - last, 3),
                    "leases": outstanding.get(worker_id, 0),
                    "completed": int(stats.get("completed", 0)),
                    "busy_seconds": round(stats.get("busy_seconds", 0.0), 6),
                }
            return {
                "workers_connected": len(self._workers),
                "leases_outstanding": len(self._leases),
                "leases_granted_total": self.leases_granted_total,
                "leases_expired_total": self.leases_expired_total,
                "completions_accepted_total": self.completions_accepted_total,
                "completions_late_total": self.completions_late_total,
                "queued_groups": len(self._pending),
                "workers": workers,
            }

    # ------------------------------------------------------------------
    # internals (all require the cv held)
    # ------------------------------------------------------------------
    def _touch_worker_locked(self, worker_id: str) -> None:
        self._workers[worker_id] = time.monotonic()

    def _retire_locked(
        self, lease_id: str, disposition: str, key: _GroupKey
    ) -> None:
        self._retired[lease_id] = (disposition, key)
        self._retired.move_to_end(lease_id)
        while len(self._retired) > MAX_RETIRED_LEASES:
            self._retired.popitem(last=False)

    def _grant_locked(self, worker_id: str, max_groups: int) -> List[LeaseGrant]:
        grants: List[LeaseGrant] = []
        while self._pending and len(grants) < max_groups:
            grants.append(self._lease_out_locked(self._pending.popleft(), worker_id))
        return grants

    def _lease_out_locked(
        self, pending: _PendingGroup, worker_id: str
    ) -> LeaseGrant:
        lease_id = f"lease-{next(self._ids)}"
        self._leases[lease_id] = _Lease(
            lease_id=lease_id,
            pending=pending,
            worker_id=worker_id,
            deadline=time.monotonic() + self.lease_ttl,
        )
        self.leases_granted_total += 1
        job = pending.group[0]
        # delta submissions ride their base-plan hint out to the runner so
        # remote executions warm-start exactly like local ones would
        warm_order = next(
            (j.warm_order for j in pending.group if j.warm_order is not None),
            None,
        )
        return LeaseGrant(
            lease_id=lease_id,
            fingerprint=job.fingerprint,
            problem=job.problem,
            options=job.options,
            deadline_seconds=self.lease_ttl,
            attempt=pending.attempt,
            warm_order=warm_order,
        )

    def _settle_locked(
        self, key: _GroupKey, completion: LeaseCompletion, worker_id: str
    ) -> None:
        self._settled[key] = dict(completion.payload)
        stats = self._worker_stats.setdefault(
            worker_id, {"completed": 0, "busy_seconds": 0.0}
        )
        stats["completed"] += 1
        seconds = completion.payload.get("seconds", 0.0)
        if isinstance(seconds, (int, float)) and not isinstance(seconds, bool):
            stats["busy_seconds"] += float(seconds)

    def _settle_late_locked(
        self, key: _GroupKey, completion: LeaseCompletion
    ) -> bool:
        """Use a late completion if its group is still unsettled."""
        if key in self._settled:
            return False
        for pending in self._pending:
            if pending.key == key:
                self._pending.remove(pending)
                self._settle_locked(key, completion, completion.worker_id)
                return True
        for lease_id, lease in list(self._leases.items()):
            if lease.pending.key == key:
                # supersede the re-lease: first completion wins
                del self._leases[lease_id]
                self._retire_locked(lease_id, "superseded", key)
                self._settle_locked(key, completion, completion.worker_id)
                return True
        return False

    def _expire_due_locked(self) -> None:
        """Enforce worker and lease deadlines; re-enqueue what was lost."""
        now = time.monotonic()
        for worker_id, last in list(self._workers.items()):
            if now - last > self.worker_ttl:
                del self._workers[worker_id]
        expired = [
            lease
            for lease in self._leases.values()
            if lease.deadline <= now or lease.worker_id not in self._workers
        ]
        for lease in expired:
            del self._leases[lease.lease_id]
            self.leases_expired_total += 1
            self._retire_locked(lease.lease_id, "expired", lease.pending.key)
            self._requeue_locked(lease.pending)
        if expired:
            self._cv.notify_all()

    def _requeue_locked(self, pending: _PendingGroup) -> None:
        if pending.key in self._settled:
            return  # a racing (late) completion already settled it
        pending.attempt += 1
        if pending.attempt > self.max_attempts:
            self._settled[pending.key] = {
                "status": JobStatus.ERROR.value,
                "message": (
                    f"fleet lease expired {self.max_attempts} times — every "
                    "runner that leased this group died before completing"
                ),
                "seconds": 0.0,
            }
        else:
            # front of the queue: a re-enqueued group has already waited
            self._pending.appendleft(pending)
