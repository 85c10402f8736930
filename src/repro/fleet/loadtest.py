"""``repro loadtest`` — a throughput/latency load generator for the server.

Replays the scenario corpus against a running server (or a self-hosted
one) from ``clients`` concurrent thin clients, for ``rounds`` passes over
the same problems, and reports a ``repro-loadtest/1`` JSON document: per
round, client-observed p50/p99 latency, throughput, and the *server-side*
plan-cache and verdict-memo hit rates (measured as counter deltas on
``/v1/metrics``); plus per-worker utilization from the fleet gauges when a
fleet is attached.  A fleet coordinator runs no search itself and its
runners keep their memos to themselves, so against a fleet the per-round
``memo`` block is ``None`` rather than a misleading zero.

This is the throughput counterpart of the bench runner's
``BENCH_<suite>.json``: the bench measures one synthesis at a time, the
loadtest measures the serving stack — coalescing and cache temperature
under concurrent load.

By default the *plan cache is bypassed* (``use_plan_cache=False`` rides
in every request): a load generator that lets round two answer entirely
from the plan cache would measure dictionary lookups, not synthesis.
With the cache bypassed, repeated rounds re-run the search — on a local
server against a warm verdict memo, which the per-round memo hit rates
make visible.

Without ``--server`` the harness self-hosts: it starts an in-process
:class:`~repro.service.server.ReproServer` (fleet mode when
``fleet_workers > 0``) plus that many in-thread
:class:`~repro.fleet.worker.FleetWorker` runners, runs the load, and
tears everything down — ``repro loadtest --suite smoke --clients 8``
works on a laptop with nothing else running.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.fleet.worker import FleetWorker
from repro.scenarios.corpus import generate_corpus
from repro.service.client import ReproClient
from repro.service.jobs import JobStatus

LOADTEST_SCHEMA = "repro-loadtest/1"

#: Statuses that count as the server doing its job; ``error`` (and client
#: transport failures) fail the run.
_OK_STATUSES = frozenset(
    (
        JobStatus.DONE.value,
        JobStatus.INFEASIBLE.value,
        JobStatus.TIMEOUT.value,
    )
)


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def _counters(metrics: Dict[str, Any]) -> Dict[str, int]:
    """The cumulative server counters a round's deltas are computed from."""
    memo = metrics.get("verdict_memo", {}) or {}
    cache = metrics.get("cache", {}) or {}
    return {
        "memo_probes": int(memo.get("probes", 0)),
        "memo_hits": int(memo.get("hits", 0)),
        "memo_checks_skipped": int(memo.get("checks_skipped", 0)),
        "cache_lookups": int(cache.get("hits", 0)) + int(cache.get("misses", 0)),
        "cache_hits": int(cache.get("hits", 0)),
    }


def _round_rates(
    before: Dict[str, int], after: Dict[str, int], *, memo: bool
) -> Dict[str, Any]:
    probes = after["memo_probes"] - before["memo_probes"]
    hits = after["memo_hits"] - before["memo_hits"]
    skipped = after["memo_checks_skipped"] - before["memo_checks_skipped"]
    lookups = after["cache_lookups"] - before["cache_lookups"]
    cache_hits = after["cache_hits"] - before["cache_hits"]
    return {
        "memo": {
            "probes": probes,
            "hits": hits,
            "checks_skipped": skipped,
            "hit_rate": round(hits / probes, 4) if probes else 0.0,
        }
        if memo
        else None,
        "plan_cache": {
            "lookups": lookups,
            "hits": cache_hits,
            "hit_rate": round(cache_hits / lookups, 4) if lookups else 0.0,
        },
    }


class _ClientThread(threading.Thread):
    """One synthetic client: submit → wait → record, over a shared feed."""

    def __init__(
        self,
        url: str,
        feed: "_Feed",
        options_data: Dict[str, Any],
        job_timeout: Optional[float],
    ):
        super().__init__(daemon=True)
        self.client = ReproClient(url)
        self.feed = feed
        self.options_data = options_data
        self.job_timeout = job_timeout
        self.latencies: List[float] = []
        self.statuses: Dict[str, int] = {}
        self.failures: List[str] = []

    def run(self) -> None:
        while True:
            record = self.feed.next()
            if record is None:
                return
            options = dict(self.options_data, granularity=record.granularity)
            started = time.perf_counter()
            try:
                view = self.client.submit(record.problem, options_data=options)
                result = self.client.result(view.job_id, timeout=self.job_timeout)
                status = result.status.value
            except (ReproError, KeyError, TimeoutError, OSError) as err:
                self.failures.append(f"{record.scenario_id}: {err}")
                self.statuses["client_error"] = (
                    self.statuses.get("client_error", 0) + 1
                )
                continue
            self.latencies.append(time.perf_counter() - started)
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if status not in _OK_STATUSES:
                self.failures.append(
                    f"{record.scenario_id}: settled {status}: {result.message}"
                )


class _Feed:
    """Thread-safe iterator over the round's scenario records."""

    def __init__(self, records: List[Any]):
        self._records = records
        self._index = 0
        self._lock = threading.Lock()

    def next(self) -> Optional[Any]:
        with self._lock:
            if self._index >= len(self._records):
                return None
            record = self._records[self._index]
            self._index += 1
            return record


def run_loadtest(
    *,
    suite: str = "smoke",
    clients: int = 8,
    rounds: int = 2,
    server_url: Optional[str] = None,
    fleet_workers: int = 0,
    use_plan_cache: bool = False,
    quick: bool = True,
    job_timeout: Optional[float] = None,
    max_jobs: Optional[int] = None,
    base_seed: int = 0,
) -> Dict[str, Any]:
    """Run the load and return the ``repro-loadtest/1`` report dict.

    ``server_url`` targets a running server; ``None`` self-hosts one (in
    fleet mode with ``fleet_workers`` in-thread runners when that is
    positive).  ``max_jobs`` truncates the corpus — useful for smoke CI.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    records = generate_corpus(suite, quick=quick, base_seed=base_seed)
    if max_jobs is not None:
        records = records[:max_jobs]
    if not records:
        raise ReproError(f"suite {suite!r} produced no scenarios")

    server = None
    workers: List[FleetWorker] = []
    worker_threads: List[threading.Thread] = []
    if server_url is None:
        from repro.service.server import ReproServer

        server = ReproServer(port=0, fleet=fleet_workers > 0)
        server.start()
        server_url = server.url
        for index in range(fleet_workers):
            worker = FleetWorker(
                server_url,
                worker_id=f"lt-worker-{index + 1}",
                lease_wait=0.5,
            )
            thread = threading.Thread(
                target=worker.run, name=worker.worker_id, daemon=True
            )
            workers.append(worker)
            worker_threads.append(thread)
            thread.start()
    elif fleet_workers:
        raise ReproError(
            "fleet_workers only applies to a self-hosted server; "
            "start `repro worker` processes against --server instead"
        )

    probe = ReproClient(server_url)
    options_data: Dict[str, Any] = {"use_plan_cache": bool(use_plan_cache)}
    round_reports: List[Dict[str, Any]] = []
    failures: List[str] = []
    try:
        for round_index in range(1, rounds + 1):
            metrics = probe.metrics_dict()
            # a fleet coordinator's memo never sees a probe: its runners
            # search, and their memos stay on their hosts
            local_search = (metrics.get("gauges") or {}).get("fleet") is None
            before = _counters(metrics)
            feed = _Feed(records)
            threads = [
                _ClientThread(server_url, feed, options_data, job_timeout)
                for _ in range(clients)
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - started
            after = _counters(probe.metrics_dict())

            latencies = sorted(
                sample for thread in threads for sample in thread.latencies
            )
            statuses: Dict[str, int] = {}
            for thread in threads:
                for status, count in thread.statuses.items():
                    statuses[status] = statuses.get(status, 0) + count
                failures.extend(thread.failures)
            completed = len(latencies)
            report = {
                "round": round_index,
                "jobs": len(records),
                "completed": completed,
                "by_status": dict(sorted(statuses.items())),
                "wall_seconds": round(wall, 6),
                "throughput_jobs_per_s": round(completed / wall, 3)
                if wall > 0
                else 0.0,
                "latency_mean_s": round(sum(latencies) / completed, 6)
                if completed
                else 0.0,
                "latency_p50_s": round(_percentile(latencies, 0.50), 6),
                "latency_p99_s": round(_percentile(latencies, 0.99), 6),
                "latency_max_s": round(latencies[-1], 6) if latencies else 0.0,
            }
            report.update(_round_rates(before, after, memo=local_search))
            round_reports.append(report)

        final_metrics = probe.metrics_dict()
    finally:
        for worker in workers:
            worker.stop()
        for thread in worker_threads:
            thread.join(timeout=10.0)
        for worker in workers:
            worker.close()
        if server is not None:
            server.close()

    total_wall = sum(entry["wall_seconds"] for entry in round_reports)
    fleet_gauges = (final_metrics.get("gauges") or {}).get("fleet")
    fleet_report = None
    if fleet_gauges is not None:
        per_worker = {}
        for worker_id, stats in (fleet_gauges.get("workers") or {}).items():
            busy = float(stats.get("busy_seconds", 0.0))
            per_worker[worker_id] = {
                "completed": int(stats.get("completed", 0)),
                "busy_seconds": round(busy, 6),
                "utilization": round(busy / total_wall, 4) if total_wall else 0.0,
            }
        fleet_report = {
            "workers_connected": fleet_gauges.get("workers_connected", 0),
            "leases_granted_total": fleet_gauges.get("leases_granted_total", 0),
            "leases_expired_total": fleet_gauges.get("leases_expired_total", 0),
            "per_worker": per_worker,
        }

    return {
        "schema": LOADTEST_SCHEMA,
        "suite": suite,
        "quick": quick,
        "clients": clients,
        "rounds": round_reports,
        "jobs_per_round": len(records),
        "use_plan_cache": bool(use_plan_cache),
        "server": server_url,
        "self_hosted": server is not None,
        "fleet_workers": fleet_workers,
        "fleet": fleet_report,
        "failures": failures[:50],
        "ok": not failures,
    }
