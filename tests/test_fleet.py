"""Fleet tests: the coordinator's lease lifecycle, runner integration over
real HTTP, lease-loss recovery, the JSON-only wire, and the loadtest
harness (repro.fleet driven through repro.service.server)."""

import base64
import json
import pickle
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import API_VERSION, LeaseCompletion, LeaseGrant
from repro.errors import FleetError, ParseError
from repro.fleet import FleetCoordinator, FleetWorker
from repro.fleet.loadtest import run_loadtest
from repro.service import (
    JobStatus,
    ReproClient,
    ReproServer,
    SynthesisOptions,
    SynthesisService,
)
from repro.service.jobs import SynthesisJob
from test_server import fig1_problem, normalized_plan, smoke_subset


def start_worker(url, worker_id, **kwargs):
    """A FleetWorker running on a daemon thread; returns (worker, thread)."""
    worker = FleetWorker(url, worker_id=worker_id, lease_wait=0.5, **kwargs)
    thread = threading.Thread(target=worker.run, name=worker_id, daemon=True)
    thread.start()
    return worker, thread


def stop_worker(worker, thread):
    worker.stop()
    thread.join(timeout=30)
    worker.close()


def lease_as(client, worker_id, attempts=100):
    """Long-poll the coordinator as ``worker_id`` until a grant arrives."""
    for _ in range(attempts):
        grants = client.fleet_lease(worker_id, wait=0.5)
        if grants:
            return grants
    raise AssertionError("no grant arrived")


@pytest.fixture()
def fleet_server():
    with ReproServer(port=0, fleet=True) as srv:
        yield srv


# ----------------------------------------------------------------------
# coordinator lease lifecycle (no HTTP)
# ----------------------------------------------------------------------
class TestCoordinatorLifecycle:
    def make_group(self):
        job = SynthesisJob(job_id="j1", problem=fig1_problem())
        return {(job.fingerprint, None): [job]}

    def run_coordinator(self, coordinator, groups):
        """Drive the group-runner contract on a thread, like the scheduler."""
        results = {}
        done = threading.Event()

        def scheduler():
            for key, payload in coordinator(groups):
                results[key] = payload
            done.set()

        thread = threading.Thread(target=scheduler, daemon=True)
        thread.start()
        return results, done, thread

    def test_expired_leases_requeue_then_error_after_max_attempts(self):
        coordinator = FleetCoordinator(lease_ttl=0.2, max_attempts=2)
        groups = self.make_group()
        results, done, thread = self.run_coordinator(coordinator, groups)
        from repro.api import LeaseRequest

        seen_attempts = []
        for _ in range(2):  # lease, never complete, let it die
            grants = []
            deadline = time.monotonic() + 30
            while not grants and time.monotonic() < deadline:
                grants = coordinator.lease(
                    LeaseRequest(worker_id="flaky", wait=0.5)
                )
            assert grants, "coordinator stopped granting"
            seen_attempts.append(grants[0].attempt)
        assert done.wait(timeout=30), "group never settled"
        thread.join(timeout=5)
        assert seen_attempts == [1, 2]
        (payload,) = results.values()
        assert payload["status"] == "error"
        assert "expired" in payload["message"]
        assert coordinator.leases_expired_total == 2

    def test_close_settles_open_groups_as_errors(self):
        coordinator = FleetCoordinator()
        results, done, thread = self.run_coordinator(coordinator, self.make_group())
        coordinator.close()
        assert done.wait(timeout=10)
        thread.join(timeout=5)
        (payload,) = results.values()
        assert payload["status"] == "error"
        assert "closed" in payload["message"]


# ----------------------------------------------------------------------
# runners over real HTTP
# ----------------------------------------------------------------------
class TestFleetIntegration:
    def test_two_runner_fleet_matches_in_process_plans(self, fleet_server):
        """Acceptance: a 2-worker fleet settles the smoke subset with plans
        identical to the in-process service."""
        records = smoke_subset(6)
        local = SynthesisService(workers=0)
        for record in records:
            local.submit(
                record.problem,
                job_id=record.scenario_id,
                options=SynthesisOptions(granularity=record.granularity),
            )
        local_results = {res.job_id: res for res in local.stream()}

        workers = [
            start_worker(fleet_server.url, f"runner-{i}") for i in range(2)
        ]
        try:
            client = ReproClient(fleet_server.url)
            for record in records:
                client.submit(
                    record.problem,
                    job_id=record.scenario_id,
                    options=SynthesisOptions(granularity=record.granularity),
                )
            remote_results = {res.job_id: res for res in client.stream()}
        finally:
            for worker, thread in workers:
                stop_worker(worker, thread)

        assert set(remote_results) == set(local_results)
        for job_id, local_res in local_results.items():
            remote_res = remote_results[job_id]
            assert remote_res.status is JobStatus.DONE, remote_res.message
            assert remote_res.fingerprint == local_res.fingerprint
            assert normalized_plan(remote_res.plan) == normalized_plan(
                local_res.plan
            )

    def test_fleet_gauges_in_metrics_and_healthz(self, fleet_server):
        worker, thread = start_worker(fleet_server.url, "gauge-runner")
        try:
            client = ReproClient(fleet_server.url)
            view = client.submit(fig1_problem())
            assert client.result(view.job_id, timeout=60).status is JobStatus.DONE
            fleet = client.metrics_dict()["gauges"]["fleet"]
            assert fleet["workers_connected"] >= 1
            assert fleet["leases_granted_total"] >= 1
            assert "leases_outstanding" in fleet
            assert "leases_expired_total" in fleet
            runner = fleet["workers"]["gauge-runner"]
            assert runner["completed"] >= 1
            assert runner["last_heartbeat_age_s"] >= 0.0
        finally:
            stop_worker(worker, thread)

    def test_fleet_endpoints_404_off_fleet_mode(self):
        with ReproServer(port=0, workers=0) as srv:
            client = ReproClient(srv.url)
            with pytest.raises(FleetError, match="not a fleet coordinator"):
                client.fleet_lease("wannabe")
            with pytest.raises(FleetError):
                client.fleet_heartbeat("wannabe", ("lease-1",))

    def test_heartbeat_names_unknown_leases(self, fleet_server):
        client = ReproClient(fleet_server.url)
        reply = client.fleet_heartbeat("runner-x", ("lease-404",))
        assert reply["unknown"] == ["lease-404"]


# ----------------------------------------------------------------------
# lease-loss recovery
# ----------------------------------------------------------------------
class TestLeaseRecovery:
    @pytest.fixture()
    def impatient_server(self):
        """A coordinator that gives up on silent runners fast."""
        with ReproServer(
            port=0,
            fleet=True,
            fleet_options={"lease_ttl": 0.6},
        ) as srv:
            yield srv

    def test_killed_worker_mid_lease_relleased_identical_plan(
        self, impatient_server
    ):
        """Acceptance: a worker that dies holding a lease never strands the
        job — it is re-leased and settles with the identical plan."""
        problem = fig1_problem()
        local = SynthesisService(workers=0)
        local.submit(problem, job_id="victim")
        (local_res,) = local.stream()

        client = ReproClient(impatient_server.url)
        client.submit(problem, job_id="victim")
        # the doomed runner takes the lease and then crashes: no heartbeat,
        # no completion, connection gone
        doomed = ReproClient(impatient_server.url)
        grants = lease_as(doomed, "doomed")
        assert grants[0].attempt == 1
        del doomed

        survivor, thread = start_worker(impatient_server.url, "survivor")
        try:
            result = client.result("victim", timeout=60)
        finally:
            stop_worker(survivor, thread)
        assert result.status is JobStatus.DONE
        assert normalized_plan(result.plan) == normalized_plan(local_res.plan)
        fleet = client.metrics_dict()["gauges"]["fleet"]
        assert fleet["leases_expired_total"] >= 1
        assert fleet["workers"]["survivor"]["completed"] >= 1

    def test_malformed_completion_is_400_and_group_recovers(
        self, impatient_server
    ):
        client = ReproClient(impatient_server.url)
        client.submit(fig1_problem(), job_id="mangled")
        saboteur = ReproClient(impatient_server.url)
        grants = lease_as(saboteur, "saboteur")
        # "done" without a plan is a malformed completion: 400, not accepted
        with pytest.raises(ParseError):
            saboteur.fleet_complete(
                LeaseCompletion(
                    lease_id=grants[0].lease_id,
                    worker_id="saboteur",
                    payload={"status": "done", "seconds": 0.0},
                )
            )
        with pytest.raises(ParseError):
            saboteur.fleet_complete(
                LeaseCompletion(
                    lease_id=grants[0].lease_id,
                    worker_id="saboteur",
                    payload={"status": "sideways", "seconds": 0.0},
                )
            )
        # the lease expires like any other loss; a healthy runner finishes
        survivor, thread = start_worker(impatient_server.url, "healthy")
        try:
            result = client.result("mangled", timeout=60)
        finally:
            stop_worker(survivor, thread)
        assert result.status is JobStatus.DONE

    def test_completion_for_unknown_lease_is_not_accepted(self, fleet_server):
        client = ReproClient(fleet_server.url)
        reply = client.fleet_complete(
            LeaseCompletion(
                lease_id="lease-9999",
                worker_id="ghost",
                payload={"status": "infeasible", "seconds": 0.0},
            )
        )
        assert reply["accepted"] is False
        assert reply["known"] is False


# ----------------------------------------------------------------------
# fleet wire documents over raw HTTP
# ----------------------------------------------------------------------
class TestFleetProtocol:
    def post(self, server, path, body: bytes):
        request = urllib.request.Request(
            server.url + path,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        return urllib.request.urlopen(request)

    def test_lease_document_validation(self, fleet_server):
        for bad in (
            {"api": API_VERSION},  # no worker id
            {"api": API_VERSION, "worker": "w", "max_groups": 0},
            {"api": API_VERSION, "worker": "w", "wait": -1},
            {"api": API_VERSION, "worker": "w", "wait": float("nan")},
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self.post(
                    fleet_server, "/v1/fleet/lease", json.dumps(bad).encode()
                )
            assert excinfo.value.code == 400
            assert (
                json.loads(excinfo.value.read())["error"]["code"] == "parse"
            )

    def test_empty_lease_reply_when_no_work(self, fleet_server):
        reply = self.post(
            fleet_server,
            "/v1/fleet/lease",
            json.dumps({"api": API_VERSION, "worker": "idle"}).encode(),
        )
        document = json.loads(reply.read())
        assert document["api"] == API_VERSION
        assert document["leases"] == []


# ----------------------------------------------------------------------
# the wire carries JSON only: nothing a peer sends is ever unpickled
# ----------------------------------------------------------------------
class _CreatesFile:
    """Unpickling this object creates ``path``: proof the receiver ran
    code chosen by the sender."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


def _evil_memo(path) -> str:
    """A ``memo`` field in the shape fleet documents used to carry it."""
    return base64.b64encode(pickle.dumps(_CreatesFile(path))).decode("ascii")


class _ScriptedCoordinator:
    """Stands in for a coordinator's client: hands out the given grant
    documents, then records what the runner sends back."""

    def __init__(self, *grant_documents):
        self.grants = list(grant_documents)
        self.completions = []

    def fleet_lease(self, worker_id, *, max_groups=1, wait=0.0):
        if not self.grants:
            return []
        return [LeaseGrant.from_dict(self.grants.pop(0))]

    def fleet_complete(self, completion):
        self.completions.append(completion.to_dict())
        return {"accepted": True, "known": True}

    def fleet_heartbeat(self, worker_id, lease_ids):
        return {"unknown": []}


class TestJsonOnlyWire:
    def test_completion_memo_pickle_never_runs_on_the_coordinator(
        self, fleet_server, tmp_path
    ):
        marker = tmp_path / "coordinator-pwned"
        body = {
            "api": API_VERSION,
            "lease": "lease-unknown",
            "worker": "attacker",
            "payload": {"status": "error", "seconds": 0.0},
            "memo": _evil_memo(marker),
        }
        request = urllib.request.Request(
            fleet_server.url + "/v1/fleet/complete",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            reply = json.loads(urllib.request.urlopen(request).read())
        finally:
            assert not marker.exists(), "the coordinator unpickled a peer's memo"
        # an unknown lease is simply not accepted
        assert reply["accepted"] is False and reply["known"] is False

    def test_grant_memo_pickle_never_runs_on_the_worker(self, tmp_path):
        marker = tmp_path / "worker-pwned"
        grant = LeaseGrant(
            lease_id="lease-1",
            fingerprint="fp",
            problem=fig1_problem(),
            options=SynthesisOptions(),
        ).to_dict()
        grant["scope"] = "scope-1"
        grant["memo"] = _evil_memo(marker)
        coordinator = _ScriptedCoordinator(grant)
        worker = FleetWorker(client=coordinator, worker_id="runner")
        try:
            assert worker.run(max_leases=1) == 1
        finally:
            worker.close()
            assert not marker.exists(), "the worker unpickled a grant's memo"
        (completion,) = coordinator.completions
        assert completion["payload"]["status"] == "done"
        assert "memo" not in completion


# ----------------------------------------------------------------------
# the plan-cache gate (use_plan_cache)
# ----------------------------------------------------------------------
class TestPlanCacheGate:
    def test_use_plan_cache_false_forces_resynthesis(self):
        service = SynthesisService(workers=0)
        options = SynthesisOptions(use_plan_cache=False)
        first = service.submit(fig1_problem(), options=options)
        second = service.submit(fig1_problem(), options=options)
        results = {res.job_id: res for res in service.stream()}
        assert results[first.job_id].status is JobStatus.DONE
        repeat = results[second.job_id]
        assert repeat.status is JobStatus.DONE
        # without the gate the repeat would be served from the plan cache
        assert not repeat.cached

    def test_gate_is_not_identity(self):
        on = SynthesisJob(
            job_id="a", problem=fig1_problem(),
            options=SynthesisOptions(use_plan_cache=True),
        )
        off = SynthesisJob(
            job_id="b", problem=fig1_problem(),
            options=SynthesisOptions(use_plan_cache=False),
        )
        assert on.fingerprint == off.fingerprint


# ----------------------------------------------------------------------
# the loadtest harness
# ----------------------------------------------------------------------
class TestLoadtest:
    def test_report_schema_and_warm_memo(self):
        report = run_loadtest(
            suite="smoke", clients=3, rounds=2, fleet_workers=1, max_jobs=6
        )
        assert report["schema"] == "repro-loadtest/1"
        assert report["ok"], report["failures"]
        assert report["self_hosted"] is True
        assert len(report["rounds"]) == 2
        for entry in report["rounds"]:
            assert entry["completed"] == report["jobs_per_round"]
            for key in (
                "latency_p50_s",
                "latency_p99_s",
                "throughput_jobs_per_s",
                "memo",
                "plan_cache",
            ):
                assert key in entry
        # runners keep their verdict memos: a fleet coordinator has no memo
        # rates to report, rather than a misleading zero
        assert all(entry["memo"] is None for entry in report["rounds"])
        assert report["fleet"]["per_worker"]["lt-worker-1"]["completed"] > 0

        # a local server runs the searches itself: its repeated round
        # re-synthesizes against the memo the first round warmed
        local = run_loadtest(suite="smoke", clients=3, rounds=2, max_jobs=6)
        assert local["ok"], local["failures"]
        assert local["fleet"] is None
        cold, warm = local["rounds"]
        assert warm["memo"]["hit_rate"] > cold["memo"]["hit_rate"]

    def test_rejects_fleet_workers_with_external_server(self):
        from repro.errors import ReproError

        with ReproServer(port=0, workers=0) as srv:
            with pytest.raises(ReproError, match="self-hosted"):
                run_loadtest(
                    server_url=srv.url, fleet_workers=2, max_jobs=1, rounds=1
                )
