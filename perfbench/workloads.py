"""The benchmark's four workloads: problems generated from a seed, and one
serial closed-loop pass over them.

One client submits each job only after the previous verdict arrived; no
process pool runs.  The three paper-scale workloads call the synthesizer
directly, the service workload goes through an in-process
``SynthesisService(workers=0)``.  Every pass builds fresh synthesizers and a
fresh service, so passes repeat the same work and can be compared.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

#: per-job budget; a job hitting it counts as failed
JOB_TIMEOUT_S = 120.0


@dataclass
class Job:
    """One synthesis problem of a workload and the verdict it must get.

    ``expected`` is ``"feasible"``, ``"infeasible"`` or ``"unknown"`` (the
    corpus's own label).  ``patch`` marks a churn step: it is submitted as a
    delta against the job just before it.
    """

    job_id: str
    problem: Any  # has topology, init, final, spec, ingresses
    granularity: str
    expected: str
    patch: Any = None


@dataclass
class Outcome:
    """What the caller saw for one job."""

    job_id: str
    seconds: float  # submission to verdict, at the caller
    status: str  # "done" | "infeasible" | "timeout" | "error"
    plan: Any = None
    message: str = ""
    exec_seconds: Optional[float] = None  # service path: the engine's own timing


@dataclass
class Pass:
    """One pass over a workload's fixed job set."""

    outcomes: List[Outcome]
    solve_s: float  # first submission to last verdict
    service_cache_hits: int = 0


def _fig8g_reach(seed: int) -> List[Job]:
    from repro.topo.diamond import ring_diamond

    jobs = []
    for ring_seed in (2 * seed, 2 * seed + 1):
        scenario = ring_diamond(1000, seed=ring_seed)
        jobs.append(Job(f"ring_diamond_1000/seed{ring_seed}", scenario, "switch", "feasible"))
    return jobs


def _fig8g_waypoint(seed: int) -> List[Job]:
    # the chained-diamond generator takes no seed: the workload seed reaches
    # these jobs only through the pinned hash seed (set iteration order)
    from repro.scenarios import scenario_for_prop

    return [
        Job(f"{prop}_{n}", scenario_for_prop(prop, n), "switch", "feasible")
        for prop, n in (("waypoint", 154), ("chain", 73))
    ]


def _fig8hi_double(seed: int) -> List[Job]:
    from repro.topo.diamond import double_diamond

    jobs = []
    # switch granularity: provably impossible (Fig 8(h)); rule granularity
    # on the same instances decouples the two flows (Fig 8(i))
    for n, granularity in ((32, "switch"), (64, "switch"), (64, "rule"), (128, "rule")):
        scenario = double_diamond(n, seed=seed)
        feasible = granularity == "rule" or scenario.expected_feasible
        expected = "feasible" if feasible else "infeasible"
        jobs.append(Job(f"double_diamond_{n}/{granularity}", scenario, granularity, expected))
    return jobs


def _service_churn(seed: int) -> List[Job]:
    from repro.scenarios import generate_churn, generate_corpus

    jobs = []
    # four corpus draws per run: fewer let the job mix around the median
    # (job_p50_s) swing with the seed
    for base_seed in range(4 * seed, 4 * seed + 4):
        for record in generate_corpus("full", base_seed=base_seed):
            jobs.append(
                Job(
                    f"base{base_seed}/{record.scenario_id}",
                    record.problem,
                    record.granularity,
                    record.expected,
                )
            )
    for trace in generate_churn(base_seed=seed):
        for record in trace.records:
            jobs.append(
                Job(
                    record.scenario_id,
                    record.problem,
                    record.granularity,
                    record.expected,
                    patch=record.patch,
                )
            )
    return jobs


def _solve_direct(jobs: List[Job], on_job: Callable[[str], None]) -> Pass:
    from repro.errors import SynthesisTimeout, UpdateInfeasibleError
    from repro.synthesis import UpdateSynthesizer

    outcomes = []
    clock = time.perf_counter
    first = clock()
    for job in jobs:
        on_job(job.job_id)
        problem = job.problem
        start = clock()
        plan, message = None, ""
        try:
            synthesizer = UpdateSynthesizer(problem.topology, granularity=job.granularity)
            plan = synthesizer.synthesize(
                problem.init,
                problem.final,
                problem.spec,
                problem.ingresses,
                timeout=JOB_TIMEOUT_S,
            )
            status = "done"
        except UpdateInfeasibleError as err:
            status, message = "infeasible", f"({err.reason}) {err}"
        except SynthesisTimeout as err:
            status, message = "timeout", str(err)
        except Exception as err:  # noqa: BLE001 - a failed job is a measured outcome
            status, message = "error", f"{type(err).__name__}: {err}"
        outcomes.append(Outcome(job.job_id, clock() - start, status, plan, message))
    on_job(None)
    return Pass(outcomes, clock() - first)


def _solve_service(jobs: List[Job], on_job: Callable[[str], None]) -> Pass:
    from repro.service import SynthesisOptions, SynthesisService

    outcomes = []
    clock = time.perf_counter
    service = SynthesisService(workers=0)
    try:
        first = clock()
        fingerprint = None
        for job in jobs:
            on_job(job.job_id)
            start = clock()
            try:
                if job.patch is None:
                    options = SynthesisOptions(granularity=job.granularity, timeout=JOB_TIMEOUT_S)
                    handle = service.submit(job.problem, options=options, job_id=job.job_id)
                else:
                    handle = service.submit_delta(
                        fingerprint, job.patch, job_id=job.job_id, timeout=JOB_TIMEOUT_S
                    )
                fingerprint = handle.fingerprint
                result = service.result(job.job_id)
            except Exception as err:  # noqa: BLE001 - a failed job is a measured outcome
                outcomes.append(
                    Outcome(job.job_id, clock() - start, "error", None, f"{type(err).__name__}: {err}")
                )
                continue
            outcomes.append(
                Outcome(
                    job.job_id,
                    clock() - start,
                    result.status.value,
                    result.plan,
                    result.message,
                    exec_seconds=result.seconds,
                )
            )
        on_job(None)
        solve_s = clock() - first
        cache_hits = service.metrics_dict()["cache_hits"]
    finally:
        service.close()
    return Pass(outcomes, solve_s, cache_hits)


@dataclass(frozen=True)
class Workload:
    """``pass_s`` is the time of one pass measured on a 2-CPU x86 box under
    CPython 3.11; it turns ``--seconds`` into a pass count that does not
    depend on how busy the host is."""

    name: str
    setup: Callable[[int], List[Job]]
    solve: Callable[[List[Job], Callable[[Optional[str]], None]], Pass]
    pass_s: float


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig8g-reach", _fig8g_reach, _solve_direct, 3.2),
        Workload("fig8g-waypoint", _fig8g_waypoint, _solve_direct, 4.5),
        Workload("fig8hi-double", _fig8hi_double, _solve_direct, 3.2),
        Workload("service-churn", _service_churn, _solve_service, 3.7),
    )
}
