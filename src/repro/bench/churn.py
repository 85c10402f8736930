"""The ``repro bench --suite churn`` two-pass delta benchmark.

The churn suite measures the one thing the other suites cannot: the
*warm-start payoff* of ``repro-api/1`` delta submissions.  Every churn
trace (:func:`repro.scenarios.churn.generate_churn`) is replayed twice,
on two fresh serial services:

* the **cold pass** submits every step as a full problem — what a
  controller without the delta extension would send;
* the **delta pass** submits the base once, then chains each step as a
  :class:`~repro.net.delta.ProblemPatch` via
  :meth:`~repro.service.engine.SynthesisService.submit_delta`, waiting
  out each verdict so the accepted plan is cached before the next delta
  arrives (exactly the streaming contract ``repro batch`` honours).

Both passes see the same problems (the generator chains its resolved
problems through ``patch.apply_to`` precisely as the engine does), the
same serial execution, and the same per-service verdict-memo continuity,
so the per-step ``speedup`` column isolates the warm start.  The
document's ``totals.churn`` block carries the median speedup over delta
steps and a self-gate verdict (``ok``) against ``speedup_target`` — the
CI job fails on either the gate or a ``--compare`` regression against
the committed baseline.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Any, Dict, List, Optional

from repro.bench.runner import BENCH_SCHEMA, SPEEDUP_FLOOR_SECONDS, collect_meta
from repro.scenarios.churn import generate_churn
from repro.scenarios.corpus import corpus_summary
from repro.service import SynthesisOptions, SynthesisService
from repro.service.jobs import JobResult

#: the acceptance bar: median delta speedup the suite self-gates on
CHURN_SPEEDUP_TARGET = 2.0


def run_churn_suite(
    *,
    quick: bool = False,
    base_seed: int = 0,
    timeout: Optional[float] = 120.0,
    checker: str = "incremental",
    memoize: bool = True,
    speedup_target: float = CHURN_SPEEDUP_TARGET,
) -> Dict[str, Any]:
    """Replay every churn trace cold and as deltas; return the BENCH document.

    Rows carry the **delta pass** under the standard ``status`` /
    ``seconds`` / ``model_checks`` keys (so ``--compare`` against a churn
    baseline tracks the delta path), plus ``cold_seconds`` /
    ``cold_status`` / ``cold_model_checks`` and the per-step ``speedup``.
    Base rows (``delta: false``) are cold on both passes and are excluded
    from the median.
    """
    traces = generate_churn(quick=quick, base_seed=base_seed)
    records = [record for trace in traces for record in trace.records]
    rows: List[Dict[str, Any]] = []
    speedups: List[float] = []
    plans_match = True
    start = time.perf_counter()
    for trace in traces:
        cold_service = SynthesisService(workers=0)
        delta_service = SynthesisService(workers=0)
        try:
            cold_results: List[JobResult] = []
            for record in trace.records:
                options = SynthesisOptions(
                    checker=checker,
                    granularity=record.granularity,
                    timeout=timeout,
                    memoize=memoize,
                )
                job = cold_service.submit(
                    record.problem, job_id=record.scenario_id, options=options
                )
                cold_results.append(cold_service.result(job.job_id))

            delta_results: List[JobResult] = []
            base_record = trace.records[0]
            job = delta_service.submit(
                base_record.problem,
                job_id=base_record.scenario_id,
                options=SynthesisOptions(
                    checker=checker,
                    granularity=base_record.granularity,
                    timeout=timeout,
                    memoize=memoize,
                ),
            )
            delta_results.append(delta_service.result(job.job_id))
            fingerprint = job.fingerprint
            for record in trace.records[1:]:
                # wait-then-patch: the previous result() above guarantees
                # the base plan is cached, so the warm order is available
                job = delta_service.submit_delta(
                    fingerprint, record.patch, job_id=record.scenario_id
                )
                delta_results.append(delta_service.result(job.job_id))
                fingerprint = job.fingerprint

            for record, cold, delta in zip(
                trace.records, cold_results, delta_results
            ):
                row = _step_row(record, cold, delta)
                if row["delta"]:
                    speedups.append(row["speedup"])
                    plans_match = plans_match and row["plans_match"]
                rows.append(row)
        finally:
            cold_service.close()
            delta_service.close()
    wall = time.perf_counter() - start
    rows.sort(key=lambda row: row["id"])

    speedups.sort()
    median = None
    if speedups:
        mid = len(speedups) // 2
        median = (
            speedups[mid]
            if len(speedups) % 2
            else (speedups[mid - 1] + speedups[mid]) / 2.0
        )
    statuses: Dict[str, int] = {}
    for row in rows:
        statuses[row["status"]] = statuses.get(row["status"], 0) + 1
    all_done = all(
        row["status"] == "done" and row["cold_status"] == "done" for row in rows
    )
    return {
        "schema": BENCH_SCHEMA,
        "suite": "churn",
        "quick": quick,
        "base_seed": base_seed,
        "checker": checker,
        "workers": 0,
        "memoize": memoize,
        "meta": collect_meta(),
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "corpus": corpus_summary(records),
        "totals": {
            "scenarios": len(rows),
            "statuses": dict(sorted(statuses.items())),
            "expected_mismatches": [
                row["id"] for row in rows if row["status"] != "done"
            ],
            "wall_seconds": round(wall, 6),
            "busy_seconds": round(sum(row["seconds"] for row in rows), 6),
            "cold_busy_seconds": round(
                sum(row["cold_seconds"] for row in rows), 6
            ),
            "cache_hits": sum(1 for row in rows if row["cached"]),
            "model_checks": sum(row.get("model_checks", 0) for row in rows),
            "churn": {
                "traces": len(traces),
                "delta_steps": len(speedups),
                "median_delta_speedup": round(median, 4) if median else None,
                "speedup_target": speedup_target,
                "plans_match": plans_match,
                "ok": bool(
                    median is not None
                    and median >= speedup_target
                    and plans_match
                    and all_done
                ),
            },
        },
        "scenarios": rows,
    }


def _step_row(record, cold: JobResult, delta: JobResult) -> Dict[str, Any]:
    """One BENCH row: the delta pass under the standard keys, the cold
    pass alongside, and the floored per-step speedup."""
    row: Dict[str, Any] = {
        "id": record.scenario_id,
        "family": record.family,
        "template": record.template,
        "perturbation": record.perturbation,
        "granularity": record.granularity,
        "tier": record.tier,
        "switches": record.switches,
        "updating": record.updating,
        "expected": record.expected,
        "delta": record.patch is not None,
        "status": delta.status.value,
        "seconds": round(delta.seconds, 6),
        "cached": delta.cached,
        "cold_status": cold.status.value,
        "cold_seconds": round(cold.seconds, 6),
        "speedup": round(
            max(cold.seconds, SPEEDUP_FLOOR_SECONDS)
            / max(delta.seconds, SPEEDUP_FLOOR_SECONDS),
            4,
        ),
        "plans_match": _unit_order(cold) == _unit_order(delta),
    }
    if delta.plan is not None:
        stats = delta.plan.stats
        row.update(
            model_checks=stats.model_checks,
            counterexamples=stats.counterexamples,
            backtracks=stats.backtracks,
            plan_commands=len(delta.plan),
            plan_updates=delta.plan.num_updates(),
            plan_waits=delta.plan.num_waits(),
            warm_units=stats.warm_units,
            warm_hits=stats.warm_hits,
        )
    if cold.plan is not None:
        row["cold_model_checks"] = cold.plan.stats.model_checks
    return row


def _unit_order(result: JobResult) -> Optional[List[Any]]:
    return result.plan.unit_order() if result.plan is not None else None


def format_churn_summary(document: Dict[str, Any]) -> str:
    """A short human-readable recap of one churn BENCH document."""
    churn = document.get("totals", {}).get("churn", {})
    lines = [
        f"suite 'churn' (quick={document.get('quick')}, "
        f"checker={document.get('checker')}, schema {document.get('schema')})",
        f"  traces: {churn.get('traces')}  delta steps: {churn.get('delta_steps')}  "
        f"plans match: {churn.get('plans_match')}",
        f"  median delta speedup: {churn.get('median_delta_speedup')}x "
        f"(target {churn.get('speedup_target')}x) -> "
        f"{'OK' if churn.get('ok') else 'BELOW TARGET'}",
    ]
    for row in document.get("scenarios", []):
        if not row.get("delta"):
            continue
        lines.append(
            f"  {row['speedup']:6.2f}x  cold {row['cold_seconds']:.3f}s -> "
            f"delta {row['seconds']:.3f}s  warm_hits={row.get('warm_hits', 0)}  "
            f"{row['id']}"
        )
    return "\n".join(lines)
