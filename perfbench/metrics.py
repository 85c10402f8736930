"""The benchmark's arithmetic: the tail rule, the failure fraction, the
run-to-run spread, and the per-layer metrics of a traced pass.

``MOVES`` records, for every per-layer metric, the end-to-end metric and
workload it should move.  ``BENCHMARK.json`` holds names, units and which
direction is better; its fixed key set has no room for this rationale.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, Mapping, Sequence, Tuple

#: a tail percentile needs this many samples strictly beyond it
TAIL_BEYOND = 10

MOVES: Dict[str, str] = {
    "kripke.build_s": "job_p50_s on service-churn",
    "kripke.builds": "job_p50_s on service-churn",
    "kripke.update_s": "solve_s on fig8g-reach",
    "kripke.updates": "solve_s on fig8g-reach",
    "kripke.states_dirty": "solve_s on fig8g-reach",
    "kripke.reach_s": "solve_s on fig8g-reach",
    "kripke.reach_calls": "solve_s on fig8g-reach",
    "mc.check_s": "solve_s on fig8g-waypoint",
    "mc.checks": "solve_s on fig8g-waypoint",
    "mc.states_relabeled": "solve_s on fig8g-waypoint",
    "mc.violations": "solve_s on fig8g-waypoint",
    "search.self_s": "solve_s on fig8g-reach",
    "search.model_checks": "solve_s on fig8g-reach",
    "search.counterexamples": "solve_s on fig8g-reach",
    "search.backtracks": "solve_s on fig8g-reach",
    "search.pruned_visited": "solve_s on fig8g-reach",
    "search.pruned_wrong": "solve_s on fig8g-reach",
    "search.loops_rejected": "solve_s on fig8g-reach",
    "search.accept_ratio": "solve_s on fig8g-reach",
    "pruning.match_s": "solve_s on fig8g-waypoint",
    "pruning.matches": "solve_s on fig8g-waypoint",
    "pruning.patterns": "solve_s on fig8g-waypoint",
    "ordering.s": "solve_s on fig8g-waypoint; proof_s on fig8hi-double",
    "ordering.constraints": "solve_s on fig8g-waypoint; proof_s on fig8hi-double",
    "ordering.units": "solve_s on fig8g-waypoint; proof_s on fig8hi-double",
    "sat.solve_s": "solve_s on fig8g-waypoint; proof_s on fig8hi-double",
    "sat.solves": "solve_s on fig8g-waypoint; proof_s on fig8hi-double",
    "sat.clauses": "solve_s on fig8g-waypoint; proof_s on fig8hi-double",
    "sat.conflicts": "solve_s on fig8g-waypoint; proof_s on fig8hi-double",
    "sat.propagations": "solve_s on fig8g-waypoint; proof_s on fig8hi-double",
    "sat.decisions": "solve_s on fig8g-waypoint; proof_s on fig8hi-double",
    "sat.unsat": "solve_s on fig8g-waypoint; proof_s on fig8hi-double",
    "waits.s": "solve_s on fig8g-reach",
    "waits.before": "plan_waits on every workload",
    "waits.after": "plan_waits on every workload",
    "memo.s": "job_p50_s on service-churn; solve_s on fig8g-waypoint",
    "memo.probes": "job_p50_s on service-churn; solve_s on fig8g-waypoint",
    "memo.hits": "job_p50_s on service-churn; solve_s on fig8g-waypoint",
    "memo.checks_skipped": "job_p50_s on service-churn; solve_s on fig8g-waypoint",
    "service.self_s": "job_p50_s and job_tail_s on service-churn",
    "service.exec_s": "job_p50_s and job_tail_s on service-churn",
    "service.overhead_s": "job_p50_s and job_tail_s on service-churn",
    "service.serialize_s": "job_p50_s and job_tail_s on service-churn",
    "service.fingerprint_s": "job_p50_s and job_tail_s on service-churn",
    "service.cache_hits": "job_p50_s and job_tail_s on service-churn",
    "service.jobs": "job_p50_s and job_tail_s on service-churn",
    "trace.solve_s": "none: the traced pass's solve_s, base of the two ratios below",
    "trace.attributed": "none: share of the traced solve_s inside named layers",
    "trace.overhead": "none: traced solve_s / untraced solve_s - 1",
}

#: counters that must repeat exactly across two passes with one hash seed
DETERMINISTIC = tuple(
    name
    for name in MOVES
    if name.split(".")[0] in ("kripke", "mc", "search", "pruning", "ordering", "sat", "waits", "memo")
    and not name.endswith(("_s", ".s"))
) + ("service.cache_hits", "service.jobs")


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, beyond)`` at the highest percentile with at
    least :data:`TAIL_BEYOND` samples strictly beyond it by rank.

    With fewer than ``TAIL_BEYOND + 1`` samples no such percentile exists;
    the slowest sample is returned as p100 with 0 beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def failed_frac(failures: Iterable[object]) -> Tuple[int, int, float]:
    """``(failed, attempted, failed / attempted)``: each item is one
    attempted job, failed when truthy (a reason string)."""
    items = list(failures)
    failed = sum(1 for item in items if item)
    return failed, len(items), failed / len(items) if items else 0.0


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def layer_metrics(
    self_by_span: Mapping[str, float],
    layer_of: Mapping[str, str],
    counts: Mapping[str, float],
    solve_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead`` excluded:
    it needs the untraced pass)."""
    out: Dict[str, float] = {name: 0 for name in MOVES if name != "trace.overhead"}
    for span, seconds in self_by_span.items():
        metric = layer_of.get(span)
        if metric is not None:
            out[metric] += seconds
    for name, value in counts.items():
        if name in out:
            out[name] = value
    checks = counts.get("search.model_checks", 0)
    # units accepted = candidate checks that passed: the search's checks
    # minus its endpoint full checks and minus refuted candidates (reverts
    # return to a checked configuration, so every refuting incremental
    # check is a candidate)
    accepted = (
        checks
        - counts.get("mc.full_check_calls", 0)
        - counts.get("mc.apply_update_violations", 0)
    )
    out["search.accept_ratio"] = accepted / checks if checks else 0.0
    attributed = sum(out[metric] for metric in set(layer_of.values()))
    out["trace.solve_s"] = solve_s
    out["trace.attributed"] = attributed / solve_s
    return out
