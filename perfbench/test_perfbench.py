"""Tests of the benchmark's own arithmetic.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import threading

import pytest

import metrics
import run
import workloads
from spans import Recorder, self_times


def _clock(*ticks):
    return iter(ticks).__next__


def test_tail_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    value, percentile, beyond = metrics.tail(samples)
    assert (value, percentile, beyond) == (90.0, 90.0, 10)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_with_eleven_samples_is_the_minimum():
    value, percentile, beyond = metrics.tail([5.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 10.0, 11.0])
    assert (value, beyond) == (1.0, 10)
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_with_few_samples_falls_back_to_the_slowest():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert metrics.tail([1.0] * 10) == (1.0, 100.0, 0)
    with pytest.raises(ValueError):
        metrics.tail([])


def test_self_time_subtracts_nested_children():
    rec = Recorder(clock=_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0))
    outer = rec.open("outer")
    child = rec.open("child")
    grandchild = rec.open("grandchild")
    rec.close(grandchild)
    rec.close(child)
    second = rec.open("child")
    rec.close(second)
    rec.close(outer)
    assert [span[3] for span in rec.spans] == [-1, 0, 1, 0]
    assert self_times(rec.spans) == {"outer": 6.0, "child": 3.0, "grandchild": 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["parent", 0.0, 10.0, -1, "j"],
        ["a", 1.0, 5.0, 0, "j"],
        ["b", 3.0, 7.0, 0, "j"],  # overlaps a: union is 1..7
        ["c", 2.0, 4.0, 0, "j"],  # inside the union already
        ["d", 9.0, 12.0, 0, "j"],  # clipped to the parent's end
    ]
    assert self_times(spans)["parent"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_span_on_worker_thread_nests_under_main_threads_open_span():
    rec = Recorder()
    rec.job = "job-1"
    waiting = rec.open("service.result")

    def worker():
        rec.close(rec.open("search"))

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    rec.close(waiting)
    name, _start, _end, parent, job = rec.spans[1]
    assert (name, parent, job) == ("search", waiting, "job-1")
    times = self_times(rec.spans)
    total = rec.spans[0][2] - rec.spans[0][1]
    assert times["service.result"] + times["search"] == pytest.approx(total)


def test_failed_frac_counts_reasons_against_attempts():
    assert metrics.failed_frac([None, "wrong verdict", None, "", "timeout: budget"]) == (2, 5, 0.4)
    assert metrics.failed_frac([None, None]) == (0, 2, 0.0)


def test_end_to_end_aggregates_passes():
    passes = [
        {"setup_s": [0.1, 0.3], "solve_s": 4.0, "plan_waits": 3, "proof_s": 1.0, "rss_mb": 50.0,
         "jobs": [["a", 1.0, "done", None], ["b", 3.0, "infeasible", None]]},
        {"setup_s": [0.2], "solve_s": 6.0, "plan_waits": 3, "proof_s": 2.0, "rss_mb": 70.0,
         "jobs": [["a", 2.0, "done", "plan fails the check"], ["b", 4.0, "infeasible", None]]},
    ]
    e2e = run._end_to_end(passes)
    values = e2e["values"]
    assert values["setup_s"] == pytest.approx(0.2)
    assert values["solve_s"] == 4.0  # the fastest pass
    assert values["job_p50_s"] == pytest.approx(2.0)  # per-pass medians 2.0 and 3.0
    assert values["job_tail_s"] == 3.0  # per-pass slowest 3.0 and 4.0
    assert values["proof_s"] == 1.0
    assert values["failed_frac"] == pytest.approx(0.25)
    assert values["peak_rss_mb"] == 70.0
    assert (e2e["failed"], e2e["attempted"]) == (1, 4)


def test_spread_is_quartile_distance_over_median():
    assert metrics.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_instrumentation_counts_a_small_search_and_restores_the_program():
    from repro.kripke.structure import KripkeStructure
    from repro.synthesis import UpdateSynthesizer
    from repro.topo.diamond import ring_diamond

    from instrument import JOB_SPAN, Instrumentation

    original = KripkeStructure.update_switch
    scenario = ring_diamond(12, seed=0)
    rec = Recorder()
    instrumentation = Instrumentation(rec)
    try:
        job = rec.open(JOB_SPAN)
        plan = UpdateSynthesizer(scenario.topology).synthesize(
            scenario.init, scenario.final, scenario.spec, scenario.ingresses
        )
        rec.close(job)
    finally:
        instrumentation.remove()
    assert KripkeStructure.update_switch is original
    assert rec.counts["kripke.builds"] == 2  # final and initial configurations
    assert rec.counts["search.model_checks"] == plan.stats.model_checks
    assert rec.counts["waits.after"] == plan.num_waits()
    solve_s = rec.spans[job][2] - rec.spans[job][1]
    layers = metrics.layer_metrics(self_times(rec.spans), instrumentation.layer_of, rec.counts, solve_s)
    assert 0.5 < layers["trace.attributed"] <= 1.0
    assert layers["search.accept_ratio"] == pytest.approx(plan.num_updates() / plan.stats.model_checks)


def test_refcheck_passes_a_plan_and_fails_it_without_each_kept_wait():
    from repro.net.commands import Wait
    from repro.scenarios import scenario_for_prop
    from repro.synthesis import UpdateSynthesizer
    from repro.synthesis.plan import UpdatePlan

    import refcheck

    problem = scenario_for_prop("waypoint", 24)
    plan = UpdateSynthesizer(problem.topology).synthesize(
        problem.init, problem.final, problem.spec, problem.ingresses
    )
    assert plan.num_waits() == 2
    assert refcheck.check_plan(problem, plan) is None
    for index, command in enumerate(plan.commands):
        if isinstance(command, Wait):
            dropped = UpdatePlan(plan.commands[:index] + plan.commands[index + 1:], plan.granularity)
            assert "in flight" in refcheck.check_plan(problem, dropped)
    truncated = UpdatePlan(plan.commands[:-1], plan.granularity)
    assert "final" in refcheck.check_plan(problem, truncated)


def test_benchmark_json_matches_the_metric_tables():
    spec = run._load_spec()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(metrics.DETERMINISTIC) <= set(metrics.MOVES)
