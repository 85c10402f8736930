"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig8g-reach --seed 1 --seconds 12 --trace 0

Each pass over the workload's job set runs in a child process whose
``PYTHONHASHSEED`` is derived from ``--seed`` alone: set iteration order
steers the SAT solver, so an unpinned hash seed shows up as noise.  Every
pass of a run therefore repeats the same search.

``--trace 0`` runs untraced passes, ``--seconds`` divided by the workload's
measured pass time of them (at least two), and reports the end-to-end
metrics; times are those of the fastest pass.  ``--trace 1`` runs one
untraced pass and two traced passes, reports the per-layer metrics of the
first traced pass, and fails unless both traced passes count exactly the
same work.  Spans of traced passes are written to ``.perfbench-out/``.

Every run checks each verdict and plan against an independent reference
(``refcheck.py``) outside the timed region.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it are a readable table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

MIN_PASSES = 2
MAX_PASSES = 6
#: problem generation is repeated in each pass until it has taken this long
#: (up to the cap); setup_s is the median of every repetition of the run
SETUP_MIN_S = 0.3
SETUP_MAX_REPEATS = 50
#: past the minimum, no pass starts once the run is this old; no child
#: outlives the run limit
PASS_START_LIMIT_S = 90.0
RUN_LIMIT_S = 170.0

#: every end-to-end metric the table prints; BENCHMARK.json gates the ones
#: that are never zero (proof_s and failed_frac are zero on most workloads)
E2E_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "proof_s": "s",
    "plan_waits": "count",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def hash_seed(seed: int) -> int:
    return (seed * 1_000_003 + 12_345) % 2**32


def _load_spec() -> Dict[str, Any]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
    for entry in spec["end_to_end"]:
        if E2E_UNITS.get(entry["name"]) != entry["unit"]:
            raise BenchError(f"BENCHMARK.json: unknown end-to-end metric {entry}")
    layer_names = [entry["name"] for entry in spec["per_layer"]]
    if sorted(layer_names) != sorted(metrics.MOVES):
        raise BenchError("BENCHMARK.json per_layer names differ from metrics.MOVES")
    return spec


# ----------------------------------------------------------------------
# child: one pass
# ----------------------------------------------------------------------
def _verify(jobs, outcomes, known: Dict[str, str]) -> Dict[str, Optional[str]]:
    """Failure reason per job id (None when correct); adds newly verified
    plan digests to ``known``."""
    import refcheck
    from workloads import JOB_TIMEOUT_S

    failures: Dict[str, Optional[str]] = {}
    for job, outcome in zip(jobs, outcomes):
        reason = None
        if outcome.status in ("timeout", "error"):
            reason = f"{outcome.status}: {outcome.message}"
        elif job.expected == "feasible" and outcome.status != "done":
            reason = f"expected a plan, got {outcome.status}: {outcome.message}"
        elif job.expected == "infeasible" and outcome.status != "infeasible":
            reason = f"expected infeasible, got {outcome.status}"
        elif outcome.plan is not None:
            digest = refcheck.plan_digest(outcome.plan)
            if known.get(job.job_id) != digest:
                reason = refcheck.check_plan(job.problem, outcome.plan)
                if reason is None and job.patch is not None:
                    cold = refcheck.cold_plan(job.problem, job.granularity, JOB_TIMEOUT_S)
                    if cold is None or refcheck.plan_digest(cold) != digest:
                        reason = "delta plan differs from the cold plan"
                if reason is None:
                    known[job.job_id] = digest
        elif job.patch is not None:
            cold = refcheck.cold_plan(job.problem, job.granularity, JOB_TIMEOUT_S)
            if cold is not None:
                reason = "delta verdict infeasible, cold synthesis found a plan"
        failures[job.job_id] = reason
    return failures


def child_main(request: Dict[str, Any]) -> Dict[str, Any]:
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")
    workload = WORKLOADS[request["workload"]]
    setup_s: List[float] = []
    while not setup_s or (sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        jobs = None  # drop the previous repetition's problems first
        jobs = workload.setup(request["seed"])
        setup_s.append(time.perf_counter() - start)

    gc.collect()  # start the timed region without set-up garbage
    layers = None
    if request["traced"]:
        from instrument import JOB_SPAN, Instrumentation
        from spans import Recorder, self_times

        rec = Recorder()
        instrumentation = Instrumentation(rec)
        job_span: List[int] = []

        def on_job(job_id):
            if job_span:
                rec.close(job_span.pop())
            rec.job = job_id
            if job_id is not None:
                job_span.append(rec.open(JOB_SPAN))

        try:
            result = workload.solve(jobs, on_job)
        finally:
            instrumentation.remove()
        layers = metrics.layer_metrics(
            self_times(rec.spans), instrumentation.layer_of, rec.counts, result.solve_s
        )
        service = [o for o in result.outcomes if o.exec_seconds is not None]
        layers["service.jobs"] = len(service)
        layers["service.cache_hits"] = result.service_cache_hits
        layers["service.exec_s"] = sum(o.exec_seconds for o in service)
        layers["service.overhead_s"] = sum(o.seconds - o.exec_seconds for o in service)
        os.makedirs(OUT_DIR, exist_ok=True)
        rec.write(request["spans_path"])
    else:
        result = workload.solve(jobs, lambda job_id: None)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    known = dict(request["verified"])
    failures = _verify(jobs, result.outcomes, known)
    return {
        "setup_s": setup_s,
        "solve_s": result.solve_s,
        "jobs": [
            [o.job_id, o.seconds, o.status, failures[o.job_id]] for o in result.outcomes
        ],
        "plan_waits": sum(o.plan.num_waits() for o in result.outcomes if o.plan is not None),
        "proof_s": sum(o.seconds for o in result.outcomes if o.status == "infeasible"),
        "rss_mb": rss_mb,
        "verified": known,
        "layers": layers,
    }


# ----------------------------------------------------------------------
# parent: passes, aggregation, output
# ----------------------------------------------------------------------
def _run_child(request: Dict[str, Any], seed_for_hash: int, deadline: float) -> Dict[str, Any]:
    env = dict(os.environ, PYTHONHASHSEED=str(seed_for_hash))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child"],
            input=json.dumps(request),
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """End-to-end metrics of a run.  Every pass repeats the same search
    under one hash seed; times are the fastest pass (min-of-k), since
    contention on a shared host only ever adds time."""
    per_pass = [[job[1] for job in p["jobs"]] for p in passes]
    tails = [metrics.tail(samples) for samples in per_pass]
    failed, attempted, frac = metrics.failed_frac(job[3] for p in passes for job in p["jobs"])
    proofs = [p["proof_s"] for p in passes]
    _value, tail_pct, beyond = tails[0]
    jobs = len(per_pass[0])
    return {
        "values": {
            "setup_s": statistics.median([s for p in passes for s in p["setup_s"]]),
            "solve_s": min(p["solve_s"] for p in passes),
            "job_p50_s": min(statistics.median(samples) for samples in per_pass),
            "job_tail_s": min(value for value, _pct, _beyond in tails),
            "proof_s": min(proofs),
            "plan_waits": statistics.median([p["plan_waits"] for p in passes]),
            "failed_frac": frac,
            "peak_rss_mb": max(p["rss_mb"] for p in passes),
        },
        "notes": {
            "setup_s": f"median of {sum(len(p['setup_s']) for p in passes)} set-ups",
            "solve_s": "fastest of passes " + " ".join(f"{p['solve_s']:.3f}" for p in passes),
            "job_p50_s": f"fastest pass's median of {jobs} jobs",
            "job_tail_s": f"fastest pass's p{tail_pct:.1f} of {jobs} jobs, {beyond} beyond",
            "proof_s": "" if any(proofs) else "no infeasible verdicts on this workload",
            "failed_frac": f"{failed} of {attempted} jobs",
        },
        "failed": failed,
        "attempted": attempted,
    }


def _print_failures(passes: List[Dict[str, Any]]) -> None:
    for index, p in enumerate(passes):
        for job_id, _seconds, _status, reason in p["jobs"]:
            if reason:
                print(f"FAILED pass {index} job {job_id}: {reason}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        reply = child_main(json.loads(sys.stdin.read()))
        print(json.dumps(reply))
        return 0

    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"no program source at {SRC}/repro")
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    verified: Dict[str, str] = {}

    def run_pass(pass_index: int, traced: bool) -> Dict[str, Any]:
        spans_path = os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}-pass{pass_index}.spans.tsv.gz"
        )
        request = {
            "workload": args.workload,
            "seed": args.seed,
            "traced": traced,
            "verified": verified,
            "spans_path": spans_path,
        }
        reply = _run_child(request, hash_seed(args.seed), deadline)
        verified.update(reply["verified"])
        return reply

    if args.trace:
        base = run_pass(0, traced=False)
        traced = [run_pass(1, traced=True), run_pass(2, traced=True)]
        passes = [base] + traced
    else:
        # a fixed pass count per --seconds: min-of-k depends on k
        planned = round(args.seconds / WORKLOADS[args.workload].pass_s)
        planned = max(MIN_PASSES, min(MAX_PASSES, planned))
        passes = []
        while len(passes) < planned and (
            len(passes) < MIN_PASSES or time.monotonic() - started < PASS_START_LIMIT_S
        ):
            passes.append(run_pass(len(passes), traced=False))

    e2e = _end_to_end(passes)
    _print_failures(passes)
    correct = e2e["failed"] == 0
    print(f"workload {args.workload}  seed {args.seed}  hash seed {hash_seed(args.seed)}")
    if args.trace:
        first, second = (p["layers"] for p in traced)
        mismatched = [n for n in metrics.DETERMINISTIC if first[n] != second[n]]
        if mismatched:
            correct = False
            for name in mismatched:
                print(
                    f"COUNTER MISMATCH {name}: {first[name]} vs {second[name]} "
                    "across two traced passes with one hash seed",
                    file=sys.stderr,
                )
        layer_values = dict(first)
        layer_values["trace.overhead"] = first["trace.solve_s"] / base["solve_s"] - 1.0
        units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
        for name in metrics.MOVES:
            print(f"  {name:<24} {layer_values[name]:>14.6g} {units[name]:<6} moves {metrics.MOVES[name]}")
        out = {name: {"value": layer_values[name], "unit": units[name]} for name in units}
    else:
        for name, unit in E2E_UNITS.items():
            note = e2e["notes"].get(name, "")
            print(f"  {name:<12} {e2e['values'][name]:>14.6g} {unit:<6} {note}")
        out = {
            entry["name"]: {"value": e2e["values"][entry["name"]], "unit": entry["unit"]}
            for entry in spec["end_to_end"]
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": e2e["attempted"],
                "failed": e2e["failed"],
                "metrics": out,
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
