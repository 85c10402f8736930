"""Traced-run instrumentation: spans and counters around each layer's
public entry points, installed from outside the program by wrapping them.

Each entry of :func:`_entry_points` names an owner (a class or the module
whose global the caller looks up), an attribute, the layer metric its self
time adds to, and an optional counter hook.  ``SatSolver.add_clause`` runs
close to a million times in one ``fig8g-waypoint`` pass, so it is counted
and never timed.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import Recorder

#: span name of the benchmark's own per-job span: whatever of a job no
#: layer span covers stays here, as unattributed time
JOB_SPAN = "job"


def _count(name: str) -> Callable:
    def hook(rec, args, result, exc, token):
        rec.counts[name] += 1

    return hook


def _kripke_update(rec, args, result, exc, token):
    rec.counts["kripke.updates"] += 1
    if exc is None:
        rec.counts["kripke.states_dirty"] += len(result)


def _relabels(args):
    return args[0].relabel_count


def _mc_check(kind: str) -> Callable:
    """Counts for ``full_check`` / ``apply_update``; the per-kind counts
    feed ``search.accept_ratio``."""

    def hook(rec, args, result, exc, token):
        rec.counts["mc.checks"] += 1
        rec.counts[f"mc.{kind}_calls"] += 1
        rec.counts["mc.states_relabeled"] += args[0].relabel_count - token
        if exc is None and not result.ok:
            rec.counts["mc.violations"] += 1
            rec.counts[f"mc.{kind}_violations"] += 1

    return hook


def _mc_note(rec, args, result, exc, token):
    rec.counts["mc.states_relabeled"] += args[0].relabel_count - token


_SEARCH_COUNTERS = (
    "model_checks",
    "counterexamples",
    "backtracks",
    "pruned_visited",
    "pruned_wrong",
    "loops_rejected",
)


def _search(rec, args, result, exc, token):
    stats = result.stats if exc is None else getattr(exc, "stats", None)
    if stats is None:
        return
    for name in _SEARCH_COUNTERS:
        rec.counts[f"search.{name}"] += getattr(stats, name)


def _pattern_count(args):
    return len(args[0])


def _pruning_add(rec, args, result, exc, token):
    rec.counts["pruning.patterns"] += len(args[0]) - token


def _ordering_units(args):
    return args[0].num_units


def _ordering_add(rec, args, result, exc, token):
    rec.counts["ordering.constraints"] += 1
    rec.counts["ordering.units"] += args[0].num_units - token


def _sat_counters(args):
    solver = args[0]
    return solver.conflicts, solver.decisions, solver.propagations


def _sat_solve(rec, args, result, exc, token):
    solver = args[0]
    rec.counts["sat.solves"] += 1
    rec.counts["sat.conflicts"] += solver.conflicts - token[0]
    rec.counts["sat.decisions"] += solver.decisions - token[1]
    rec.counts["sat.propagations"] += solver.propagations - token[2]
    if exc is None and not result:
        rec.counts["sat.unsat"] += 1


def _waits(rec, args, result, exc, token):
    if exc is None:
        rec.counts["waits.before"] += args[2].num_waits()
        rec.counts["waits.after"] += result.num_waits()


def _memo_lookup(rec, args, result, exc, token):
    rec.counts["memo.probes"] += 1
    if result is not None:
        rec.counts["memo.hits"] += 1
        if not result.ok:
            rec.counts["memo.checks_skipped"] += 1


def _memo_replay(rec, args, result, exc, token):
    if result is not None:
        rec.counts["memo.checks_skipped"] += 1


#: (owner, attribute, layer metric of its self time or None, before, after)
EntryPoint = Tuple[Any, str, Optional[str], Optional[Callable], Optional[Callable]]


def _entry_points() -> List[EntryPoint]:
    from repro.kripke.structure import KripkeStructure
    from repro.mc.incremental import IncrementalChecker
    from repro.net import serialize
    from repro.perf.memo import SharedVerdictMemo, VerdictMemo
    from repro.sat.solver import SatSolver
    from repro.service import cache, engine, jobs
    from repro.synthesis import synthesizer
    from repro.synthesis.ordering import OrderingConstraints
    from repro.synthesis.pruning import WrongConfigs

    points: List[EntryPoint] = [
        (KripkeStructure, "__init__", "kripke.build_s", None, _count("kripke.builds")),
        (KripkeStructure, "update_switch", "kripke.update_s", None, _kripke_update),
        (KripkeStructure, "update_class_rules", "kripke.update_s", None, _kripke_update),
        (KripkeStructure, "reachable_switches", "kripke.reach_s", None, _count("kripke.reach_calls")),
        (IncrementalChecker, "full_check", "mc.check_s", _relabels, _mc_check("full_check")),
        (IncrementalChecker, "apply_update", "mc.check_s", _relabels, _mc_check("apply_update")),
        (IncrementalChecker, "note_states", "mc.check_s", _relabels, _mc_note),
        # the synthesizer looks both functions up in its own module globals
        (synthesizer, "order_update", "search.self_s", None, _search),
        (synthesizer, "remove_waits", "waits.s", None, _waits),
        (WrongConfigs, "matches", "pruning.match_s", None, _count("pruning.matches")),
        (WrongConfigs, "add", "pruning.match_s", _pattern_count, _pruning_add),
        (OrderingConstraints, "add_counterexample", "ordering.s", _ordering_units, _ordering_add),
        (OrderingConstraints, "feasible", "ordering.s", None, None),
        (SatSolver, "solve", "sat.solve_s", _sat_counters, _sat_solve),
        (SatSolver, "add_clause", None, None, _count("sat.clauses")),
        (VerdictMemo, "lookup", "memo.s", None, _memo_lookup),
        (VerdictMemo, "record", "memo.s", None, None),
        (VerdictMemo, "find_refuting_trace", "memo.s", None, _memo_replay),
        (SharedVerdictMemo, "memo_for", "memo.s", None, None),
        (engine.SynthesisService, "submit", "service.self_s", None, None),
        (engine.SynthesisService, "submit_delta", "service.self_s", None, None),
        (engine.SynthesisService, "result", "service.self_s", None, None),
        (jobs, "problem_fingerprint", "service.fingerprint_s", None, None),
        (engine, "scope_fingerprint", "service.fingerprint_s", None, None),
    ]
    # the engine and the plan cache bind the serializers at import; the
    # worker entry point imports plan_to_dict from its module on each call
    for owner, name in (
        (engine, "problem_to_dict"),
        (engine, "problem_from_dict"),
        (engine, "plan_from_dict"),
        (cache, "plan_to_dict"),
        (cache, "plan_from_dict"),
        (serialize, "plan_to_dict"),
    ):
        points.append((owner, name, "service.serialize_s", None, None))
    return points


def _span_name(owner: Any, attr: str) -> str:
    return f"{getattr(owner, '__name__', owner)}.{attr}"


def _wrap(rec: Recorder, span: Optional[str], fn: Callable, before, after) -> Callable:
    if span is None:  # counted only

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(rec, args, result, None, None)
            return result

        return counted

    open_span, close_span = rec.open, rec.close

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        token = before(args) if before is not None else None
        index = open_span(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            close_span(index)
            if after is not None:
                after(rec, args, None, exc, token)
            raise
        close_span(index)
        if after is not None:
            after(rec, args, result, None, token)
        return result

    return timed


class Instrumentation:
    """Installs the wrappers for one recorder; :meth:`remove` restores."""

    def __init__(self, rec: Recorder) -> None:
        #: span name -> layer metric its self time adds to
        self.layer_of: Dict[str, str] = {}
        self._saved: List[Tuple[Any, str, Any]] = []
        for owner, attr, metric, before, after in _entry_points():
            original = getattr(owner, attr)
            name = _span_name(owner, attr)
            if metric is not None:
                self.layer_of[name] = metric
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(rec, name if metric else None, original, before, after))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
