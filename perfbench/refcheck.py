"""Independent check of the synthesizer's outputs.

A plan passes when its last configuration equals the problem's final one
and no packet can violate the specification while the plan runs:

* every configuration the plan steps through, built afresh as a
  ``KripkeStructure``, satisfies the specification under the reference LTL
  semantics (``ltl.semantics.evaluate`` on every ``maximal_paths`` path),
  not under the labeling model checker being measured;
* between two waits a plan keeps, packets are in flight while several
  updates take effect.  Such a packet sees, at each hop, the configuration
  of that moment, and moments only move forward.  Every such mixed path of
  every run of updates between kept waits must satisfy the specification
  too, so a wait that wait removal wrongly dropped fails the check.

Commands are applied here, by whole tables, and mixed paths are walked
with ``net.config.next_hops``, so the check shares no update code with
the search.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

#: more paths than this in one configuration or one run of updates leaves
#: the check incomplete, which counts as a failed check
PATH_LIMIT = 100000


class _Failed(Exception):
    pass


def plan_digest(plan: Any) -> str:
    """Content hash of a plan's command sequence."""
    from repro.net.serialize import plan_to_dict

    data = plan_to_dict(plan)
    text = json.dumps([data["granularity"], data["commands"]], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _apply(config: Any, command: Any) -> Any:
    from repro.kripke.structure import rule_covers_class
    from repro.net.commands import RuleGranUpdate
    from repro.net.rules import Table

    if isinstance(command, RuleGranUpdate):
        kept = [r for r in config.table(command.switch) if not rule_covers_class(r, command.tc)]
        new = [r for r in command.table if rule_covers_class(r, command.tc)]
        return config.with_table(command.switch, Table(tuple(kept) + tuple(new)))
    return config.with_table(command.switch, command.table)


def _check_config(problem: Any, config: Any, step: int) -> None:
    from repro.kripke.structure import KripkeStructure
    from repro.ltl.semantics import evaluate

    structure = KripkeStructure(problem.topology, config, problem.ingresses)
    paths = structure.maximal_paths(PATH_LIMIT)
    if len(paths) >= PATH_LIMIT:
        raise _Failed(f"check incomplete: more than {PATH_LIMIT} paths after update {step}")
    for path in paths:
        if not evaluate(problem.spec, path):
            raise _Failed(f"configuration after update {step} violates the specification")


def _successors(problem: Any, config: Any, state: Any) -> Tuple[Any, ...]:
    """Where a packet at ``state`` goes next under ``config``."""
    from repro.kripke.structure import KState
    from repro.net.config import next_hops

    hops = next_hops(problem.topology, config, state.node, state.tc, state.port)
    if not hops:
        return (KState("drop", state.node, state.port, state.tc),)
    return tuple(
        KState("host", node, None, state.tc)
        if problem.topology.is_host(node)
        else KState("loc", node, port, state.tc)
        for node, port, _tc in hops
    )


def _check_window(
    problem: Any, configs: List[Any], changed: Dict[Any, List[int]], first_step: int
) -> None:
    """Walk every path a packet can take while ``configs`` take effect one
    after another with no wait between them.

    ``changed[switch]`` lists the indices into ``configs`` at which that
    switch's table changed; a packet at a switch at index ``i`` can meet the
    table of index ``i`` or of any later change.
    """
    from bisect import bisect_right

    from repro.kripke.structure import KState
    from repro.ltl.semantics import evaluate

    succ_cache: Dict[Tuple[Any, int], Tuple[Any, ...]] = {}

    def options(state: Any, index: int) -> Dict[Any, int]:
        """Next state -> the earliest index at which it can be taken."""
        marks = changed.get(state.node, [])
        first = bisect_right(marks, index)
        candidates = [marks[first - 1] if first else 0] + marks[first:]
        out: Dict[Any, int] = {}
        for mark in candidates:
            key = (state, mark)
            succ = succ_cache.get(key)
            if succ is None:
                succ = succ_cache[key] = _successors(problem, configs[mark], state)
            for nxt in succ:
                out.setdefault(nxt, max(mark, index))
        return out

    paths = 0
    path: List[Any] = []
    on_path = set()

    def walk(state: Any, index: int) -> None:
        nonlocal paths
        path.append(state)
        on_path.add(state)
        if state.is_sink:
            paths += 1
            if paths >= PATH_LIMIT:
                raise _Failed(f"check incomplete: more than {PATH_LIMIT} in-flight paths")
            if not evaluate(problem.spec, path):
                raise _Failed(
                    f"a packet in flight across updates {first_step}-"
                    f"{first_step + len(configs) - 2} violates the specification"
                )
        else:
            for nxt, at in options(state, index).items():
                if nxt in on_path:
                    raise _Failed(
                        f"a packet in flight across updates {first_step}-"
                        f"{first_step + len(configs) - 2} can loop at {nxt}"
                    )
                walk(nxt, at)
        on_path.discard(state)
        path.pop()

    for tc, hosts in problem.ingresses.items():
        for host in hosts:
            switch, port = problem.topology.attachment(host)
            walk(KState("loc", switch, port, tc), 0)


def check_plan(problem: Any, plan: Any) -> Optional[str]:
    """``None`` if ``plan`` is a correct update of ``problem``, else why not."""
    from repro.errors import ForwardingLoopError
    from repro.net.commands import Wait, is_update

    config = problem.init
    configs = [config]
    changed: Dict[Any, List[int]] = {}
    step = 0
    # walk() recurses once per hop: a packet crosses ~500 switches of a
    # 1000-switch ring diamond, more on a mixed path
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        for command in list(plan.commands) + [Wait()]:
            if isinstance(command, Wait):
                # with one update since the last wait no wait was dropped
                if len(configs) > 2:
                    _check_window(problem, configs, changed, step - len(configs) + 2)
                configs, changed = [config], {}
            elif is_update(command):
                step += 1
                config = _apply(config, command)
                _check_config(problem, config, step)
                changed.setdefault(command.switch, []).append(len(configs))
                configs.append(config)
        if config != problem.final:
            return "the last configuration differs from the problem's final one"
    except ForwardingLoopError as exc:
        return f"forwarding loop: {exc}"
    except _Failed as exc:
        return str(exc)
    finally:
        sys.setrecursionlimit(limit)
    return None


def cold_plan(problem: Any, granularity: str, timeout: float) -> Any:
    """The plan a cold synthesis of ``problem`` produces: no shared memo, no
    warm start (``None`` when infeasible)."""
    from repro.errors import UpdateInfeasibleError
    from repro.synthesis import UpdateSynthesizer

    try:
        return UpdateSynthesizer(problem.topology, granularity=granularity).synthesize(
            problem.init, problem.final, problem.spec, problem.ingresses, timeout=timeout
        )
    except UpdateInfeasibleError:
        return None
