"""JSON (de)serialization: topologies, configurations, problems, plans.

Defines the on-disk *problem file* format consumed by the command-line tool
(:mod:`repro.cli`): a single JSON document carrying the topology, the
traffic classes with their ingress hosts, the initial and final
configurations, and the LTL specification (in the concrete syntax of
:mod:`repro.ltl.parser`).

Example problem file::

    {
      "topology": {
        "switches": ["T1", "A1"],
        "hosts": ["H1"],
        "links": [["H1", "T1"], ["T1", "A1"]]
      },
      "classes": [
        {"name": "f", "fields": {"src": "H1", "dst": "H3"}, "ingress": ["H1"]}
      ],
      "init":  {"T1": [{"priority": 100, "match": {"dst": "H3"}, "actions": [{"fwd": 2}]}]},
      "final": {"T1": [{"priority": 100, "match": {"dst": "H3"}, "actions": [{"fwd": 3}]}]},
      "spec": "dst=H3 => F at(H3)"
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import ParseError
from repro.ltl.parser import parse
from repro.ltl.syntax import Formula
from repro.net.commands import Command, RuleGranUpdate, SwitchUpdate, Wait
from repro.net.config import Configuration
from repro.net.fields import TrafficClass
from repro.net.rules import Action, Forward, Pattern, Rule, SetField, Table
from repro.net.topology import NodeId, Topology
from repro.synthesis.plan import UpdatePlan


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
def topology_to_dict(topology: Topology) -> Dict[str, Any]:
    return {
        "switches": sorted(topology.switches),
        "hosts": sorted(topology.hosts),
        "links": [
            [link.node_a, link.node_b, link.port_a, link.port_b]
            for link in topology.links
        ],
    }


def topology_from_dict(data: Mapping[str, Any]) -> Topology:
    topology = Topology()
    for switch in data.get("switches", []):
        topology.add_switch(switch)
    for host in data.get("hosts", []):
        topology.add_host(host)
    for entry in data.get("links", []):
        if len(entry) == 2:
            a, b = entry
            topology.add_link(a, b)
        elif len(entry) == 4:
            a, b, pa, pb = entry
            topology.add_link(a, b, port_a=pa, port_b=pb)
        else:
            raise ParseError(f"bad link entry {entry!r}")
    return topology


# ----------------------------------------------------------------------
# rules / configurations
# ----------------------------------------------------------------------
def _action_to_dict(action: Action) -> Dict[str, Any]:
    if isinstance(action, Forward):
        return {"fwd": action.port}
    if isinstance(action, SetField):
        return {"set": [action.field, action.value]}
    raise ParseError(f"unserializable action {action!r}")


def _action_from_dict(data: Mapping[str, Any]) -> Action:
    if "fwd" in data:
        return Forward(int(data["fwd"]))
    if "set" in data:
        field, value = data["set"]
        return SetField(str(field), str(value))
    raise ParseError(f"bad action entry {dict(data)!r}")


def rule_to_dict(rule: Rule) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "priority": rule.priority,
        "match": dict(rule.pattern.fields),
        "actions": [_action_to_dict(a) for a in rule.actions],
    }
    if rule.pattern.in_port is not None:
        out["in_port"] = rule.pattern.in_port
    return out


def rule_from_dict(data: Mapping[str, Any]) -> Rule:
    pattern = Pattern(
        data.get("in_port"),
        tuple(sorted((str(k), str(v)) for k, v in data.get("match", {}).items())),
    )
    actions = tuple(_action_from_dict(a) for a in data.get("actions", []))
    return Rule(int(data.get("priority", 0)), pattern, actions)


def config_to_dict(config: Configuration) -> Dict[str, List[Dict[str, Any]]]:
    return {
        switch: [rule_to_dict(r) for r in config.table(switch)]
        for switch in sorted(config.switches())
    }


def config_from_dict(data: Mapping[str, Sequence[Mapping[str, Any]]]) -> Configuration:
    return Configuration(
        {switch: Table(rule_from_dict(r) for r in rules) for switch, rules in data.items()}
    )


# ----------------------------------------------------------------------
# problems
# ----------------------------------------------------------------------
@dataclass
class Problem:
    """A complete synthesis problem, as read from a problem file."""

    topology: Topology
    ingresses: Dict[TrafficClass, List[NodeId]]
    init: Configuration
    final: Configuration
    spec: Formula
    spec_text: str

    @property
    def classes(self) -> List[TrafficClass]:
        return list(self.ingresses)


def problem_to_dict(problem: Problem) -> Dict[str, Any]:
    return {
        "topology": topology_to_dict(problem.topology),
        "classes": [
            {
                "name": tc.name,
                "fields": tc.field_map(),
                "ingress": list(hosts),
            }
            for tc, hosts in problem.ingresses.items()
        ],
        "init": config_to_dict(problem.init),
        "final": config_to_dict(problem.final),
        "spec": problem.spec_text,
    }


def problem_from_dict(data: Mapping[str, Any]) -> Problem:
    topology = topology_from_dict(data["topology"])
    ingresses: Dict[TrafficClass, List[NodeId]] = {}
    for entry in data.get("classes", []):
        tc = TrafficClass(
            str(entry["name"]),
            tuple(sorted((str(k), str(v)) for k, v in entry.get("fields", {}).items())),
        )
        ingresses[tc] = [str(h) for h in entry.get("ingress", [])]
    spec_text = data.get("spec", "true")
    return Problem(
        topology=topology,
        ingresses=ingresses,
        init=config_from_dict(data.get("init", {})),
        final=config_from_dict(data.get("final", {})),
        spec=parse(spec_text),
        spec_text=spec_text,
    )


def load_problem(path: str) -> Problem:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as err:
            raise ParseError(f"{path}: bad JSON: {err}") from err
    try:
        return problem_from_dict(data)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise ParseError(f"{path}: bad problem document: {err!r}") from err


def save_problem(problem: Problem, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(problem_to_dict(problem), handle, indent=2)
        handle.write("\n")


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
def command_to_dict(command: Command) -> Dict[str, Any]:
    if isinstance(command, SwitchUpdate):
        return {
            "op": "update",
            "switch": command.switch,
            "table": [rule_to_dict(r) for r in command.table],
        }
    if isinstance(command, RuleGranUpdate):
        return {
            "op": "update-class",
            "switch": command.switch,
            "class": command.tc.name,
            "table": [rule_to_dict(r) for r in command.table],
        }
    if isinstance(command, Wait):
        return {"op": "wait"}
    raise ParseError(f"unserializable command {command!r}")


def plan_to_dict(plan: UpdatePlan) -> Dict[str, Any]:
    return {
        "granularity": plan.granularity,
        "commands": [command_to_dict(c) for c in plan.commands],
        "stats": {
            "model_checks": plan.stats.model_checks,
            "counterexamples": plan.stats.counterexamples,
            "pruned_visited": plan.stats.pruned_visited,
            "pruned_wrong": plan.stats.pruned_wrong,
            "loops_rejected": plan.stats.loops_rejected,
            "backtracks": plan.stats.backtracks,
            "sat_terminated": plan.stats.sat_terminated,
            "waits_before_removal": plan.stats.waits_before_removal,
            "waits_after_removal": plan.stats.waits_after_removal,
            "wait_removal_seconds": plan.stats.wait_removal_seconds,
            "synthesis_seconds": plan.stats.synthesis_seconds,
            "memo_probes": plan.stats.memo_probes,
            "memo_hits": plan.stats.memo_hits,
            "memo_pruned": plan.stats.memo_pruned,
            "warm_units": plan.stats.warm_units,
            "warm_hits": plan.stats.warm_hits,
            "labeling_seconds": plan.stats.labeling_seconds,
            "sat_seconds": plan.stats.sat_seconds,
            "memo_seconds": plan.stats.memo_seconds,
        },
    }


def unit_order_to_wire(order: Sequence[Any]) -> List[Any]:
    """A search-unit order as a JSON-safe list.

    Switch-granularity units (plain node ids) pass through as strings;
    rule-granularity units (``(switch, class_name)`` tuples) become
    two-element lists.  Inverse: :func:`unit_order_from_wire`.
    """
    wire: List[Any] = []
    for unit in order:
        if isinstance(unit, tuple):
            wire.append([str(unit[0]), str(unit[1])])
        else:
            wire.append(str(unit))
    return wire


def unit_order_from_wire(data: Sequence[Any]) -> List[Any]:
    """Inverse of :func:`unit_order_to_wire` (lists back to unit tuples)."""
    order: List[Any] = []
    for entry in data:
        if isinstance(entry, str):
            order.append(entry)
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            order.append((str(entry[0]), str(entry[1])))
        else:
            raise ParseError(f"bad warm-order unit {entry!r}")
    return order


def command_from_dict(
    data: Mapping[str, Any],
    classes: Optional[Mapping[str, TrafficClass]] = None,
) -> Command:
    """Inverse of :func:`command_to_dict`.

    ``classes`` maps traffic-class names to :class:`TrafficClass` objects for
    rehydrating rule-granularity commands; unknown names fall back to a
    field-less class of the same name.
    """
    op = data.get("op")
    if op == "wait":
        return Wait()
    if op in ("update", "update-class"):
        table = Table(rule_from_dict(r) for r in data.get("table", []))
        switch = str(data["switch"])
        if op == "update":
            return SwitchUpdate(switch, table)
        name = str(data["class"])
        tc = (classes or {}).get(name, TrafficClass(name))
        return RuleGranUpdate(switch, tc, table)
    raise ParseError(f"bad command entry {dict(data)!r}")


def plan_from_dict(
    data: Mapping[str, Any],
    classes: Optional[Mapping[str, TrafficClass]] = None,
) -> UpdatePlan:
    """Inverse of :func:`plan_to_dict` (used by the service plan cache)."""
    plan = UpdatePlan(
        [command_from_dict(c, classes) for c in data.get("commands", [])],
        granularity=str(data.get("granularity", "switch")),
    )
    stats = data.get("stats", {})
    plan.stats.model_checks = int(stats.get("model_checks", 0))
    plan.stats.counterexamples = int(stats.get("counterexamples", 0))
    plan.stats.pruned_visited = int(stats.get("pruned_visited", 0))
    plan.stats.pruned_wrong = int(stats.get("pruned_wrong", 0))
    plan.stats.loops_rejected = int(stats.get("loops_rejected", 0))
    plan.stats.backtracks = int(stats.get("backtracks", 0))
    plan.stats.sat_terminated = bool(stats.get("sat_terminated", False))
    plan.stats.waits_before_removal = int(stats.get("waits_before_removal", 0))
    plan.stats.waits_after_removal = int(stats.get("waits_after_removal", 0))
    plan.stats.wait_removal_seconds = float(stats.get("wait_removal_seconds", 0.0))
    plan.stats.synthesis_seconds = float(stats.get("synthesis_seconds", 0.0))
    plan.stats.memo_probes = int(stats.get("memo_probes", 0))
    plan.stats.memo_hits = int(stats.get("memo_hits", 0))
    plan.stats.memo_pruned = int(stats.get("memo_pruned", 0))
    plan.stats.warm_units = int(stats.get("warm_units", 0))
    plan.stats.warm_hits = int(stats.get("warm_hits", 0))
    plan.stats.labeling_seconds = float(stats.get("labeling_seconds", 0.0))
    plan.stats.sat_seconds = float(stats.get("sat_seconds", 0.0))
    plan.stats.memo_seconds = float(stats.get("memo_seconds", 0.0))
    return plan
