"""Tests for topology generators, the GML parser, and diamond scenarios."""

import random

import pytest

from repro.errors import ParseError
from repro.net.topology import Topology
from repro.topo import (
    builtin_zoo,
    chained_diamond,
    diamond_on_topology,
    double_diamond,
    fat_tree,
    mini_datacenter,
    parse_gml,
    ring_diamond,
    small_world,
    synthetic_zoo,
    to_gml,
    zoo_topology,
)


def connected(topo):
    nodes = sorted(topo.switches)
    if not nodes:
        return True
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        node = stack.pop()
        for nxt in topo.neighbors(node):
            if topo.is_switch(nxt) and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen == set(nodes)


class TestFatTree:
    def test_switch_count(self):
        # 5k^2/4 switches
        assert len(fat_tree(4).switches) == 20
        assert len(fat_tree(6).switches) == 45

    def test_hosts(self):
        topo = fat_tree(4, with_hosts=True)
        assert len(topo.hosts) == 16  # k^3/4

    def test_connected(self):
        assert connected(fat_tree(4))

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            fat_tree(3)

    def test_mini_datacenter_shape(self):
        topo = mini_datacenter()
        assert len(topo.switches) == 10
        assert len(topo.hosts) == 4
        assert topo.are_adjacent("C1", "A1")


class TestSmallWorld:
    def test_size_and_connectivity(self):
        topo = small_world(40, seed=1)
        assert len(topo.switches) == 40
        assert connected(topo)

    def test_ring_backbone_kept(self):
        topo = small_world(20, rewire_probability=1.0, seed=2)
        for i in range(20):
            assert topo.are_adjacent(f"S{i}", f"S{(i + 1) % 20}")

    def test_deterministic(self):
        a = small_world(30, seed=5)
        b = small_world(30, seed=5)
        assert {(link.node_a, link.node_b) for link in a.links} == {
            (link.node_a, link.node_b) for link in b.links
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            small_world(2)
        with pytest.raises(ValueError):
            small_world(10, k=3)


class TestGml:
    GML = """
    graph [
      node [ id 0 label "A" ]
      node [ id 1 label "B" ]
      node [ id 2 label "C" ]
      edge [ source 0 target 1 ]
      edge [ source 1 target 2 ]
      edge [ source 1 target 2 ]
      edge [ source 2 target 2 ]
    ]
    """

    def test_parse_nodes_and_edges(self):
        topo = parse_gml(self.GML)
        assert topo.switches == frozenset({"A", "B", "C"})
        # duplicate edge and self-loop skipped
        assert len(topo.links) == 2

    def test_duplicate_labels_disambiguated(self):
        text = """
        graph [
          node [ id 0 label "X" ]
          node [ id 1 label "X" ]
          edge [ source 0 target 1 ]
        ]
        """
        topo = parse_gml(text)
        assert len(topo.switches) == 2

    def test_unlabeled_nodes(self):
        text = 'graph [ node [ id 7 ] node [ id 8 ] edge [ source 7 target 8 ] ]'
        topo = parse_gml(text)
        assert "n7" in topo.switches

    def test_bad_gml(self):
        with pytest.raises(ParseError):
            parse_gml("graph [ node [ id ] ]")
        with pytest.raises(ParseError):
            parse_gml("not gml at all [")

    def test_undeclared_edge_endpoints_materialized(self):
        # real zoo files sometimes reference ids with no node record;
        # the parser materializes implicit n<id> switches instead of failing
        topo = parse_gml("graph [ edge [ source 0 target 1 ] ]")
        assert topo.switches == frozenset({"n0", "n1"})
        assert topo.are_adjacent("n0", "n1")

    def test_zoo_quirks_tolerated(self):
        # directed/multigraph flags, duplicate ids, numeric labels
        text = """
        graph [
          directed 1
          multigraph 1
          node [ id 0 label "A" ]
          node [ id 0 label "Azz" ]
          node [ id 1 label 42 ]
          edge [ source 0 target 1 ]
          edge [ source 1 target 0 ]
        ]
        """
        topo = parse_gml(text)
        assert topo.switches == frozenset({"A", "42"})
        assert len(topo.links) == 1

    def test_to_gml_round_trip(self):
        topo = parse_gml(self.GML)
        again = parse_gml(to_gml(topo, name="roundtrip"))
        assert again.switches == topo.switches
        for link in topo.links:
            assert again.are_adjacent(link.node_a, link.node_b)

    def test_fuzzed_round_trip(self):
        # random graphs (with gnarly names) survive to_gml -> parse_gml
        rng = random.Random(7)
        for trial in range(25):
            topo = Topology()
            n = rng.randint(2, 12)
            # no spaces (the parser normalizes them), but quotes and dots
            names = [f'sw"{i}".t{trial}' for i in range(n)]
            for name in names:
                topo.add_switch(name)
            edges = set()
            for _ in range(rng.randint(1, 2 * n)):
                a, b = rng.sample(names, 2)
                if frozenset((a, b)) not in edges:
                    edges.add(frozenset((a, b)))
                    topo.add_link(a, b)
            again = parse_gml(to_gml(topo))
            assert again.switches == set(names)
            adjacency = {
                frozenset((link.node_a, link.node_b)) for link in again.links
            }
            assert adjacency == edges


class TestZoo:
    def test_builtin_topologies_connected(self):
        for name, topo in builtin_zoo():
            assert connected(topo), name
            assert len(topo.switches) >= 10

    def test_lookup_by_name(self):
        topo = zoo_topology("abilene")
        assert "SEA" in topo.switches

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            zoo_topology("nope")

    def test_synthetic_zoo_deterministic_and_connected(self):
        zoo_a = synthetic_zoo(6, seed=3)
        zoo_b = synthetic_zoo(6, seed=3)
        for (name_a, topo_a), (name_b, topo_b) in zip(zoo_a, zoo_b):
            assert name_a == name_b
            assert connected(topo_a)
            assert len(topo_a.links) == len(topo_b.links)


class TestDiamonds:
    def test_ring_diamond_scenario(self):
        sc = ring_diamond(20, seed=1)
        assert sc.units_updating() >= 18
        assert sc.init != sc.final
        assert len(sc.classes) == 1

    def test_diamond_on_topology(self):
        sc = diamond_on_topology(fat_tree(4), seed=1, name="ft")
        assert sc is not None
        assert sc.units_updating() >= 2

    def test_chained_diamond_props(self):
        for prop in ("reachability", "waypoint", "chain"):
            sc = chained_diamond(2, 2, prop=prop)
            assert sc.prop == prop
            # 2 segments x 2 chains x 2 switches + shared waypoint flips
            assert sc.units_updating() >= 8

    def test_chained_diamond_bad_args(self):
        with pytest.raises(ValueError):
            chained_diamond(0, 1)

    def test_double_diamond_two_classes(self):
        sc = double_diamond(12)
        assert len(sc.classes) == 2
        assert not sc.expected_feasible
