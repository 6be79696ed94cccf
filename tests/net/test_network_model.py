"""Tests for the graph-backed network core (model, view, controller)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError, ValidationError
from repro.net.channel import ConstantCostModel, DistanceCostModel
from repro.net.controller import NetworkController
from repro.net.model import (
    TOPOLOGY_KINDS,
    NetworkModel,
    build_network_graph,
    deterministic_shortest_paths,
)
from repro.net.topology import RoadTopology
from repro.net.view import NetworkView

nx = pytest.importorskip("networkx")


def make_topology(num_rsus: int = 4, regions_per_rsu: int = 3) -> RoadTopology:
    return RoadTopology(num_rsus * regions_per_rsu, num_rsus)


class TestBuildNetworkGraph:
    def test_star_wires_every_rsu_to_origin(self):
        topology = make_topology(4)
        graph = build_network_graph(topology, kind="star")
        origin = topology.num_rsus
        assert sorted(graph.nodes) == [0, 1, 2, 3, origin]
        assert sorted(graph.edges) == [(k, origin) for k in range(4)]
        assert graph.nodes[origin]["role"] == "origin"

    def test_line_is_a_chain_with_one_gateway(self):
        topology = make_topology(4)
        graph = build_network_graph(topology, kind="line")
        origin = topology.num_rsus
        chain = [(k, k + 1) for k in range(3)]
        gateways = [
            (u, v) for u, v in graph.edges if origin in (u, v)
        ]
        assert len(gateways) == 1
        for edge in chain:
            assert graph.has_edge(*edge)
        assert graph.number_of_edges() == len(chain) + 1

    def test_ring_closes_the_chain(self):
        topology = make_topology(4)
        graph = build_network_graph(topology, kind="ring")
        assert graph.has_edge(0, 3)

    def test_edge_delays_positive(self):
        graph = build_network_graph(make_topology(3), kind="line")
        for _, _, data in graph.edges(data=True):
            assert data["delay"] > 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            build_network_graph(make_topology(3), kind="mesh")


class TestNetworkModel:
    def test_default_capacity_matches_coverage(self):
        topology = make_topology(4, regions_per_rsu=3)
        model = NetworkModel(topology)
        assert model.cache_capacity == 3
        assert list(model.cache_nodes()) == [0, 1, 2, 3]
        assert not model.has_cache(model.origin)

    def test_kinds_enumerated(self):
        assert TOPOLOGY_KINDS == ("star", "line", "ring")
        for kind in TOPOLOGY_KINDS:
            model = NetworkModel(make_topology(3), kind=kind)
            assert model.kind == kind

    def test_paths_end_at_origin(self):
        model = NetworkModel(make_topology(4), kind="line")
        for node in range(4):
            path = model.shortest_path(node, model.origin)
            assert path[0] == node
            assert path[-1] == model.origin

    def test_path_delay_accumulates_edges(self):
        model = NetworkModel(make_topology(4), kind="line")
        path = model.shortest_path(0, model.origin)
        total = sum(
            model.edge_delay(path[i], path[i + 1]) for i in range(len(path) - 1)
        )
        assert model.path_delay(0, model.origin) == pytest.approx(total)

    def test_missing_edge_rejected(self):
        model = NetworkModel(make_topology(4), kind="star")
        with pytest.raises(ValidationError):
            model.edge_delay(0, 1)

    def test_star_betweenness_peaks_at_origin(self):
        model = NetworkModel(make_topology(4), kind="star")
        origin = model.origin
        assert model.betweenness(origin) >= max(
            model.betweenness(k) for k in range(4)
        )


class TestDeterministicShortestPaths:
    @settings(max_examples=25, deadline=None)
    @given(
        num_rsus=st.integers(min_value=2, max_value=7),
        kind=st.sampled_from(TOPOLOGY_KINDS),
        permutation_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_invariant_under_node_order_permutation(
        self, num_rsus, kind, permutation_seed
    ):
        """Routing is a pure function of the graph, not its insertion order."""
        import random

        graph = build_network_graph(make_topology(num_rsus), kind=kind)
        shuffled = nx.Graph()
        nodes = list(graph.nodes(data=True))
        edges = list(graph.edges(data=True))
        shuffler = random.Random(permutation_seed)
        shuffler.shuffle(nodes)
        shuffler.shuffle(edges)
        shuffled.add_nodes_from(nodes)
        shuffled.add_edges_from(edges)
        paths_a, delays_a = deterministic_shortest_paths(graph)
        paths_b, delays_b = deterministic_shortest_paths(shuffled)
        assert paths_a == paths_b
        assert delays_a == delays_b

    def test_paths_are_contiguous_graph_walks(self):
        graph = build_network_graph(make_topology(6), kind="ring")
        paths, delays = deterministic_shortest_paths(graph)
        for source, targets in paths.items():
            for target, path in targets.items():
                assert path[0] == source and path[-1] == target
                for u, v in zip(path, path[1:]):
                    assert graph.has_edge(u, v)
                total = sum(
                    graph.edges[u, v]["delay"] for u, v in zip(path, path[1:])
                )
                assert delays[source][target] == pytest.approx(total)


def hop_by_hop(graph, path, index):
    """Latency of walking *path* up to ``path[index]``, and of walking back
    down too, summed link by link in travel order."""
    latency = 0.0
    for u, v in zip(path[:index], path[1:index + 1]):
        latency += float(graph.edges[u, v]["delay"])
    request = latency
    for u, v in reversed(list(zip(path[:index], path[1:index + 1]))):
        latency += float(graph.edges[v, u]["delay"])
    return request, latency


class TestCompiledRoutes:
    @settings(max_examples=40, deadline=None)
    @given(
        num_rsus=st.integers(min_value=1, max_value=9),
        regions_per_rsu=st.integers(min_value=1, max_value=4),
        kind=st.sampled_from(TOPOLOGY_KINDS),
        base=st.floats(min_value=0.05, max_value=5.0),
        slope=st.floats(min_value=0.0, max_value=0.01),
        hop_delay=st.floats(min_value=0.01, max_value=3.0),
    )
    def test_routes_match_the_hop_by_hop_walk(
        self, num_rsus, regions_per_rsu, kind, base, slope, hop_delay
    ):
        model = NetworkModel(
            make_topology(num_rsus, regions_per_rsu),
            kind=kind,
            cost_model=DistanceCostModel(base=base, slope=slope),
            hop_delay=hop_delay,
        )
        graph = model.graph
        for u, v, delay in graph.edges(data="delay"):
            assert model.edge_delay(u, v) == model.edge_delay(v, u) == delay
        for receiver in range(num_rsus):
            route = model.route(receiver)
            path = model.shortest_path(receiver, model.origin)
            assert route.nodes == path
            assert route.caches == tuple(
                model.cache(node) if model.has_cache(node) else None
                for node in path
            )
            for index in range(len(path) + 1):
                held = [node for node in path[:index] if model.has_cache(node)]
                assert route.cache_counts[index] == len(held)
                assert route.capacity_sums[index] == sum(
                    model.cache(node).capacity for node in held
                )
            for index in range(len(path)):
                request, round_trip = hop_by_hop(graph, path, index)
                assert route.request_latency[index].hex() == request.hex()
                assert route.round_trip[index].hex() == round_trip.hex()

    def test_origin_is_not_a_receiver(self):
        model = NetworkModel(make_topology(3))
        with pytest.raises(ValidationError):
            model.route(model.origin)


class TestRingWrapLink:
    """The wrap link is priced at its road distance (the whole chain)."""

    @staticmethod
    def routes(kind, cost_model, num_rsus):
        view = NetworkView(
            NetworkModel(make_topology(num_rsus), kind=kind, cost_model=cost_model)
        )
        return [view.route(r).nodes for r in range(num_rsus)]

    @pytest.mark.parametrize("num_rsus", [3, 4, 5, 8, 16])
    def test_distance_costs_route_ring_like_line(self, num_rsus):
        ring = self.routes("ring", DistanceCostModel(), num_rsus)
        assert ring == self.routes("line", DistanceCostModel(), num_rsus)

    @pytest.mark.parametrize("num_rsus", [4, 8, 16])
    def test_constant_costs_route_across_the_wrap_link(self, num_rsus):
        wrap = {0, num_rsus - 1}
        crossings = [
            nodes
            for nodes in self.routes("ring", ConstantCostModel(1.0), num_rsus)
            if any({u, v} == wrap for u, v in zip(nodes, nodes[1:]))
        ]
        assert crossings


class TestNetworkController:
    def make(self, kind="line"):
        model = NetworkModel(make_topology(4), kind=kind)
        return model, NetworkView(model), NetworkController(model)

    def test_origin_always_serves(self):
        model, view, controller = self.make()
        path = view.shortest_path(0, model.origin)
        route = view.route(0)
        assert route.nodes == path
        controller.start_session(0, 0, 0)
        index = controller.find_content(route)
        assert index == len(path) - 1
        controller.forward_request_path(route, index)
        result = controller.end_session()
        assert not result.hit
        assert result.serving_node == model.origin
        assert result.hops == len(path) - 1
        assert result.path == path
        assert result.latency == route.request_latency[-1]

    def test_round_trip_accounting(self):
        model, view, controller = self.make()
        route = view.route(0)
        middle = len(route.nodes) // 2
        model.cache(route.nodes[middle]).put(7, age=2.0)
        controller.start_session(0, 0, 7)
        assert controller.find_content(route) == middle
        controller.forward_request_path(route, middle)
        controller.forward_content_path()
        controller.put_content(0)
        result = controller.end_session()
        assert result.hit and result.served_age == 2.0
        assert result.hops == 2 * middle
        assert result.latency == route.round_trip[middle]
        assert result.path == route.nodes[: middle + 1]
        assert model.cache(0).age_of(7) == 2.0

    def test_forwarding_is_checked(self):
        model, view, controller = self.make()
        controller.start_session(0, 1, 0)
        with pytest.raises(SimulationError):
            controller.forward_content_path()  # nothing forwarded yet
        with pytest.raises(SimulationError):
            controller.forward_request_path(view.route(0), 0)  # wrong receiver
        controller.forward_request_path(view.route(1), 1)
        with pytest.raises(SimulationError):
            controller.forward_request_path(view.route(1), 1)
        controller.forward_content_path()
        with pytest.raises(SimulationError):
            controller.forward_content_path()

    def test_cache_hit_accounting(self):
        model, view, controller = self.make()
        model.cache(2).put(7, age=1.0)
        controller.start_session(0, 2, 7)
        assert controller.find_content(view.route(2)) == 0
        result = controller.end_session()
        assert result.hit and result.hops == 0 and result.latency == 0.0

    def test_stale_copy_is_not_served(self):
        model, view, controller = self.make()
        model.cache(1).put(3, age=9.0)
        controller.start_session(0, 1, 3, max_age=5.0)
        route = view.route(1)
        assert controller.find_content(route) == len(route.nodes) - 1
        assert not controller.end_session().hit

    def test_double_start_rejected(self):
        _, _, controller = self.make()
        controller.start_session(0, 0, 0)
        with pytest.raises(SimulationError):
            controller.start_session(0, 1, 1)

    def test_tick_ages_every_cache(self):
        model, _, controller = self.make()
        model.cache(0).put(1, age=1.0)
        model.cache(3).put(2, age=4.0)
        controller.tick(2)
        assert model.cache(0).age_of(1) == pytest.approx(3.0)
        assert model.cache(3).age_of(2) == pytest.approx(6.0)
