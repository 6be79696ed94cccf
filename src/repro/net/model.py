"""Graph-backed network model for the multi-hop scenario kind.

The paper's system treats every RSU as an island: a cache miss is served by
the MBS over an implicit backhaul link.  This module generalises that into
an explicit network: the :class:`~repro.net.topology.RoadTopology` becomes a
networkx graph whose nodes are the RSUs plus one *origin* node (the MBS,
which always holds a fresh copy of every content), whose edge delays come
from the channel cost models in :mod:`repro.net.channel`, and whose RSU
nodes carry bounded :class:`~repro.net.cache.LruContentCache` instances that
on-path strategies populate as content travels delivery paths.

Routing is precomputed: all-pairs shortest paths via a Dijkstra variant
with full lexicographic tie-breaking, so the chosen paths are a pure
function of the weighted graph — independent of node or edge insertion
order (pinned by hypothesis property tests).  Each receiver's path to the
origin is then compiled into a :class:`Route` of index tables, so routing
a request walks tuples and never touches the networkx graph.

Following Icarus, the model itself is mechanism-only.  Strategies see it
through a read-only :class:`~repro.net.view.NetworkView` and act on it
through a :class:`~repro.net.controller.NetworkController`.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, ValidationError
from repro.net.cache import LruContentCache
from repro.net.channel import ConstantCostModel, CostModel
from repro.net.topology import RoadTopology
from repro.utils.validation import check_positive, check_positive_int

if TYPE_CHECKING:  # networkx is imported on first use; see _require_networkx
    import networkx as nx

#: Graph shapes the road topology can be wired into.
TOPOLOGY_KINDS = ("star", "line", "ring")


def _require_networkx():
    """Import networkx on first use, so ``import repro`` never loads it."""
    try:
        import networkx
    except ImportError:
        raise ConfigurationError(
            "the multihop network core requires networkx; install it to use "
            "topology_kind/multihop scenarios"
        ) from None
    return networkx


def build_network_graph(
    topology: RoadTopology,
    *,
    kind: str = "star",
    cost_model: Optional[CostModel] = None,
    hop_delay: float = 1.0,
) -> "nx.Graph":
    """Wire *topology* into a weighted graph of the requested *kind*.

    Nodes ``0..num_rsus-1`` are the RSUs (at their road positions); node
    ``num_rsus`` is the origin (the MBS).  ``star`` connects every RSU
    directly to the origin (the paper's implicit backhaul); ``line`` chains
    neighbouring RSUs and attaches the RSU closest to the MBS as the
    gateway; ``ring`` additionally closes the chain.  Each edge carries a
    ``delay`` attribute: ``hop_delay`` times the cost model's per-transfer
    cost at the link's geometric distance (size 1, slot 0).

    The ring's wrap link (RSU 0 to RSU ``num_rsus - 1``) is priced like
    every other link, at its geometric road distance, which spans the
    whole chain.  So under distance costs no route to the origin uses it
    and ``ring`` routes exactly like ``line``.  Under constant costs every
    link costs the same, and the wrap link carries a route wherever it
    ties the chain: with an even number of RSUs the far-end RSU reaches
    the gateway in the same number of hops either way, and the
    deterministic tie-break sends it across the wrap link.
    """
    nx = _require_networkx()
    if kind not in TOPOLOGY_KINDS:
        raise ValidationError(
            f"unknown topology kind {kind!r}; expected one of {TOPOLOGY_KINDS}"
        )
    hop_delay = check_positive(hop_delay, "hop_delay")
    if cost_model is None:
        cost_model = ConstantCostModel(1.0)
    num_rsus = topology.num_rsus
    origin = num_rsus
    graph = nx.Graph()
    for k in range(num_rsus):
        graph.add_node(k, position=topology.rsu(k).position, role="rsu")
    graph.add_node(origin, position=topology.mbs.position, role="origin")

    def _delay(u: int, v: int) -> float:
        distance = abs(graph.nodes[u]["position"] - graph.nodes[v]["position"])
        return hop_delay * float(
            cost_model.cost(distance=distance, size=1.0, time_slot=0)
        )

    edges: List[Tuple[int, int]] = []
    if kind == "star":
        edges.extend((k, origin) for k in range(num_rsus))
    else:
        edges.extend((k, k + 1) for k in range(num_rsus - 1))
        if kind == "ring" and num_rsus > 2:
            edges.append((0, num_rsus - 1))
        # The RSU nearest the MBS is the gateway to the origin.
        gateway = min(
            range(num_rsus), key=lambda k: (topology.mbs_distance(k), k)
        )
        edges.append((gateway, origin))
    for u, v in edges:
        graph.add_edge(u, v, delay=_delay(u, v))
    return graph


def deterministic_shortest_paths(
    graph: "nx.Graph",
) -> Tuple[Dict[int, Dict[int, Tuple[int, ...]]], Dict[int, Dict[int, float]]]:
    """All-pairs shortest paths with insertion-order-independent tie-breaking.

    Plain Dijkstra leaves equal-delay path choice to heap/adjacency
    iteration order, which varies with how the graph was built.  This
    variant always iterates nodes and neighbours in sorted order and, on
    exact delay ties, prefers the smaller predecessor id — so the returned
    paths depend only on the (nodes, edges, delays) set.
    """
    paths: Dict[int, Dict[int, Tuple[int, ...]]] = {}
    delays: Dict[int, Dict[int, float]] = {}
    nodes = sorted(graph.nodes)
    for source in nodes:
        dist: Dict[int, float] = {source: 0.0}
        pred: Dict[int, Optional[int]] = {source: None}
        done: set = set()
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v in sorted(graph.neighbors(u)):
                if v in done:
                    continue
                nd = d + float(graph.edges[u, v]["delay"])
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    pred[v] = u
                    heapq.heappush(heap, (nd, v))
                elif nd == dist[v] and u < pred[v]:
                    pred[v] = u
        source_paths: Dict[int, Tuple[int, ...]] = {}
        for target in nodes:
            if target not in dist:
                continue
            hops: List[int] = []
            node: Optional[int] = target
            while node is not None:
                hops.append(node)
                node = pred[node]
            source_paths[target] = tuple(reversed(hops))
        paths[source] = source_paths
        delays[source] = dict(dist)
    return paths, delays


class Route:
    """One receiver's compiled route to the origin, as index tables.

    Every table is indexed by position on the route: ``0`` is the
    receiver and ``len(nodes) - 1`` the origin.

    Attributes
    ----------
    nodes:
        The routed node sequence, receiver first.
    caches:
        The cache at each node, ``None`` at the origin.
    cache_counts:
        ``cache_counts[i]`` caches among ``nodes[:i]`` (``len(nodes) + 1``
        entries).
    capacity_sums:
        ``capacity_sums[i]`` total cache capacity of ``nodes[:i]``.
    request_latency:
        Latency of a request that climbed to ``nodes[i]`` and stopped.
    round_trip:
        Latency of a request served at ``nodes[i]``: the request leg up,
        then the delivery leg back down.  Each entry is summed hop by hop
        in that order, so it equals the float sum of walking the links.
    """

    __slots__ = (
        "nodes",
        "caches",
        "cache_counts",
        "capacity_sums",
        "request_latency",
        "round_trip",
    )

    def __init__(
        self,
        nodes: Tuple[int, ...],
        caches: Tuple[Optional[LruContentCache], ...],
        delays: Sequence[float],
    ) -> None:
        self.nodes = nodes
        self.caches = caches
        counts = [0]
        capacities = [0]
        for cache in caches:
            held = cache is not None
            counts.append(counts[-1] + held)
            capacities.append(capacities[-1] + (cache.capacity if held else 0))
        self.cache_counts = tuple(counts)
        self.capacity_sums = tuple(capacities)
        request_latency = [0.0]
        for delay in delays:
            request_latency.append(request_latency[-1] + delay)
        self.request_latency = tuple(request_latency)
        round_trip = []
        for index, latency in enumerate(request_latency):
            for delay in reversed(delays[:index]):
                latency += delay
            round_trip.append(latency)
        self.round_trip = tuple(round_trip)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"Route({self.nodes!r})"


class NetworkModel:
    """The shared network substrate: graph, routes, and per-node caches.

    Parameters
    ----------
    topology:
        The road topology providing RSU/MBS geometry.
    kind:
        Graph shape, one of :data:`TOPOLOGY_KINDS`.
    cost_model:
        Channel cost model mapping link distance to per-hop delay
        (defaults to a unit :class:`~repro.net.channel.ConstantCostModel`).
    cache_capacity:
        Copies each RSU node can hold; defaults to the topology's
        ``regions_per_rsu`` (the legacy fixed cache size).
    hop_delay:
        Scale factor applied to every link delay.
    """

    def __init__(
        self,
        topology: RoadTopology,
        *,
        kind: str = "star",
        cost_model: Optional[CostModel] = None,
        cache_capacity: Optional[int] = None,
        hop_delay: float = 1.0,
    ) -> None:
        _require_networkx()
        self._topology = topology
        self._kind = kind
        self._origin = topology.num_rsus
        self._graph = build_network_graph(
            topology, kind=kind, cost_model=cost_model, hop_delay=hop_delay
        )
        self._paths, self._delays = deterministic_shortest_paths(self._graph)
        self._edge_delays: Dict[Tuple[int, int], float] = {}
        for u, v, delay in self._graph.edges(data="delay"):
            self._edge_delays[u, v] = self._edge_delays[v, u] = float(delay)
        if cache_capacity is None:
            cache_capacity = topology.regions_per_rsu
        cache_capacity = check_positive_int(cache_capacity, "cache_capacity")
        self._cache_capacity = cache_capacity
        self._caches: Dict[int, LruContentCache] = {
            k: LruContentCache(cache_capacity) for k in range(topology.num_rsus)
        }
        self._cache_nodes = tuple(sorted(self._caches))
        self._betweenness = self._path_betweenness()
        self._routes: Dict[int, Route] = {
            k: self._compile_route(k) for k in range(topology.num_rsus)
        }

    def _compile_route(self, receiver: int) -> Route:
        nodes = self.shortest_path(receiver, self._origin)
        return Route(
            nodes,
            tuple(self._caches.get(node) for node in nodes),
            [self._edge_delays[u, v] for u, v in zip(nodes, nodes[1:])],
        )

    def _path_betweenness(self) -> Dict[int, float]:
        """Betweenness over the routed paths (not all shortest paths).

        CL4M ranks candidate caches by how many routed source→target pairs
        flow *through* them, so the counts are taken over exactly the paths
        the controller will use.
        """
        counts = {node: 0.0 for node in self._graph.nodes}
        for source, targets in self._paths.items():
            for target, path in targets.items():
                if source == target:
                    continue
                for node in path[1:-1]:
                    counts[node] += 1.0
        return counts

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def topology(self) -> RoadTopology:
        """The underlying road topology."""
        return self._topology

    @property
    def kind(self) -> str:
        """Graph shape this model was wired as."""
        return self._kind

    @property
    def graph(self) -> "nx.Graph":
        """The wired networkx graph (treat as read-only)."""
        return self._graph

    @property
    def origin(self) -> int:
        """Node id of the origin (the MBS) — always holds fresh copies."""
        return self._origin

    @property
    def cache_capacity(self) -> int:
        """Copies each RSU node can hold."""
        return self._cache_capacity

    def nodes(self) -> List[int]:
        """All node ids in sorted order."""
        return sorted(self._graph.nodes)

    def cache_nodes(self) -> List[int]:
        """Node ids that carry a cache (every RSU node)."""
        return list(self._cache_nodes)

    def has_cache(self, node: int) -> bool:
        """Whether *node* carries a cache."""
        return node in self._caches

    def cache(self, node: int) -> LruContentCache:
        """The cache at *node* (raises for the origin)."""
        if node not in self._caches:
            raise ValidationError(f"node {node} has no cache")
        return self._caches[node]

    def betweenness(self, node: int) -> float:
        """Routed-path betweenness count of *node*."""
        return self._betweenness[node]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shortest_path(self, source: int, target: int) -> Tuple[int, ...]:
        """The precomputed route from *source* to *target* (inclusive)."""
        try:
            return self._paths[source][target]
        except KeyError:
            raise ValidationError(
                f"no route from node {source} to node {target}"
            ) from None

    def route(self, receiver: int) -> Route:
        """The compiled route from RSU *receiver* to the origin.

        The origin is every content's source, so this is the path every
        request entering at *receiver* takes.
        """
        try:
            return self._routes[receiver]
        except KeyError:
            raise ValidationError(f"node {receiver} is not a receiver") from None

    def path_delay(self, source: int, target: int) -> float:
        """Total delay along the routed *source*→*target* path."""
        try:
            return self._delays[source][target]
        except KeyError:
            raise ValidationError(
                f"no route from node {source} to node {target}"
            ) from None

    def edge_delay(self, u: int, v: int) -> float:
        """Delay of the direct link between *u* and *v*."""
        try:
            return self._edge_delays[u, v]
        except KeyError:
            raise ValidationError(f"nodes {u} and {v} are not adjacent") from None

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"NetworkModel(kind={self._kind!r}, num_rsus={self._topology.num_rsus}, "
            f"cache_capacity={self._cache_capacity})"
        )
