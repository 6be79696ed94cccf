"""Network controller: the mutation interface over the network model.

Mirrors Icarus's ``NetworkController``: strategies open a *session* per
request, probe caches along the receiver's compiled
:class:`~repro.net.model.Route`, forward the request up that path and the
content back down it, and decide cache placements.  The controller owns
all accounting — latency, hop counts, the serving node, and the age the
served copy carries — so a strategy cannot mis-report its own performance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.exceptions import SimulationError
from repro.net.cache import LruContentCache
from repro.net.model import NetworkModel, Route


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one routed request.

    Attributes
    ----------
    time_slot:
        Slot the request was routed in.
    receiver:
        RSU node the request entered the network at.
    content_id:
        Requested content.
    serving_node:
        Node whose copy satisfied the request (the origin on a full miss).
    hit:
        Whether an RSU cache (not the origin) served the request.
    hops:
        Links traversed, counting both the request and delivery direction.
    latency:
        Sum of link delays over all traversed hops.
    path:
        Hop sequence walked by the request (receiver first), excluding the
        delivery direction.
    served_age:
        Age of the copy the receiver ends up with.
    """

    time_slot: int
    receiver: int
    content_id: int
    serving_node: int
    hit: bool
    hops: int
    latency: float
    path: Tuple[int, ...]
    served_age: float

    @property
    def mean_hop_latency(self) -> float:
        """Latency per traversed hop (0 for a local hit)."""
        if self.hops == 0:
            return 0.0
        return self.latency / self.hops


class _Session:
    __slots__ = (
        "time_slot",
        "receiver",
        "content_id",
        "max_age",
        "route",
        "request_index",
        "delivered",
        "serving_node",
        "serving_age",
    )

    def __init__(
        self, time_slot: int, receiver: int, content_id: int, max_age: Optional[float]
    ) -> None:
        self.time_slot = int(time_slot)
        self.receiver = int(receiver)
        self.content_id = int(content_id)
        self.max_age = None if max_age is None else float(max_age)
        # The route the request climbed, how far, and whether the content
        # came back down it.
        self.route: Optional[Route] = None
        self.request_index = 0
        self.delivered = False
        self.serving_node: Optional[int] = None
        self.serving_age: float = 1.0


class NetworkController:
    """Session-scoped mutation interface over a :class:`NetworkModel`."""

    def __init__(self, model: NetworkModel) -> None:
        self._model = model
        self._caches = {node: model.cache(node) for node in model.cache_nodes()}
        self._session: Optional[_Session] = None

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def start_session(
        self,
        time_slot: int,
        receiver: int,
        content_id: int,
        *,
        max_age: Optional[float] = None,
    ) -> None:
        """Open the session for one request entering at *receiver*.

        *max_age* is the content's freshness bound: cached copies older
        than it do not satisfy the request (the AoI constraint the paper's
        controllers enforce).  ``None`` accepts any cached copy.
        """
        if self._session is not None:
            raise SimulationError("a network session is already open")
        self._session = _Session(time_slot, receiver, content_id, max_age)

    def _require_session(self) -> _Session:
        if self._session is None:
            raise SimulationError("no network session is open")
        return self._session

    # ------------------------------------------------------------------
    # Content access and forwarding
    # ------------------------------------------------------------------
    def find_content(self, route: Route) -> int:
        """Probe *route*'s nodes receiver first, stopping at the first
        that serves.

        The origin at the route's end always serves (age 1).  An RSU serves
        when it holds the content within the session's freshness bound;
        probing a held copy promotes it in LRU order whether or not it is
        fresh enough.  Returns the serving node's index on the route.
        """
        session = self._require_session()
        nodes = route.nodes
        for index, cache in enumerate(route.caches):
            if cache is None:  # the origin
                session.serving_node = nodes[index]
                session.serving_age = 1.0
                return index
            if self._serve_from(session, nodes[index], cache):
                return index
        raise SimulationError(  # pragma: no cover - routes end at the origin
            f"route {nodes} does not reach the origin"
        )

    @staticmethod
    def _serve_from(session: _Session, node: int, cache: LruContentCache) -> bool:
        age = cache.lookup(session.content_id)
        if age is None:
            return False
        if session.max_age is not None and age > session.max_age:
            return False
        session.serving_node = int(node)
        session.serving_age = age
        return True

    def forward_request_path(self, route: Route, index: int) -> None:
        """Carry the request from the receiver up *route* to ``route.nodes[index]``."""
        session = self._require_session()
        if session.route is not None:
            raise SimulationError("the session's request was already forwarded")
        if route.nodes[0] != session.receiver:
            raise SimulationError(
                f"route {route.nodes} does not start at the session's "
                f"receiver {session.receiver}"
            )
        if not 0 <= index < len(route.nodes):
            raise SimulationError(f"index {index} is not on route {route.nodes}")
        session.route = route
        session.request_index = index

    def forward_content_path(self) -> None:
        """Carry the content from the request's last node back down its
        route to the receiver (the delivery leg)."""
        session = self._require_session()
        if session.route is None:
            raise SimulationError("no request was forwarded to deliver along")
        if session.delivered:
            raise SimulationError("the session's content was already delivered")
        session.delivered = True

    def put_content(self, node: int, *, age: Optional[float] = None) -> Optional[int]:
        """Place a copy of the session's content at *node*.

        The copy inherits the serving copy's age unless *age* overrides it.
        Returns the content id evicted to make room, or ``None``.  Placing
        at the origin is a no-op (it already holds everything fresh).
        """
        session = self._require_session()
        cache = self._caches.get(node)
        if cache is None:
            return None
        if age is None:
            age = session.serving_age
        return cache.put(session.content_id, age=age)

    def end_session(self) -> SessionResult:
        """Close the session and return its accounting.

        Hops and latency come from the route's tables: the request leg up
        to the forwarded index, plus the delivery leg back down when the
        content was forwarded too.
        """
        session = self._require_session()
        if session.serving_node is None:
            raise SimulationError(
                "network session ended before any node served the request"
            )
        self._session = None
        route = session.route
        if route is None:
            hops, latency, path = 0, 0.0, (session.receiver,)
        else:
            index = session.request_index
            path = route.nodes[: index + 1]
            if session.delivered:
                hops, latency = 2 * index, route.round_trip[index]
            else:
                hops, latency = index, route.request_latency[index]
        return SessionResult(
            time_slot=session.time_slot,
            receiver=session.receiver,
            content_id=session.content_id,
            serving_node=session.serving_node,
            hit=session.serving_node != self._model.origin,
            hops=hops,
            latency=latency,
            path=path,
            served_age=session.serving_age,
        )

    # ------------------------------------------------------------------
    # Slot maintenance
    # ------------------------------------------------------------------
    def tick(self, slots: int = 1) -> None:
        """Age every cached copy at every node by *slots* time slots."""
        for cache in self._caches.values():
            cache.tick(slots)

    def refresh_content(self, node: int, content_id: int, *, age: float = 1.0) -> None:
        """Refresh (or insert) a copy outside any session.

        This is the hook the paper's MDP cache-update controller uses in
        multihop mode: the MBS pushes a fresh version into an RSU cache
        between request sessions.
        """
        cache = self._caches.get(node)
        if cache is None:
            raise SimulationError(f"node {node} has no cache to refresh")
        cache.put(int(content_id), age=age)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"NetworkController({self._model!r})"
