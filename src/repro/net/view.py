"""Read-only view of the network model, handed to on-path strategies.

Mirrors Icarus's ``NetworkView``: strategies may inspect topology, routes,
delays, and cache contents, but every mutation (forwarding, cache
insertion/eviction, latency accounting) must go through the
:class:`~repro.net.controller.NetworkController`.  Keeping the split strict
is what makes strategy implementations small and auditable.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.net.model import NetworkModel, Route


class NetworkView:
    """Immutable window onto a :class:`~repro.net.model.NetworkModel`."""

    def __init__(self, model: NetworkModel) -> None:
        self._model = model

    # ------------------------------------------------------------------
    # Topology and routing
    # ------------------------------------------------------------------
    @property
    def topology_kind(self) -> str:
        """Graph shape of the underlying network."""
        return self._model.kind

    @property
    def origin(self) -> int:
        """Node id of the origin (always fresh)."""
        return self._model.origin

    def nodes(self) -> List[int]:
        """All node ids in sorted order."""
        return self._model.nodes()

    def shortest_path(self, source: int, target: int) -> Tuple[int, ...]:
        """The precomputed route from *source* to *target* (inclusive)."""
        return self._model.shortest_path(source, target)

    def route(self, receiver: int) -> Route:
        """The compiled route from RSU *receiver* to the origin (the
        source of every content); pass it to the controller to forward."""
        return self._model.route(receiver)

    def path_delay(self, source: int, target: int) -> float:
        """Total delay along the routed *source*→*target* path."""
        return self._model.path_delay(source, target)

    def betweenness(self, node: int) -> float:
        """Routed-path betweenness count of *node*."""
        return self._model.betweenness(node)

    # ------------------------------------------------------------------
    # Cache inspection (peek only — never promotes or mutates)
    # ------------------------------------------------------------------
    def cache_nodes(self) -> List[int]:
        """Node ids that carry a cache."""
        return self._model.cache_nodes()

    def has_cache(self, node: int) -> bool:
        """Whether *node* carries a cache."""
        return self._model.has_cache(node)

    def cache_capacity(self, node: int) -> int:
        """Capacity of the cache at *node*."""
        return self._model.cache(node).capacity

    def cache_has(self, node: int, content_id: int) -> bool:
        """Whether *node* holds a copy of *content_id* (no LRU promotion)."""
        if not self._model.has_cache(node):
            return False
        return self._model.cache(node).has(content_id)

    def cache_age(self, node: int, content_id: int) -> Optional[float]:
        """Age of the copy of *content_id* at *node*, or ``None`` if absent."""
        if not self.cache_has(node, content_id):
            return None
        return self._model.cache(node).age_of(content_id)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"NetworkView({self._model!r})"
