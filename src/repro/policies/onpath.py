"""On-path caching strategies for the multi-hop network core.

Ports the Icarus on-path strategy family (``icarus/models/strategy/
onpath.py``) onto this library's NetworkView/NetworkController split: a
request enters at its receiver RSU, walks its compiled
:class:`~repro.net.model.Route` toward the content origin until a node
holds a fresh-enough copy, and the strategy decides — per node on the
delivery path — where to leave copies:

* ``lce`` — Leave Copy Everywhere: every cache on the delivery path.
* ``lcd`` — Leave Copy Down: only the cache one hop below the serving node,
  so copies migrate toward requesters one level per hit.
* ``probcache`` — ProbCache: probabilistic insertion weighted by the
  remaining cache capacity on the path and the content's progress along it
  (``t_tw`` is the cache-weighting time window).
* ``partition`` — hash-partitioned placement: each content has one
  designated cache node and is only ever cached there.
* ``cl4m`` — Cache Less for More: only the highest-betweenness cache on
  the delivery path.
* ``edge`` — the degenerate baseline: cache only at the receiver.  On a
  star topology this reproduces the paper's single-RSU caching model
  exactly (pinned by the golden equivalence tests).

Strategies are registered under ``role="onpath"`` so ``simulate()``,
``ExperimentSpec``, ``run_grid``, the run store, and the CLI accept them
through the existing ``name:k=v`` grammar with zero new entry points.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.net.controller import NetworkController, SessionResult
from repro.net.model import Route
from repro.net.view import NetworkView
from repro.policies.registry import register_policy
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_positive

__all__ = [
    "CacheLessForMore",
    "EdgeCaching",
    "LeaveCopyDown",
    "LeaveCopyEverywhere",
    "OnPathStrategy",
    "PartitionedCaching",
    "ProbCache",
]


class OnPathStrategy:
    """Base class: route a request on-path, let a hook pick cache placements.

    A strategy instance is built unattached (by the policy registry, from
    the scenario alone) and bound to a concrete network by the multihop
    simulator via :meth:`attach` before any request is processed.
    """

    #: Registry name, used as the policy label in results.
    name = "onpath"

    def __init__(self) -> None:
        self._view: Optional[NetworkView] = None
        self._controller: Optional[NetworkController] = None

    def attach(self, view: NetworkView, controller: NetworkController) -> None:
        """Bind this strategy to a network's view and controller."""
        self._view = view
        self._controller = controller

    @property
    def view(self) -> NetworkView:
        """The read-only network view (requires :meth:`attach`)."""
        if self._view is None:
            raise SimulationError(
                f"{type(self).__name__} is not attached to a network"
            )
        return self._view

    @property
    def controller(self) -> NetworkController:
        """The network controller (requires :meth:`attach`)."""
        if self._controller is None:
            raise SimulationError(
                f"{type(self).__name__} is not attached to a network"
            )
        return self._controller

    # ------------------------------------------------------------------
    # Request processing
    # ------------------------------------------------------------------
    def process_request(
        self,
        time_slot: int,
        receiver: int,
        content_id: int,
        *,
        max_age: Optional[float] = None,
    ) -> SessionResult:
        """Route one request and return the controller's accounting."""
        route, serving_index = self._route(time_slot, receiver, content_id, max_age)
        self._deliver(route, serving_index)
        return self.controller.end_session()

    def _route(
        self,
        time_slot: int,
        receiver: int,
        content_id: int,
        max_age: Optional[float],
    ) -> Tuple[Route, int]:
        """Walk the request toward the origin until some node serves it."""
        route = self.view.route(receiver)
        controller = self.controller
        controller.start_session(time_slot, receiver, content_id, max_age=max_age)
        serving_index = controller.find_content(route)
        controller.forward_request_path(route, serving_index)
        return route, serving_index

    def _deliver(self, route: Route, serving_index: int) -> None:
        """Carry the content back to the receiver, placing copies en route."""
        controller = self.controller
        controller.forward_content_path()
        caches = route.caches
        for index in range(serving_index - 1, -1, -1):
            if caches[index] is not None and self.should_cache(
                route, serving_index, index
            ):
                controller.put_content(route.nodes[index])

    def should_cache(self, route: Route, serving_index: int, node_index: int) -> bool:
        """Whether to leave a copy at ``route.nodes[node_index]`` on delivery.

        Called once per cache-capable node, in content travel order (from
        just below the serving node down to the receiver).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"{type(self).__name__}()"


class LeaveCopyEverywhere(OnPathStrategy):
    """Cache the content at every node on the delivery path."""

    name = "lce"

    def should_cache(self, route, serving_index, node_index) -> bool:
        return True


class LeaveCopyDown(OnPathStrategy):
    """Cache only one hop below the serving node (copies migrate per hit)."""

    name = "lcd"

    def should_cache(self, route, serving_index, node_index) -> bool:
        return node_index == serving_index - 1


class EdgeCaching(OnPathStrategy):
    """Cache only at the receiver — the single-RSU degenerate baseline."""

    name = "edge"

    def should_cache(self, route, serving_index, node_index) -> bool:
        return node_index == 0


class CacheLessForMore(OnPathStrategy):
    """Cache only at the highest-betweenness node on the delivery path."""

    name = "cl4m"

    def __init__(self) -> None:
        super().__init__()
        self._target: int = -1

    def _target_index(self, route: Route, serving_index: int) -> int:
        view = self.view
        best_index = -1
        best_score = -1.0
        # Scan from the receiver up so ties pick the node closest to it.
        for index in range(serving_index):
            if route.caches[index] is None:
                continue
            score = view.betweenness(route.nodes[index])
            if score > best_score:
                best_score = score
                best_index = index
        return best_index

    def _route(self, time_slot, receiver, content_id, max_age):
        route, serving_index = super()._route(time_slot, receiver, content_id, max_age)
        self._target = self._target_index(route, serving_index)
        return route, serving_index

    def should_cache(self, route, serving_index, node_index) -> bool:
        return node_index == self._target


class PartitionedCaching(OnPathStrategy):
    """Cache each content only at its hash-designated partition node."""

    name = "partition"

    def __init__(self) -> None:
        super().__init__()
        self._designated: Optional[int] = None

    def designated_node(self, content_id: int) -> int:
        """The one cache node allowed to hold *content_id*."""
        cache_nodes = self.view.cache_nodes()
        return cache_nodes[int(content_id) % len(cache_nodes)]

    def should_cache(self, route, serving_index, node_index) -> bool:
        return route.nodes[node_index] == self._designated

    def _route(self, time_slot, receiver, content_id, max_age):
        self._designated = self.designated_node(content_id)
        return super()._route(time_slot, receiver, content_id, max_age)


class ProbCache(OnPathStrategy):
    """ProbCache: capacity- and progress-weighted probabilistic insertion.

    At each delivery-path node ``v``, the content is cached with
    probability ``N / (t_tw * c_v) * (x / c) ** c`` where ``N`` is the
    total cache capacity from ``v`` toward the receiver, ``c_v`` is the
    capacity of ``v``, ``c`` is the delivery path length in hops, and
    ``x`` counts the caches the content has already passed — the
    "TimesIn" weighting of Psaras et al., as ported by Icarus.
    """

    name = "probcache"

    def __init__(self, *, t_tw: float = 10.0, rng: RandomSource = None) -> None:
        super().__init__()
        self._t_tw = check_positive(t_tw, "t_tw")
        self._rng = ensure_rng(rng)

    @property
    def t_tw(self) -> float:
        """The cache-weighting time window."""
        return self._t_tw

    def should_cache(self, route, serving_index, node_index) -> bool:
        hops = serving_index  # delivery path length in hops
        if hops == 0:
            return False
        # Caches the content has passed so far (serving side, exclusive,
        # down to and including this node).
        passed = route.cache_counts[serving_index] - route.cache_counts[node_index]
        # Remaining capacity from here toward the receiver (inclusive).
        remaining = float(route.capacity_sums[node_index + 1])
        capacity = float(route.caches[node_index].capacity)
        probability = (
            remaining / (self._t_tw * capacity) * (passed / hops) ** hops
        )
        return bool(self._rng.random() < probability)


# ----------------------------------------------------------------------
# Registry builders
# ----------------------------------------------------------------------
def _strategy_rng(scenario, rng: Optional[int], *, salt: int):
    """Deterministic per-strategy RNG from the scenario seed (same scheme
    as the stochastic baselines in :mod:`repro.policies.builtin`)."""
    if rng is not None:
        return int(rng)
    if scenario.seed is None:
        return None
    return np.random.SeedSequence([int(salt), int(scenario.seed)])


@register_policy("lce", role="onpath")
def build_lce_strategy(scenario) -> LeaveCopyEverywhere:
    """Leave Copy Everywhere: cache at every node on the delivery path."""
    return LeaveCopyEverywhere()


@register_policy("lcd", role="onpath")
def build_lcd_strategy(scenario) -> LeaveCopyDown:
    """Leave Copy Down: cache one hop below the serving node per hit."""
    return LeaveCopyDown()


@register_policy("probcache", role="onpath")
def build_probcache_strategy(
    scenario,
    *,
    t_tw: float = 10.0,
    rng: Optional[int] = None,
) -> ProbCache:
    """ProbCache: capacity-weighted probabilistic on-path insertion."""
    return ProbCache(t_tw=t_tw, rng=_strategy_rng(scenario, rng, salt=331))


@register_policy("partition", role="onpath")
def build_partition_strategy(scenario) -> PartitionedCaching:
    """Hash-partitioned placement: one designated cache node per content."""
    return PartitionedCaching()


@register_policy("cl4m", role="onpath")
def build_cl4m_strategy(scenario) -> CacheLessForMore:
    """Cache Less for More: cache at the max-betweenness on-path node."""
    return CacheLessForMore()


@register_policy("edge", role="onpath")
def build_edge_strategy(scenario) -> EdgeCaching:
    """Edge caching: cache only at the receiver (single-RSU baseline)."""
    return EdgeCaching()
