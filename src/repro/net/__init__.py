"""Vehicular-network substrate: topology, contents, channels, queues, routing."""

from repro.net.cache import LruContentCache, MBSContentStore
from repro.net.channel import (
    ConstantCostModel,
    CostModel,
    DistanceCostModel,
    FadingCostModel,
)
from repro.net.content import ContentCatalog, ContentDescriptor, zipf_popularity
from repro.net.queueing import BacklogQueue
from repro.net.requests import (
    ArrivalProcess,
    BernoulliArrivals,
    DeterministicArrivals,
    PoissonArrivals,
    Request,
    RequestGenerator,
)
from repro.net.controller import NetworkController, SessionResult
from repro.net.model import TOPOLOGY_KINDS, NetworkModel, Route, build_network_graph
from repro.net.topology import MacroBaseStation, Region, RoadTopology, RSU
from repro.net.view import NetworkView

__all__ = [
    "LruContentCache",
    "MBSContentStore",
    "NetworkController",
    "NetworkModel",
    "NetworkView",
    "Route",
    "SessionResult",
    "TOPOLOGY_KINDS",
    "build_network_graph",
    "ConstantCostModel",
    "CostModel",
    "DistanceCostModel",
    "FadingCostModel",
    "ContentCatalog",
    "ContentDescriptor",
    "zipf_popularity",
    "BacklogQueue",
    "ArrivalProcess",
    "BernoulliArrivals",
    "DeterministicArrivals",
    "PoissonArrivals",
    "Request",
    "RequestGenerator",
    "MacroBaseStation",
    "Region",
    "RoadTopology",
    "RSU",
]
