"""Tests for repro.net.requests (workload generation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, ValidationError
from repro.net.content import ContentCatalog
from repro.net.requests import (
    BernoulliArrivals,
    DeterministicArrivals,
    PoissonArrivals,
    Request,
    RequestGenerator,
)
from repro.net.topology import RoadTopology


@pytest.fixture
def topology():
    return RoadTopology(6, 2)


@pytest.fixture
def catalog():
    return ContentCatalog.uniform(6, max_age=8.0)


class TestRequest:
    def test_valid_request(self):
        request = Request(request_id=0, time_slot=3, rsu_id=1, content_id=4)
        assert request.deadline is None

    def test_deadline_before_issue_rejected(self):
        with pytest.raises(ValidationError):
            Request(request_id=0, time_slot=5, rsu_id=0, content_id=0, deadline=4)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValidationError):
            Request(request_id=0, time_slot=-1, rsu_id=0, content_id=0)
        with pytest.raises(ValidationError):
            Request(request_id=0, time_slot=0, rsu_id=-1, content_id=0)
        with pytest.raises(ValidationError):
            Request(request_id=0, time_slot=0, rsu_id=0, content_id=-1)


class TestArrivalProcesses:
    def test_bernoulli_mean(self):
        assert BernoulliArrivals(0.3).mean == 0.3

    def test_bernoulli_samples_binary(self, rng):
        process = BernoulliArrivals(0.5)
        samples = {process.sample(rng) for _ in range(50)}
        assert samples.issubset({0, 1})

    def test_bernoulli_extremes(self, rng):
        assert BernoulliArrivals(0.0).sample(rng) == 0
        assert BernoulliArrivals(1.0).sample(rng) == 1

    def test_bernoulli_rate_validated(self):
        with pytest.raises(ValidationError):
            BernoulliArrivals(1.5)

    def test_poisson_mean_approx(self, rng):
        process = PoissonArrivals(2.0)
        samples = [process.sample(rng) for _ in range(2000)]
        assert np.mean(samples) == pytest.approx(2.0, abs=0.2)

    def test_poisson_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            PoissonArrivals(-1.0)

    def test_deterministic_count(self, rng):
        process = DeterministicArrivals(3)
        assert process.sample(rng) == 3
        assert process.mean == 3.0

    def test_deterministic_negative_rejected(self):
        with pytest.raises(ValidationError):
            DeterministicArrivals(-1)


class TestRequestGenerator:
    def test_catalog_topology_size_mismatch_rejected(self, topology):
        with pytest.raises(ConfigurationError):
            RequestGenerator(topology, ContentCatalog.uniform(5))

    def test_requests_target_local_contents(self, topology, catalog):
        generator = RequestGenerator(
            topology, catalog, arrivals=DeterministicArrivals(2), rng=0
        )
        for request in generator.generate_trace(20):
            assert request.content_id in topology.rsu(request.rsu_id).covered_regions

    def test_request_ids_unique(self, topology, catalog):
        generator = RequestGenerator(
            topology, catalog, arrivals=DeterministicArrivals(2), rng=0
        )
        trace = generator.generate_trace(30)
        ids = [r.request_id for r in trace]
        assert len(ids) == len(set(ids))

    def test_trace_is_time_ordered(self, topology, catalog):
        generator = RequestGenerator(
            topology, catalog, arrivals=DeterministicArrivals(1), rng=0
        )
        trace = generator.generate_trace(15)
        slots = [r.time_slot for r in trace]
        assert slots == sorted(slots)

    def test_deadline_slots_applied(self, topology, catalog):
        generator = RequestGenerator(
            topology, catalog, arrivals=DeterministicArrivals(1), rng=0
        )
        trace = generator.generate_trace(5, deadline_slots=3)
        assert all(r.deadline == r.time_slot + 3 for r in trace)

    def test_zero_arrivals_yield_empty_slot(self, topology, catalog):
        generator = RequestGenerator(
            topology, catalog, arrivals=BernoulliArrivals(0.0), rng=0
        )
        assert generator.generate_slot(0) == []

    def test_content_population_is_distribution(self, topology, catalog):
        generator = RequestGenerator(topology, catalog, rng=0)
        for rsu in topology.rsus:
            population = generator.content_population(rsu.rsu_id)
            assert set(population) == set(rsu.covered_regions)
            assert sum(population.values()) == pytest.approx(1.0)

    def test_zipf_exponent_skews_local_popularity(self, topology, catalog):
        generator = RequestGenerator(topology, catalog, zipf_exponent=1.5, rng=0)
        popularity = generator.content_population(0)
        assert popularity[min(popularity)] > popularity[max(popularity)]

    def test_unknown_rsu_rejected(self, topology, catalog):
        generator = RequestGenerator(topology, catalog, rng=0)
        with pytest.raises(ValidationError):
            generator.content_population(99)

    def test_deterministic_given_seed(self, topology, catalog):
        def run(seed):
            generator = RequestGenerator(
                topology, catalog, arrivals=BernoulliArrivals(0.7), rng=seed
            )
            return [(r.rsu_id, r.content_id) for r in generator.generate_trace(40)]

        assert run(11) == run(11)

    def test_negative_time_slot_rejected(self, topology, catalog):
        generator = RequestGenerator(topology, catalog, rng=0)
        with pytest.raises(ValidationError):
            generator.generate_slot(-1)

    def test_empty_trace_length_rejected(self, topology, catalog):
        generator = RequestGenerator(topology, catalog, rng=0)
        with pytest.raises(ValidationError):
            generator.generate_trace(0)

    @given(rate=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_property_bernoulli_load_at_most_one_per_rsu_per_slot(self, rate):
        topology = RoadTopology(4, 2)
        catalog = ContentCatalog.uniform(4)
        generator = RequestGenerator(
            topology, catalog, arrivals=BernoulliArrivals(rate), rng=0
        )
        for t in range(10):
            requests = generator.generate_slot(t)
            per_rsu = {}
            for request in requests:
                per_rsu[request.rsu_id] = per_rsu.get(request.rsu_id, 0) + 1
            assert all(count <= 1 for count in per_rsu.values())
