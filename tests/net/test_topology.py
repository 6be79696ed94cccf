"""Tests for repro.net.topology (road, RSUs, MBS)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, ValidationError
from repro.net.topology import Region, RoadTopology, RSU


class TestRegion:
    def test_bad_interval_rejected(self):
        with pytest.raises(ValidationError):
            Region(region_id=0, start=10.0, end=10.0)

    def test_negative_id_rejected(self):
        with pytest.raises(ValidationError):
            Region(region_id=-1, start=0.0, end=1.0)


class TestRSU:
    def test_coverage_query(self):
        rsu = RSU(
            rsu_id=0,
            position=100.0,
            covered_regions=(0, 1),
            coverage_start=0.0,
            coverage_end=200.0,
        )
        assert rsu.covered_regions == (0, 1)
        assert (rsu.coverage_start, rsu.coverage_end) == (0.0, 200.0)

    def test_empty_coverage_rejected(self):
        with pytest.raises(ValidationError):
            RSU(
                rsu_id=0,
                position=0.0,
                covered_regions=(),
                coverage_start=0.0,
                coverage_end=1.0,
            )


class TestRoadTopology:
    def test_basic_dimensions(self):
        topology = RoadTopology(20, 4, region_length=50.0)
        assert topology.num_regions == 20
        assert topology.num_rsus == 4
        assert topology.regions_per_rsu == 5
        assert topology.road_length == 1000.0

    def test_indivisible_regions_rejected(self):
        with pytest.raises(ConfigurationError):
            RoadTopology(10, 3)

    def test_every_region_covered_exactly_once(self):
        topology = RoadTopology(12, 3)
        covered = [r for rsu in topology.rsus for r in rsu.covered_regions]
        assert sorted(covered) == list(range(12))

    def test_mbs_at_centre(self):
        topology = RoadTopology(10, 2, region_length=100.0)
        assert topology.mbs.position == 500.0
        assert topology.mbs.num_contents == 10

    def test_mbs_distances_symmetry(self):
        topology = RoadTopology(4, 2, region_length=100.0)
        distances = topology.mbs_distances()
        assert distances.shape == (2,)
        assert distances[0] == pytest.approx(distances[1])

    def test_index_bounds(self):
        topology = RoadTopology(4, 2)
        with pytest.raises(ValidationError):
            topology.rsu(2)

    def test_mbs_distances_match_per_rsu_distance(self):
        topology = RoadTopology(12, 4, region_length=37.5)
        expected = [topology.mbs_distance(k) for k in range(4)]
        assert topology.mbs_distances().tolist() == expected

    def test_rsu_contents_rows_are_covered_regions(self):
        topology = RoadTopology(12, 3)
        contents = topology.rsu_contents
        assert [tuple(row) for row in contents.tolist()] == [
            rsu.covered_regions for rsu in topology.rsus
        ]
        with pytest.raises(ValueError):
            contents[0, 0] = 5

    @given(
        regions_per_rsu=st.integers(min_value=1, max_value=6),
        num_rsus=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_coverage_partition(self, regions_per_rsu, num_rsus):
        topology = RoadTopology(regions_per_rsu * num_rsus, num_rsus)
        # The RSU coverage intervals tile the road end to end, and each
        # covers exactly the regions inside its interval.
        edges = [0.0]
        for rsu in topology.rsus:
            assert rsu.coverage_start == edges[-1]
            edges.append(rsu.coverage_end)
            for region_id in rsu.covered_regions:
                start = region_id * topology.region_length
                end = (region_id + 1) * topology.region_length
                assert rsu.coverage_start <= start < end <= rsu.coverage_end
        assert edges[-1] == pytest.approx(topology.road_length)
