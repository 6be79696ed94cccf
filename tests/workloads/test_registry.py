"""Tests for the workload registry and ``WorkloadSpec`` validation."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.exceptions import ConfigurationError, ValidationError
from repro.net.content import ContentCatalog
from repro.net.requests import BernoulliArrivals
from repro.net.topology import RoadTopology
from repro.workloads import (
    StationaryWorkload,
    WorkloadModel,
    WorkloadSpec,
    available_workloads,
    create_workload,
    get_workload_class,
    workload_names,
)

EXPECTED_NAMES = ["drift", "flash-crowd", "shot-noise", "stationary", "trace"]


@pytest.fixture
def topology():
    return RoadTopology(8, 4)


@pytest.fixture
def catalog():
    return ContentCatalog.random(8, rng=1)


class TestRegistry:
    def test_all_models_registered(self):
        assert workload_names() == EXPECTED_NAMES

    def test_available_workloads_have_descriptions(self):
        descriptions = available_workloads()
        assert sorted(descriptions) == EXPECTED_NAMES
        assert all(text for text in descriptions.values())

    def test_get_workload_class_resolves(self):
        assert get_workload_class("stationary") is StationaryWorkload

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            get_workload_class("nope")

    def test_registered_classes_are_workload_models(self):
        for name in workload_names():
            assert issubclass(get_workload_class(name), WorkloadModel)


class TestWorkloadSpec:
    def test_default_is_stationary(self):
        spec = WorkloadSpec()
        assert spec.name == "stationary"
        assert spec.params == ()

    def test_parse_name_only(self):
        assert WorkloadSpec.parse("drift").name == "drift"

    def test_parse_with_params(self):
        spec = WorkloadSpec.parse("drift:period=10,step=0.25")
        assert spec.params_dict == {"period": 10, "step": 0.25}

    def test_parse_coerces_value_types(self):
        spec = WorkloadSpec.parse("flash-crowd:burst_prob=0.5,duration=3")
        params = spec.params_dict
        assert isinstance(params["burst_prob"], float)
        assert isinstance(params["duration"], int)

    def test_defaults_filled_in(self):
        spec = WorkloadSpec.parse("drift:period=10")
        assert spec.params_dict["step"] == 0.5

    def test_label_hides_defaults(self):
        assert WorkloadSpec.parse("drift").label() == "drift"
        assert WorkloadSpec.parse("drift:period=10").label() == "drift(period=10)"

    def test_coerce_accepts_none_string_and_spec(self):
        assert WorkloadSpec.coerce(None) == WorkloadSpec()
        assert WorkloadSpec.coerce("drift").name == "drift"
        spec = WorkloadSpec.parse("drift:period=10")
        assert WorkloadSpec.coerce(spec) is spec
        with pytest.raises(ConfigurationError):
            WorkloadSpec.coerce(3.5)

    def test_param_order_does_not_matter(self):
        a = WorkloadSpec.parse("drift:period=10,step=0.25")
        b = WorkloadSpec.parse("drift:step=0.25,period=10")
        assert a == b

    def test_unknown_name_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            WorkloadSpec.parse("bogus")

    def test_unknown_parameter_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            WorkloadSpec.parse("drift:perriod=10")

    def test_stationary_takes_no_parameters(self):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            WorkloadSpec.parse("stationary:rate=2")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            WorkloadSpec.parse("drift:period")
        with pytest.raises(ConfigurationError, match="non-empty"):
            WorkloadSpec.parse("")

    @pytest.mark.parametrize(
        "text",
        [
            "drift:period=0",
            "drift:period=-3",
            "drift:step=0",
            "drift:step=-1.0",
            "flash-crowd:burst_prob=1.5",
            "flash-crowd:burst_prob=-0.1",
            "flash-crowd:duration=0",
            "flash-crowd:concentration=2",
            "shot-noise:event_rate=2",
            "shot-noise:mean_lifetime=0",
            "shot-noise:boost=0.5",
            "trace:path=",
            "trace",
        ],
    )
    def test_invalid_knob_values_rejected(self, text):
        with pytest.raises((ConfigurationError, ValidationError)):
            WorkloadSpec.parse(text)

    def test_spec_is_picklable_and_copyable(self):
        spec = WorkloadSpec.parse("shot-noise:event_rate=0.1")
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert copy.deepcopy(spec) == spec


class TestCreateWorkload:
    def test_builds_every_synthetic_model(self, topology, catalog):
        for name in ("stationary", "drift", "flash-crowd", "shot-noise"):
            model = create_workload(
                name,
                topology,
                catalog,
                arrivals=BernoulliArrivals(0.5),
                rng=0,
            )
            assert isinstance(model, get_workload_class(name))
            assert model.workload_name == name

    def test_spec_build_passes_parameters(self, topology, catalog):
        model = create_workload(
            "drift:period=7", topology, catalog, rng=0
        )
        assert model._period == 7  # noqa: SLF001 - white-box check
