"""Tests for repro.core.lyapunov (drift-plus-penalty service control, Eq. 5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.service import AlwaysServePolicy, NeverServePolicy
from repro.core.lyapunov import (
    BatchedServiceDecider,
    DriftPenaltyRecord,
    LyapunovServiceController,
    run_backlog_simulation,
)
from repro.core.policies import ServiceObservation
from repro.exceptions import ConfigurationError, ValidationError


def observation(
    backlog: float,
    cost: float = 1.0,
    departure: float = 1.0,
    *,
    head_age=None,
    head_max=None,
    slack=None,
    time_slot: int = 0,
) -> ServiceObservation:
    return ServiceObservation(
        time_slot=time_slot,
        rsu_id=0,
        queue_backlog=backlog,
        service_cost=cost,
        departure=departure,
        head_content_age=head_age,
        head_content_max_age=head_max,
        head_deadline_slack=slack,
    )


class TestEquationFiveDecision:
    def test_empty_queue_defers(self):
        # Q[t] = 0: Eq. (5) minimises cost, so the RSU does not serve.
        controller = LyapunovServiceController(tradeoff_v=10.0)
        assert controller.decide(observation(0.0, cost=1.0)) is False

    def test_huge_queue_serves(self):
        # Q[t] -> inf: the -Q*b term dominates, so the RSU serves.
        controller = LyapunovServiceController(tradeoff_v=10.0)
        assert controller.decide(observation(1e9, cost=1.0)) is True

    def test_threshold_is_v_cost_over_departure(self):
        # Serve exactly when Q * b > V * C.
        controller = LyapunovServiceController(tradeoff_v=10.0)
        assert controller.decide(observation(9.0, cost=1.0, departure=1.0)) is False
        assert controller.decide(observation(11.0, cost=1.0, departure=1.0)) is True

    def test_zero_cost_with_tie_breaker_serve(self):
        controller = LyapunovServiceController(tradeoff_v=10.0, tie_breaker="serve")
        assert controller.decide(observation(0.0, cost=0.0)) is True

    def test_zero_cost_with_tie_breaker_defer(self):
        controller = LyapunovServiceController(tradeoff_v=10.0, tie_breaker="defer")
        assert controller.decide(observation(0.0, cost=0.0)) is False

    def test_larger_v_defers_longer(self):
        low_v = LyapunovServiceController(tradeoff_v=1.0)
        high_v = LyapunovServiceController(tradeoff_v=100.0)
        probe = observation(20.0, cost=1.0)
        assert low_v.decide(probe) is True
        assert high_v.decide(probe) is False

    def test_cheap_slot_preferred(self):
        controller = LyapunovServiceController(tradeoff_v=10.0)
        assert controller.decide(observation(5.0, cost=0.1)) is True
        controller2 = LyapunovServiceController(tradeoff_v=10.0)
        assert controller2.decide(observation(5.0, cost=10.0)) is False

    def test_evaluate_reports_objectives(self):
        controller = LyapunovServiceController(tradeoff_v=2.0)
        decision = controller.evaluate(observation(4.0, cost=3.0, departure=2.0))
        assert decision.objective_serve == pytest.approx(2.0 * 3.0 - 4.0 * 2.0)
        assert decision.objective_defer == 0.0
        assert decision.serve is True

    def test_negative_v_rejected(self):
        with pytest.raises(ValidationError):
            LyapunovServiceController(tradeoff_v=-1.0)

    def test_bad_tie_breaker_rejected(self):
        with pytest.raises(ConfigurationError):
            LyapunovServiceController(tie_breaker="maybe")

    @given(
        backlog=st.floats(min_value=0.0, max_value=1e4),
        cost=st.floats(min_value=0.0, max_value=100.0),
        departure=st.floats(min_value=0.0, max_value=100.0),
        v=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_decision_matches_sign_of_objective(
        self, backlog, cost, departure, v
    ):
        controller = LyapunovServiceController(tradeoff_v=v, enforce_aoi_validity=False)
        decision = controller.evaluate(observation(backlog, cost, departure))
        objective = v * cost - backlog * departure
        if objective < 0:
            assert decision.serve is True
        elif objective > 0:
            assert decision.serve is False


class TestAoiValidityGuard:
    def test_stale_head_blocks_service(self):
        controller = LyapunovServiceController(tradeoff_v=1.0)
        probe = observation(100.0, cost=0.1, head_age=9.0, head_max=5.0)
        decision = controller.evaluate(probe)
        assert decision.serve is False
        assert decision.blocked_by_aoi is True

    def test_fresh_head_allows_service(self):
        controller = LyapunovServiceController(tradeoff_v=1.0)
        probe = observation(100.0, cost=0.1, head_age=3.0, head_max=5.0)
        assert controller.evaluate(probe).serve is True

    def test_guard_can_be_disabled(self):
        controller = LyapunovServiceController(tradeoff_v=1.0, enforce_aoi_validity=False)
        probe = observation(100.0, cost=0.1, head_age=9.0, head_max=5.0)
        assert controller.evaluate(probe).serve is True

    def test_unknown_head_age_not_blocked(self):
        controller = LyapunovServiceController(tradeoff_v=1.0)
        probe = observation(100.0, cost=0.1)
        assert controller.evaluate(probe).serve is True


class TestBatchedServiceDecider:
    CONTROLLERS = [
        LyapunovServiceController(2.0),
        LyapunovServiceController(2.0, tie_breaker="defer"),
        LyapunovServiceController(0.0),
        LyapunovServiceController(0.0, tie_breaker="defer"),
        LyapunovServiceController(1.5, enforce_aoi_validity=False),
    ]

    def test_matches_per_observation_decide(self):
        # Backlogs chosen so V*C - Q*b hits ties (Q = 0, Q = 2 at C = 2),
        # NaN (infinite backlog times zero departure) and both signs.
        backlogs = np.array([0.0, 1.0, 2.0, 3.0, np.inf, np.nan])
        departures = np.array([0.0, 1.0, 2.0, 3.0, 0.0, 1.0])
        stale = np.array([False, True, False, True, True, False])
        costs = np.array([2.0, 2.0, 1.0, 0.0, 2.0])
        shape = (len(self.CONTROLLERS), backlogs.size)
        decider = BatchedServiceDecider(self.CONTROLLERS)
        with np.errstate(invalid="ignore"):
            got = decider.decide(
                costs,
                np.broadcast_to(backlogs, shape),
                np.broadcast_to(departures, shape),
                np.broadcast_to(stale, shape),
            )
        for s, controller in enumerate(self.CONTROLLERS):
            for k in range(backlogs.size):
                probe = observation(
                    backlogs[k],
                    cost=costs[s],
                    departure=departures[k],
                    head_age=5.0 if stale[k] else 1.0,
                    head_max=3.0,
                )
                assert got[s, k] == controller.decide(probe), (s, k)

    def test_supports_only_plain_controllers(self):
        class Subclassed(LyapunovServiceController):
            pass

        assert BatchedServiceDecider.supports(self.CONTROLLERS)
        assert not BatchedServiceDecider.supports([])
        assert not BatchedServiceDecider.supports([Subclassed()])
        assert not BatchedServiceDecider.supports(
            [LyapunovServiceController(), AlwaysServePolicy()]
        )


class TestDriftPenaltyRecord:
    def test_averages(self):
        record = DriftPenaltyRecord()
        record.record(cost=2.0, backlog=4.0, served=True)
        record.record(cost=0.0, backlog=6.0, served=False)
        assert record.time_average_cost == pytest.approx(1.0)
        assert record.time_average_backlog == pytest.approx(5.0)
        assert record.service_rate == pytest.approx(0.5)
        assert len(record) == 2

    def test_empty_record_is_nan(self):
        record = DriftPenaltyRecord()
        assert np.isnan(record.time_average_cost)
        assert np.isnan(record.service_rate)


class TestRunBacklogSimulation:
    def test_lyapunov_is_stable_under_moderate_load(self):
        result = run_backlog_simulation(
            LyapunovServiceController(tradeoff_v=10.0),
            num_slots=400,
            arrival_fn=lambda t: 0.6,
            cost_fn=lambda t: 1.0,
            departure=1.5,
        )
        assert result.stable
        assert result.time_average_backlog < 50.0

    def test_never_serve_is_unstable(self):
        result = run_backlog_simulation(
            NeverServePolicy(),
            num_slots=200,
            arrival_fn=lambda t: 1.0,
            cost_fn=lambda t: 1.0,
        )
        assert not result.stable
        assert result.backlog_history[-1] == pytest.approx(200.0)

    def test_always_serve_pays_more_cost_than_lyapunov(self):
        kwargs = dict(
            num_slots=500,
            arrival_fn=lambda t: 0.5,
            cost_fn=lambda t: 1.0 + (t % 5),  # time-varying cost
            departure=2.0,
        )
        lyapunov = run_backlog_simulation(
            LyapunovServiceController(tradeoff_v=20.0), **kwargs
        )
        always = run_backlog_simulation(AlwaysServePolicy(), **kwargs)
        assert lyapunov.time_average_cost <= always.time_average_cost
        assert lyapunov.stable

    def test_higher_v_trades_backlog_for_cost(self):
        kwargs = dict(
            num_slots=600,
            arrival_fn=lambda t: 0.5,
            cost_fn=lambda t: 1.0 + (t % 3),
            departure=2.0,
        )
        low = run_backlog_simulation(LyapunovServiceController(tradeoff_v=2.0), **kwargs)
        high = run_backlog_simulation(LyapunovServiceController(tradeoff_v=50.0), **kwargs)
        assert high.time_average_cost <= low.time_average_cost + 1e-9
        assert high.time_average_backlog >= low.time_average_backlog - 1e-9

    def test_invalid_num_slots_rejected(self):
        with pytest.raises(ValidationError):
            run_backlog_simulation(
                AlwaysServePolicy(),
                num_slots=0,
                arrival_fn=lambda t: 0.0,
                cost_fn=lambda t: 1.0,
            )

    def test_record_length_matches_horizon(self):
        result = run_backlog_simulation(
            LyapunovServiceController(tradeoff_v=5.0),
            num_slots=123,
            arrival_fn=lambda t: 0.3,
            cost_fn=lambda t: 1.0,
        )
        assert len(result.record) == 123
        assert result.backlog_history.shape == (124,)
