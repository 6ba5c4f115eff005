"""Hedge policy semantics and the p99-derived delay."""

import pytest

from repro.resilience import HedgePolicy


class TestHedgePolicy:
    def test_nonpositive_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            HedgePolicy(delay=0.0)

    def test_hedge_count_validated(self):
        with pytest.raises(ValueError, match="max_hedges"):
            HedgePolicy(delay=1.0, max_hedges=0)

    def test_hedge_times_evenly_spaced(self):
        policy = HedgePolicy(delay=0.5, max_hedges=3)
        assert policy.hedge_times(10.0) == pytest.approx((10.5, 11.0, 11.5))

    def test_expected_extra_load_geometric(self):
        policy = HedgePolicy(delay=0.5, max_hedges=2)
        assert policy.expected_extra_load(0.01) == pytest.approx(0.01 + 0.0001)
        with pytest.raises(ValueError, match="tail_probability"):
            policy.expected_extra_load(1.5)

    def test_to_dict_round_trip(self):
        policy = HedgePolicy(delay=0.25, max_hedges=2)
        assert policy.to_dict() == {"delay": 0.25, "max_hedges": 2.0}


class TestFromQueue:
    def test_delay_is_p99_sojourn(self):
        from repro.core.mg1 import MG1Queue
        from repro.core.moments import Moments

        service = Moments(m1=0.01, m2=0.0002, m3=6e-6)
        queue = MG1Queue.from_utilization(0.8, service)
        policy = HedgePolicy.from_queue(queue, quantile=0.99)
        assert policy.delay == pytest.approx(
            queue.wait_quantile(0.99) + service.m1
        )
        # The hedge fires in the tail: far beyond the mean sojourn.
        assert policy.delay > queue.mean_wait + service.m1

    def test_quantile_validated(self):
        from repro.core.mg1 import MG1Queue
        from repro.core.moments import Moments

        queue = MG1Queue.from_utilization(0.5, Moments(m1=0.01, m2=0.0002, m3=6e-6))
        with pytest.raises(ValueError, match="quantile"):
            HedgePolicy.from_queue(queue, quantile=1.0)
