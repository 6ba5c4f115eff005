"""Retry-amplification fixed-point model (repro.core.resilience)."""

import pytest

from repro.core.params import FilterType, costs_for
from repro.core.replication import DeterministicReplication
from repro.core.resilience import (
    RetryAmplificationModel,
    RetryFixedPoint,
    storm_region,
)
from repro.core.service_time import ServiceTimeModel


@pytest.fixture(scope="module")
def service_model():
    return ServiceTimeModel(
        costs_for(FilterType.CORRELATION_ID).scaled(100.0),
        n_fltr=4,
        replication=DeterministicReplication(4),
    )


class TestValidation:
    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError, match="base_rate"):
            RetryAmplificationModel(base_rate=0.0, capacity=5, service=((0.01, 1.0),))

    def test_small_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            RetryAmplificationModel(base_rate=1.0, capacity=1, service=((0.01, 1.0),))

    def test_retry_gain_range(self):
        with pytest.raises(ValueError, match="retry_gain"):
            RetryAmplificationModel(
                base_rate=1.0, capacity=5, service=((0.01, 1.0),), retry_gain=1.5
            )

    def test_late_channel_needs_timeout(self, service_model):
        # late_retry without a timeout is simply a no-op channel.
        model = RetryAmplificationModel.from_service_model(
            0.9, service_model, 10, late_retry=True
        )
        assert model.late_at(model.base_rate) == 0.0


class TestFixedPoints:
    def test_no_retries_degenerates_to_base_rate(self, service_model):
        model = RetryAmplificationModel.from_service_model(
            0.9, service_model, 10, max_retries=0
        )
        points = model.fixed_points()
        assert len(points) == 1
        assert points[0].rate == pytest.approx(model.base_rate, rel=1e-6)
        assert points[0].stable

    def test_loss_only_amplification_bounded_and_monotone(self, service_model):
        rates = []
        for rho in (0.7, 0.9, 1.1, 1.3):
            model = RetryAmplificationModel.from_service_model(
                rho, service_model, 8, max_retries=3
            )
            fp = model.solve()
            assert fp.stable
            assert model.base_rate <= fp.rate <= model.base_rate * 4.0
            rates.append(fp.rate / model.base_rate)
        assert rates == sorted(rates)  # amplification grows with load

    def test_solve_is_lowest_stormed_is_highest(self, service_model):
        model = RetryAmplificationModel.from_service_model(
            0.9,
            service_model,
            80,
            max_retries=6,
            timeout=40 * service_model.mean,
            late_retry=True,
        )
        points = model.fixed_points()
        assert model.solve().rate == min(p.rate for p in points if p.stable)
        assert model.stormed().rate == max(p.rate for p in points if p.stable)

    def test_failure_composes_loss_and_lateness(self):
        fp = RetryFixedPoint(rate=1.0, stable=True, loss=0.2, late=0.5)
        assert fp.failure == pytest.approx(0.2 + 0.8 * 0.5)


class TestMetastability:
    def test_harness_operating_point_is_metastable(self, service_model):
        model = RetryAmplificationModel.from_service_model(
            0.9,
            service_model,
            80,
            max_retries=6,
            timeout=40 * service_model.mean,
            late_retry=True,
        )
        assert model.classify() == "metastable"
        # The two attractors: normal (~λ) and storm (~(1+r)·λ).
        assert model.solve().rate / model.base_rate == pytest.approx(1.0, abs=0.05)
        assert model.stormed().rate / model.base_rate == pytest.approx(7.0, abs=0.1)
        # The storm serves almost entirely dead work.
        assert model.goodput_fraction(model.stormed().rate) < 0.1

    def test_budget_removes_the_storm_point(self, service_model):
        model = RetryAmplificationModel.from_service_model(
            0.9,
            service_model,
            80,
            max_retries=6,
            timeout=40 * service_model.mean,
            late_retry=True,
            budget_ratio=0.1,
            budget_min_rate=0.5,
        )
        assert model.classify() == "stable"
        # Amplification capped at 1 + β (plus the min-rate floor).
        cap = model.base_rate * (1 + 0.1) + 0.5
        assert model.stormed().rate <= cap * (1 + 1e-9)

    def test_patient_clients_cannot_storm(self, service_model):
        # Without the lateness channel the map is a contraction: one FP.
        model = RetryAmplificationModel.from_service_model(
            0.9, service_model, 80, max_retries=6
        )
        assert model.classify() == "stable"

    def test_describe_is_json_shaped(self, service_model):
        model = RetryAmplificationModel.from_service_model(
            0.9,
            service_model,
            80,
            max_retries=6,
            timeout=40 * service_model.mean,
            late_retry=True,
        )
        d = model.describe()
        assert d["classification"] == "metastable"
        assert d["storm_amplification"] > d["amplification"]
        assert 0.0 <= d["goodput_fraction"] <= 1.0


class TestStormRegion:
    def test_region_sweep_shapes_and_budget_column(self, service_model):
        eb = service_model.mean
        cells = storm_region(
            service_model,
            capacity=80,
            rhos=(0.7, 0.9),
            timeouts=(None, 40 * eb),
            budgets=(None, 0.1),
            max_retries=6,
            budget_min_rate=0.5,
        )
        assert len(cells) == 8
        by_key = {(c.rho, c.timeout, c.budget_ratio): c for c in cells}
        # The storm lives at rho=0.9 with a timeout and no budget…
        assert by_key[(0.9, 40 * eb, None)].classification == "metastable"
        # …and every budgeted/patient neighbour of that cell is stable.
        assert by_key[(0.9, 40 * eb, 0.1)].classification == "stable"
        assert by_key[(0.9, None, None)].classification == "stable"
        for cell in cells:
            d = cell.to_dict()
            assert set(d) >= {"rho", "timeout", "classification", "lambda_eff"}
