"""Wall-clock Table I: Eq. 1 fitted to this broker's ``Broker.publish``.

The paper's §III times one server over (n_fltr x R) and fits
``E[B] = t_rcv + n_fltr * t_fltr + R * t_tx``.  Here every grid cell is
the Fig. 4 scenario timed in real seconds through ``Broker.publish``;
the cells are visited round-robin so a slow spell of the machine lands
on all of them, and each cell keeps its median round.  The fit is
:func:`repro.testbed.calibration.fit_cost_parameters` with utilization 1
and ``cpu_scale`` 1.  A poor fit is a finding about a layer whose cost
is not linear in n_fltr and R, not a failure.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

from repro.broker import DeliveryMode, Message
from repro.core.params import FilterType
from repro.testbed.calibration import fit_cost_parameters
from repro.testbed.experiment import ExperimentConfig, MeasurementResult
from repro.testbed.scenario import MATCH_VALUE, TOPIC_NAME, build_filter_scenario

REPLICATION_GRADES = (1, 4, 10)
ADDITIONAL_FILTERS = (10, 40, 80)
MESSAGES = 512
ROUNDS = 5
#: The metrics :func:`fit_eq1` reports; 0 on the workloads that do not fit Eq. 1.
EQ1_METRICS = ("eq1.t_rcv_us", "eq1.t_fltr_us", "eq1.t_tx_us", "eq1.fit_rel_err_max")


def fit_eq1() -> Tuple[Dict[str, float], List[str]]:
    """Time the grid, fit Eq. 1; returns (``eq1.*`` metrics, problems)."""
    clock = time.perf_counter
    cells = []
    for grade in REPLICATION_GRADES:
        for extra in ADDITIONAL_FILTERS:
            broker = build_filter_scenario(FilterType.CORRELATION_ID, grade, extra).broker
            subscribers = [broker.get_subscriber(s) for s in broker.subscriber_ids()]
            cells.append((grade, extra, broker, subscribers))
    pool = [
        Message(
            topic=TOPIC_NAME,
            correlation_id=MATCH_VALUE,
            delivery_mode=DeliveryMode.NON_PERSISTENT,
        )
        for _ in range(MESSAGES)
    ]
    times: Dict[Tuple[int, int], List[float]] = {(g, n): [] for g, n, _, _ in cells}
    problems: List[str] = []
    for _ in range(ROUNDS):
        for grade, extra, broker, subscribers in cells:
            publish = broker.publish
            start = clock()
            for message in pool:
                publish(message)
            times[(grade, extra)].append((clock() - start) / MESSAGES)
            for subscriber in subscribers:
                subscriber.inbox.clear()
            snapshot = broker.stats.snapshot()
            if snapshot["filters_evaluated"] != (grade + extra) * snapshot["received"]:
                problems.append(f"eq1 cell R={grade} n={extra} billed the wrong filter count")
    results = []
    for grade, extra, _, _ in cells:
        service = statistics.median(times[(grade, extra)])
        config = ExperimentConfig(
            filter_type=FilterType.CORRELATION_ID,
            replication_grade=grade,
            n_additional=extra,
            cpu_scale=1.0,
        )
        results.append(
            MeasurementResult(
                config=config,
                received_rate=1.0 / service,
                dispatched_rate=grade / service,
                utilization=1.0,
                messages_received=MESSAGES,
                copies_dispatched=MESSAGES * grade,
                mean_service_time=service,
                mean_waiting_time=0.0,
                push_back_blocks=0,
            )
        )
    fit = fit_cost_parameters(results)
    fitted = (fit.costs.t_rcv * 1e6, fit.costs.t_fltr * 1e6, fit.costs.t_tx * 1e6,
              fit.relative_error_max)
    return dict(zip(EQ1_METRICS, fitted)), problems
