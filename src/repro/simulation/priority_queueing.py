"""Non-preemptive priority queueing station (validates Cobham's formula).

Extends the FIFO station of :mod:`repro.simulation.queueing` with
head-of-line priorities: when the server frees up it takes the oldest
customer of the highest-priority non-empty class.  Service in progress is
never preempted — exactly the discipline analysed in
:class:`repro.core.priority.PriorityMG1`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .distributions import Distribution
from .engine import Engine
from .metrics import BusyTracker, MeasurementWindow, SampleStats

__all__ = ["PriorityStation", "PriorityClassSpec", "simulate_priority_mg1"]


@dataclass(frozen=True)
class PriorityClassSpec:
    """Workload description of one class (highest priority first)."""

    name: str
    arrival_rate: float
    service: Distribution

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {self.arrival_rate}")


class PriorityStation:
    """Single server, one FIFO queue per class, HOL non-preemptive."""

    def __init__(
        self,
        engine: Engine,
        classes: Sequence[PriorityClassSpec],
        rng: np.random.Generator,
        window: Optional[MeasurementWindow] = None,
    ):
        if not classes:
            raise ValueError("need at least one class")
        self._engine = engine
        self._rng = rng
        self.classes = tuple(classes)
        self._queues: Dict[str, Deque[float]] = {c.name: deque() for c in classes}
        self.waits: Dict[str, SampleStats] = {
            c.name: SampleStats(name=f"wait-{c.name}", window=window) for c in classes
        }
        self.busy = BusyTracker(window=window)
        self.served: Dict[str, int] = {c.name: 0 for c in classes}
        self._in_service = False

    def arrive(self, class_name: str) -> None:
        now = self._engine.now
        self._queues[class_name].append(now)
        if not self._in_service:
            self._start_service()

    def _pick_next(self) -> Optional[Tuple[PriorityClassSpec, float]]:
        for spec in self.classes:  # highest priority first
            queue = self._queues[spec.name]
            if queue:
                return spec, queue.popleft()
        return None

    def _start_service(self) -> None:
        head = self._pick_next()
        if head is None:
            return
        spec, arrival_time = head
        now = self._engine.now
        self.waits[spec.name].record(now - arrival_time, time=arrival_time)
        self._in_service = True
        self.busy.busy(now)
        service_time = float(spec.service.sample(self._rng))
        if service_time < 0 or math.isnan(service_time):
            raise ValueError(f"invalid service time {service_time}")
        self._engine.call_in(service_time, lambda: self._finish(spec.name))

    def _finish(self, class_name: str) -> None:
        now = self._engine.now
        self.served[class_name] += 1
        if any(self._queues.values()):
            self._start_service()
        else:
            self._in_service = False
            self.busy.idle(now)


def simulate_priority_mg1(
    classes: Sequence[PriorityClassSpec],
    rng: np.random.Generator,
    horizon: float,
    warmup_fraction: float = 0.1,
) -> Dict[str, float]:
    """Simulate the priority queue; returns mean waits per class."""
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    engine = Engine()
    trim = horizon * warmup_fraction
    window = MeasurementWindow(trim, horizon - trim) if trim > 0 else MeasurementWindow(0, horizon)
    station = PriorityStation(engine, classes, rng, window=window)

    def schedule(spec: PriorityClassSpec) -> None:
        gap = float(rng.exponential(1.0 / spec.arrival_rate))

        def on_arrival() -> None:
            station.arrive(spec.name)
            schedule(spec)

        engine.call_in(gap, on_arrival)

    for spec in classes:
        schedule(spec)
    engine.run(until=horizon)
    return {name: stats.mean() for name, stats in station.waits.items()}
