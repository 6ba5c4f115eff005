"""Fit the processing-time model to measurements (Section III-B.2b).

The paper derives Table I by fitting

    ``E[B] = t_rcv + n_fltr · t_fltr + R · t_tx``

to the measured throughput grid.  We do the same: every saturated run
yields one observation ``E[B] ≈ ρ_measured / λ_received`` with regressors
``(1, n_fltr, R)``; a (non-negative) linear least-squares fit recovers the
three constants.  When the measurements were produced by a scaled virtual
CPU, the fitted constants are divided by ``cpu_scale`` before being
compared with Table I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from scipy.optimize import nnls

from ..core.params import CostParameters, FilterType
from .experiment import MeasurementResult

__all__ = ["CalibrationFit", "fit_cost_parameters"]


@dataclass(frozen=True)
class CalibrationFit:
    """Result of fitting Table I constants from measurements."""

    costs: CostParameters
    residual_rms: float
    relative_error_max: float
    observations: int

    def within_tolerance(self, reference: CostParameters, rel_tol: float = 0.05) -> bool:
        """Are all three constants within ``rel_tol`` of ``reference``?"""
        pairs = (
            (self.costs.t_rcv, reference.t_rcv),
            (self.costs.t_fltr, reference.t_fltr),
            (self.costs.t_tx, reference.t_tx),
        )
        return all(
            math.isclose(fitted, true, rel_tol=rel_tol, abs_tol=1e-12)
            for fitted, true in pairs
        )


def fit_cost_parameters(
    results: Sequence[MeasurementResult],
    filter_type: FilterType | None = None,
) -> CalibrationFit:
    """Least-squares fit of ``(t_rcv, t_fltr, t_tx)`` from saturated runs.

    Parameters
    ----------
    results:
        Measurement results; must all share one filter type and one
        ``cpu_scale``.
    filter_type:
        Stamp for the returned :class:`CostParameters`; inferred from the
        configs when omitted.

    Notes
    -----
    The fit works in service-time space (``E[B] = ρ/λ``) with
    inverse-variance weighting: a run observing ``N`` messages carries a
    counting error of roughly ``E[B]/N``, so observations are weighted by
    ``N / E[B]``.  Without this, the long-service (many-filter) cells —
    which see the fewest messages — would drown out the tiny ``t_rcv``
    intercept.  Non-negative least squares keeps the constants physical,
    exactly as in the paper's model.
    """
    if len(results) < 3:
        raise ValueError(f"need at least 3 observations to fit 3 constants, got {len(results)}")
    filter_types = {r.config.filter_type for r in results}
    if filter_type is None:
        if len(filter_types) != 1:
            raise ValueError(f"mixed filter types in results: {filter_types}")
        filter_type = next(iter(filter_types))
    scales = {r.config.cpu_scale for r in results}
    if len(scales) != 1:
        raise ValueError(f"mixed cpu_scale values in results: {scales}")
    cpu_scale = next(iter(scales))

    rows: List[List[float]] = []
    observed: List[float] = []
    weights: List[float] = []
    for result in results:
        if result.received_rate <= 0:
            raise ValueError(f"run with zero throughput cannot be used: {result.config}")
        # E[B] = utilization / λ; for saturated runs utilization ≈ 1.
        service_time = result.utilization / result.received_rate
        rows.append([1.0, float(result.config.n_fltr), float(result.config.replication_grade)])
        observed.append(service_time)
        weights.append(max(result.messages_received, 1) / service_time)
    design = np.asarray(rows)
    target = np.asarray(observed)
    weight = np.asarray(weights)
    weight /= weight.max()
    coefficients, _ = nnls(design * weight[:, None], target * weight)
    t_rcv, t_fltr, t_tx = (float(c) / cpu_scale for c in coefficients)

    predicted = design @ coefficients
    residual_rms = float(np.sqrt(np.mean((predicted - target) ** 2))) / cpu_scale
    relative_error_max = float(np.max(np.abs(predicted - target) / target))
    return CalibrationFit(
        costs=CostParameters(t_rcv=t_rcv, t_fltr=t_fltr, t_tx=t_tx, filter_type=filter_type),
        residual_rms=residual_rms,
        relative_error_max=relative_error_max,
        observations=len(results),
    )
