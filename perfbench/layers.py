"""Which calls the traced run times, and the per-layer metrics it derives.

Layers are named after the ``repro`` modules.  Each hook wraps the
binding the caller really goes through: methods on their classes, and
``plan_dispatch``/``plan_dispatch_batch``/``message_fingerprint`` as
``repro.broker.server`` imported them.  Individual filter calls are not
timed (44 per message would distort the shares); filter work shows as
``broker.dispatch`` time together with ``broker.dispatch.filters_per_msg``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.broker import dispatch_cache, message, queues, server, stats, subscriptions
from repro.core import service_time
from repro.durability import disk, journal, recovery
from repro.simulation import engine, metrics, queueing

from spans import Tracer, TraceSummary

LAYERS = (
    "broker.server",
    "broker.dispatch",
    "broker.dispatch_cache",
    "broker.subscriptions",
    "broker.message",
    "broker.stats",
    "broker.queues",
    "durability.journal",
    "durability.disk",
    "durability.recovery",
    "simulation.engine",
    "simulation.queueing",
    "simulation.metrics",
    "core.service_time",
)

#: (owner, attribute, span name) of every plainly wrapped call.
_HOOKS: List[Tuple[Any, str, str]] = [
    (server.Broker, "publish", "broker.server.publish"),
    (server.Broker, "publish_batch", "broker.server.publish_batch"),
    (server.Broker, "crash", "broker.server.crash"),
    (server.Broker, "recover", "broker.server.recover"),
    (server, "message_fingerprint", "broker.dispatch_cache.message_fingerprint"),
    (dispatch_cache.DispatchMemo, "lookup", "broker.dispatch_cache.lookup"),
    (dispatch_cache.DispatchMemo, "lookup_batch", "broker.dispatch_cache.lookup_batch"),
    (dispatch_cache.DispatchMemo, "store", "broker.dispatch_cache.store"),
    (subscriptions.Subscriber, "deliver", "broker.subscriptions.deliver"),
    (subscriptions.Subscriber, "deliver_many", "broker.subscriptions.deliver_many"),
    (subscriptions.Subscription, "retain", "broker.subscriptions.retain"),
    (message.Message, "copy_for", "broker.message.copy_for"),
    (stats.BrokerStats, "record_receive", "broker.stats.record_receive"),
    (stats.BrokerStats, "record_dispatch", "broker.stats.record_dispatch"),
    (stats.BrokerStats, "record_delivery_outcome", "broker.stats.record_delivery_outcome"),
    (stats.BrokerStats, "record_batch_hit", "broker.stats.record_batch_hit"),
    (queues.PointToPointQueue, "send", "broker.queues.send"),
    (queues.PointToPointQueue, "crash", "broker.queues.crash"),
    (queues.PointToPointQueue, "restore", "broker.queues.restore"),
    (queues.QueueConsumer, "receive", "broker.queues.receive"),
    (queues.QueueConsumer, "ack", "broker.queues.ack"),
    (journal.Journal, "append", "durability.journal.append"),
    (journal.Journal, "sync", "durability.journal.sync"),
    (journal.Journal, "checkpoint", "durability.journal.checkpoint"),
    (journal.Journal, "log_publish", "durability.journal.log_publish"),
    (journal.Journal, "log_deliver", "durability.journal.log_deliver"),
    (journal.Journal, "log_ack", "durability.journal.log_ack"),
    (journal.Journal, "log_expire", "durability.journal.log_expire"),
    (disk.SimulatedDisk, "append", "durability.disk.append"),
    (disk.SimulatedDisk, "sync", "durability.disk.sync"),
    (disk.SimulatedDisk, "read", "durability.disk.read"),
    (disk.SimulatedDisk, "delete", "durability.disk.delete"),
    (recovery, "recover_broker", "durability.recovery.recover_broker"),
    (recovery, "collect_live_entries", "durability.recovery.collect_live_entries"),
    (engine.Engine, "run", "simulation.engine.run"),
    (engine.Engine, "call_in", "simulation.engine.call_in"),
    (queueing, "simulate_mg1", "simulation.queueing.simulate_mg1"),
    (queueing.QueueingStation, "arrive", "simulation.queueing.arrive"),
    (queueing.QueueingStation, "results", "simulation.queueing.results"),
    (metrics.SampleStats, "record", "simulation.metrics.record"),
    (metrics.TimeWeightedStat, "update", "simulation.metrics.update"),
    (metrics.TimeWeightedStat, "add", "simulation.metrics.add"),
    (metrics.BusyTracker, "busy", "simulation.metrics.busy"),
    (metrics.BusyTracker, "idle", "simulation.metrics.idle"),
    (service_time.ServiceTimeModel, "sample", "core.service_time.sample"),
]


def install(tracer: Tracer) -> None:
    """Patch every hook; the planners and the scheduler get custom shims."""
    for owner, attr, name in _HOOKS:
        tracer.patch(owner, attr, name)

    tracer.patch(server, "plan_dispatch", "broker.dispatch.plan_dispatch",
                 tracer.counter("broker.dispatch.plan_dispatch", "cold_plans", batched=False))
    tracer.patch(server, "plan_dispatch_batch", "broker.dispatch.plan_dispatch_batch",
                 tracer.counter("broker.dispatch.plan_dispatch_batch", "cold_plans", batched=True))

    # Every event goes through call_at; its callback becomes a span of the
    # layer that defined it, so engine self time is loop and heap.
    tracer.patch(engine.Engine, "call_at", "simulation.engine.call_at",
                 tracer.scheduler("simulation.engine.call_at"))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    summary: TraceSummary, tracer: Tracer, counts: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics of one traced phase.

    ``counts`` holds the workload's counter deltas over the traced phase;
    metrics of a layer the workload does not reach are 0.
    """
    messages = counts.get("messages", 0)
    layer_self = summary.layer_self()

    def self_per_msg(layer: str) -> float:
        return 1e6 * _ratio(layer_self.get(layer, 0.0), messages)

    def mean_us(*names: str) -> float:
        calls, seconds = summary.op(*names)
        return 1e6 * _ratio(seconds, calls)

    copy_calls, copy_seconds = summary.op("broker.message.copy_for")
    _, deliver_seconds = summary.op(
        "broker.subscriptions.deliver", "broker.subscriptions.deliver_many"
    )
    _, dispatch_seconds = summary.op(
        "broker.dispatch.plan_dispatch", "broker.dispatch.plan_dispatch_batch"
    )
    probes, probe_seconds = summary.op(
        "broker.dispatch_cache.lookup", "broker.dispatch_cache.lookup_batch"
    )
    _, stats_seconds = summary.op(
        "broker.stats.record_receive",
        "broker.stats.record_dispatch",
        "broker.stats.record_delivery_outcome",
        "broker.stats.record_batch_hit",
    )
    checkpoints, checkpoint_seconds = summary.op("durability.journal.checkpoint")
    _, recover_seconds = summary.op("durability.recovery.recover_broker")
    events = counts.get("events", 0)
    served = counts.get("served", 0)
    hits = counts.get("memo_hits", 0)
    misses = counts.get("memo_misses", 0)
    batches = counts.get("batches", 0)
    wall = counts.get("wall_s", 0.0)
    traced_cost = summary.tracing_cost
    attributed = sum(layer_self.values())
    out = {
        "broker.server.self_us_per_msg": self_per_msg("broker.server"),
        "broker.server.groups_per_batch": _ratio(counts.get("groups", 0), batches),
        "broker.server.warm_groups_per_batch": _ratio(counts.get("warm_groups", 0), batches),
        "broker.dispatch.us_per_msg": 1e6 * _ratio(dispatch_seconds, messages),
        "broker.dispatch.filters_per_msg": _ratio(counts.get("filters", 0), messages),
        "broker.dispatch.cold_plans_per_msg": _ratio(tracer.counts.get("cold_plans", 0), messages),
        "broker.dispatch_cache.hit_ratio": _ratio(hits, hits + misses),
        "broker.dispatch_cache.evictions_per_msg": _ratio(
            counts.get("memo_evictions", 0), messages
        ),
        "broker.dispatch_cache.us_per_probe": 1e6 * _ratio(probe_seconds, probes),
        "broker.subscriptions.us_per_copy": 1e6 * _ratio(deliver_seconds, counts.get("copies", 0)),
        "broker.message.us_per_copy": 1e6 * _ratio(copy_seconds, copy_calls),
        "broker.message.copies_per_msg": _ratio(copy_calls, messages),
        "broker.stats.us_per_msg": 1e6 * _ratio(stats_seconds, messages),
        "broker.queues.send_us": mean_us("broker.queues.send"),
        "broker.queues.receive_us": mean_us("broker.queues.receive"),
        "broker.queues.ack_us": mean_us("broker.queues.ack"),
        "broker.queues.backlog_max": counts.get("backlog_max", 0),
        "durability.journal.append_us": mean_us("durability.journal.append"),
        "durability.journal.records_per_msg": _ratio(counts.get("journal_records", 0), messages),
        "durability.journal.bytes_per_msg": _ratio(counts.get("journal_bytes", 0), messages),
        "durability.journal.sync_us": mean_us("durability.journal.sync"),
        "durability.journal.syncs_per_msg": _ratio(counts.get("journal_syncs", 0), messages),
        "durability.journal.rotations": counts.get("journal_rotations", 0),
        "durability.journal.checkpoint_ms": 1e3 * _ratio(checkpoint_seconds, checkpoints),
        "durability.disk.append_us": mean_us("durability.disk.append"),
        "durability.recovery.records_per_s": _ratio(
            counts.get("recovery_records", 0), recover_seconds
        ),
        "durability.recovery.requeued": counts.get("recovery_requeued", 0),
        "simulation.engine.events_per_msg": _ratio(events, served),
        "simulation.engine.self_us_per_event": 1e6
        * _ratio(layer_self.get("simulation.engine", 0.0), events),
        "simulation.engine.schedule_us": mean_us(
            "simulation.engine.call_in", "simulation.engine.call_at"
        ),
        "simulation.queueing.us_per_msg": 1e6
        * _ratio(layer_self.get("simulation.queueing", 0.0), served),
        "simulation.metrics.us_per_event": 1e6
        * _ratio(layer_self.get("simulation.metrics", 0.0), events),
        "core.service_time.sample_us": mean_us("core.service_time.sample"),
        "bench.traced_us_per_msg": 1e6 * _ratio(wall, messages),
        "bench.trace_cost_us_per_msg": 1e6 * _ratio(traced_cost, messages),
        "bench.unattributed_us_per_msg": 1e6 * _ratio(wall - attributed - traced_cost, messages),
    }
    for layer in LAYERS:
        if layer != "broker.server":
            out[f"{layer}.self_us_per_msg"] = self_per_msg(layer)
    return out


def layer_table(summary: TraceSummary, counts: Dict[str, float]) -> List[Tuple[str, float]]:
    """(layer, self us per message) rows plus the unattributed remainder;
    the rows add up to the traced wall time per message."""
    messages = counts.get("messages", 0)
    layer_self = summary.layer_self()
    rows = [(layer, 1e6 * _ratio(layer_self.get(layer, 0.0), messages)) for layer in LAYERS]
    other = sum(seconds for layer, seconds in layer_self.items() if layer not in LAYERS)
    if other:
        rows.append(("other", 1e6 * _ratio(other, messages)))
    rows.append(("tracing (calibrated)", 1e6 * _ratio(summary.tracing_cost, messages)))
    unattributed = counts.get("wall_s", 0.0) - sum(layer_self.values()) - summary.tracing_cost
    rows.append(("unattributed", 1e6 * _ratio(unattributed, messages)))
    return rows
