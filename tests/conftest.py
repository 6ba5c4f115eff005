"""Shared invariant helpers.

The :func:`assert_conserved` fixture is the single statement of the
message-conservation invariant ("every accepted message has exactly one
fate") shared by the broker, faults, overload and durability suites.
"""

import pytest


def check_conserved(stats, consumers=(), context=""):
    """Assert the message-conservation ledger of ``stats`` balances.

    Two shapes are understood:

    * a :class:`~repro.broker.queues.PointToPointQueue` (or the mesh's
      aggregated ledger, which has the same shape) — checks
      ``enqueued + restored + transferred_in == acked + expired + dropped
      + dead-lettered + lost-on-crash + discarded-on-crash +
      transferred_out + dropped_on_handoff + depth +
      in-flight(consumers)`` (``restored``/``discarded_on_crash`` are the
      journal-recovery legs: a journalled crash discards in-memory
      copies, replay reinstates the committed ones;
      ``transferred_in``/``transferred_out``/``dropped_on_handoff`` are
      the mesh-handoff legs: a rebalanced message leaves its source shard
      as transferred-out and enters the destination as transferred-in);
    * an experiment result exposing a boolean ``conserved`` property
      (``repro.faults`` / ``repro.overload``) — asserts it, surfacing
      ``to_metrics()`` in the failure message when available.
    """
    suffix = f" [{context}]" if context else ""
    if hasattr(stats, "enqueued") and hasattr(stats, "depth"):
        in_flight = sum(len(c.inbox) + len(c.unacked) for c in consumers)
        accepted = (
            stats.enqueued
            + getattr(stats, "restored", 0)
            + getattr(stats, "transferred_in", 0)
        )
        fates = (
            stats.acked
            + stats.expired_at_drain
            # deadline propagation: deliveries reaped from consumer
            # inboxes because their deadline passed in flight
            + getattr(stats, "expired_in_flight", 0)
            + stats.dead_lettered
            + stats.dropped_new
            + stats.dropped_oldest
            + stats.deadline_shed
            + stats.lost_on_crash
            + getattr(stats, "discarded_on_crash", 0)
            + getattr(stats, "transferred_out", 0)
            + getattr(stats, "dropped_on_handoff", 0)
            + stats.depth
            + in_flight
            # The mesh ledger pre-aggregates its consumers' in-flight
            # deliveries (plain queues carry no such attribute — pass
            # ``consumers`` for those instead, never both).
            + getattr(stats, "in_flight", 0)  # repro: ignore[LEDGER002]
        )
        assert accepted == fates, (
            f"queue ledger imbalanced{suffix}: accepted {accepted} != fates {fates} "
            f"(acked={stats.acked} expired={stats.expired_at_drain} "
            f"expired_in_flight={getattr(stats, 'expired_in_flight', 0)} "
            f"dlq={stats.dead_lettered} dropped={stats.dropped_new}+"
            f"{stats.dropped_oldest}+{stats.deadline_shed} "
            f"lost={stats.lost_on_crash} "
            f"discarded={getattr(stats, 'discarded_on_crash', 0)} "
            f"transferred={getattr(stats, 'transferred_in', 0)}in/"
            f"{getattr(stats, 'transferred_out', 0)}out "
            f"handoff_dropped={getattr(stats, 'dropped_on_handoff', 0)} "
            f"depth={stats.depth} in_flight={in_flight})"
        )
        return
    conserved = getattr(stats, "conserved", None)
    if conserved is None:
        raise TypeError(f"assert_conserved: unsupported stats object {stats!r}")
    detail = stats.to_metrics() if hasattr(stats, "to_metrics") else stats
    assert conserved, f"ledger imbalanced{suffix}: {detail}"


@pytest.fixture(scope="session")
def assert_conserved():
    """Session-scoped so hypothesis ``@given`` tests can take it freely."""
    return check_conserved
