"""Filter evaluation and dispatch planning.

For every received message the server checks the filter of **every**
subscription on the message's topic, one after another.  The paper verifies
that FioranoMQ gains nothing from identical filters, i.e. it performs no
filter-sharing optimization — so the evaluation here is deliberately a
plain linear scan, and the returned plan reports exactly how many
non-trivial filters were evaluated (each costs ``t_fltr`` in the CPU
model) and how many copies will be sent (each costs ``t_tx``).

The scan runs over a :class:`ScanTable`: the topic's subscriptions
lowered once to ``(subscription, matcher)`` pairs, so evaluating one
filter is one call of its hoisted predicate.  Lowering changes how fast
a filter is evaluated, never which filters are evaluated or how many.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from .filters import PropertyFilter
from .message import Message
from .subscriptions import Subscription

__all__ = ["DispatchPlan", "ScanTable", "VOLATILE_HEADERS", "plan_dispatch", "plan_dispatch_batch"]

#: Headers a selector may reference that are NOT already part of the
#: dispatch-memo fingerprint key (topic covers ``JMSDestination``; the
#: correlation ID has its own key slot).  A :class:`ScanTable` records
#: the subset its topic's selectors mention as ``header_fields``.
VOLATILE_HEADERS = frozenset(
    {"JMSMessageID", "JMSPriority", "JMSTimestamp", "JMSDeliveryMode", "JMSRedelivered"}
)


@dataclass(frozen=True)
class DispatchPlan:
    """The outcome of matching one message against a topic's subscriptions.

    Attributes
    ----------
    message:
        The message being dispatched.
    matches:
        Subscriptions whose filter accepted the message, in subscription
        order (delivery is in-order per the persistent mode).
    filters_evaluated:
        Number of non-trivial filter evaluations performed; drives the
        ``n_fltr · t_fltr`` CPU charge.
    """

    message: Message
    matches: tuple[Subscription, ...]
    filters_evaluated: int

    @property
    def replication_grade(self) -> int:
        """``R`` — the number of copies that will be sent."""
        return len(self.matches)


class ScanTable:
    """A topic's subscriptions lowered once for the linear scan.

    ``entries`` holds one ``(subscription, matcher)`` pair per
    subscription, in installation order; ``matcher`` is the filter's
    hoisted :meth:`~repro.broker.filters.MessageFilter.matcher`, or
    ``None`` for a match-all subscription, which receives every message
    without a filter evaluation.  ``filters_evaluated`` is the constant
    per-message bill of one scan (the number of non-trivial filters,
    ``n_fltr``), and ``header_fields`` the volatile headers the topic's
    selectors can observe, which a dispatch-memo fingerprint must cover.

    The table is a snapshot: the broker drops it whenever the topic's
    subscription set changes and lowers the new set on the next plan.
    """

    __slots__ = ("entries", "filters_evaluated", "header_fields")

    def __init__(self, subscriptions: Iterable[Subscription]):
        entries: List[Tuple[Subscription, Optional[Callable[[Message], bool]]]] = []
        headers: set = set()
        for subscription in subscriptions:
            filter_ = subscription.filter
            if filter_.is_trivial:
                entries.append((subscription, None))
                continue
            entries.append((subscription, filter_.matcher()))
            if isinstance(filter_, PropertyFilter):
                headers.update(filter_.selector.identifiers & VOLATILE_HEADERS)
        self.entries = tuple(entries)
        self.filters_evaluated = sum(1 for _, matcher in entries if matcher is not None)
        self.header_fields: Tuple[str, ...] = tuple(sorted(headers))


Subscriptions = Union[ScanTable, Sequence[Subscription]]


def plan_dispatch(message: Message, subscriptions: Subscriptions) -> DispatchPlan:
    """Linearly evaluate every subscription's filter against ``message``.

    Match-all subscriptions (no filter installed) receive the message
    without a filter evaluation; all other filters are evaluated
    unconditionally, matching the measured FioranoMQ behaviour.  A plain
    subscription sequence is lowered to a :class:`ScanTable` first.
    """
    table = subscriptions if isinstance(subscriptions, ScanTable) else ScanTable(subscriptions)
    matches = [
        subscription
        for subscription, matcher in table.entries
        if matcher is None or matcher(message)
    ]
    return DispatchPlan(message, tuple(matches), table.filters_evaluated)


def plan_dispatch_batch(
    messages: Sequence[Message], subscriptions: Subscriptions
) -> List[DispatchPlan]:
    """Plan a batch of messages over one lowered table.

    The subscriptions are lowered once for the whole batch (a broker
    passes its cached per-topic table), and every message is then
    scanned exactly as :func:`plan_dispatch` scans it: the verdicts and
    the per-message ``filters_evaluated`` bill are identical.
    """
    table = subscriptions if isinstance(subscriptions, ScanTable) else ScanTable(subscriptions)
    return [plan_dispatch(message, table) for message in messages]
