"""Batched publish: observable equivalence with the sequential loop.

``Broker.publish_batch`` may regroup planning work (one filter pass per
(topic, property-shape) group) and coalesce delivery into contiguous
runs, but nothing *observable* may move: per-subscriber inbox order,
per-message copy counts, retained/dropped/expired verdicts, journal
record counts and the queue-ledger legs must all match what the same
messages produce through a sequential ``publish``/``send`` loop — and a
batch of one must be bit-identical, stats included.
"""

from hypothesis import given, settings, strategies as st

from repro.broker import (
    Broker,
    CorrelationIdFilter,
    DeliveryMode,
    Message,
    PropertyFilter,
)
from repro.durability.journal import Journal

SELECTORS = (
    "quantity > 2",
    "quantity <= 2",
    "region = 'EU'",
    "region = 'EU' AND quantity > 1",
    "price IS NULL",
)


def make_broker(topic="t", durable_offline=False, journal=None, memo=False, index=False):
    broker = Broker(topics=[topic], journal=journal)
    for i, text in enumerate(SELECTORS):
        broker.add_subscriber(f"s{i}")
        broker.subscribe(f"s{i}", topic, PropertyFilter(text))
    broker.add_subscriber("cid")
    broker.subscribe("cid", topic, CorrelationIdFilter("want"))
    if durable_offline:
        broker.add_subscriber("d0")
        broker.subscribe("d0", topic, PropertyFilter("quantity > 0"), durable=True)
        broker.disconnect("d0")
    if index:
        broker.install_filter_index(canonicalize=True)
    if memo:
        broker.install_dispatch_memo()
    return broker


def inbox_log(broker, topic="t"):
    """Per-subscriber delivered message ids, in inbox order."""
    return {
        sub.subscriber.subscriber_id: [
            d.message.message_id for d in sub.subscriber.inbox
        ]
        for sub in broker.subscriptions(topic)
    }


message_strategy = st.builds(
    Message,
    topic=st.just("t"),
    correlation_id=st.sampled_from([None, "want", "other"]),
    properties=st.fixed_dictionaries(
        {},
        optional={
            "quantity": st.integers(min_value=0, max_value=4),
            "region": st.sampled_from(["EU", "US"]),
            "price": st.floats(allow_nan=False, allow_infinity=False, width=16),
        },
    ),
    expiration=st.sampled_from([None, 10.0]),
    delivery_mode=st.sampled_from(list(DeliveryMode)),
)


class TestBatchPublishEquivalence:
    """Property suite run by the check_static equivalence gate."""

    @given(st.lists(message_strategy, min_size=0, max_size=12), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_delivery_matches_sequential_loop(self, messages, index):
        sequential = make_broker(durable_offline=True, index=index)
        batched = make_broker(durable_offline=True, index=index)
        now = 5.0
        seq_results = [sequential.publish(m, now=now) for m in messages]
        batch = batched.publish_batch(messages, now=now)
        assert len(batch) == len(messages)
        assert inbox_log(sequential) == inbox_log(batched)
        for seq, bat in zip(seq_results, batch.results):
            assert seq.copies_delivered == bat.copies_delivered
            assert seq.copies_retained == bat.copies_retained
            assert seq.copies_dropped == bat.copies_dropped
            assert seq.expired == bat.expired
        for sub in batched.subscriptions("t"):
            if sub.durable:
                twin = next(
                    s
                    for s in sequential.subscriptions("t")
                    if s.subscriber.subscriber_id == sub.subscriber.subscriber_id
                )
                assert [m.message_id for m in sub.retained] == [
                    m.message_id for m in twin.retained
                ]

    @given(st.lists(message_strategy, min_size=0, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_warm_memo_delivery_matches(self, messages):
        sequential = make_broker(memo=True)
        batched = make_broker(memo=True)
        for broker in (sequential, batched):
            broker.publish_batch(messages, now=5.0)  # prime
        for m in messages:
            sequential.publish(m, now=5.0)
        batched.publish_batch(messages, now=5.0)
        assert inbox_log(sequential) == inbox_log(batched)

    @given(message_strategy)
    @settings(max_examples=40, deadline=None)
    def test_batch_of_one_is_bit_identical(self, message):
        sequential = make_broker(durable_offline=True)
        batched = make_broker(durable_offline=True)
        seq = sequential.publish(message, now=5.0)
        bat = batched.publish_batch([message], now=5.0)
        assert len(bat.results) == 1
        assert seq.filters_evaluated == bat.results[0].filters_evaluated
        assert sequential.stats.snapshot() == batched.stats.snapshot()


class TestBatchAccounting:
    def test_cold_group_bills_filters_once(self):
        broker = make_broker()
        same = [Message(topic="t", properties={"quantity": 3}) for _ in range(4)]
        batch = broker.publish_batch(same, now=0.0)
        bills = [r.filters_evaluated for r in batch.results]
        assert bills[0] > 0
        assert bills[1:] == [0, 0, 0]
        assert batch.groups == 1

    def test_warm_group_counts_one_batch_hit(self):
        broker = make_broker(memo=True)
        same = [Message(topic="t", properties={"quantity": 3}) for _ in range(4)]
        broker.publish_batch(same, now=0.0)
        assert broker.stats.batch_hits == 0
        batch = broker.publish_batch(same, now=0.0)
        assert batch.warm_groups == 1
        assert broker.stats.batch_hits == 1
        assert broker.stats.batch_messages == 4
        assert all(r.filters_evaluated == 0 for r in batch.results)

    def test_unknown_topic_raises_like_scalar(self):
        broker = make_broker()
        broker.topics.freeze()
        good = Message(topic="t")
        bad = Message(topic="nope")
        before = (broker.stats.snapshot(), inbox_log(broker))
        try:
            broker.publish_batch([good, bad], now=0.0)
        except Exception as batch_error:
            # A rejected batch leaves no trace: no counter, no delivery.
            assert (broker.stats.snapshot(), inbox_log(broker)) == before
            try:
                broker.publish(bad, now=0.0)
            except Exception as scalar_error:
                assert type(batch_error) is type(scalar_error)
            else:  # pragma: no cover - defensive
                raise AssertionError("scalar publish accepted unknown topic")
        else:  # pragma: no cover - defensive
            raise AssertionError("publish_batch accepted unknown topic")

    def test_journal_records_match_sequential(self):
        seq_journal, bat_journal = Journal(), Journal()
        sequential = make_broker(durable_offline=True, journal=seq_journal)
        batched = make_broker(durable_offline=True, journal=bat_journal)
        messages = [
            Message(
                topic="t",
                properties={"quantity": i % 4},
                delivery_mode=(
                    DeliveryMode.PERSISTENT if i % 3 else DeliveryMode.NON_PERSISTENT
                ),
            )
            for i in range(9)
        ]
        for m in messages:
            sequential.publish(m, now=0.0)
        batched.publish_batch(messages, now=0.0)
        assert seq_journal.records_appended == bat_journal.records_appended
        assert batched.journal_write_failures == 0


class TestSendBatch:
    def test_bounded_queue_matches_sequential(self, assert_conserved):
        def build():
            broker = Broker()
            queue = broker.queues.create("work", capacity=5)
            return broker, queue

        messages = [
            Message(topic="q", body=b"x" * (i % 3), expiration=2.0 if i % 4 == 0 else None)
            for i in range(12)
        ]
        seq_broker, seq_queue = build()
        bat_broker, bat_queue = build()
        for m in messages:
            seq_queue.send(m, now=1.0)
        bat_queue.send_batch(messages, now=1.0)
        for name in ("enqueued", "depth", "dropped_new", "dropped_oldest"):
            assert getattr(seq_queue, name, None) == getattr(bat_queue, name, None)
        assert seq_broker.stats.snapshot() == bat_broker.stats.snapshot()
        assert_conserved(bat_queue, consumers=bat_queue.consumers, context="send_batch")
        assert_conserved(seq_queue, consumers=seq_queue.consumers, context="send loop")

    def test_drains_to_attached_consumer(self):
        from repro.broker import QueueConsumer

        broker = Broker()
        queue = broker.queues.create("work")
        queue.attach(QueueConsumer("c0"))
        delivered = queue.send_batch(
            [Message(topic="q", body=b"%d" % i) for i in range(6)], now=0.0
        )
        assert delivered == 6
