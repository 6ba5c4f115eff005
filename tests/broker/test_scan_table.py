"""The per-topic scan table: equivalence with a plain scan, and invalidation.

``plan_dispatch`` and ``plan_dispatch_batch`` scan a
:class:`~repro.broker.dispatch.ScanTable` — the topic's subscriptions
lowered once to ``(subscription, matcher)`` pairs.  The lowering may only
change speed: the match tuple (in subscription order) and the
``filters_evaluated`` bill must equal those of a loop that judges every
non-trivial filter on its own, property selectors by the interpreter.
The broker caches one table per topic, so every event that changes a
topic's subscription set must make the next plan equal to a freshly
built broker's.
"""

from hypothesis import given, settings, strategies as st

from repro.broker import (
    Broker,
    CorrelationIdFilter,
    MatchAllFilter,
    Message,
    PropertyFilter,
    plan_dispatch,
    plan_dispatch_batch,
)
from repro.broker.dispatch import ScanTable
from repro.broker.subscriptions import Subscriber, Subscription
from repro.broker.topics import Topic

TOPIC = "t"

# ----------------------------------------------------------------------
# Equivalence with the reference loop
# ----------------------------------------------------------------------
#: (kind, spec) filter descriptions; built into fresh filter objects per
#: example.
_FILTER_SPECS = st.one_of(
    st.just(("all", "")),
    st.sampled_from(["#0", "#1", "7", "x"]).map(lambda spec: ("cid", spec)),
    st.sampled_from(["[0;9]", "[5;13]", "[-3;3]"]).map(lambda spec: ("cid", spec)),
    st.sampled_from(["#*", "sensor-*", "1*"]).map(lambda spec: ("cid", spec)),
    st.sampled_from(
        [
            "a = 1",
            "a > 5",
            "a BETWEEN 2 AND 8",
            "b = 'x'",
            "b LIKE 'x%'",
            "a IS NULL",
            "b IS NOT NULL AND a < 4",
            "JMSPriority >= 5",
            "JMSCorrelationID = '#0'",
            "a = TRUE",
        ]
    ).map(lambda text: ("prop", text)),
)

_MESSAGES = st.builds(
    Message,
    topic=st.just(TOPIC),
    correlation_id=st.sampled_from([None, "#0", "#1", "7", "12", "-2", "sensor-4", "x"]),
    properties=st.fixed_dictionaries(
        {},
        optional={
            "a": st.one_of(st.integers(min_value=0, max_value=10), st.just(True)),
            "b": st.sampled_from(["x", "xy", "y"]),
        },
    ),
    priority=st.integers(min_value=0, max_value=9),
)


def build_filter(kind, spec):
    if kind == "all":
        return MatchAllFilter()
    if kind == "cid":
        return CorrelationIdFilter(spec)
    return PropertyFilter(spec)


def build_subscriptions(specs):
    topic = Topic(TOPIC)
    return [
        Subscription(subscriber=Subscriber(f"s{i}"), topic=topic, filter=build_filter(*spec))
        for i, spec in enumerate(specs)
    ]


def reference_plan(message, subscriptions):
    """The scan the table replaces: one verdict per non-trivial filter,
    property selectors judged by the tree-walking interpreter so the
    compiled matchers in the table are checked against it."""
    matches, evaluated = [], 0
    for subscription in subscriptions:
        filter_ = subscription.filter
        if filter_.is_trivial:
            matches.append(subscription)
            continue
        evaluated += 1
        if isinstance(filter_, PropertyFilter):
            hit = filter_.selector.evaluate(message) is True
        else:
            hit = subscription.matches(message)
        if hit:
            matches.append(subscription)
    return tuple(matches), evaluated


class TestEquivalence:
    @given(
        specs=st.lists(_FILTER_SPECS, max_size=14),
        messages=st.lists(_MESSAGES, min_size=1, max_size=6),
    )
    @settings(max_examples=120, deadline=None)
    def test_table_scan_equals_reference_loop(self, specs, messages):
        subscriptions = build_subscriptions(specs)
        table = ScanTable(subscriptions)
        singles = []
        for message in messages:
            want_matches, want_bill = reference_plan(message, subscriptions)
            for plan in (plan_dispatch(message, table), plan_dispatch(message, subscriptions)):
                assert plan.message is message
                assert plan.matches == want_matches
                assert all(a is b for a, b in zip(plan.matches, want_matches))
                assert plan.filters_evaluated == want_bill
            singles.append(plan_dispatch(message, table))
        for source in (table, subscriptions):
            batched = plan_dispatch_batch(messages, source)
            assert [(p.message, p.matches, p.filters_evaluated) for p in batched] == [
                (p.message, p.matches, p.filters_evaluated) for p in singles
            ]


class TestScanTable:
    def test_lowering_keeps_order_and_marks_match_all(self):
        subscriptions = build_subscriptions(
            [("cid", "#0"), ("all", ""), ("prop", "a = 1"), ("all", "")]
        )
        table = ScanTable(subscriptions)
        assert [s for s, _ in table.entries] == subscriptions
        assert [matcher is None for _, matcher in table.entries] == [False, True, False, True]
        assert table.filters_evaluated == 2

    def test_header_fields_are_the_referenced_volatile_headers(self):
        table = ScanTable(
            build_subscriptions(
                [
                    ("prop", "JMSTimestamp > 0 AND a = 1"),
                    ("prop", "JMSPriority >= 5"),
                    # JMSCorrelationID has its own fingerprint slot.
                    ("prop", "JMSCorrelationID = '#0'"),
                    ("cid", "#0"),
                ]
            )
        )
        assert table.header_fields == ("JMSPriority", "JMSTimestamp")

    def test_empty_table(self):
        table = ScanTable([])
        assert table.entries == ()
        assert table.filters_evaluated == 0
        assert table.header_fields == ()
        assert plan_dispatch(Message(topic=TOPIC), table).matches == ()


# ----------------------------------------------------------------------
# Broker-side caching and invalidation
# ----------------------------------------------------------------------
#: (subscriber id, filter, durable) of the base deployment.
BASE = (
    ("plain", MatchAllFilter(), False),
    ("exact", CorrelationIdFilter("#0"), False),
    ("range", CorrelationIdFilter("[0;9]"), True),
    ("prop", PropertyFilter("a >= 1"), False),
    ("durable-prop", PropertyFilter("a = 1"), True),
)
PROBES = (
    Message(topic=TOPIC, correlation_id="#0", properties={"a": 1}),
    Message(topic=TOPIC, correlation_id="3", properties={"a": 2}),
    Message(topic=TOPIC, correlation_id="#1"),
)


def make_broker(deployment=BASE):
    broker = Broker(topics=[TOPIC])
    for subscriber_id, filter_, durable in deployment:
        broker.add_subscriber(subscriber_id)
        broker.subscribe(subscriber_id, TOPIC, filter_, durable=durable)
    return broker


def plans(broker):
    """What each probe would match and bill, comparable across brokers."""
    return [
        (
            [s.subscriber.subscriber_id for s in plan.matches],
            plan.filters_evaluated,
        )
        for plan in (broker.dry_run(probe) for probe in PROBES)
    ]


def warmed(deployment=BASE):
    """A broker that has published once, so its scan table is built."""
    broker = make_broker(deployment)
    broker.publish(Message(topic=TOPIC, correlation_id="#0", properties={"a": 1}))
    return broker


class TestBrokerCache:
    def test_table_is_built_lazily_and_reused(self):
        broker = make_broker()
        assert broker._tables == {}
        broker.publish(PROBES[0])
        table = broker._tables[TOPIC]
        broker.publish(PROBES[1])
        broker.publish_batch(PROBES)
        assert broker._tables[TOPIC] is table

    def test_filter_count_reads_the_bill(self):
        broker = warmed()
        assert broker.filter_count(TOPIC) == 4
        broker.add_subscriber("late")
        broker.subscribe("late", TOPIC, CorrelationIdFilter("#9"))
        assert broker.filter_count(TOPIC) == 5

    def test_subscribe_changes_the_next_plan(self):
        broker = warmed()
        broker.add_subscriber("late")
        broker.subscribe("late", TOPIC, CorrelationIdFilter("#0"))
        fresh = make_broker(BASE + (("late", CorrelationIdFilter("#0"), False),))
        assert plans(broker) == plans(fresh)

    def test_unsubscribe_changes_the_next_plan(self):
        broker = warmed()
        broker.unsubscribe(broker.subscriptions(TOPIC)[1])
        fresh = make_broker(BASE[:1] + BASE[2:])
        assert plans(broker) == plans(fresh)

    def test_crash_and_recover_keep_only_durable_subscriptions(self):
        broker = warmed()
        report = broker.crash()
        assert report.subscriptions_dropped == 3
        broker.recover()
        fresh = make_broker(tuple(entry for entry in BASE if entry[2]))
        assert plans(broker) == plans(fresh)
        result = broker.publish(Message(topic=TOPIC, correlation_id="5", properties={"a": 1}))
        assert (result.filters_evaluated, result.copies_delivered) == (2, 2)

    def test_filter_index_install_and_remove(self):
        broker = warmed()
        broker.install_filter_index()
        indexed = make_broker()
        indexed.install_filter_index()
        assert plans(broker) == plans(indexed)
        broker.add_subscriber("late")
        broker.subscribe("late", TOPIC, PropertyFilter("a = 2"))
        broker.remove_filter_index()
        fresh = make_broker(BASE + (("late", PropertyFilter("a = 2"), False),))
        assert plans(broker) == plans(fresh)


class TestDeliveryLedger:
    def test_one_delivery_outcome_per_message(self):
        broker = warmed()
        broker.disconnect("durable-prop")  # durable: retains
        broker.disconnect("prop")  # non-durable: drops
        calls = []
        record = broker.stats.record_delivery_outcome

        def counting(**counts):
            calls.append(counts)
            record(**counts)

        broker.stats.record_delivery_outcome = counting
        result = broker.publish(Message(topic=TOPIC, correlation_id="#0", properties={"a": 1}))
        assert calls == [{"inbox_dropped": 0, "retained": 1, "dropped_offline": 1}]
        assert (result.copies_delivered, result.copies_retained, result.copies_dropped) == (2, 1, 1)
        snapshot = broker.stats.snapshot()
        assert (snapshot["retained"], snapshot["dropped_offline"]) == (1, 1)
