"""Mesh batch routing: one decision per destination, same observables."""

from repro.broker import DeliveryMode, Message, PropertyFilter
from repro.mesh.sharded import ShardedBroker
from repro.overload.health import HealthState


def build_mesh(hop_latency=0.0):
    mesh = ShardedBroker(["s0", "s1", "s2"], hop_latency=hop_latency)
    for i in range(6):
        mesh.subscribe(
            f"sub{i}",
            f"orders.t{i % 3}",
            message_filter=PropertyFilter("quantity > 1") if i % 2 else None,
        )
    return mesh


def topic_messages(count, expirations=(None,)):
    return [
        Message(
            topic=f"orders.t{i % 3}",
            body=b"m%d" % i,
            properties={"quantity": i % 5},
            expiration=expirations[i % len(expirations)],
        )
        for i in range(count)
    ]


def inbox_log(mesh):
    out = {}
    for shard in mesh.shards():
        for topic in shard.broker.topics:
            for sub in shard.broker.subscriptions(topic.name):
                out.setdefault(sub.subscriber.subscriber_id, []).extend(
                    d.message.body for d in sub.subscriber.inbox
                )
    return out


class TestPublishBatch:
    def test_matches_sequential_routing(self):
        # Second pass: a 0.5 s hop sheds the messages that expire at 0.3 s
        # mid-hop; those expiring at 0.8 s still land.
        for hop_latency, expirations in ((0.0, (None,)), (0.5, (None, 0.3, 0.8))):
            messages = topic_messages(24, expirations)
            sequential, batched = build_mesh(hop_latency), build_mesh(hop_latency)
            seq_results = [sequential.publish(m, now=0.0) for m in messages]
            bat_results = batched.publish_batch(messages, now=0.0)
            assert len(bat_results) == len(messages)
            assert [r is None for r in seq_results] == [r is None for r in bat_results]
            assert inbox_log(sequential) == inbox_log(batched)
            assert [r and r.copies_delivered for r in seq_results] == [
                r and r.copies_delivered for r in bat_results
            ]
            assert sequential.expired_on_hop == batched.expired_on_hop
            assert sequential.expired_on_hop == (8 if hop_latency else 0)
            assert sequential.routed_publishes == batched.routed_publishes == 24

    def test_unavailable_owner_refuses_whole_slice(self):
        messages = topic_messages(12)
        mesh = build_mesh()
        owner = mesh.owner_id("topic", "orders.t0")
        mesh.set_health(owner, HealthState.SHEDDING)
        results = mesh.publish_batch(messages, now=0.0)
        refused = [i for i, r in enumerate(results) if r is None]
        assert refused == [
            i
            for i, m in enumerate(messages)
            if mesh.owner_id("topic", m.topic) == owner
        ]
        assert refused  # the shedding owner holds at least orders.t0
        assert mesh.shed_unavailable == len(refused)
        assert mesh.routed_publishes == len(messages) - len(refused)

    def test_empty_batch_is_a_no_op(self):
        mesh = build_mesh()
        assert mesh.publish_batch([], now=0.0) == []
        assert mesh.routed_publishes == 0


class TestSendBatch:
    def test_matches_sequential_sends(self):
        messages = [
            Message(topic="q", body=b"q%d" % i, delivery_mode=DeliveryMode.PERSISTENT)
            for i in range(10)
        ]
        sequential, batched = build_mesh(), build_mesh()
        for m in messages:
            sequential.send("work", m, now=0.0)
        batched.send_batch("work", messages, now=0.0)
        seq_q = sequential.owner_shard("queue", "work").broker.queues.create("work")
        bat_q = batched.owner_shard("queue", "work").broker.queues.create("work")
        assert seq_q.depth == bat_q.depth == 10
        assert sequential.routed_sends == batched.routed_sends == 10
        assert sequential.mesh_ledger().conserved
        assert batched.mesh_ledger().conserved

    def test_migrating_queue_defers_per_message(self):
        from repro.mesh.ring import placement_key

        mesh = build_mesh()
        mesh.create_queue("work")
        mesh.membership.table.begin_migration([placement_key("queue", "work")])
        delivered = mesh.send_batch(
            "work", [Message(topic="q", body=b"x")] * 4, now=0.0
        )
        assert delivered == 0
        assert mesh.deferred_migrating == 4

    def test_unavailable_owner_sheds_per_message(self):
        mesh = build_mesh()
        mesh.create_queue("work")
        owner = mesh.owner_id("queue", "work")
        mesh.set_health(owner, HealthState.SHEDDING)
        delivered = mesh.send_batch(
            "work", [Message(topic="q", body=b"x")] * 3, now=0.0
        )
        assert delivered == 0
        assert mesh.shed_unavailable == 3
