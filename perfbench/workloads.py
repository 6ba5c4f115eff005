"""The benchmark's four workloads.

Every workload is a closed loop: one caller makes a call into the
in-process library, waits for it to return, then makes the next.  All
inputs are generated from the seed before timing starts and are reused
chunk after chunk, so each chunk repeats the same stated message count.
Outputs are checked against a reference outside the timed sections; a
mismatch is recorded in ``problems`` and makes the run incorrect.

A workload exposes:

``prepare()``
    Set up the system ``setup_reps`` times (each set-up timed into
    ``setup_samples``) and generate the inputs.
``chunk()``
    Run one chunk: per-call latencies go to ``latencies`` (the calls not
    yet summarised; every ``WINDOW`` calls give one p99); ``messages``,
    ``busy_s`` (timed sections only) and ``wall_s`` (every section that
    calls into the library) accumulate.
``finish()``
    End-of-run checks.
``counts()``
    Cumulative layer counters, read before and after the traced phase.
"""

from __future__ import annotations

import math
import random
import string
import time
from array import array
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import service_model_for_cvar
from repro.bench.hotpath import SELECTOR_CORPUS, message_corpus
from repro.broker import (
    Broker,
    DeliveryMode,
    Message,
    PropertyFilter,
    QueueConsumer,
    plan_dispatch,
)
from repro.broker import selector as selector_package
from repro.broker.selector import compile as selector_compile
from repro.core import CORRELATION_ID_COSTS, MG1Queue, ReplicationFamily
from repro.core.params import FilterType
from repro.durability.disk import SimulatedDisk
from repro.durability.journal import Journal, SyncPolicy
from repro.durability.recovery import collect_live_entries
from repro.simulation import engine as engine_module
from repro.simulation import queueing
from repro.simulation.rng import RandomStreams
from repro.testbed.scenario import MATCH_VALUE, TOPIC_NAME, build_filter_scenario

clock = time.perf_counter


class Workload:
    name = ""
    #: Set-ups timed in ``prepare`` for the ``setup_s`` median.
    setup_reps = 9
    #: Chunks run untraced, then traced, in a ``--trace 1`` run.
    trace_chunks = (4, 2)
    #: Calls per latency window; each window gives one p99 with at least
    #: 10 calls beyond it.
    WINDOW = 1024

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        #: < 1 shrinks every input for the self-test; 1 is the benchmark.
        self.scale = scale
        self.problems: List[str] = []
        self.setup_samples: List[float] = []
        #: Seconds per timed call not yet summarised, in call order.  Whole
        #: windows are folded into ``window_p99s`` at the end of each chunk,
        #: so the array stays small and a longer run does not grow the
        #: memory ``peak_rss_mb`` reports.
        self.latencies = array("d")
        self._chunk_start = 0
        #: p99 of each completed window of ``WINDOW`` calls, in call order.
        self.window_p99s: List[float] = []
        self.messages = 0
        self.calls = 0
        self.failed = 0
        self.busy_s = 0.0
        self.wall_s = 0.0
        #: Raw per-chunk samples: (messages, busy seconds, median call seconds).
        self.chunk_samples: List[Tuple[int, float, float]] = []

    def sized(self, count: int, floor: int = 1) -> int:
        return max(floor, int(count * self.scale))

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def build(self) -> Any:
        """Set up the system under test (what ``setup_s`` times)."""
        raise NotImplementedError

    def timed_setups(self, count: int) -> Any:
        """Build ``count`` times, timing each; returns the last system."""
        system = None
        for _ in range(count):
            start = clock()
            system = self.build()
            self.setup_samples.append(clock() - start)
        return system

    def setup_again(self) -> None:
        """One more timed set-up, thrown away.  The runner calls this
        between chunks so ``setup_s`` samples the whole run, not one
        moment of it."""
        self.timed_setups(1)

    def record_chunk(self, messages: int, busy: float, wall: float) -> None:
        self.messages += messages
        self.busy_s += busy
        self.wall_s += wall
        calls = sorted(self.latencies[self._chunk_start :])
        self.chunk_samples.append((messages, busy, calls[len(calls) // 2] if calls else 0.0))
        window = self.WINDOW
        rank = math.ceil(window * 0.99)
        while len(self.latencies) >= window:
            self.window_p99s.append(sorted(self.latencies[:window])[rank - 1])
            del self.latencies[:window]
        self._chunk_start = len(self.latencies)

    def prepare(self) -> None:
        raise NotImplementedError

    def chunk(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass

    def counts(self) -> Dict[str, float]:
        return {}

    def extra(self) -> Dict[str, Any]:
        """Workload-specific end-to-end figures for the printed report."""
        return {}


# ----------------------------------------------------------------------
# fig4-corr-linear
# ----------------------------------------------------------------------
class Fig4CorrLinear(Workload):
    """The paper's Fig. 4 cell through ``Broker.publish``."""

    name = "fig4-corr-linear"
    setup_reps = 25
    WINDOW = 4096
    REPLICATION = 4
    ADDITIONAL = 40
    FILTERS = REPLICATION + ADDITIONAL
    CHUNK = 4096

    def build(self) -> Broker:
        scenario = build_filter_scenario(
            FilterType.CORRELATION_ID, self.REPLICATION, self.ADDITIONAL
        )
        return scenario.broker

    def prepare(self) -> None:
        self.broker = self.timed_setups(self.setup_reps)
        self.subscribers = [self.broker.get_subscriber(s) for s in self.broker.subscriber_ids()]
        rng = random.Random(self.seed)
        # Priority and timestamp vary with the seed; no filter reads them.
        self.pool = [
            Message(
                topic=TOPIC_NAME,
                correlation_id=MATCH_VALUE,
                priority=rng.randrange(10),
                timestamp=rng.random(),
                delivery_mode=DeliveryMode.NON_PERSISTENT,
            )
            for _ in range(self.sized(self.CHUNK, 64))
        ]
        self.copies = 0
        self.filters = 0

    def chunk(self) -> None:
        publish = self.broker.publish
        latency = self.latencies.append
        filters, grade = self.FILTERS, self.REPLICATION
        failed = wrong = copies = billed = 0
        start = clock()
        for message in self.pool:
            begin = clock()
            try:
                result = publish(message)
            except Exception:  # a failed publish is counted, not fatal
                failed += 1
                continue
            latency(clock() - begin)
            # Every result carries the paper's bill and fan-out.
            copies += result.copies_delivered
            billed += result.filters_evaluated
            if result.filters_evaluated != filters or result.replication_grade != grade:
                wrong += 1
        busy = clock() - start
        self.record_chunk(len(self.pool), busy, busy)
        self.calls += len(self.pool)
        self.failed += failed
        published = len(self.pool) - failed
        self.filters += billed
        self.copies += copies
        if wrong:
            self.problem(
                f"{wrong} publishes did not bill {filters} filters and R={grade}"
            )
        # Untimed: each matching inbox got every message, the others none.
        for subscriber in self.subscribers:
            want = published if subscriber.subscriber_id.startswith("match-") else 0
            if len(subscriber.inbox) != want:
                self.problem(
                    f"{subscriber.subscriber_id} holds {len(subscriber.inbox)} copies,"
                    f" expected {want}"
                )
            subscriber.inbox.clear()

    def finish(self) -> None:
        snapshot = self.broker.stats.snapshot()
        published = self.calls - self.failed
        want = {
            "received": published,
            "dispatched": self.REPLICATION * published,
            "filters_evaluated": self.FILTERS * published,
        }
        for key, value in want.items():
            if snapshot[key] != value:
                self.problem(f"stats {key} = {snapshot[key]}, expected {value}")

    def counts(self) -> Dict[str, float]:
        return {
            "messages": self.messages,
            "calls": self.calls,
            "copies": self.copies,
            "filters": self.filters,
            "busy_s": self.busy_s,
            "wall_s": self.wall_s,
        }


# ----------------------------------------------------------------------
# selector-memo-batch
# ----------------------------------------------------------------------
def _cold_selector_caches() -> None:
    """Empty the process-wide selector parse and compile caches, so each
    timed set-up parses and compiles its selectors as a fresh process
    would."""
    parse_cache = getattr(selector_package, "_parse_cached", None)
    if parse_cache is not None and hasattr(parse_cache, "cache_clear"):
        parse_cache.cache_clear()
    compiled = getattr(selector_compile, "_COMPILED_CACHE", None)
    if isinstance(compiled, dict):
        compiled.clear()


class SelectorMemoBatch(Workload):
    """Compiled property selectors, dispatch memo, ``publish_batch`` of 64.

    The subscriptions and message properties are the repository's own
    representative corpus (``repro.bench.hotpath``): every topic carries
    ``SELECTOR_CORPUS``, each selector narrowed by a ``quantity`` equality
    as in ``repro.bench.batch``'s selective population, and each message
    shape takes every property (or its absence) and the priority from a
    randomly drawn ``message_corpus`` message.  So IS [NOT] NULL, LIKE …
    ESCAPE, UNKNOWN from a missing price and the JMSPriority header the
    memo has to fingerprint are all reached.  The popularity skew (Zipf
    0.9), the shape pool (512 per topic) and the memo size (128) are
    assumptions, not measured traffic: they keep the pool larger than the
    memo so the hit ratio stays inside (0, 1).
    """

    name = "selector-memo-batch"
    setup_reps = 7
    trace_chunks = (4, 4)
    TOPICS = ("quotes.eu", "quotes.us", "quotes.apac", "quotes.latam")
    #: Two subscriptions per corpus selector on every topic.
    SUBSCRIBERS_PER_TOPIC = 2 * len(SELECTOR_CORPUS)
    #: ``message_corpus`` repeats its absent-price (1 in 5), note (1 in 3),
    #: region and priority patterns every 60 messages.
    CORPUS = 60
    SHAPES_PER_TOPIC = 512
    MEMO_SIZE = 128
    ZIPF = 0.9
    BATCH = 64
    #: Distinct batches in the input: enough that a latency percentile is
    #: a property of the traffic, not of a few batches that recur.
    BATCHES = 512
    #: Batches per chunk; chunks take the input's blocks in turn.  Short
    #: chunks (≈0.2 s) let the per-chunk deciles see the host's speed
    #: spells, which last about a second.
    CHUNK_BATCHES = 128

    def _deployment(self) -> List[Tuple[str, str, str]]:
        deployment = []
        for topic in self.TOPICS:
            for index in range(self.SUBSCRIBERS_PER_TOPIC):
                base = SELECTOR_CORPUS[index % len(SELECTOR_CORPUS)]
                deployment.append(
                    (f"{topic}/sub-{index:02d}", topic, f"({base}) AND quantity = {index}")
                )
        return deployment

    def _shapes(self, rng: random.Random) -> List[Tuple[str, Dict[str, object], int]]:
        corpus = message_corpus(self.CORPUS)
        names = sorted({name for message in corpus for name in message.properties})
        shapes: List[Tuple[str, Dict[str, object], int]] = []
        per_topic = self.sized(self.SHAPES_PER_TOPIC, 8)
        for topic in self.TOPICS:
            seen = set()
            while len(seen) < per_topic:
                props: Dict[str, object] = {}
                for name in names:
                    donor = rng.choice(corpus).properties
                    if name in donor:
                        props[name] = donor[name]
                priority = rng.choice(corpus).priority
                key = (tuple(sorted(props.items())), priority)
                if key not in seen:
                    seen.add(key)
                    shapes.append((topic, props, priority))
        return shapes

    def build(self) -> Broker:
        _cold_selector_caches()
        broker = Broker(topics=self.TOPICS, freeze_topics=True)
        for subscriber_id, topic, text in self.deployment:
            broker.add_subscriber(subscriber_id)
            subscription = broker.subscribe(subscriber_id, topic, PropertyFilter(text))
            subscription.filter.matcher()  # compile before the first timed call
        broker.install_dispatch_memo(self.MEMO_SIZE)
        return broker

    def prepare(self) -> None:
        self.deployment = self._deployment()
        self.broker = self.timed_setups(self.setup_reps)
        rng = random.Random(self.seed)
        self.subscribers = [self.broker.get_subscriber(s) for s in self.broker.subscriber_ids()]
        shapes = self._shapes(rng)
        # Zipf popularity over the shapes, in a seeded random rank order.
        rng.shuffle(shapes)
        weights = [1.0 / (rank + 1) ** self.ZIPF for rank in range(len(shapes))]
        total = self.sized(self.BATCHES, 4) * self.BATCH
        drawn = rng.choices(shapes, weights=weights, k=total)
        messages = [
            Message(
                topic=topic,
                properties=dict(props),
                priority=priority,
                delivery_mode=DeliveryMode.NON_PERSISTENT,
            )
            for topic, props, priority in drawn
        ]
        self.batches = [messages[i : i + self.BATCH] for i in range(0, total, self.BATCH)]
        per_chunk = min(self.CHUNK_BATCHES, len(self.batches))
        self.blocks = [
            self.batches[i : i + per_chunk] for i in range(0, len(self.batches), per_chunk)
        ]
        self.next_block = 0
        # Reference: an unmemoized per-message linear plan, untimed.
        self.reference = {
            message.message_id: sorted(
                s.subscriber.subscriber_id
                for s in plan_dispatch(message, self.broker.subscriptions(message.topic)).matches
            )
            for message in messages
        }
        self.copies = 0
        self.filters = 0
        self.groups = 0
        self.warm_groups = 0

    def chunk(self) -> None:
        publish_batch = self.broker.publish_batch
        latency = self.latencies.append
        failed = groups = warm_groups = copies = filters = 0
        batches = self.blocks[self.next_block % len(self.blocks)]
        self.next_block += 1
        start = clock()
        for batch in batches:
            begin = clock()
            try:
                result = publish_batch(batch)
            except Exception:  # a failed batch is counted, not fatal
                failed += 1
                continue
            latency(clock() - begin)
            # Tallied here, not kept for later: holding every result until
            # the chunk ends would add garbage-collector work (and pauses
            # inside timed calls) that the broker itself does not cause.
            groups += result.groups
            warm_groups += result.warm_groups
            copies += result.copies_delivered
            filters += result.filters_evaluated
        busy = clock() - start
        messages = sum(len(batch) for batch in batches)
        self.record_chunk(messages, busy, busy)
        self.calls += len(batches)
        self.failed += failed
        self.groups += groups
        self.warm_groups += warm_groups
        self.copies += copies
        self.filters += filters
        # Untimed: the copies each message reached equal the reference.
        delivered: Dict[int, List[str]] = defaultdict(list)
        for subscriber in self.subscribers:
            for delivery in subscriber.inbox:
                delivered[delivery.message.message_id].append(subscriber.subscriber_id)
            subscriber.inbox.clear()
        for batch in batches:
            for message in batch:
                want = self.reference[message.message_id]
                got = sorted(delivered.get(message.message_id, ()))
                if got != want:
                    self.problem(f"message {message.message_id} reached {got}, reference {want}")
                    return

    def memo_counts(self) -> Tuple[int, int, int]:
        hits = misses = evictions = 0
        for topic in self.TOPICS:
            memo = self.broker.dispatch_memo(topic)
            if memo is not None:
                hits += memo.hits
                misses += memo.misses
                evictions += memo.evictions
        return hits, misses, evictions

    def counts(self) -> Dict[str, float]:
        hits, misses, evictions = self.memo_counts()
        return {
            "messages": self.messages,
            "calls": self.calls,
            "batches": self.calls,
            "copies": self.copies,
            "filters": self.filters,
            "groups": self.groups,
            "warm_groups": self.warm_groups,
            "memo_hits": hits,
            "memo_misses": misses,
            "memo_evictions": evictions,
            "busy_s": self.busy_s,
            "wall_s": self.wall_s,
        }

    def extra(self) -> Dict[str, Any]:
        hits, misses, _ = self.memo_counts()
        return {"memo_hit_ratio": hits / max(1, hits + misses)}


# ----------------------------------------------------------------------
# durable-queue
# ----------------------------------------------------------------------
class DurableQueue(Workload):
    """Persistent send -> receive -> ack through a journalled queue."""

    name = "durable-queue"
    trace_chunks = (4, 1)
    WINDOW = 2048
    QUEUE = "orders"
    STEPS = 2048
    CHECKPOINT_EVERY = 512
    UNACKED = 64
    SYNC_BATCH = 8

    def build(self) -> Tuple[Broker, Journal, Any, QueueConsumer]:
        disk = SimulatedDisk(RandomStreams(seed=self.seed))
        journal = Journal(disk, sync=SyncPolicy.group_commit(batch=self.SYNC_BATCH))
        broker = Broker(journal=journal)
        queue = broker.queues.create(self.QUEUE)
        consumer = QueueConsumer("worker")
        queue.attach(consumer)
        return broker, journal, queue, consumer

    def setup_again(self) -> None:
        pass  # every chunk sets up a fresh broker and times it

    def prepare(self) -> None:
        self.timed_setups(self.setup_reps)
        rng = random.Random(self.seed)
        self.steps = self.sized(self.STEPS, 16)
        self.checkpoint_every = self.sized(self.CHECKPOINT_EVERY, 4)
        self.unacked = self.sized(self.UNACKED, 2)
        self.pool = [
            Message(
                topic=self.QUEUE,
                properties={
                    "order": index,
                    "customer": "".join(rng.choice(string.ascii_lowercase) for _ in range(8)),
                    "amount": round(rng.uniform(1.0, 500.0), 2),
                },
                body=bytes(rng.randrange(256) for _ in range(rng.randrange(16, 128))),
                delivery_mode=DeliveryMode.PERSISTENT,
            )
            for index in range(self.steps + self.unacked)
        ]
        self.recovery_samples: List[float] = []
        self.records = 0
        self.bytes = 0
        self.syncs = 0
        self.rotations = 0
        self.recovered_records = 0
        self.requeued = 0
        self.backlog_max = 0

    def chunk(self) -> None:
        wall_start = clock()
        begin = clock()
        broker, journal, queue, consumer = self.build()
        self.setup_samples.append(clock() - begin)
        disk_before = journal.disk.bytes_written
        send, receive, ack = queue.send, consumer.receive, consumer.ack
        latency = self.latencies.append
        acked = self.pool[: self.steps]
        failed = 0
        start = clock()
        for index, message in enumerate(acked, 1):
            begin = clock()
            try:
                sent = send(message)
                delivery = receive()
                ack(delivery)
            except Exception:  # a failed step is counted, not fatal
                failed += 1
                continue
            latency(clock() - begin)
            if not sent:
                failed += 1
            if index % self.checkpoint_every == 0 and index < self.steps:
                journal.checkpoint(collect_live_entries(broker))
        # The backlog recovery must requeue: received, never acknowledged.
        for message in self.pool[self.steps :]:
            if not send(message) or receive() is None:
                failed += 1
        busy = clock() - start
        self.calls += len(self.pool)
        self.failed += failed
        backlog = queue.enqueued - queue.acked
        self.backlog_max = max(self.backlog_max, backlog)
        want = {
            "enqueued": len(self.pool),
            "delivered": len(self.pool),
            "acked": self.steps,
            "unacked": self.unacked,
            "depth": 0,
        }
        got = {
            "enqueued": queue.enqueued,
            "delivered": queue.delivered,
            "acked": queue.acked,
            "unacked": len(consumer.unacked),
            "depth": queue.depth,
        }
        if got != want:
            self.problem(f"queue ledger before the crash {got}, expected {want}")
        self.records += journal.records_appended
        self.syncs += journal.syncs
        self.rotations += journal.rotations

        begin = clock()
        broker.crash()
        broker.recover()
        self.recovery_samples.append(clock() - begin)
        report = broker.last_recovery
        self.bytes += journal.disk.bytes_written - disk_before
        if report is None or report.errors:
            self.problem(f"recovery errors: {None if report is None else report.errors}")
        elif report.requeued != self.unacked or queue.depth != self.unacked:
            self.problem(
                f"recovery requeued {report.requeued} (depth {queue.depth}),"
                f" expected the {self.unacked} unacked"
            )
        else:
            self.recovered_records += report.records_replayed
            self.requeued += report.requeued
        self.record_chunk(len(self.pool), busy, clock() - wall_start)

    def counts(self) -> Dict[str, float]:
        return {
            "messages": self.messages,
            "calls": self.calls,
            "journal_records": self.records,
            "journal_bytes": self.bytes,
            "journal_syncs": self.syncs,
            "journal_rotations": self.rotations,
            "recovery_records": self.recovered_records,
            "recovery_requeued": self.requeued,
            "recovery_s": sum(self.recovery_samples),
            "recoveries": len(self.recovery_samples),
            "backlog_max": self.backlog_max,
            "busy_s": self.busy_s,
            "wall_s": self.wall_s,
        }

    def extra(self) -> Dict[str, Any]:
        samples = sorted(self.recovery_samples)
        return {"recovery_s": samples[len(samples) // 2], "recoveries": len(samples)}


# ----------------------------------------------------------------------
# des-mg1
# ----------------------------------------------------------------------
class DesMG1(Workload):
    """Seeded M/G/1 replications of the Fig. 11 cell on the DES engine."""

    name = "des-mg1"
    setup_reps = 25
    trace_chunks = (8, 2)
    RHO = 0.9
    CVAR = 0.4
    #: Virtual run length of one timed call, in mean service times.
    HORIZON = 300
    REPLICATIONS = 16
    #: The Fig. 11 cross-check of the benchmarks suite: seed, horizon and
    #: tolerance of its P-K mean-wait comparison.
    CHECK_SEED = 99
    CHECK_HORIZON = 300_000
    CHECK_TOLERANCE = 0.10

    def build(self) -> Tuple[Any, MG1Queue]:
        model = service_model_for_cvar(
            CORRELATION_ID_COSTS, self.CVAR, family=ReplicationFamily.BINOMIAL
        )
        return model, MG1Queue.from_utilization(self.RHO, model.moments)

    def _count_events(self) -> None:
        """Count engine events per ``Engine.run`` (one call per replication)."""
        original = engine_module.Engine.run
        workload = self

        def run(engine: Any, until: Optional[float] = None) -> float:
            before = engine.events_processed
            try:
                return original(engine, until)
            finally:
                workload.events += engine.events_processed - before

        self._engine_run = original
        engine_module.Engine.run = run  # type: ignore[method-assign]

    def close(self) -> None:
        if getattr(self, "_engine_run", None) is not None:
            engine_module.Engine.run = self._engine_run  # type: ignore[method-assign]
            self._engine_run = None

    def prepare(self) -> None:
        self.model, self.queue = self.timed_setups(self.setup_reps)
        self.arrival_rate = self.RHO / self.model.mean
        self.horizon = self.model.mean * self.HORIZON * self.scale
        self.replications = self.sized(self.REPLICATIONS, 2)
        self.next_replication = 0
        self.events = 0
        self.timed_events = 0
        self.served = 0
        self.first: Optional[Tuple[int, int, str]] = None
        self._count_events()

    def _simulate(self, rng: Any, horizon: float) -> Any:
        return queueing.simulate_mg1(
            arrival_rate=self.arrival_rate,
            service=self.model.sample,
            rng=rng,
            horizon=horizon,
        )

    def chunk(self) -> None:
        latency = self.latencies.append
        events_before = self.events
        served = 0
        failed = 0
        busy = 0.0
        for _ in range(self.replications):
            replication = self.next_replication
            self.next_replication += 1
            rng = np.random.default_rng([self.seed, replication])
            begin = clock()
            try:
                result = self._simulate(rng, self.horizon)
            except Exception:  # a failed replication is counted, not fatal
                failed += 1
                continue
            elapsed = clock() - begin
            busy += elapsed
            latency(elapsed)
            served += result.served
            if self.first is None:
                self.first = (replication, result.served, repr(result.mean_wait))
        self.timed_events += self.events - events_before
        self.served += served
        self.calls += self.replications
        self.failed += failed
        self.record_chunk(served, busy, busy)

    def finish(self) -> None:
        if self.first is not None:
            replication, served, mean_wait = self.first
            again = self._simulate(np.random.default_rng([self.seed, replication]), self.horizon)
            if (again.served, repr(again.mean_wait)) != (served, mean_wait):
                self.problem(
                    f"replication {replication} served {again.served} on re-run, first {served}"
                )
        reference = self._simulate(
            np.random.default_rng(self.CHECK_SEED),
            self.model.mean * self.CHECK_HORIZON,
        )
        error = abs(reference.mean_wait / self.queue.mean_wait - 1.0)
        if error > self.CHECK_TOLERANCE:
            self.problem(
                f"Fig. 11 check: simulated mean wait {reference.mean_wait:.4g} s is"
                f" {error:.1%} from the P-K mean {self.queue.mean_wait:.4g} s"
            )

    def counts(self) -> Dict[str, float]:
        return {
            "messages": self.messages,
            "calls": self.calls,
            "served": self.served,
            "events": self.timed_events,
            "busy_s": self.busy_s,
            "wall_s": self.wall_s,
        }

    def extra(self) -> Dict[str, Any]:
        return {"des_events_per_s": self.timed_events / self.busy_s if self.busy_s else 0.0}


WORKLOADS: Dict[str, type] = {
    workload.name: workload
    for workload in (Fig4CorrLinear, SelectorMemoBatch, DurableQueue, DesMG1)
}
