"""In-memory span tracer and garbage-collector accounting for the traced run.

The tracer replaces the bindings that callers actually use (a class
attribute, or a name a module imported with ``from x import f``) with
timing shims, so no file under ``src/repro`` changes.  Every call through
a shim records one span (name, start, end, parent, tag): ``parent``
is the index of the enclosing span (-1 at the top) and ``tag`` numbers
the entry-point call (a message, a batch or a DES run) the span serves.
Spans stay in memory until the run ends; :meth:`Tracer.dump` writes them
out.

A span name is ``<layer>.<function>`` where the layer is the module path
below ``repro`` (``broker.server``, ``durability.journal`` …).  A span's
self time is its duration minus the durations of its direct children, so
the self times of all spans plus the time outside every span add up to
the traced wall time.  The time the shims themselves take is calibrated
(:func:`measure_overhead`) and taken off the spans it inflates.
"""

from __future__ import annotations

import gc
import gzip
import json
import time
from array import array
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

Span = Tuple[int, float, float, int, int]


def layer_of(span_name: str) -> str:
    """``broker.server.publish`` -> ``broker.server``."""
    return span_name.rsplit(".", 1)[0]


class Tracer:
    """Records spans around patched callables; undo with :meth:`uninstall`.

    Span fields live in flat arrays, one per column, so tracing allocates
    no objects the garbage collector tracks and does not change how often
    it runs.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.tags = array("i")
        self._stack: List[int] = []
        #: Sequence number of the entry-point call in progress (one message,
        #: batch or DES run): every span opened with no parent starts one.
        self.tag = -1
        #: Counters the shims accumulate (e.g. cold dispatch plans).
        self.counts: Dict[str, float] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Hooks whose target no longer exists.  The runner marks such a
        #: run incorrect: the metrics of that hook would silently read 0.
        self.missing: List[str] = []
        #: Span name -> the :class:`Overhead` field its shim adds in the
        #: caller's frame on top of a plain span (:meth:`scheduler`,
        #: :meth:`counter`).
        self.extras: Dict[str, str] = {}
        self._callback_ids: Dict[Any, int] = {}

    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call."""
        return self._wrap_id(self._name_id(name), fn)

    def _wrap_id(self, name_id: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        name_of, starts, ends = self.name_of, self.starts, self.ends
        parents, tags, stack = self.parents, self.tags, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            if stack:
                parents.append(stack[-1])
            else:
                parents.append(-1)
                tracer.tag += 1
            name_of.append(name_id)
            tags.append(tracer.tag)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def wrap_callback(self, callback: Callable[[], Any]) -> Callable[[], Any]:
        """A DES event callback as a span of the layer that defined it, so
        the engine's self time is its own loop and heap work only.  The
        span name is worked out once per code object."""
        function = getattr(callback, "__func__", callback)
        code = getattr(function, "__code__", None)
        name_id = self._callback_ids.get(code)
        if name_id is None:
            module = getattr(function, "__module__", None) or "unknown"
            layer = module[len("repro.") :] if module.startswith("repro.") else "unattributed"
            name_id = self._callback_ids[code] = self._name_id(f"{layer}.event")
        return self._wrap_id(name_id, callback)

    def scheduler(self, name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Shim factory for ``Engine.call_at(time, callback)``: a span named
        ``name`` around the call, and the callback wrapped by
        :meth:`wrap_callback`.  The wrapping runs before the span opens, in
        the caller's frame; :func:`measure_overhead` calibrates its cost and
        :class:`TraceSummary` takes it off the caller's span."""
        self.extras[name] = "scheduling"

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            traced = self.wrap(name, original)
            wrap_callback = self.wrap_callback

            def call_at(owner: Any, when: float, callback: Callable[[], Any]) -> Any:
                return traced(owner, when, wrap_callback(callback))

            return call_at

        return make

    def counter(
        self, name: str, key: str, batched: bool
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Shim factory for a planner called as ``f(items, *rest)``: a span
        named ``name``, and ``counts[key]`` raised by ``len(items)`` (or by
        1 unless ``batched``).  The count runs in the caller's frame, before
        the span opens; its calibrated cost is taken off like scheduling."""
        self.extras[name] = "counting"

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            traced = self.wrap(name, original)
            counts = self.counts

            def shim(items: Any, *rest: Any) -> Any:
                counts[key] = counts.get(key, 0) + (len(items) if batched else 1)
                return traced(items, *rest)

            return shim

        return make

    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str, make: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a traced version.

        ``make(original)`` builds a custom shim; the default is
        :meth:`wrap`.  For a class only an attribute it defines itself is
        patched, so an inherited method is patched once, where it lives.
        """
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None or not callable(original):
            self.missing.append(name)
            return
        shim = make(original) if make is not None else self.wrap(name, original)
        setattr(owner, attr, shim)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # ------------------------------------------------------------------
    def spans(self) -> Iterator[Span]:
        """Every recorded span as ``(name id, start, end, parent, tag)``."""
        return zip(self.name_of, self.starts, self.ends, self.parents, self.tags)

    def summary(self, overhead: Optional["Overhead"] = None) -> "TraceSummary":
        return TraceSummary(self.names, list(self.spans()), overhead or Overhead(), self.extras)

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line (span names, columns),
        then one CSV row per span, times in microseconds from the first."""
        origin = self.starts[0] if self.starts else 0.0
        header = {
            "names": self.names,
            "columns": ["name", "start_us", "end_us", "parent", "tag"],
            "missing_hooks": self.missing,
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for name_id, start, end, parent, tag in self.spans():
                handle.write(
                    f"{name_id},{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f},"
                    f"{parent},{tag}\n"
                )


class _Probe:
    def call(self, value: Any, now: float = 0.0) -> Any:
        return value

    def call_at(self, when: float, callback: Callable[[], Any]) -> Any:
        return callback

    def tick(self) -> None:
        pass


def _plan(items: Any, rest: Any) -> Any:
    return items


#: Holds a planner the way ``repro.broker.server`` holds ``plan_dispatch``:
#: a plain function looked up by name and called unbound.
_PLANNER = SimpleNamespace(plan=_plan)


class Overhead(NamedTuple):
    """Seconds the tracing shims add per span (see :func:`measure_overhead`)."""

    #: Inside the span's own interval.
    inside: float = 0.0
    #: Around it, in the caller's frame.
    outside: float = 0.0
    #: Extra, in the caller's frame, of a :meth:`Tracer.scheduler` shim
    #: (wrapping the event callback) over a plain span.
    scheduling: float = 0.0
    #: Extra, in the caller's frame, of a :meth:`Tracer.counter` shim.
    counting: float = 0.0


def measure_overhead(repeats: int = 7, calls: int = 20000) -> Overhead:
    """Calibrate what a span costs.

    A method called the way the broker calls its layers (through a class
    attribute; alternately with one positional argument and with one
    positional and one keyword argument) is timed bare and through a
    patched shim: the mean recorded span minus the bare call is the inside
    share, the rest of the added time the outside share.  Then a
    scheduling call (``call_at(time, callback)``, alternately with a fresh
    bound method and with a closure, as the DES schedules its events) is
    timed through a plain shim and through a scheduler shim; the
    difference is the callback-wrapping cost.  A planner call, through a
    plain shim and through a counter shim, gives the counting cost the
    same way.  Each timing keeps its
    fastest of ``repeats`` passes: a slow spell of the machine or a
    collector pause only ever adds time, and it would be taken off the
    layers' self times as if the shims had cost it.
    """
    clock = time.perf_counter
    probe = _Probe()
    pairs = calls // 2

    def closure() -> None:
        pass

    def calls_through() -> float:
        start = clock()
        for index in range(pairs):
            probe.call(index)
            probe.call(index, now=0.0)
        return (clock() - start) / calls

    def schedules() -> float:
        start = clock()
        for _ in range(pairs):
            probe.call_at(0.0, probe.tick)
            probe.call_at(0.0, closure)
        return (clock() - start) / calls

    items = [None] * 64

    def plans() -> float:
        start = clock()
        for _ in range(calls):
            _PLANNER.plan(items, None)
        return (clock() - start) / calls

    plain, wrapped, recorded, plain_schedule, schedule, plain_plan, plan = ([] for _ in range(7))
    for _ in range(repeats):
        plain.append(calls_through())
        tracer = Tracer()
        tracer.patch(_Probe, "call", "calibration.call")
        tracer.patch(_Probe, "call_at", "calibration.call_at")
        tracer.patch(_PLANNER, "plan", "calibration.plan")
        try:
            wrapped.append(calls_through())
            plain_schedule.append(schedules())
            plain_plan.append(plans())
        finally:
            tracer.uninstall()
        recorded.append(
            sum(end - begin for name_id, begin, end, _, _ in tracer.spans() if name_id == 0)
            / calls
        )
        tracer = Tracer()
        tracer.patch(
            _Probe, "call_at", "calibration.call_at", tracer.scheduler("calibration.call_at")
        )
        tracer.patch(
            _PLANNER, "plan", "calibration.plan", tracer.counter("calibration.plan", "n", True)
        )
        try:
            schedule.append(schedules())
            plan.append(plans())
        finally:
            tracer.uninstall()
    share_in = max(0.0, min(recorded) - min(plain))
    return Overhead(
        share_in,
        max(0.0, min(wrapped) - min(plain) - share_in),
        max(0.0, min(schedule) - min(plain_schedule)),
        max(0.0, min(plan) - min(plain_plan)),
    )


class TraceSummary:
    """Inclusive and self times per span name and per layer.

    The calibrated ``overhead`` (:func:`measure_overhead`) is taken off
    every span and its ancestors: ``inside`` off the span itself, the
    outside share (plus the extra ``extras`` names for its span name)
    off its parent.  All of it is reported as
    ``tracing_cost``.
    """

    def __init__(
        self,
        names: Sequence[str],
        spans: Sequence[Span],
        overhead: Overhead = Overhead(),
        extras: Optional[Dict[str, str]] = None,
    ):
        self.names = list(names)
        self.span_count = len(spans)
        inside = overhead.inside
        # The cost each span adds in its caller's frame, by name.
        around = [
            overhead.outside + (getattr(overhead, extras[name]) if name in (extras or {}) else 0.0)
            for name in self.names
        ]
        child_time = [0.0] * len(spans)
        child_cost = [0.0] * len(spans)
        descendant_cost = [0.0] * len(spans)
        # A child is appended after its parent, so walking backwards
        # finishes every child before its parent.
        for index in range(len(spans) - 1, -1, -1):
            name_id, start, end, parent, _ = spans[index]
            if parent >= 0:
                child_time[parent] += end - start
                child_cost[parent] += around[name_id]
                descendant_cost[parent] += inside + around[name_id] + descendant_cost[index]
        self.self_time = [0.0] * len(self.names)
        self._name_of = [span[0] for span in spans]
        self._parent_of = [span[3] for span in spans]
        self._inclusive = []
        cost = 0.0
        for index, (name_id, start, end, _, _) in enumerate(spans):
            duration = end - start
            self.self_time[name_id] += duration - child_time[index] - inside - child_cost[index]
            self._inclusive.append(duration - inside - descendant_cost[index])
            cost += inside + around[name_id]
        self.tracing_cost = cost

    def op(self, *names: str) -> Tuple[int, float]:
        """(calls, inclusive seconds) of the named operations, counting a
        call nested inside another of the same group once (``call_in`` ->
        ``call_at`` is one scheduling call)."""
        wanted = set(names)
        ids = {i for i, name in enumerate(self.names) if name in wanted}
        calls = 0
        total = 0.0
        name_of = self._name_of
        for index, parent in enumerate(self._parent_of):
            if name_of[index] in ids and (parent < 0 or name_of[parent] not in ids):
                calls += 1
                total += self._inclusive[index]
        return calls, total

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer."""
        out: Dict[str, float] = {}
        for name, seconds in zip(self.names, self.self_time):
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + seconds
        return out


class GcMonitor:
    """Collector pauses and generation-2 collections, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = [0, 0, 0]
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)
