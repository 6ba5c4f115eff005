"""The repository benchmark: four workloads over the broker, the journal and the DES.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-corr-linear --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds;
``--trace 1`` runs a fixed amount of work untraced, the same amount again
with spans around every layer's public calls, and reports the per-layer
metrics (plus the wall-clock Eq. 1 fit on ``fig4-corr-linear``); it does
not depend on ``--seconds``, so its counts repeat exactly.  The
program is imported from ``src/`` next to this directory; nothing is
installed.  One process, one thread, a closed loop.

The report lines name every metric with its unit; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Each run also appends its environment fingerprint and raw
samples to ``perfbench/out/history.jsonl``; a traced run writes its spans
to ``perfbench/out/trace-<workload>.json.gz``.

``python3 perfbench/run.py --self-test`` runs every workload on tiny
inputs in both modes, checks that every metric of ``BENCHMARK.json`` is
reported with its unit, and checks that a broker with one subscription
removed fails the ``fig4-corr-linear`` check.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for a run:
    ``per_layer`` for a traced one, ``end_to_end`` otherwise."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


def import_program() -> None:
    """Put ``src/`` on the path and import the program, or exit 2."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and bytes), so a
    checkout without git history still names the code it measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def fingerprint(seed: int) -> Dict[str, Any]:
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "platform": platform.platform(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _percentile(ordered: List[float], share: float) -> Tuple[float, int]:
    """Nearest-rank percentile of sorted samples and how many lie beyond it."""
    if not ordered:
        return 0.0, 0
    rank = min(len(ordered), max(1, math.ceil(len(ordered) * share)))
    return ordered[rank - 1], len(ordered) - rank


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _deciles(values: List[float]) -> Tuple[float, float]:
    """(first, ninth) decile; a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10)
    return deciles[0], deciles[-1]


def measure(workload: Any, seconds: float) -> Dict[str, Any]:
    """An untraced run: chunks until ``seconds`` have passed, then checks.

    The host's speed flips between a slow and a fast state (by 1.4-1.8x,
    in spells of about a second to a minute: other tenants on shared
    cores), so a run is summarised chunk by chunk and the metrics take
    the decile on the slow side: ``msgs_per_s`` is the first decile of the
    per-chunk rates and ``latency_p50_us`` the ninth decile of the
    per-chunk median call latencies.  The slow state is the steadier one
    and nearly every run spends a tenth of its chunks in it; fast spells,
    which some runs get and others do not, then move neither.  ``latency_p99_us``
    is the median of the p99s of consecutive windows of a fixed number of
    calls, so one slow spell moves at most a few of them.

    ``peak_rss_mb`` is the peak resident set above what the process held
    before ``prepare()`` (interpreter, imports), so it is the workload's
    own growth: its system, inputs and inboxes, memo and journal.
    """
    baseline_rss = _peak_rss_mib()
    workload.prepare()
    deadline = time.perf_counter() + seconds
    while True:
        workload.chunk()
        if time.perf_counter() >= deadline:
            break
        workload.setup_again()
    # Before the checks and the sorting below, which are not the workload's.
    peak_rss = _peak_rss_mib()
    workload.finish()
    chunks = workload.chunk_samples
    rate_low, _ = _deciles([messages / busy for messages, busy, _ in chunks if busy > 0])
    _, p50_high = _deciles([median for _, _, median in chunks])
    windows = workload.window_p99s
    if windows:
        p99 = statistics.median(windows)
        p99_note = (
            f"median of {len(windows)} window p99s; each window {workload.WINDOW:,} calls,"
            f" {workload.WINDOW - math.ceil(workload.WINDOW * 0.99):,} beyond its p99"
        )
    else:
        # Too short a run for one whole window (the self-test's tiny runs).
        p99, beyond = _percentile(sorted(workload.latencies), 0.99)
        p99_note = f"p99 of {len(workload.latencies):,} calls, {beyond:,} beyond: not a valid p99"
    overall = workload.messages / workload.busy_s if workload.busy_s else 0.0
    metrics = {
        "msgs_per_s": rate_low,
        "latency_p50_us": p50_high * 1e6,
        "latency_p99_us": p99 * 1e6,
        "setup_s": statistics.median(workload.setup_samples),
        "peak_rss_mb": peak_rss - baseline_rss,
    }
    notes = {
        "msgs_per_s": (
            f"first decile of {len(chunks)} chunks; overall {workload.messages:,} msgs"
            f" in {workload.busy_s:.3f} s = {overall:,.1f} msgs/s"
        ),
        "latency_p50_us": f"ninth decile of {len(chunks)} chunk medians",
        "latency_p99_us": p99_note,
        "setup_s": f"median of {len(workload.setup_samples)} set-ups",
        "peak_rss_mb": (
            f"peak above the {baseline_rss:.1f} MiB held before set-up;"
            f" process peak {peak_rss:.1f} MiB"
        ),
    }
    return {
        "metrics": metrics,
        "notes": notes,
        "extra": workload.extra(),
        "rss_mib": {"baseline": baseline_rss, "peak": peak_rss},
    }


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {
        key: value if key.endswith("_max") else value - before.get(key, 0)
        for key, value in after.items()
    }


def measure_traced(workload: Any, write_spans: bool) -> Dict[str, Any]:
    """A traced run: untraced chunks (with GC accounting), then traced ones."""
    import layers
    from spans import GcMonitor, Tracer, measure_overhead

    workload.prepare()
    untraced_chunks, traced_chunks = workload.trace_chunks
    start = workload.counts()
    with GcMonitor() as collector:
        for _ in range(untraced_chunks):
            workload.chunk()
    middle = workload.counts()
    extra = workload.extra()
    tracer = Tracer()
    layers.install(tracer)
    try:
        for _ in range(traced_chunks):
            workload.chunk()
    finally:
        tracer.uninstall()
    end = workload.counts()
    workload.finish()
    untraced = _delta(middle, start)
    traced = _delta(end, middle)
    for name in tracer.missing:
        workload.problem(f"traced run: hook target of {name} not found")
    overhead = measure_overhead()
    summary = tracer.summary(overhead)
    metrics = layers.per_layer_metrics(summary, tracer, traced)
    untraced_rate = untraced["messages"] / untraced["busy_s"] if untraced["busy_s"] else 0.0
    traced_rate = traced["messages"] / traced["busy_s"] if traced["busy_s"] else 0.0
    metrics["bench.trace_overhead"] = untraced_rate / traced_rate if traced_rate else 0.0
    metrics["runtime.gc_pause_ms"] = collector.pause_s * 1e3
    metrics["runtime.gc_gen2_collections"] = collector.collections[2]
    metrics["recovery_s"] = extra.get("recovery_s", 0.0)
    metrics["des_events_per_s"] = extra.get("des_events_per_s", 0.0)
    from eq1 import EQ1_METRICS, fit_eq1

    if workload.name == "fig4-corr-linear":
        fitted, problems = fit_eq1()
        metrics.update(fitted)
        for problem in problems:
            workload.problem(problem)
    else:
        metrics.update(dict.fromkeys(EQ1_METRICS, 0.0))
    if write_spans:
        try:
            OUT.mkdir(exist_ok=True)
            tracer.dump(str(OUT / f"trace-{workload.name}.json.gz"))
        except OSError as exc:
            print(f"perfbench: spans not written: {exc}", file=sys.stderr)
    notes = {
        "bench.trace_cost_us_per_msg": (
            f"{summary.span_count:,} spans at {overhead.inside * 1e6:.3f} us inside"
            f" + {overhead.outside * 1e6:.3f} us outside each"
            f" (+ {overhead.scheduling * 1e6:.3f} us per call_at,"
            f" {overhead.counting * 1e6:.3f} us per planner call)"
        ),
        "bench.trace_overhead": (
            f"untraced {untraced_rate:,.1f} / traced {traced_rate:,.1f} msgs/s"
        ),
        "runtime.gc_pause_ms": (
            f"over {untraced['messages']:,} untraced msgs, collections per generation"
            f" {collector.collections}"
        ),
    }
    return {
        "metrics": metrics,
        "notes": notes,
        "extra": extra,
        "layer_table": layers.layer_table(summary, traced),
        "traced_messages": traced["messages"],
        "missing_hooks": tracer.missing,
    }


def run(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        write_spans: bool = True) -> Dict[str, Any]:
    """Run one workload; returns the report (result, notes, samples).

    The metrics are those ``BENCHMARK.json`` declares for the mode; one
    the run did not compute is left out and makes the result incorrect.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, scale=scale)
    try:
        outcome = measure_traced(workload, write_spans) if trace else measure(workload, seconds)
    finally:
        workload.close()
    computed = outcome["metrics"]
    declared = declared_metrics(trace)
    for metric in declared:
        if metric not in computed:
            workload.problem(f"metric {metric} is declared but not computed")
    result = {
        "correct": not workload.problems,
        "attempted": max(1, workload.calls),
        "failed": workload.failed,
        "metrics": {
            metric: {"value": computed[metric], "unit": unit}
            for metric, unit in declared.items()
            if metric in computed
        },
    }
    return {
        "result": result,
        "outcome": outcome,
        "problems": list(workload.problems),
        "samples": {
            "setup_s": workload.setup_samples,
            "chunks": workload.chunk_samples,
            "window_p99_s": workload.window_p99s,
            "recovery_s": getattr(workload, "recovery_samples", []),
            "rss_mib": outcome.get("rss_mib"),
        },
        "about": (type(workload).__doc__ or "").strip().split("\n\n")[0],
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _format(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.6g}"


def print_report(name: str, seed: int, seconds: float, trace: bool, report: Dict[str, Any]) -> None:
    result = report["result"]
    outcome = report["outcome"]
    notes = outcome["notes"]
    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"  workload: {report['about']}")
    for metric, entry in result["metrics"].items():
        note = notes.get(metric, "")
        print(f"  {metric:<42} {_format(entry['value']):>16} {entry['unit']:<9} {note}".rstrip())
    if not trace:
        extra = outcome["extra"]
        # Workload-specific end-to-end figures that are not reported for
        # every workload, so they are not in BENCHMARK.json.
        if "des_events_per_s" in extra:
            print(f"  {'des_events_per_s':<42} {_format(extra['des_events_per_s']):>16} events/s")
        if "recovery_s" in extra:
            print(
                f"  {'recovery_s':<42} {_format(extra['recovery_s']):>16} s"
                f"         median of {extra['recoveries']} crash+recover cycles"
            )
        if "memo_hit_ratio" in extra:
            print(f"  {'memo_hit_ratio':<42} {_format(extra['memo_hit_ratio']):>16} ratio")
    error_rate = result["failed"] / result["attempted"]
    print(
        f"  {'error_rate':<42} {_format(error_rate):>16} ratio     "
        f"{result['failed']:,} of {result['attempted']:,} calls failed"
    )
    if trace:
        print(f"  self time per message ({outcome['traced_messages']:,} traced msgs):")
        total = 0.0
        for layer, value in outcome["layer_table"]:
            total += value
            print(f"    {layer:<28} {value:12.3f} us")
        print(f"    {'= traced wall':<28} {total:12.3f} us")
        if outcome["missing_hooks"]:
            print(f"  hooks not found: {', '.join(outcome['missing_hooks'])}")
    checks = "ok" if result["correct"] else "FAILED: " + "; ".join(report["problems"])
    print(f"  checks: {checks}")


def append_history(name: str, args: argparse.Namespace, report: Dict[str, Any]) -> None:
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": name,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": fingerprint(args.seed),
        "result": report["result"],
        "problems": report["problems"],
        "samples": report["samples"],
    }
    try:
        OUT.mkdir(exist_ok=True)
        with open(OUT / "history.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    except OSError as exc:
        print(f"perfbench: history not written: {exc}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    import_program()
    if not SPEC.is_file():
        print(f"perfbench: {SPEC} not found", file=sys.stderr)
        return 2
    if args.self_test:
        from selftest import self_test

        return self_test(run, print_report, SPEC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(args.workload, args.seed, args.seconds, bool(args.trace), report)
    append_history(args.workload, args, report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
