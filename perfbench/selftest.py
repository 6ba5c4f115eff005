"""Self-test of the benchmark itself.

Runs every workload on tiny inputs in both modes and checks that each
result is correct, that every metric ``BENCHMARK.json`` declares is
computed, finite and printed with its unit, and that the traced run
found every hook it patches.  Then a deliberately wrong broker — the
Fig. 4 scenario with one subscription removed — must fail the
``fig4-corr-linear`` check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from typing import Callable, Dict, List

import layers
from repro.testbed.scenario import TOPIC_NAME
from workloads import WORKLOADS, Fig4CorrLinear

#: Input scale and run length of the tiny passes.
SCALE = 0.05
SECONDS = 0.05

#: Figures the report prints only on the workload they belong to.
PRINTED_ON = {"des-mg1": ("des_events_per_s", "events/s"), "durable-queue": ("recovery_s", "s")}


def _printed(text: str, metric: str, unit: str) -> bool:
    return any(
        line.split()[:1] == [metric] and f" {unit}" in line for line in text.splitlines()
    )


def self_test(run: Callable[..., dict], report: Callable[..., None], spec_path: Path) -> int:
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    expected: Dict[bool, Dict[str, str]] = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures: List[str] = []
    declared = [w["name"] for w in spec["workloads"]]
    if declared != list(WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {declared} != {list(WORKLOADS)}")
    for name in WORKLOADS:
        for trace in (False, True):
            outcome = run(name, 1, SECONDS, trace, scale=SCALE, write_spans=False)
            result = outcome["result"]
            label = f"{name} trace={int(trace)}"
            if not result["correct"]:
                failures.append(f"{label}: incorrect: {outcome['problems']}")
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                report(name, 1, SECONDS, trace, outcome)
            lines = dict(expected[trace])
            lines["error_rate"] = "ratio"
            if not trace and name in PRINTED_ON:
                metric, unit = PRINTED_ON[name]
                lines[metric] = unit
            text = printed.getvalue()
            unprinted = sorted(m for m, unit in lines.items() if not _printed(text, m, unit))
            if unprinted:
                failures.append(f"{label}: report does not print {unprinted} with their units")
            if result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            uncomputed = sorted(set(expected[trace]) - set(result["metrics"]))
            if uncomputed:
                failures.append(f"{label}: declared metrics not computed: {uncomputed}")
            bad = [
                metric
                for metric, entry in result["metrics"].items()
                if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"])
            ]
            if bad:
                failures.append(f"{label}: non-numeric values for {bad}")
            if trace and outcome["outcome"]["missing_hooks"]:
                failures.append(
                    f"{label}: hook targets not found: {outcome['outcome']['missing_hooks']}"
                )
            print(f"self-test {label}: {'ok' if result['correct'] else 'FAILED'}")

    workload = Fig4CorrLinear(1, scale=SCALE)
    workload.prepare()
    broker = workload.broker
    broker.unsubscribe(broker.subscriptions(TOPIC_NAME)[0])
    workload.chunk()
    workload.finish()
    if workload.problems:
        print(f"self-test negative case: caught ({workload.problems[0]})")
    else:
        failures.append("a broker missing one subscription passed the fig4-corr-linear check")

    # A hook whose target is gone (say a renamed method) must make the
    # traced run incorrect, not leave its metrics silently at 0.
    layers._HOOKS.append((Fig4CorrLinear, "no_such_method", "broker.server.no_such_method"))
    try:
        outcome = run("fig4-corr-linear", 1, SECONDS, True, scale=SCALE, write_spans=False)
    finally:
        layers._HOOKS.pop()
    if outcome["result"]["correct"]:
        failures.append("a traced run with a missing hook target was reported correct")
    else:
        print(f"self-test missing hook: caught ({outcome['problems'][0]})")

    for failure in failures:
        print(f"self-test FAILED: {failure}")
    print("self-test: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0
