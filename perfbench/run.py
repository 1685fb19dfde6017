"""fairnet solve benchmark: seeded workloads timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One op is what `fairnet solve FILE` does,
minus process start and printing: `read_instance` on the text, then
`cli.run_algorithm`, then `parameter_report` (except in named-strategies,
which, like `fairnet bench`, runs no report).  One client runs ops back to
back (closed loop) for S seconds.  With --trace 0 the last stdout line is a
JSON object with the end-to-end metrics; with --trace 1 every op is run
untraced and traced, and the JSON holds the per-layer metrics.  The exit
code is nonzero when any verdict is wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if not (REPO / "src" / "fairnet").is_dir():
    sys.exit(f"perfbench: no fairnet package under {REPO / 'src'}")
sys.path.insert(0, str(REPO / "src"))

from fairnet import cli, structure  # noqa: E402
from fairnet.model import RefusalError  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile


class BudgetExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the package
    mistakes it for one of its own errors."""


def _alarm(signum, frame):
    raise BudgetExceeded


def run_op(item, strategy: str, workload, tracer=None) -> dict:
    """One cold op under one wall-clock budget covering parse, solve and report."""
    structure.minimum_vertex_cover.cache_clear()
    structure.minimum_feedback_vertex_set.cache_clear()
    outcome = None
    root = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, workload.budget_s)
        try:
            if tracer is not None:
                root = tracer.enter(tracing.ROOT)
            try:
                instance = cli.read_instance(item.text)
                outcome = cli.run_algorithm(strategy, instance.graph, instance.labels, instance.k)
                if workload.report:
                    cli.parameter_report(instance.graph, instance.labels)
            finally:
                if root is not None:
                    tracer.exit(root)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = outcome.verdict.value
    except BudgetExceeded:
        status = "tripped"
    except RefusalError:
        status = "refused"
    elapsed = time.perf_counter() - start
    op = {"status": status, "elapsed": elapsed, "strategy": strategy}
    if outcome is not None and outcome.fair:
        op["cert"] = (outcome.certificate.labels, outcome.certificate.constant)
    op["nodes"] = outcome.stats.nodes if outcome is not None else 0
    return op


def check(ops: list[dict], expected: bool | None, plain) -> None:
    """Mark each op of one item `decided` or `wrong` in place.

    A fair verdict must carry a certificate that passes the benchmark's own
    check; every verdict must match the reference when there is one, and
    an unfair verdict is wrong when another strategy certified the item.
    """
    certified = False
    for op in ops:
        op["wrong"] = False
        if op["status"] == "fair":
            op["wrong"] = not reference.certificate_ok(plain, *op["cert"])
            certified = certified or not op["wrong"]
    for op in ops:
        if op["status"] in ("fair", "unfair"):
            verdict = op["status"] == "fair"
            if expected is not None and verdict != expected:
                op["wrong"] = True
            if not verdict and certified:
                op["wrong"] = True
        op["decided"] = op["status"] in ("fair", "unfair") and not op["wrong"]


def tail(times: list[float]) -> tuple[float, int]:
    """Value and rank of the highest whole percentile with at least
    TAIL_BEYOND ops above it (nearest-rank); the median when too few ops."""
    ordered = sorted(times)
    n = len(ordered)
    best = 50
    for p in range(50, 100):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            best = p
    return ordered[max(math.ceil(best * n / 100) - 1, 0)], best


def setup(workload, seed: int) -> tuple[list, float]:
    """Plan the stream once (untimed), then build it SETUP_REPEATS times;
    the fastest build is the set-up time.  Every build must give the same
    bytes."""
    specs = workloads.plan(workload, seed)
    times = []
    items = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        built = workloads.build(specs)
        times.append(time.perf_counter() - start)
        if items is not None and [i.text for i in built] != [i.text for i in items]:
            sys.exit("perfbench: generators are not byte-stable for one seed")
        items = built
    return items, min(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    items, setup_s = setup(workload, args.seed)
    signal.signal(signal.SIGALRM, _alarm)

    tracer = tracing.Tracer() if args.trace else None
    rounds: list[list[dict]] = []  # the ops of each item visit, in order
    traced_ops: list[dict] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline:
        index = len(rounds) % len(items)
        item_ops = []
        for strategy in workload.strategies:
            if tracer is None:
                item_ops.append(run_op(items[index], strategy, workload))
                continue
            # untraced and traced back to back, alternating which goes first
            pair = {}
            for traced in ((False, True) if len(rounds) % 2 == 0 else (True, False)):
                if traced:
                    tracer.begin_op()
                    with tracer.installed():
                        op = run_op(items[index], strategy, workload, tracer)
                    op["spans"] = tracer.spans
                else:
                    op = run_op(items[index], strategy, workload)
                pair[traced] = op
            pair[True]["untraced_s"] = pair[False]["elapsed"]
            item_ops.extend(pair.values())
            traced_ops.append(pair[True])
        for op in item_ops:
            op["item"] = index
        rounds.append(item_ops)
    wall_s = time.perf_counter() - start

    # checks run after the loop, so reference time stays out of the metrics
    refs: dict[int, tuple] = {}
    for item_ops in rounds:
        index = item_ops[0]["item"]
        if index not in refs:
            item = items[index]
            refs[index] = (workloads.expected_verdict(item), reference.parse_plain(item.text))
        check(item_ops, *refs[index])
    ops = [op for item_ops in rounds for op in item_ops]

    wrong = sum(op["wrong"] for op in ops)
    decided = sum(op["decided"] for op in ops)
    statuses = dict(Counter(op["status"] for op in ops))
    print(f"workload {workload.name} seed {args.seed} items {len(rounds)} ops {len(ops)} "
          f"budget {workload.budget_s} s statuses {statuses}")
    print(f"wrong_verdicts {wrong} count")

    if tracer is None:
        # an op without a verdict counts at the budget (a trip ends just past it)
        times = [
            op["elapsed"] if op["status"] in ("fair", "unfair") else max(op["elapsed"], workload.budget_s)
            for op in ops
        ]
        tail_s, tail_p = tail(times)
        metrics = {
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (tail_s, "s"),
            "ops_per_s": (decided / wall_s, "1/s"),
            "decided_share": (decided / len(ops), "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"op_tail_s is p{tail_p} of {len(ops)} ops")
    else:
        for op in traced_ops:
            op["totals"] = tracing.op_totals(op["spans"], op["nodes"])
        untraced_s = sum(op["untraced_s"] for op in traced_ops)
        values = tracing.layer_metrics(traced_ops, untraced_s)
        by_strategy: dict[str, list[dict]] = {}
        for op in traced_ops:
            by_strategy.setdefault(op["strategy"], []).append(op)
        values.update(tracing.split_metrics(by_strategy))
        metrics = {name: (value, tracing.unit(name)) for name, value in values.items()}
        gap = max(tracing.self_sum_gap(op["spans"]) for op in traced_ops)
        print(f"layer self times sum to traced op time: max gap {gap:.3g} s over {len(traced_ops)} ops")
        write_spans(workload.name, args.seed, items, traced_ops)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(ops),
        "failed": wrong,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if wrong else 0


def write_spans(name: str, seed: int, items: list, traced_ops: list[dict]) -> None:
    """Spans of every traced op, written once at the end of the run."""
    out_dir = REPO / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{name}-seed{seed}-spans.jsonl", "w", encoding="utf-8") as out:
        for op in traced_ops:
            origin = op["spans"][0][tracing.START] if op["spans"] else 0.0
            out.write(json.dumps({
                "item": op["item"],
                "family": items[op["item"]].family,
                "strategy": op["strategy"],
                "status": op["status"],
                "spans": [
                    [s[tracing.NAME], s[tracing.START] - origin, s[tracing.END] - origin, s[tracing.PARENT]]
                    for s in op["spans"]
                ],
            }) + "\n")


if __name__ == "__main__":
    sys.exit(main())
