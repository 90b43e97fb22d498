#!/usr/bin/env python3
"""Alternating parent/change pairs of one perfbench workload, judged.

    python3 tools/perf_pairs.py --parent DIR --change DIR --workload W
                                [--seed S] [--seconds T] [--pairs N]
                                [--trace 0|1]
    python3 tools/perf_pairs.py --self-test

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace X`
in the parent checkout and in the change checkout, N pairs, the parent
first on odd pairs and the change first on even ones.  A run is read only
through run.py's last line, its JSON result.  For every metric that
BENCHMARK.json lists (end_to_end, or per_layer with --trace 1) it prints
each side's median and quartiles, the change's wins (ties count for
neither side) and whether the medians differ by more than the parent's
interquartile range; an end-to-end metric whose change median is worse
than the parent's by more than its bound is flagged.  Then it prints the
failed-operation counts of every run.

A gain counts only when the change wins at least nine tenths of the pairs
and the medians differ by more than the parent's IQR.  The script writes
nothing; each checkout's run.py builds its own program.
"""
import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_order(pair):
    """The sides of 1-based pair `pair` in the order they run."""
    return SIDES if pair % 2 == 1 else SIDES[::-1]


def quartiles(values):
    """(q1, median, q3) of `values`, quartiles by the inclusive method."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def better(a, b, direction):
    """Whether value `a` is strictly better than `b`."""
    return a < b if direction == "lower" else a > b


def judge(parent, change, direction, bound=None):
    """Judges one metric over paired runs (parent[i] and change[i])."""
    p1, p_median, p3 = quartiles(parent)
    c1, c_median, c3 = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    pairs = len(parent)
    resolved = abs(c_median - p_median) > p3 - p1
    improved = better(c_median, p_median, direction)
    verdict = {
        "parent": (p1, p_median, p3),
        "change": (c1, c_median, c3),
        "wins": wins,
        "pairs": pairs,
        "resolved": resolved,
        "gain": improved and resolved and wins >= math.ceil(0.9 * pairs),
        "beyond_bound": False,
    }
    if bound is not None and p_median != 0:
        worse = (c_median - p_median) / abs(p_median)
        if direction == "higher":
            worse = -worse
        verdict["beyond_bound"] = worse > bound
    return verdict


def describe(v):
    if v["gain"]:
        return "gain"
    if v["beyond_bound"]:
        return "WORSE beyond bound"
    if v["resolved"]:
        return "differs beyond parent IQR"
    return "within parent IQR"


def run_once(checkout, args):
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perf_pairs: run.py failed in {checkout} "
                 f"(exit {done.returncode}): {done.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def metric_specs(checkout, traced):
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    return spec["per_layer" if traced else "end_to_end"]


def report(specs, results):
    print(f"{'metric':34} {'unit':6} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'change/parent':>13} "
          f"{'wins':>6}  verdict")
    for spec in specs:
        name = spec["name"]
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        v = judge(parent, change, spec["better"], spec.get("bound"))
        p1, pm, p3 = v["parent"]
        c1, cm, c3 = v["change"]
        ratio = f"{cm / pm:.3f}" if pm else "-"
        print(f"{name:34} {spec['unit']:6} "
              f"{f'{pm:.6g} [{p1:.6g}, {p3:.6g}]':>30} "
              f"{f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':>30} {ratio:>13} "
              f"{v['wins']:>2}/{v['pairs']:<3}  {describe(v)}")
    for side in SIDES:
        runs = results[side]
        failed = [r["failed"] for r in runs]
        attempted = [r["attempted"] for r in runs]
        correct = all(r["correct"] for r in runs)
        print(f"{side}: failed {failed} of attempted {attempted}; "
              f"every answer correct: {correct}")


def self_test():
    assert run_order(1) == ("parent", "change")
    assert run_order(2) == ("change", "parent")
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)
    parent = [1.73, 1.90, 1.87, 1.86, 1.88, 1.80, 1.95, 1.84, 1.91, 1.79]
    change = [1.38, 1.34, 1.42, 1.25, 1.36, 1.40, 1.33, 1.37, 1.39, 1.35]
    v = judge(parent, change, "lower", 0.25)
    assert v["wins"] == 10 and v["resolved"] and v["gain"], v
    assert not v["beyond_bound"]
    # Nine wins of ten is enough, eight is not.
    assert judge(parent, change[:9] + [2.0], "lower")["gain"]
    assert not judge(parent, change[:8] + [2.0, 2.0], "lower")["gain"]
    # Ties count for neither side.
    assert judge([1.0, 2.0], [1.0, 1.0], "lower")["wins"] == 1
    # Medians inside the parent's IQR: no gain even on a clean sweep.
    close = judge([1.0, 1.2, 1.4, 1.6], [0.99, 1.19, 1.39, 1.59], "lower")
    assert close["wins"] == 4 and not close["resolved"] and not close["gain"]
    # Higher is better: the bound is on a fall.
    rps = judge([10.0, 10.0, 10.0], [7.0, 7.0, 7.0], "higher", 0.25)
    assert rps["beyond_bound"] and rps["wins"] == 0 and not rps["gain"]
    assert not judge([10.0] * 3, [8.0] * 3, "higher", 0.25)["beyond_bound"]
    assert judge([10.0] * 3, [13.0] * 3, "lower", 0.25)["beyond_bound"]
    assert judge([10.0] * 3, [12.0] * 3, "lower", 0.25)["resolved"]
    print("perf_pairs self-test: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return
    if not (args.parent and args.change and args.workload):
        parser.error("--parent, --change and --workload are required")

    specs = metric_specs(args.change, args.trace == 1)
    results = {side: [] for side in SIDES}
    checkouts = {"parent": args.parent, "change": args.change}
    for pair in range(1, args.pairs + 1):
        for side in run_order(pair):
            result = run_once(checkouts[side], args)
            results[side].append(result)
            shown = " ".join(f"{s['name']}={result['metrics'][s['name']]['value']:.6g}"
                             for s in specs[:6])
            print(f"pair {pair} {side}: {shown} failed={result['failed']}",
                  flush=True)
    print(f"\n{args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, {args.pairs} pairs")
    report(specs, results)


if __name__ == "__main__":
    main()
