#!/usr/bin/env python3
"""The repository benchmark: build, run, check and report one workload.

    python3 perfbench/run.py --workload <paper_grid|dse_mix|fleet_warm>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench program (perfbench/CMakeLists.txt, Release) from the
checkout this file sits in, into .bench_build/perfbench, runs the workload
and checks the program's report against BENCHMARK.json.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 1 the metrics are the
per-layer ledger and the benchmark's spans are written to
.bench_build/perfbench/spans-<workload>-<seed>.json, which must parse.
Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper_grid", "dse_mix", "fleet_warm")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources in {ROOT}: the benchmark builds the "
             "program from the checkout it sits in")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(BUILD), "--target", "perfbench",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "perfbench"


def expected_metrics(traced):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    group = spec["per_layer" if traced else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def valid_span_file(path):
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        print(f"WARNING: span file {path} does not parse: {error}")
        return False
    events = document.get("traceEvents") if isinstance(document, dict) else None
    if not events or not all(
            {"name", "ph", "ts", "dur", "args"} <= set(e) for e in events):
        print(f"WARNING: span file {path} holds no complete trace events")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    expected = expected_metrics(args.trace == 1)
    spans = BUILD / f"spans-{args.workload}-{args.seed}.json"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        spans.unlink(missing_ok=True)
        command += ["--spans", str(spans)]
    # Its own process group, so a timeout also stops the fleet processes
    # the program forks.
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as run:
        try:
            stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            run.communicate()
            fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {run.returncode}")
    report = json.loads(lines[-1])

    build_info = report["build"]
    fingerprint = {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "compiler": build_info["compiler"],
        "cxx_flags": build_info["cxx_flags"].strip(),
        "build_type": build_info["build_type"],
        "dew_obs": build_info["dew_obs"],
        "workload": args.workload,
        "seed": args.seed,
        "comparable": build_info["build_type"] == "Release",
    }
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    if not fingerprint["comparable"]:
        print("WARNING: not a Release build; these results are not comparable")

    metrics = report["metrics"]
    correct = bool(report["correct"])
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}")
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            fail(f"{name} reported in {metrics[name]['unit']}, expected {unit}")
    if args.trace:
        correct = valid_span_file(spans) and correct
        print(f"spans: {spans.relative_to(ROOT)}")

    for name in sorted(metrics):
        print(f"{name:34} {metrics[name]['value']:>16.6g} {metrics[name]['unit']}")
    for key, value in report["notes"].items():
        print(f"  note {key} = {value:.6g}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  error_rate = {failed / attempted if attempted else 0:.6g} "
          f"({failed} of {attempted} attempted)")
    for warning in report["warnings"]:
        print(f"WARNING: {warning}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
