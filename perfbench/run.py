#!/usr/bin/env python3
"""The repo benchmark: build it, run one workload, check it, report.

    python3 perfbench/run.py --workload serve|sweep|campaign --seed N \
        --seconds S --trace 0|1

Run from the repository root (any working directory works). The first run
configures and builds perfbench/ (which builds the library from the
repository's own CMakeLists.txt) under .bench_build/; later runs only check
that build is current.

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1 runs
the per-layer suites and prints every per-layer metric, writing the run's
spans to .bench_build/traces/. Before the summary it prints the workload's
own metric names with units. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Exits nonzero, without a summary, if the build fails, the build is not a
contract-free Release build, any correctness check fails, or a pinned
digest differs at a pinned seed.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no repository to build (CMakeLists.txt and src/ missing)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (full log: " + str(log_path) + ")")
    return BUILD / "perfbench_workload"


def run_workload(binary, args, work_dir, spans):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--spans", str(spans)]
    # Its own process group, so a timeout also stops the sweep's forked pools
    # and workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"perfbench_workload did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"perfbench_workload exited with code {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail("perfbench_workload printed no result")
    return json.loads(lines[-1])


def number(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["serve", "sweep", "campaign"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        fail(f"{bench_path} not found")
    bench = json.loads(bench_path.read_text())
    spec = json.loads((HERE / "workloads.json").read_text())
    binary = build()

    work_dir = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans = ROOT / ".bench_build" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    doc = run_workload(binary, args, work_dir, spans)

    env = doc["env"]
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if env["build_type"] != "Release" or env["contracts"] != "off":
        fail("refusing to report numbers from a build that is not Release with contracts off")

    failed_checks = [c for c in doc["checks"] if not c["ok"]]
    for c in doc["checks"]:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}" +
              (f" ({c['detail']})" if c["detail"] else ""))
    if failed_checks:
        fail(f"{len(failed_checks)} correctness check(s) failed")

    pinned = spec["workloads"][args.workload]["pins"].get(str(args.seed), {})
    for name, got in doc["pins"].items():
        want = pinned.get(name)
        status = "--  " if want is None else "ok  " if got == want else "FAIL"
        print(f"pin  {status} {name} = {got}" + ("" if want is None else f" (pinned {want})"))
    mismatched = [n for n, want in pinned.items() if args.trace == 0 and doc["pins"].get(n) != want]
    if mismatched:
        fail(f"{', '.join(mismatched)} differ from the values pinned at seed {args.seed}")

    if args.trace == 0:
        for m, v in doc["report"].items():
            print(f"{m} = {v['value']} {v['unit']} (n={v['samples']})")
        wanted, source = bench["end_to_end"], doc["metrics"]
        attempted, failed = doc["attempted"], doc["failed"]
    else:
        wanted, source = bench["per_layer"], doc["layers"]
        for m, v in source.items():
            note = f" -- {v['reason']}" if v.get("reason") else ""
            print(f"{m} = {v['value']} {v['unit']} (n={v['samples']}){note}")
        attempted = len(source)
        failed = sum(1 for v in source.values() if v["value"] is None)

    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None:
            fail(f"perfbench_workload did not report {m['name']}")
        if got["value"] is not None and not number(got["value"]):
            fail(f"{m['name']} is not a number: {got['value']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if attempted < 1:
        fail("nothing was attempted")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
