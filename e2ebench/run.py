#!/usr/bin/env python3
"""End-to-end benchmark of the Jump-Start reproduction.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run builds the repository's
libraries and the `jsbench` binary from source into `.bench_build/`
(CMake, Release: -O2 with assertions on); later runs reuse the build.

One run is two processes of `jsbench`, one per part, so no figure
depends on what else ran earlier in the same process:

  serve      20% of S: open-loop concurrent serving with a background
             retranslate-all on server_load's site, then one search of
             the serve capacity;
  lifecycle  80% of S: rounds of the warmup phase (the paper's Figure 4
             lifecycle: seeder, package, consumer boots, a simulated
             warmup window with and without Jump-Start) and the steady
             phase (Figure 5: simulated steady state on a Jump-Start
             consumer and on a self-warmed server).

Each part first sets up its inputs three times (the serve part's include
the serve request stream and its legacy-engine reference outputs).  The
result merges both parts: `setup_s` is the sum of their set-up medians,
`peak_rss_mb` the larger peak, and per-layer busy times and call counts
of a span both parts call add up.

Every correctness check runs inside the command: a failed check prints
`"correct": false` and exits 1.  The last line of standard output is the
result: every end-to-end metric of BENCHMARK.json with --trace 0, every
per-layer metric with --trace 1.  The lines before it give the host, each
metric's sample count and spread, and (traced runs) every per-layer value
and the busy and self time of every span.  Each run's full result is kept
under `.bench_build/results/`; a traced run whose untraced twin (same
workload and seed) is there also prints the tracing overhead of every
end-to-end metric, and writes its raw spans next to it.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2ebench", "jsbench")
RESULTS = os.path.join(BUILD, "results")
# The contract allows 180 s per run; leave room for reporting.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# The parts of a run, in order, with their share of --seconds.
PARTS = (("serve", 0.2), ("lifecycle", 0.8))
# End-to-end metrics both parts report: set-up times add up, the peak
# resident set is the larger one.  Any other metric comes from one part.
SUMMED_METRICS = ("setup_s",)
MAX_METRICS = ("peak_rss_mb",)


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds jsbench once per checkout (serialised by a
    lock so concurrent first runs do not race)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "vm", "Server.h")):
        fail("repository sources (src/) not found next to e2ebench/")
    os.makedirs(BUILD, exist_ok=True)
    out = os.path.join(BUILD, "e2ebench")
    with open(os.path.join(BUILD, "e2ebench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "e2ebench"),
                          "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                fail(f"build failed: {' '.join(cmd)}")


def cmake_cache(key):
    path = os.path.join(BUILD, "e2ebench", "CMakeCache.txt")
    with open(path) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def git_sha():
    """HEAD of the checkout when it is a git work tree, read from .git
    directly so nothing outside the checkout is consulted."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def host_block():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "compiler": compiler, "compiler_version": version,
            "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
            "git_sha": git_sha()}


def run_part(part, share, args, stem, deadline):
    """Runs one part in its own jsbench process; returns its result."""
    cmd = [BINARY, "--workload", args.workload, "--part", part,
           "--seed", str(args.seed), "--seconds", str(share * args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", f"{stem}.{part}.spans.jsonl"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True,
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"jsbench --part {part} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"jsbench --part {part} exited with {done.returncode}")
    return json.loads(lines[-1])


def merge(parts):
    """One result from the parts' results."""
    out = {"correct": all(p["correct"] for p in parts),
           "attempted": sum(p["attempted"] for p in parts),
           "failed": sum(p["failed"] for p in parts),
           "checks": sum(p["checks"] for p in parts),
           "failures": [f for p in parts for f in p["failures"]],
           "metrics": {}, "layers": {}, "spans": {}}
    for p in parts:
        for name, m in p["metrics"].items():
            have = out["metrics"].get(name)
            if have is None:
                out["metrics"][name] = dict(m)
            elif name in SUMMED_METRICS:
                for key in ("value", "min", "max"):
                    have[key] += m[key]
                have["samples"] = min(have["samples"], m["samples"])
            elif name in MAX_METRICS:
                for key in ("value", "min", "max"):
                    have[key] = max(have[key], m[key])
            else:
                fail(f"both parts report end-to-end metric {name}")
        for name, layer in p["layers"].items():
            have = out["layers"].get(name)
            if have is None:
                out["layers"][name] = dict(layer)
            elif name.endswith(("_s", "_n")):
                # Busy time and calls of a span both parts call.
                have["value"] += layer["value"]
            else:
                fail(f"both parts report per-layer metric {name}")
        for name, span in p["spans"].items():
            have = out["spans"].setdefault(
                name, {"seconds": 0, "self_seconds": 0, "calls": 0})
            for key in have:
                have[key] += span[key]
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    start = time.monotonic()
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
    build()
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}")
    deadline = start + RUN_TIMEOUT_S
    result = merge([run_part(part, share, args, stem, deadline)
                    for part, share in PARTS])
    result["host"] = host_block()
    result["wall_s"] = time.monotonic() - start

    print("host: " + json.dumps(result["host"]))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"checks {result['checks']}  attempted {result['attempted']}  "
          f"failed {result['failed']}  "
          f"fail_rate {result['failed'] / result['attempted']:.6g}")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:26s} {m['value']:>16.6g} {m['unit']:8s} "
              f"samples={m['samples']:<4d} min={m['min']:.6g} "
              f"max={m['max']:.6g}")
    for failure in result["failures"]:
        print(f"  CHECK FAILED: {failure}")

    correct = result["correct"]
    wanted = per_layer if args.trace else end_to_end
    source = result["layers"] if args.trace else result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in source or
               source[m["name"]]["unit"] != m["unit"]]
    if missing:
        fail("metrics not produced with their declared unit: " +
             ", ".join(missing))

    if args.trace:
        for name, layer in sorted(result["layers"].items()):
            print(f"  layer {name:26s} {layer['value']:>16.6g} "
                  f"{layer['unit']}")
        for name, s in sorted(result["spans"].items()):
            print(f"  span {name:22s} busy={s['seconds']:.6f}s "
                  f"self={s['self_seconds']:.6f}s calls={s['calls']}")
        untraced = stem + "-trace0.json"
        if os.path.isfile(untraced):
            with open(untraced) as f:
                base = json.load(f)["metrics"]
            for m in end_to_end:
                name = m["name"]
                delta = result["metrics"][name]["value"] - base[name]["value"]
                print(f"  tracing overhead {name:20s} {delta:+.6g} "
                      f"{m['unit']}")
        else:
            print("  (no untraced run of this workload and seed yet: "
                  "tracing overhead not reported)")
    with open(f"{stem}-trace{args.trace}.json", "w") as f:
        json.dump(result, f, indent=1)

    metrics = {m["name"]: {"value": source[m["name"]]["value"],
                           "unit": source[m["name"]]["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
