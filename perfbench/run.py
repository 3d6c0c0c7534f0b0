#!/usr/bin/env python3
"""The repository benchmark: build gam_perfbench, run one workload, check
its outputs against perfbench/reference.json and print the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--out <dir>]

Run it from the repository root.  The binary is built from source with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
stores, the Chrome trace, the self-time table and the full result go to
an output directory under the same build root (or --out), never into the
source tree.  The last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1).  A human-readable report -- each metric
with its unit and sample count, failed_frac, the run's stamp and, for a
traced run, the per-layer self-time tables -- goes to standard error.
The exit code is 0 only when every output matched its reference.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "decide_single")
# What each generic end-to-end metric is on each workload.
MEANING = {
    "ops_per_s": {
        "campaign": "dec_per_s: decisions/s of the fastest cold and "
                    "resumed passes",
        "decide_single": "dec_per_s: decisions/s of the per-query bests",
    },
    "call_p50_us": {
        "campaign": "the fastest resumed runCampaign pass",
        "decide_single": "decide_p50_us: one decide() call",
    },
    "call_p99_us": {
        "campaign": "the fastest cold runCampaign pass",
        "decide_single": "decide_p99_us: one decide() call",
    },
}


def fail(message):
    """Refuse the run: a diagnostic, no result line, exit code 2."""
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s (%s): %s" % (what, path, e))


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build the benchmark binary; its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are missing "
             "beside perfbench/; run from a full checkout")
    build_dir = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "gam_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (" ".join(cmd), e))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "gam_perfbench")


def self_time(trace_path):
    """Per-span-name (calls, total ms, self ms) from a Chrome trace.

    Self time is a span's duration minus the part of it its direct
    children (same thread, nested intervals) cover.
    """
    events = load_json(trace_path, "trace").get("traceEvents", [])
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    table = {}
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, name, child_us, dur]

        def close(frame):
            row = table.setdefault(frame[1], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += frame[3] / 1e3
            row[2] += (frame[3] - frame[2]) / 1e3

        for e in evs:
            while stack and stack[-1][0] <= e["ts"]:
                close(stack.pop())
            if stack:
                stack[-1][2] += e["dur"]
            stack.append([e["ts"] + e["dur"], e["name"], 0.0, e["dur"]])
        while stack:
            close(stack.pop())
    return sorted(table.items(), key=lambda kv: -kv[1][2])


def check_references(workload, raw, reference):
    """Failures found against perfbench/reference.json, with reasons."""
    failed, reasons = 0, []
    checks = raw["checks"]
    if workload == "campaign":
        pin = reference["campaign"]
        passes = checks.get("passes", [])
        for i, p in enumerate(passes):
            bad = []
            if p["allowed"] != pin["allowed"]:
                bad.append("allowed tallies %s" % p["allowed"])
            if p["decisions"] != pin["decisions_per_pass"]:
                bad.append("%d decisions" % p["decisions"])
            misses = p["decisions"] - p["store_hits"]
            if p["resumed"] and misses != 0:
                bad.append("%d store misses" % misses)
            if not p["resumed"] and p["store_hits"] != 0:
                bad.append("%d store hits on a fresh store" % p["store_hits"])
            if bad:
                failed += p["decisions"]
                reasons.append("pass %d: %s" % (i, ", ".join(bad)))
    if "sim" in checks:
        pinned = {(s["workload"], s["model"]): s for s in reference["sim"]}
        for s in checks.get("sim", []):
            want = pinned.get((s["workload"], s["model"]))
            if want != s:
                failed += 1
                diff = sorted(k for k in s if want is None or want.get(k) != s[k])
                reasons.append("%s/%s SimStats differ: %s"
                               % (s["workload"], s["model"], ", ".join(diff)))
    return failed, reasons


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="output directory (default: under "
                        "the build root)")
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (one of %s)" % (args.workload,
                                                  ", ".join(WORKLOADS)))
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"), "BENCHMARK.json")
    reference = load_json(os.path.join(HERE, "reference.json"),
                          "the pinned reference")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    binary = build()

    out_dir = args.out or os.path.join(
        build_root(), "perfbench-out",
        "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("gam_perfbench timed out")
    finally:
        for name in os.listdir(out_dir):
            if name.endswith(".store"):
                os.remove(os.path.join(out_dir, name))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("gam_perfbench exited %d" % proc.returncode)
    raw = json.loads(lines[-1])

    failed, reasons = check_references(args.workload, raw, reference)
    failed += raw["failed"]
    attempted = raw["attempted"]

    metrics, report = {}, []
    for m in declared:
        name = m["name"]
        if name not in raw["metrics"]:
            fail("gam_perfbench did not report %s" % name)
        got = raw["metrics"][name]
        metrics[name] = {"value": got["value"], "unit": m["unit"]}
        meaning = MEANING.get(name, {}).get(args.workload, "")
        report.append("  %-36s %16.6g %-8s n=%-7d %s"
                      % (name, got["value"], m["unit"], got["samples"],
                         meaning))
    stamp = raw["stamp"]
    err = sys.stderr
    print("perfbench %s seed=%d seconds=%d trace=%d | nproc=%d compiler=%s "
          "build=%s workers=%d"
          % (args.workload, args.seed, args.seconds, args.trace,
             stamp["nproc"], stamp["compiler"], stamp["build_type"],
             stamp["workers"]), file=err)
    print("\n".join(report), file=err)
    print("  %-36s %16.6g %-8s n=%d"
          % ("failed_frac", failed / max(1, attempted), "ratio", attempted),
          file=err)
    for note in raw["notes"] + reasons:
        print("  note: " + note, file=err)

    if args.trace:
        rows = self_time(os.path.join(out_dir, "trace.json"))
        lines = ["program + benchmark spans (retained window, %d events "
                 "dropped): name, calls, total ms, self ms"
                 % raw["layers"]["trace_dropped_events"]]
        lines += ["  %-28s %9d %12.3f %12.3f" % (n, r[0], r[1], r[2])
                  for n, r in rows]
        lines.append("layer pass (%.3f s): layer, busy ms, calls"
                     % raw["layers"]["pass_s"])
        lines += ["  %-28s %12.3f %9d" % (n, ms, calls)
                  for n, ms, calls in raw["layers"]["rows"]]
        with open(os.path.join(out_dir, "selftime.txt"), "w") as f:
            f.write("\n".join(lines) + "\n")
        print("\n".join(lines), file=err)

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump({"result": result, "raw": raw, "reasons": reasons}, f,
                  indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
