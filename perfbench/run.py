#!/usr/bin/env python3
"""The repository benchmark.

Builds perfbench/main.exe from the checkout it sits in (dune, build
directory _build), runs one workload in a child process and prints the
child's report.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Untraced runs
(--trace 0) report the end-to-end metrics, to which this script adds
peak_rss_mb, the child's peak resident memory; traced runs (--trace 1)
report the per-layer metrics and write the spans as Chrome trace JSON
under .perfbench/.

    python3 perfbench/run.py --workload timestep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Exits nonzero, without a result line, if the build or the workload
fails; a run whose outputs are wrong prints its result and exits 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ["timestep", "serve", "oneshot"]
CHILD_TIMEOUT_S = 170
# glibc would hand each freed 128 MiB simulated machine back to the
# kernel and fault it in again on the next Machine.create; how long the
# page faults take depends on the host's other tenants, which made the
# one-shot latency tail unrepeatable.  Pinning both thresholds keeps
# freed memory in the process, so a run measures the zeroing itself.
# One malloc arena lets a machine built on a new domain (each serve
# set-up spawns one) reuse the memory an earlier domain's machine freed,
# so peak memory does not depend on which arena a thread drew.
CHILD_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432",
             "MALLOC_TRIM_THRESHOLD_": "1073741824",
             "MALLOC_ARENA_MAX": "1"}
# The layers' self times must account for this share (percent) of the
# untraced operation time, or the self-test fails.
ACCOUNTED_PCT = (75.0, 125.0)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the benchmark executable; False if that fails."""
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        log("perfbench: neither dune nor opam is on PATH")
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune + ["build", "--root", ROOT, "--display", "quiet",
                  "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("perfbench: build failed: %s" % e)
        return False
    return r.returncode == 0 and os.path.exists(EXE)


def commit():
    """The checked-out commit, read from .git without running git (the
    benchmark may run from a plain copy of the tree)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_child(workload, seed, seconds, trace, echo=True):
    """Run one workload; returns (exit code, result dict or None, stdout
    lines, peak RSS in MB)."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--nproc", str(nproc()), "--commit", commit()]
    if trace:
        cmd += ["--trace-out", os.path.join(OUT, "trace-%s.json" % workload)]
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         env=dict(os.environ, **CHILD_ENV))
    killer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    killer.start()
    lines = []
    try:
        for line in p.stdout:
            line = line.rstrip("\n")
            lines.append(line)
            if echo and not line.startswith("{"):
                print(line, flush=True)
    finally:
        p.stdout.close()
        # wait4 (not Popen.wait) to read this child's own resource usage
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        killer.cancel()
    result = None
    if lines and lines[-1].startswith("{"):
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, result, lines, usage.ru_maxrss / 1024.0


def run_one(workload, seed, seconds, trace):
    code, result, _, rss_mb = run_child(workload, seed, seconds, trace)
    if result is None or code not in (0, 1):
        log("perfbench: workload %s exited %d without a result" % (workload, code))
        return 2, None
    if not trace:
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        print("metric %-36s %18.6f MB" % ("peak_rss_mb", rss_mb))
    return code, result


def merge_traces():
    """One Chrome trace holding every workload's lane."""
    events = []
    for w in WORKLOADS:
        path = os.path.join(OUT, "trace-%s.json" % w)
        if os.path.exists(path):
            with open(path) as f:
                events.extend(json.load(f))
    with open(os.path.join(OUT, "trace-all.json"), "w") as f:
        json.dump(events, f)


def self_test():
    """The harness checks itself at minimal run length: every named
    metric printed with its unit on every workload, the traced
    decompositions bit-identical to their entry points, the layers
    accounting for the untraced operation time, and the inputs digest
    repeating across two invocations with one seed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    better = {m["name"]: "%s %s" % (m["unit"], m["better"]) for m in spec["per_layer"]}
    problems = []
    listed = subprocess.run([EXE, "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    catalogue = dict(line.split(" ", 1) for line in listed if line)
    if catalogue != better:
        problems.append("BENCHMARK.json per_layer differs from the catalogue")
    for w in WORKLOADS:
        digests = []
        for _ in range(2):
            code, result, lines, rss = run_child(w, 7, 1, 0, echo=False)
            digests += [l for l in lines if "inputs digest" in l]
            if code != 0 or result is None or not result["correct"]:
                problems.append("%s: untraced run failed (exit %d)" % (w, code))
                continue
            got = dict(result["metrics"], peak_rss_mb={"value": rss, "unit": "MB"})
            for name, unit in e2e.items():
                if got.get(name, {}).get("unit") != unit:
                    problems.append("%s: end-to-end %s missing or not in %s" % (w, name, unit))
        if len(digests) != 2 or digests[0] != digests[1]:
            problems.append("%s: inputs digest does not repeat: %s" % (w, digests))
        code, result, lines, _ = run_child(w, 7, 1, 1, echo=False)
        if code != 0 or result is None or not result["correct"]:
            problems.append("%s: traced run failed (exit %d)" % (w, code))
            continue
        for name, unit in layer.items():
            if result["metrics"].get(name, {}).get("unit") != unit:
                problems.append("%s: per-layer %s missing or not in %s" % (w, name, unit))
        if w in ("timestep", "oneshot"):
            ident = [l for l in lines if l.startswith("decomposition vs")]
            if not ident or not ident[0].endswith(" 0 not bit-identical"):
                problems.append("%s: decomposition not bit-identical: %s" % (w, ident))
        acc = result["metrics"]["trace.accounted_pct"]["value"]
        lo, hi = ACCOUNTED_PCT
        if not lo <= acc <= hi:
            problems.append("%s: layers account for %.1f%% of the untraced time" % (w, acc))
        print("self-test %s: traced accounted %.1f%%, digest %s" % (w, acc, digests[0] if digests else "-"))
    for p in problems:
        print("self-test FAIL " + p)
    print("self-test %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not build():
        log("perfbench: build failed")
        return 2
    if args.self_test:
        return self_test()
    if args.workload != "all":
        code, result = run_one(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return code
        print(json.dumps(result))
        return code
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, result = run_one(w, args.seed, args.seconds, args.trace)
        if result is None:
            return code
        worst = max(worst, code)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, v in result["metrics"].items():
            combined["metrics"]["%s.%s" % (w, name)] = v
    if args.trace:
        merge_traces()
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
