#!/usr/bin/env python3
"""Mira's benchmark: build, pin, run one workload, print one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_batch --seed 1 --seconds 12 --trace 0

The workload code lives in perfbench/*.ml (one dune executable); this
script builds it together with the `mira` binary, pins the benchmark to
one CPU and the `mira serve` daemon to another when the host has two,
records the environment, and relays the executable's output, whose last
line is the JSON result.

    python3 perfbench/run.py --aa 10 [--workload W ...] [--seconds S]

is the A/A mode: each workload runs ten or more times with different
seeds, and every end-to-end metric is printed with its median,
quartiles and relative spread next to its bound from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
MIRA = os.path.join("_build", "default", "bin", "mira.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    for f in ("dune-project", os.path.join("bin", "mira.ml"), os.path.join("lib", "core", "batch.ml")):
        if not os.path.exists(f):
            fail("not the root of a Mira checkout (missing %s)" % f)


def build():
    cmd = ["dune", "build", "./perfbench/main.exe", "./bin/mira.exe"]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(EXE) or not os.path.exists(MIRA):
        fail("build failed: " + " ".join(cmd))


def commit_id():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # no repository: a digest of the sources the benchmark builds
    h = hashlib.sha1()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "tree:" + h.hexdigest()


def pinning(workload):
    """(benchmark cpu, daemon cpu) or None when the host cannot pin apart.

    The program's own work goes to the last CPU: in-process workloads
    run there, and serve_mixed puts its daemon there.  On the 2-vCPU
    host this was measured on, identical runs pinned to the first CPU
    varied about twice as much as on the last."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None
    if len(cpus) < 2 or shutil.which("taskset") is None:
        return None
    if workload == "serve_mixed":
        return cpus[0], cpus[-1]
    return cpus[-1], cpus[0]


def run_once(spec, workload, seed, seconds, trace, echo=True):
    """Run one measurement; return (exit code, parsed result or None)."""
    env = dict(os.environ)
    env["PERFBENCH_COMMIT"] = commit_id()
    env["PERFBENCH_MIRA"] = MIRA
    pin = pinning(workload)
    preexec = None
    if pin is not None:
        env["PERFBENCH_DAEMON_CPU"] = str(pin[1])
        bench_cpu = pin[0]

        def preexec():
            os.setsid()
            os.sched_setaffinity(0, {bench_cpu})
    else:
        env.pop("PERFBENCH_DAEMON_CPU", None)
        preexec = os.setsid
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, preexec_fn=preexec)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, None
    finally:
        # the benchmark and any daemon it spawned share this session;
        # nothing of it may outlive the run
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            deadline = time.time() + 10
            while time.time() < deadline:
                os.killpg(proc.pid, 0)
                time.sleep(0.05)
        except ProcessLookupError:
            pass
    lines = out.rstrip("\n").split("\n") if out else []
    if echo:
        for line in lines[:-1]:
            print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    ok = (proc.returncode == 0 and isinstance(result, dict)
          and set(result) == {"correct", "attempted", "failed", "metrics"})
    if not ok:
        print("perfbench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return (proc.returncode or 1), None
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != declared:
        print("perfbench: metrics differ from BENCHMARK.json: %s"
              % sorted(set(result["metrics"]) ^ declared), file=sys.stderr)
        return 1, None
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        print("perfbench: a metric is not a number", file=sys.stderr)
        return 1, None
    if echo:
        print(lines[-1])
    return 0, result


def aa(args, spec):
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    status = 0
    for w in names:
        values = {m: [] for m in bounds}
        t0 = time.time()
        for i in range(args.aa):
            code, res = run_once(spec, w, args.seed + i, seconds, 0, echo=False)
            if code != 0 or not res["correct"]:
                print("%s seed %d: failed" % (w, args.seed + i))
                status = 1
                continue
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        print("== %s: %d runs in %.0f s" % (w, args.aa, time.time() - t0))
        for m, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[m] / 3 else ("  ABOVE 1/3 BOUND" if spread < bounds[m] else "  ABOVE BOUND")
            print("  %-18s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.3f  bound %.3f%s"
                  % (m, med, q1, q3, spread, bounds[m], flag))
            print("  %-18s values %s" % ("", " ".join("%.4f" % v for v in vs)))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--aa", type=int, metavar="N", help="A/A mode: N runs per workload")
    args = ap.parse_args()
    check_checkout()
    build()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.aa:
        if args.aa < 2:
            fail("--aa needs at least 2 runs")
        sys.exit(aa(args, spec))
    if not args.workload or len(args.workload) != 1:
        fail("give exactly one --workload")
    code, _ = run_once(spec, args.workload[0], args.seed, args.seconds or spec["run_seconds"], args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
