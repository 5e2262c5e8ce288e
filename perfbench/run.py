#!/usr/bin/env python3
"""Build and run the serving benchmark (perfbench/README.md).

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload hot_zipf --seed 1 --seconds 30 --trace 0

Build output goes to stderr. The build directory is $CARGO_TARGET_DIR
(default .bench_build) under the repository root; traced runs write
their Chrome trace-event file there too.

Self-test (unit tests, tamper detection, metric names vs BENCHMARK.json):

    python3 perfbench/run.py --self-test
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_zipf", "cold_remote")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    bdir = build_dir()
    configure = ["cmake", "-S", HERE, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.exists(os.path.join(bdir, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    for cmd in (configure,
                ["cmake", "--build", bdir, "-j", jobs, "--target"]
                + list(targets)):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return bdir


def run_bench(bdir, workload, seed, seconds, trace, extra=(),
              capture=False):
    cmd = [os.path.join(bdir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(
            bdir, "trace-%s-seed%s.json" % (workload, seed))]
    cmd += list(extra)
    if capture:
        return subprocess.run(cmd, capture_output=True, text=True)
    return subprocess.run(cmd)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test():
    bdir = build(["perfbench", "perfbench_tests"])
    ok = True

    print("== unit tests")
    ok &= subprocess.run([os.path.join(bdir, "perfbench_tests")]
                         ).returncode == 0

    print("== tampered outputs must fail the run")
    for wl, why in (("hot_zipf", "differs from its reference"),
                    ("cold_remote", "does not replay")):
        r = run_bench(bdir, wl, 1, 3, 0, ["--tamper"], capture=True)
        passed = (r.returncode != 0 and why in r.stderr
                  and '"metrics"' not in r.stdout)
        print("  %s: exit %d, %s" % (wl, r.returncode,
                                     "ok" if passed else "NOT DETECTED"))
        ok &= passed

    print("== printed metrics match BENCHMARK.json")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        r = run_bench(bdir, "hot_zipf", 1, 20, trace, capture=True)
        res = last_json(r.stdout) if r.returncode == 0 else None
        got = ({k: v["unit"] for k, v in res["metrics"].items()}
               if res else {})
        passed = got == want
        print("  trace %d: %s" % (trace, "ok" if passed else
                                  "mismatch: missing %s, extra %s" % (
                                      sorted(set(want) - set(got)),
                                      sorted(set(got) - set(want)))))
        ok &= passed

    print("self-test", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    bdir = build(["perfbench"])
    sys.stdout.flush()
    return run_bench(bdir, args.workload, args.seed, args.seconds,
                     args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
