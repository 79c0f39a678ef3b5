#!/usr/bin/env python3
"""Self-tests of the host-cost benchmark. Run from the repository root:

    python3 perfbench/selftest.py [--skip-guard]

Checks, each with short runs of the benchmark binary:
  1. every workload prints exactly the metric names and units BENCHMARK.json
     lists, end to end with --trace 0 and per layer with --trace 1 (the raw
     host times and the calibration reference among them), with zero failed
     cells;
  2. two runs with the same seed give identical counts and digests;
  3. another seed changes the generated input (the access order) but not the
     work totals, so accesses_per_s stays comparable across seeds;
  4. dropping one collected page (--mutate-drop-page) fails the access cell;
  5. without src/ next to it, run.py exits non-zero and prints no result;
  6. (unless --skip-guard) an audit build refuses to report timings.
Exits 0 when every check passes.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # keep the source tree free of __pycache__
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build helper)

SPEC = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
FAILURES = []
# Counts that depend on host thread timing (drainer progress), not on the seed.
TIMING_DEPENDENT = {"hypervisor.ring_entries_drained"}


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def drive(binary, workload, seed, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
           "--trace", str(trace), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        return p.returncode, None, None
    result = json.loads(p.stdout.strip().splitlines()[-1])
    info = None
    for line in p.stderr.splitlines():
        if line.startswith("perfbench-info "):
            info = json.loads(line[len("perfbench-info "):])
    return 0, result, info


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--skip-guard", action="store_true",
                    help="skip the audit-build guard test (it needs a second build)")
    args = ap.parse_args()
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = run.build(os.path.join(build_root, "perfbench"))
    if binary is None:
        print("FAIL build", file=sys.stderr)
        return 1

    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for w in [x["name"] for x in SPEC["workloads"]]:
        for trace, want in ((0, e2e), (1, layer)):
            rc, res, info = drive(binary, w, 7, trace)
            check(rc == 0 and res is not None, f"{w} --trace {trace}: exit 0 with a result")
            if res is None:
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{w} --trace {trace}: metric names and units match BENCHMARK.json")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{w} --trace {trace}: correct, {res['attempted']} attempted, 0 failed")
            if trace == 0:
                check(all(v["value"] > 0 for v in res["metrics"].values()),
                      f"{w}: every end-to-end metric is non-zero")
            else:
                check(all(res["metrics"][k]["value"] > 0 for k in got if k.startswith("host.")),
                      f"{w}: raw host times and the reference kernel are reported")
        # Same seed twice: identical counts and per-cell digests.
        runs = [drive(binary, w, 7, 1) for _ in range(2)]
        if all(r[1] is not None for r in runs):
            counts = [{k: v["value"] for k, v in r[1]["metrics"].items()
                       if v["unit"] == "count" and k not in TIMING_DEPENDENT} for r in runs]
            check(counts[0] == counts[1], f"{w}: same seed gives identical counts")
            check(runs[0][2]["digests"] == runs[1][2]["digests"],
                  f"{w}: same seed gives identical clock+counter digests")

    # Another seed: new access order, same work totals.
    a = drive(binary, "access", 7, 0)[2]
    b = drive(binary, "access", 8, 0)[2]
    check(a["plans"][0] != b["plans"][0], "access: another seed changes the access order")
    check(set(a["accesses"]) == set(b["accesses"]) and len(set(a["accesses"])) == 1,
          "access: another seed keeps the same accesses per round")
    # gc: the tracker's share of accesses follows the pages the graph shape
    # dirties, so compare the collector's work totals instead.
    _, g7, g7_info = drive(binary, "gc", 7, 1)
    _, g8, g8_info = drive(binary, "gc", 8, 1)
    check(g7_info["digests"] != g8_info["digests"], "gc: another seed changes the object graphs")
    totals = ("trackers.gc.cycles", "trackers.gc.objects_freed")
    check(all(g7["metrics"][k] == g8["metrics"][k] for k in totals),
          "gc: another seed keeps the same cycles and objects freed")

    # Mutation: one collected page removed must fail its cell.
    rc, res, _ = drive(binary, "access", 7, 0, "--mutate-drop-page")
    check(rc == 0 and res is not None and not res["correct"] and res["failed"] >= 1,
          "access: dropping one collected page fails the cell")

    # Without the simulator sources the benchmark must fail without a result.
    with tempfile.TemporaryDirectory(dir=build_root) as tmp:
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp)
        p = subprocess.run(["python3", "perfbench/run.py", "--workload", "gc", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
                           cwd=tmp, capture_output=True, text=True,
                           env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        check(p.returncode != 0 and p.stdout.strip() == "",
              "without src/: non-zero exit and no result")

    if not args.skip_guard:
        guard_dir = os.path.join(build_root, "perfbench-audit")
        cfg = ["cmake", "-S", HERE, "-B", guard_dir, "-DCMAKE_BUILD_TYPE=Release",
               "-DOOH_COHERENCE_AUDITS=ON"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        built = (subprocess.run(cfg, capture_output=True).returncode == 0 and
                 subprocess.run(["cmake", "--build", guard_dir, "-j", "4"],
                                capture_output=True).returncode == 0)
        check(built, "audit build compiles")
        if built:
            p = subprocess.run([os.path.join(guard_dir, "perfbench"), "--workload", "gc",
                                "--seed", "1", "--seconds", "0.1", "--trace", "0"],
                               capture_output=True, text=True)
            check(p.returncode != 0 and p.stdout.strip() == "",
                  "audit build refuses to report timings")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
