#!/usr/bin/env python3
"""Self-test of the benchmark, in seconds rather than minutes.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny size (--tiny: a few
programs) and checks that:
  - an untraced run emits every end_to_end metric, and a traced run
    every per_layer metric, each with the unit BENCHMARK.json names;
  - a clean run is correct with no failed cells;
  - a deliberately corrupted report (--corrupt-cell) trips the digest
    check: the run reports correct=false, counts the cell as failed,
    lowers ok_ratio and exits non-zero;
  - a held-out fuzz_grid program set is checked against the per-cell
    replay path.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "1",
         "--tiny"] + list(args),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout + proc.stderr


def expect(cond, what, output):
    if not cond:
        print("selftest FAILED: " + what)
        print(output)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            rc, res, out = run("--workload", name, "--seed", "2021",
                               "--trace", str(trace))
            what = "%s trace %d" % (name, trace)
            expect(rc == 0 and res is not None, what + ": exit 0", out)
            expect(set(res) == {"correct", "attempted", "failed",
                                "metrics"}, what + ": result keys", out)
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1, what + ": correct", out)
            names = {m["name"] for m in wanted[trace]}
            expect(set(res["metrics"]) == names,
                   what + ": metric names", out)
            for m in wanted[trace]:
                got = res["metrics"][m["name"]]
                expect(got["unit"] == m["unit"] and
                       isinstance(got["value"], (int, float)),
                       what + ": " + m["name"], out)
            print("ok  %s" % what)

        rc, res, out = run("--workload", name, "--seed", "2021",
                           "--trace", "0", "--corrupt-cell", "0")
        what = "%s corrupted report" % name
        expect(rc != 0 and res is not None and not res["correct"]
               and res["failed"] >= 1
               and res["metrics"]["ok_ratio"]["value"] < 1, what, out)
        print("ok  %s trips the check" % name)

    rc, res, out = run("--workload", "fuzz_grid", "--held-out-seed",
                       "9001", "--trace", "0")
    expect(rc == 0 and res["correct"] and
           "per-cell runReplay of held-out program set 9001" in out,
           "held-out fuzz_grid set", out)
    print("ok  held-out fuzz_grid set checked against per-cell replay")
    print("selftest: ok")


if __name__ == "__main__":
    main()
