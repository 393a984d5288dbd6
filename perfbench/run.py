#!/usr/bin/env python3
"""End-to-end benchmark of the limit-study sweep (see README.md).

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

Builds the measuring program (perfbench/src) and the library from
source on first use, then runs one workload for --seconds seconds:

  --trace 0  untraced passes, alternating 1 worker and min(4, nproc)
             workers, one process per pass; prints the end-to-end
             metrics (sweep_s, sweep_par_s, setup_s, peak_rss_mb,
             ok_ratio) as medians.  Times are in reference seconds:
             wall time rescaled by a calibration kernel run beside
             each pass (see REF_NS).
  --trace 1  the same untraced passes interleaved with traced serial
             passes; prints the per-layer table.

Every pass's reports are checked against digests pinned from the
reference code (digests.json).  fuzz_grid draws its programs from
program set `--seed mod 32`, each of which is pinned; a held-out set
(--held-out-seed N, N >= 32) is checked against the per-cell replay
path instead, run outside the timed passes.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "lint_sweep", "fuzz_grid")
FUZZ_SETS = 32  # fuzz_grid program sets with pinned digests
TINY_PROGRAMS = 3  # programs per workload under --tiny (workloads.cpp)
WANTED_JOBS = 4  # the --jobs N headline
PASS_TIMEOUT_S = 120  # per measuring process
# Timed passes share each of their CPUs half and half with the
# calibration kernel (src/calibrate.hpp).  A time is reported in
# reference seconds, wall seconds x (REF_NS / c) ** SENSITIVITY, where
# c is the kernel's CPU ns per step measured alongside; this cancels
# the host's drifting speed.  The library's wall time moves about 1.5
# times as fast as c in log terms, hence SENSITIVITY.  REF_NS folds in
# the pass's half share of its CPUs and makes figures on the 4-vCPU
# Xeon development host read close to its uncontended wall times
# (README.md, "Reference seconds").
REF_NS = 3.5
SENSITIVITY = 1.5


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(bdir, jobs):
    """Configure and build the measuring program; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found next to perfbench/ "
             "(expected src/CMakeLists.txt); run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    tmp = os.path.join(bdir, "tmp")  # keeps compiler temporaries here
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log, env=env) != 0:
                fail("cmake configure failed; see " + log_path)
        cmd = ["cmake", "--build", bdir, "--target", "perfbench",
               "-j", str(jobs)]
        if subprocess.call(cmd, stdout=log, stderr=log, env=env) != 0:
            fail("build failed; see " + log_path)
    return os.path.join(bdir, "perfbench")


def fnv64(text):
    """64-bit FNV-1a, hex-encoded, as the measuring program digests."""
    h = 0xcbf29ce484222325
    for c in text.encode():
        h = ((h ^ c) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """Starts one measuring process at a time and collects its output."""

    def __init__(self, binary, work, common):
        self.binary = binary
        self.work = work
        self.common = common
        # Hold the library's environment knobs fixed: every run
        # measures the default path, with obs metrics and tracing off.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("LP_")}
        self.count = 0

    def run(self, mode, *args):
        """Return (parsed output or None, peak RSS in MiB)."""
        self.count += 1
        out = os.path.join(self.work, "out-%d.json" % self.count)
        err_path = os.path.join(self.work, "err-%d.txt" % self.count)
        cmd = [self.binary, mode] + self.common + list(args) + ["--out", out]
        with open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                    stderr=err, env=self.env)
        deadline = time.monotonic() + PASS_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                fail("%s did not finish in %d s" % (mode, PASS_TIMEOUT_S))
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024.0
        if proc.returncode != 0:
            with open(err_path) as f:
                sys.stderr.write(f.read())
            return None, rss_mb
        with open(out) as f:
            data = json.load(f)
        os.remove(out)
        os.remove(err_path)
        return data, rss_mb


class Check:
    """Counts cells attempted and failed against the reference digests.

    The reference digests groups of `group` consecutive cells: one cell
    each for the sweeps, one program's lanes for fuzz_grid (the FNV-1a
    of the lanes' digests joined), so that 32 program sets fit in
    digests.json.  A mismatched group fails all of its cells.
    """

    def __init__(self, digests, group, doc):
        self.digests = digests
        self.group = group
        self.doc = doc  # whole-document digest, or None
        self.attempted = 0
        self.failed = 0

    def add(self, result, doc_checked=True):
        cells = len(self.digests) * self.group
        self.attempted += cells
        if result is None:  # the pass crashed: none of its cells count
            self.failed += cells
            return
        got = result["cell_digests"]
        if self.group > 1:
            got = [fnv64("".join(got[i:i + self.group]))
                   for i in range(0, len(got), self.group)]
        bad = sum(1 for a, b in zip(got, self.digests) if a != b)
        bad += abs(len(got) - len(self.digests))
        bad *= self.group
        bad = max(bad, result.get("not_ok", 0))
        if result.get("exit_code", 0) != 0:
            bad = max(bad, 1)
        if doc_checked and bad == 0 and self.doc is not None \
                and result["doc_digest"] != self.doc:
            bad = 1  # every cell matches, the aggregate does not
        self.failed += min(bad, cells)


def reference(runner, args, par, program_set, programs):
    """Return (Check, description) for these inputs.

    Pinned digests, or for a held-out fuzz_grid set the per-cell replay
    path's own reports.
    """
    if args.held_out_seed is not None:
        ref, _ = runner.run("reference", "--jobs", str(par))
        if ref is None:
            fail("reference (per-cell replay) run failed")
        return Check(ref["cell_digests"], 1, ref["doc_digest"]), \
            "per-cell runReplay of held-out program set %d" % program_set
    with open(os.path.join(HERE, "digests.json")) as f:
        pinned = json.load(f)
    if args.workload == "fuzz_grid":
        key = "fuzz_grid/set%d" % program_set
        if key not in pinned:
            fail("no pinned digests for " + key)
        # --tiny runs the first programs of the same set.
        digests = pinned[key]["programs"][:programs]
        return Check(digests, pinned["fuzz_grid_lanes"], None), \
            "pinned " + key
    key = args.workload + ("/tiny" if args.tiny else "")
    if key not in pinned:
        fail("no pinned digests for " + key)
    return Check(pinned[key]["cells"], 1, pinned[key]["doc"]), \
        "pinned " + key


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def scaled(wall_s, calib_ns):
    """Wall seconds -> reference seconds (see REF_NS)."""
    return wall_s * (REF_NS / calib_ns) ** SENSITIVITY


def describe(name, unit, values):
    q1, med, q3 = quartiles(values)
    return "%-34s %12.6g %-9s (n=%d, q1 %.6g, q3 %.6g, min %.6g, max %.6g)" % (
        name, med, unit, len(values), q1, q3, min(values), max(values))


def measure(runner, args, par, check, traced):
    """Alternate the passes until --seconds is spent; return samples.

    A round is a 1-worker pass, a par-worker pass and a set-up process;
    a traced run adds a traced pass right after the 1-worker pass, and
    pairs the two (both start cold, in processes of their own).
    """
    s = {"serial": [], "par": [], "rss": [], "setup": [], "traced": [],
         "serial_wall": [], "serial_calib": [], "par_wall": [],
         "par_calib": [], "setup_wall": [], "setup_calib": [],
         "fallbacks": None, "chrome": None}
    corrupt = [] if args.corrupt_cell is None else \
        ["--corrupt-cell", str(args.corrupt_cell)]

    def setup():
        data, _ = runner.run("setup")
        if data is None:
            fail("setup run failed")
        s["setup"].extend(scaled(w, data["calib_ns"])
                          for w in data["wall_s"])
        s["setup_wall"].extend(data["wall_s"])
        s["setup_calib"].append(data["calib_ns"])

    if traced and args.workload != "fuzz_grid":
        data, _ = runner.run("fallbacks", "--jobs", str(par))
        if data is None:
            fail("fallback-counting sweep failed")
        s["fallbacks"] = data["fallbacks"]
    start = time.monotonic()
    rounds = 0
    while rounds < 3 or time.monotonic() - start < args.seconds:
        data, rss = runner.run("pass", "--jobs", "1", *corrupt)
        check.add(data)
        if data is not None:
            s["serial"].append(scaled(data["wall_s"], data["calib_ns"]))
            s["serial_wall"].append(data["wall_s"])
            s["serial_calib"].append(data["calib_ns"])
            s["rss"].append(rss)
        if traced:
            chrome = []
            if rounds == 0:
                s["chrome"] = os.path.join(runner.work, "trace.json")
                chrome = ["--chrome", s["chrome"]]
            tdata, _ = runner.run("traced", *chrome)
            check.add(tdata, doc_checked=False)
            if tdata is not None and data is not None:
                for k in tdata:
                    if k.endswith("_s"):
                        tdata[k] = scaled(tdata[k], tdata["calib_ns"])
                tdata["paired_sweep_s"] = s["serial"][-1]
                s["traced"].append(tdata)
        data, _ = runner.run("pass", "--jobs", str(par), *corrupt)
        check.add(data)
        if data is not None:
            s["par"].append(scaled(data["wall_s"], data["calib_ns"]))
            s["par_wall"].append(data["wall_s"])
            s["par_calib"].append(data["calib_ns"])
        setup()  # one set-up process per round spreads them over the run
        rounds += 1
    if not s["serial"] or not s["par"] or (traced and not s["traced"]):
        fail("every pass failed")
    return s


def layer_metrics(s, par, sweep_s, sweep_par_s, fail_ratio):
    """The per-layer table from the traced passes (medians)."""
    traced = s["traced"]

    def med(key):
        return statistics.median(t[key] for t in traced)

    t = {k: med(k) for k in traced[0] if k != "cell_digests"}
    # Each traced pass against the untraced 1-worker pass of its round.
    unattributed = statistics.median(
        x["paired_sweep_s"] - x["layer_self_s"] for x in traced)
    overhead = statistics.median(
        x["traced_wall_s"] / x["paired_sweep_s"] - 1 for x in traced)
    interp_s = t["interp.run_s"]
    cells = t["cells"]
    fallbacks = s["fallbacks"] if s["fallbacks"] is not None \
        else t["fallbacks"]
    m = [
        ("suites.build_s", t["suites.build_s"], "s"),
        ("core.prepare_s", t["core.prepare_s"], "s"),
        ("interp.run_s", interp_s, "s"),
        ("interp.minstr_per_s",
         t["interp.instructions"] / 1e6 / interp_s if interp_s else 0,
         "Minstr/s"),
        ("trace.record_s", t["trace.record_s"], "s"),
        ("trace.recorder_s", t["trace.record_s"] - interp_s, "s"),
        ("trace.events", t["trace.events"], "count"),
        ("trace.bytes_mb", t["trace.bytes"] / 2.0 ** 20, "MiB"),
        ("trace.decode_s", t["trace.decode_s"], "s"),
        ("trace.decodes", t["trace.decodes"], "count"),
        ("rt.batch_s", t["rt.batch_s"], "s"),
        ("rt.lane_apply_s", t["rt.lane_apply_s"], "s"),
        ("rt.lane_apply_ns_per_event_lane",
         t["rt.lane_apply_s"] * 1e9 / t["rt.event_lanes"]
         if t["rt.event_lanes"] else 0, "ns"),
        ("rt.batch_max_program_s", t["rt.batch_max_program_s"], "s"),
        ("rt.cell_replay_s", t["rt.cell_replay_s"], "s"),
        ("lint.module_s", t["lint.module_s"], "s"),
        ("analysis.pdg_s", t["analysis.pdg_s"], "s"),
        ("rt.report_json_s", t["rt.report_json_s"], "s"),
        ("exec.jobs", par, "count"),
        ("exec.par_efficiency", sweep_s / (par * sweep_par_s), "ratio"),
        ("core.fallback_ratio", fallbacks / cells, "ratio"),
        ("core.unattributed_s", unattributed, "s"),
        ("bench.trace_overhead", overhead, "ratio"),
        ("bench.sweep_wall_s", statistics.median(s["serial_wall"]), "s"),
        ("bench.calib_ns", statistics.median(s["serial_calib"]), "ns"),
        ("cells", cells, "count"),
        ("programs", t["programs"], "count"),
        ("lanes_per_program", t["lanes_per_program"], "count"),
        ("minstr_modelled", t["instr_modelled"] / 1e6, "Minstr"),
        ("fail_ratio", fail_ratio, "ratio"),
    ]
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="fuzz_grid runs program set seed mod %d (the "
                         "suites are fixed inputs; other workloads "
                         "record it only)" % FUZZ_SETS)
    ap.add_argument("--held-out-seed", type=int, default=None,
                    help="fuzz_grid only: run program set N >= %d, which "
                         "has no pinned digests, and check it against "
                         "the per-cell replay path" % FUZZ_SETS)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few programs per workload (self-test)")
    ap.add_argument("--corrupt-cell", type=int, default=None,
                    help="damage this cell's report in every pass "
                         "(self-test of the correctness check)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    program_set = args.seed % FUZZ_SETS
    if args.held_out_seed is not None:
        if args.workload != "fuzz_grid" or args.held_out_seed < FUZZ_SETS:
            fail("--held-out-seed wants fuzz_grid and N >= %d" % FUZZ_SETS)
        program_set = args.held_out_seed

    nproc = len(os.sched_getaffinity(0))
    par = min(WANTED_JOBS, nproc)
    bdir = build_dir()
    binary = build(bdir, max(1, min(4, nproc)))
    work = os.path.join(bdir, "runs", "%s-set%d-seed%d-trace%d" % (
        args.workload, program_set, args.seed, args.trace))
    os.makedirs(work, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(program_set)]
    if args.tiny:
        common.append("--tiny")
    runner = Runner(binary, work, common)

    env, _ = runner.run("env")
    if env is None:
        fail("environment probe failed")
    env.update({"workers_serial": 1, "workers_par": par,
                "workers_wanted": WANTED_JOBS, "commit": git_commit(),
                "scaling_claim": nproc >= WANTED_JOBS})
    check, ref_from = reference(runner, args, par, program_set,
                                TINY_PROGRAMS if args.tiny else None)
    s = measure(runner, args, par, check, traced=args.trace == 1)

    sweep_s = statistics.median(s["serial"])
    sweep_par_s = statistics.median(s["par"])
    ok_ratio = 1.0 - check.failed / check.attempted
    e2e = [
        ("sweep_s", s["serial"], "s"),
        ("sweep_par_s", s["par"], "s"),
        ("setup_s", s["setup"], "s"),
        ("peak_rss_mb", s["rss"], "MiB"),
    ]

    print("perfbench %s seed %d (program set %d) trace %d: %s" % (
        args.workload, args.seed, program_set, args.trace,
        json.dumps(env)))
    print("reference: " + ref_from)
    for name, values, unit in e2e:
        print(describe(name, unit, values))
    print("%-34s %12.6g ratio     (%d of %d cells failed)" % (
        "ok_ratio", ok_ratio, check.failed, check.attempted))
    if not env["scaling_claim"]:
        print("sweep_par_s: nproc %d < %d wanted workers; no scaling "
              "claim" % (nproc, WANTED_JOBS))

    if args.trace == 0:
        metrics = {name: {"value": statistics.median(v), "unit": unit}
                   for name, v, unit in e2e}
        metrics["ok_ratio"] = {"value": ok_ratio, "unit": "ratio"}
    else:
        layers = layer_metrics(s, par, sweep_s, sweep_par_s,
                               1.0 - ok_ratio)
        print("per-layer (median of %d traced serial passes; chrome "
              "trace %s):" % (len(s["traced"]), s["chrome"]))
        for name, value, unit in layers:
            print("  %-36s %14.6g %s" % (name, value, unit))
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit in layers}

    record = {"workload": args.workload, "seed": args.seed,
              "program_set": program_set,
              "trace": args.trace, "env": env, "reference": ref_from,
              "samples": {k: v for k, v in s.items() if k != "traced"},
              "metrics": metrics}
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump(record, f, indent=1)

    correct = check.failed == 0
    print(json.dumps({"correct": correct, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
