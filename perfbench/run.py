#!/usr/bin/env python3
"""The explore benchmark: `microtools explore` from XML to ranked report on
the paper's Figure-6 load/store sweep, cold and warm, on the simulator (an
L1-resident and an L3-resident footprint) and on the native backend.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig6-l1-sim --seed 1 --seconds 30 \
        --trace 0

It builds perfbench/CMakeLists.txt (the repository's libraries plus the
perfbench_explore driver) into $CARGO_TARGET_DIR or .bench_build, runs
untraced iterations in fresh processes for --seconds (see untraced()),
checks every output,
prints each metric by name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 1 reports the
per-layer metrics instead, from a traced pass next to an untraced one.
The exit code is 0 only when every check passed.

--record-expected rewrites perfbench/expected/ from --sim-exact runs (the
cycle-by-cycle simulator, not the fast path under test).
"""

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import check  # noqa: E402

ROOT = HERE.parent
ITERATION_TIMEOUT_S = 170
WARM_SLICE_S = 0.5

WORKLOADS = {
    "fig6-l1-sim": {
        "xml": "fig6_unroll1-8.xml",
        "variants": 510,
        "args": ["--backend", "sim", "--array-bytes", "16384", "--jobs", "4"],
        "expected": "fig6-l1-sim.csv",
        "warm_slices": 5,
    },
    "fig6u4-l3-sim": {
        "xml": "fig6_unroll1-4.xml",
        "variants": 30,
        "args": ["--backend", "sim", "--array-bytes", "1048576",
                 "--jobs", "4"],
        "expected": "fig6u4-l3-sim.csv",
        "warm_slices": 5,
    },
    "fig6-1m-native": {
        "xml": "fig6_unroll1-8.xml",
        "variants": 510,
        "args": ["--backend", "native", "--array-bytes", "1048576",
                 "--jobs", "2", "--compile-jobs", "2", "--max-cv", "0"],
        "expected": None,
        # Short cold runs: fewer slices, so a run makes more of them.
        "warm_slices": 2,
    },
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_metric_specs():
    with open(HERE / "metrics.json") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def build(build_dir):
    """Configures and builds perfbench_explore; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no src/ next to perfbench/: run from a microtools checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    cmake_dir = build_dir / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (cmake_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(cmake_dir), "-j", "4",
                      "--target", "perfbench_explore"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=880).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return cmake_dir / "perfbench_explore"


class Driver:
    def __init__(self, binary, workload, seed, work_root):
        self.binary = binary
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work_root = work_root
        self.counter = 0
        self.env = dict(os.environ)
        # Native compilation temporaries stay inside the checkout.
        self.env["TMPDIR"] = str(work_root / "tmp")
        (work_root / "tmp").mkdir(parents=True, exist_ok=True)

    def fresh_dir(self, tag):
        self.counter += 1
        return self.work_root / ("%s%d" % (tag, self.counter))

    def run(self, tag, extra):
        """Runs one perfbench_explore process; returns (summary, dir)."""
        d = self.fresh_dir(tag)
        cmd = [str(self.binary), "--xml",
               str(HERE / "workloads" / self.spec["xml"]),
               "--seed", str(self.seed), "--work-dir", str(d)]
        cmd += self.spec["args"] + extra
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, env=self.env,
                           timeout=ITERATION_TIMEOUT_S)
        if p.returncode != 0:
            fail("%s failed (%d):\n%s" % (" ".join(cmd), p.returncode,
                                          p.stderr[-2000:]))
        return json.loads(p.stdout.strip().splitlines()[-1]), d

    def check_outputs(self, d, csv_name, cold_report, warm_report):
        """Per-variant checks of one run's files; returns the bad sets."""
        names = (d / "names.txt").read_text().split()
        _, rows = check.read_rows((d / csv_name).read_text())
        if self.spec["expected"]:
            _, expected = check.read_rows(
                (HERE / "expected" / self.spec["expected"]).read_text())
            bad = [check.check_sim_rows(expected, rows)]
        else:
            bad = [check.check_native_rows(names, rows)]
        if cold_report and warm_report:
            bad.append(check.check_reports(
                (d / cold_report).read_bytes(),
                (d / warm_report).read_bytes()))
        return names, bad


def untraced(driver, deadline):
    """Untraced iterations until the deadline; returns the end-to-end
    numbers, the attempted/failed counts and the problems seen.

    An iteration is a cold process (a cold run and a few warm reruns), then
    "warm_slices" pairs of a set-up probe and a warm-only process that reruns
    against the cold run's result store for WARM_SLICE_S. The slices spread
    the warm samples over the iteration, because the host's speed changes
    over seconds."""
    variants = driver.spec["variants"]
    walls, cpus, rss, warm, setups = [], [], [], [], []
    attempted = failed = 0
    problems = []
    while True:
        summary, d = driver.run("it", ["--warm-seconds", "0"])
        cold = summary["cold"]
        walls.append(cold["wall_s"])
        cpus.append(cold["cpu_s"])
        rss.append(cold["peak_rss_mb"])
        setups.append(cold["setup_s"])
        warm.extend(summary["warm_wall_s"])
        run_problems = check.check_guards(summary, variants)
        names, bad = driver.check_outputs(d, "cold.csv", "cold_report.csv",
                                          "warm_report.csv")
        if len(names) != variants:
            run_problems.append("generated %d variants, want %d" %
                                (len(names), variants))
        cold_report = (d / "cold_report.csv").read_bytes()
        for _ in range(driver.spec["warm_slices"]):
            probe, pd = driver.run("probe", ["--probe"])
            setups.append(probe["setup_s"])
            shutil.rmtree(pd, ignore_errors=True)
            rerun, wd = driver.run("warm", [
                "--warm-cache", str(d / "cache"),
                "--warm-seconds", str(WARM_SLICE_S)])
            warm.extend(rerun["warm_wall_s"])
            run_problems += check.check_guards(rerun, variants)
            bad.append(check.check_reports(
                cold_report, (wd / "warm_report.csv").read_bytes()))
            shutil.rmtree(wd, ignore_errors=True)
        problems += run_problems + describe(bad)
        attempted += variants
        failed += check.failed_variants(variants, names, bad, run_problems)
        shutil.rmtree(d, ignore_errors=True)
        if time.monotonic() >= deadline:
            break
    print("cold walls (s): " + " ".join("%.4f" % w for w in walls))
    print("warm reruns: %d, median %.6f s, fastest %.6f s" % (
        len(warm), statistics.median(warm), min(warm)))
    metrics = {
        "setup_s": statistics.median(setups),
        "explore_wall_s": statistics.median(walls),
        "explore_cpu_s": statistics.median(cpus),
        # The fastest rerun: a warm rerun is tens of milliseconds of
        # single-threaded work, and other tenants of the host stretch its
        # median by up to half for seconds at a time.
        "warm_wall_s": min(warm),
        "peak_rss_mb": statistics.median(rss),
        "ok_frac": 1.0 - failed / attempted,
    }
    return metrics, attempted, failed, problems, walls


def describe(bad_sets, limit=5):
    out = []
    for bad in bad_sets:
        for name in sorted(bad)[:limit]:
            out.append("%s: %s" % (name, bad[name]))
        if len(bad) > limit:
            out.append("... and %d more" % (len(bad) - limit))
    return out


def traced(driver, deadline, trace_dir):
    """Traced passes, each beside an untraced one, until the deadline;
    returns the per-layer metrics (medians over passes)."""
    variants = driver.spec["variants"]
    per_metric = {}
    traced_walls, untraced_walls = [], []
    attempted = failed = 0
    problems = []
    spans_path = None
    while True:
        _, base_attempted, base_failed, base_problems, walls = untraced(
            driver, 0)
        untraced_walls += walls
        attempted += base_attempted
        failed += base_failed
        problems += base_problems
        spans_path = trace_dir / ("%s-seed%d-%d.json" % (
            driver.name, driver.seed, driver.counter + 1))
        summary, d = driver.run("trace", ["--trace", "1", "--spans",
                                          str(spans_path)])
        traced_walls.append(summary["explore_wall_s"])
        for k, v in summary["metrics"].items():
            per_metric.setdefault(k, []).append(v)
        run_problems = check.check_guards(summary, variants)
        wall = summary["metrics"]["trace.wall_s"]
        if abs(summary["self_sum_s"] - wall) > 1e-6 * max(wall, 1.0):
            run_problems.append("self times add up to %.9f s, traced wall "
                                "is %.9f s" % (summary["self_sum_s"], wall))
        names, bad = driver.check_outputs(d, "traced_cold.csv", None, None)
        problems += run_problems + describe(bad)
        attempted += variants
        failed += check.failed_variants(variants, names, bad, run_problems)
        shutil.rmtree(d, ignore_errors=True)
        if time.monotonic() >= deadline:
            break
    metrics = {k: statistics.median(v) for k, v in per_metric.items()}
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls)
        - 1.0)
    return metrics, attempted, failed, problems, spans_path


def record_expected(binary, work_root):
    """Writes perfbench/expected/<workload>.csv from --sim-exact runs."""
    out_dir = HERE / "expected"
    out_dir.mkdir(exist_ok=True)
    for name, spec in WORKLOADS.items():
        if not spec["expected"]:
            continue
        driver = Driver(binary, name, 0, work_root / name)
        _, d = driver.run("exact", ["--sim-exact", "--warm-seconds", "0"])
        header, rows = check.read_rows((d / "cold.csv").read_text())
        if len(rows) != spec["variants"]:
            fail("%s: %d rows, want %d" % (name, len(rows), spec["variants"]))
        rows.sort(key=lambda r: r[check.SIM_KEY])
        with open(out_dir / spec["expected"], "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow([row[k] for k in header])
        shutil.rmtree(d, ignore_errors=True)
        print("recorded %s (%d rows)" % (out_dir / spec["expected"],
                                         len(rows)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    if not args.record_expected and not args.workload:
        parser.error("--workload is required")

    start = time.monotonic()
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    binary = build(build_dir)
    work_root = build_dir / "runs" / ("%s-seed%d-pid%d" % (
        args.workload or "record", args.seed, os.getpid()))
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        if args.record_expected:
            record_expected(binary, work_root)
            return 0
        end_to_end, per_layer = load_metric_specs()
        driver = Driver(binary, args.workload, args.seed, work_root)
        # The build is not measured: the deadline starts after it.
        deadline = time.monotonic() + args.seconds
        if args.trace:
            trace_dir = build_dir / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            metrics, attempted, failed, problems, spans = traced(
                driver, deadline, trace_dir)
            specs = per_layer
        else:
            metrics, attempted, failed, problems, _ = untraced(
                driver, deadline)
            specs = end_to_end
            spans = None
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    for problem in problems[:50]:
        print("CHECK FAILED: " + problem)
    out = {}
    for spec in specs:
        value = metrics.get(spec["name"])
        if value is None or (isinstance(value, float) and math.isnan(value)):
            problems.append("metric %s missing" % spec["name"])
            continue
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print("%-34s %16.6f %s" % (spec["name"], value, spec["unit"]))
    if args.trace:
        for prefix in ("sim.invoke", "native.invoke", "campaign.variant"):
            print("%s tail = p%g of %d samples" % (
                prefix, metrics[prefix + "_tail_pct"],
                metrics[prefix + "_samples"]))
        print("spans written to %s" % spans)
    print("%s: %d of %d variant checks failed; %.1f s" % (
        args.workload, failed, attempted, time.monotonic() - start))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
