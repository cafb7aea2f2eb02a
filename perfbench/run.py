#!/usr/bin/env python3
"""FaaSBatch benchmark: builds perfbench/fbbench from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The build trees live in .bench_build/: a
release build and, for the traced run's gprof profile, a -pg build of the
same sources. The last line of standard output is the result, one JSON
object with the keys correct, attempted, failed and metrics: the
end_to_end metrics of BENCHMARK.json with --trace 0, its per_layer metrics
with --trace 1 (a layer the workload does not run reads 0).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("sim-paper", "sim-cluster", "live-invoke", "live-http")
# Workloads whose work runs on the main thread, which is what gprof samples.
PROFILED = ("sim-paper", "sim-cluster")
# gprof self time is grouped by the first program namespace in each symbol.
PROF_GROUPS = (
    ("prof.sim.event_queue_s", "faasbatch::sim::EventQueue"),
    ("prof.sim.cpu_s", "faasbatch::sim::CpuScheduler"),
    ("prof.schedulers_s", "faasbatch::schedulers::"),
    ("prof.runtime_s", "faasbatch::runtime::"),
    ("prof.cluster_s", "faasbatch::cluster::"),
)
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """Hash of every file the build reads, so a changed source rebuilds."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()


def build(variant, profile, digest):
    """Configures and builds one variant unless its stamp matches."""
    out = os.path.join(BUILD_DIR, variant)
    binary = os.path.join(out, "fbbench")
    stamp = os.path.join(out, "source.sha256")
    if os.path.exists(binary) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == digest:
                return binary
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, variant + "-build.log")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
         "-DFBB_PROFILE=" + ("ON" if profile else "OFF")] + generator,
        ["cmake", "--build", out, "-j", jobs],
    ]
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build of %s failed (log: %s)" % (variant, log_path))
    with open(stamp, "w") as f:
        f.write(digest)
    return binary


def run_binary(binary, args, cwd=ROOT, env=None):
    proc = subprocess.run([binary] + args, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (os.path.basename(binary), proc.returncode))
    return json.loads(lines[-1])


def gprof_groups(binary, args):
    """Runs the -pg binary and sums gprof flat-profile self seconds by group."""
    run_dir = os.path.join(BUILD_DIR, "gprof-run")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    run_binary(binary, args, cwd=run_dir)
    gmon = os.path.join(run_dir, "gmon.out")
    if not os.path.exists(gmon):
        fail("the -pg build wrote no gmon.out")
    flat = subprocess.run(["gprof", "-b", "-p", binary, gmon], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True).stdout
    sums = {name: 0.0 for name, _ in PROF_GROUPS}
    total = 0.0
    row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.+)$")
    for line in flat.splitlines():
        match = row.match(line)
        if not match:
            continue
        seconds, symbol = float(match.group(1)), match.group(2)
        total += seconds
        first, first_at = None, len(symbol)
        for name, prefix in PROF_GROUPS:
            at = symbol.find(prefix)
            if 0 <= at < first_at:
                first, first_at = name, at
        if first:
            sums[first] += seconds
    sums["prof.total_s"] = total
    return sums


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "sim", "simulator.cpp")):
        fail("run from the repository root: the program's sources (src/) are missing")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    digest = source_digest()
    release = build("release", False, digest)
    profiled = build("gprof", True, digest)
    if args.selftest:
        sys.exit(subprocess.run([release, "--selftest"]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    result = run_binary(release, common + ["--seconds", repr(args.seconds),
                                           "--trace", str(args.trace)])
    metrics = result["metrics"]
    if args.trace:
        if args.workload in PROFILED:
            profile = gprof_groups(profiled, common + ["--seconds", repr(args.seconds / 2),
                                                       "--trace", "0"])
            for name, value in profile.items():
                metrics[name] = {"value": value, "unit": "s"}
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    out = {}
    for metric in wanted:
        name = metric["name"]
        if name in metrics:
            out[name] = {"value": metrics[name]["value"], "unit": metric["unit"]}
        elif args.trace:
            out[name] = {"value": 0, "unit": metric["unit"]}
        else:
            fail("the run reported no " + name)
    if result.get("detail"):
        print(json.dumps({"detail": result["detail"]}))
    if not result["correct"]:
        print("run.py: output check failed: " + result.get("error", ""), file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))


if __name__ == "__main__":
    main()
