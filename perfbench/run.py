#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench) for one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are listed in BENCHMARK.json at the repository root and
described in perfbench/README.md.

The first run configures and builds the repository's library plus the
perfbench program in Release mode under .bench_build/perfbench; later runs
only rebuild what changed. The program's spill files go to
.bench_build/perfbench/spill and the traced run's span file to
.bench_build/perfbench/out, so nothing is written outside the checkout.

BENCHMARK.json is the one list of metric names and units: the program
reports values by name, and this script refuses a result that lacks a listed
metric or has an unlisted one, then attaches the units.

Standard output carries the program's notes, every metric by name with its
unit, one "# env:" line recording the source revision, compiler, build type,
nproc, seed and sizes, and, as the last line, the JSON result. The same
record is kept under .bench_build/perfbench/results/.

Exit status: 0 when every result matched the Volcano oracle; 1 when a result
differed or a query failed (the result line says so); any other code, with no
result line, when the run could not be made (build failure, a TQP_* variable
in the environment, bad arguments, timeout).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def source_digest():
    """SHA-256 over the library sources and build files, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def with_units(result, spec, trace):
    """The program must report exactly the metrics BENCHMARK.json lists for
    this mode. Returns (result with the listed units, problem)."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys are %s" % sorted(result)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(units) != set(got):
        return None, "metrics differ from BENCHMARK.json: not computed %s, not listed %s" % (
            sorted(set(units) - set(got)), sorted(set(got) - set(units)))
    metrics = {name: {"value": got[name], "unit": units[name]} for name in units}
    return dict(result, metrics=metrics), None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2

    if not build():
        log("build failed")
        return 3

    out_dir = os.path.join(BUILD, "out")
    spill_dir = os.path.join(BUILD, "spill")
    results_dir = os.path.join(BUILD, "results")
    shutil.rmtree(spill_dir, ignore_errors=True)  # files a killed run left
    for d in (out_dir, spill_dir, results_dir):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ, TMPDIR=spill_dir)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    start = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("timed out after %d s" % RUN_TIMEOUT_S)
        return 4
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        log("perfbench exited with %d and no result" % proc.returncode)
        return proc.returncode or 5
    result, problem = with_units(json.loads(lines[-1]), spec, args.trace)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(problem)
        return 6

    notes = {}
    for line in lines[:-1]:
        if line.startswith("# ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            notes[key] = value
    env_record = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "compiler": "%s (%s)" % (notes.get("compiler"), cmake_cache("CMAKE_CXX_COMPILER")),
        "build_type": notes.get("build_type"),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": {k: notes[k] for k in ("scale_factor", "lineitem_rows", "reviews",
                                        "memory_budget_mb", "outstanding")
                  if k in notes},
        "wall_s": round(time.time() - start, 3),
    }
    record = os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump({"env": env_record, "report": lines[:-1], "result": result}, f, indent=1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    for name, m in result["metrics"].items():
        print("%-32s %16.6f %s" % (name, m["value"], m["unit"]))
    print("# env: " + json.dumps(env_record, sort_keys=True))
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
