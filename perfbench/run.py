#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload isort_serial --seed 1 \\
        --seconds 30 --trace 0 [--save DIR] [--update-digests]

Run from the repository root. The first run configures and builds the
algoprof library and the benchmark binary under .bench_build/ (CMake,
RelWithDebInfo); later runs rebuild incrementally. The binary's
human-readable report goes to stdout, build output to stderr, and the
last stdout line is one JSON object: correct, attempted, failed, and
the metrics BENCHMARK.json lists for this mode (end_to_end with
--trace 0, per_layer with --trace 1). --save DIR keeps the full result
(every metric, provenance, checks) for compare.py. Exit status is the
binary's: 0 only when every session succeeded and every check held.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("isort_serial", "corpus_parallel", "daemon_closed")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: error: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("algoprof sources (src/) not found next to perfbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def source_id():
    """Content hash of the sources the binary is built from (the
    checkout a benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    ident = "sha256:" + h.hexdigest()[:16]
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10)
            if commit.returncode == 0:
                ident += ",git:" + commit.stdout.strip()[:12]
        except (OSError, subprocess.TimeoutExpired):
            pass
    return ident


def wanted_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", metavar="DIR",
                    help="also keep the full result JSON in DIR")
    ap.add_argument("--update-digests", action="store_true",
                    help="record this run's profile digest as expected")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    binary = build()
    out_dir = os.path.join(os.path.dirname(build_dir()), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    result_file = os.path.join(workdir, "result.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--result", result_file,
           "--digests", os.path.join(HERE, "digests.txt"),
           "--id-only", os.path.join(HERE, "id_only.txt"),
           "--source-id", source_id()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out_dir, tag + ".trace.json")]
    if args.update_digests:
        cmd.append("--update-digests")
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        shutil.rmtree(workdir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    if not os.path.isfile(result_file):
        shutil.rmtree(workdir, ignore_errors=True)
        fail("perfbench exited %d without a result" % rc, 1)
    with open(result_file) as f:
        result = json.load(f)
    shutil.rmtree(workdir, ignore_errors=True)
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        with open(os.path.join(args.save, tag + ".json"), "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)

    names = wanted_metrics(args.trace)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("perfbench did not report " + ", ".join(missing), 1)
    line = {
        "correct": bool(result["correct"]) and rc == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": result["metrics"][n]["value"],
                        "unit": result["metrics"][n]["unit"]}
                    for n in names},
    }
    print(json.dumps(line))
    sys.exit(rc)


if __name__ == "__main__":
    main()
