#!/usr/bin/env python3
"""Builds the perfbench runner from source and runs one benchmark workload.

Run from anywhere inside a checkout of the repository:

  python3 perfbench/run.py --workload fig3-client --seed 42 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all        # every workload, one table
  python3 perfbench/run.py --smoke               # tiny sizes, schema check
  python3 perfbench/run.py --record-digests      # rewrite digests.json

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before the runner's output is a host
fingerprint. Build output goes to standard error; the build tree is
.bench_build/perfbench at the repository root.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["fig3-client", "fig6-update", "sleepers-fleet", "megacell-4shard"]
DEFAULT_SEED = 42
# The runner must finish well inside the 180 s a run may take.
RUNNER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"perfbench: {' '.join(cmd)}: {err}")
        return False
    return proc.returncode == 0


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           BUILD_TIMEOUT_S):
            return False
    return run_checked(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       BUILD_TIMEOUT_S)


def source_hash():
    """sha256 over the simulator and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(build_info):
    info = {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_hash(),
    }
    info.update(build_info)
    return info


def load_digests():
    try:
        with open(DIGESTS) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Runs the runner once. Returns (stdout lines, result dict) or None."""
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    else:
        expected = load_digests().get(workload)
        if seed == DEFAULT_SEED and expected:
            cmd += ["--expect-digests", ",".join(expected)]
    if trace:
        cmd += ["--spans", os.path.join(
            BUILD_DIR, f"spans-{workload}-{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} timed out after {RUNNER_TIMEOUT_S} s")
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: runner exited with {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: runner printed no result line")
        return None
    return lines[:-1], result


def fingerprint_line(line):
    """Expands the runner's build line into the host fingerprint line."""
    info = fingerprint(json.loads(line[len("build: "):]))
    return "fingerprint: " + json.dumps(info, sort_keys=True)


def print_run(lines, result):
    """Prints the runner's lines, the build line expanded into a host
    fingerprint, then the result line last."""
    for line in lines:
        print(fingerprint_line(line) if line.startswith("build: ") else line)
    print(json.dumps(result))


def spec_metrics(trace):
    with open(SPEC) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def smoke():
    """Runs every workload at its tiny size in both modes and checks that
    each metric BENCHMARK.json names is present, has its unit and passed
    the output checks."""
    problems = []
    attempted = failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            got = run_workload(workload, DEFAULT_SEED, 1, trace, smoke=True)
            tag = f"{workload} trace {trace}"
            if got is None:
                problems.append(f"{tag}: runner failed")
                continue
            _, result = got
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: output check failed")
            metrics = result["metrics"]
            for m in spec_metrics(trace):
                entry = metrics.get(m["name"])
                if entry is None:
                    problems.append(f"{tag}: metric {m['name']} missing")
                elif entry.get("unit") != m["unit"]:
                    problems.append(f"{tag}: metric {m['name']} has unit "
                                    f"{entry.get('unit')!r}, not {m['unit']!r}")
                elif not isinstance(entry.get("value"), (int, float)):
                    problems.append(f"{tag}: metric {m['name']} has no value")
            log(f"smoke {tag}: {len(metrics)} metrics")
    for p in problems:
        print("smoke FAILED: " + p)
    print(json.dumps({"correct": not problems, "attempted": max(1, attempted),
                      "failed": failed, "metrics": {}}))
    return 0 if not problems else 1


def record_digests():
    """Rewrites digests.json with each workload's per-cell digests at the
    default seed."""
    digests = {}
    for workload in WORKLOADS:
        cmd = [RUNNER, "--workload", workload, "--seed", str(DEFAULT_SEED),
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUNNER_TIMEOUT_S)
        cells = [l for l in proc.stdout.splitlines()
                 if l.startswith("cell_digests ")]
        if proc.returncode != 0 or not cells:
            log(f"perfbench: {workload} produced no digests")
            return 1
        digests[workload] = cells[0].split(" ", 1)[1].split(",")
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")
    log(f"wrote {DIGESTS}")
    return 0


def run_all(seed, seconds, trace):
    """Runs every workload and prints one table row per metric."""
    combined = {}
    attempted = failed = 0
    for workload in WORKLOADS:
        got = run_workload(workload, seed, seconds, trace)
        if got is None:
            return 1
        lines, result = got
        for line in lines:
            if line.startswith("build: "):
                print(fingerprint_line(line))
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"== {workload} (seed {seed})")
        for name, m in result["metrics"].items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
            combined[f"{workload}.{name}"] = m
        frac = result["failed"] / max(1, result["attempted"])
        print(f"  {'failed_frac':28s} {frac:.6g} frac "
              f"({result['failed']} of {result['attempted']} cells)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.smoke or args.record_digests):
        parser.error("give --workload, --smoke or --record-digests")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        log("perfbench: build failed")
        return 1
    if args.smoke:
        return smoke()
    if args.record_digests:
        return record_digests()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    got = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if got is None:
        return 1
    print_run(*got)
    return 0


if __name__ == "__main__":
    sys.exit(main())
