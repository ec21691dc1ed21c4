#!/usr/bin/env python3
"""Streaming benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark program (a package
of its own in this directory, with path dependencies on the crates
under crates/) in release mode, runs one workload, and prints:

* one line per metric (name, value, unit, sample count),
* one JSON line {"env": ...}: parallelism, CPU affinity mask, build
  profile, rustc version, commit (or a digest of the sources when the
  tree is not a git checkout), seeds and the sample count behind each
  metric,
* as the last line, {"correct", "attempted", "failed", "metrics"} with
  every end-to-end metric of BENCHMARK.json (--trace 0) or every
  per-layer metric (--trace 1).

The end-to-end run of sweep-halo (--trace 0) runs under a one-CPU
affinity mask, so its halo pool drives the shards on the calling
thread. With --trace 1 sweep-halo runs at the default parallelism and
also drains the workload again under a one-CPU mask, reporting that
drain's wall time as halo.one_core_s. --workload all runs every
workload on --seed and on --seed + 1. Exits 1 when a correctness check fails or the build fails,
2 on bad arguments.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORKLOADS = ["sweep-flat", "sweep-halo", "city-puce", "sweep-durable"]
PROFILE = "release (lto = thin, codegen-units = 1)"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 160
OUT_DIR = os.path.join(ROOT, ".bench_out")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark program; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"run.py: build failed with exit code {done.returncode}")
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        return done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "rust-toolchain.toml", "crates", "src", "vendor", "perfbench"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, subdirs, names in os.walk(path):
            subdirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def environment(seeds, results):
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "available_parallelism": sorted({r["available_parallelism"] for r in results}),
        "affinity": [r["affinity"] for r in results],
        "build_profile": PROFILE,
        "rustc": command_output(["rustc", "-V"]),
        "commit": commit or "not a git checkout",
        "source_sha256": source_digest(),
        "seeds": seeds,
        "samples": [r["samples"] for r in results],
    }


def run_binary(binary, args, affinity=None):
    """Runs the benchmark program; echoes its report lines and returns
    the parsed last line, or None when it printed no result."""
    preexec = (lambda: os.sched_setaffinity(0, affinity)) if affinity else None
    try:
        done = subprocess.run(
            [binary] + args,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
            preexec_fn=preexec,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {' '.join(args)}: {e}")
        return None
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"run.py: {' '.join(args)} printed no result (exit code {done.returncode})")
        return None


def one_cpu():
    """The mask of a pinned run: the last CPU of the current mask, away
    from CPU 0, where the kernel does most of its interrupt work."""
    return {max(os.sched_getaffinity(0))}


def run_workload(binary, workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        args += ["--trace-out", os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl")]
    # sweep-halo's end-to-end run is pinned to one CPU. At the default
    # parallelism every window spawns one scoped thread per CPU, and on a
    # shared 2-vCPU host the start-up and wake-up latency of those
    # threads, not the program, set the spread between runs of the same
    # code (IQR/median 0.25-0.29 on events_per_s, 0.59-0.74 on
    # window_p95_ms). Pinned, available_parallelism() is 1 and the halo
    # pool drives the shards on the calling thread. The traced run keeps
    # the default parallelism, so the fan-out cost stays on record.
    affinity = one_cpu() if workload == "sweep-halo" and not trace else None
    result = run_binary(binary, args, affinity=affinity)
    if result is None:
        return None
    result["affinity"] = sorted(affinity or os.sched_getaffinity(0))
    if trace and workload == "sweep-halo":
        # The single-threaded baseline: the same drain pinned to one CPU,
        # where the halo pool runs its shards one after another.
        one = run_binary(binary, args[:-2] + ["--one-core-drain"], affinity=one_cpu())
        if one is None:
            return None
        result["metrics"]["halo.one_core_s"] = one["metrics"]["halo.one_core_s"]
        result["samples"]["halo.one_core_s"] = 1
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        result["failures"] += one["failures"]
        result["correct"] = result["correct"] and one["correct"]
    return result


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def select(result, expected):
    """The BENCHMARK.json metrics of a result, or None if one is missing
    or carries another unit."""
    out = {}
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"run.py: metric {m['name']} missing or not in {m['unit']}: {got}")
            return None
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()
    if a.seconds <= 0:
        p.error("--seconds must be positive")

    expected = expected_metrics(a.trace)
    binary = build()
    if binary is None:
        return 1
    runs = [(w, s) for w in WORKLOADS for s in (a.seed, a.seed + 1)] if a.workload == "all" \
        else [(a.workload, a.seed)]
    results = []
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, seed in runs:
        result = run_workload(binary, workload, seed, a.seconds, a.trace)
        if result is None:
            return 1
        metrics = select(result, expected)
        if metrics is None:
            return 1
        for f in result["failures"]:
            print(f"FAILED {workload} seed {seed}: {f}")
        results.append(result)
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        if a.workload == "all":
            final["metrics"].update({f"{workload}/{seed}/{k}": v for k, v in metrics.items()})
        else:
            final["metrics"] = metrics
    env = environment(sorted({s for _, s in runs}), results)
    print(json.dumps({"env": env}))
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{a.workload}-{a.seed}-trace{a.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({"env": env, "result": final, "runs": results}, fh, indent=1)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
