#!/usr/bin/env python3
"""Scale-check benchmark.

Builds the scalebench binary from this checkout's sources, runs one workload
repeatedly for --seconds, checks its outputs, and prints its metrics. A fixed
reference kernel (scalebench_ref) is timed before the first repetition and
after every one, and the workload's wall time is reported in units of that
kernel's mean time. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json, with
--trace 1 the per-layer ones. A result file with the host fingerprint, every
repetition and (traced) the spans plus a per-layer self-time view is written
to .bench_out/ when the run ends.

    python3 scalebench/run.py --workload fig3-c3831-n256 --seed 1 \\
        --seconds 36 --trace 0 [--kv-rate 2000]

Exit status: 0 when every output check passed; 1 when one failed, or when the
benchmark could not build or run (then with no result line); 2 on bad
arguments.
See scalebench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from statistics import mean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "scalebench")
REFERENCE = os.path.join(BUILD_DIR, "scalebench_ref")

# Seeds named per workload: `canonical` reproduces the numbers the repository
# documents; `held_out` is reserved for checking a later claim on a seed the
# change was not tuned on. BENCHMARK.json lists all but colo-probe-n512,
# which stays runnable by hand (see README.md).
WORKLOADS = {
    "fig3-c3831-n256": {"canonical": 0x5CA1EC4EC, "held_out": 90001},
    "colo-probe-n512": {"canonical": 1234, "held_out": 90002},
    "kv-durable-n64": {"canonical": 0x5CA1EC4EC, "held_out": 90003},
    "chaos-search-n64": {"canonical": 0x5CA1EC4EC, "held_out": 90004},
}
DEFAULT_KV_RATE = 2000.0

# A run's inputs are SUBSEEDS simulation seeds derived from --seed (the first
# is --seed itself). Host cost varies with the seed by up to ~15% (flap storms
# differ), so each metric is a median over several seeds, not one seed's
# value. A run first runs each sub-seed once, then cycles over them again
# (the first one first, so its counts are checked against its first run) one
# repetition at a time while the next would end within --seconds, and never
# past TIME_LIMIT_S.
SUBSEEDS = 3
SEED_STRIDE = 0x9E3779B97F4A7C15
TIME_LIMIT_S = 165.0

# Per-layer metrics (by name prefix) that only one workload may move; the
# traced run of any other workload fails if one of them is not zero.
PREDICTED_ZERO = {
    "kv.": "kv-durable-n64",
    "pil.replay_hits": "fig3-c3831-n256",
    "faults.candidates": "chaos-search-n64",
}


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no scalecheck sources next to the benchmark (src/ missing)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def subseeds(seed):
    return [(seed + j * SEED_STRIDE) % 2**64 for j in range(SUBSEEDS)]


def run_json(cmd, deadline, ok_codes=(0,)):
    """Runs `cmd` to completion and returns its last stdout line as JSON."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{os.path.basename(cmd[0])} ran past the time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in ok_codes or not lines:
        raise BenchError(f"{os.path.basename(cmd[0])} exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def run_binary(args, seed, traced, deadline):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(seed)]
    if args.kv_rate is not None:
        cmd += ["--kv-rate", repr(args.kv_rate)]
    if traced:
        cmd.append("--trace")
    return run_json(cmd, deadline, ok_codes=(0, 3))


def repetitions(args, start):
    """Cycles over the sub-seeds, each repetition followed by a timing of the
    reference kernel (and the first preceded by one). Traced runs pair each
    sub-seed's untraced repetition with a traced one, whose deterministic
    counts must match."""
    deadline = start + TIME_LIMIT_S
    seeds = subseeds(args.seed)
    modes = [False, True] if args.trace else [False]
    plan = [(s, traced) for s in seeds for traced in modes]
    references = [run_json([REFERENCE], deadline)]
    reps = []
    while True:
        seed, traced = plan[len(reps) % len(plan)]
        rep_start = time.monotonic()
        reps.append(run_binary(args, seed, traced, deadline))
        references.append(run_json([REFERENCE], deadline))
        # One full round, then one repetition more while it would end in time.
        now = time.monotonic()
        if len(reps) >= len(plan) and now + (now - rep_start) > min(start + args.seconds, deadline):
            return reps, references


def self_times(spans):
    """Per-layer self time: each span's duration minus what its children cover."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)
    by_layer = {}
    for i, s in enumerate(spans):
        covered, cursor = 0, s["start_ns"]
        for lo, hi in sorted((spans[c]["start_ns"], spans[c]["end_ns"]) for c in children.get(i, [])):
            lo, hi = max(lo, cursor), min(hi, s["end_ns"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        self_ns = s["end_ns"] - s["start_ns"] - covered
        by_layer[s["layer"]] = by_layer.get(s["layer"], 0) + self_ns
    total = sum(by_layer.values()) or 1
    return {layer: {"self_s": ns / 1e9, "share": ns / total}
            for layer, ns in sorted(by_layer.items(), key=lambda kv: -kv[1])}


def fingerprint(rep):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base in ("src", "scalebench"):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "compiler": rep["compiler"],
        "build_type": rep["build_type"],
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=lambda s: int(s, 0))
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--kv-rate", type=float, default=None,
                        help=f"kv-durable-n64 client ops/s (default {DEFAULT_KV_RATE:g})")
    args = parser.parse_args()
    if args.kv_rate is not None and not args.kv_rate > 0:
        parser.error("--kv-rate must be positive")
    if args.workload != "kv-durable-n64":
        args.kv_rate = None

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        start = time.monotonic()
        reps, references = repetitions(args, start)
    except (BenchError, OSError, ValueError) as e:
        print(f"scalebench: {e}", file=sys.stderr)
        return 1

    untraced = [r for r in reps if not r["trace"]]
    traced = [r for r in reps if r["trace"]]
    problems = sorted({why for r in reps for why in r["check_failures"]})
    by_seed = {}
    for r in reps:
        by_seed.setdefault(r["seed"], []).append(r)
    if any(r["counts"] != same[0]["counts"] for same in by_seed.values() for r in same):
        problems.append("deterministic counts differ between same-seed repetitions")
    if len({r["checksum"] for r in references}) != 1:
        problems.append("the reference kernel's checksum differs between its runs")

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = sorted({n for r in reps for n in r["layers"]} - set(names))
        if unknown:
            problems.append("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
        # A layer a workload bypasses reports nothing and reads 0. A metric the
        # untraced run also measures (fig3's suite executor timings) is taken
        # from there.
        values = {n: median([r["layers"].get(n, 0.0)
                             for r in (untraced if n in untraced[0]["layers"] else traced)])
                  for n in names}
        # Traced against untraced wall time of the same sub-seed.
        values["trace.overhead_pct"] = 100.0 * median([
            median([r["wall_s"] for r in same if r["trace"]]) /
            median([r["wall_s"] for r in same if not r["trace"]]) - 1.0
            for same in by_seed.values()])
        if args.workload == "kv-durable-n64":
            issued = sum(v for r in traced for k, v in r["counts"].items()
                         if k.endswith(".kv_issued"))
            gave_up = sum(v for r in traced for k, v in r["counts"].items()
                          if k.endswith(".kv_gave_up"))
            values["failed_ratio"] = gave_up / issued if issued else 0.0
        else:
            values["failed_ratio"] = (sum(r["failed"] for r in reps) /
                                      sum(r["attempted"] for r in reps))
        for prefix, owner in PREDICTED_ZERO.items():
            if args.workload != owner:
                problems += [f"{n} is {values[n]:g}, predicted 0 outside {owner}"
                             for n in names if n.startswith(prefix) and values[n] != 0]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        # Median over seeds of each seed's median, so a seed that ran more
        # rounds weighs no more than the others.
        def over_seeds(key):
            return median([median([r[key] for r in same if not r["trace"]])
                           for same in by_seed.values()])
        values = {
            # The run's mean kernel time, not each repetition's neighbours:
            # one kernel timing can read 2x off, and the mean of all of them
            # spread least over ten seeds.
            "wall_ratio": over_seeds("wall_s") / mean(r["reference_s"] for r in references),
            "peak_rss_mb": over_seeds("peak_rss_mb"),
            "setup_s": median([s for r in untraced for s in r["setup_s"]]),
        }
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}

    fp = fingerprint(reps[0])
    seeds = WORKLOADS[args.workload]
    kv_rate = args.kv_rate or DEFAULT_KV_RATE
    print(f"workload {args.workload}  seed {args.seed} "
          f"(simulation seeds {', '.join(map(str, subseeds(args.seed)))})  "
          f"canonical seed {seeds['canonical']}  held-out seed {seeds['held_out']}"
          + (f"  kv rate {kv_rate:g} ops/s" if args.workload == "kv-durable-n64" else ""))
    print("host " + "  ".join(f"{k}={v}" for k, v in fp.items()))
    print(f"repetitions {len(untraced)} untraced, {len(traced)} traced")
    for n in names:
        print(f"  {n:34s} {values[n]:>16.6g} {units[n]}")
    print(f"  {'(wall s, median)':34s} {median([r['wall_s'] for r in untraced]):>16.6g} s"
          f"   (reference kernel, mean) {mean(r['reference_s'] for r in references):.6g} s")
    for why in problems:
        print(f"CHECK FAILED: {why}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kv_rate": kv_rate if args.workload == "kv-durable-n64" else None,
        "seeds": seeds, "host": fp, "metrics": metrics, "check_failures": problems,
        "repetitions": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
        "reference_s": [r["reference_s"] for r in references],
    }
    if traced:
        record["spans"] = traced[-1]["spans"]
        record["self_time_by_layer"] = self_times(traced[-1]["spans"])
        print("self time by layer (last traced repetition):")
        for layer, row in record["self_time_by_layer"].items():
            print(f"  {layer:12s} {row['self_s']:10.4f} s  {100 * row['share']:5.1f}%")
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-{'trace' if args.trace else 'e2e'}.json")
    with open(out_path, "w") as f:
        json.dump(record, f, indent=1)
    print(f"wrote {os.path.relpath(out_path, ROOT)}")

    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
