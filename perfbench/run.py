#!/usr/bin/env python3
"""Builds the engine benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The engine (../src) and the benchmark are
compiled with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then the benchmark binary runs the workload. Its
human-readable output (host fingerprint, checks) is passed through, followed
by every metric it measured with its unit from BENCHMARK.json and its sample
count; the full results, including the traced run's per-span table, are
written to <build>/results/. A per-layer metric the workload does not
measure reads 0 (n=0). The last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). The exit code is non-zero when an output differs from
its reference, the serving latency limit is missed, or the build fails (no
result line then).
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures and builds the benchmark; returns the binary's path."""
    cache = out / "CMakeCache.txt"
    if cache.exists():
        # A build tree configured for another source directory cannot be
        # reused; it only ever holds this benchmark's own outputs.
        home = [line for line in cache.read_text().splitlines()
                if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or pathlib.Path(home[0].split("=", 1)[1]) != HERE:
            shutil.rmtree(out)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), 3)
    return out / "perfbench"


def commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    # Look for .git at the checkout root only, never in a parent directory.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10, env=env)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def cpu_steal_s():
    """CPU time the hypervisor has taken from this machine, summed over its
    CPUs (the steal column of /proc/stat); None where it is not reported."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale; the smoke test uses a tiny one")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="corrupt the reference (tests the gate)")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found at the checkout root", 2)
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {names})", 2)
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    out = build_dir()
    binary = build(out)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scale", repr(args.scale)]
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    # The program sees only the generated inputs: no engine knobs from the
    # caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SFDF_")}
    steal_before = cpu_steal_s()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload exceeded {RUN_TIMEOUT_S} s", 5)
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {proc.returncode})", 4)
    try:
        full = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark printed no result (exit {proc.returncode})", 4)
    for line in lines[:-1]:
        print(line)
    host = dict(full["host"], commit=commit())
    print("host commit=" + host["commit"])
    # Stolen CPU time slows every timing, most of all the coordination-bound
    # ones; a run with much of it is not comparable with a quiet one.
    steal_after = cpu_steal_s()
    if steal_before is not None and steal_after is not None:
        host["cpu_steal_s"] = round(steal_after - steal_before, 2)
        print(f"host cpu_steal_s={host['cpu_steal_s']}")

    measured = full["metrics"]
    unknown = sorted(set(measured) - set(units))
    if unknown:
        fail(f"metrics not in BENCHMARK.json: {unknown}", 4)
    if args.trace == "1":
        for metric in wanted:
            measured.setdefault(metric["name"], {"value": 0, "samples": 0})
    for name, got in sorted(measured.items()):
        got["unit"] = units[name]
        print(f"metric {name:<32} {got['value']:16.6f} {got['unit']:<6} "
              f"n={got['samples']}")
    attempted, failed = int(full["attempted"]), int(full["failed"])
    print(f"metric {'failed_frac':<32} "
          f"{failed / attempted if attempted else 1.0:16.6f} {'ratio':<6} "
          f"n={attempted}")

    metrics = {}
    for metric in wanted:
        got = measured.get(metric["name"])
        if got is None:
            fail(f"metric {metric['name']} missing from the output", 4)
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {
        "correct": bool(full["correct"]) and proc.returncode == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"host": host, "workload": args.workload, "seconds": args.seconds,
         "scale": args.scale, "checks": full["checks"],
         "metrics": measured, "spans": full["spans"],
         "result": result}, indent=1) + "\n")

    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(proc.returncode if proc.returncode != 0 else
             (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
