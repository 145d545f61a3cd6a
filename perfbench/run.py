#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 50 --trace 0

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and is skipped when current; stores and trace
summaries go under .bench_out. The last line of stdout is the result JSON
of the run (see README.md beside this file).

Other modes:
    --steady K     run one workload K times (seeds 1..K) and print each
                   metric's median, quartiles, spread and max/min ratio
    --overhead     run one seed untraced and traced and print the
                   traced-minus-untraced end-to-end metrics
    --selftest     build and run the benchmark's own tests
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures and builds the benchmark; returns the build directory."""
    if not (ROOT / "src" / "core" / "manager.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out


def git_sha():
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed result, stdout lines)."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", str(out_dir / f"work-{os.getpid()}")]
    if trace:
        command += ["--trace-out",
                    str(out_dir / f"trace-{workload}-{seed}.json")]
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                            text=True)
    sys.stderr.write(result.stderr)
    lines = result.stdout.splitlines()
    if echo:
        sys.stdout.write(result.stdout)
        sys.stdout.flush()
    parsed = None
    if lines:
        try:
            parsed = json.loads(lines[-1])
        except ValueError:
            parsed = None
    return result.returncode, parsed, lines


def steady(binary, args):
    """Runs one workload k times and summarises every metric's spread."""
    values = {}
    units = {}
    for seed in range(1, args.steady + 1):
        code, parsed, _ = run_once(binary, args.workload, seed, args.seconds,
                                   args.trace, echo=False)
        if code != 0 or parsed is None or not parsed.get("correct"):
            fail(f"seed {seed} failed (exit {code})")
        for name, metric in parsed["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: done", file=sys.stderr)
    print(f"{args.workload}: {args.steady} runs of {args.seconds} s")
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'max/min':>8}")
    summary = {}
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = (statistics.quantiles(series, n=4) if len(series) > 1
                     else (series[0], 0, series[0]))
        spread = (q3 - q1) / median if median else 0.0
        low = min(series)
        ratio = max(series) / low if low else float("inf")
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "max_min": ratio,
                         "unit": units[name], "values": series}
        print(f"{name:36} {median:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.3f} {ratio:8.3f}")
    print(json.dumps({"workload": args.workload, "steady": summary}))


def overhead(binary, args):
    """Prints traced minus untraced end-to-end metrics for one seed."""
    _, plain, _ = run_once(binary, args.workload, args.seed, args.seconds, 0,
                           echo=False)
    _, _, lines = run_once(binary, args.workload, args.seed, args.seconds, 1,
                           echo=False)
    traced = None
    for line in lines:
        if line.startswith('{"end_to_end_traced"'):
            traced = json.loads(line)["end_to_end_traced"]
    if plain is None or traced is None:
        fail("overhead runs did not produce results")
    print(f"{'metric':36} {'untraced':>12} {'traced':>12} {'overhead':>12}")
    for name, metric in plain["metrics"].items():
        base = metric["value"]
        with_trace = traced[name]["value"]
        print(f"{name:36} {base:12.4f} {with_trace:12.4f} "
              f"{with_trace - base:12.4f} {metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="serve-cold or save-chain (gated in BENCHMARK.json), "
                        "or fleet-mixed")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="K")
    parser.add_argument("--overhead", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build()
    if args.selftest:
        sys.exit(subprocess.run([str(out / "perfbench_selftest")],
                                cwd=ROOT).returncode)
    binary = out / "mmmbench"
    if args.steady:
        steady(binary, args)
    elif args.overhead:
        overhead(binary, args)
    else:
        code, _, _ = run_once(binary, args.workload, args.seed, args.seconds,
                              args.trace)
        sys.exit(code)


if __name__ == "__main__":
    main()
