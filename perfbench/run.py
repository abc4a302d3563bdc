#!/usr/bin/env python3
"""TATP benchmark of the real engine: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds perfbench/ (engine
sources from src/, the tatp_bench binary and its statistics self-test)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
the self-test, then runs one workload and checks its outputs.

It prints the run's configuration, its output checks and every metric
with its unit, and as the last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json; with --trace 1 the workload runs
with spans around each layer call and the metrics are the per_layer ones
(the spans are written to .bench_out/spans_<workload>.csv.gz).

Exit codes: 0 when every output check passed, 1 when one failed (the
result line then says "correct": false), 2 when the benchmark could not
be built or run (no result line).
"""
import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tatp-cached", "tatp-1m-remote", "tatp-wire-durable", "tatp-shift")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "partitioned_executor.h")):
        fail("engine sources (src/) not found next to perfbench/")
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, base, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=850, env=env)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    return build_dir


def declared_metrics():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return spec["end_to_end"], spec["per_layer"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def run_workload(build_dir, args, spans_out):
    cmd = [os.path.join(build_dir, "tatp_bench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if spans_out:
        cmd.append(f"--spans_out={spans_out}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"tatp_bench exited {done.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("tatp_bench printed no result")


OVERHEAD_METRICS = ("tps", "p50_us")


def record_untraced(out_dir, workload, metrics):
    """Keeps untraced results so a traced run can report its overhead."""
    with open(os.path.join(out_dir, f"untraced_{workload}.jsonl"), "a") as f:
        f.write(json.dumps({k: metrics[k]["value"] for k in OVERHEAD_METRICS}) + "\n")


def untraced_runs(out_dir, workload):
    try:
        with open(os.path.join(out_dir, f"untraced_{workload}.jsonl")) as f:
            return [json.loads(line) for line in f if line.strip()]
    except (OSError, ValueError):
        return []


def compress(path):
    with open(path, "rb") as src, gzip.open(path + ".gz", "wb", compresslevel=1) as dst:
        while chunk := src.read(1 << 20):
            dst.write(chunk)
    os.remove(path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    end_to_end, per_layer = declared_metrics()
    build_dir = build()
    test = subprocess.run([os.path.join(build_dir, "stats_test")], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=60)
    if test.returncode != 0:
        sys.stderr.write(test.stdout)
        fail("statistics self-test failed")

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_out = os.path.join(out_dir, f"spans_{args.workload}.csv") if args.trace else ""
    res = run_workload(build_dir, args, spans_out)
    metrics = res["metrics"]

    print(f"== {args.workload} (seed {args.seed}, {args.seconds} s, "
          f"{'traced' if args.trace else 'untraced'}) ==")
    print("config: " + ", ".join(f"{k}={v}" for k, v in res["config"].items()))
    for c in res["checks"]:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['check']}")
    print(f"attempted {res['attempted']}, failed {res['failed']}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")

    if args.trace:
        layers = [n for n in metrics if n.startswith("self.")]
        total = sum(metrics[n]["value"] for n in layers) or 1.0
        print("self time by layer (traced run):")
        for n in sorted(layers, key=lambda n: -metrics[n]["value"]):
            v = metrics[n]["value"]
            print(f"  {n[5:-3]:<10} {v:>12.1f} ms  {100 * v / total:5.1f}%")
        print(f"tracing overhead, estimated from span cost: "
              f"{100 * metrics['trace.overhead_frac']['value']:.2f}% of generator time")
        seen = untraced_runs(out_dir, args.workload)
        for k in OVERHEAD_METRICS:
            base = [r[k] for r in seen if k in r]
            if base:
                print(f"tracing overhead, measured: traced {k} {metrics[k]['value']:.6g} vs "
                      f"median {statistics.median(base):.6g} of {len(base)} untraced run(s) "
                      f"in this checkout ({100 * (metrics[k]['value'] / statistics.median(base) - 1):+.2f}%)")
        if os.path.isfile(spans_out):
            compress(spans_out)
    else:
        record_untraced(out_dir, args.workload, metrics)

    chosen = per_layer if args.trace else end_to_end
    out = {}
    for m in chosen:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) missing from the run's output")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": out}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
