#!/usr/bin/env python3
"""Repository benchmark: build hgc_perfbench, run a workload, print the result.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --out r.jsonl
    python3 perfbench/run.py --compare old.jsonl new.jsonl

Run from the repository root. Each run builds perfbench/hgc_perfbench.cpp
against the library sources (Release, incrementally, under
$CARGO_TARGET_DIR or .bench_build), runs it, checks that the metrics it
emitted are exactly the ones BENCHMARK.json declares, and prints the
binary's report followed by one JSON result line per workload:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--out appends each workload's full record (metrics plus run context: nproc,
kernel backend, compiler, build type, git sha, seed) to a JSONL file;
--compare reads two such files and prints one row per workload and
end-to-end metric with each side's median and quartiles and a verdict.
Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper", "scale10k", "train")
# Upper bound on one hgc_perfbench run; a normal one takes under a minute.
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def expected_metrics(spec, trace):
    """name -> unit for the metrics a run with this --trace must emit."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(record, spec):
    """Raise ValueError unless the record's metrics match BENCHMARK.json."""
    want = expected_metrics(spec, record["trace"])
    got = {name: m["unit"] for name, m in record["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise ValueError(f"{record['workload']}: metric set differs from "
                         f"BENCHMARK.json (missing {missing}, extra {extra}, "
                         f"unit mismatch {units})")


def result_line(record):
    return json.dumps({key: record[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


# ------------------------------------------------------------------ build --

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then build hgc_perfbench incrementally; return its
    path. Build output goes to stderr so stdout stays the report."""
    for needed in ("src", "CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {needed} not found under {ROOT}: the benchmark "
                     "builds the library from the repository's sources")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "hgc_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "hgc_perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_binary(binary, workloads, seed, seconds, trace):
    """Run hgc_perfbench; return (report lines, records)."""
    proc = subprocess.run(
        [binary, "--workload", ",".join(workloads), "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"run.py: hgc_perfbench exited with {proc.returncode}")
    report, records = [], []
    for line in proc.stdout.splitlines():
        if line.startswith('{"workload"'):
            records.append(json.loads(line))
        else:
            report.append(line)
    if [r["workload"] for r in records] != list(workloads):
        sys.exit("run.py: hgc_perfbench did not report every workload")
    return report, records


# ---------------------------------------------------------------- compare --

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def classify(old, new, bound, better):
    """Verdict for one metric: 'regression', 'improved', 'unresolved' or 'ok'.

    A side whose spread is wider than the bound cannot resolve a
    bound-sized change, so the row is 'unresolved' unless every new run
    reads worse (or better) than every old run."""
    sign = 1.0 if better == "lower" else -1.0
    old_med, new_med = quartiles(old)[1], quartiles(new)[1]
    worsening = sign * (new_med - old_med) / abs(old_med)
    if max(spread(old), spread(new)) > bound:
        if all(sign * n > sign * o for n in new for o in old):
            return "regression" if worsening > bound else "unresolved"
        if all(sign * n < sign * o for n in new for o in old):
            return "improved"
        return "unresolved"
    if worsening > bound:
        return "regression"
    if worsening < -bound:
        return "improved"
    return "ok"


def load_records(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def values_by_metric(records, workload):
    values = {}
    for record in records:
        if record["workload"] == workload and record["trace"] == 0:
            for name, metric in record["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    return values


def format_quartiles(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def compare(old_path, new_path, spec):
    """Print the comparison table; return the number of regressions."""
    old, new = load_records(old_path), load_records(new_path)
    print(f"{'workload':<10} {'metric':<13} {'old median [q1, q3]':<36} "
          f"{'new median [q1, q3]':<36} {'change':>8} {'bound':>6}  verdict")
    regressions = 0
    for workload in WORKLOADS:
        old_values = values_by_metric(old, workload)
        new_values = values_by_metric(new, workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in old_values or name not in new_values:
                continue
            a, b = old_values[name], new_values[name]
            verdict = classify(a, b, metric["bound"], metric["better"])
            regressions += verdict == "regression"
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1])
            print(f"{workload:<10} {name:<13} {format_quartiles(qa):<36} "
                  f"{format_quartiles(qb):<36} {change:>+8.1%} "
                  f"{metric['bound']:>6}  {verdict} (n={len(a)}/{len(b)})")
    return regressions


# ------------------------------------------------------------------- main --

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="paper, scale10k, train or all "
                        "(comma-separated list allowed)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured time per run (default: BENCHMARK.json "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append full records to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --out files and exit")
    args = parser.parse_args()
    spec = load_spec()

    if args.compare:
        return 1 if compare(*args.compare, spec) else 0
    if not args.workload:
        parser.error("--workload is required")
    workloads = (list(WORKLOADS) if args.workload == "all"
                 else args.workload.split(","))
    for workload in workloads:
        if workload not in WORKLOADS:
            parser.error(f"unknown workload {workload!r}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    binary = build()
    report, records = run_binary(binary, workloads, args.seed, seconds,
                                 args.trace)
    sha = git_sha()
    for record in records:
        record["context"]["git_sha"] = sha
        try:
            validate(record, spec)
        except ValueError as e:
            sys.exit(f"run.py: {e}")
    for line in report:
        print(line)
    for record in records:
        print(f"[{record['workload']}] context: "
              f"{json.dumps(record['context'], sort_keys=True)} "
              f"seed {record['seed']}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            for record in records:
                f.write(json.dumps(record) + "\n")
    for record in records:
        print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
