#!/usr/bin/env python3
"""Perf-smoke floor check for the kernel benches.

Usage: check_bench_floor.py BENCH_kernels.json bench/kernels_baseline.json

Reads a google-benchmark JSON report and a baseline file, and fails (exit 1)
only on gross regressions:
  * an entry whose baseline records `mflops` must measure at least
    baseline_mflops / mflops_floor_divisor (default 5x headroom, so
    machine-to-machine noise never trips it — only order-of-magnitude
    regressions like a scalarized kernel or a copy in the hot loop);
  * an entry whose baseline records `max_allocs_per_iter` must measure an
    allocs_per_iter counter at or below it (the workspace layer's
    zero-steady-state-allocation contract, checked exactly);
  * an entry whose baseline records `max_real_time_ns` must measure a
    per-iteration real_time at or below it, whatever time_unit the report
    used (the obs layer's near-zero-disabled-cost contract);
  * every baseline entry must be present in the report (a silently skipped
    bench must not pass);
  * every baseline key must be one the checker knows how to enforce, and
    every entry must carry at least one such key — a typoed or stale key
    fails by name instead of silently checking nothing.

Per-backend floors: a baseline name may carry an `@backend` suffix
(`BM_KernelDot/16384@avx2`). Such an entry is enforced only when the
report's context.hgc_kernel_backend matches the suffix (the bench binary
stamps it via AddCustomContext), and is skipped — counted and printed, not
failed — otherwise, so one baseline file serves the scalar and SIMD CI
legs. A suffixed entry fails loudly when the report carries no backend
context (old binary) or when the suffix is not a known backend name.
"""

import json
import sys

# Baseline keys this checker enforces. Anything else in an entry is a typo
# or a key from a newer checker version — both must fail loudly.
CHECKED_KEYS = {"mflops", "max_allocs_per_iter", "max_real_time_ns"}

# Valid `@backend` suffixes — must match kernels::backend_name() spellings.
KNOWN_BACKENDS = {"scalar", "avx2"}

# google-benchmark time_unit -> nanoseconds per unit.
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        report = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    results = {b["name"]: b for b in report.get("benchmarks", [])}
    report_backend = report.get("context", {}).get("hgc_kernel_backend")
    divisor = float(baseline.get("mflops_floor_divisor", 5.0))
    failures = []
    checked = 0
    skipped = []

    for key, spec in baseline["benchmarks"].items():
        name, _, backend = key.partition("@")
        if backend:
            if backend not in KNOWN_BACKENDS:
                failures.append(
                    f"{key}: unknown backend suffix {backend!r} "
                    f"(known: {', '.join(sorted(KNOWN_BACKENDS))})"
                )
                continue
            if report_backend is None:
                failures.append(
                    f"{key}: baseline is per-backend but the report has no "
                    f"context.hgc_kernel_backend (bench binary too old?)"
                )
                continue
            if backend != report_backend:
                skipped.append(key)
                continue
        unknown = sorted(set(spec) - CHECKED_KEYS)
        if unknown:
            failures.append(
                f"{key}: unknown baseline key(s) {', '.join(unknown)} "
                f"(checker knows: {', '.join(sorted(CHECKED_KEYS))})"
            )
        if not set(spec) & CHECKED_KEYS:
            failures.append(
                f"{key}: baseline entry has no checkable key — nothing "
                f"would be enforced"
            )
            continue
        got = results.get(name)
        if got is None:
            failures.append(f"{key}: missing from the benchmark report")
            continue
        if "mflops" in spec:
            checked += 1
            floor = float(spec["mflops"]) / divisor
            measured = got.get("mflops")
            if measured is None or float(measured) < floor:
                failures.append(
                    f"{key}: mflops {measured} below floor {floor:.1f} "
                    f"(baseline {spec['mflops']} / {divisor:g})"
                )
        if "max_allocs_per_iter" in spec:
            checked += 1
            measured = got.get("allocs_per_iter")
            ceiling = float(spec["max_allocs_per_iter"])
            if measured is None:
                # A dropped counter must fail, not pass vacuously as 0.
                failures.append(
                    f"{key}: allocs_per_iter counter missing from the "
                    f"report (AllocCounter.report() removed?)"
                )
            elif float(measured) > ceiling:
                failures.append(
                    f"{key}: allocs_per_iter {float(measured):g} exceeds "
                    f"{ceiling:g}"
                )
        if "max_real_time_ns" in spec:
            checked += 1
            ceiling = float(spec["max_real_time_ns"])
            measured = got.get("real_time")
            unit = got.get("time_unit", "ns")
            if measured is None or unit not in TIME_UNIT_NS:
                failures.append(
                    f"{key}: real_time missing or time_unit {unit!r} "
                    f"unknown — cannot check max_real_time_ns"
                )
            else:
                measured_ns = float(measured) * TIME_UNIT_NS[unit]
                if measured_ns > ceiling:
                    failures.append(
                        f"{key}: real_time {measured_ns:g} ns exceeds "
                        f"ceiling {ceiling:g} ns"
                    )

    summary = f"check_bench_floor: {checked} floors checked"
    if skipped:
        summary += (f", {len(skipped)} other-backend entr"
                    f"{'y' if len(skipped) == 1 else 'ies'} skipped")
    print(summary + f", {len(failures)} failures")
    for key in skipped:
        print(f"  SKIP {key} (report backend: {report_backend})")
    for failure in failures:
        print(f"  FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
