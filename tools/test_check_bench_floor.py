#!/usr/bin/env python3
"""Pins the failure modes of check_bench_floor.py.

The floor checker is the only thing standing between a perf regression and
a green CI run, so its *failure* behaviors are contracts: a typoed baseline
key, a baseline entry that enforces nothing, and a bench missing from the
report must each fail loudly rather than pass vacuously. These tests pin
them, plus the time-unit normalization for max_real_time_ns ceilings.

Runs under pytest in CI; `python3 tools/test_check_bench_floor.py` runs the
same functions standalone where pytest is not installed.
"""

import importlib.util
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

_HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "check_bench_floor", os.path.join(_HERE, "check_bench_floor.py")
)
check_bench_floor = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench_floor)


def run_checker(report, baseline):
    """Invoke main() on temp files; return (exit_code, stdout_text)."""
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "report.json")
        baseline_path = os.path.join(tmp, "baseline.json")
        with open(report_path, "w") as f:
            json.dump(report, f)
        with open(baseline_path, "w") as f:
            json.dump(baseline, f)
        argv = sys.argv
        sys.argv = ["check_bench_floor.py", report_path, baseline_path]
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                code = check_bench_floor.main()
        finally:
            sys.argv = argv
        return code, out.getvalue()


def bench(name, **fields):
    entry = {"name": name}
    entry.update(fields)
    return entry


def test_passes_when_all_floors_hold():
    report = {
        "benchmarks": [
            bench("BM_Kernel", mflops=5000.0),
            bench("BM_Alloc", allocs_per_iter=0.0, real_time=12.0,
                  time_unit="ns"),
        ]
    }
    baseline = {
        "mflops_floor_divisor": 5.0,
        "benchmarks": {
            "BM_Kernel": {"mflops": 9000},
            "BM_Alloc": {"max_allocs_per_iter": 0.5, "max_real_time_ns": 15},
        },
    }
    code, out = run_checker(report, baseline)
    assert code == 0, out
    assert "3 floors checked, 0 failures" in out


def test_unknown_baseline_key_fails_by_name():
    report = {"benchmarks": [bench("BM_Kernel", mflops=5000.0)]}
    baseline = {
        "benchmarks": {"BM_Kernel": {"mflops": 9000, "mflopz": 1}}
    }
    code, out = run_checker(report, baseline)
    assert code == 1
    assert "unknown baseline key(s) mflopz" in out


def test_entry_with_no_checkable_key_fails():
    # An empty spec enforces nothing — that must be a failure, not a pass.
    report = {"benchmarks": [bench("BM_Kernel", mflops=5000.0)]}
    baseline = {"benchmarks": {"BM_Kernel": {}}}
    code, out = run_checker(report, baseline)
    assert code == 1
    assert "no checkable key" in out


def test_baseline_entry_missing_from_report_fails():
    # A silently skipped bench (filtered out, crashed, renamed) must fail.
    report = {"benchmarks": [bench("BM_Other", mflops=5000.0)]}
    baseline = {"benchmarks": {"BM_Kernel": {"mflops": 9000}}}
    code, out = run_checker(report, baseline)
    assert code == 1
    assert "BM_Kernel: missing from the benchmark report" in out


def test_max_real_time_normalizes_report_time_unit():
    # 0.01 us = 10 ns: under a 15 ns ceiling despite the us report unit.
    report = {
        "benchmarks": [bench("BM_Obs", real_time=0.01, time_unit="us")]
    }
    baseline = {"benchmarks": {"BM_Obs": {"max_real_time_ns": 15}}}
    code, out = run_checker(report, baseline)
    assert code == 0, out

    # 0.02 us = 20 ns: over the ceiling, and the message reports ns.
    report["benchmarks"][0]["real_time"] = 0.02
    code, out = run_checker(report, baseline)
    assert code == 1
    assert "20 ns exceeds ceiling 15 ns" in out


def test_max_real_time_with_unknown_unit_fails():
    report = {
        "benchmarks": [bench("BM_Obs", real_time=1.0, time_unit="weeks")]
    }
    baseline = {"benchmarks": {"BM_Obs": {"max_real_time_ns": 15}}}
    code, out = run_checker(report, baseline)
    assert code == 1
    assert "time_unit 'weeks' unknown" in out


def test_missing_allocs_counter_fails_not_vacuously_passes():
    report = {"benchmarks": [bench("BM_Alloc", real_time=1.0)]}
    baseline = {"benchmarks": {"BM_Alloc": {"max_allocs_per_iter": 0.5}}}
    code, out = run_checker(report, baseline)
    assert code == 1
    assert "allocs_per_iter counter missing" in out


def test_mflops_floor_uses_divisor_headroom():
    # baseline 9000 / divisor 5 = floor 1800; 1799 fails, 1801 passes.
    baseline = {
        "mflops_floor_divisor": 5.0,
        "benchmarks": {"BM_Kernel": {"mflops": 9000}},
    }
    code, _ = run_checker(
        {"benchmarks": [bench("BM_Kernel", mflops=1801.0)]}, baseline)
    assert code == 0
    code, out = run_checker(
        {"benchmarks": [bench("BM_Kernel", mflops=1799.0)]}, baseline)
    assert code == 1
    assert "below floor 1800.0" in out


def test_backend_suffix_checked_when_context_matches():
    report = {
        "context": {"hgc_kernel_backend": "avx2"},
        "benchmarks": [bench("BM_Kernel/16384", mflops=100.0)],
    }
    baseline = {
        "mflops_floor_divisor": 5.0,
        "benchmarks": {"BM_Kernel/16384@avx2": {"mflops": 9000}},
    }
    code, out = run_checker(report, baseline)
    assert code == 1
    # Enforced (and failed) under the full suffixed key, against the
    # report's UNsuffixed bench name.
    assert "BM_Kernel/16384@avx2: mflops 100.0 below floor" in out


def test_backend_suffix_skipped_when_context_differs():
    report = {
        "context": {"hgc_kernel_backend": "scalar"},
        "benchmarks": [bench("BM_Kernel/16384", mflops=100.0)],
    }
    baseline = {
        "benchmarks": {
            "BM_Kernel/16384@avx2": {"mflops": 9000},
            "BM_Kernel/16384@scalar": {"mflops": 90},
        }
    }
    code, out = run_checker(report, baseline)
    assert code == 0, out
    # The other-backend entry is reported as skipped, not silently dropped.
    assert "1 other-backend entry skipped" in out
    assert "SKIP BM_Kernel/16384@avx2" in out


def test_backend_suffix_without_report_context_fails():
    # A per-backend floor against a report with no backend stamp must fail:
    # silently enforcing (or skipping) it would hide a stale bench binary.
    report = {"benchmarks": [bench("BM_Kernel/16384", mflops=9000.0)]}
    baseline = {"benchmarks": {"BM_Kernel/16384@avx2": {"mflops": 90}}}
    code, out = run_checker(report, baseline)
    assert code == 1
    assert "no context.hgc_kernel_backend" in out


def test_unknown_backend_suffix_fails_by_name():
    report = {
        "context": {"hgc_kernel_backend": "scalar"},
        "benchmarks": [bench("BM_Kernel", mflops=9000.0)],
    }
    baseline = {"benchmarks": {"BM_Kernel@sse2": {"mflops": 90}}}
    code, out = run_checker(report, baseline)
    assert code == 1
    assert "unknown backend suffix 'sse2'" in out


def test_neon_backend_suffix_is_unknown():
    # The NEON backend is gone; a leftover @neon floor would never be
    # enforced by any CI leg, so it must fail like any other typo.
    assert check_bench_floor.KNOWN_BACKENDS == {"scalar", "avx2"}
    report = {
        "context": {"hgc_kernel_backend": "scalar"},
        "benchmarks": [bench("BM_Kernel", mflops=9000.0)],
    }
    baseline = {"benchmarks": {"BM_Kernel@neon": {"mflops": 90}}}
    code, out = run_checker(report, baseline)
    assert code == 1
    assert "unknown backend suffix 'neon'" in out


def _load_repo_baseline():
    path = os.path.join(_HERE, os.pardir, "bench", "kernels_baseline.json")
    with open(path) as f:
        return json.load(f)


def test_repo_baseline_file_is_well_formed():
    # The checked-in baseline must never contain a key the checker would
    # reject, every entry must enforce something, and any @backend suffix
    # must be a backend the checker (and the bench binary) knows.
    baseline = _load_repo_baseline()
    for key, spec in baseline["benchmarks"].items():
        assert set(spec) & check_bench_floor.CHECKED_KEYS, key
        assert not set(spec) - check_bench_floor.CHECKED_KEYS, key
        _, _, backend = key.partition("@")
        if backend:
            assert backend in check_bench_floor.KNOWN_BACKENDS, key


def test_repo_baseline_simd_floors_are_2x_scalar():
    # PR 9's acceptance criterion as a committed relationship: at the
    # compute-bound kernel shapes, the SIMD floor must promise at least 2x
    # the committed scalar baseline. (Enforced on the committed values, not
    # a same-run measurement, so shared-runner noise cannot flake it.)
    baseline = _load_repo_baseline()["benchmarks"]
    for name in ("BM_KernelDot/16384", "BM_KernelDot/1024",
                 "BM_KernelGemv/58/116"):
        scalar = baseline[f"{name}@scalar"]["mflops"]
        simd = baseline[f"{name}@avx2"]["mflops"]
        assert simd >= 2 * scalar, (
            f"{name}: @avx2 baseline {simd} is below 2x @scalar {scalar}"
        )


if __name__ == "__main__":
    failures = 0
    for fn_name, fn in sorted(globals().items()):
        if fn_name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {fn_name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {fn_name}: {exc}")
    sys.exit(1 if failures else 0)
