#!/usr/bin/env python3
"""Pins the rule behavior of tools/lint/hgc_lint.py.

The lint is the static half of the determinism contract, so each rule's
*fire*, *allow*, and *ignore* behaviors are contracts of their own: a rule
that silently stops firing is as bad as a byte-diff CI job that silently
stops diffing. Every rule gets a fixture snippet pinning all three, plus
the suppression mechanics: a lint:allow covers exactly one line, requires a
justification, rejects unknown rule names, and fails when stale. Finally,
the lint must report zero findings on the real repository tree — the same
invocation CI runs.

Runs under pytest in CI; `python3 tools/test_hgc_lint.py` runs the same
functions standalone where pytest is not installed.
"""

import importlib.util
import io
import os
import sys
import tempfile
from contextlib import redirect_stdout

_HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "hgc_lint", os.path.join(_HERE, "lint", "hgc_lint.py")
)
hgc_lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hgc_lint)


def run_lint(files):
    """Write {relpath: content} into a temp tree, lint it, and return
    (exit_code, stdout_text)."""
    with tempfile.TemporaryDirectory() as tmp:
        for relpath, content in files.items():
            path = os.path.join(tmp, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(content)
        argv = sys.argv
        sys.argv = ["hgc_lint.py", "--root", tmp]
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                code = hgc_lint.main()
        finally:
            sys.argv = argv
        return code, out.getvalue()


# --- unordered-iteration -------------------------------------------------

UNORDERED_ITERATING = """
#include <unordered_map>
struct Exporter {
  std::unordered_map<int, double> cells_;
  double total() const {
    double t = 0;
    for (const auto& [k, v] : cells_) t = t + v;
    return t;
  }
};
"""

UNORDERED_LOOKUP_ONLY = """
#include <unordered_map>
struct Cache {
  std::unordered_map<int, double> map_;
  bool has(int k) const { return map_.count(k) > 0; }
  double get(int k) const { return map_.at(k); }
};
"""


def test_unordered_iteration_fires_on_range_for():
    code, out = run_lint({"src/exec/export.cpp": UNORDERED_ITERATING})
    assert code == 1
    assert "src/exec/export.cpp:7: [unordered-iteration]" in out
    assert "cells_" in out


def test_unordered_iteration_fires_on_begin():
    snippet = UNORDERED_LOOKUP_ONLY.replace(
        "return map_.at(k); }",
        "return map_.at(k); }\n  auto it() const { return map_.begin(); }")
    code, out = run_lint({"src/core/c.hpp": snippet})
    assert code == 1
    assert "[unordered-iteration]" in out


def test_unordered_lookup_only_is_ignored():
    # apps/ consumes Cache so that unconsumed-public stays quiet too.
    code, out = run_lint({
        "src/core/cache.hpp": UNORDERED_LOOKUP_ONLY,
        "apps/use.cpp":
            "double f(Cache& c) { return c.has(1) ? c.get(1) : 0; }\n",
    })
    assert code == 0, out


def test_unordered_iteration_allowed_with_justification():
    allowed = UNORDERED_ITERATING.replace(
        "for (const auto& [k, v] : cells_) t = t + v;",
        "// lint:allow(unordered-iteration): totals are order-independent\n"
        "    for (const auto& [k, v] : cells_) t = t + v;")
    code, out = run_lint({"src/exec/export.cpp": allowed})
    assert code == 0, out


# --- nondeterministic-seed -----------------------------------------------

def test_seed_rule_fires_on_each_entropy_source():
    sources = [
        "std::random_device rd;",
        "srand(42);",
        "int r = rand();",
        "long t = time(NULL);",
        "auto n = std::chrono::steady_clock::now();",
        "auto w = std::chrono::system_clock::now();",
    ]
    for line in sources:
        code, out = run_lint(
            {"src/core/seed.cpp": f"void f() {{ {line} }}\n"})
        assert code == 1, f"{line!r} did not fire:\n{out}"
        assert "[nondeterministic-seed]" in out


def test_seed_rule_exempts_obs():
    # src/obs/ is the wall-clock subsystem; the same line is clean there.
    line = "auto n = std::chrono::system_clock::now();"
    code, out = run_lint({"src/obs/clock.cpp": f"void f() {{ {line} }}\n"})
    assert code == 0, out


def test_seed_rule_ignores_comments_and_strings():
    snippet = (
        "// decode time (s) uses steady_clock? no: rand() is banned\n"
        'const char* kDoc = "seed with time(NULL)";\n'
    )
    code, out = run_lint({"src/core/doc.cpp": snippet})
    assert code == 0, out


def test_seed_rule_ignores_identifiers_containing_time():
    # iteration_time(...) and total_time are not time() calls.
    snippet = "double x = ideal_iteration_time(cluster, s);\n"
    code, out = run_lint({"src/core/t.cpp": snippet})
    assert code == 0, out


# --- raw-fp-accumulation -------------------------------------------------

MAC_LOOP = """
double dot(const double* a, const double* b, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}
"""


def test_fp_accumulation_fires_in_core():
    code, out = run_lint({"src/core/decode.cpp": MAC_LOOP})
    assert code == 1
    assert "src/core/decode.cpp:4: [raw-fp-accumulation]" in out


def test_fp_accumulation_fires_on_std_accumulate():
    snippet = ("#include <numeric>\n"
               "double s(const std::vector<double>& v) {\n"
               "  return std::accumulate(v.begin(), v.end(), 0.0);\n"
               "}\n")
    code, out = run_lint({"src/exec/agg.cpp": snippet})
    assert code == 1
    assert "[raw-fp-accumulation]" in out


def test_fp_accumulation_ignored_outside_hot_paths():
    # The same loop in the kernels layer itself (or ml/, tests/) is the
    # implementation, not a bypass.
    code, out = run_lint({
        "src/linalg/kernels.cpp": MAC_LOOP,
        "src/ml/loss.cpp": MAC_LOOP,
        "tests/test_sum.cpp": MAC_LOOP,
    })
    assert code == 0, out


SPARSE_ROW_DOT = """
double row_dot(const std::size_t* cols, const double* values,
               std::size_t nnz, const double* x) {
  double sum = 0.0;
  for (std::size_t i = 0; i < nnz; ++i) sum += values[i] * x[cols[i]];
  return sum;
}
"""


def test_fp_accumulation_sanctions_sparse_kernels_in_linalg():
    # The CSR kernels are the sparse half of the determinism contract; they
    # live in src/linalg/ precisely so their accumulation chains are the
    # sanctioned implementation, not a bypass. The identical loop in
    # src/core/ is still a finding.
    code, out = run_lint({"src/linalg/sparse.cpp": SPARSE_ROW_DOT})
    assert code == 0, out
    code, out = run_lint({"src/core/sparse_copy.cpp": SPARSE_ROW_DOT})
    assert code == 1
    assert "[raw-fp-accumulation]" in out
    assert "linalg/sparse" in out  # the finding names the sanctioned homes


# --- raw-allocation ------------------------------------------------------

def test_raw_allocation_fires_in_linalg():
    snippet = "double* scratch() { return new double[64]; }\n"
    code, out = run_lint({"src/linalg/scratch.cpp": snippet})
    assert code == 1
    assert "src/linalg/scratch.cpp:1: [raw-allocation]" in out


def test_raw_allocation_fires_on_malloc():
    snippet = ("#include <cstdlib>\n"
               "void* p() { return malloc(64); }\n")
    code, out = run_lint({"src/linalg/m.cpp": snippet})
    assert code == 1
    assert "[raw-allocation]" in out


def test_raw_allocation_ignored_outside_linalg():
    snippet = "int* leak() { return new int(7); }\n"
    code, out = run_lint({"src/engine/alloc.cpp": snippet})
    assert code == 0, out


def test_raw_allocation_ignores_new_in_comment():
    snippet = "// a new workspace is sized on first use\nint x = 0;\n"
    code, out = run_lint({"src/linalg/doc.cpp": snippet})
    assert code == 0, out


def test_raw_allocation_fires_on_aligned_alloc_spellings():
    # The SIMD backends make aligned allocation tempting; every spelling of
    # it is still a raw allocation in the allocation-free layer.
    lines = [
        "void* p = std::aligned_alloc(32, 256);",
        "int rc = posix_memalign(&p, 32, 256);",
        "double* q = (double*)_mm_malloc(256, 32);",
    ]
    for line in lines:
        code, out = run_lint(
            {"src/linalg/aa.cpp": f"void f(void* p) {{ {line} }}\n"})
        assert code == 1, f"{line!r} did not fire:\n{out}"
        assert "[raw-allocation]" in out


# --- intrinsics-outside-linalg -------------------------------------------

def test_intrinsics_fire_outside_linalg():
    # Headers, x86 calls, and NEON calls each fire anywhere outside
    # src/linalg/ — SIMD has exactly one reviewed home.
    cases = {
        "src/core/fast.cpp": "#include <immintrin.h>\n",
        "src/exec/hot.cpp":
            "void f(double* a) { _mm256_storeu_pd(a, _mm256_setzero_pd()); }\n",
        "apps/tool.cpp": "#include <arm_neon.h>\n",
        "bench/b.cpp":
            "float64x2_t g(float64x2_t a) { return vaddq_f64(a, a); }\n",
    }
    for relpath, snippet in cases.items():
        code, out = run_lint({relpath: snippet})
        assert code == 1, f"{relpath} did not fire:\n{out}"
        assert "[intrinsics-outside-linalg]" in out


def test_intrinsics_ignored_inside_linalg():
    snippet = (
        "#include <immintrin.h>\n"
        "void f(double* a) { _mm256_storeu_pd(a, _mm256_setzero_pd()); }\n")
    code, out = run_lint({"src/linalg/kernels_avx2.cpp": snippet})
    assert code == 0, out


def test_intrinsics_rule_ignores_lookalike_identifiers():
    # vset_count / mm_total are ordinary names, not intrinsic calls.
    snippet = ("int vset_count(int n) { return n; }\n"
               "double mm_total = 0.0;\n")
    code, out = run_lint({"src/core/names.cpp": snippet})
    assert code == 0, out


# --- lint:allow mechanics ------------------------------------------------

def test_allow_suppresses_exactly_one_line():
    two_sites = (
        "void f() {\n"
        "  auto a = std::chrono::steady_clock::now();"
        "  // lint:allow(nondeterministic-seed): measured, not fed back\n"
        "  auto b = std::chrono::steady_clock::now();\n"
        "}\n")
    code, out = run_lint({"src/core/two.cpp": two_sites})
    assert code == 1
    assert "src/core/two.cpp:3: [nondeterministic-seed]" in out
    assert "two.cpp:2" not in out  # first site suppressed


def test_standalone_allow_covers_next_line_only():
    snippet = (
        "void f() {\n"
        "  // lint:allow(nondeterministic-seed): local timing experiment\n"
        "  auto a = std::chrono::steady_clock::now();\n"
        "  auto b = std::chrono::steady_clock::now();\n"
        "}\n")
    code, out = run_lint({"src/core/next.cpp": snippet})
    assert code == 1
    assert "src/core/next.cpp:4: [nondeterministic-seed]" in out
    assert "next.cpp:3" not in out


def test_allow_without_justification_is_an_error():
    snippet = ("auto a = std::chrono::steady_clock::now();"
               "  // lint:allow(nondeterministic-seed)\n")
    code, out = run_lint({"src/core/no_reason.cpp": snippet})
    assert code == 1
    assert "[lint-allow]" in out
    assert "missing its ': <justification>'" in out


def test_allow_with_unknown_rule_is_an_error():
    snippet = ("int x = 0;  // lint:allow(no-such-rule): because\n")
    code, out = run_lint({"src/core/unknown.cpp": snippet})
    assert code == 1
    assert "unknown rule 'no-such-rule'" in out
    # The error lists the known rules so the fix is obvious.
    assert "nondeterministic-seed" in out


def test_stale_allow_is_an_error():
    snippet = ("int x = 0;  "
               "// lint:allow(nondeterministic-seed): leftover\n")
    code, out = run_lint({"src/core/stale.cpp": snippet})
    assert code == 1
    assert "suppresses nothing" in out


# --- prefix-loop ---------------------------------------------------------

PREFIX_LOOP = """
#include "core/decoder.hpp"
double decode_time(const CodingScheme& scheme, Arrivals& arrivals) {
  std::vector<bool> received(scheme.num_workers(), false);
  for (const auto& [time, w] : arrivals) {
    received[w] = true;
    if (!scheme.quorum_met(received)) continue;
    if (scheme.decoding_coefficients(received)) return time;
  }
  return -1.0;
}
"""


def test_prefix_loop_fires_on_hand_rolled_probe_loop():
    code, out = run_lint({"src/runtime/my_master.cpp": PREFIX_LOOP})
    assert code == 1
    assert "src/runtime/my_master.cpp:7: [prefix-loop]" in out
    assert "src/runtime/my_master.cpp:8: [prefix-loop]" in out
    assert "first_decodable_prefix" in out  # the finding names the fix
    solve = "auto a = solve_decoding_coefficients(*scheme, received);\n"
    code, out = run_lint({"src/runtime/solve.cpp": solve})
    assert code == 1
    assert "src/runtime/solve.cpp:1: [prefix-loop]" in out


def test_prefix_loop_ignored_in_implementing_files_tests_and_comments():
    code, out = run_lint({
        "src/core/decoder.cpp": PREFIX_LOOP,
        "src/core/decoding_cache.cpp": PREFIX_LOOP,
        "src/core/cyclic.cpp": PREFIX_LOOP,
        "src/core/coding_scheme.cpp": PREFIX_LOOP,
        "tests/test_gate.cpp": PREFIX_LOOP,
        "src/engine/round.cpp": (
            "// probes scheme.decoding_coefficients(received) via\n"
            "// solve_decoding_coefficients once quorum_met(received)\n"
            "int x;\n"),
    })
    assert code == 0, out


def test_prefix_loop_allowed_with_justification():
    snippet = PREFIX_LOOP.replace(
        "if (scheme.decoding_coefficients(received)) return time;",
        "// lint:allow(prefix-loop): fixture for the rule itself\n"
        "    if (scheme.decoding_coefficients(received)) return time;").replace(
        "if (!scheme.quorum_met(received)) continue;",
        "if (!scheme.quorum_met(received)) continue;  "
        "// lint:allow(prefix-loop): fixture for the rule itself")
    code, out = run_lint({"src/runtime/my_master.cpp": snippet})
    assert code == 0, out


# --- unconsumed-public ---------------------------------------------------

WIDGET_HPP = """
#pragma once
namespace hgc {
struct Widget {
  int used_field = 0;
  double spare() const;
};
int widget_count(const Widget& w);
}  // namespace hgc
"""

# The definitions alone: neither names spare nor widget_count anywhere else.
WIDGET_CPP = """
#include "core/widget.hpp"
namespace hgc {
double Widget::spare() const { return used_field * 0.5; }
int widget_count(const Widget& w) { return w.used_field; }
}  // namespace hgc
"""

WIDGET_USER = """
#include "core/widget.hpp"
int use(const hgc::Widget& w) { return hgc::widget_count(w) + (int)w.spare(); }
"""


def test_unconsumed_public_fires_when_only_tests_use_a_name():
    code, out = run_lint({
        "src/core/widget.hpp": WIDGET_HPP,
        "src/core/widget.cpp": WIDGET_CPP,
        "tests/test_widget.cpp": WIDGET_USER,
    })
    assert code == 1
    # Reported on the declaring header line, once per name.
    assert "src/core/widget.hpp:6: [unconsumed-public] 'spare'" in out
    assert "src/core/widget.hpp:8: [unconsumed-public] 'widget_count'" in out
    assert "'Widget'" not in out and "'used_field'" not in out
    assert "2 finding(s)" in out


def test_unconsumed_public_counts_examples_and_perfbench_as_consumers():
    for consumer in ("examples/demo.cpp", "perfbench/hgc_perfbench.cpp"):
        code, out = run_lint({
            "src/core/widget.hpp": WIDGET_HPP,
            "src/core/widget.cpp": WIDGET_CPP,
            consumer: WIDGET_USER,
        })
        assert code == 0, f"{consumer}:\n{out}"
        # Consumer roots are read, never linted.
        assert "2 files" in out


def test_unconsumed_public_counts_a_use_in_the_headers_own_cpp():
    cpp = WIDGET_CPP + (
        "namespace hgc {\n"
        "double total(const Widget& w) {\n"
        "  return w.spare() + widget_count(w);\n"
        "}\n"
        "}  // namespace hgc\n")
    code, out = run_lint({
        "src/core/widget.hpp": WIDGET_HPP,
        "src/core/widget.cpp": cpp,
    })
    assert code == 0, out


def test_unconsumed_public_ignores_private_members_comments_and_strings():
    header = """
#pragma once
namespace hgc {
class Gadget {
 public:
  int size() const { return helper(); }
 private:
  int helper() const { return count_; }
  int count_ = 0;
};
}  // namespace hgc
"""
    user = ("// Gadget::helper and count_ are private\n"
            'const char* kDoc = "Gadget::helper";\n'
            "int n(const hgc::Gadget& g) { return g.size(); }\n")
    code, out = run_lint({
        "src/core/gadget.hpp": header,
        "apps/tool.cpp": user,
    })
    assert code == 0, out
    # A name mentioned only in a comment or a string is not consumed.
    only_mentioned = user.replace("return g.size();", "return 0;")
    code, out = run_lint({
        "src/core/gadget.hpp": header,
        "apps/tool.cpp": only_mentioned,
    })
    assert code == 1
    assert "src/core/gadget.hpp:6: [unconsumed-public] 'size'" in out
    assert "helper" not in out and "count_" not in out


def test_unconsumed_public_allowed_with_justification():
    header = WIDGET_HPP.replace(
        "  double spare() const;",
        "  // lint:allow(unconsumed-public): kept for the next consumer\n"
        "  double spare() const;").replace(
        "int widget_count(const Widget& w);",
        "int widget_count(const Widget& w);  "
        "// lint:allow(unconsumed-public): same")
    code, out = run_lint({
        "src/core/widget.hpp": header,
        "src/core/widget.cpp": WIDGET_CPP,
    })
    assert code == 0, out


def test_unconsumed_public_stale_allow_is_an_error():
    header = WIDGET_HPP.replace(
        "  int used_field = 0;",
        "  int used_field = 0;  "
        "// lint:allow(unconsumed-public): no longer needed")
    code, out = run_lint({
        "src/core/widget.hpp": header,
        "src/core/widget.cpp": WIDGET_CPP,
        "bench/b.cpp": WIDGET_USER,
    })
    assert code == 1
    assert "src/core/widget.hpp:5: [lint-allow]" in out
    assert "suppresses nothing" in out


# --- NOLINT budget -------------------------------------------------------

def test_nolint_budget_enforced():
    over = "".join(
        f"int a{i} = 0;  // NOLINT\n"
        for i in range(hgc_lint.NOLINT_BUDGET + 1))
    code, out = run_lint({"src/core/nolint.cpp": over})
    assert code == 1
    assert "[nolint-budget]" in out
    assert f"exceed the budget of {hgc_lint.NOLINT_BUDGET}" in out
    assert "src/core/nolint.cpp:1" in out  # sites are listed

    under = "".join(
        f"int a{i} = 0;  // NOLINT\n"
        for i in range(hgc_lint.NOLINT_BUDGET))
    code, out = run_lint({"src/core/nolint.cpp": under})
    assert code == 0, out


# --- whole-tree self-application ----------------------------------------

def test_clean_tree_reports_zero_findings():
    code, out = run_lint({"src/core/clean.cpp": "int x = 0;\n"})
    assert code == 0
    assert "0 finding(s)" in out


def test_real_repository_tree_is_clean():
    # The same contract CI enforces: the lint's default invocation over the
    # actual tree must report nothing.
    argv = sys.argv
    sys.argv = ["hgc_lint.py"]
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = hgc_lint.main()
    finally:
        sys.argv = argv
    assert code == 0, out.getvalue()
    assert "0 finding(s)" in out.getvalue()


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
