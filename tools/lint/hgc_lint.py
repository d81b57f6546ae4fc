#!/usr/bin/env python3
"""hgc_lint: the project's determinism & safety lint.

The sweep stack's load-bearing contract is byte-identity: the same grid
produces a bit-identical ResultTable at any thread count, with caching and
observability on or off. Runtime CI diffs enforce that on a handful of
smoke grids; this lint enforces the *invariants behind it* statically, so a
violation fails by file:line on the PR that introduces it instead of
surfacing as a flaky diff later (or never, if no smoke grid covers it).

Rules (see RULES for scopes and per-rule allowlists):

  unordered-iteration   Iterating a std::unordered_map/unordered_set walks
                        hash-table order, which varies by libstdc++ version
                        and seed values. Anything that feeds output must
                        iterate a deterministically ordered container (or
                        sort first). Lookups/membership are fine; only
                        iteration (range-for, begin()/end()) fires.
  nondeterministic-seed Wall clocks and entropy sources (std::random_device,
                        rand()/srand(), time(), the std::chrono clocks) must
                        not feed simulation state. All randomness flows from
                        util/rng's seeded streams. src/obs/ is exempt —
                        wall-clock timestamps are its whole job.
  raw-fp-accumulation   Floating-point accumulation in the decode/sweep hot
                        paths must route through linalg/kernels (dense) or
                        linalg/sparse (CSR), whose fixed summation orders
                        ARE the determinism contract (PR 4; sparse PR 10).
                        An ad-hoc `sum += a[i] * b[i]` loop is a parallel
                        summation-order decision nobody reviews. src/linalg/
                        is exactly the sanctioned accumulation site — the
                        sparse kernels live there for that reason.
  raw-allocation        Kernel/workspace code (src/linalg/) is allocation-
                        free on the hot path by contract (pinned by an
                        instrumented-allocator test); naked new/malloc (or
                        aligned_alloc/posix_memalign/_mm_malloc from a SIMD
                        backend) there is either a leak risk or a perf
                        regression.
  intrinsics-outside-linalg
                        Vector intrinsics (immintrin/arm_neon includes,
                        _mm*/v*q_f64 calls) are only allowed inside
                        src/linalg/, where the backend TUs implement the
                        documented summation order under the bit-identity
                        CI diff. An intrinsics loop anywhere else is an
                        unreviewed parallel summation-order decision — the
                        same bug class raw-fp-accumulation catches, one
                        level down.
  prefix-loop           A BSP round's decode rule (take arrivals in
                        (time, worker) order, stop at the first decodable
                        prefix) lives once, in src/core/decoder's
                        first_decodable_prefix, for a whole round and for
                        the threaded master's growing list alike. A decode
                        probe primitive — solve_decoding_coefficients, a
                        .decoding_coefficients( call or quorum_met( —
                        anywhere in src/ outside the files that implement
                        them (the scheme files, core/decoder and
                        core/decoding_cache) is the start of another
                        gate-and-probe loop that can drift from it in tie
                        order or gating.
  unconsumed-public     No code without a consumer. Every public name a
                        src/ header declares (namespace-scope functions,
                        types and variables; public member functions and
                        fields) must be referenced by a non-test file —
                        anywhere under src/ (the header's own .cpp
                        included), apps/, bench/, examples/ or perfbench/ —
                        outside its own declaration and definition. A test
                        is not a consumer: a name only tests call is deleted
                        or moved into a tests/ header. Names are matched as
                        identifiers, so a name that collides with another
                        identifier in use reads as consumed. examples/ and
                        perfbench/ are read as consumers, never linted.

Suppressions: `// lint:allow(<rule>): <justification>` — trailing on the
offending line, or alone on the line above (then it covers the next line
only). The justification is mandatory; an allow naming an unknown rule or
suppressing nothing is itself an error, so stale suppressions cannot
accumulate. clang-tidy NOLINT markers are budgeted (NOLINT_BUDGET): each
needs the usual clang-tidy justification in review, and when the count
exceeds the budget the lint fails listing every site.

Usage:
  python3 tools/lint/hgc_lint.py              # lint src apps bench tests
  python3 tools/lint/hgc_lint.py --list-rules
  python3 tools/lint/hgc_lint.py path/to/file.cpp path/to/dir
Exit code 1 when any finding is reported, 0 on a clean tree.
"""

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

# Directories walked when no explicit paths are given, relative to --root.
DEFAULT_PATHS = ["src", "apps", "bench", "tests"]
# Roots whose C++ files count as consumers for unconsumed-public. They are
# read, never linted: examples/ and perfbench/ are not in DEFAULT_PATHS.
CONSUMER_ROOTS = ["src", "apps", "bench", "examples", "perfbench"]
CXX_EXTENSIONS = {".cpp", ".hpp", ".h", ".cc", ".hh"}

# Total NOLINT markers (NOLINT, NOLINTNEXTLINE, NOLINTBEGIN) tolerated
# across the tree before the lint fails. Raising this number is a reviewed
# change to this file, which is the point.
NOLINT_BUDGET = 8


@dataclass
class Rule:
    name: str
    description: str
    # Regexes matched against comment/string-stripped source lines.
    patterns: list = field(default_factory=list)
    # Path prefixes (POSIX, repo-relative) the rule applies to; empty =
    # everywhere under the linted paths.
    include: list = field(default_factory=list)
    # Per-rule allowlist: path prefixes exempt from this rule.
    exclude: list = field(default_factory=list)


RULES = {
    "unordered-iteration": Rule(
        name="unordered-iteration",
        description=(
            "iteration over std::unordered_map/unordered_set (hash order "
            "leaks into output); lookups are fine"
        ),
        # Detection is structural (declared names + iteration sites), not a
        # plain pattern — see _check_unordered_iteration.
    ),
    "nondeterministic-seed": Rule(
        name="nondeterministic-seed",
        description=(
            "entropy/wall-clock source outside src/obs/ "
            "(std::random_device, rand, srand, time(), chrono clocks)"
        ),
        patterns=[
            re.compile(r"std\s*::\s*random_device"),
            re.compile(r"\bsrand\s*\("),
            re.compile(r"\brand\s*\(\s*\)"),
            re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0|\))"),
            re.compile(r"\bclock\s*\(\s*\)"),
            re.compile(
                r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"
            ),
        ],
        exclude=["src/obs/"],
    ),
    "raw-fp-accumulation": Rule(
        name="raw-fp-accumulation",
        description=(
            "floating-point accumulation in a hot path not routed through "
            "the fixed summation orders of linalg/kernels (dense) or "
            "linalg/sparse (CSR rows)"
        ),
        patterns=[
            re.compile(r"std\s*::\s*accumulate\b"),
            re.compile(r"std\s*::\s*reduce\b"),
            # Multiply-accumulate on one line: the shape of an ad-hoc dot
            # product / norm / gemv inner loop.
            re.compile(r"\+=\s*[^;]*\*"),
        ],
        include=["src/core/", "src/exec/"],
    ),
    "raw-allocation": Rule(
        name="raw-allocation",
        description=(
            "naked new/malloc in kernel/workspace code (src/linalg/ is "
            "allocation-free on the hot path by contract)"
        ),
        patterns=[
            re.compile(r"\bnew\b"),
            re.compile(r"\bmalloc\s*\("),
            re.compile(r"\bcalloc\s*\("),
            re.compile(r"\brealloc\s*\("),
            # Aligned-allocation spellings a SIMD backend might reach for.
            re.compile(r"\baligned_alloc\s*\("),
            re.compile(r"\bposix_memalign\s*\("),
            re.compile(r"\b_mm_malloc\s*\("),
        ],
        include=["src/linalg/"],
    ),
    "intrinsics-outside-linalg": Rule(
        name="intrinsics-outside-linalg",
        description=(
            "vector intrinsics outside src/linalg/ (the kernel backends "
            "are the only reviewed home for SIMD; see kernels.hpp's "
            "summation-order contract)"
        ),
        patterns=[
            re.compile(r"#\s*include\s*<(?:immintrin|x86intrin|x86gprintrin"
                       r"|arm_neon|arm_sve)\.h>"),
            re.compile(r"\b_mm\d*_\w+\s*\("),
            re.compile(r"\bv(?:add|sub|mul|div|fma|fms|ld1|st1|dup|get|set|"
                       r"abs|neg|max|min)q?_(?:lane_)?f(?:32|64)\b"),
        ],
        exclude=["src/linalg/"],
    ),
    "prefix-loop": Rule(
        name="prefix-loop",
        description=(
            "decode probe outside the scheme, decoder and decoding-cache "
            "files (decode arrivals with first_decodable_prefix instead of "
            "another gate-and-probe loop)"
        ),
        patterns=[
            re.compile(r"\bsolve_decoding_coefficients\b"),
            re.compile(r"(?:\.|->)\s*decoding_coefficients\s*\("),
            re.compile(r"\bquorum_met\s*\("),
        ],
        include=["src/"],
        exclude=[
            "src/core/coding_scheme.",
            "src/core/naive.",
            "src/core/cyclic.",
            "src/core/fractional.",
            "src/core/heter_aware.",
            "src/core/group_based.",
            "src/core/decoder.",
            "src/core/decoding_cache.",
        ],
    ),
    "unconsumed-public": Rule(
        name="unconsumed-public",
        description=(
            "public name declared in a src/ header that no file under "
            "src/, apps/, bench/, examples/ or perfbench/ references outside "
            "its own declaration and definition (a test is not a consumer)"
        ),
        # Detection is tree-level (every consumer file is read), not a
        # per-line pattern — see _check_unconsumed_public.
        include=["src/"],
    ),
}


# Meta-rule names used in findings (not suppressible via lint:allow).
META_ALLOW = "lint-allow"
META_NOLINT = "nolint-budget"

_ALLOW_RE = re.compile(r"//\s*lint:allow\(([^)]*)\)(.*)$")
_UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}]*>\s*&?\s*(\w+)\s*[;{=(,)]"
)


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blank out comments, string and char literals, preserving newlines
    (and therefore line numbers). Handles //, /* */, "..." and '...' with
    escapes, and R"delim(...)delim" raw strings."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
        elif c == "R" and nxt == '"':
            close = text.find("(", i + 2)
            if close == -1:
                i += 1
                continue
            delim = text[i + 2:close]
            end = text.find(")" + delim + '"', close)
            end = n if end == -1 else end + len(delim) + 2
            for ch in text[i:end]:
                out.append("\n" if ch == "\n" else " ")
            i = end
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def parse_allows(raw_lines, findings, path):
    """Collect lint:allow suppressions.

    Returns {target_line (1-based): {rule_name: allow_line}}. Syntax errors
    (unknown rule, missing justification) are reported into `findings`.
    """
    allows = {}
    for lineno, line in enumerate(raw_lines, start=1):
        m = _ALLOW_RE.search(line)
        if not m:
            if "lint:allow" in line:
                findings.append(Finding(
                    path, lineno, META_ALLOW,
                    "malformed suppression; use "
                    "// lint:allow(<rule>): <justification>"))
            continue
        names = [p.strip() for p in m.group(1).split(",") if p.strip()]
        trailer = m.group(2)
        if not names:
            findings.append(Finding(
                path, lineno, META_ALLOW,
                "lint:allow() names no rule"))
            continue
        bad = [r for r in names if r not in RULES]
        if bad:
            known = ", ".join(sorted(RULES))
            findings.append(Finding(
                path, lineno, META_ALLOW,
                f"unknown rule '{bad[0]}' in lint:allow (known: {known})"))
            continue
        if not re.match(r"^\s*:\s*\S", trailer):
            findings.append(Finding(
                path, lineno, META_ALLOW,
                f"lint:allow({', '.join(names)}) is missing its "
                "': <justification>'"))
            continue
        # A comment-only allow line covers the next line; a trailing allow
        # covers its own line. Either way it covers exactly one line.
        before = line[: m.start()].strip()
        target = lineno + 1 if before == "" else lineno
        for rule_name in names:
            allows.setdefault(target, {})[rule_name] = lineno
    return allows


def rule_applies(rule, relpath):
    if rule.include and not any(relpath.startswith(p)
                                for p in rule.include):
        return False
    if any(relpath.startswith(p) for p in rule.exclude):
        return False
    return True


def _check_unordered_iteration(relpath, stripped_lines, stripped_text):
    """Yield (lineno, message) for iteration over unordered containers
    declared in this file. Membership/lookup use never fires."""
    names = set(_UNORDERED_DECL_RE.findall(stripped_text))
    if not names:
        return
    alternation = "|".join(re.escape(nm) for nm in sorted(names))
    range_for = re.compile(
        r"for\s*\([^;()]*:\s*[\w.\->]*\b(" + alternation + r")\s*\)")
    begin_end = re.compile(
        r"\b(" + alternation + r")\s*\.\s*c?(?:begin|end|rbegin|rend)\s*\(")
    for lineno, line in enumerate(stripped_lines, start=1):
        m = range_for.search(line) or begin_end.search(line)
        if m:
            yield lineno, (
                f"iterates unordered container '{m.group(1)}' "
                "(hash order is not deterministic across platforms); use an "
                "ordered container or sort the keys first")


# --- unconsumed-public -----------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_]\w*")
_ACCESS_RE = re.compile(r"\s*(public|private|protected)\s*:(?!:)")
_PREPROCESSOR_RE = re.compile(r"(?m)^[ \t]*#(?:[^\n]*\\\n)*[^\n]*")
_TYPE_HEAD_RE = re.compile(
    r"\s*(?:typedef\s+)?(struct|class|union|enum)\b(?:\s+(?:class|struct)\b)?"
    r"\s*(\w+)?")
# Words that can stand right before a declaration's first '(' without
# being the declared name.
_NOT_A_NAME = {"alignas", "decltype", "__attribute__"}


@dataclass
class _Scope:
    kind: str  # "namespace" or "class"
    public: bool
    name: str = ""


@dataclass
class _Decl:
    name: str
    pos: int  # offset of the name token
    start: int  # [start, end): the declaration and any definition body
    end: int
    public: bool
    checked: bool  # False for forward declarations and X::name definitions


def _match_close(text, i, opening, closing):
    """Offset just past the bracket matching the one at text[i]."""
    depth = 0
    for j in range(i, len(text)):
        if text[j] == opening:
            depth += 1
        elif text[j] == closing:
            depth -= 1
            if depth == 0:
                return j + 1
    return len(text)


def _blank_prefixes(seg):
    """Blank `template <...>` heads, `requires (...)` clauses and `[[...]]`
    attributes (same length, so offsets hold)."""
    out = list(seg)
    for m in re.finditer(r"\btemplate\s*<", seg):
        depth, j = 0, m.end() - 1
        while j < len(seg):
            depth += {"<": 1, ">": -1}.get(seg[j], 0)
            j += 1
            if depth == 0:
                break
        out[m.start():j] = " " * (j - m.start())
    for m in re.finditer(r"\brequires\s*\(", seg):
        j = _match_close(seg, m.end() - 1, "(", ")")
        out[m.start():j] = " " * (j - m.start())
    for m in re.finditer(r"\[\[.*?\]\]", seg, re.S):
        out[m.start():m.end()] = " " * (m.end() - m.start())
    return "".join(out)


def _top_level(seg, chars):
    """Offset of the first char of `chars` outside (), [] and <>, or -1.
    An '=' that is part of ==, !=, <= or >= does not count."""
    paren = angle = 0
    for j, ch in enumerate(seg):
        if ch in chars and paren == 0 and angle == 0 and not (
                ch == "=" and (seg[j - 1:j] in ("=", "!", "<", ">")
                               or seg[j + 1:j + 2] == "=")):
            return j
        if ch in "([":
            paren += 1
        elif ch in ")]":
            paren -= 1
        elif ch == "<" and paren == 0:
            angle += 1
        elif ch == ">" and paren == 0 and angle > 0:
            angle -= 1
    return -1


def _qualifier(lead):
    """The class X of a `X::name` declarator, given the text before name."""
    if not lead.endswith("::"):
        return ""
    q = list(_IDENT_RE.finditer(lead[:-2].rstrip()))
    return q[-1].group(0) if q else ""


def _is_public(scopes):
    return all(s.public for s in scopes if s.kind == "class")


def _declare(text, seg_start, head_end, span_end, scopes, decls):
    """Record what the declaration text[seg_start:head_end] declares; its
    span (declaration plus any body) ends at span_end."""
    seg = _blank_prefixes(text[seg_start:head_end])
    if re.match(r"\s*(?:friend|using\s+namespace|static_assert)\b", seg) \
            or re.search(r"\boperator\b", seg) or not seg.strip():
        return
    public = _is_public(scopes)
    enclosing = scopes[-1].name if scopes[-1].kind == "class" else ""

    def add(name_match, qualifier="", checked=True):
        name = name_match.group(0)
        if name in _NOT_A_NAME or name == enclosing:
            return  # constructors live in their class's span
        pos = seg_start + name_match.start()
        decls.append(_Decl(name, pos, seg_start, span_end, public,
                           checked and not qualifier))
        if qualifier:
            # An out-of-line member definition is part of its class's.
            decls.append(_Decl(qualifier, pos, seg_start, span_end, public,
                               False))

    alias = re.match(r"\s*using\s+(\w+)\s*=", seg)
    if alias:
        add(_IDENT_RE.search(seg, alias.start(1)))
        return
    if re.match(r"\s*using\b", seg):
        return
    head = _TYPE_HEAD_RE.match(seg)
    if head and head.group(2) and not re.search(r"[(=]", seg):
        # `struct X;` or `enum class X : int;` — a forward declaration.
        add(_IDENT_RE.search(seg, head.start(2)), checked=False)
        return
    cut = _top_level(seg, "=")
    body = seg if cut < 0 else seg[:cut]
    paren = _top_level(body, "(")
    pointer = re.match(r"\(\s*\*\s*(\w+)\s*\)\s*\(", body[paren:]) \
        if paren >= 0 else None
    if pointer:  # a function-pointer field: `R (*name)(args)`
        add(_IDENT_RE.search(body, paren + pointer.start(1)))
        return
    if paren >= 0:
        before = body[:paren].rstrip()
        names = list(_IDENT_RE.finditer(before))
        if not names or names[-1].end() != len(before):
            return  # `(*fn)(...)`, a cast, or no name
        name = names[-1]
        lead = before[:name.start()].rstrip()
        if not lead.endswith("~"):  # destructors live in their class's span
            add(name, _qualifier(lead))
        return
    body = re.sub(r"(?:\[[^\]]*\]|:\s*\d+)\s*$", "", body.rstrip()).rstrip()
    names = list(_IDENT_RE.finditer(body))
    if len(names) < 2 or names[-1].end() != len(body):
        return  # a lone word: a macro use or a trailing `} x` of a struct
    add(names[-1], _qualifier(body[:names[-1].start()].rstrip()))


def scan_declarations(stripped_text):
    """Declarations at namespace and class scope of comment/string-stripped
    C++ source, with their spans. Function and initializer bodies are
    skipped whole; preprocessor lines are ignored."""
    text = _PREPROCESSOR_RE.sub(
        lambda m: re.sub(r"[^\n]", " ", m.group(0)), stripped_text)
    decls = []
    scopes = [_Scope("namespace", True)]
    seg_start = i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "(":
            i = _match_close(text, i, "(", ")")
            continue
        if c == ":" and scopes[-1].kind == "class":
            m = _ACCESS_RE.match(text, seg_start)
            if m and m.end() == i + 1:
                scopes[-1].public = m.group(1) == "public"
                seg_start = i + 1
        elif c == ";":
            _declare(text, seg_start, i, i + 1, scopes, decls)
            seg_start = i + 1
        elif c == "{":
            close = _match_close(text, i, "{", "}")
            seg = _blank_prefixes(text[seg_start:i])
            head = _TYPE_HEAD_RE.match(seg)
            if re.match(r"\s*(?:inline\s+)?namespace\b|\s*extern\s*$", seg):
                scopes.append(_Scope("namespace", True))
                seg_start = i + 1
            elif head and (head.group(2) or head.group(1) != "enum"):
                # A type definition: its span is the whole body.
                if head.group(2):
                    decls.append(_Decl(
                        head.group(2), seg_start + head.start(2), seg_start,
                        close, _is_public(scopes), True))
                if head.group(1) == "enum":
                    i = seg_start = close
                    continue
                scopes.append(_Scope("class", head.group(1) != "class",
                                     head.group(2) or ""))
                seg_start = i + 1
            else:  # a function body or a braced initializer: skip it whole
                _declare(text, seg_start, i, close, scopes, decls)
                i = seg_start = close
                continue
        elif c == "}":
            if len(scopes) > 1:
                scopes.pop()
            seg_start = i + 1
        i += 1
    return decls


def _check_unconsumed_public(root, headers):
    """Yield (relpath, lineno, message) for each public name declared in one
    of `headers` (repo-relative src/ headers) that no consumer file
    references outside a declaration or definition of that name."""
    texts = {}
    for relpath in collect_files(root, CONSUMER_ROOTS):
        try:
            with open(os.path.join(root, relpath), encoding="utf-8",
                      errors="replace") as f:
                texts[relpath] = strip_comments_and_strings(f.read())
        except OSError:
            continue
    spans = {}  # name -> {relpath: [(start, end)]}
    declared = {}  # relpath -> [_Decl]
    for relpath, text in texts.items():
        decls = scan_declarations(text)
        declared[relpath] = decls
        for d in decls:
            spans.setdefault(d.name, {}).setdefault(relpath, []).append(
                (d.start, d.end))
    wanted = {d.name for h in headers for d in declared.get(h, [])
              if d.checked and d.public}
    consumed = set()
    for relpath, text in texts.items():
        for m in _IDENT_RE.finditer(text):
            name = m.group(0)
            if name in wanted and name not in consumed and not any(
                    start <= m.start() < end
                    for start, end in spans[name].get(relpath, ())):
                consumed.add(name)
    for relpath in headers:
        text = texts.get(relpath)
        for d in declared.get(relpath, []):
            if d.checked and d.public and d.name not in consumed:
                yield relpath, text.count("\n", 0, d.pos) + 1, (
                    f"'{d.name}' has no consumer outside tests/; delete it, "
                    "move it into tests/, or give it a caller")


def lint_file(root, relpath, findings, nolint_sites, tree_findings=()):
    """Lint one file. `tree_findings` holds (lineno, rule, message) found
    for this file by a tree-level rule; they go through the same
    suppressions as the per-file rules."""
    path = os.path.join(root, relpath)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as exc:
        findings.append(Finding(relpath, 0, "io", f"unreadable: {exc}"))
        return

    raw_lines = text.splitlines()
    stripped_text = strip_comments_and_strings(text)
    stripped_lines = stripped_text.splitlines()

    for lineno, line in enumerate(raw_lines, start=1):
        if "NOLINT" in line:
            nolint_sites.append(f"{relpath}:{lineno}")

    allows = parse_allows(raw_lines, findings, relpath)
    used = set()  # (target_line, rule_name) pairs that suppressed a finding

    def report(lineno, rule_name, message):
        if rule_name in allows.get(lineno, {}):
            used.add((lineno, rule_name))
            return
        findings.append(Finding(relpath, lineno, rule_name, message))

    for rule in RULES.values():
        if not rule_applies(rule, relpath):
            continue
        if rule.name == "unconsumed-public":
            continue  # tree-level: arrives in tree_findings
        if rule.name == "unordered-iteration":
            for lineno, message in _check_unordered_iteration(
                    relpath, stripped_lines, stripped_text):
                report(lineno, rule.name, message)
            continue
        for lineno, line in enumerate(stripped_lines, start=1):
            for pattern in rule.patterns:
                m = pattern.search(line)
                if m:
                    report(lineno, rule.name,
                           f"'{m.group(0).strip()}' — {rule.description}")
                    break  # one finding per rule per line

    for lineno, rule_name, message in tree_findings:
        report(lineno, rule_name, message)

    # A suppression that suppressed nothing is stale — fail it so allows
    # cannot outlive the code they were written for.
    for target, rules_here in sorted(allows.items()):
        for rule_name, allow_line in sorted(rules_here.items()):
            if (target, rule_name) not in used:
                findings.append(Finding(
                    relpath, allow_line, META_ALLOW,
                    f"lint:allow({rule_name}) suppresses nothing "
                    "(stale suppression — remove it)"))


def collect_files(root, paths):
    files = []
    for p in paths:
        abs_p = os.path.join(root, p)
        if os.path.isfile(abs_p):
            files.append(os.path.relpath(abs_p, root).replace(os.sep, "/"))
        elif os.path.isdir(abs_p):
            for dirpath, _dirnames, filenames in os.walk(abs_p):
                for fn in sorted(filenames):
                    if os.path.splitext(fn)[1] in CXX_EXTENSIONS:
                        rel = os.path.relpath(os.path.join(dirpath, fn),
                                              root)
                        files.append(rel.replace(os.sep, "/"))
    return sorted(set(files))


def main():
    parser = argparse.ArgumentParser(
        description="hgc determinism & safety lint")
    parser.add_argument("paths", nargs="*",
                        help=f"files/dirs to lint (default: "
                             f"{' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--root", default=None,
                        help="repository root (default: auto-detected from "
                             "this script's location)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULES.values():
            scope = ", ".join(rule.include) if rule.include else "tree-wide"
            exempt = f"; exempt: {', '.join(rule.exclude)}" \
                if rule.exclude else ""
            print(f"{rule.name}: {rule.description} [{scope}{exempt}]")
        print(f"{META_ALLOW}: suppression syntax/staleness (meta)")
        print(f"{META_NOLINT}: NOLINT markers budgeted at {NOLINT_BUDGET} "
              "tree-wide (meta)")
        return 0

    root = args.root or os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    paths = args.paths or [p for p in DEFAULT_PATHS
                           if os.path.isdir(os.path.join(root, p))]

    findings = []
    nolint_sites = []
    files = collect_files(root, paths)
    rule = RULES["unconsumed-public"]
    headers = [f for f in files
               if f.endswith(".hpp") and rule_applies(rule, f)]
    tree_findings = {}
    for relpath, lineno, message in _check_unconsumed_public(root, headers):
        tree_findings.setdefault(relpath, []).append(
            (lineno, rule.name, message))
    for relpath in files:
        lint_file(root, relpath, findings, nolint_sites,
                  tree_findings.get(relpath, ()))

    if len(nolint_sites) > NOLINT_BUDGET:
        listing = ", ".join(nolint_sites)
        findings.append(Finding(
            "<tree>", 0, META_NOLINT,
            f"{len(nolint_sites)} NOLINT markers exceed the budget of "
            f"{NOLINT_BUDGET}: {listing}"))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding)
    print(f"hgc_lint: {len(files)} files, {len(findings)} finding(s), "
          f"{len(nolint_sites)}/{NOLINT_BUDGET} NOLINT budget used")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
