#!/usr/bin/env python3
"""cat_lint: project-specific static analysis for the CAT codebase.

Encodes the invariant classes that past audits (PRs 4 and 5) found
violated by hand — each check corresponds to a defect class that actually
shipped once and is now statically undetectable-to-ship:

  convergence-loop   Bounded iteration loops (induction variable named
                     it/iter/...) must throw/record on exhaustion, or
                     carry `// cat-lint: converges-by-construction`.
                     (PR 5: pitot/enthalpy iterations silently stalling.)
  hot-path-alloc     Allocation-free translation units (the PR 2
                     chemistry/thermo/ODE hot path) must not contain
                     allocating constructs outside throw statements,
                     static/thread_local one-time init, or
                     `// cat-lint: allow-alloc(reason)` waivers.
  catch-all          `catch (...)` must rethrow or store the exception
                     (std::current_exception), or carry
                     `// cat-lint: catch-absorbs(reason)`.
  unit-suffix        Public double fields of Case/FlightCondition/*Options
                     structs in the physics layers must carry a unit
                     suffix (_K, _Pa, _m, _s, _rad, _mps, _J_per_kg, ...)
                     or `// cat-lint: dimensionless`.
  untrusted-input    (PR 10, the fuzzing tier's static complement.)
                     Raw numeric parsing (std::sto*/ato*/strto*) is an
                     error everywhere — untrusted text goes through the
                     bounded tools::try_parse_* / std::from_chars
                     primitives; `reinterpret_cast` is an error inside
                     the byte-level parsing TUs (one wrong offset from
                     type-punning attacker bytes); and an allocation
                     sized directly by a wire count
                     (`resize(read_u64(...))`-shaped) is an error — the
                     count must pass through BinaryReader::read_count or
                     an equivalent remaining-bytes check first. Waive a
                     vetted primitive with
                     `// cat-lint: untrusted-ok(reason)`.
  format             No trailing whitespace, leading tabs, CR line
                     endings, or missing final newline (fixable with
                     --fix-format).
  waiver             Unknown `cat-lint:` waiver tokens are themselves
                     errors, so a typo cannot silently disable a check.

Usage:
  cat_lint.py [--root DIR] [paths...]        lint the tree (default scope)
  cat_lint.py --check convergence-loop f.cpp lint one check on given files
  cat_lint.py --format-only [paths...]       only the format class
  cat_lint.py --fix-format [paths...]        apply format fixes in place
  cat_lint.py --alloc-free-tu f.cpp f.cpp    override the alloc-free TU set
  cat_lint.py --unit-suffix-file f.hpp ...   override the unit-suffix scope
  cat_lint.py --parsing-tu f.cpp ...         override the parsing-TU set
  cat_lint.py --list-checks

Exit status: 0 clean, 1 findings, 2 usage/config error.

Findings print as `path:line: [check] message` (compiler-style, so editors
and CI annotate them). The seeded-violation fixtures under
tests/lint_fixtures/ plus scripts/test_cat_lint.py prove every check both
fires on its violation and respects its waiver — the same
detectability-first discipline the verify catalog applies to order
defects.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

# --------------------------------------------------------------------------
# Project configuration
# --------------------------------------------------------------------------

DEFAULT_SCAN_DIRS = ["src", "tests", "tools", "examples", "bench", "fuzz"]
SOURCE_EXTENSIONS = (".cpp", ".hpp")
EXCLUDED_PARTS = ("lint_fixtures",)  # seeded violations live here

# PR 2's zero-allocation hot path: the runtime operator-new-counting tests
# (tests/test_workspace_alloc.cpp) prove these TUs allocation-free
# dynamically; this lint proves the property is visible statically.
DEFAULT_ALLOC_FREE_TUS = [
    "src/atmosphere/atmosphere.cpp",
    "src/chemistry/batch.cpp",
    "src/chemistry/mechanism.cpp",
    "src/chemistry/source.cpp",
    "src/chemistry/workspace.hpp",
    "src/gas/equilibrium.cpp",
    "src/gas/thermo.cpp",
    "src/gas/thermo_batch.cpp",
    "src/gas/two_temperature.cpp",
    "src/numerics/linalg.cpp",
    "src/numerics/ode.cpp",
    "src/numerics/tridiag_batch.cpp",
    "src/scenario/surrogate_query.cpp",
    "src/solvers/correlations/correlations.cpp",
    "src/solvers/relax1d/relax1d.cpp",
    "src/transport/transport.cpp",
]

# Physics-layer headers whose Case/FlightCondition/*Options structs carry
# dimensioned public fields. Numerics options (tolerances on caller-defined
# scales) are dimension-agnostic by design and stay out of scope.
DEFAULT_UNIT_SUFFIX_FILES = [
    "src/scenario/batch.hpp",
    "src/scenario/pulse.hpp",
    "src/scenario/runner.hpp",
    "src/scenario/scenario.hpp",
    "src/scenario/server.hpp",
    "src/scenario/surrogate.hpp",
    "src/solvers/bl/boundary_layer.hpp",
    "src/solvers/correlations/correlations.hpp",
    "src/solvers/euler/euler.hpp",
    "src/solvers/pns/pns.hpp",
    "src/solvers/relax1d/relax1d.hpp",
    "src/solvers/stagnation/stagnation.hpp",
    "src/solvers/vsl/vsl.hpp",
    "src/trajectory/trajectory.hpp",
]

# Byte-level parsing TUs on the untrusted-input surface (everything the
# PR 10 fuzz harnesses drive): reinterpret_cast is banned here — a raw
# type-pun over attacker bytes is exactly the construct the bounded
# readers exist to replace. The sto*/ato*/strto* and wire-count-allocation
# patterns apply to EVERY scanned file, not just this list.
DEFAULT_PARSING_TUS = [
    "src/io/binary.cpp",
    "src/io/binary.hpp",
    "src/io/csv.cpp",
    "src/scenario/protocol.cpp",
    "src/scenario/server.cpp",
    "src/scenario/surrogate.cpp",
    "tools/arg_parse.hpp",
    "tools/cat_serve.cpp",
]

# Explicit tier-0 struct names rather than `\w*Conditions`: the legacy
# solvers::StagnationConditions (in a listed file) predates the suffix
# convention and is grandfathered.
UNIT_SUFFIX_STRUCT_RE = re.compile(
    r"(?:Case|FlightCondition|\w*Options|CorrelationConditions|"
    r"EdgeEstimate|Surrogate(?:Domain|Meta|Answer))$")

UNIT_SUFFIXES = (
    "_K", "_Pa", "_m", "_m2", "_s", "_seconds", "_rad", "_mps",
    "_J_per_kg", "_W", "_W_m2", "_kg", "_kg_m3", "_N", "_Hz",
)

# Induction-variable names that, by project convention, mean "iteration
# budget": the loop bound is a safety net, not the loop's purpose. Plain
# element indices (i/j/k/s/row/step/...) are exempt — do not name a sweep
# variable `it` unless exhaustion needs handling.
ITER_VAR_NAMES = {"it", "its", "iter", "iters", "iteration", "newton"}

# How far past a convergence loop's closing brace a throw/guard may sit and
# still count as handling exhaustion.
POST_LOOP_THROW_WINDOW = 12

KNOWN_WAIVERS = {
    "converges-by-construction",
    "allow-alloc",
    "catch-absorbs",
    "dimensionless",
    "untrusted-ok",
}

WAIVER_RE = re.compile(r"cat-lint:\s*([A-Za-z-]+)\s*(?:\(([^)\n]*)\))?")

ALL_CHECKS = (
    "convergence-loop",
    "hot-path-alloc",
    "catch-all",
    "unit-suffix",
    "untrusted-input",
    "format",
    "waiver",
)
FORMAT_CHECKS = ("format",)


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    check: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


# --------------------------------------------------------------------------
# Lexing: strip comments and literals, keep comments per line for waivers
# --------------------------------------------------------------------------


def lex(text: str):
    """Split source into (code_lines, comment_lines).

    code_lines mirrors the input line structure with comments and
    string/char literal contents blanked out (literals keep their quotes so
    statement shapes survive); comment_lines[i] holds the comment text that
    appears on line i.
    """
    n = len(text)
    code = []
    comments = []
    cur_code = []
    cur_comment = []
    i = 0
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""

    def endline():
        code.append("".join(cur_code))
        comments.append("".join(cur_comment))
        cur_code.clear()
        cur_comment.clear()

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            endline()
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                if cur_code and cur_code[-1].endswith("R"):
                    m = re.match(r'R"([^()\\ ]*)\(', text[i - 1 : i + 20])
                    if m:
                        raw_delim = m.group(1)
                        state = "raw"
                        cur_code.append('"')
                        i += len(m.group(0)) - 1
                        continue
                state = "string"
                cur_code.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                cur_code.append("'")
                i += 1
                continue
            cur_code.append(c)
            i += 1
            continue
        if state == "line_comment":
            cur_comment.append(c)
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            cur_comment.append(c)
            i += 1
            continue
        if state == "string":
            if c == "\\":
                i += 2
                continue
            if c == '"':
                state = "code"
                cur_code.append('"')
                i += 1
                continue
            i += 1
            continue
        if state == "char":
            if c == "\\":
                i += 2
                continue
            if c == "'":
                state = "code"
                cur_code.append("'")
                i += 1
                continue
            i += 1
            continue
        if state == "raw":
            end = ')' + raw_delim + '"'
            if text.startswith(end, i):
                state = "code"
                cur_code.append('"')
                i += len(end)
                continue
            i += 1
            continue
    endline()
    return code, comments


def waivers_for_line(code, comments, idx):
    """Waiver tokens attached to code line idx: on the line itself or in
    the contiguous block of comment-only lines immediately above it (so a
    waiver justification may wrap over several comment lines)."""
    tokens = set()
    for m in WAIVER_RE.finditer(comments[idx] if idx < len(comments) else ""):
        tokens.add(m.group(1))
    j = idx - 1
    while j >= 0 and not code[j].strip() and comments[j].strip():
        for m in WAIVER_RE.finditer(comments[j]):
            tokens.add(m.group(1))
        j -= 1
    return tokens


def match_brace_span(code, start_line, start_col):
    """Given the position of a '{' in code lines, return (line, col) of the
    matching '}' or None."""
    depth = 0
    line = start_line
    col = start_col
    while line < len(code):
        s = code[line]
        while col < len(s):
            ch = s[col]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return line, col
            col += 1
        line += 1
        col = 0
    return None


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:int|long|short|unsigned(?:\s+\w+)?|std::size_t|size_t"
    r"|std::ptrdiff_t|auto)\s+(\w+)\s*="
)

THROW_OR_GUARD_RE = re.compile(
    r"\bthrow\b|\bCAT_REQUIRE\b|\brequire_failed\b|\bstd::abort\b"
)


def check_convergence_loops(path, code, comments, findings):
    for idx, line in enumerate(code):
        for m in FOR_RE.finditer(line):
            var = m.group(1)
            if var not in ITER_VAR_NAMES:
                continue
            if "converges-by-construction" in waivers_for_line(code, comments, idx):
                continue
            # Find the loop body after the for(...) header. FOR_RE consumed
            # the opening '(', so paren depth starts at 1; the body begins
            # at the first '{' (braced) or ends at the first ';' (single
            # statement) at depth 0.
            open_pos = None
            body_end = None  # last line of a single-statement body
            scan_line, scan_col = idx, m.end()
            pdepth = 1
            while scan_line < len(code) and open_pos is None \
                    and body_end is None:
                s = code[scan_line]
                while scan_col < len(s):
                    ch = s[scan_col]
                    if ch == "(":
                        pdepth += 1
                    elif ch == ")":
                        pdepth -= 1
                    elif ch == "{" and pdepth == 0:
                        open_pos = (scan_line, scan_col)
                        break
                    elif ch == ";" and pdepth == 0:
                        body_end = scan_line
                        break
                    scan_col += 1
                else:
                    scan_line += 1
                    scan_col = 0
                    continue
                break
            if open_pos is not None:
                close = match_brace_span(code, open_pos[0], open_pos[1])
                if close is None:
                    continue  # unbalanced braces: parsing gave up
                body_end = close[0]
                body = "\n".join(code[open_pos[0] : close[0] + 1])
            elif body_end is not None:
                body = "\n".join(code[idx : body_end + 1])
            else:
                continue  # header never closed: parsing gave up
            if THROW_OR_GUARD_RE.search(body):
                continue  # exhaustion (or in-loop stall) raises inside
            tail = "\n".join(
                code[body_end + 1 : body_end + 1 + POST_LOOP_THROW_WINDOW])
            if THROW_OR_GUARD_RE.search(tail):
                continue  # falls through into an explicit exhaustion guard
            findings.append(Finding(
                path, idx + 1, "convergence-loop",
                f"bounded iteration loop over '{var}' can exhaust its "
                "budget silently: throw/record within "
                f"{POST_LOOP_THROW_WINDOW} lines after the loop, or waive "
                "with `// cat-lint: converges-by-construction`"))


ALLOC_PATTERNS = (
    (re.compile(r"\bnew\b(?!\s*\()"), "new-expression"),
    (re.compile(r"\bnew\s*\("), "placement/new-expression"),
    (re.compile(
        r"\.\s*(push_back|emplace_back|resize|reserve|assign|insert|"
        r"emplace)\s*\("), "growing container call"),
    (re.compile(r"\bstd::make_(unique|shared)\b"), "heap factory"),
    (re.compile(r"\bstd::to_string\b"), "allocating string conversion"),
    (re.compile(
        r"\bstd::(vector|string|deque|list|map|unordered_map|function)\s*"
        r"<[^;&*]*>\s+\w+\s*[({=]"), "allocating object definition"),
    (re.compile(r"\bstd::string\s+\w+\s*[({=;]"), "std::string definition"),
)


def throw_spans(code):
    """Line indices covered by throw statements (throw ... ;) — the cold
    failure path is allowed to allocate (message formatting)."""
    covered = set()
    joined = [(i, s) for i, s in enumerate(code)]
    i = 0
    while i < len(joined):
        idx, s = joined[i]
        m = re.search(r"\bthrow\b", s)
        if not m:
            i += 1
            continue
        j = i
        while j < len(joined):
            covered.add(joined[j][0])
            if ";" in joined[j][1][m.end() if j == i else 0:]:
                break
            j += 1
        i = j + 1
    return covered


def alloc_waived_lines(code, comments):
    """Line indices covered by `allow-alloc` waivers.

    A waiver is block-scoped: if a brace block opens on the waiver's line
    (or within the next two lines — e.g. the waiver sits above a function
    signature), the waiver covers the whole block. Otherwise it covers its
    own line and the next. This keeps cold setup functions (constructors,
    workspace growth, convenience overloads) to one waiver each.
    """
    waived = set()
    for j, comment in enumerate(comments):
        if not any(m.group(1) == "allow-alloc"
                   for m in WAIVER_RE.finditer(comment)):
            continue
        # Skip the rest of the comment block, then look for the block's
        # opening '{' on the next few code lines (signatures may wrap).
        k = j
        while k + 1 < len(code) and not code[k].strip() \
                and comments[k].strip():
            k += 1
        block = False
        for kk in range(k, min(k + 4, len(code))):
            if "{" in code[kk]:
                close = match_brace_span(code, kk, code[kk].index("{"))
                if close is not None:
                    waived.update(range(j, close[0] + 1))
                    block = True
                break
        if not block:
            # No block opens here: the waiver covers the comment block and
            # the first code line after it (or its own line when trailing).
            waived.update(range(j, k + 2))
    return waived


def check_hot_path_alloc(path, code, comments, findings):
    cold = throw_spans(code)
    waived = alloc_waived_lines(code, comments)
    for idx, line in enumerate(code):
        if idx in cold or idx in waived:
            continue
        if re.search(r"\b(static|thread_local)\b", line):
            continue  # one-time init (legacy shim pattern) is cold
        for pat, what in ALLOC_PATTERNS:
            if pat.search(line):
                findings.append(Finding(
                    path, idx + 1, "hot-path-alloc",
                    f"{what} in an allocation-free TU; hoist into a "
                    "workspace, or waive a cold path with "
                    "`// cat-lint: allow-alloc(reason)`"))
                break


CATCH_ALL_RE = re.compile(r"\bcatch\s*\(\s*\.\.\.\s*\)")


def check_catch_all(path, code, comments, findings):
    for idx, line in enumerate(code):
        m = CATCH_ALL_RE.search(line)
        if not m:
            continue
        if "catch-absorbs" in waivers_for_line(code, comments, idx):
            continue
        # Find handler '{' then its span.
        open_pos = None
        scan_line, scan_col = idx, m.end()
        while scan_line < len(code) and open_pos is None:
            s = code[scan_line]
            while scan_col < len(s):
                if s[scan_col] == "{":
                    open_pos = (scan_line, scan_col)
                    break
                scan_col += 1
            else:
                scan_line += 1
                scan_col = 0
                continue
        if open_pos is None:
            continue
        close = match_brace_span(code, open_pos[0], open_pos[1])
        if close is None:
            continue
        body = "\n".join(code[open_pos[0] : close[0] + 1])
        if re.search(r"\bthrow\s*;", body) or "current_exception" in body:
            continue
        findings.append(Finding(
            path, idx + 1, "catch-all",
            "catch (...) neither rethrows nor stores "
            "std::current_exception(); swallowing unknown exceptions hides "
            "logic errors — rethrow, store, or waive with "
            "`// cat-lint: catch-absorbs(reason)`"))


STRUCT_RE = re.compile(r"\bstruct\s+(\w+)\s*(?::[^{;=]*)?\{")
DOUBLE_MEMBER_RE = re.compile(r"^\s*(?:const\s+)?(?:double|float)\s+(.*)$")
MEMBER_NAME_RE = re.compile(r"(\w+)\s*(?:=[^,;]*)?\s*(?:[,;]|$)")


def check_unit_suffix(path, code, comments, findings):
    for idx, line in enumerate(code):
        m = STRUCT_RE.search(line)
        if not m:
            continue
        if not UNIT_SUFFIX_STRUCT_RE.search(m.group(1)):
            continue
        open_col = line.index("{", m.start())
        close = match_brace_span(code, idx, open_col)
        if close is None:
            continue
        depth = 0
        for j in range(idx, close[0] + 1):
            s = code[j]
            start = open_col + 1 if j == idx else 0
            end = close[1] if j == close[0] else len(s)
            body_part = s[start:end] if (j == idx or j == close[0]) else s
            if depth == 0 and j > idx and j <= close[0]:
                dm = DOUBLE_MEMBER_RE.match(body_part)
                if dm and "(" not in dm.group(1).split("=")[0]:
                    if "dimensionless" not in waivers_for_line(code, comments, j):
                        for nm in MEMBER_NAME_RE.finditer(dm.group(1)):
                            name = nm.group(1)
                            if not name.endswith(UNIT_SUFFIXES):
                                findings.append(Finding(
                                    path, j + 1, "unit-suffix",
                                    f"field '{m.group(1)}::{name}' carries "
                                    "no unit suffix "
                                    f"({', '.join(UNIT_SUFFIXES[:6])}, ...)"
                                    "; rename it or waive with `// cat-lint:"
                                    " dimensionless`"))
            for ch in body_part:
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
        # depth bookkeeping above intentionally includes the struct's own
        # braces; members of nested structs are at depth != 0 when their
        # line starts and are skipped.


RAW_PARSE_RE = re.compile(
    r"\b(?:std::)?(?:sto(?:i|l|ll|ul|ull|f|d|ld)|ato(?:i|l|ll|f)|"
    r"strto(?:l|ll|ul|ull|f|d|ld|imax|umax))\s*\(")

REINTERPRET_RE = re.compile(r"\breinterpret_cast\s*<")

# An allocation or bulk read sized straight from a wire count on the same
# statement line: `resize(r.read_u64())` and friends. The validated path
# is BinaryReader::read_count(elem_bytes, max, what), which checks the
# count against the bytes remaining BEFORE anything is sized by it.
UNCHECKED_COUNT_RE = re.compile(
    r"\b(?:resize|reserve|push_back|assign|read_f64s|read_bytes)\s*"
    r"\([^;{}]*\bread_u(?:8|16|32|64)\s*\(")


def check_untrusted_input(path, code, comments, findings, is_parsing_tu):
    for idx, line in enumerate(code):
        if "untrusted-ok" in waivers_for_line(code, comments, idx):
            continue
        m = RAW_PARSE_RE.search(line)
        if m:
            findings.append(Finding(
                path, idx + 1, "untrusted-input",
                f"raw numeric parse '{m.group(0).rstrip('(').strip()}' "
                "(no full-consumption/range/finite contract): use "
                "tools::try_parse_* or std::from_chars with explicit "
                "checks, or waive a vetted primitive with "
                "`// cat-lint: untrusted-ok(reason)`"))
            continue
        m = UNCHECKED_COUNT_RE.search(line)
        if m:
            findings.append(Finding(
                path, idx + 1, "untrusted-input",
                "allocation sized directly by a wire count — a crafted "
                "record buys an arbitrary allocation; route the count "
                "through BinaryReader::read_count (remaining-bytes + cap "
                "check) first, or waive with "
                "`// cat-lint: untrusted-ok(reason)`"))
            continue
        if is_parsing_tu and REINTERPRET_RE.search(line):
            findings.append(Finding(
                path, idx + 1, "untrusted-input",
                "reinterpret_cast in a byte-level parsing TU: type-punning "
                "untrusted bytes bypasses the bounded readers — use the "
                "BinaryReader primitives (or std::memcpy into a checked "
                "buffer), or waive with `// cat-lint: untrusted-ok(reason)`"))


def check_format(path, raw_text, findings):
    lines = raw_text.split("\n")
    for idx, line in enumerate(lines):
        if line.endswith("\r") or "\r" in line:
            findings.append(Finding(
                path, idx + 1, "format", "carriage return (CRLF?) in line"))
        stripped = line.rstrip("\r")
        if stripped != stripped.rstrip():
            findings.append(Finding(
                path, idx + 1, "format", "trailing whitespace"))
        if re.match(r"^[ ]*\t", stripped):
            findings.append(Finding(
                path, idx + 1, "format", "tab in indentation (use spaces)"))
    if raw_text and not raw_text.endswith("\n"):
        findings.append(Finding(
            path, len(lines), "format", "missing newline at end of file"))


def fix_format(path, raw_text):
    lines = raw_text.split("\n")
    fixed = []
    for line in lines:
        line = line.rstrip("\r")
        line = re.sub(r"^([ ]*)\t+", lambda m: m.group(1) + "  ", line)
        fixed.append(line.rstrip())
    out = "\n".join(fixed)
    if out and not out.endswith("\n"):
        out += "\n"
    # collapse possible duplicate trailing newlines introduced above
    while out.endswith("\n\n"):
        out = out[:-1]
    if out != raw_text:
        with open(path, "w", encoding="utf-8") as f:
            f.write(out)
        return True
    return False


def check_waiver_tokens(path, comments, findings):
    for idx, comment in enumerate(comments):
        for m in WAIVER_RE.finditer(comment):
            if m.group(1) not in KNOWN_WAIVERS:
                findings.append(Finding(
                    path, idx + 1, "waiver",
                    f"unknown cat-lint waiver '{m.group(1)}' (known: "
                    f"{', '.join(sorted(KNOWN_WAIVERS))}) — a typo here "
                    "would silently disable a check"))


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def collect_files(root, paths):
    files = []
    if paths:
        for p in paths:
            ap = p if os.path.isabs(p) else os.path.join(root, p)
            if os.path.isdir(ap):
                for dirpath, _dirnames, filenames in os.walk(ap):
                    if any(part in dirpath for part in EXCLUDED_PARTS):
                        continue
                    for fn in sorted(filenames):
                        if fn.endswith(SOURCE_EXTENSIONS):
                            files.append(os.path.join(dirpath, fn))
            else:
                files.append(ap)
    else:
        for d in DEFAULT_SCAN_DIRS:
            files.extend(collect_files(root, [d]))
    return files


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("paths", nargs="*",
                    help="files or directories (default: project scope)")
    ap.add_argument("--root", default=None,
                    help="project root (default: parent of this script)")
    ap.add_argument("--check", action="append", default=None,
                    help="run only these checks (repeatable, comma-ok)")
    ap.add_argument("--format-only", action="store_true",
                    help="run only the format class")
    ap.add_argument("--fix-format", action="store_true",
                    help="apply format fixes in place")
    ap.add_argument("--alloc-free-tu", action="append", default=None,
                    help="override the allocation-free TU list")
    ap.add_argument("--unit-suffix-file", action="append", default=None,
                    help="override the unit-suffix file scope")
    ap.add_argument("--parsing-tu", action="append", default=None,
                    help="override the byte-level parsing TU set "
                         "(reinterpret_cast scope of untrusted-input)")
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checks:
        for c in ALL_CHECKS:
            print(c)
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    checks = list(ALL_CHECKS)
    if args.format_only:
        checks = list(FORMAT_CHECKS)
    elif args.check:
        checks = []
        for c in args.check:
            checks.extend(x.strip() for x in c.split(",") if x.strip())
        unknown = [c for c in checks if c not in ALL_CHECKS]
        if unknown:
            print(f"cat_lint: unknown check(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    def norm(p):
        return os.path.normpath(p if os.path.isabs(p)
                                else os.path.join(root, p))

    alloc_tus = {norm(p) for p in (args.alloc_free_tu
                                   if args.alloc_free_tu is not None
                                   else DEFAULT_ALLOC_FREE_TUS)}
    suffix_files = {norm(p) for p in (args.unit_suffix_file
                                      if args.unit_suffix_file is not None
                                      else DEFAULT_UNIT_SUFFIX_FILES)}
    parsing_tus = {norm(p) for p in (args.parsing_tu
                                     if args.parsing_tu is not None
                                     else DEFAULT_PARSING_TUS)}
    explicit_scope = (args.alloc_free_tu is not None or
                      args.unit_suffix_file is not None or
                      bool(args.paths))

    files = collect_files(root, args.paths)
    if not files:
        print("cat_lint: nothing to lint", file=sys.stderr)
        return 2

    findings = []
    n_fixed = 0
    for path in files:
        path = os.path.normpath(path)
        try:
            with open(path, encoding="utf-8") as f:
                raw = f.read()
        except (OSError, UnicodeDecodeError) as e:
            print(f"cat_lint: cannot read {path}: {e}", file=sys.stderr)
            return 2
        if args.fix_format:
            if fix_format(path, raw):
                print(f"fixed: {path}")
                n_fixed += 1
            continue
        rel = os.path.relpath(path, root)
        if "format" in checks:
            check_format(rel, raw, findings)
        needs_lex = any(c in checks for c in
                        ("convergence-loop", "hot-path-alloc", "catch-all",
                         "unit-suffix", "untrusted-input", "waiver"))
        if not needs_lex:
            continue
        code, comments = lex(raw)
        if "waiver" in checks:
            check_waiver_tokens(rel, comments, findings)
        if "convergence-loop" in checks:
            check_convergence_loops(rel, code, comments, findings)
        if "hot-path-alloc" in checks and path in alloc_tus:
            check_hot_path_alloc(rel, code, comments, findings)
        if "catch-all" in checks:
            check_catch_all(rel, code, comments, findings)
        if "untrusted-input" in checks:
            check_untrusted_input(rel, code, comments, findings,
                                  path in parsing_tus)
        if "unit-suffix" in checks and (path in suffix_files or
                                        (explicit_scope and
                                         path in {norm(p)
                                                  for p in args.paths or []}
                                         and path.endswith(".hpp"))):
            check_unit_suffix(rel, code, comments, findings)

    if args.fix_format:
        print(f"cat_lint: {n_fixed} file(s) rewritten")
        return 0

    for f in findings:
        print(f.render())
    if findings:
        counts = {}
        for f in findings:
            counts[f.check] = counts.get(f.check, 0) + 1
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        print(f"cat_lint: {len(findings)} finding(s) ({summary})",
              file=sys.stderr)
        return 1
    print(f"cat_lint: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
