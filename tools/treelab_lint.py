#!/usr/bin/env python3
"""Project-invariant linter for treelab. Stdlib only — runs anywhere CI has
a Python 3, no pip.

These are repo-specific invariants that neither the compiler nor clang-tidy
can see:

  io-failpoint    every raw I/O call site in src/ (``::read``/``::write``/
                  ``::pread``/``::pwrite``/``::recv``/``::send``/``::open``
                  and direct ``std::[io]fstream`` construction) sits within
                  reach of a failpoint evaluation (``failpoint::check`` /
                  ``fp::check`` / ``TREELAB_FAILPOINT``) — the
                  fault-injection suite is only as honest as this coverage.
  msgtype-codec   every ``net::MsgType`` enum value has a codec branch in
                  src/net/frame.cpp and a case in tests/net_frame_test.cpp.
  metric-catalog  every metric name literal registered in src/ appears in
                  README.md's metric catalog (between the
                  ``<!-- metric-catalog:begin/end -->`` markers), and every
                  cataloged name still exists in src/.
  naked-new       no naked ``new`` / ``malloc`` in src/ — ownership goes
                  through make_unique/containers; a deliberate leak needs a
                  reason (see suppression below).
  nolint-reason   a NOLINT must name its check(s) and carry a reason:
                  ``// NOLINT(check-name): why this is fine``.
  atomic-shared-ptr
                  no ``std::atomic<std::shared_ptr<...>>`` in src/, spelled
                  out or through an alias the same file declares
                  (``using P = std::shared_ptr<...>`` / a typedef).
                  libstdc++ 12's load() unlocks relaxed, so TSan reports
                  its loads racing later stores; publish a shared_ptr under
                  the mutex its readers take instead.

Suppression: ``// lint: allow(<rule>): <reason>`` on the flagged line or up
to 3 lines above it. The reason is mandatory.

Usage:
  tools/treelab_lint.py [--root DIR]      lint the repo rooted at DIR (.)
  tools/treelab_lint.py --self-test       run every fixture mini-repo under
                                          tests/lint/fixtures/ and check the
                                          expected rules (expect.txt) fire

Exit status: 0 clean, 1 findings (or self-test mismatch), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

IO_CHECK_ABOVE = 40  # failpoint evaluation may sit this many lines before
IO_CHECK_BELOW = 10  # ... or after (check-then-recover idiom) the I/O call
ALLOW_ABOVE = 3      # allow(...) directive reach, in lines above the site

RULES = (
    "io-failpoint",
    "msgtype-codec",
    "metric-catalog",
    "naked-new",
    "nolint-reason",
    "atomic-shared-ptr",
)

ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([a-z-]+)\)\s*:\s*\S")
IO_CALL_RE = re.compile(
    r"(?<![\w:])::(?:read|write|pread|pwrite|recv|send|open)\s*\("
)
FSTREAM_RE = re.compile(r"\bstd::[io]?fstream\s+\w+\s*[({]")
FAILPOINT_RE = re.compile(r"failpoint::check|\bfp::check|TREELAB_FAILPOINT\b")
NAKED_RE = re.compile(r"\bnew\b|\bmalloc\s*\(")
NOLINT_OK_RE = re.compile(r"NOLINT(?:NEXTLINE|BEGIN|END)?\([^)]+\)\s*:\s*\S")
SHARED_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*std::shared_ptr\s*<"
    r"|\btypedef\s+std::shared_ptr\s*<[^;]*>\s*(\w+)\s*;"
)
METRIC_REG_RE = re.compile(
    r"\b(?:counter|gauge|histogram|set_callback|expose|stat)\s*\(\s*"
    r'"([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)"'
)
METRIC_LIT_RE = re.compile(r'"([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)"')
CATALOG_NAME_RE = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)`")
CATALOG_BEGIN = "<!-- metric-catalog:begin -->"
CATALOG_END = "<!-- metric-catalog:end -->"


class Finding:
    def __init__(self, path: str, line: int, rule: str, msg: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.msg = msg

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def strip_code(text: str, keep_strings: bool) -> str:
    """Blank out comments (and, unless keep_strings, string/char literals)
    with spaces, preserving line structure so line numbers survive."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(c if keep_strings else " ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c if keep_strings else " ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # str / chr
            quote = '"' if state == "str" else "'"
            if c == "\\" and nxt:
                out.append((c + nxt) if keep_strings else "  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c if keep_strings else " ")
            elif c == "\n":  # unterminated literal; resync rather than eat file
                state = "code"
                out.append(c)
            else:
                out.append(c if keep_strings else " ")
        i += 1
    return "".join(out)


def allow_map(raw_lines: list[str]) -> dict[int, set[str]]:
    """1-based line -> rules an allow(...) directive on that line names."""
    allows: dict[int, set[str]] = {}
    for idx, line in enumerate(raw_lines, start=1):
        for m in ALLOW_RE.finditer(line):
            allows.setdefault(idx, set()).add(m.group(1))
    return allows


def is_allowed(allows: dict[int, set[str]], rule: str, line: int) -> bool:
    for at in range(max(1, line - ALLOW_ABOVE), line + 1):
        if rule in allows.get(at, set()):
            return True
    return False


def source_files(root: str, sub: str = "src") -> list[str]:
    base = os.path.join(root, sub)
    found = []
    for dirpath, _dirs, names in os.walk(base):
        for name in sorted(names):
            if name.endswith((".cpp", ".hpp", ".h", ".cc")):
                found.append(os.path.join(dirpath, name))
    return sorted(found)


def rel(root: str, path: str) -> str:
    return os.path.relpath(path, root)


def lint_file(root: str, path: str, findings: list[Finding]) -> None:
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.splitlines()
    code_lines = strip_code(text, keep_strings=False).splitlines()
    allows = allow_map(raw_lines)
    rp = rel(root, path)

    # io-failpoint: raw I/O needs a failpoint evaluation within the window.
    for idx, line in enumerate(code_lines, start=1):
        hit = IO_CALL_RE.search(line) or FSTREAM_RE.search(line)
        if not hit:
            continue
        if is_allowed(allows, "io-failpoint", idx):
            continue
        lo = max(0, idx - 1 - IO_CHECK_ABOVE)
        hi = min(len(code_lines), idx + IO_CHECK_BELOW)
        window = "\n".join(code_lines[lo:hi])
        if not FAILPOINT_RE.search(window):
            findings.append(Finding(
                rp, idx, "io-failpoint",
                f"raw I/O `{hit.group(0).strip()}` with no failpoint "
                f"evaluation within {IO_CHECK_ABOVE} lines above / "
                f"{IO_CHECK_BELOW} below — fault injection cannot reach it",
            ))

    # naked-new: ownership must not start from a bare new/malloc.
    for idx, line in enumerate(code_lines, start=1):
        if line.lstrip().startswith("#"):
            continue  # preprocessor (e.g. `#include <new>`) is not a call
        m = NAKED_RE.search(line)
        if not m:
            continue
        if is_allowed(allows, "naked-new", idx):
            continue
        findings.append(Finding(
            rp, idx, "naked-new",
            f"naked `{m.group(0).strip()}` — use make_unique/containers, or "
            "justify a deliberate leak with a lint: allow directive",
        ))

    # atomic-shared-ptr: std::atomic over a shared_ptr, spelled out or
    # through an alias declared in this file (the one use it was written
    # for was `std::atomic<EntryPtr>`).
    code = "\n".join(code_lines)
    aliases = sorted({a or b for a, b in SHARED_ALIAS_RE.findall(code)})
    inner = r"std::shared_ptr\b"
    if aliases:
        inner += r"|(?:" + "|".join(map(re.escape, aliases)) + r")\s*>"
    for m in re.finditer(r"\bstd::atomic\s*<\s*(?:" + inner + ")", code):
        idx = code.count("\n", 0, m.start()) + 1
        if is_allowed(allows, "atomic-shared-ptr", idx):
            continue
        findings.append(Finding(
            rp, idx, "atomic-shared-ptr",
            f"`{' '.join(m.group(0).split())}...` — std::atomic over a "
            "shared_ptr; publish it under the mutex its readers take",
        ))

    # nolint-reason: NOLINT must name checks and say why (raw lines — the
    # marker itself lives in a comment).
    for idx, line in enumerate(raw_lines, start=1):
        if "NOLINT" not in line:
            continue
        if is_allowed(allows, "nolint-reason", idx):
            continue
        if not NOLINT_OK_RE.search(line):
            findings.append(Finding(
                rp, idx, "nolint-reason",
                "NOLINT without named check(s) and a reason — write "
                "`// NOLINT(check-name): why`",
            ))


def lint_msgtype(root: str, findings: list[Finding]) -> None:
    hpp = os.path.join(root, "src", "net", "frame.hpp")
    cpp = os.path.join(root, "src", "net", "frame.cpp")
    test = os.path.join(root, "tests", "net_frame_test.cpp")
    if not os.path.exists(hpp):
        return  # repo (or fixture mini-root) has no wire protocol
    with open(hpp, encoding="utf-8", errors="replace") as f:
        hpp_text = strip_code(f.read(), keep_strings=True)
    m = re.search(r"enum\s+class\s+MsgType[^{]*\{(.*?)\};", hpp_text, re.S)
    if not m:
        findings.append(Finding(
            rel(root, hpp), 1, "msgtype-codec",
            "could not locate `enum class MsgType { ... };`",
        ))
        return
    enum_line = hpp_text[: m.start()].count("\n") + 1
    values = re.findall(r"\b(k[A-Z]\w*)\b", m.group(1))
    if not values:
        return
    for where, label in ((cpp, "codec branch in src/net/frame.cpp"),
                         (test, "case in tests/net_frame_test.cpp")):
        try:
            with open(where, encoding="utf-8", errors="replace") as f:
                body = strip_code(f.read(), keep_strings=True)
        except OSError:
            findings.append(Finding(
                rel(root, hpp), enum_line, "msgtype-codec",
                f"MsgType is defined but {os.path.relpath(where, root)} "
                "is missing",
            ))
            continue
        for v in values:
            if not re.search(rf"MsgType::{v}\b", body):
                findings.append(Finding(
                    rel(root, hpp), enum_line, "msgtype-codec",
                    f"MsgType::{v} has no {label}",
                ))


def lint_metrics(root: str, findings: list[Finding]) -> None:
    registered: dict[str, tuple[str, int]] = {}  # name -> first site
    all_literals: set[str] = set()
    for path in source_files(root):
        with open(path, encoding="utf-8", errors="replace") as f:
            body = strip_code(f.read(), keep_strings=True)
        for idx, line in enumerate(body.splitlines(), start=1):
            for m in METRIC_REG_RE.finditer(line):
                registered.setdefault(m.group(1), (rel(root, path), idx))
            for m in METRIC_LIT_RE.finditer(line):
                all_literals.add(m.group(1))
    readme = os.path.join(root, "README.md")
    if not registered and not os.path.exists(readme):
        return
    if not os.path.exists(readme):
        findings.append(Finding(
            "README.md", 1, "metric-catalog",
            "metrics are registered in src/ but README.md does not exist",
        ))
        return
    with open(readme, encoding="utf-8", errors="replace") as f:
        doc_lines = f.read().splitlines()
    begin = end = None
    for idx, line in enumerate(doc_lines, start=1):
        if CATALOG_BEGIN in line and begin is None:
            begin = idx
        if CATALOG_END in line and end is None:
            end = idx
    if begin is None or end is None or end <= begin:
        if registered:
            findings.append(Finding(
                "README.md", 1, "metric-catalog",
                f"missing `{CATALOG_BEGIN}` / `{CATALOG_END}` markers "
                "around the metric catalog",
            ))
        return
    documented: dict[str, int] = {}
    for idx in range(begin, end - 1):
        for m in CATALOG_NAME_RE.finditer(doc_lines[idx]):
            documented.setdefault(m.group(1), idx + 1)
    for name, (path, line) in sorted(registered.items()):
        if name not in documented:
            findings.append(Finding(
                path, line, "metric-catalog",
                f"metric `{name}` is registered here but absent from "
                "README.md's metric catalog",
            ))
    for name, line in sorted(documented.items()):
        if name not in all_literals:
            findings.append(Finding(
                "README.md", line, "metric-catalog",
                f"cataloged metric `{name}` no longer exists as a literal "
                "in src/",
            ))


def lint_root(root: str) -> list[Finding]:
    findings: list[Finding] = []
    for path in source_files(root):
        lint_file(root, path, findings)
    lint_msgtype(root, findings)
    lint_metrics(root, findings)
    return findings


def self_test(fixtures: str) -> int:
    if not os.path.isdir(fixtures):
        print(f"treelab_lint: fixtures directory not found: {fixtures}",
              file=sys.stderr)
        return 2
    failures = 0
    cases = sorted(
        d for d in os.listdir(fixtures)
        if os.path.isdir(os.path.join(fixtures, d))
    )
    if not cases:
        print("treelab_lint: no fixture cases found", file=sys.stderr)
        return 2
    for case in cases:
        case_dir = os.path.join(fixtures, case)
        expect_path = os.path.join(case_dir, "expect.txt")
        try:
            with open(expect_path, encoding="utf-8") as f:
                wanted = {
                    w for w in (line.strip() for line in f)
                    if w and not w.startswith("#") and w != "clean"
                }
        except OSError:
            print(f"FAIL {case}: missing expect.txt")
            failures += 1
            continue
        unknown = wanted - set(RULES)
        if unknown:
            print(f"FAIL {case}: expect.txt names unknown rules {sorted(unknown)}")
            failures += 1
            continue
        got_findings = lint_root(case_dir)
        got = {f.rule for f in got_findings}
        if got == wanted:
            label = ", ".join(sorted(wanted)) if wanted else "clean"
            print(f"ok   {case}: {label}")
        else:
            failures += 1
            print(f"FAIL {case}: expected {sorted(wanted) or 'clean'}, "
                  f"got {sorted(got) or 'clean'}")
            for f in got_findings:
                print(f"     {f}")
    if failures:
        print(f"treelab_lint self-test: {failures}/{len(cases)} cases failed")
        return 1
    print(f"treelab_lint self-test: {len(cases)} cases ok")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="treelab_lint.py",
        description="treelab project-invariant linter (see module docstring)",
    )
    parser.add_argument("--root", default=None,
                        help="repo root to lint (default: the checkout "
                             "containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture mini-repos instead of linting")
    parser.add_argument("--fixtures", default=None,
                        help="fixture directory for --self-test "
                             "(default: <root>/tests/lint/fixtures)")
    args = parser.parse_args(argv)

    script_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = os.path.abspath(args.root) if args.root else script_root
    if args.self_test:
        fixtures = os.path.abspath(args.fixtures) if args.fixtures else \
            os.path.join(root, "tests", "lint", "fixtures")
        return self_test(fixtures)

    if not os.path.isdir(os.path.join(root, "src")):
        print(f"treelab_lint: no src/ under {root}", file=sys.stderr)
        return 2
    findings = lint_root(root)
    for f in findings:
        print(f)
    if findings:
        print(f"treelab_lint: {len(findings)} finding(s)")
        return 1
    print("treelab_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
