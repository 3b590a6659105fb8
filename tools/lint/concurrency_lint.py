#!/usr/bin/env python3
"""Concurrency-invariant linter for the rfv tree.

The Clang thread-safety analysis (src/common/sync.h) proves lock
discipline *for code that uses the annotated wrappers*.  This linter
closes the other half of the loop: it makes the wrappers the only way
to write concurrent code in this repository, so nothing can quietly
opt out of the analysis.

Rules (each with its slug, used in suppression comments):

  raw-sync        std::mutex / std::shared_mutex / std::timed_mutex /
                  std::recursive_mutex / std::condition_variable[_any] /
                  std::lock_guard / std::unique_lock / std::shared_lock /
                  std::scoped_lock anywhere outside src/common/sync.h.
  raw-thread      std::thread outside src/common/sync.h.
                  (std::this_thread is fine — sleeping is not
                  spawning.)
  manual-lock     .lock() / .unlock() / .try_lock() / .try_lock_for()
                  calls outside src/common/sync.h.  Critical sections
                  are scopes (MutexLock/ReaderLock/WriterLock); a
                  manual unlock is exactly the early-return leak the
                  RAII types exist to prevent.
  detached-thread .detach() anywhere.  A detached thread outlives every
                  shutdown guarantee stop()/drain() make.
  relaxed-comment every memory_order_relaxed must carry a
                  `// relaxed: <why>` justification on the same line or
                  in the comment block immediately above the statement.

Comments and string literals are stripped before the token rules run
(the relaxed-comment rule, by construction, reads the raw text).

Suppression: append `// rfv-lint: allow(<rule>)` to the offending line,
or put it on the line directly above.  Suppressions are deliberate
noise in review diffs — that is the point.

Usage:
  tools/lint/concurrency_lint.py [paths...]   (default: src tests
                                               examples bench)

Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

import os
import re
import sys

EXTENSIONS = (".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx")

# Paths are matched repo-relative with forward slashes.
SYNC_HEADER = "src/common/sync.h"
RAW_THREAD_ALLOWED = {SYNC_HEADER}

RAW_SYNC_RE = re.compile(
    r"std\s*::\s*("
    r"mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|"
    r"condition_variable(_any)?|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock"
    r")\b"
)
RAW_THREAD_RE = re.compile(r"std\s*::\s*thread\b")
# jthread would also be a raw thread; nobody should introduce it either.
RAW_JTHREAD_RE = re.compile(r"std\s*::\s*jthread\b")
MANUAL_LOCK_RE = re.compile(r"[.\->]\s*(try_lock(_for|_until)?|unlock|lock)\s*\(")
DETACH_RE = re.compile(r"[.\->]\s*detach\s*\(\s*\)")
RELAXED_RE = re.compile(r"memory_order_relaxed")
RELAXED_OK_RE = re.compile(r"//.*relaxed\s*:")
ALLOW_RE = re.compile(r"//\s*rfv-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# How far above a memory_order_relaxed site the justification comment
# may sit, provided every line in between is part of the same statement
# or comment block.
RELAXED_LOOKBACK = 8


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure so findings keep their line numbers."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
            out.append(c if c == "\n" else " ")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
            out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def allowed_rules(raw_lines, idx):
    """Rules suppressed for raw_lines[idx] (same line or line above)."""
    rules = set()
    for j in (idx, idx - 1):
        if 0 <= j < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[j])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def is_comment_line(line):
    s = line.strip()
    return s.startswith("//") or s.startswith("*") or s.startswith("/*")


def relaxed_justified(raw_lines, idx):
    """True when raw_lines[idx] (containing memory_order_relaxed) has a
    `// relaxed:` comment on the line or in the block above it."""
    if RELAXED_OK_RE.search(raw_lines[idx]):
        return True
    j = idx - 1
    steps = 0
    while j >= 0 and steps < RELAXED_LOOKBACK:
        line = raw_lines[j]
        if RELAXED_OK_RE.search(line):
            return True
        stripped = line.strip()
        cont = stripped and not stripped.endswith((";", "{", "}"))
        if (
            is_comment_line(line)
            or RELAXED_RE.search(line)
            or cont
        ):
            j -= 1
            steps += 1
            continue
        return False
    return False


def lint_file(path, rel):
    findings = []
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [(rel, 0, "io", str(e))]

    raw_lines = text.splitlines()
    code_lines = strip_comments_and_strings(text).splitlines()

    is_sync_header = rel == SYNC_HEADER

    for idx, code in enumerate(code_lines):
        raw = raw_lines[idx] if idx < len(raw_lines) else ""
        allow = allowed_rules(raw_lines, idx)
        lineno = idx + 1

        if not is_sync_header and "raw-sync" not in allow:
            m = RAW_SYNC_RE.search(code)
            if m:
                findings.append((
                    rel, lineno, "raw-sync",
                    "raw std::%s — use the capability-annotated types in "
                    "common/sync.h (Mutex/SharedMutex/CondVar/"
                    "MutexLock/ReaderLock/WriterLock)" % m.group(1),
                ))

        if rel not in RAW_THREAD_ALLOWED and "raw-thread" not in allow:
            if RAW_THREAD_RE.search(code) or RAW_JTHREAD_RE.search(code):
                findings.append((
                    rel, lineno, "raw-thread",
                    "raw std::thread — use rfv::Thread (join-on-destroy) "
                    "or a pool from common/thread_pool.h",
                ))

        if not is_sync_header and "manual-lock" not in allow:
            if MANUAL_LOCK_RE.search(code):
                findings.append((
                    rel, lineno, "manual-lock",
                    "manual lock()/unlock()/try_lock() call — critical "
                    "sections must be MutexLock/ReaderLock/WriterLock "
                    "scopes",
                ))

        if "detached-thread" not in allow and DETACH_RE.search(code):
            findings.append((
                rel, lineno, "detached-thread",
                "detached thread — nothing may outlive stop()/drain(); "
                "rfv::Thread deliberately has no detach()",
            ))

        if (
            "relaxed-comment" not in allow
            and RELAXED_RE.search(code)
            and not relaxed_justified(raw_lines, idx)
        ):
            findings.append((
                rel, lineno, "relaxed-comment",
                "memory_order_relaxed without a `// relaxed: <why>` "
                "justification on the statement or the comment block "
                "above it",
            ))

    return findings


def collect_files(paths, root):
    files = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(ap):
            files.append(ap)
        elif os.path.isdir(ap):
            for dirpath, dirnames, filenames in os.walk(ap):
                dirnames[:] = sorted(
                    d for d in dirnames if not d.startswith(".")
                )
                for fn in sorted(filenames):
                    if fn.endswith(EXTENSIONS):
                        files.append(os.path.join(dirpath, fn))
        else:
            print("concurrency_lint: no such path: %s" % p,
                  file=sys.stderr)
            sys.exit(2)
    return files


def main(argv):
    root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    paths = argv[1:] or ["src", "tests", "examples", "bench"]
    files = collect_files(paths, root)

    findings = []
    for ap in files:
        rel = os.path.relpath(ap, root).replace(os.sep, "/")
        findings.extend(lint_file(ap, rel))

    for rel, lineno, rule, msg in findings:
        print("%s:%d: [%s] %s" % (rel, lineno, rule, msg))

    if findings:
        print(
            "concurrency_lint: %d finding(s) in %d file(s) scanned"
            % (len(findings), len(files)),
            file=sys.stderr,
        )
        return 1
    print("concurrency_lint: %d file(s) clean" % len(files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
