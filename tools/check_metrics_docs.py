#!/usr/bin/env python3
"""Docs-drift lint: fail if the docs drift from the code they describe.

Four checks, each against a single source of truth in the tree:

  1. Metrics   — every "bursthist_*" name declared in the X-macro list
                 src/obs/metric_names.h appears in docs/OPERATIONS.md,
                 and OPERATIONS.md names no metric that is not declared.
  2. Subsystems — every directory under src/ appears (as "src/<name>")
                 in docs/ARCHITECTURE.md, and ARCHITECTURE.md names no
                 src/ directory that does not exist.
  3. CLI        — every wire verb parsed by src/server/wire.cc and
                 every bursthist_cli subcommand listed in its Usage()
                 appears in README.md.
  4. Headers    — every header under src/ is #included by a file under
                 src/, examples/, tools/, bench/ or perfbench/ other
                 than its own .cc (bench/ holds the paper's tables,
                 perfbench/ the benchmark), so a module that only its
                 tests reach fails, with or without a .cc. The few
                 headers that exist for tests are named in TEST_ONLY
                 with the reason each stays.

Run from anywhere:

    python3 tools/check_metrics_docs.py
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
METRICS_HEADER = REPO / "src" / "obs" / "metric_names.h"
OPERATIONS = REPO / "docs" / "OPERATIONS.md"
ARCHITECTURE = REPO / "docs" / "ARCHITECTURE.md"
README = REPO / "README.md"
WIRE_CC = REPO / "src" / "server" / "wire.cc"
CLI_MAIN = REPO / "examples" / "bursthist_cli.cpp"
SRC = REPO / "src"
# Where a header's users live (tests/ does not count: a header only
# tests include is a test-only wrapper).
INCLUDERS = [SRC, REPO / "examples", REPO / "tools", REPO / "bench",
             REPO / "perfbench"]
# Headers only tests include, each with the reason it stays.
TEST_ONLY = {
    "src/recovery/fault_env.h": "test seam: fault-injecting Env",
    "src/replication/flaky_transport.h": "test seam: lossy link",
    "src/sketch/count_min.h": "the reference the CM-PBE tests compare "
                              "against",
    "src/gen/message_gen.h": "the §II-A text-pipeline corpus",
}
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)

# Non-metric identifiers that legitimately appear in the runbook.
DOC_ALLOWLIST = {"bursthist_cli"}

failures = []


def fail(msg: str) -> None:
    failures.append(msg)
    print(msg, file=sys.stderr)


def declared_metrics(header_text: str) -> set:
    """Names from the BURSTHIST_METRIC_LIST X-macro declarations."""
    # Every declared name is a quoted string literal starting with
    # "bursthist_". Help strings never contain that prefix, so a plain
    # literal scan over the macro block is exact.
    macro = re.search(
        r"#define BURSTHIST_METRIC_LIST\(M\)(.*?)// clang-format on",
        header_text,
        re.S,
    )
    if macro is None:
        sys.exit(f"error: BURSTHIST_METRIC_LIST not found in {METRICS_HEADER}")
    return set(re.findall(r'"(bursthist_[a-z0-9_]+)"', macro.group(1)))


def check_metrics() -> None:
    declared = declared_metrics(METRICS_HEADER.read_text())
    doc_text = OPERATIONS.read_text()
    documented = (
        set(re.findall(r"\b(bursthist_[a-z0-9_]+)\b", doc_text)) - DOC_ALLOWLIST
    )
    if not declared:
        fail(f"error: no metrics declared in {METRICS_HEADER}")
        return
    for name in sorted(declared - documented):
        fail(f"UNDOCUMENTED: metric {name} is declared in "
             f"{METRICS_HEADER.name} but missing from {OPERATIONS.name}")
    for name in sorted(documented - declared):
        fail(f"STALE: metric {name} appears in {OPERATIONS.name} but is "
             f"not declared in {METRICS_HEADER.name}")
    if declared <= documented and documented <= declared:
        print(f"OK: {len(declared)} metrics declared, all documented, "
              f"no stale names.")


def check_subsystems() -> None:
    actual = {p.name for p in SRC.iterdir() if p.is_dir()}
    doc_text = ARCHITECTURE.read_text()
    mentioned = set(re.findall(r"\bsrc/([a-z0-9_]+)\b", doc_text))
    for name in sorted(actual - mentioned):
        fail(f"UNDOCUMENTED: subsystem src/{name} exists but is missing "
             f"from {ARCHITECTURE.name}")
    for name in sorted(mentioned - actual):
        fail(f"STALE: src/{name} appears in {ARCHITECTURE.name} but no "
             f"such directory exists")
    if actual <= mentioned and mentioned <= actual:
        print(f"OK: {len(actual)} src/ subsystems, all mapped in "
              f"{ARCHITECTURE.name}.")


def check_cli() -> None:
    readme = README.read_text()

    # Wire verbs: every string ParseRequest compares the verb token to.
    verbs = set(re.findall(r'verb == "([A-Z]+)"', WIRE_CC.read_text()))
    if not verbs:
        fail(f"error: no wire verbs found in {WIRE_CC}")
    for verb in sorted(verbs):
        if not re.search(rf"\b{verb}\b", readme):
            fail(f"UNDOCUMENTED: wire verb {verb} is parsed by "
                 f"{WIRE_CC.name} but never mentioned in {README.name}")

    # CLI subcommands: the first token after "bursthist_cli" on each
    # Usage() line.
    cli_text = CLI_MAIN.read_text()
    usage = re.search(r'"usage:\\n"(.*?)return 2;', cli_text, re.S)
    if usage is None:
        fail(f"error: Usage() block not found in {CLI_MAIN}")
        return
    commands = set(re.findall(r"bursthist_cli (\w[\w-]*)", usage.group(1)))
    for cmd in sorted(commands):
        if not re.search(rf"\b{re.escape(cmd)}\b", readme):
            fail(f"UNDOCUMENTED: bursthist_cli subcommand '{cmd}' is in "
                 f"Usage() but never mentioned in {README.name}")
    if not failures:
        print(f"OK: {len(verbs)} wire verbs and {len(commands)} CLI "
              f"subcommands all covered by {README.name}.")


def check_headers() -> None:
    included = set()
    for root in INCLUDERS:
        for path in root.rglob("*"):
            if path.suffix not in {".h", ".cc", ".cpp"}:
                continue
            for name in INCLUDE_RE.findall(path.read_text()):
                # Quoted includes resolve against src/ (the include
                # root) or the including file's own directory. A
                # header's own .cc does not vouch for it.
                for base in (SRC, path.parent):
                    target = (base / name).resolve()
                    if (target.is_file() and
                            target.with_suffix("") !=
                            path.resolve().with_suffix("")):
                        included.add(target)
    headers = sorted(SRC.rglob("*.h"))
    orphans = [h for h in headers if h.resolve() not in included and
               str(h.relative_to(REPO)) not in TEST_ONLY]
    for header in orphans:
        fail(f"TEST-ONLY: header {header.relative_to(REPO)} is not "
             f"#included by any file under src/, examples/, tools/, "
             f"bench/ or perfbench/ but its own .cc")
    for name in sorted(TEST_ONLY):
        if not (REPO / name).is_file():
            fail(f"STALE: {name} is named in TEST_ONLY but does not exist")
        elif (REPO / name).resolve() in included:
            fail(f"STALE: {name} is named in TEST_ONLY but has a user "
                 f"outside tests/")
    if not orphans:
        print(f"OK: {len(headers)} src/ headers, each included by "
              f"src/, examples/, tools/, bench/ or perfbench/, or named "
              f"in TEST_ONLY ({len(TEST_ONLY)}).")


def main() -> int:
    check_metrics()
    check_subsystems()
    check_cli()
    check_headers()
    if failures:
        print(f"\ndocs drift: {len(failures)} problem(s). Update the docs "
              f"and/or the code they describe.", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
