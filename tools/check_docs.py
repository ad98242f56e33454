#!/usr/bin/env python3
"""Docs consistency gate.

Three checks, all cheap enough to run on every CI push:

1. Env-var coverage: every PSCA_* environment variable referenced as
   a string literal under src/, tools/, examples/ or bench/ must
   appear in OPERATIONS.md (the consolidated variable table), and
   every PSCA_* token OPERATIONS.md documents must still exist in the
   source. New knobs land together with their documentation, and the
   table can never go stale, or this exits non-zero.

2. Link integrity: every intra-repo markdown link ([text](target)
   where target is not a URL) in the repo's *.md files must resolve
   to an existing file or directory, anchors stripped.

3. Bench citations: every `bench_<name>` binary that README, DESIGN,
   EXPERIMENTS or OPERATIONS.md cites must be a target in
   bench/CMakeLists.txt, so a deleted bench cannot leave stale docs.
   File names such as bench_common.hh are not binaries and are
   skipped.

Usage: check_docs.py [--root REPO_ROOT]

Exits 1 with one line per violation; exits 0 when clean.
"""

import argparse
import pathlib
import re
import sys

# String literals like "PSCA_THREADS". A trailing underscore marks a
# prefix literal (env filtering code), not a variable name.
SOURCE_VAR_RE = re.compile(r'"(PSCA_[A-Z0-9]+(?:_[A-Z0-9]+)*)"')
DOC_VAR_RE = re.compile(r"\b(PSCA_[A-Z0-9_]+)\b")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)]+)\)")
# A bench binary, not a file name: no ".ext" right after it.
BENCH_CITE_RE = re.compile(r"\bbench_\w+\b(?!\.\w)")
BENCH_TARGET_RE = re.compile(r"(?:psca_bench|add_executable)\((\w+)")
BENCH_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
              "OPERATIONS.md"]

SOURCE_GLOBS = ["src/**/*.cc", "src/**/*.hh", "tools/*.cc",
                "tools/*.py", "examples/*.cpp", "bench/*.cc"]


def source_vars(root: pathlib.Path) -> set:
    found = set()
    for pattern in SOURCE_GLOBS:
        for path in root.glob(pattern):
            found.update(SOURCE_VAR_RE.findall(
                path.read_text(errors="replace")))
    return found


def check_env_vars(root: pathlib.Path) -> list:
    ops = root / "OPERATIONS.md"
    if not ops.exists():
        return ["OPERATIONS.md: missing (env-var table lives there)"]
    text = ops.read_text()
    documented = {v for v in DOC_VAR_RE.findall(text)
                  if not v.endswith("_")}
    in_source = source_vars(root)
    errors = []
    for var in sorted(in_source - documented):
        errors.append(f"OPERATIONS.md: {var} is referenced in the "
                      f"source but not documented")
    for var in sorted(documented - in_source):
        errors.append(f"OPERATIONS.md: {var} is documented but no "
                      f"longer referenced in the source")
    return errors


def check_links(root: pathlib.Path) -> list:
    errors = []
    for md in sorted(root.rglob("*.md")):
        if "build" in md.parts or ".git" in md.parts:
            continue
        for target in LINK_RE.findall(md.read_text(errors="replace")):
            target = target.split()[0]  # drop optional link titles
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure in-page anchor
                continue
            resolved = (md.parent / path).resolve()
            if not resolved.exists():
                rel = md.relative_to(root)
                errors.append(f"{rel}: broken link -> {target}")
    return errors


def check_bench_citations(root: pathlib.Path) -> list:
    cmake = root / "bench" / "CMakeLists.txt"
    targets = set(BENCH_TARGET_RE.findall(cmake.read_text()))
    errors = []
    for doc in BENCH_DOCS:
        path = root / doc
        if not path.exists():
            continue
        cited = set(BENCH_CITE_RE.findall(path.read_text()))
        for name in sorted(cited - targets):
            errors.append(f"{doc}: cites {name}, which is not a target "
                          f"in bench/CMakeLists.txt")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    args = ap.parse_args()
    root = pathlib.Path(args.root).resolve()

    errors = (check_env_vars(root) + check_links(root) +
              check_bench_citations(root))
    for line in errors:
        print(line)
    if errors:
        print(f"{len(errors)} docs violation(s)")
        return 1
    print(f"docs clean: {len(source_vars(root))} env vars documented, "
          f"all intra-repo links resolve, every cited bench is built")
    return 0


if __name__ == "__main__":
    sys.exit(main())
