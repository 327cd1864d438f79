#!/usr/bin/env python3
"""Docs consistency gate (CI: "Docs link check").

Two checks, both cheap and both about drift that review misses:

 1. Every relative markdown link in README.md, DESIGN.md, EXPERIMENTS.md
    and docs/*.md resolves to a file in the repo (anchors are checked
    against the target's headings).
 2. Every primitive registered in src/planp/primitives.cpp appears in
    docs/ASP_GUIDE.md's reference tables — adding a primitive without
    documenting it fails CI here, not in review.

Run from the repo root: python3 tools/check_docs.py
"""
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"]
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#+\s+(.*)$", re.M)


def anchor_of(heading):
    """GitHub-style anchor: lowercase, spaces to dashes, punctuation out."""
    a = heading.strip().lower()
    a = re.sub(r"[^\w\s§./-]", "", a, flags=re.UNICODE)
    a = re.sub(r"[\s./§]+", "-", a).strip("-")
    return re.sub(r"-+", "-", a)


def check_links():
    errors = []
    docs = list(DOC_FILES)
    docs_dir = os.path.join(ROOT, "docs")
    if os.path.isdir(docs_dir):
        docs += [os.path.join("docs", f) for f in sorted(os.listdir(docs_dir))
                 if f.endswith(".md")]
    for doc in docs:
        path = os.path.join(ROOT, doc)
        if not os.path.exists(path):
            continue
        text = open(path, encoding="utf-8").read()
        base = os.path.dirname(path)
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            file_part, _, frag = target.partition("#")
            tpath = os.path.normpath(os.path.join(base, file_part)) \
                if file_part else path
            if not os.path.exists(tpath):
                errors.append(f"{doc}: broken link -> {target}")
                continue
            if frag and tpath.endswith(".md"):
                headings = HEADING_RE.findall(open(tpath, encoding="utf-8").read())
                if frag not in {anchor_of(h) for h in headings}:
                    errors.append(f"{doc}: dead anchor -> {target}")
    return errors


def registered_primitives():
    src = open(os.path.join(ROOT, "src/planp/primitives.cpp"),
               encoding="utf-8").read()
    # add("name", ...), add_pure("name", ...), add_typed<&f>(add, "name", ...)
    # and add_typed_sig<&f>(add, "name", ...) all register one.
    return sorted(set(re.findall(
        r'\badd(?:_pure|_typed(?:_sig)?<[^>]*>)?\(\s*(?:add,\s*)?"(\w+)"', src)))


def check_primitives_table():
    guide_path = os.path.join(ROOT, "docs/ASP_GUIDE.md")
    if not os.path.exists(guide_path):
        return ["docs/ASP_GUIDE.md missing (primitives manual)"]
    guide = open(guide_path, encoding="utf-8").read()
    prims = registered_primitives()
    missing = [p for p in prims if f"`{p}(" not in guide and f" {p}(" not in guide]
    return [f"docs/ASP_GUIDE.md: primitive `{p}` registered in "
            "src/planp/primitives.cpp but not documented" for p in missing]


def main():
    errors = check_links() + check_primitives_table()
    for e in errors:
        print(f"FAIL: {e}", file=sys.stderr)
    n = len(registered_primitives())
    if not errors:
        print(f"docs OK: links resolve, all {n} primitives documented")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
