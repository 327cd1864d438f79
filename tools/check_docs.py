#!/usr/bin/env python3
"""Docs consistency gate (CI: "Docs link check").

Three checks, all cheap and all about drift that review misses:

 1. Every relative markdown link in README.md, DESIGN.md, EXPERIMENTS.md
    and docs/*.md resolves to a file in the repo (anchors are checked
    against the target's headings).
 2. Every primitive registered in src/planp/primitives.cpp appears in
    docs/ASP_GUIDE.md's reference tables — adding a primitive without
    documenting it fails CI here, not in review.
 3. Every primitive those tables (ASP_GUIDE §6) name is registered, so a
    deleted or renamed primitive cannot stay documented.

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
    # add_typed<&f>(p, "name", ...) and add_typed_sig<&f>(p, "name", ...)
    # each register one; the template argument may nest (&transcode<&k>).
    return sorted(set(re.findall(
        r'\badd_typed(?:_sig)?<[^\n]*?>\(\s*\w+,\s*"(\w+)"', src)))


def documented_primitives(guide):
    """Names in the table rows of ASP_GUIDE §6 (`name(...)` in backticks)."""
    section = guide.split("## 6. Primitive reference", 1)[-1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return sorted(set(re.findall(r"`(\w+)\(", "\n".join(rows))))


def check_primitives_table():
    guide_path = os.path.join(ROOT, "docs/ASP_GUIDE.md")
    if not os.path.exists(guide_path):
        return ["docs/ASP_GUIDE.md missing (primitives manual)"]
    guide = open(guide_path, encoding="utf-8").read()
    prims = registered_primitives()
    documented = documented_primitives(guide)
    missing = [p for p in prims if p not in documented]
    stale = [p for p in documented if p not in prims]
    return ([f"docs/ASP_GUIDE.md: primitive `{p}` registered in "
             "src/planp/primitives.cpp but not documented" for p in missing] +
            [f"docs/ASP_GUIDE.md: primitive `{p}` documented in §6 but not "
             "registered in src/planp/primitives.cpp" for p in stale])


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
