#!/usr/bin/env python3
"""List the functions under src/ (outside src/tools/) that no test ran.

Reads gcov's JSON records on stdin, one document per line, and prints one
`file:line name` per function site that has no executed line in any
object file. A site compiled into several objects (inline or template code
in a header) counts as run when any copy ran. gcov's JSON carries the same
per-function counts as `gcov -f`, plus the source file of each function,
which the text summary leaves out.

Usage (from the repository root, after running the tests of a
`--coverage` build):
    find build-cov -name '*.gcda' -print0 |
      xargs -0 gcov --json-format --stdout |
      python3 scripts/never_run.py . > never_run.txt
"""
import json
import os
import sys


def main():
    root = os.path.realpath(sys.argv[1] if len(sys.argv) > 1 else ".")
    calls, names = {}, {}
    for line in sys.stdin:
        if not line.startswith("{"):
            continue
        doc = json.loads(line)
        cwd = doc.get("current_working_directory", "")
        for f in doc["files"]:
            rel = os.path.relpath(
                os.path.realpath(os.path.join(cwd, f["file"])), root)
            if not rel.startswith("src/") or rel.startswith("src/tools/"):
                continue
            for fn in f["functions"]:
                site = (rel, fn["start_line"], fn["start_column"])
                calls[site] = calls.get(site, 0) + fn["execution_count"]
                name = fn["demangled_name"]
                if site not in names or len(name) < len(names[site]):
                    names[site] = name
    for site in sorted(s for s, n in calls.items() if n == 0):
        print(f"{site[0]}:{site[1]} {names[site]}")


if __name__ == "__main__":
    main()
