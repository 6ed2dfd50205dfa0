#!/usr/bin/env python3
"""Compare the functions an artifact run left at 0 % with COVERAGE.json.

usage: coverage.py COVERAGE.json FUNC.txt

FUNC.txt is the output of `go tool covdata func` (scripts/coverage.sh).
COVERAGE.json maps a file (relative to the repository root) to the
functions in it that no artifact reaches, each with its reason:

    {"internal/lsm/compaction.go": {"*DB.Audit": "item-20"}}

Names are covdata's: a method carries its receiver type ("*DB.Audit",
"Config.Validate"), but a generic type's method is named bare. The gate
fails on a function at 0 % that the file does not list, on a listed
function that is reached or gone, and on a reason outside the closed
set below.
"""

import json
import re
import sys

MODULE = "twobssd/"

# reporter:   runs only on a violation or an error
# tool:       bench2b digest / -benchgate / -benchjson / -cpuprofile /
#             -memprofile, or the benchmark's check / repeat / manifest
# trace:      reached only with -trace
# public-api: the public package's surface, until ROADMAP item 11 decides
# test-hook:  called by the tests of another package
# item-N:     an open ROADMAP item that will reach it
REASONS = {"reporter", "tool", "trace", "public-api", "test-hook"}
ITEM = re.compile(r"item-\d+$")


def unreached(func_txt):
    out = set()
    with open(func_txt) as f:
        for row in f:
            cols = row.split()
            if len(cols) != 3 or cols[2] != "0.0%" or not cols[0].startswith(MODULE):
                continue
            out.add((cols[0][len(MODULE):].split(":")[0], cols[1]))
    return out


def main(cov_json, func_txt):
    with open(cov_json) as f:
        listed = json.load(f)
    want = {(path, fn): why for path, fns in listed.items() for fn, why in fns.items()}
    got = unreached(func_txt)
    bad = sorted(k for k, why in want.items() if why not in REASONS and not ITEM.match(why))
    new = sorted(got - want.keys())
    stale = sorted(want.keys() - got)
    for path, fn in bad:
        print("%s: %s: reason %r is not one of %s or item-N" %
              (path, fn, want[(path, fn)], ", ".join(sorted(REASONS))))
    for path, fn in new:
        print("%s: %s: no artifact reaches it and COVERAGE.json does not list it" % (path, fn))
    for path, fn in stale:
        print("%s: %s: listed in COVERAGE.json but reached or gone" % (path, fn))
    print("%d functions at 0 %%, %d listed" % (len(got), len(want)))
    return 1 if bad or new or stale else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
