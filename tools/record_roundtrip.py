#!/usr/bin/env python3
"""Round-trips a trajectory record through Python's json module.

Loads RECORD, dumps it to OUT with the module's defaults (ensure_ascii:
every non-ASCII character becomes a \\uXXXX escape, surrogate pairs
beyond the BMP), then runs `BENCH_COMPARE RECORD OUT`. A record rewritten
by a standard JSON tool must stay readable by bench_compare and compare
equal to the original.

Usage: tools/record_roundtrip.py BENCH_COMPARE RECORD OUT
Exits with bench_compare's status (0 = no regression).
"""
import json
import subprocess
import sys


def main(argv):
    if len(argv) != 4:
        sys.stderr.write(__doc__)
        return 2
    compare, record, out = argv[1:]
    with open(record, encoding="utf-8") as f:
        data = json.load(f)
    with open(out, "w", encoding="ascii") as f:
        json.dump(data, f, indent=2)
    return subprocess.run([compare, record, out]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv))
