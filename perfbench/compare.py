#!/usr/bin/env python3
"""Compare two benchmark result files metric by metric.

Usage: python3 perfbench/compare.py BASE.json NEW.json

The files are the ones ``run.py`` writes under ``perfbench/out/``.
Results from different kernel backends, workloads or trace modes are
not comparable: the comparison is refused with exit code 2.
"""

from __future__ import annotations

import json
import sys

MUST_MATCH = ("backend", "workload", "trace")


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(open(path).read()) for path in argv)
    for key in MUST_MATCH:
        if base["meta"][key] != new["meta"][key]:
            print(f"refused: {key} differs ({base['meta'][key]!r} vs {new['meta'][key]!r})",
                  file=sys.stderr)
            return 2
    for key in ("git_revision", "source_sha256", "seed"):
        print(f"{key:12s} {base['meta'][key]} -> {new['meta'][key]}")
    section = "per_layer" if base["meta"]["trace"] else "end_to_end"
    for name, b in base[section].items():
        n = new[section].get(name)
        if n is None:
            print(f"{name:52s} {b['value']:14.6f} -> absent")
            continue
        change = f"{(n['value'] - b['value']) / b['value']:+.1%}" if b["value"] else "n/a"
        print(f"{name:52s} {b['value']:14.6f} -> {n['value']:14.6f} {b['unit']:6s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
