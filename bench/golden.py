"""Regenerate golden.txt, the digests every benchmark pass is checked against.

    python3 bench/golden.py

Runs every item any seed can produce (workloads.golden_universe) once, in
one process, and refuses to write if any item fails its paired check.
cusp-order items go through the command line, so the text the lattice
sweep formats itself is held to the command's own output.  Regenerate only
when an output is meant to change; the outputs are otherwise byte-identical
from one commit to the next.
"""

from __future__ import annotations

import sys

import worker
import workloads


def main() -> int:
    mods = worker.import_eislab()
    entries = {}
    for kind, n, m in workloads.golden_universe():
        text, ok = worker.run_item(mods, kind not in ("compare", "main-theorem"), kind, n, m)
        if not ok:
            print(f"paired check failed for {kind} {n} {m}", file=sys.stderr)
            return 1
        entries[(kind, n, m)] = workloads.digest(text)
    workloads.GOLDEN_PATH.write_text(workloads.format_golden(entries), encoding="utf-8")
    print(f"wrote {len(entries)} digests to {workloads.GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
