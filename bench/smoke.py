"""Smoke check of the benchmark itself: reduced sizes, then the gate must bite.

    python3 bench/smoke.py

Runs every workload at reduced size (workloads.SMALL), untraced and traced,
through the same worker and gate as run.py, and checks that each pass is
correct and that the traced one reports every per-layer metric.  Then it
tampers with a pass's outputs in three ways (a wrong digest, a failed paired
check, a dropped item) and checks that the gate rejects each, and that the
per-level deadline cut all 31 classes at N = 2310.  Takes about ten seconds.
"""

from __future__ import annotations

import copy
import json
import sys

import run
import workloads


def main() -> int:
    golden = workloads.load_golden()
    declared = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # filled in by run.py rather than by the worker
    declared -= {"query.reuse_share", "trace.wall_s", "trace.overhead_s"}
    failures = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    sample = None
    for workload in workloads.WORKLOADS:
        keys = workloads.items(workload, 7, workloads.SMALL)
        for traced in (False, True):
            cfg = {"workload": workload, "seed": 7, "trace": traced, "small": True}
            res = run.run_pass(cfg, timeout=120)
            problems = workloads.gate(keys, res, golden)
            expect(not problems, f"{workload} trace={int(traced)}: {len(keys)} items pass the gate {problems[:3]}")
            if traced:
                missing = declared - set(res["layers"])
                expect(not missing, f"{workload}: traced pass reports every per-layer metric {sorted(missing)}")
                if workload == "lattice-sweep":
                    expect(res["layers"]["lattice.deadline_misses"] == 31,
                           "lattice-sweep: the deadline cuts the 31 classes at N = 2310")
            elif workload == "lattice-sweep":
                sample = (keys, res)

    keys, res = sample
    tampered = copy.deepcopy(res)
    tampered["digests"][5] = "00000000"
    expect(bool(workloads.gate(keys, tampered, golden)), "gate rejects a wrong output digest")
    tampered = copy.deepcopy(res)
    tampered["paired_ok"][5] = False
    expect(bool(workloads.gate(keys, tampered, golden)), "gate rejects a failed paired check")
    tampered = copy.deepcopy(res)
    for field in ("keys", "digests", "paired_ok", "status"):
        del tampered[field][5]
    expect(bool(workloads.gate(keys, tampered, golden)), "gate rejects a dropped item")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
