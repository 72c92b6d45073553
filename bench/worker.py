"""One pass of one workload, in a fresh interpreter so that every cache starts empty.

    python3 bench/worker.py '{"workload": "lattice-sweep", "seed": 1, "trace": false, "small": false}'

Prints one JSON object: the items in the order run, each with its output
digest, paired-check verdict, status and latency, then the pass's wall time
and peak resident memory.  An untraced pass also gives its time in units of
a fixed reference work timed every quarter second of it (wall_ref).  With
"trace": true the public functions of every eislab module are wrapped first
(tracing.py) and the object also carries the per-layer metrics and the
stage table.  run.py is the only caller.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import importlib
import io
import json
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE_EVERY_S = 0.25  # CPU time between two timings of the reference work
DEADLINE_S = 2.0          # per lattice-sweep level; the slowest level below 2310 takes ~0.04 s
PROBE_LEVEL = 2310        # the lattice cap; its principal lattice does not finish today
STAGE_LEVELS = {
    "modsym-sweep": (70, 105, 110, 130),
    "lattice-sweep": (210, 1155),
}


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline


def import_eislab() -> dict:
    import eislab

    src = (ROOT / "src").resolve()
    if src not in Path(eislab.__file__).resolve().parents:
        raise SystemExit(f"eislab imported from {eislab.__file__}, not from {src}")
    return {name: importlib.import_module(f"eislab.{name}") for name in tracing.MODULES}


def peak_rss_mb() -> float:
    """Peak resident memory of this process since exec.

    Read from VmHWM: ru_maxrss would also count the parent's size at fork,
    which grows as run.py collects passes.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_item(mods: dict, via_cli: bool, kind: str, n: int, m: int) -> tuple[str, bool]:
    """Canonical output text of one item and whether its paired check held."""
    if via_cli:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = mods["cli"].main(workloads.argv(kind, n, m))
        except SystemExit as exc:
            code = exc.code
        return buf.getvalue(), code == 0
    if kind == "cusp-order":
        res = mods["cuspgroup"].order_with_oracle(n, m)
        text = (
            f"N={res.level} M={res.m} order={res.closed_form_order} h={res.h}"
            f" oracle={res.oracle_order} agreed={'yes' if res.agreed else 'no'}\n"
        )
        return text, res.agreed is True
    if kind == "compare":
        rep = mods["modsym"].compare_index_order(n, m)
        ok = rep.verdict != "violation"
    elif kind == "main-theorem":
        rep = mods["modsym"].verify_main_theorem(n)
        ok = rep.ok
    else:
        raise ValueError(f"no library route for {kind}")
    return json.dumps(dataclasses.asdict(rep), sort_keys=True), ok


def _reference_matrix(n: int = 48) -> list[list[int]]:
    """A fixed n x n matrix of small integers from a linear congruential stream."""
    x, rows = 12345, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2**31
            row.append(x % 199 - 99)
        rows.append(row)
    return rows


REFERENCE_MATRIX = _reference_matrix()


def _bareiss(matrix) -> int:
    """Determinant by fraction-free elimination; entries grow to ~380 bits."""
    a = [row[:] for row in matrix]
    prev = 1
    for k in range(len(a) - 1):
        if a[k][k] == 0:
            swap = next(i for i in range(k + 1, len(a)) if a[i][k])
            a[k], a[swap] = a[swap], a[k]
        pivot, row_k = a[k][k], a[k]
        for row_i in a[k + 1:]:
            factor = row_i[k]
            for j in range(k + 1, len(a)):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return a[-1][-1]


def reference_s() -> float:
    """Time of one elimination of REFERENCE_MATRIX, the unit of wall_ref.

    The same kind of work as eislab's normal forms (interpreter loops over
    lists of big integers) but none of its code, so a change to eislab
    leaves it alone while a change in the machine's speed moves both.
    """
    gc.disable()   # a collection here would scan the program's heap, not the reference's
    try:
        start = time.perf_counter()
        _bareiss(REFERENCE_MATRIX)
        return time.perf_counter() - start
    finally:
        gc.enable()


class Speedometer:
    """Times the reference work every REFERENCE_EVERY_S of CPU time while on.

    The timing runs in a SIGVTALRM handler, so it samples the machine's speed
    evenly through a pass, inside long calls too.  `paused` is the time spent
    in the handler, which the pass's wall time and latencies leave out.
    """

    def __init__(self):
        self.refs = []
        self.paused = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        try:
            self.refs.append(reference_s())
        finally:
            self.paused += time.perf_counter() - start

    def __enter__(self):
        self.refs.append(reference_s())
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        self.refs.append(reference_s())


SPEED = Speedometer()   # only on during untraced passes: a tick inside a span would count in it


def _level_runs(keys):
    """Consecutive runs of items that share a level."""
    start = 0
    for i in range(1, len(keys) + 1):
        if i == len(keys) or keys[i][1] != keys[start][1]:
            yield keys[start][1], keys[start:i]
            start = i


def run_level(mods, via_cli, keys, deadline, out) -> int:
    """Run one level's items, appending to out; return the items cut by the deadline."""
    done = 0
    try:
        if deadline:
            signal.setitimer(signal.ITIMER_REAL, deadline)
        for kind, n, m in keys:
            start, paused = time.perf_counter(), SPEED.paused
            try:
                text, ok = run_item(mods, via_cli, kind, n, m)
                status = "ok"
            except Deadline:
                raise
            except Exception as exc:  # a fault of the program is reported, not fatal
                text, ok, status = "", False, f"{type(exc).__name__}: {exc}"
            latency = (time.perf_counter() - start - (SPEED.paused - paused)) * 1000
            out.append(((kind, n, m), workloads.digest(text), ok, status, latency))
            done += 1
    except Deadline:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    for key in keys[done:]:
        out.append((key, "", False, "deadline", None))
    return len(keys) - done


def run_pass(cfg: dict) -> dict:
    workload = cfg["workload"]
    size = workloads.SMALL if cfg.get("small") else workloads.FULL
    keys = workloads.items(workload, cfg["seed"], size)
    mods = import_eislab()
    rec = None
    if cfg["trace"]:
        rec = tracing.Recorder()
        mods = tracing.instrument(rec)
    signal.signal(signal.SIGALRM, _on_alarm)
    via_cli = workload == "query-mix"
    deadline = DEADLINE_S if workload == "lattice-sweep" else 0
    stage_levels = STAGE_LEVELS.get(workload, ()) if rec else ()
    out, stages, misses = [], [], 0
    with contextlib.nullcontext() if rec else SPEED:
        start = time.perf_counter()
        for level, level_keys in _level_runs(keys):
            before = dict(rec.seconds) if level in stage_levels else None
            missed = run_level(mods, via_cli, level_keys, deadline, out)
            misses += missed
            if before is not None:
                stages.append({**tracing.stage_row(rec, level, before), "finished": not missed})
        wall = time.perf_counter() - start - SPEED.paused
    result = {
        "keys": [o[0] for o in out],
        "digests": [o[1] for o in out],
        "paired_ok": [o[2] for o in out],
        "status": [o[3] for o in out],
        "latency_ms": [o[4] for o in out if o[3] == "ok"],
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    if SPEED.refs:
        # work done is the integral of dt / (reference time at t); the ticks
        # sample the reference evenly in time, so that is wall over the
        # harmonic mean of the samples
        result["wall_ref"] = wall / statistics.harmonic_mean(SPEED.refs)
        result["reference_ms"] = 1000 * statistics.median(SPEED.refs)
    if rec is not None:
        layers = tracing.layer_metrics(rec, mods)
        if workload == "lattice-sweep":
            # N = 2310 runs after the pass and its metrics are taken, so it
            # counts in no metric but the misses and the stage table.
            probe = [("cusp-order", PROBE_LEVEL, m) for m in workloads.proper_divisors(PROBE_LEVEL)]
            before = dict(rec.seconds)
            missed = run_level(mods, False, probe, deadline, [])
            misses += missed
            stages.append({**tracing.stage_row(rec, PROBE_LEVEL, before), "finished": not missed})
        result["layers"] = {**layers, "lattice.deadline_misses": misses}
        result["stages"] = stages
    return result


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
