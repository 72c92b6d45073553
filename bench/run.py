"""The eislab benchmark: three seeded workloads, one client in a closed loop.

    python3 bench/run.py --workload modsym-sweep --seed 1 --seconds 40 --trace 0

Run from anywhere; it measures the checkout it sits in (src/ beside bench/).
Workloads (BENCHMARK.json says why each was chosen; the sweeps are fixed
sets and only the query stream depends on --seed):

  modsym-sweep   compare_index_order for every M != 1, then verify_main_theorem,
                 at every square-free level 7-70, then at 105, 110 and 130.
  lattice-sweep  order_with_oracle for every M != 1 at every square-free level
                 7-2309 (5,649 classes), each level under a 2 s deadline.
  query-mix      1000 seeded single queries through eislab.cli.main(argv),
                 200 of each kind.

Each pass runs the seed's items in a fresh interpreter (worker.py), so it
starts with empty caches; passes repeat the same items while they fit in
--seconds, and at least one runs.
Every pass goes through the output gate (workloads.gate): paired checks
plus a digest per item against golden.txt.

--trace 0 prints the end-to-end metrics.  wall_ref is the median pass time
in units of a fixed reference work (one elimination of a 48 x 48 integer
matrix, worker.reference_s) that a CPU-time timer runs every quarter second
of the pass: this shared machine's speed drifts by up to half over seconds
to minutes, which moves every raw time together, and the ratio cancels that
drift while a change to eislab moves it in full.  setup_s is the median
time of a fresh interpreter importing eislab.cli, which every command-line
call pays (sampled before and after the passes); peak_rss_mb the median
peak resident memory of a pass.  The summary line before the result gives
the raw pass times, the median reference time, the p50 and p95 latency of
one operation (a query, a class, a comparison or main-theorem check),
pooled over the passes, with the sample count, and the failure ratio, which
the result line carries as failed/attempted.  Neither the percentiles nor
the ratio is a metric: the percentiles scatter more from run to run than
any bound allows on a machine whose speed drifts, and the ratio is 0 when
nothing fails.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (medians), trace.overhead_s (median traced pass
time minus median untraced pass time), and a stage table in the shape of the
ROADMAP baseline.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A checkout without src/eislab makes it exit with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 8         # taken before the first pass and again after the last
RUN_BUDGET_S = 170        # every run ends within the 180 s the driver allows


class BenchError(Exception):
    """The benchmark could not measure: no program, or a worker that died."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def check_import() -> None:
    """Import eislab.cli once from this checkout; this also writes its bytecode."""
    check = subprocess.run(
        [sys.executable, "-c", "import eislab.cli; print(eislab.cli.__file__)"],
        capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=60,
    )
    src = (ROOT / "src").resolve()
    if check.returncode or src not in Path(check.stdout.strip() or "/").resolve().parents:
        raise BenchError(f"cannot import eislab from {src}: {check.stderr.strip()[-300:]}")


def measure_setup(count: int) -> list[float]:
    """Wall time of fresh interpreters importing eislab.cli."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import eislab.cli"],
            check=True, env=_child_env(), cwd=ROOT, timeout=60,
        )
        samples.append(time.perf_counter() - start)
    return samples


def run_pass(cfg: dict, timeout: float) -> dict:
    if timeout <= 0:
        raise BenchError("no time left for another pass")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)],
            capture_output=True, text=True, env=_child_env(), cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {cfg} did not end within {timeout:.0f} s") from None
    if proc.returncode:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def stage_table(stages: list[dict]) -> list[str]:
    lines = []
    for row in stages:
        if "psi" in row:
            lines.append(
                f"N={row['level']}: space {row['space_s']:.3f} s / ring {row['ring_s']:.3f} s"
                f" / index {row['index_s']:.3f} s  psi={row['psi']} genus={row['genus']}"
                f" bound={row['bound']}"
            )
        elif row["finished"]:
            lines.append(
                f"N={row['level']}: principal lattice {row['principal_s']:.4f} s"
                f" / oracle {row['oracle_s']:.4f} s  max entry bits={row['principal_bits']}"
            )
        else:
            lines.append(
                f"N={row['level']}: did not finish (principal lattice cut after"
                f" {row['principal_s']:.2f} s)"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (ROOT / "src" / "eislab" / "__init__.py").is_file():
        print(f"no eislab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = workloads.load_golden()
    modes = [False, True] if args.trace else [False]
    passes = {False: [], True: []}
    problems = []
    expected = workloads.items(args.workload, args.seed)
    try:
        check_import()
        setup = measure_setup(SETUP_SAMPLES)
        measure_start = time.perf_counter()
        while True:
            # every round runs the same items, untraced and then (with --trace 1) traced
            for traced in modes:
                cfg = {"workload": args.workload, "seed": args.seed, "trace": traced}
                res = run_pass(cfg, RUN_BUDGET_S - (time.perf_counter() - started))
                problems += workloads.gate(expected, res, golden)
                passes[traced].append(res)
            spent = time.perf_counter() - measure_start
            if spent + spent / len(passes[False]) > args.seconds:
                break
        setup += measure_setup(SETUP_SAMPLES)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    every = passes[False] + passes[True]
    attempted = sum(len(p["keys"]) for p in every)
    failed = sum(s != "ok" for p in every for s in p["status"])
    plain = passes[False]
    walls = [p["wall_s"] for p in plain]
    wall_refs = [p["wall_ref"] for p in plain]
    latencies = [x for p in plain for x in p["latency_ms"]]
    counts, reuse = workloads.query_profile(expected)
    want = workloads.run_digest(expected, [golden.get(key, "") for key in expected])
    got = sorted({workloads.run_digest(p["keys"], p["digests"]) for p in every})

    print(
        f"{args.workload} seed={args.seed}: {len(plain)} untraced + {len(passes[True])}"
        f" traced passes of {len(expected)} items; fail_ratio={failed}/{attempted};"
        f" pass walls {' '.join(f'{w:.3f}' for w in walls)} s, in reference units"
        f" {' '.join(f'{r:.1f}' for r in wall_refs)}, median reference"
        f" {statistics.median(p['reference_ms'] for p in plain):.2f} ms; latency over"
        f" {len(latencies)} operations: p50 {statistics.median(latencies):.4f} ms,"
        f" p95 {percentile(latencies, 95):.4f} ms"
    )
    print(f"run digest {'/'.join(got)} (golden {want})")
    if args.workload == "query-mix":
        kinds = " ".join(f"{kind}={n}" for kind, n in counts.items())
        print(f"query kinds: {kinds}; reuse share {reuse:.4f}")
    for problem in problems[:20]:
        print(f"GATE: {problem}")

    if not args.trace:
        values = {
            "wall_ref": statistics.median(wall_refs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    else:
        traced = passes[True]
        for line in stage_table(traced[0]["stages"]):
            print(line)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        values = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        values.update(
            {
                "query.reuse_share": reuse,
                "trace.wall_s": traced_wall,
                "trace.overhead_s": traced_wall - statistics.median(walls),
            }
        )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
