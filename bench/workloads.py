"""Seeded inputs, golden outputs and the output gate of the eislab benchmark.

Nothing here imports eislab: the driver (run.py) uses this module to know
which items a pass must return and what each output must hash to, and the
worker (worker.py) uses it to know what to run.

An item is a triple (kind, level, m); m is 0 for the kinds that take only a
level.  The kinds are the five query commands of the command line
(cusp-order, eis, residues, hecke-index, maximal-ideals) plus the two
modular-symbol checks of the sweep (compare, main-theorem).  A lattice-sweep
item has kind cusp-order because its canonical output is the text line that
`eislab cusp-order --oracle` prints, so the sweep and the query stream share
golden entries.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

WORKLOADS = ("modsym-sweep", "lattice-sweep", "query-mix")
QUERY_KINDS = ("cusp-order", "eis", "residues", "hecke-index", "maximal-ideals")
MODSYM_KINDS = ("hecke-index", "maximal-ideals")

LOW_LEVEL = 7            # smallest level of the paper's hypothesis
MODSYM_BOUND = 70        # the modular-symbol cap of the command line
MODSYM_LARGE = (105, 110, 130)
LATTICE_BOUND = 2309     # every square-free level below the lattice cap 2310
QUERY_LATTICE_BOUND = 1155
QUERY_COUNT = 1000
EIS_PRECISION = 200

# Reduced sizes for the smoke check (smoke.py); same code paths, smaller sets.
SMALL = {
    "modsym_bound": 30,
    "modsym_large": (),
    "lattice_bound": 330,
    "query_count": 40,
    "query_modsym_bound": 30,
}
FULL = {
    "modsym_bound": MODSYM_BOUND,
    "modsym_large": MODSYM_LARGE,
    "lattice_bound": LATTICE_BOUND,
    "query_count": QUERY_COUNT,
    "query_modsym_bound": MODSYM_BOUND,
}

GOLDEN_PATH = Path(__file__).with_name("golden.txt")
DIGEST_CHARS = 8


def _primes_of(n: int) -> list[int] | None:
    """Prime factors of n, or None when n is not square-free."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return None
            out.append(p)
        p += 1
    if n > 1:
        out.append(n)
    return out


def squarefree_levels(bound: int, low: int = LOW_LEVEL) -> list[int]:
    return [n for n in range(low, bound + 1) if _primes_of(n) is not None]


def proper_divisors(n: int) -> list[int]:
    """Divisors of a square-free n other than 1, ascending."""
    ds = [1]
    for p in _primes_of(n):
        ds += [d * p for d in ds]
    return sorted(ds)[1:]


def _shuffled(rng: random.Random, xs) -> list:
    xs = list(xs)
    rng.shuffle(xs)
    return xs


def items(workload: str, seed: int, size: dict = FULL) -> list[tuple[str, int, int]]:
    """The items of one pass, in the order they are sent.

    The sweeps are fixed sets in ascending order, the same for every seed:
    their operations share caches (a level's space or lattice, Hecke data
    reused across levels), so a seeded order would move cost from one
    operation to another and the latency percentiles with it.  The query
    stream is drawn from the seed: an equal number of queries of each kind in
    a seeded order.  Each kind deals its (level, m) pool like a shuffled deck,
    reshuffled when it runs out, so inputs repeat but every one recurs about
    equally often and the set of cold builds barely moves from seed to seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = []
    if workload == "modsym-sweep":
        for n in squarefree_levels(size["modsym_bound"]) + list(size["modsym_large"]):
            out += [("compare", n, m) for m in proper_divisors(n)]
            out.append(("main-theorem", n, 0))
    elif workload == "lattice-sweep":
        for n in squarefree_levels(size["lattice_bound"]):
            out += [("cusp-order", n, m) for m in proper_divisors(n)]
    elif workload == "query-mix":
        decks = {}
        for kind in QUERY_KINDS:
            bound = size["query_modsym_bound"] if kind in MODSYM_KINDS else QUERY_LATTICE_BOUND
            levels = squarefree_levels(bound)
            pool = (
                [(n, 0) for n in levels] if kind == "maximal-ideals"
                else [(n, m) for n in levels for m in proper_divisors(n)]
            )
            decks[kind] = (pool, [])
        per_kind = size["query_count"] // len(QUERY_KINDS)
        for kind in _shuffled(rng, QUERY_KINDS * per_kind):
            pool, deck = decks[kind]
            if not deck:
                deck += _shuffled(rng, pool)
            out.append((kind, *deck.pop()))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def argv(kind: str, n: int, m: int) -> list[str]:
    """Command-line arguments of one query item."""
    if kind == "maximal-ideals":
        return [kind, "--level", str(n)]
    args = [kind, "--level", str(n), "--m", str(m)]
    if kind == "cusp-order":
        args.append("--oracle")
    elif kind == "eis":
        args += ["--prec", str(EIS_PRECISION), "--format", "json"]
    return args


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def run_digest(keys, digests) -> str:
    """Digest of a whole pass: item keys and output digests in stream order."""
    h = hashlib.sha256()
    for (kind, n, m), d in zip(keys, digests):
        h.update(f"{kind} {n} {m} {d}\n".encode())
    return h.hexdigest()[:16]


def query_profile(keys) -> tuple[dict[str, int], float]:
    """Per-kind counts and the share of items whose (kind, level) came earlier."""
    counts = {kind: 0 for kind in QUERY_KINDS}
    seen = set()
    reused = 0
    for kind, n, _ in keys:
        counts[kind] = counts.get(kind, 0) + 1
        reused += (kind, n) in seen
        seen.add((kind, n))
    return counts, (reused / len(keys) if keys else 0.0)


# ---------------------------------------------------------------------------
# golden outputs
#
# One line per (kind, level): the digests of the outputs for each m in
# proper_divisors order, or a single digest for the kinds without m.

def golden_universe() -> list[tuple[str, int, int]]:
    """Every item any seed can produce at full size."""
    out = []
    modsym_levels = squarefree_levels(MODSYM_BOUND) + list(MODSYM_LARGE)
    for n in modsym_levels:
        out += [("compare", n, m) for m in proper_divisors(n)]
        out.append(("main-theorem", n, 0))
    for n in squarefree_levels(LATTICE_BOUND):
        out += [("cusp-order", n, m) for m in proper_divisors(n)]
    for kind in ("eis", "residues"):
        for n in squarefree_levels(QUERY_LATTICE_BOUND):
            out += [(kind, n, m) for m in proper_divisors(n)]
    for n in squarefree_levels(MODSYM_BOUND):
        out += [("hecke-index", n, m) for m in proper_divisors(n)]
        out.append(("maximal-ideals", n, 0))
    return out


def format_golden(entries: dict[tuple[str, int, int], str]) -> str:
    lines = {}
    for (kind, n, m), d in entries.items():
        lines.setdefault((kind, n), []).append((m, d))
    out = []
    for (kind, n), pairs in sorted(lines.items()):
        out.append(" ".join([kind, str(n)] + [d for _, d in sorted(pairs)]))
    return "\n".join(out) + "\n"


def load_golden(path: Path = GOLDEN_PATH) -> dict[tuple[str, int, int], str]:
    golden = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        kind, n, *ds = line.split()
        n = int(n)
        ms = [0] if kind in ("main-theorem", "maximal-ideals") else proper_divisors(n)
        if len(ms) != len(ds):
            raise ValueError(f"golden line for {kind} {n} has {len(ds)} digests")
        golden.update({(kind, n, m): d for m, d in zip(ms, ds)})
    return golden


def gate(expected_keys, result: dict, golden: dict) -> list[str]:
    """Problems with one pass's outputs; an empty list means the pass is correct.

    Every item must come back in order.  An item that ran must pass its own
    paired check (oracle agreed, verdict not a violation, main theorem ok,
    exit code 0) and hash to its golden digest.  An item that raised is an
    error; an item cut by the per-level deadline is only a failed operation.
    """
    problems = []
    keys = [tuple(k) for k in result["keys"]]
    if keys != [tuple(k) for k in expected_keys]:
        return [f"returned {len(keys)} items, expected {len(expected_keys)} in seeded order"]
    for key, d, ok, status in zip(keys, result["digests"], result["paired_ok"], result["status"]):
        if status == "deadline":
            continue
        if status != "ok":
            problems.append(f"{key}: {status}")
        elif not ok:
            problems.append(f"{key}: paired check failed")
        elif golden.get(key) != d:
            problems.append(f"{key}: output digest {d} != golden {golden.get(key)}")
    return problems
