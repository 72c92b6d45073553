"""Span recorder that wraps eislab's public functions from outside src/.

`instrument()` replaces each public function of the six modules with a
wrapper that times the call as a span, and rebinds every name that refers
to it in every eislab module, because modules import one another's
functions by name.  Scalar helpers whose body is cheaper than a span (xgcd,
is_prime, sgn, ...) are left unwrapped.

Spans are aggregated as they close rather than kept: per group, busy time,
calls, and the time of direct callees in other modules (for self time).
Time is charged to a group (hermite_normal_form and hnf_with_transform are
both "exactnum.hnf") only by the outermost span of that group, so nested
calls are not counted twice.  Sizes are read from arguments and results.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("exactnum", "divlattice", "cuspgroup", "qseries", "modsym", "cli")
UNWRAPPED = {
    "exactnum": {"num", "xgcd", "is_prime", "phi_psi_omega"},
    "divlattice": {"divisor_from_int", "box_add", "sgn", "a_N"},
}
GROUPS = {
    "exactnum.hermite_normal_form": "exactnum.hnf",
    "exactnum.hnf_with_transform": "exactnum.hnf",
    "exactnum.smith_normal_form": "exactnum.snf",
    "exactnum.elementary_divisors": "exactnum.snf",
    "exactnum.IntMatrix.__mul__": "exactnum.matmul",
    "modsym.enumerate_eisenstein_maximal": "modsym.census",
}


def max_bits(matrix) -> int:
    return max((abs(x).bit_length() for row in matrix.data for x in row), default=0)


class Recorder:
    """Per-group busy time and call counts, plus the sizes the observers keep."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = Counter()
        self.lib_child = defaultdict(float)   # time of direct callees in other modules
        self.stack = []                        # [module, callee time in other modules]
        self.depth = Counter()
        self.sizes = defaultdict(int)          # counts and maxima
        self.index_steps = [0, 0]              # stabilization steps, of which unchanged
        self.per_level = defaultdict(dict)     # level -> sizes for the stage table

    def wrap(self, name: str, fn):
        group = GROUPS.get(name, name)
        module = name.split(".", 1)[0]
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def span(*args, **kwargs):
            self.depth[group] += 1
            frame = [module, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self.depth[group] -= 1
                if not self.depth[group]:
                    self.seconds[group] += elapsed
                self.calls[group] += 1
                self.lib_child[name] += frame[1]
                if self.stack and self.stack[-1][0] != module:
                    self.stack[-1][1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    # --- size observers, named after the span they read -------------------

    def _observe_exactnum_hermite_normal_form(self, args, result):
        self.sizes["hnf.rows_in"] += args[0].rows
        self.sizes["hnf.max_bits"] = max(
            self.sizes["hnf.max_bits"], max_bits(args[0]), max_bits(result)
        )

    def _observe_exactnum_hnf_with_transform(self, args, result):
        self._observe_exactnum_hermite_normal_form(args, result[0])

    def _observe_cuspgroup_principal_lattice_basis(self, args, result):
        bits = max_bits(result)
        self.sizes["principal.max_bits"] = max(self.sizes["principal.max_bits"], bits)
        self.per_level[int(args[0])]["principal_bits"] = bits

    def _observe_modsym_build_space(self, args, result):
        self.sizes["psi_max"] = max(self.sizes["psi_max"], len(result.symbols))
        self.sizes["genus_max"] = max(self.sizes["genus_max"], result.genus)

    def _observe_modsym_hecke_ring(self, args, result):
        self.sizes["bound_max"] = max(self.sizes["bound_max"], result.bound)
        self.per_level[result.space.level.value].update(
            psi=len(result.space.symbols), genus=result.genus, bound=result.bound
        )

    def _observe_modsym_eisenstein_index(self, args, result):
        if result.zero_ring:
            return
        self.sizes["index.generator_rows"] += len(result.generator_names) * args[0].bound
        self.sizes["index.extra_primes"] += len(result.stabilization) - 1
        indices = [t for _, t in result.stabilization]
        self.index_steps[0] += len(indices) - 1
        self.index_steps[1] += sum(a == b for a, b in zip(indices, indices[1:]))


def instrument(recorder: Recorder) -> dict:
    """Wrap the public functions of every module; return the eislab modules."""
    mods = {name: importlib.import_module(f"eislab.{name}") for name in MODULES}
    wrappers = {}
    for name, mod in mods.items():
        skip = UNWRAPPED.get(name, set())
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj) or hasattr(obj, "cache_info")
            ) and obj.__module__ == mod.__name__ and not attr.startswith("_") and attr not in skip:
                wrappers[id(obj)] = (obj, recorder.wrap(f"{name}.{attr}", obj))
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                setattr(mod, attr, wrappers[id(obj)][1])
    int_matrix = mods["exactnum"].IntMatrix
    int_matrix.__mul__ = recorder.wrap("exactnum.IntMatrix.__mul__", int_matrix.__mul__)
    return mods


def cache_hit_ratio(mod) -> float:
    """Hits over lookups across the module's lru caches; 0 when none were made."""
    hits = lookups = 0
    for obj in vars(mod).values():
        # a span wrapper keeps the lru-cached function in __wrapped__
        info = getattr(obj, "cache_info", None) or getattr(
            getattr(obj, "__wrapped__", None), "cache_info", None
        )
        if info is not None:
            stats = info()
            hits += stats.hits
            lookups += stats.hits + stats.misses
    return hits / lookups if lookups else 0.0


def layer_metrics(rec: Recorder, mods: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see BENCHMARK.json)."""
    s, c, z = rec.seconds, rec.calls, rec.sizes
    steps, settled = rec.index_steps
    return {
        "modsym.eisenstein_index.s": s["modsym.eisenstein_index"],
        "modsym.index.generator_rows": z["index.generator_rows"],
        "modsym.index.extra_primes": z["index.extra_primes"],
        "modsym.index.settled_share": settled / steps if steps else 0.0,
        "modsym.hecke_ring.s": s["modsym.hecke_ring"],
        "modsym.hecke_matrix.s": s["modsym.hecke_matrix"],
        "modsym.hecke_matrix.calls": c["modsym.hecke_matrix"],
        "modsym.build_space.s": s["modsym.build_space"],
        "modsym.build_space.calls": c["modsym.build_space"],
        "modsym.census.s": s["modsym.census"],
        "modsym.psi_max": z["psi_max"],
        "modsym.genus_max": z["genus_max"],
        "modsym.bound_max": z["bound_max"],
        "modsym.cache.hit_ratio": cache_hit_ratio(mods["modsym"]),
        "exactnum.hnf.s": s["exactnum.hnf"],
        "exactnum.hnf.calls": c["exactnum.hnf"],
        "exactnum.hnf.rows_in": z["hnf.rows_in"],
        "exactnum.hnf.max_bits": z["hnf.max_bits"],
        "exactnum.snf.s": s["exactnum.snf"],
        "exactnum.matmul.s": s["exactnum.matmul"],
        "exactnum.matmul.calls": c["exactnum.matmul"],
        "exactnum.hnf_coordinates.s": s["exactnum.hnf_coordinates"],
        "exactnum.rref.s": s["exactnum.rref"],
        "cuspgroup.principal_lattice_basis.s": s["cuspgroup.principal_lattice_basis"],
        "cuspgroup.principal_lattice_basis.max_bits": z["principal.max_bits"],
        "cuspgroup.order_lattice_oracle.s": s["cuspgroup.order_lattice_oracle"],
        "cuspgroup.order_closed_form.s": s["cuspgroup.order_closed_form"],
        "cuspgroup.cache.hit_ratio": cache_hit_ratio(mods["cuspgroup"]),
        "divlattice.build_tables.s": s["divlattice.build_tables"],
        "qseries.eisenstein_series.s": s["qseries.eisenstein_series"],
        "qseries.residues.s": s["qseries.residues"],
        "cli.main.s": s["cli.main"],
        "cli.main.self_s": s["cli.main"] - rec.lib_child["cli.main"],
        "cli.build_parser.s": s["cli.build_parser"],
    }


def stage_row(rec: Recorder, level: int, before: dict[str, float]) -> dict:
    """Seconds spent in each stage at one level, with its sizes."""
    after = rec.seconds

    def delta(group):
        return after.get(group, 0.0) - before.get(group, 0.0)

    row = {"level": level, **rec.per_level.get(level, {})}
    row.update(
        space_s=delta("modsym.build_space"),
        ring_s=delta("modsym.hecke_ring"),
        index_s=delta("modsym.eisenstein_index"),
        principal_s=delta("cuspgroup.principal_lattice_basis"),
        oracle_s=delta("cuspgroup.order_lattice_oracle") - delta("cuspgroup.principal_lattice_basis"),
    )
    return row
