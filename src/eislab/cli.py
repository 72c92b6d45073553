"""Command-line front end.

Single queries (orders, series, residues, indices, ideal censuses), the
bulk order table, and the verification suites, rendered as text, JSON,
or CSV.  Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

# eislab.modsym is imported inside the commands and suites that use it, so
# the lattice and series commands do not pay for loading it.
from eislab.cuspgroup import order_closed_form, order_with_oracle
from eislab.divlattice import DivisorTable, SquareFreeLevel
from eislab.qseries import (
    eigenform_violations,
    eisenstein_series,
    level_lowering_identity_check,
    residues,
)

LATTICE_CAP = 2310
MODSYM_CAP = 70
PREC_CAP = 10**5  # eis builds a list of --prec coefficients

SUITES = (
    "lattice-oracle",
    "eigenform",
    "qidentity",
    "index-vs-order",
    "nonmaximal",
    "main-theorem",
)
_SUITE_DEFAULT_BOUND = {
    "lattice-oracle": 210,
    "eigenform": 100,
    "qidentity": 100,
    "index-vs-order": 70,
    "nonmaximal": 70,
    "main-theorem": 70,
}
_SUITE_CAP = {
    "lattice-oracle": LATTICE_CAP,
    "eigenform": LATTICE_CAP,
    "qidentity": LATTICE_CAP,
    "index-vs-order": MODSYM_CAP,
    "nonmaximal": MODSYM_CAP,
    "main-theorem": MODSYM_CAP,
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    level: int | None = None
    m: int | None = None
    precision: int = 24
    fmt: str = "text"
    suite: str | None = None
    max_level: int | None = None
    output: str | None = None
    oracle: bool = False


def _squarefree_levels(bound: int, low: int = 7) -> list[SquareFreeLevel]:
    out = []
    for n in range(low, bound + 1):
        try:
            out.append(SquareFreeLevel(n))
        except ValueError:
            continue
    return out


def _proper_divisors(level: SquareFreeLevel) -> list[int]:
    # canonical table order, with the excluded divisor 1 dropped
    return [d.value for d in DivisorTable(level).divisors if d.value != 1]


def _check_bound(bound: int, static_cap: int, what: str, flag: str = "--max-level") -> None:
    if bound < 1:
        raise ValueError(f"{flag} must be positive")
    cap = static_cap
    raised = False
    env = os.environ.get("EISLAB_MAX_LEVEL")
    if env is not None:
        try:
            cap = max(cap, int(env))
        except ValueError:
            raise ValueError("EISLAB_MAX_LEVEL must be an integer") from None
        raised = cap > static_cap
    if bound > cap:
        hint = "" if raised else " (set EISLAB_MAX_LEVEL to raise it)"
        raise ValueError(f"{flag} {bound} exceeds the {what} cap {cap}{hint}")
    if bound > static_cap:
        print(
            f"warning: {what} cap raised to {bound} via EISLAB_MAX_LEVEL;"
            " runtimes grow quickly",
            file=sys.stderr,
        )


def _emit(cfg: RunConfig, data, text_lines, csv_table) -> None:
    if cfg.fmt == "json":
        out = json.dumps(data, indent=2, sort_keys=True) + "\n"
    elif cfg.fmt == "csv":
        if csv_table is None:
            raise ValueError(f"csv output is not available for {cfg.command}")
        header, rows = csv_table
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        out = buf.getvalue()
    else:
        out = "\n".join(text_lines) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


# ---------------------------------------------------------------------------
# single-query commands

def _cmd_cusp_order(cfg: RunConfig) -> int:
    if cfg.oracle:
        _check_bound(cfg.level, LATTICE_CAP, "lattice", "--level")
    res = (
        order_with_oracle(cfg.level, cfg.m)
        if cfg.oracle
        else order_closed_form(cfg.level, cfg.m)
    )
    data = {
        "level": res.level,
        "m": res.m,
        "order": res.closed_form_order,
        "h": res.h,
    }
    line = f"N={res.level} M={res.m} order={res.closed_form_order} h={res.h}"
    header = ["N", "M", "order", "h"]
    row = [res.level, res.m, res.closed_form_order, res.h]
    if cfg.oracle:
        data["oracle_order"] = res.oracle_order
        data["agreed"] = res.agreed
        line += f" oracle={res.oracle_order} agreed={'yes' if res.agreed else 'no'}"
        header.append("oracle_order")
        row.append(res.oracle_order)
    _emit(cfg, data, [line], (header, [row]))
    return 0 if (res.agreed is not False) else 1


def _cmd_table(cfg: RunConfig) -> int:
    _check_bound(cfg.max_level, LATTICE_CAP, "order-table")
    rows = []
    for level in _squarefree_levels(cfg.max_level):
        for m in _proper_divisors(level):
            res = order_closed_form(level, m)
            rows.append((res.level, res.m, res.closed_form_order, res.h))
    data = [
        {"level": n, "m": m, "order": order, "h": h} for n, m, order, h in rows
    ]
    text = ["N M order h"] + [" ".join(str(x) for x in row) for row in rows]
    _emit(cfg, data, text, (["N", "M", "order", "h"], [list(r) for r in rows]))
    return 0


def _cmd_eis(cfg: RunConfig) -> int:
    f = eisenstein_series(cfg.level, cfg.m, cfg.precision)
    data = {"level": cfg.level, "m": cfg.m, **f.to_jsonable()}
    text = [
        f"series at level {cfg.level}, m {cfg.m}, {f.precision} terms",
        "coeffs " + " ".join(str(c) for c in f.coeffs),
    ]
    _emit(cfg, data, text, None)
    return 0


def _cmd_residues(cfg: RunConfig) -> int:
    reports = residues(cfg.level, cfg.m)
    data = {
        "level": cfg.level,
        "m": cfg.m,
        "residues": [{"cusp": r.cusp, "value": str(r.value)} for r in reports],
    }
    text = [f"P_{r.cusp}: {r.value}" for r in reports]
    _emit(cfg, data, text, None)
    return 0


def _cmd_hecke_index(cfg: RunConfig) -> int:
    _check_bound(cfg.level, MODSYM_CAP, "modular-symbol", "--level")
    SquareFreeLevel(cfg.level)
    from eislab.modsym import cached_index, compare_index_order

    model = cached_index(cfg.level, cfg.m)
    data = {
        "level": model.level,
        "m": model.m,
        "index": model.index,
        "elementary_divisors": list(model.elementary_divisors),
        "zero_ring": model.zero_ring,
        "prime_bound": model.prime_bound,
        "generators": list(model.generator_names),
        "stabilization": [list(step) for step in model.stabilization],
    }
    text = [
        f"level={model.level} m={model.m} t={model.index}"
        f" zero_ring={'yes' if model.zero_ring else 'no'}",
        "divisors " + " ".join(str(e) for e in model.elementary_divisors),
        "stabilization "
        + " ".join(f"{r}:{t}" for r, t in model.stabilization),
    ]
    csv_table = None
    if cfg.m != 1:
        rep = compare_index_order(cfg.level, cfg.m)
        order = order_closed_form(cfg.level, cfg.m)
        csv_table = (
            ["N", "M", "order", "h", "index", "verdict"],
            [[rep.level, rep.m, rep.cusp_order, order.h, rep.index, rep.verdict]],
        )
    _emit(cfg, data, text, csv_table)
    return 0


def _cmd_maximal_ideals(cfg: RunConfig) -> int:
    _check_bound(cfg.level, MODSYM_CAP, "modular-symbol", "--level")
    from eislab.modsym import enumerate_eisenstein_maximal

    records = enumerate_eisenstein_maximal(cfg.level)
    data = {
        "level": cfg.level,
        "records": [
            {
                "ell": r.ell,
                "m": r.m,
                "normalized": r.normalized,
                "up_eigenvalues": [list(pair) for pair in r.up_eigenvalues],
            }
            for r in records
        ],
    }
    text = [
        f"ell={r.ell} m={r.m} "
        + " ".join(f"U{p}={v}" for p, v in r.up_eigenvalues)
        for r in records
    ] or ["no maximal ideals in the census"]
    _emit(cfg, data, text, None)
    return 0


# ---------------------------------------------------------------------------
# verification suites

def _suite_lattice_oracle(bound: int) -> list[dict]:
    cases = []
    for level in _squarefree_levels(bound):
        for m in sorted(_proper_divisors(level)):
            res = order_with_oracle(level, m)
            cases.append(
                {
                    "level": res.level,
                    "m": res.m,
                    "order": res.closed_form_order,
                    "h": res.h,
                    "oracle_order": res.oracle_order,
                    "ok": bool(res.agreed),
                }
            )
    return cases


def _suite_eigenform(bound: int) -> list[dict]:
    cases = []
    for level in _squarefree_levels(bound):
        for m in sorted(_proper_divisors(level)):
            bad = eigenform_violations(level, m, precision=200, prime_bound=20)
            cases.append(
                {"level": level.value, "m": m, "violations": bad, "ok": not bad}
            )
    return cases


def _suite_qidentity(bound: int) -> list[dict]:
    cases = []
    for level in _squarefree_levels(bound):
        for p in level.primes:
            if level.value // p <= 1:
                continue
            chk = level_lowering_identity_check(level, p, precision=500)
            cases.append(
                {
                    "level": level.value,
                    "p": p,
                    "precision": chk.precision,
                    "first_fail": chk.first_fail,
                    "ok": chk.ok,
                }
            )
    return cases


def _suite_index_vs_order(bound: int) -> list[dict]:
    from eislab.modsym import compare_index_order

    cases = []
    for level in _squarefree_levels(bound):
        for m in sorted(_proper_divisors(level)):
            case = {"level": level.value, "m": m}
            try:
                rep = compare_index_order(level.value, m)
            except RuntimeError as exc:
                case.update({"error": str(exc), "ok": False})
            else:
                case.update(
                    {
                        "order": rep.cusp_order,
                        "h": order_closed_form(level, m).h,
                        "index": rep.index,
                        "verdict": rep.verdict,
                        "ok": rep.verdict != "violation",
                    }
                )
            cases.append(case)
    return cases


def _suite_nonmaximal(bound: int) -> list[dict]:
    from eislab.modsym import m1_index_witnesses

    cases = []
    for level in _squarefree_levels(bound):
        try:
            witnesses = m1_index_witnesses(level.value)
        except RuntimeError as exc:
            cases.append({"level": level.value, "error": str(exc), "ok": False})
            continue
        cases.append(
            {
                "level": level.value,
                "witnesses": [list(w) for w in witnesses],
                "ok": all(q is not None for _, q in witnesses),
            }
        )
    return cases


def _suite_main_theorem(bound: int) -> list[dict]:
    from eislab.modsym import verify_main_theorem

    cases = []
    for level in _squarefree_levels(bound):
        try:
            report = verify_main_theorem(level.value)
        except RuntimeError as exc:
            cases.append({"level": level.value, "error": str(exc), "ok": False})
            continue
        cases.append(
            {
                "level": report.level,
                "checks": [
                    {
                        "ell": c.ell,
                        "m": c.m,
                        "case": c.case,
                        "detail": c.detail,
                        "ok": c.ok,
                    }
                    for c in report.checks
                ],
                "ok": report.ok,
            }
        )
    return cases


_SUITE_RUNNERS = {
    "lattice-oracle": _suite_lattice_oracle,
    "eigenform": _suite_eigenform,
    "qidentity": _suite_qidentity,
    "index-vs-order": _suite_index_vs_order,
    "nonmaximal": _suite_nonmaximal,
    "main-theorem": _suite_main_theorem,
}


def _cmd_verify(cfg: RunConfig) -> int:
    suite = cfg.suite
    bound = _SUITE_DEFAULT_BOUND[suite] if cfg.max_level is None else cfg.max_level
    _check_bound(bound, _SUITE_CAP[suite], suite)
    cases = _SUITE_RUNNERS[suite](bound)
    failures = [c for c in cases if not c["ok"]]
    data = {
        "suite": suite,
        "max_level": bound,
        "cases": cases,
        "failures": len(failures),
        "ok": not failures,
    }
    text = [f"FAIL {json.dumps(c, sort_keys=True)}" for c in failures]
    text.append(
        f"{suite}: {len(cases) - len(failures)}/{len(cases)} checks passed"
        f" up to level {bound}"
    )
    text.append("OK" if not failures else "FAIL")
    csv_table = None
    if suite == "index-vs-order":
        csv_table = (
            ["N", "M", "order", "h", "index", "verdict"],
            [
                [c["level"], c["m"], c.get("order"), c.get("h"),
                 c.get("index"), c.get("verdict")]
                for c in cases
            ],
        )
    _emit(cfg, data, text, csv_table)
    return 0 if not failures else 1


_HANDLERS = {
    "cusp-order": _cmd_cusp_order,
    "table": _cmd_table,
    "eis": _cmd_eis,
    "residues": _cmd_residues,
    "hecke-index": _cmd_hecke_index,
    "maximal-ideals": _cmd_maximal_ideals,
    "verify": _cmd_verify,
}


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    A build costs about a millisecond, more than most cached queries.
    """
    parser = argparse.ArgumentParser(
        prog="eislab",
        description="Cuspidal class orders, shifted-Hecke ideal indices, and"
        " the verification suites tying them together.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, formats=("text", "json")):
        sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--output", "-o", default=None, help="write to a file")

    sp = sub.add_parser("cusp-order", help="order of one cusp-pattern class")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--oracle", action="store_true",
                    help="also run the unit-lattice oracle")
    common(sp, ("text", "json", "csv"))

    sp = sub.add_parser("table", help="orders for every level and divisor up to a bound")
    sp.add_argument("--max-level", type=int, required=True)
    common(sp, ("text", "json", "csv"))

    sp = sub.add_parser("eis", help="coefficients of the two-parameter series")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--prec", type=int, default=24)
    common(sp)

    sp = sub.add_parser("residues", help="cusp residues of the series")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    common(sp)

    sp = sub.add_parser("hecke-index", help="index of the shifted-operator ideal")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    common(sp, ("text", "json", "csv"))

    sp = sub.add_parser("maximal-ideals", help="census of maximal ideals above the shifts")
    sp.add_argument("--level", type=int, required=True)
    common(sp)

    sp = sub.add_parser("verify", help="run one verification suite")
    sp.add_argument("--suite", choices=SUITES, required=True)
    sp.add_argument("--max-level", type=int, default=None)
    common(sp, ("text", "json", "csv"))

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        command=args.command,
        level=getattr(args, "level", None),
        m=getattr(args, "m", None),
        precision=getattr(args, "prec", 24),
        fmt=args.format,
        suite=getattr(args, "suite", None),
        max_level=getattr(args, "max_level", None),
        output=args.output,
        oracle=getattr(args, "oracle", False),
    )
    if cfg.level is not None and cfg.level < 1:
        raise ValueError("--level must be positive")
    if cfg.m is not None and cfg.m < 1:
        raise ValueError("--m must be positive")
    if cfg.precision < 2:
        raise ValueError("--prec must be at least 2")
    if cfg.precision > PREC_CAP:
        raise ValueError(f"--prec {cfg.precision} exceeds the precision cap {PREC_CAP}")
    return cfg


def main(argv=None) -> int:
    """Run one command; exit 0 success, 1 counterexample, 2 usage error, 3 internal fault."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _HANDLERS[cfg.command](cfg)
    except ValueError as exc:
        parser.error(str(exc))
    except Exception as exc:
        # a broken invariant is a fault of this program, never a counterexample
        where = f"level={getattr(args, 'level', None)} m={getattr(args, 'm', None)}"
        print(
            f"eislab: internal fault in {args.command} ({where}):"
            f" {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
