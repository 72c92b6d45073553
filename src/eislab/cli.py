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
from dataclasses import asdict
from functools import lru_cache

# eislab.modsym is imported inside the commands and suites that use it, so
# the lattice and series commands do not pay for loading it.
from eislab.cuspgroup import order_closed_form, order_with_oracle
from eislab.divlattice import SquareFreeLevel, divisor_values
from eislab.qseries import (
    eigenform_violations,
    eisenstein_series,
    level_lowering_identity_check,
    residues,
)

LATTICE_CAP = 2310
MODSYM_CAP = 330
PREC_CAP = 10**5  # eis builds a list of --prec coefficients

# the columns of one index-against-order comparison, as cases and csv rows
_INDEX_KEYS = ("level", "m", "order", "h", "index", "verdict")
_INDEX_HEADER = ["N", "M", "order", "h", "index", "verdict"]


def _squarefree_levels(bound: int, low: int = 7) -> list[SquareFreeLevel]:
    out = []
    for n in range(low, bound + 1):
        try:
            out.append(SquareFreeLevel(n))
        except ValueError:
            continue
    return out


def _proper_divisors(level: SquareFreeLevel) -> tuple[int, ...]:
    # canonical table order, with the excluded divisor 1 dropped
    return divisor_values(level)[1:]


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


def _check_ranges(args: argparse.Namespace) -> None:
    """Refuse out-of-range values that the parser's int types let through.

    A command without one of these flags passes its check.
    """
    for name in ("level", "m"):
        if getattr(args, name, 1) < 1:
            raise ValueError(f"--{name} must be positive")
    prec = getattr(args, "prec", 2)
    if prec < 2:
        raise ValueError("--prec must be at least 2")
    if prec > PREC_CAP:
        raise ValueError(f"--prec {prec} exceeds the precision cap {PREC_CAP}")


def _check_csv(args: argparse.Namespace) -> None:
    """Refuse --format csv where there is no table, before any work runs.

    The parser offers csv to the commands with a table; of those, the
    verify suites other than index-vs-order and hecke-index at m = 1 (no
    divisor class to compare with) have none.
    """
    if args.format != "csv":
        return
    if (args.command == "verify" and args.suite != "index-vs-order") or (
        args.command == "hecke-index" and args.m == 1
    ):
        raise ValueError(f"csv output is not available for {args.command}")


def _check_output(args: argparse.Namespace) -> None:
    """Refuse an --output path that cannot be written, before any work runs.

    The file is still written only at the end (_emit); here the path must
    not be a directory, and its directory must exist and be writable.
    """
    path = args.output
    if not path:
        return
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ValueError(f"--output {path} is a directory")
    if not os.path.isdir(folder):
        raise ValueError(f"--output {path}: no directory {folder}")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise ValueError(f"--output {path} is not writable")


def _index_case(n: int, m: int) -> dict:
    from eislab.modsym import compare_index_order

    rep = compare_index_order(n, m)
    h = order_closed_form(n, m).h
    values = (rep.level, rep.m, rep.cusp_order, h, rep.index, rep.verdict)
    return dict(zip(_INDEX_KEYS, values))


def _index_csv(cases: list[dict]) -> tuple:
    return _INDEX_HEADER, [[c[k] for k in _INDEX_KEYS] for c in cases]


def _emit(args: argparse.Namespace, data, text_lines, csv_table) -> None:
    if args.format == "json":
        out = json.dumps(data, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        header, rows = csv_table
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        out = buf.getvalue()
    else:
        out = "\n".join(text_lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


# ---------------------------------------------------------------------------
# single-query commands

def _cmd_cusp_order(args: argparse.Namespace) -> int:
    if args.oracle:
        _check_bound(args.level, LATTICE_CAP, "lattice", "--level")
    res = (
        order_with_oracle(args.level, args.m)
        if args.oracle
        else order_closed_form(args.level, args.m)
    )
    data = asdict(res)
    data["order"] = data.pop("closed_form_order")
    line = f"N={res.level} M={res.m} order={res.closed_form_order} h={res.h}"
    header = ["N", "M", "order", "h"]
    row = [res.level, res.m, res.closed_form_order, res.h]
    if args.oracle:
        line += f" oracle={res.oracle_order} agreed={'yes' if res.agreed else 'no'}"
        header.append("oracle_order")
        row.append(res.oracle_order)
    else:
        del data["oracle_order"], data["agreed"]
    _emit(args, data, [line], (header, [row]))
    return 0 if (res.agreed is not False) else 1


def _cmd_table(args: argparse.Namespace) -> int:
    _check_bound(args.max_level, LATTICE_CAP, "order-table")
    rows = []
    for level in _squarefree_levels(args.max_level):
        for m in _proper_divisors(level):
            res = order_closed_form(level, m)
            rows.append((res.level, res.m, res.closed_form_order, res.h))
    data = [
        {"level": n, "m": m, "order": order, "h": h} for n, m, order, h in rows
    ]
    text = ["N M order h"] + [" ".join(str(x) for x in row) for row in rows]
    _emit(args, data, text, (["N", "M", "order", "h"], [list(r) for r in rows]))
    return 0


def _cmd_eis(args: argparse.Namespace) -> int:
    f = eisenstein_series(args.level, args.m, args.prec)
    data = {
        "level": args.level, "m": args.m, "modulus": 0, "precision": len(f), "coeffs": list(f)
    }
    text = [
        f"series at level {args.level}, m {args.m}, {len(f)} terms",
        "coeffs " + " ".join(str(c) for c in f),
    ]
    _emit(args, data, text, None)
    return 0


def _cmd_residues(args: argparse.Namespace) -> int:
    reports = residues(args.level, args.m)
    data = {
        "level": args.level,
        "m": args.m,
        "residues": [{"cusp": r.cusp, "value": str(r.value)} for r in reports],
    }
    text = [f"P_{r.cusp}: {r.value}" for r in reports]
    _emit(args, data, text, None)
    return 0


def _cmd_hecke_index(args: argparse.Namespace) -> int:
    _check_bound(args.level, MODSYM_CAP, "modular-symbol", "--level")
    SquareFreeLevel(args.level)
    if args.level % args.m:  # before the space and the ring are built
        raise ValueError("m must be a positive divisor of the level")
    from eislab.modsym import level_indices

    model = level_indices(args.level)[args.m]
    data = asdict(model)
    data["generators"] = data.pop("generator_names")
    text = [
        f"level={model.level} m={model.m} t={model.index}"
        f" zero_ring={'yes' if model.zero_ring else 'no'}",
        "divisors " + " ".join(str(e) for e in model.elementary_divisors),
        "stabilization "
        + " ".join(f"{r}:{t}" for r, t in model.stabilization),
    ]
    csv_table = None
    if args.format == "csv":  # _check_csv has refused m = 1
        csv_table = _index_csv([_index_case(args.level, args.m)])
    _emit(args, data, text, csv_table)
    return 0


def _cmd_maximal_ideals(args: argparse.Namespace) -> int:
    _check_bound(args.level, MODSYM_CAP, "modular-symbol", "--level")
    from eislab.modsym import FalsifiedExpectation, enumerate_eisenstein_maximal

    try:
        records = enumerate_eisenstein_maximal(args.level)
    except FalsifiedExpectation as exc:
        print(f"eislab: counterexample at level {args.level}: {exc}", file=sys.stderr)
        return 1
    data = {"level": args.level, "records": [asdict(r) for r in records]}
    text = [
        f"ell={r.ell} m={r.m} "
        + " ".join(f"U{p}={v}" for p, v in r.up_eigenvalues)
        for r in records
    ] or ["no maximal ideals in the census"]
    _emit(args, data, text, None)
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
            chk = level_lowering_identity_check(level, p, precision=max(500, 2 * p))
            cases.append({"level": level.value, "p": p, **asdict(chk)})
    return cases


def _suite_index_vs_order(bound: int) -> list[dict]:
    cases = []
    for level in _squarefree_levels(bound):
        for m in sorted(_proper_divisors(level)):
            case = _index_case(level.value, m)
            cases.append({**case, "ok": case["verdict"] != "violation"})
    return cases


def _suite_nonmaximal(bound: int) -> list[dict]:
    from eislab.modsym import m1_index_witnesses

    cases = []
    for level in _squarefree_levels(bound):
        witnesses = m1_index_witnesses(level.value)
        cases.append(
            {
                "level": level.value,
                "witnesses": [list(w) for w in witnesses],
                "ok": all(q is not None for _, q in witnesses),
            }
        )
    return cases


def _suite_main_theorem(bound: int) -> list[dict]:
    from eislab.modsym import FalsifiedExpectation, verify_main_theorem

    cases = []
    for level in _squarefree_levels(bound):
        try:
            cases.append(asdict(verify_main_theorem(level.value)))
        except FalsifiedExpectation as exc:
            cases.append({"level": level.value, "error": str(exc), "ok": False})
    return cases


# suite name -> (runner, default --max-level, cap), in the order --suite lists them
_SUITE_TABLE = {
    "lattice-oracle": (_suite_lattice_oracle, 210, LATTICE_CAP),
    "eigenform": (_suite_eigenform, 100, LATTICE_CAP),
    "qidentity": (_suite_qidentity, 100, LATTICE_CAP),
    "index-vs-order": (_suite_index_vs_order, 70, MODSYM_CAP),
    "nonmaximal": (_suite_nonmaximal, 70, MODSYM_CAP),
    "main-theorem": (_suite_main_theorem, 70, MODSYM_CAP),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    suite = args.suite
    runner, default_bound, cap = _SUITE_TABLE[suite]
    bound = default_bound if args.max_level is None else args.max_level
    _check_bound(bound, cap, suite)
    cases = runner(bound)
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
    # _check_csv has refused csv for every suite but index-vs-order
    csv_table = _index_csv(cases) if args.format == "csv" else None
    _emit(args, data, text, csv_table)
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
    sp.add_argument("--suite", choices=tuple(_SUITE_TABLE), required=True)
    sp.add_argument("--max-level", type=int, default=None)
    common(sp, ("text", "json", "csv"))

    return parser


def main(argv=None) -> int:
    """Run one command; exit 0 success, 1 counterexample, 2 usage error, 3 internal fault."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_ranges(args)
        _check_csv(args)
        _check_output(args)
        return _HANDLERS[args.command](args)
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
