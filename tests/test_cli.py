from __future__ import annotations

import ast
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eislab
from eislab import cuspgroup
from eislab.cli import _SUITE_TABLE, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    capsys.readouterr()
    return exc.value.code


def test_cusp_order_text_line(capsys):
    code, out, _ = run(capsys, "cusp-order", "--level", "17", "--m", "17")
    assert code == 0
    assert out == "N=17 M=17 order=4 h=2\n"


def test_cusp_order_oracle_flag(capsys):
    code, out, _ = run(
        capsys, "cusp-order", "--level", "30", "--m", "2", "--oracle"
    )
    assert code == 0
    assert out == "N=30 M=2 order=8 h=1 oracle=8 agreed=yes\n"


def test_cusp_order_json(capsys):
    code, out, _ = run(
        capsys, "cusp-order", "--level", "11", "--m", "11", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"level": 11, "m": 11, "order": 5, "h": 1}


def test_cusp_order_csv_header(capsys):
    code, out, _ = run(
        capsys,
        "cusp-order", "--level", "11", "--m", "11",
        "--format", "csv", "--oracle",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["N", "M", "order", "h", "oracle_order"]
    assert rows[1] == ["11", "11", "5", "1", "5"]


def test_usage_error_not_squarefree(capsys):
    assert run_usage_error(capsys, "cusp-order", "--level", "12", "--m", "3") == 2


def test_usage_error_m_not_divisor(capsys):
    assert run_usage_error(capsys, "cusp-order", "--level", "11", "--m", "3") == 2


def test_usage_error_m_one(capsys):
    assert run_usage_error(capsys, "cusp-order", "--level", "11", "--m", "1") == 2


def test_usage_error_negative_level(capsys):
    assert run_usage_error(capsys, "cusp-order", "--level", "-5", "--m", "1") == 2


def test_usage_error_unknown_suite(capsys):
    assert run_usage_error(capsys, "verify", "--suite", "everything") == 2


def test_usage_error_low_precision(capsys):
    code = run_usage_error(
        capsys, "eis", "--level", "11", "--m", "11", "--prec", "1"
    )
    assert code == 2


def test_usage_error_precision_above_cap(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the series must not be computed")

    monkeypatch.setattr("eislab.cli.eisenstein_series", refuse)
    code = run_usage_error(
        capsys, "eis", "--level", "11", "--m", "11", "--prec", "100000001"
    )
    assert code == 2


def test_csv_rejected_where_unsupported(capsys):
    code = run_usage_error(
        capsys, "residues", "--level", "11", "--m", "11", "--format", "csv"
    )
    assert code == 2


def test_csv_refused_before_any_work(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the csv refusal must come before any work")

    tableless = [suite for suite in _SUITE_TABLE if suite != "index-vs-order"]
    for suite in tableless:
        monkeypatch.setitem(_SUITE_TABLE, suite, (refuse, *_SUITE_TABLE[suite][1:]))
    monkeypatch.setattr("eislab.modsym.level_indices", refuse)
    argvs = [("verify", "--suite", suite) for suite in tableless]
    argvs.append(("hecke-index", "--level", "11", "--m", "1"))
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        err = capsys.readouterr().err
        assert exc.value.code == 2, argv
        assert err.endswith(f"csv output is not available for {argv[0]}\n"), argv


def test_non_divisor_m_refused_before_any_build(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the divisor refusal must come before any build")

    # level_indices too, since an earlier test may have cached the level
    monkeypatch.setattr("eislab.modsym.build_space", refuse)
    monkeypatch.setattr("eislab.modsym.level_indices", refuse)
    monkeypatch.setenv("EISLAB_MAX_LEVEL", "330")
    for level, m in ((30, 7), (210, 11), (330, 7)):
        with pytest.raises(SystemExit) as exc:
            main(["hecke-index", "--level", str(level), "--m", str(m)])
        err = capsys.readouterr().err
        assert exc.value.code == 2, (level, m)
        assert err.endswith("error: m must be a positive divisor of the level\n"), err


def test_table_csv_and_json_carry_same_rows(capsys):
    code, csv_out, _ = run(
        capsys, "table", "--max-level", "15", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert rows[0] == ["N", "M", "order", "h"]
    assert rows[1] == ["7", "7", "1", "1"]

    code, json_out, _ = run(
        capsys, "table", "--max-level", "15", "--format", "json"
    )
    assert code == 0
    data = json.loads(json_out)
    assert len(data) == len(rows) - 1
    for rec, row in zip(data, rows[1:]):
        assert [str(rec["level"]), str(rec["m"]),
                str(rec["order"]), str(rec["h"])] == row


def test_table_row_order_is_deterministic(capsys):
    _, first, _ = run(capsys, "table", "--max-level", "40", "--format", "csv")
    _, second, _ = run(capsys, "table", "--max-level", "40", "--format", "csv")
    assert first == second
    levels = [int(r.split(",")[0]) for r in first.splitlines()[1:]]
    assert levels == sorted(levels)


def test_table_includes_11_11(capsys):
    _, out, _ = run(capsys, "table", "--max-level", "11", "--format", "csv")
    assert "11,11,5,1" in out.splitlines()


def test_table_cap(capsys):
    assert run_usage_error(capsys, "table", "--max-level", "9999") == 2


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("EISLAB_MAX_LEVEL", "5000")
    code, out, err = run(capsys, "table", "--max-level", "2400", "--format", "csv")
    assert code == 0
    assert "runtimes grow quickly" in err
    assert out.splitlines()[0] == "N,M,order,h"


def test_env_cap_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("EISLAB_MAX_LEVEL", "lots")
    assert run_usage_error(capsys, "table", "--max-level", "2400") == 2


def test_eis_json_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "eis", "--level", "11", "--m", "11", "--prec", "8", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["level"] == 11
    assert data["precision"] == 8
    assert len(data["coeffs"]) == 8


def test_residues_text(capsys):
    code, out, _ = run(capsys, "residues", "--level", "11", "--m", "11")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("P_") for line in lines)


def test_hecke_index_json(capsys):
    code, out, _ = run(
        capsys,
        "hecke-index", "--level", "11", "--m", "11", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["index"] == 5
    assert data["elementary_divisors"] == [5]
    assert data["zero_ring"] is False


def test_hecke_index_allows_unit_ideal_shift(capsys):
    code, out, _ = run(capsys, "hecke-index", "--level", "11", "--m", "1")
    assert code == 0
    assert out.splitlines()[0] == "level=11 m=1 t=5 zero_ring=no"
    # no order column exists without a genuine divisor class
    assert run_usage_error(
        capsys, "hecke-index", "--level", "11", "--m", "1", "--format", "csv"
    ) == 2


def test_hecke_index_csv_verdict(capsys):
    code, out, _ = run(
        capsys,
        "hecke-index", "--level", "11", "--m", "11", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["N", "M", "order", "h", "index", "verdict"]
    assert rows[1] == ["11", "11", "5", "1", "5", "equal"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_hecke_index_compares_only_for_csv(capsys, monkeypatch, fmt):
    def refuse(n, m):
        raise AssertionError("only csv output shows the comparison")

    monkeypatch.setattr("eislab.modsym.compare_index_order", refuse)
    monkeypatch.setattr("eislab.cli.order_closed_form", refuse)
    argv = ("hecke-index", "--level", "11", "--m", "11", "--format", fmt)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")


def test_maximal_ideals_text(capsys):
    code, out, _ = run(capsys, "maximal-ideals", "--level", "11")
    assert code == 0
    assert out == "ell=5 m=11 U11=1\n"


def test_verify_suite_ok(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "lattice-oracle", "--max-level", "30",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "OK"
    assert "checks passed up to level 30" in lines[-2]


def test_verify_json_counts(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "main-theorem", "--max-level", "20",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["failures"] == 0
    assert data["max_level"] == 20
    assert all(c["ok"] for c in data["cases"])


def test_verify_index_vs_order_csv(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "index-vs-order", "--max-level", "15",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["N", "M", "order", "h", "index", "verdict"]
    assert ["11", "11", "5", "1", "5", "equal"] in rows


def test_verify_modsym_cap(capsys):
    code = run_usage_error(
        capsys, "verify", "--suite", "index-vs-order", "--max-level", "500"
    )
    assert code == 2


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_verify_rejects_nonpositive_max_level(capsys, bound):
    assert run_usage_error(
        capsys, "verify", "--suite", "index-vs-order", "--max-level", bound
    ) == 2


def test_hecke_index_level_cap(capsys):
    assert run_usage_error(capsys, "hecke-index", "--level", "331", "--m", "331") == 2
    assert run_usage_error(capsys, "hecke-index", "--level", "401", "--m", "401") == 2


def test_maximal_ideals_level_cap(capsys):
    assert run_usage_error(capsys, "maximal-ideals", "--level", "331") == 2


def test_modsym_level_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("EISLAB_MAX_LEVEL", "331")
    code, out, err = run(capsys, "hecke-index", "--level", "331", "--m", "331")
    assert code == 0
    assert out.startswith("level=331 m=331 ")
    assert "runtimes grow quickly" in err


def test_cusp_order_oracle_level_cap(capsys, monkeypatch):
    # the closed form has no cap; the oracle obeys the lattice cap
    assert run(capsys, "cusp-order", "--level", "2311", "--m", "2311")[0] == 0
    argv = ("cusp-order", "--level", "2311", "--m", "2311", "--oracle")
    assert run_usage_error(capsys, *argv) == 2
    monkeypatch.setenv("EISLAB_MAX_LEVEL", "2311")
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == "N=2311 M=2311 order=385 h=1 oracle=385 agreed=yes\n"
    assert "runtimes grow quickly" in err


def _eislab_subprocess(*args, timeout):
    env = dict(os.environ, PYTHONPATH=str(Path(eislab.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_huge_level_refused_in_bounded_time():
    huge = "1000000000000000003"
    proc = _eislab_subprocess(
        "-m", "eislab.cli", "cusp-order", "--level", huge, "--m", huge, timeout=10
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "too large to certify prime" in proc.stderr


def test_cli_import_leaves_modsym_unloaded():
    proc = _eislab_subprocess(
        "-c", "import sys, eislab.cli; print('eislab.modsym' in sys.modules)", timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout == "False\n"


def test_parser_built_once_per_process(capsys):
    build_parser.cache_clear()
    for _ in range(3):
        assert run(capsys, "cusp-order", "--level", "11", "--m", "11")[0] == 0
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize("fault", [RuntimeError, AssertionError])
def test_internal_fault_exit_code(capsys, monkeypatch, fault):
    def broken(n):
        raise fault("invariant broken")

    monkeypatch.setattr("eislab.modsym.level_indices", broken)
    code, out, err = run(capsys, "hecke-index", "--level", "11", "--m", "11")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert "hecke-index" in err and "level=11" in err and "m=11" in err
    assert "invariant broken" in err


def test_non_unimodular_quotient_is_internal_fault(capsys, monkeypatch):
    # a relation set with pivot 2 patched into build_space is refused as an
    # internal fault (exit 3), never a counterexample (exit 1)
    from eislab import modsym

    quotient = modsym._relation_quotient
    monkeypatch.setattr(
        modsym, "_relation_quotient", lambda rels, kept, nn: quotient([{0: 2, 1: 1}], kept, nn)
    )
    monkeypatch.setattr(modsym, "level_indices", modsym.level_indices.__wrapped__)
    code, out, err = run(capsys, "hecke-index", "--level", "30", "--m", "2")
    assert code == 3
    assert out == ""
    assert "internal fault" in err and "not unimodular at level 30" in err


def test_lattice_fault_is_internal_not_usage(capsys, monkeypatch):
    # an echelon that drops its last row on the principal-lattice rows (5
    # congruence and 8 - 1 cusp columns at level 30) is a fault, exit 3
    echelon = cuspgroup._echelon

    def short(rows):
        h, pivots = echelon(rows)
        return (h[:-1], pivots[:-1]) if len(rows[0]) == 12 else (h, pivots)

    cuspgroup.level_orders.cache_clear()
    monkeypatch.setattr(cuspgroup, "_echelon", short)
    code, out, err = run(capsys, "cusp-order", "--level", "30", "--m", "2", "--oracle")
    assert code == 3
    assert out == ""
    assert "internal fault" in err and "congruence system must have full rank" in err


@pytest.mark.parametrize("suite", ["index-vs-order", "nonmaximal", "main-theorem"])
def test_verify_suite_internal_fault_exit_code(capsys, monkeypatch, suite):
    # a broken invariant inside a suite is a fault, never a failed case
    def broken(n):
        raise RuntimeError("escapes the ring lattice")

    monkeypatch.setattr("eislab.modsym.level_indices", broken)
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-level", "11")
    assert code == 3
    assert out == ""
    assert "internal fault in verify" in err and "escapes the ring lattice" in err


def test_verify_main_theorem_missing_witness_fails_the_case(capsys, monkeypatch):
    # a falsified expectation is a failed case (exit 1), not an internal fault
    monkeypatch.setattr("eislab.modsym.m1_index_witnesses", lambda n: ((3, None),))
    code, out, err = run(capsys, "verify", "--suite", "main-theorem", "--max-level", "11")
    assert code == 1
    assert "internal fault" not in err
    assert "odd prime 3 divides the m=1 index at level 11" in out


def test_verify_qidentity_past_prime_250(capsys):
    # level 502 = 2 * 251 needs precision 2 * 251 > 500 for its prime 251
    code, out, _ = run(capsys, "verify", "--suite", "qidentity", "--max-level", "502")
    assert code == 0
    assert out.splitlines()[-1] == "OK"


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_src_has_no_assert():
    # python -O strips asserts; invariants must raise.  The runtime uses only
    # the standard library, so every absolute import names eislab or stdlib.
    allowed = set(sys.stdlib_module_names) | {"eislab"}
    paths = sorted(Path(eislab.__file__).parent.rglob("*.py"))
    assert {"cli.py", "exactnum.py", "modsym.py"} <= {path.name for path in paths}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert on lines {found}"
        foreign = [
            (line, name) for line, name in _absolute_imports(tree)
            if name.partition(".")[0] not in allowed
        ]
        assert not foreign, f"{path.name}: non-stdlib imports {foreign}"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "orders.csv"
    code, out, _ = run(
        capsys,
        "table", "--max-level", "11", "--format", "csv",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "N,M,order,h"


def test_unwritable_output_refused_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the --output refusal must come before any work")

    for suite in _SUITE_TABLE:
        monkeypatch.setitem(_SUITE_TABLE, suite, (refuse, *_SUITE_TABLE[suite][1:]))
    missing = tmp_path / "missing" / "cases.json"
    for target, reason in ((missing, "no directory"), (tmp_path, "is a directory")):
        for suite in _SUITE_TABLE:
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--suite", suite, "--max-level", "11", "--output", str(target)])
            err = capsys.readouterr().err
            assert exc.value.code == 2, (suite, target)
            assert f"eislab: error: --output {target}" in err and reason in err, err
    assert not missing.parent.exists()
    assert list(tmp_path.iterdir()) == []


# Every command in every format it supports, each suite at its default bound,
# the csv refusals and the usage errors: (argv, exit code, first 16 hex digits
# of the sha256 of stdout, last line of stderr).  Recorded before the handlers
# read the parsed arguments directly, so a change of one output byte fails.
NO_OUTPUT = hashlib.sha256(b"").hexdigest()[:16]
CSV_REFUSED = "eislab: error: csv output is not available for verify"
PINNED_OUTPUTS = [
    ("table --max-level 40", 0, "f98be0e5b54245e7", ""),
    ("table --max-level 40 --format json", 0, "41771af57df6b778", ""),
    ("table --max-level 40 --format csv", 0, "53ff5421fee6276b", ""),
    ("cusp-order --level 30 --m 2 --format csv --oracle", 0, "cef4a99502ad6fda", ""),
    ("cusp-order --level 2310 --m 1155 --format csv --oracle", 0,
     "3d11844666a96c2f", ""),
    ("eis --level 30 --m 6 --prec 12 --format json", 0, "5a6ba2e445133511", ""),
    ("residues --level 30 --m 15", 0, "3e66042c4df05867", ""),
    ("hecke-index --level 30 --m 15 --format json", 0, "287ae5e827f9a77c", ""),
    ("hecke-index --level 30 --m 15 --format csv", 0, "af0a91e5edc7cb68", ""),
    ("hecke-index --level 30 --m 1 --format csv", 2, NO_OUTPUT,
     "eislab: error: csv output is not available for hecke-index"),
    ("maximal-ideals --level 30 --format json", 0, "a690c9f92ea69e38", ""),
    # level 1 has no slot at all, level 6 a genus-0 space
    ("maximal-ideals --level 1", 0, "39073e734d2a1a2a", ""),
    ("hecke-index --level 6 --m 6 --format json", 0, "1381ff7a8b02a74e", ""),
    ("verify --suite lattice-oracle --max-level 30 --format json", 0,
     "94a327bc3c8d8a33", ""),
    ("verify --suite eigenform --max-level 30 --format json", 0,
     "c571c2a43ea2fdcf", ""),
    ("verify --suite qidentity --max-level 30 --format json", 0,
     "ffc3ed8f5fa229f1", ""),
    ("verify --suite index-vs-order --max-level 30 --format json", 0,
     "1b93e4e9633193f4", ""),
    ("verify --suite index-vs-order --max-level 30 --format csv", 0,
     "ebf4a7f7a47c3437", ""),
    ("verify --suite nonmaximal --max-level 30 --format json", 0,
     "75a72a7333f35169", ""),
    ("verify --suite main-theorem --max-level 30 --format json", 0,
     "693e0e95fc513359", ""),
    ("verify --suite lattice-oracle", 0, "b0bc265e436d35c5", ""),
    ("verify --suite eigenform", 0, "5da98e1deea08160", ""),
    ("verify --suite qidentity", 0, "4eaa58cc2339da03", ""),
    ("verify --suite index-vs-order", 0, "16e9c0f9e0a30732", ""),
    ("verify --suite nonmaximal", 0, "a69b9b022e55cbd1", ""),
    ("verify --suite main-theorem", 0, "8d4e2d0275d8e5d3", ""),
    ("verify --suite lattice-oracle --max-level 30 --format csv", 2, NO_OUTPUT, CSV_REFUSED),
    ("verify --suite eigenform --max-level 30 --format csv", 2, NO_OUTPUT, CSV_REFUSED),
    ("verify --suite qidentity --max-level 30 --format csv", 2, NO_OUTPUT, CSV_REFUSED),
    ("verify --suite nonmaximal --max-level 30 --format csv", 2, NO_OUTPUT, CSV_REFUSED),
    ("verify --suite main-theorem --max-level 30 --format csv", 2, NO_OUTPUT, CSV_REFUSED),
    # the csv refusal comes before any work under the level cap (71) and
    # before the cap itself (331)
    ("verify --suite main-theorem --max-level 71 --format csv", 2, NO_OUTPUT, CSV_REFUSED),
    ("hecke-index --level 71 --m 1 --format csv", 2, NO_OUTPUT,
     "eislab: error: csv output is not available for hecke-index"),
    ("verify --suite main-theorem --max-level 331 --format csv", 2, NO_OUTPUT, CSV_REFUSED),
    ("hecke-index --level 331 --m 1 --format csv", 2, NO_OUTPUT,
     "eislab: error: csv output is not available for hecke-index"),
    ("verify --suite main-theorem --max-level 0", 2, NO_OUTPUT,
     "eislab: error: --max-level must be positive"),
    ("verify --suite main-theorem --max-level 331", 2, NO_OUTPUT,
     "eislab: error: --max-level 331 exceeds the main-theorem cap 330"
     " (set EISLAB_MAX_LEVEL to raise it)"),
    ("cusp-order --level -5 --m 1", 2, NO_OUTPUT,
     "eislab: error: --level must be positive"),
    ("hecke-index --level 30 --m 0", 2, NO_OUTPUT,
     "eislab: error: --m must be positive"),
    ("hecke-index --level 30 --m 7", 2, NO_OUTPUT,
     "eislab: error: m must be a positive divisor of the level"),
    ("eis --level 11 --m 11 --prec 1", 2, NO_OUTPUT,
     "eislab: error: --prec must be at least 2"),
    ("eis --level 11 --m 11 --prec 100001", 2, NO_OUTPUT,
     "eislab: error: --prec 100001 exceeds the precision cap 100000"),
]


def _pinned_run(capsys, argv):
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    out = hashlib.sha256(captured.out.encode()).hexdigest()[:16]
    err = captured.err.splitlines()[-1] if captured.err else ""
    return code, out, err


@pytest.mark.parametrize(
    "argv,code,out,err", PINNED_OUTPUTS, ids=[case[0] for case in PINNED_OUTPUTS]
)
def test_output_digests_are_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.delenv("EISLAB_MAX_LEVEL", raising=False)
    for _ in range(2):  # the second run meets warm caches
        assert _pinned_run(capsys, argv) == (code, out, err)


def test_parser_lists_all_commands():
    parser = build_parser()
    actions = [a for a in parser._subparsers._actions if a.choices]
    names = set(actions[0].choices)
    assert names == {
        "cusp-order", "table", "eis", "residues",
        "hecke-index", "maximal-ideals", "verify",
    }
    # argparse's invalid-choice message lists the suites in this order
    verify = actions[0].choices["verify"]
    suite = next(a for a in verify._actions if a.dest == "suite")
    assert suite.choices == (
        "lattice-oracle", "eigenform", "qidentity",
        "index-vs-order", "nonmaximal", "main-theorem",
    )
