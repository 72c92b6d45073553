from __future__ import annotations

import ast
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eislab
from eislab.cli import build_parser, main


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
    assert run_usage_error(capsys, "hecke-index", "--level", "71", "--m", "71") == 2
    assert run_usage_error(capsys, "hecke-index", "--level", "401", "--m", "401") == 2


def test_maximal_ideals_level_cap(capsys):
    assert run_usage_error(capsys, "maximal-ideals", "--level", "71") == 2


def test_modsym_level_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("EISLAB_MAX_LEVEL", "71")
    code, out, err = run(capsys, "hecke-index", "--level", "71", "--m", "71")
    assert code == 0
    assert out.startswith("level=71 m=71 ")
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
    def broken(n, m):
        raise fault("invariant broken")

    monkeypatch.setattr("eislab.modsym.cached_index", broken)
    code, out, err = run(capsys, "hecke-index", "--level", "11", "--m", "11")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert "hecke-index" in err and "level=11" in err and "m=11" in err
    assert "invariant broken" in err


def test_src_has_no_assert():
    # python -O strips asserts; invariants must raise
    for path in sorted(Path(eislab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert on lines {found}"


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


def test_json_is_byte_stable(capsys):
    argv = ["maximal-ideals", "--level", "30", "--format", "json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_parser_lists_all_commands():
    parser = build_parser()
    actions = [a for a in parser._subparsers._actions if a.choices]
    names = set(actions[0].choices)
    assert names == {
        "cusp-order", "table", "eis", "residues",
        "hecke-index", "maximal-ideals", "verify",
    }
