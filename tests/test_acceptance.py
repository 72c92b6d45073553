"""Acceptance gate: one test per shipped criterion, exact tolerances.

Every test sweeps the full stated range, checks exact integer or rational
equality, and enforces its runtime budget.  Run with -s to see the PASS
lines; under plain pytest the per-test verdicts carry the same information.
"""

from __future__ import annotations

import time
from fractions import Fraction

from eislab.cli import _squarefree_levels
from eislab.cuspgroup import order_closed_form, order_with_oracle
from eislab.divlattice import SquareFreeLevel, build_tables
from eislab.exactnum import IntMatrix, is_prime, phi_psi_omega
from eislab.modsym import (
    compare_index_order,
    level_indices,
    m1_index_witnesses,
    verify_main_theorem,
)
from eislab.qseries import (
    eigenform_violations,
    level_lowering_identity_check,
    residues,
)
from test_divlattice import box_add, sgn
from test_exactnum import identity, scale


def _proper_divisors(n):
    return [d for d in range(2, n + 1) if n % d == 0]


def _sweep_levels():
    return _squarefree_levels(70)


def test_criterion_1_closed_form_matches_lattice_oracle():
    t0 = time.perf_counter()
    checks = 0
    # 210 is the first 4-prime level, 2310 the only 5-prime one under the cap
    for level in _squarefree_levels(210) + [SquareFreeLevel(2310)]:
        n = level.value
        phi = phi_psi_omega(level)[0]
        for m in _proper_divisors(n):
            res = order_with_oracle(n, m)
            assert res.agreed, (n, m, res)
            psi_c = phi_psi_omega(n // m)[1]
            assert (
                res.closed_form_order
                == Fraction(phi * psi_c, 24).numerator * res.h
            ), (n, m)
            in_h2_family = (
                is_prime(m) and m % 8 == 1 and n in (m, 2 * m)
            )
            assert (res.h == 2) == in_h2_family, (n, m, res.h)
            checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"budget blown: {elapsed:.1f}s"
    print(f"PASS: criterion 1, {checks} order checks to level 210 and at 2310 in {elapsed:.2f}s")


def test_criterion_2_divisor_box_algebra_exhaustive():
    t0 = time.perf_counter()
    levels = 0
    for level in _squarefree_levels(2310, 1):
        n = level.value
        divs, lam24, amat = build_tables(level)
        s = len(divs)
        idx = {d: i for i, d in enumerate(divs)}
        box = [
            [idx[box_add(level, divs[i], divs[j])] for j in range(s)]
            for i in range(s)
        ]
        sg = [sgn(level, d) for d in divs]
        rng = list(range(s))
        for i in rng:
            # complement pairing through the identity column
            assert box[i][0] == s - 1 - i
            assert divs[box[i][0]] == n // divs[i]
            row = box[i]
            assert sorted(row) == rng  # each translate permutes the table
            for j in rng:
                assert row[j] == box[j][i]
                assert row[j] == box[s - 1 - i][s - 1 - j]
                assert sg[row[j]] == sg[i] * sg[j]
        if s > 1:
            pn = level.primes[-1]
            for j in rng:
                col_val_to_row = {divs[box[k][j]]: k for k in rng}
                for i in rng:
                    if i == j or divs[box[i][j]] % pn == 0:
                        continue
                    for k in rng:
                        dkj = divs[box[k][j]]
                        if dkj % pn == 0:
                            continue
                        r = col_val_to_row[pn * dkj]
                        lhs = divs[box[i][k]] * dkj
                        rhs = divs[box[i][r]] * divs[box[r][j]]
                        assert lhs == rhs, (n, i, j, k)
        phi, psi, _ = phi_psi_omega(level)
        assert IntMatrix(lam24) * IntMatrix(amat) == scale(identity(s), phi * psi), n
        levels += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"budget blown: {elapsed:.1f}s"
    print(f"PASS: criterion 2, box algebra on {levels} levels to 2310 in {elapsed:.2f}s")


def test_criterion_3_eigenform_systems():
    t0 = time.perf_counter()
    checks = 0
    for level in _squarefree_levels(100, 2):
        for m in _proper_divisors(level.value):
            bad = eigenform_violations(level, m, precision=200, prime_bound=20)
            assert not bad, (level.value, m, bad)
            checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"budget blown: {elapsed:.1f}s"
    print(f"PASS: criterion 3, {checks} eigenform systems to level 100 in {elapsed:.2f}s")


def test_criterion_4_residue_closed_forms():
    t0 = time.perf_counter()
    assert [(r.cusp, r.value) for r in residues(11, 11)] == [(11, -10), (1, 10)]
    assert {r.cusp: r.value for r in residues(15, 3)}[3] == Fraction(-48, 5)
    for level in _squarefree_levels(100, 2):
        n = level.value
        phi, _, omega = phi_psi_omega(level)
        for m in _proper_divisors(n):
            rep = residues(n, m)
            if m == n:
                # both formulas meet at the full-level cusp
                assert rep[0].value == (-1) ** omega * phi
                general = (
                    (-1) ** omega * phi * phi_psi_omega(1)[1] * Fraction(n, n)
                )
                assert rep[0].value == general
                if is_prime(n):
                    assert sum(r.value for r in rep) == 0
            else:
                assert rep[0].value == 0
                value = rep[1].value
                assert (n // m) % value.denominator == 0, (n, m, value)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1, f"budget blown: {elapsed:.1f}s"
    print(f"PASS: criterion 4, residue closed forms in {elapsed:.2f}s")


def test_criterion_5_level_lowering_identity():
    t0 = time.perf_counter()
    checks = 0
    for level in _squarefree_levels(100, 2):
        for p in level.primes:
            if level.value // p <= 1:
                continue
            chk = level_lowering_identity_check(level, p, precision=500)
            assert chk.ok, (level.value, p, chk.first_fail)
            checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"budget blown: {elapsed:.1f}s"
    print(f"PASS: criterion 5, {checks} five-hundred-term identities in {elapsed:.2f}s")


def test_criterion_6_ideal_index_matches_class_order():
    t0 = time.perf_counter()
    assert level_indices(11)[11].index == 5
    assert order_closed_form(11, 11).closed_form_order == 5
    assert level_indices(33)[3].index == 10
    assert order_closed_form(33, 3).closed_form_order == 10
    checks = 0
    for level in _sweep_levels():
        n = level.value
        if level_indices(n)[n].zero_ring:
            continue
        for m in _proper_divisors(n):
            rep = compare_index_order(n, m)
            assert rep.verdict != "violation", (n, m, rep)
            if m != n and (n // m) % 2 == 1:
                assert rep.verdict == "equal", (n, m, rep)
            checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"budget blown: {elapsed:.1f}s"
    print(f"PASS: criterion 6, {checks} index/order comparisons to level 70 in {elapsed:.2f}s")


def test_criterion_7_index_prime_witnesses():
    t0 = time.perf_counter()
    witnessed = 0
    for level in _sweep_levels():
        for ell, q in m1_index_witnesses(level.value):
            assert q is not None, (level.value, ell)
            assert q % ell == 1 and level.value % q == 0
            witnessed += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"budget blown: {elapsed:.1f}s"
    print(f"PASS: criterion 7, {witnessed} odd-prime witnesses to level 70 in {elapsed:.2f}s")


def test_criterion_8_maximal_ideal_case_split():
    t0 = time.perf_counter()
    ideals = 0
    for level in _sweep_levels():
        report = verify_main_theorem(level.value)
        assert report.ok, (level.value, report)
        for check in report.checks:
            assert check.ok, (level.value, check)
            ideals += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"budget blown: {elapsed:.1f}s"
    print(f"PASS: criterion 8, {ideals} maximal-ideal case checks to level 70 in {elapsed:.2f}s")
