from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, prod

import pytest

from eislab import divlattice
from eislab.cli import _squarefree_levels
from eislab.divlattice import (
    Divisor,
    DivisorTable,
    SquareFreeLevel,
    build_tables,
    divisor_values,
)
from eislab.exactnum import IntMatrix, phi_psi_omega


# Moved from eislab.divlattice, which has no caller of them left.

def divisor_from_int(level: SquareFreeLevel, d: int) -> Divisor:
    if d < 1 or level.value % d:
        raise ValueError(f"{d} does not divide {level.value}")
    return Divisor(level, [1 if d % p == 0 else 0 for p in level.primes])


def box_add(a: Divisor, b: Divisor) -> Divisor:
    """Group law on divisors: c_i = a_i + b_i + 1 mod 2, identity N."""
    if a.level != b.level:
        raise ValueError("divisors belong to different levels")
    return Divisor(a.level, [(x + y + 1) % 2 for x, y in zip(a.bits, b.bits)])


def sgn(a: Divisor) -> int:
    """(-1)^(omega(N) - omega(a))."""
    return -1 if (a.level.n - a.omega) % 2 else 1


def a_N(a: Divisor, b: Divisor) -> Fraction:
    """N/(a, N/a) * (a,b)^2 / (a*b); equals the integer a box b here."""
    if a.level != b.level:
        raise ValueError("divisors belong to different levels")
    n = a.level.value
    value = Fraction(n, gcd(a.value, n // a.value)) * Fraction(
        gcd(a.value, b.value) ** 2, a.value * b.value
    )
    if value.denominator != 1:
        raise RuntimeError("a_N must be integral for square-free N")
    return value


SQUAREFREE_SMALL = [
    n for n in range(2, 66) if all(n % (p * p) for p in (2, 3, 5, 7))
]


def _table(n):
    return DivisorTable(SquareFreeLevel(n))


def test_ordering_examples():
    assert [d.value for d in _table(10).divisors] == [1, 2, 5, 10]
    assert [d.value for d in _table(30).divisors] == [1, 2, 3, 5, 6, 10, 15, 30]


def test_order_is_omega_major():
    for n in SQUAREFREE_SMALL:
        divs = _table(n).divisors
        for a, b in zip(divs, divs[1:]):
            assert a.omega < b.omega or (
                a.omega == b.omega and a.bits > b.bits
            )


def test_complement_pairing():
    for n in SQUAREFREE_SMALL:
        divs = _table(n).divisors
        s = len(divs)
        for i in range(s):
            assert divs[i].value * divs[s - 1 - i].value == n


def test_box_add_examples():
    lvl = SquareFreeLevel(30)
    p1 = divisor_from_int(lvl, 2)
    assert box_add(p1, p1).value == 30
    one = divisor_from_int(lvl, 1)
    for d in _table(30).divisors:
        assert box_add(one, d).value == 30 // d.value
        assert box_add(divisor_from_int(lvl, 30), d) == d


def test_box_group_structure():
    for n in (6, 30, 42):
        lvl = SquareFreeLevel(n)
        divs = _table(n).divisors
        iden = divisor_from_int(lvl, n)
        for a in divs:
            assert box_add(a, a) == iden
            for b in divs:
                assert box_add(a, b) == box_add(b, a)
                for c in divs:
                    assert box_add(box_add(a, b), c) == box_add(a, box_add(b, c))
        # each translation permutes the divisor set
        for a in divs:
            assert {box_add(a, d).value for d in divs} == {d.value for d in divs}


def test_box_add_level_mismatch():
    a = divisor_from_int(SquareFreeLevel(6), 2)
    b = divisor_from_int(SquareFreeLevel(10), 2)
    try:
        box_add(a, b)
    except ValueError:
        pass
    else:
        raise AssertionError("expected level mismatch error")


def test_sgn_examples():
    lvl = SquareFreeLevel(30)
    assert sgn(divisor_from_int(lvl, 30)) == 1
    assert sgn(divisor_from_int(lvl, 1)) == (-1) ** 3
    assert sgn(divisor_from_int(lvl, 6)) == -1


def test_a_N_examples():
    lvl = SquareFreeLevel(30)
    one = divisor_from_int(lvl, 1)
    full = divisor_from_int(lvl, 30)
    for p in (2, 3, 5):
        dp = divisor_from_int(lvl, p)
        assert a_N(one, dp) == Fraction(30, p)
        assert a_N(full, dp) == p
    assert a_N(full, full) == 30


def test_a_N_equals_box_value():
    for n in SQUAREFREE_SMALL:
        divs = _table(n).divisors
        for a in divs:
            for b in divs:
                assert a_N(a, b) == box_add(a, b).value


def test_build_tables_identity_n10():
    table, lam24, amat = build_tables(10)
    assert lam24 * amat == IntMatrix.identity(4).scale(72)


def test_build_tables_identity_breach_raises(monkeypatch):
    # a failed identity is an invariant breach, a RuntimeError like every other
    monkeypatch.setattr(divlattice, "phi_psi_omega", lambda level: (1, 1, 0))
    with pytest.raises(RuntimeError, match="phi\\*psi"):
        build_tables(10)


def test_planted_box_entry_breaks_the_identity(monkeypatch):
    # the sixth gcd call misreports, so one box entry of 24*Lambda (and of A) is wrong
    calls = count(1)
    monkeypatch.setattr(divlattice, "gcd", lambda a, b: gcd(a, b) + (next(calls) == 6))
    with pytest.raises(RuntimeError, match="phi\\*psi"):
        build_tables(30)


def sorted_divisor_values(level: SquareFreeLevel) -> tuple[int, ...]:
    """The canonical order by its definition: a sort of the prime bit-vectors
    by omega, ties broken anti-lexicographically (larger leading bit first)."""
    masks = [[(mask >> i) & 1 for i in range(level.n)] for mask in range(1 << level.n)]
    masks.sort(key=lambda bits: (sum(bits), [-b for b in bits]))
    return tuple(prod(p for p, b in zip(level.primes, bits) if b) for bits in masks)


def test_divisor_values_match_the_table_order():
    for level in _squarefree_levels(2310, 2):
        values = divisor_values(level)
        assert values == tuple(d.value for d in DivisorTable(level).divisors), level
        assert values == sorted_divisor_values(level), level


def test_lambda_entries_are_divisors():
    for n in (6, 15, 30, 42):
        table, lam24, _ = build_tables(n)
        values = {d.value for d in table.divisors}
        for row in lam24.data:
            assert set(row) <= values


def test_lemma_box_symmetries():
    # parts (1) and (2) of the divisor-product lemma
    for n in SQUAREFREE_SMALL:
        table, _, _ = build_tables(n)
        divs = table.divisors
        s = len(divs)
        for i in range(s):
            assert box_add(divs[i], divs[0]).value == n // divs[i].value
            assert box_add(divs[i], divs[0]) == divs[s - 1 - i]
            for j in range(s):
                dij = box_add(divs[i], divs[j])
                assert dij == box_add(divs[j], divs[i])
                assert dij == box_add(divs[s - 1 - i], divs[s - 1 - j])


def test_lemma_sign_multiplicativity():
    for n in SQUAREFREE_SMALL:
        divs = _table(n).divisors
        for a in divs:
            for b in divs:
                assert sgn(box_add(a, b)) == sgn(a) * sgn(b)


def test_lemma_exchange_identity():
    # d_ik * d_kj = d_ir * d_rj where d_rj = p_n * d_kj, valid whenever
    # the largest prime divides neither d_ij nor d_kj and i != j
    for n in (6, 10, 15, 30, 42, 66):
        lvl = SquareFreeLevel(n)
        table, _, _ = build_tables(lvl)
        divs = table.divisors
        s = len(divs)
        pn = lvl.primes[-1]
        for i in range(s):
            for j in range(s):
                if i == j or box_add(divs[i], divs[j]).value % pn == 0:
                    continue
                for k in range(s):
                    dkj = box_add(divs[k], divs[j]).value
                    if dkj % pn == 0:
                        continue
                    target = pn * dkj
                    r = next(
                        r
                        for r in range(s)
                        if box_add(divs[r], divs[j]).value == target
                    )
                    lhs = box_add(divs[i], divs[k]).value * dkj
                    rhs = (
                        box_add(divs[i], divs[r]).value
                        * box_add(divs[r], divs[j]).value
                    )
                    assert lhs == rhs


def test_signed_square_sum():
    for n in SQUAREFREE_SMALL:
        divs = _table(n).divisors
        phi, psi, _ = phi_psi_omega(n)
        assert sum(sgn(d) * d.value**2 for d in divs) == phi * psi


def test_psi_divisor_sum_identity():
    # sum over d | M of E*d/(E,d)^2 = psi(M) with E = gcd(D, M)
    for n in (6, 30, 42, 66):
        lvl = SquareFreeLevel(n)
        divs = _table(n).divisors
        for dd in divs:
            for mm in divs:
                e = gcd(dd.value, mm.value)
                psi_m = phi_psi_omega(mm.value)[1]
                total = Fraction(0)
                for d in divs:
                    if mm.value % d.value == 0:
                        total += Fraction(e * d.value, gcd(e, d.value) ** 2)
                assert total == psi_m


def test_prime_count_cap():
    lvl = SquareFreeLevel(2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47 * 53 * 59 * 61 * 67 * 71 * 73)
    try:
        DivisorTable(lvl)
    except ValueError:
        pass
    else:
        raise AssertionError("expected rejection past the prime-count cap")


def test_divisor_from_int_rejects_nondivisor():
    lvl = SquareFreeLevel(30)
    try:
        divisor_from_int(lvl, 4)
    except ValueError:
        pass
    else:
        raise AssertionError("expected rejection of a non-divisor")
