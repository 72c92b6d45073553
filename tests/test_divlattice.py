from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, prod

import pytest

from eislab import divlattice
from eislab.cli import _squarefree_levels
from eislab.divlattice import SquareFreeLevel, build_tables, divisor_values
from eislab.exactnum import IntMatrix, phi_psi_omega
from test_exactnum import identity, scale


# The divisor algebra on plain int divisors of a square-free level N.

def divisor_from_int(level: SquareFreeLevel, d: int) -> int:
    """d itself, refused with ValueError unless it divides N."""
    if d < 1 or level.value % d:
        raise ValueError(f"{d} does not divide {level.value}")
    return d


def omega(level: SquareFreeLevel, d: int) -> int:
    """The number of level primes dividing d."""
    return sum(d % p == 0 for p in level.primes)


def prime_bits(level: SquareFreeLevel, d: int) -> list[int]:
    """The exponent bit-vector of d over the sorted level primes."""
    return [int(d % p == 0) for p in level.primes]


def box_add(level: SquareFreeLevel, a: int, b: int) -> int:
    """Group law on divisors: N*gcd(a, b)^2/(a*b), identity N."""
    a, b = divisor_from_int(level, a), divisor_from_int(level, b)
    return level.value * gcd(a, b) ** 2 // (a * b)


def sgn(level: SquareFreeLevel, d: int) -> int:
    """(-1)^(omega(N) - omega(d))."""
    return -1 if (level.n - omega(level, d)) % 2 else 1


def a_N(level: SquareFreeLevel, a: int, b: int) -> Fraction:
    """N/(a, N/a) * (a,b)^2 / (a*b); equals the integer a box b here."""
    a, b = divisor_from_int(level, a), divisor_from_int(level, b)
    n = level.value
    value = Fraction(n, gcd(a, n // a)) * Fraction(gcd(a, b) ** 2, a * b)
    if value.denominator != 1:
        raise RuntimeError("a_N must be integral for square-free N")
    return value


SQUAREFREE_SMALL = [
    n for n in range(2, 66) if all(n % (p * p) for p in (2, 3, 5, 7))
]


def _divs(n):
    return divisor_values(SquareFreeLevel(n))


def test_ordering_examples():
    assert list(_divs(10)) == [1, 2, 5, 10]
    assert list(_divs(30)) == [1, 2, 3, 5, 6, 10, 15, 30]


def test_order_is_omega_major():
    for n in SQUAREFREE_SMALL:
        lvl = SquareFreeLevel(n)
        divs = divisor_values(lvl)
        for a, b in zip(divs, divs[1:]):
            assert omega(lvl, a) < omega(lvl, b) or (
                omega(lvl, a) == omega(lvl, b) and prime_bits(lvl, a) > prime_bits(lvl, b)
            )


def test_complement_pairing():
    for n in SQUAREFREE_SMALL:
        divs = _divs(n)
        s = len(divs)
        for i in range(s):
            assert divs[i] * divs[s - 1 - i] == n


def test_box_add_examples():
    lvl = SquareFreeLevel(30)
    p1 = divisor_from_int(lvl, 2)
    assert box_add(lvl, p1, p1) == 30
    one = divisor_from_int(lvl, 1)
    for d in _divs(30):
        assert box_add(lvl, one, d) == 30 // d
        assert box_add(lvl, divisor_from_int(lvl, 30), d) == d


def test_box_group_structure():
    for n in (6, 30, 42):
        lvl = SquareFreeLevel(n)
        divs = _divs(n)
        iden = divisor_from_int(lvl, n)
        for a in divs:
            assert box_add(lvl, a, a) == iden
            for b in divs:
                assert box_add(lvl, a, b) == box_add(lvl, b, a)
                for c in divs:
                    assert box_add(lvl, box_add(lvl, a, b), c) == box_add(
                        lvl, a, box_add(lvl, b, c)
                    )
        # each translation permutes the divisor set
        for a in divs:
            assert {box_add(lvl, a, d) for d in divs} == set(divs)


def test_box_add_level_mismatch():
    # 5 divides 10 but not 6: a divisor of another level is refused
    lvl = SquareFreeLevel(6)
    a = divisor_from_int(lvl, 2)
    b = divisor_from_int(SquareFreeLevel(10), 5)
    try:
        box_add(lvl, a, b)
    except ValueError:
        pass
    else:
        raise AssertionError("expected level mismatch error")


def test_sgn_examples():
    lvl = SquareFreeLevel(30)
    assert sgn(lvl, divisor_from_int(lvl, 30)) == 1
    assert sgn(lvl, divisor_from_int(lvl, 1)) == (-1) ** 3
    assert sgn(lvl, divisor_from_int(lvl, 6)) == -1


def test_a_N_examples():
    lvl = SquareFreeLevel(30)
    one = divisor_from_int(lvl, 1)
    full = divisor_from_int(lvl, 30)
    for p in (2, 3, 5):
        dp = divisor_from_int(lvl, p)
        assert a_N(lvl, one, dp) == Fraction(30, p)
        assert a_N(lvl, full, dp) == p
    assert a_N(lvl, full, full) == 30


def test_a_N_equals_box_value():
    for n in SQUAREFREE_SMALL:
        lvl = SquareFreeLevel(n)
        divs = _divs(n)
        for a in divs:
            for b in divs:
                assert a_N(lvl, a, b) == box_add(lvl, a, b)


def test_build_tables_identity_n10():
    values, lam24, amat = build_tables(10)
    assert IntMatrix(lam24) * IntMatrix(amat) == scale(identity(4), 72)


def test_build_tables_identity_breach_raises(monkeypatch):
    # a failed identity is an invariant breach, a RuntimeError like every other
    monkeypatch.setattr(divlattice, "phi_psi_omega", lambda level: (1, 1, 0))
    with pytest.raises(RuntimeError, match=r"\(24\*Lambda\)\*A != phi\*psi\*I at N=10$"):
        build_tables(10)


def test_planted_box_entry_breaks_the_identity(monkeypatch):
    # the sixth gcd call misreports, so one box entry of 24*Lambda (and of A) is wrong
    calls = count(1)
    monkeypatch.setattr(divlattice, "gcd", lambda a, b: gcd(a, b) + (next(calls) == 6))
    with pytest.raises(RuntimeError, match=r"\(24\*Lambda\)\*A != phi\*psi\*I at N=30$"):
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
        assert values == build_tables(level)[0], level
        assert values == sorted_divisor_values(level), level


def test_lambda_entries_are_divisors():
    for n in (6, 15, 30, 42):
        values, lam24, _ = build_tables(n)
        assert len(lam24) == len(values)
        for row in lam24:
            assert set(row) <= set(values)


def test_lemma_box_symmetries():
    # parts (1) and (2) of the divisor-product lemma
    for n in SQUAREFREE_SMALL:
        lvl = SquareFreeLevel(n)
        divs, _, _ = build_tables(lvl)
        s = len(divs)
        for i in range(s):
            assert box_add(lvl, divs[i], divs[0]) == n // divs[i]
            assert box_add(lvl, divs[i], divs[0]) == divs[s - 1 - i]
            for j in range(s):
                dij = box_add(lvl, divs[i], divs[j])
                assert dij == box_add(lvl, divs[j], divs[i])
                assert dij == box_add(lvl, divs[s - 1 - i], divs[s - 1 - j])


def test_lemma_sign_multiplicativity():
    for n in SQUAREFREE_SMALL:
        lvl = SquareFreeLevel(n)
        divs = divisor_values(lvl)
        for a in divs:
            for b in divs:
                assert sgn(lvl, box_add(lvl, a, b)) == sgn(lvl, a) * sgn(lvl, b)


def test_lemma_exchange_identity():
    # d_ik * d_kj = d_ir * d_rj where d_rj = p_n * d_kj, valid whenever
    # the largest prime divides neither d_ij nor d_kj and i != j
    for n in (6, 10, 15, 30, 42, 66):
        lvl = SquareFreeLevel(n)
        divs, _, _ = build_tables(lvl)
        s = len(divs)
        pn = lvl.primes[-1]
        for i in range(s):
            for j in range(s):
                if i == j or box_add(lvl, divs[i], divs[j]) % pn == 0:
                    continue
                for k in range(s):
                    dkj = box_add(lvl, divs[k], divs[j])
                    if dkj % pn == 0:
                        continue
                    target = pn * dkj
                    r = next(
                        r
                        for r in range(s)
                        if box_add(lvl, divs[r], divs[j]) == target
                    )
                    lhs = box_add(lvl, divs[i], divs[k]) * dkj
                    rhs = box_add(lvl, divs[i], divs[r]) * box_add(lvl, divs[r], divs[j])
                    assert lhs == rhs


def test_signed_square_sum():
    for n in SQUAREFREE_SMALL:
        lvl = SquareFreeLevel(n)
        phi, psi, _ = phi_psi_omega(n)
        assert sum(sgn(lvl, d) * d**2 for d in divisor_values(lvl)) == phi * psi


def test_psi_divisor_sum_identity():
    # sum over d | M of E*d/(E,d)^2 = psi(M) with E = gcd(D, M)
    for n in (6, 30, 42, 66):
        divs = _divs(n)
        for dd in divs:
            for mm in divs:
                e = gcd(dd, mm)
                psi_m = phi_psi_omega(mm)[1]
                total = Fraction(0)
                for d in divs:
                    if mm % d == 0:
                        total += Fraction(e * d, gcd(e, d) ** 2)
                assert total == psi_m


def test_prime_count_cap():
    lvl = SquareFreeLevel(2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47 * 53 * 59 * 61 * 67 * 71 * 73)
    try:
        divisor_values(lvl)
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


def test_square_free_level_is_factored_once(monkeypatch):
    # a private intern table, so the count does not depend on earlier tests
    monkeypatch.setattr(SquareFreeLevel, "_interned", {})
    factored = []
    factor = divlattice.factor_squarefree
    monkeypatch.setattr(
        divlattice, "factor_squarefree", lambda n: factored.append(n) or factor(n)
    )
    level = SquareFreeLevel(30)
    assert SquareFreeLevel(30) is level
    assert SquareFreeLevel("30") is level
    assert SquareFreeLevel(level) is level
    assert (level.value, level.primes, level.n) == (30, (2, 3, 5), 3)
    assert factored == [30]
    for _ in range(2):
        with pytest.raises(ValueError, match="not square-free"):
            SquareFreeLevel(12)
    assert factored == [30, 12, 12]
    with pytest.raises(AttributeError):
        level.value = 31


def test_divisor_values_cached_per_level():
    level = SquareFreeLevel(2310)
    assert divisor_values(level) is divisor_values(SquareFreeLevel(2310))
