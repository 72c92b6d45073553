"""Orders of cusp divisor classes on X0(N) for square-free N.

Two independent engines compute the order of the class of
sum_{d | M} (-1)^omega(d) P_d: a closed form, the numerator of
phi(N)psi(N/M)/24 times h with h in {1, 2}, and a lattice oracle that
intersects the eta-unit exponent lattice with its admissibility congruences
and asks for the smallest multiple of the class that becomes principal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

from .divlattice import SquareFreeLevel, _check_m, build_tables, divisor_values
from .exactnum import IntMatrix, _echelon, is_prime, phi_psi_omega

@dataclass(frozen=True)
class OrderResult:
    level: int
    m: int
    closed_form_order: int
    h: int
    oracle_order: int | None = None
    agreed: bool | None = None


def cuspidal_class(n, m) -> tuple[int, ...]:
    """Coefficients of sum_{d | M} (-1)^omega(d) P_d, one per d | N in divisor order."""
    level = SquareFreeLevel(n)
    m = _check_m(level, m)
    coeffs = tuple(
        (-1) ** sum(d % p == 0 for p in level.primes) if m % d == 0 else 0
        for d in divisor_values(level)
    )
    if sum(coeffs) != 0:
        raise RuntimeError("class must have degree zero")
    return coeffs


def _h_factor(level: SquareFreeLevel, m: int) -> int:
    if is_prime(m) and m % 8 == 1 and level.value in (m, 2 * m):
        return 2
    return 1


def order_closed_form(n, m) -> OrderResult:
    """Numerator of phi(N)*psi(N/M)/24 times h; h = 2 only for prime M = N or N/2, M = 1 mod 8."""
    level = SquareFreeLevel(n)
    m = _check_m(level, m)
    x = phi_psi_omega(level)[0] * phi_psi_omega(SquareFreeLevel(level.value // m))[1]
    h = _h_factor(level, m)
    order = x // gcd(x, 24) * h
    return OrderResult(level.value, m, order, h)


def principal_lattice_basis(n: int) -> IntMatrix:
    """HNF basis of the lattice of principal divisors supported on the cusps.

    They are the divisors of the admissible eta quotients prod eta_d^e_d:
    degree zero, sum(e_d * d) = 0 mod 24, sum(e_d * N/d) = 0 mod 24, and
    even exponent sums over each prime.  Degree zero fixes e_N = -sum of
    the others x, which leaves congruences x*B = 0 mod q = (24, 24, 2, ...,
    2) and the divisor x*(lambda_d - lambda_N)/24 over the rows lambda_d of
    24*Lambda.  One HNF of the rows (q_t e_t | 0), then (B_d mod q |
    lambda_d - lambda_N) from d_{s-1} down to d_1, the last cusp dropped,
    holds both: the system is square of determinant 576 * 2^n *
    (phi*psi)^(s/2) / psi, det 24*Lambda on the degree-0 hyperplane, and its
    s - 1 rows past the congruence columns are 24 times the HNF sought.  The
    last cusp comes back as minus the row sum.  Each failed certificate is a
    RuntimeError.  Not cached: level_orders calls it once per level.
    """
    level = SquareFreeLevel(n)
    values, lam24, _ = build_tables(level)
    s = len(values)
    phi, psi, _ = phi_psi_omega(level)
    if any(sum(row) != psi for row in lam24):
        raise RuntimeError("unit divisor must have degree zero: a row of 24*Lambda misses psi")
    moduli = [24, 24] + [2] * level.n
    k = len(moduli)
    rows = [[q * (t == u) for u in range(k + s - 1)] for t, q in enumerate(moduli)]
    last = lam24[-1]
    for d, lam in zip(values[-2::-1], lam24[-2::-1]):
        congruences = [d - level.value, level.value // d - 1]
        congruences += [-(d % p != 0) for p in level.primes]
        rows.append(
            [c % q for c, q in zip(congruences, moduli)]
            + [x - y for x, y in zip(lam[:-1], last)]
        )
    h, _ = _echelon(rows)
    if len(h) != k + s - 1 or prod(
        row[i] for i, row in enumerate(h)
    ) != (576 << level.n) * (phi * psi) ** (s // 2) // psi:
        raise RuntimeError(
            "congruence system must have full rank and determinant"
            " 576 * 2^n * (phi*psi)^(s/2) / psi"
        )
    tail = [row[k:] for row in h if not any(row[:k])]
    if len(tail) != s - 1:
        raise RuntimeError("principal lattice must fill the degree-0 hyperplane")
    basis = []
    for row in tail:
        if any(x % 24 for x in row):
            raise RuntimeError("unit divisor must be integral on every cusp")
        row = [x // 24 for x in row]
        basis.append(row + [-sum(row)])
    return IntMatrix(basis, cols=s)


@lru_cache(maxsize=None)
def level_orders(n: int) -> dict[int, int]:
    """{M: smallest k >= 1 with k * C_{M,N} principal} for every M | N, M > 1.

    One principal lattice per level serves every class.  A class sits
    inside the rational span of the lattice, so its image in span/lattice
    has order the lcm of its coordinate denominators.  The triangular HNF
    system is solved fraction-free: where a pivot does not divide the
    current entry, the order and the vector are scaled by pivot/gcd, which
    keeps the order the least common multiple so far.  The pivot columns
    are walked once, and each step touches only the columns from its pivot
    on, since the ones before are already zero.
    """
    level = SquareFreeLevel(n)
    basis = principal_lattice_basis(level.value).data
    orders = {}
    for m in divisor_values(level)[1:]:
        w = list(cuspidal_class(level, m))
        order, p = 1, 0
        for row in basis:
            while not row[p]:
                p += 1
            f = row[p] // gcd(w[p], row[p])
            if f > 1:
                order *= f
                w[p:] = [f * x for x in w[p:]]
            q = w[p] // row[p]
            if q:
                w[p:] = [x - q * y for x, y in zip(w[p:], row[p:])]
        if any(w):
            raise RuntimeError("class vector leaves the rational span of the lattice")
        orders[m] = order
    return orders


def order_lattice_oracle(n, m) -> int:
    """Smallest k >= 1 with k * C_{M,N} in the principal lattice, read from level_orders."""
    level = SquareFreeLevel(n)
    m = _check_m(level, m)
    return level_orders(level.value)[m]


def order_with_oracle(n, m) -> OrderResult:
    """Closed form plus oracle, with the agreement verdict filled in."""
    closed = order_closed_form(n, m)
    oracle = order_lattice_oracle(n, m)
    return OrderResult(
        closed.level,
        closed.m,
        closed.closed_form_order,
        closed.h,
        oracle_order=oracle,
        agreed=oracle == closed.closed_form_order,
    )
