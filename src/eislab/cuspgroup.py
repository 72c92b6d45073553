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
from operator import mul

from .divlattice import SquareFreeLevel, _check_m, build_tables
from .exactnum import (
    IntMatrix,
    hermite_normal_form,
    is_prime,
    phi_psi_omega,
)

THEOREM_MIN_LEVEL = 7  # smaller square-free levels run but are flagged


@dataclass(frozen=True)
class CuspidalDivisorClass:
    level: SquareFreeLevel
    m: int
    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class OrderResult:
    level: int
    m: int
    closed_form_order: int
    h: int
    oracle_order: int | None = None
    agreed: bool | None = None
    outside_hypothesis: bool = False


def cuspidal_class(n, m) -> CuspidalDivisorClass:
    """Coefficient vector of sum_{d | M} (-1)^omega(d) P_d over the divisor order."""
    level = SquareFreeLevel(n)
    m = _check_m(level, m)
    table = _tables(level.value)[0]
    coeffs = tuple(
        (-1) ** d.omega if m % d.value == 0 else 0 for d in table.divisors
    )
    if sum(coeffs) != 0:
        raise RuntimeError("class must have degree zero")
    return CuspidalDivisorClass(level, m, coeffs)


def _h_factor(level: SquareFreeLevel, m: int) -> int:
    if is_prime(m) and m % 8 == 1 and level.value in (m, 2 * m):
        return 2
    return 1


def order_closed_form(n, m) -> OrderResult:
    """Numerator of phi(N)*psi(N/M)/24 times h; h = 2 only for prime M = N or N/2, M = 1 mod 8."""
    level = SquareFreeLevel(n)
    m = _check_m(level, m)
    x = phi_psi_omega(level)[0] * phi_psi_omega(level.value // m)[1]
    h = _h_factor(level, m)
    order = x // gcd(x, 24) * h
    return OrderResult(
        level.value,
        m,
        order,
        h,
        outside_hypothesis=level.value < THEOREM_MIN_LEVEL,
    )


@lru_cache(maxsize=None)
def _tables(n: int):
    return build_tables(SquareFreeLevel(n))


def unit_exponent_lattice(n) -> IntMatrix:
    """HNF basis (rows) of the admissible exponent vectors on eta generators.

    Admissible means: degree zero, sum(e_d * d) = 0 mod 24,
    sum(e_d * N/d) = 0 mod 24, and prod(d^e_d) a rational square, i.e. even
    exponent sums over each prime.  Degree zero fixes e_N = -sum of the
    others, which turns the rest into congruences x*B = 0 mod
    (24, 24, 2, ..., 2) on the other s - 1 exponents x.  The lattice of
    (x*B + y*diag(24, 24, 2, ..., 2), x) has full rank and determinant
    576 * 2^n, so its HNF is square with that pivot product (a RuntimeError
    otherwise); the rows with zeros in the congruence columns are the HNF of
    the x.
    """
    level = SquareFreeLevel(n)
    table, _, _ = _tables(level.value)
    s = len(table)
    moduli = [24, 24] + [2] * level.n
    k = len(moduli)
    rows = []
    for i, d in enumerate(table.divisors[:-1]):
        unit = [0] * (s - 1)
        unit[i] = 1
        congruences = [d.value - level.value, level.value // d.value - 1]
        congruences += [b - 1 for b in d.bits]
        rows.append([c % q for c, q in zip(congruences, moduli)] + unit)
    for t, q in enumerate(moduli):
        row = [0] * (k + s - 1)
        row[t] = q
        rows.append(row)
    h = hermite_normal_form(IntMatrix(rows, cols=k + s - 1))
    pivots = [row[i] for i, row in enumerate(h.data)]
    if len(pivots) != k + s - 1 or prod(pivots) != 576 << level.n:
        raise RuntimeError("congruence system must have full rank and determinant 576 * 2^n")
    return IntMatrix(
        [list(row[k:]) + [-sum(row[k:])] for row in h.data[k:]], cols=s
    )


@lru_cache(maxsize=None)
def principal_lattice_basis(n: int) -> IntMatrix:
    """HNF basis of the lattice of principal divisors supported on the cusps.

    Principal divisors have degree zero, so dropping the last cusp leaves a
    square system that must have full rank s - 1 (a RuntimeError otherwise);
    the last coordinate of its HNF is put back as minus the row sum.
    """
    level = SquareFreeLevel(n)
    table, lam24, _ = _tables(level.value)
    s = len(table)
    exps = unit_exponent_lattice(level)
    columns = list(zip(*lam24.data))
    gens = []
    for e in exps.data:
        v = [sum(map(mul, e, col)) for col in columns]
        if sum(v):
            raise RuntimeError("unit divisor must have degree zero")
        row = []
        for x in v[:-1]:
            q, r = divmod(x, 24)
            if r:
                raise RuntimeError("unit divisor must be integral on every cusp")
            row.append(q)
        gens.append(row)
    h = hermite_normal_form(IntMatrix(gens, cols=s - 1))
    if h.rows != s - 1:
        raise RuntimeError("principal lattice must fill the degree-0 hyperplane")
    return IntMatrix([list(row) + [-sum(row)] for row in h.data], cols=s)


def order_lattice_oracle(n, m) -> int:
    """Smallest k >= 1 with k * C_{M,N} in the principal lattice.

    The class sits inside the rational span of the lattice, so its image in
    span/lattice has order the lcm of its coordinate denominators.  The
    triangular HNF system is solved fraction-free: where a pivot does not
    divide the current entry, the order and the vector are scaled by
    pivot/gcd, which keeps the order the least common multiple so far.
    """
    level = SquareFreeLevel(n)
    m = _check_m(level, m)
    basis = principal_lattice_basis(level.value)
    w = list(cuspidal_class(level, m).coeffs)
    order = 1
    for row in basis.data:
        p = next(j for j, x in enumerate(row) if x)
        f = row[p] // gcd(w[p], row[p])
        if f > 1:
            order *= f
            w = [f * x for x in w]
        q = w[p] // row[p]
        if q:
            w = [x - q * y for x, y in zip(w, row)]
    if any(w):
        raise RuntimeError("class vector leaves the rational span of the lattice")
    return order


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
        outside_hypothesis=closed.outside_hypothesis,
    )
