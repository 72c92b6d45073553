"""Orders of cusp divisor classes on X0(N) for square-free N.

Two independent engines compute the order of the class of
sum_{d | M} (-1)^omega(d) P_d: a closed form num(phi(N)psi(N/M)/24)*h with
h in {1, 2}, and a lattice oracle that intersects the eta-unit exponent
lattice with its admissibility congruences and asks for the smallest
multiple of the class that becomes principal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from .divlattice import (
    DivisorTable,
    SquareFreeLevel,
    build_tables,
    sgn,
)
from .exactnum import (
    IntMatrix,
    elementary_divisors,
    hermite_normal_form,
    hnf_coordinates,
    is_prime,
    left_kernel,
    num,
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


def _level_of(n) -> SquareFreeLevel:
    return n if isinstance(n, SquareFreeLevel) else SquareFreeLevel(n)


def _check_m(level: SquareFreeLevel, m: int) -> int:
    m = int(m)
    if m == 1 or m < 1 or level.value % m:
        raise ValueError(f"M must be a divisor of {level.value} other than 1, got {m}")
    return m


def cuspidal_class(n, m) -> CuspidalDivisorClass:
    """Coefficient vector of sum_{d | M} (-1)^omega(d) P_d over the divisor order."""
    level = _level_of(n)
    m = _check_m(level, m)
    table = DivisorTable(level)
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
    """num(phi(N)*psi(N/M)/24) * h, h = 2 only for prime M = N or N/2 with M = 1 mod 8."""
    level = _level_of(n)
    m = _check_m(level, m)
    phi = phi_psi_omega(level)[0]
    psi_c = phi_psi_omega(level.value // m)[1]
    h = _h_factor(level, m)
    order = num(Fraction(phi * psi_c, 24)) * h
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
    """Generators (rows) of the admissible exponent vectors on eta generators.

    Admissible means: degree zero, sum(e_d * d) = 0 mod 24,
    sum(e_d * N/d) = 0 mod 24, and prod(d^e_d) a rational square.  The
    square condition is the per-prime exponent parity; congruences are
    encoded through auxiliary unknowns and projected away.
    """
    level = _level_of(n)
    table, _, _ = _tables(level.value)
    s = len(table)
    nprimes = level.n
    cols = 3 + nprimes
    rows = []
    for d in table.divisors:
        rows.append(
            [1, d.value, level.value // d.value]
            + [b for b in d.bits]
        )
    rows.append([0, 24, 0] + [0] * nprimes)
    rows.append([0, 0, 24] + [0] * nprimes)
    for t in range(nprimes):
        aux = [0, 0, 0] + [0] * nprimes
        aux[3 + t] = 2
        rows.append(aux)
    kernel = left_kernel(IntMatrix(rows, cols=cols))
    projected = [row[:s] for row in kernel.data]
    return hermite_normal_form(IntMatrix(projected, cols=s))


@lru_cache(maxsize=None)
def principal_lattice_basis(n: int) -> IntMatrix:
    """HNF basis of the lattice of principal divisors supported on the cusps."""
    level = SquareFreeLevel(n)
    table, lam24, _ = _tables(level.value)
    s = len(table)
    exps = unit_exponent_lattice(level)
    gens = []
    for e in exps.data:
        v = [sum(e[j] * lam24[j][i] for j in range(s)) for i in range(s)]
        row = []
        for x in v:
            q, r = divmod(x, 24)
            if r:
                raise RuntimeError("unit divisor must be integral on every cusp")
            row.append(q)
        gens.append(row)
    basis = hermite_normal_form(IntMatrix(gens, cols=s))
    if basis.rows != s - 1:
        raise RuntimeError("principal lattice must fill the degree-0 hyperplane")
    return basis


def _rational_coordinates(basis: IntMatrix, v) -> list[Fraction]:
    """Coordinates of v over the HNF rows of basis, solved over the rationals."""
    w = [Fraction(x) for x in v]
    coeffs = []
    for row in basis.data:
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            coeffs.append(Fraction(0))
            continue
        c = w[p] / row[p]
        if c:
            w = [x - c * y for x, y in zip(w, row)]
        coeffs.append(c)
    if any(w):
        raise RuntimeError("class vector leaves the rational span of the lattice")
    return coeffs


def order_lattice_oracle(n, m) -> int:
    """Smallest k >= 1 with k * C_{M,N} in the principal lattice.

    The class sits inside the rational span of the lattice, so its image in
    span/lattice has order lcm of the coordinate denominators.  Solving the
    triangular HNF system stays cheap even where a covolume comparison via
    Smith form hits intermediate coefficient blow-up (first at N = 210).
    """
    level = _level_of(n)
    m = _check_m(level, m)
    basis = principal_lattice_basis(level.value)
    coeffs = cuspidal_class(level, m).coeffs
    x = _rational_coordinates(basis, coeffs)
    order = 1
    for c in x:
        order = order * c.denominator // gcd(order, c.denominator)
    return order


def order_by_covolume(n, m) -> int:
    """Covolume-ratio route: index drop when the class joins the lattice.

    Two Smith forms per call; exact but slow at 4-prime levels.  Kept as an
    independent small-level cross-check for the solver above.
    """
    level = _level_of(n)
    m = _check_m(level, m)
    basis = principal_lattice_basis(level.value)
    coeffs = cuspidal_class(level, m).coeffs
    ed_l = prod(elementary_divisors(basis))
    enlarged = IntMatrix(list(basis.data) + [coeffs], cols=basis.cols)
    ed_e = prod(elementary_divisors(enlarged))
    k, rem = divmod(ed_l, ed_e)
    if rem:
        raise RuntimeError("lattice covolumes must divide")
    return k


def order_by_search(n, m, k_max: int = 100000) -> int:
    """Brute-force cross-check: step k until k * C lands in the lattice."""
    level = _level_of(n)
    m = _check_m(level, m)
    basis = principal_lattice_basis(level.value)
    coeffs = cuspidal_class(level, m).coeffs
    for k in range(1, k_max + 1):
        if hnf_coordinates(basis, [k * c for c in coeffs]) is not None:
            return k
    raise AssertionError(f"no multiple of the class up to {k_max} is principal")


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


def e_vector(n, m) -> list[Fraction]:
    """The exponent vector Lambda^{-1} C_{M,N}, computed two ways.

    Closed form entry a: sgn(d_{s+1-a}) * 24/(phi(N)psi(N/M)) *
    d_{s+1-a}/(d_{s+1-a}, M).  The linear-algebra route multiplies the
    inverse table matrix against the class vector.  Both must agree.
    """
    level = _level_of(n)
    m = _check_m(level, m)
    table, _, amat = _tables(level.value)
    s = len(table)
    phi, psi, _ = phi_psi_omega(level)
    psi_c = phi_psi_omega(level.value // m)[1]
    coeffs = cuspidal_class(level, m).coeffs
    solved = [
        Fraction(24, phi * psi)
        * sum(amat[a][j] * coeffs[j] for j in range(s))
        for a in range(s)
    ]
    closed = []
    for a in range(s):
        dual = table.divisors[s - 1 - a].value
        closed.append(
            sgn(table.divisors[s - 1 - a])
            * Fraction(24, phi * psi_c)
            * Fraction(dual, gcd(dual, m))
        )
    if solved != closed:
        raise RuntimeError("E-vector routes disagree")
    return closed


def cuspidal_group_structure(n) -> tuple[int, ...]:
    """Elementary divisors (> 1) of degree-zero cusp divisors modulo principal ones."""
    level = _level_of(n)
    basis = principal_lattice_basis(level.value)
    s = basis.cols
    coords = []
    for row in basis.data:
        acc = 0
        pref = []
        for j in range(s - 1):
            acc += row[j]
            pref.append(acc)
        coords.append(pref)
    divisors = elementary_divisors(IntMatrix(coords, cols=s - 1))
    if len(divisors) != s - 1:
        raise RuntimeError("quotient must be finite")
    return tuple(d for d in divisors if d > 1)
