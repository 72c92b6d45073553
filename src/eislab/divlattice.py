"""Divisor algebra of a square-free level N.

Divisors are plain ints; omega(d) is the number of level primes dividing d.
The total order is omega-major with an anti-lexicographic tie break on the
prime bits, so d_1 = 1, d_s = N and d_i * d_{s+1-i} = N throughout.  The
tables built here (24*Lambda and A) satisfy (24*Lambda) * A = phi(N)*psi(N) * I
exactly.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, prod
from operator import mul

from .exactnum import IntMatrix, factor_squarefree, phi_psi_omega

MAX_PRIME_COUNT = 20  # table size is 2^n rows; past this is out of desk scale


class SquareFreeLevel:
    """A square-free positive integer with its ordered prime factorization.

    Given a SquareFreeLevel it copies it without factoring again, so
    ``SquareFreeLevel(n)`` is the one way to turn an argument into a level.
    """

    __slots__ = ("value", "primes", "n")

    def __init__(self, n):
        if isinstance(n, SquareFreeLevel):
            value, primes = n.value, n.primes
        else:
            value = int(n)
            primes = factor_squarefree(value)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "n", len(primes))

    def __setattr__(self, name, value):
        raise AttributeError("SquareFreeLevel is immutable")

    def __eq__(self, other):
        return isinstance(other, SquareFreeLevel) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"SquareFreeLevel({self.value})"


def _check_m(level: SquareFreeLevel, m: int) -> int:
    """M as an int, refused with ValueError unless it divides the level and is not 1."""
    m = int(m)
    if m == 1 or m < 1 or level.value % m:
        raise ValueError(f"M must be a divisor of {level.value} other than 1, got {m}")
    return m


def divisor_values(level: SquareFreeLevel) -> tuple[int, ...]:
    """The divisors of N in the canonical table order, as plain ints.

    omega first; ties broken anti-lexicographically on the prime bits
    (larger leading bit earlier), giving 1, p1, p2, ..., N.  For a fixed
    omega that is the order in which combinations() picks the primes.
    """
    if level.n > MAX_PRIME_COUNT:
        raise ValueError(
            f"level has {level.n} prime factors; tables stop at {MAX_PRIME_COUNT}"
        )
    return tuple(
        prod(ps) for k in range(level.n + 1) for ps in combinations(level.primes, k)
    )


def build_tables(n) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
    """(divisor_values, 24*Lambda, A) for square-free n; identity checked.

    Entry (a, b) of 24*Lambda is a box b = N*gcd(a, b)^2/(a*b), the product
    of the primes on which a and b agree; A carries it with the sign
    sgn(a box b) = (-1)^(omega(a) + omega(b)), omega(d) being the number of
    level primes dividing d.
    """
    level = SquareFreeLevel(n)
    values = divisor_values(level)
    signs = [(-1) ** sum(d % p == 0 for p in level.primes) for d in values]
    box_vals = [
        [level.value * gcd(a, b) ** 2 // (a * b) for b in values] for a in values
    ]
    lam24 = IntMatrix(box_vals)
    amat = IntMatrix(
        [
            [sa * sb * x for sb, x in zip(signs, row)]
            for sa, row in zip(signs, box_vals)
        ]
    )
    phi, psi, _ = phi_psi_omega(level)
    columns = list(zip(*amat.data))
    for i, row in enumerate(lam24.data):
        for j, col in enumerate(columns):
            if sum(map(mul, row, col)) != (phi * psi if i == j else 0):
                raise RuntimeError(f"(24*Lambda)*A != phi*psi*I at N={level.value}")
    return values, lam24, amat
