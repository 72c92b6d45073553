"""Divisor algebra of a square-free level N.

Divisors are plain ints; omega(d) is the number of level primes dividing d.
The total order is omega-major with an anti-lexicographic tie break on the
prime bits, so d_1 = 1, d_s = N and d_i * d_{s+1-i} = N throughout.  The
tables built here (24*Lambda and A) satisfy (24*Lambda) * A = phi(N)*psi(N) * I
exactly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd, prod
from operator import mul

from .exactnum import IntMatrix, factor_squarefree, phi_psi_omega

MAX_PRIME_COUNT = 20  # table size is 2^n rows; past this is out of desk scale


class SquareFreeLevel:
    """A square-free positive integer with its ordered prime factorization.

    Levels are interned: each value is factored once per process, and
    ``SquareFreeLevel(n)`` returns the one instance for int(n), or a level
    itself, so it is the one way to turn an argument into a level.  A value
    that is not square-free raises ValueError on every call.
    """

    __slots__ = ("value", "primes", "n")
    _interned: dict[int, "SquareFreeLevel"] = {}

    def __new__(cls, n):
        if isinstance(n, SquareFreeLevel):
            return n
        value = int(n)
        level = cls._interned.get(value)
        if level is None:
            primes = factor_squarefree(value)
            level = object.__new__(cls)
            object.__setattr__(level, "value", value)
            object.__setattr__(level, "primes", primes)
            object.__setattr__(level, "n", len(primes))
            cls._interned[value] = level
        return level

    def __setattr__(self, name, value):
        raise AttributeError("SquareFreeLevel is immutable")

    def __repr__(self):
        return f"SquareFreeLevel({self.value})"


def _check_m(level: SquareFreeLevel, m: int) -> int:
    """M as an int, refused with ValueError unless it divides the level and is not 1."""
    m = int(m)
    if m == 1 or m < 1 or level.value % m:
        raise ValueError(f"M must be a divisor of {level.value} other than 1, got {m}")
    return m


@lru_cache(maxsize=None)
def divisor_values(level: SquareFreeLevel) -> tuple[int, ...]:
    """The divisors of N in the canonical table order, as plain ints, cached per level.

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
