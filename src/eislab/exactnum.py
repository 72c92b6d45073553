"""Exact integers and integer-matrix normal forms.

Everything downstream (divisor tables, unit lattices, Hecke rings) runs on
the primitives in this module.  All arithmetic is exact; no floats anywhere.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain
from math import isqrt
from operator import index


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def is_prime(n: int) -> bool:
    """Primality by _factor, so n past its trial-division reach raises ValueError."""
    return n > 1 and _factor(n) == {n: 1}


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, by sieve."""
    if bound < 2:
        return []
    mark = bytearray([1]) * (bound + 1)
    mark[0] = mark[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if mark[p]:
            mark[p * p :: p] = bytearray(len(mark[p * p :: p]))
    return [i for i in range(2, bound + 1) if mark[i]]


TRIAL_DIVISION_LIMIT = 10**6


def _factor(n: int) -> dict[int, int]:
    """{p: e} with n = prod p^e for n >= 1, primes ascending, by trial division.

    Trial division stops at TRIAL_DIVISION_LIMIT; a cofactor left below the
    square of the next trial divisor is prime, and a larger one raises
    ValueError, so every input costs at most half a million divisions.
    """
    if n < 1:
        raise ValueError(f"only positive integers factor, got {n}")
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m and p <= TRIAL_DIVISION_LIMIT:
        while m % p == 0:
            m //= p
            out[p] = out.get(p, 0) + 1
        p += 1 if p == 2 else 2
    if p * p <= m:
        raise ValueError(
            f"{n} leaves a cofactor {m} with no prime factor up to"
            f" {TRIAL_DIVISION_LIMIT}, too large to certify prime by trial division"
        )
    if m > 1:
        out[m] = 1
    return out


def factor_squarefree(n: int) -> tuple[int, ...]:
    """Strictly increasing prime factors of a square-free n >= 1, by _factor.

    Raises ValueError when n is not square-free or _factor refuses it.
    """
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    factors = _factor(n)
    square = next((p for p, e in factors.items() if e > 1), None)
    if square is not None:
        raise ValueError(f"{n} is not square-free (divisible by {square}^2)")
    return tuple(factors)


def phi_psi_omega(n) -> tuple[int, int, int]:
    """(prod(p-1), prod(p+1), number of prime factors) for square-free n."""
    primes = getattr(n, "primes", None)
    if primes is None:
        primes = factor_squarefree(int(n))
    phi = 1
    psi = 1
    for p in primes:
        phi *= p - 1
        psi *= p + 1
    return phi, psi, len(primes)


class IntMatrix:
    """Dense integer matrix, row-major, immutable after construction.

    Production passes plain integer rows; this wrapper is left only as the
    return type of cuspgroup.principal_lattice_basis, and __mul__ only for
    the span that bench/tracing.py wraps around it.  Both go once that
    tracer stops reading them.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols: int | None = None):
        rows = [tuple(map(index, row)) for row in data]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            width = cols
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __getitem__(self, i):
        return self.data[i]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.cols, self.data))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r})"

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        return IntMatrix(_mul(self.data, other.data, other.cols), cols=other.cols)


# array('q') holds native-order 64-bit digits, so only on a little-endian
# machine do its bytes read as the packed integer; there it packs and
# unpacks at w = 64 in half the time of to_bytes/from_bytes per entry
_LITTLE = sys.byteorder == "little"


def _width(bound: int) -> int:
    """Digit width, a multiple of 64 bits, for signed digits of absolute value <= bound."""
    return 64 * (bound.bit_length() // 64 + 1)


def _bias(n: int, k: int) -> int:
    """2^(w-1) in each of n digits of k = w/8 bytes."""
    return int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")


def _pack_rows(rows, n: int, w: int) -> list[int]:
    """Each row of n entries x_c, |x_c| < 2^(w-1), as the integer sum x_c * 2^(w*c).

    w is a multiple of 64.  The entries are written as w-bit two's
    complements (one array('q') at w = 64 when _LITTLE), and XOR with the bias 2^(w-1)
    per digit turns each into x_c + 2^(w-1), which subtracting the bias
    undoes.  _unpack_rows is the inverse.
    """
    k = w // 8
    flat = chain.from_iterable(rows)
    if w == 64 and _LITTLE:
        raw = array("q", flat).tobytes()
    else:
        raw = b"".join(x.to_bytes(k, "little", signed=True) for x in flat)
    bias, size = _bias(n, k), n * k
    return [
        (int.from_bytes(raw[i:i + size], "little") ^ bias) - bias
        for i in range(0, len(rows) * size, size)
    ]


def _unpack_rows(packed: list[int], n: int, w: int) -> list[list[int]]:
    """The n digits of each x = sum d_c * 2^(w*c) in packed, given |d_c| < 2^(w-1).

    The inverse of _pack_rows: adding the bias 2^(w-1) to every digit makes
    them all non-negative with no carries, and XOR with the same bias then
    leaves each digit's w-bit two's complement.
    """
    k = w // 8
    bias = _bias(n, k)
    raw = b"".join(((x + bias) ^ bias).to_bytes(n * k, "little") for x in packed)
    if w == 64 and _LITTLE:
        flat = array("q", raw).tolist()
    else:
        flat = [
            int.from_bytes(raw[i:i + k], "little", signed=True)
            for i in range(0, len(raw), k)
        ]
    return [flat[i * n:(i + 1) * n] for i in range(len(packed))]


def _mul(a, b, bc: int) -> list[list[int]]:
    """Rows of the product a*b (bc columns), each one sum of packed rows of b.

    Every product entry is at most the largest row L1 norm of a times the
    largest entry of b, so at a width that keeps that below 2^(w-1) (and
    every entry of b below it too) the packed sum unpacks digit by digit.
    """
    if not bc:
        return [[] for _ in a]
    top = max(max(map(max, b), default=0), -min(map(min, b), default=0))
    l1 = max((sum(map(abs, row)) for row in a), default=0)
    w = _width(max(l1, 1) * top)
    packed = _pack_rows(b, bc, w)
    return _unpack_rows([sum(x * y for x, y in zip(row, packed) if x) for row in a], bc, w)


def _reduce_above_pivots(h: list[list[int]], pivots: list[int], start: int) -> None:
    """Make echelon rows with positive pivots an HNF: entries above pivots into [0, pivot).

    Only the pivots from row start on are cleared above: the rows before it
    must already be reduced against each other.  Columns go in ascending
    order: a row subtraction at one pivot column changes only later columns
    of the row it reduces.
    """
    for j in range(start, len(pivots)):
        c, row = pivots[j], h[j]
        for k in range(j):
            q = h[k][c] // row[c]
            if q:
                h[k] = [*h[k][:c], *[x - q * y for x, y in zip(h[k][c:], row[c:])]]


def _hnf_insert(h: list[list[int]], pivots: list[int], v) -> None:
    """Add the row v to the lattice of the HNF rows h, whose pivot columns are pivots.

    h and pivots change in place and stay an HNF.  v walks the pivot
    columns in order: a pivot that divides v's entry takes one row
    subtraction, otherwise an xgcd step replaces the pivot row by one with
    the gcd as its pivot and leaves v zero there.  What is left of v becomes
    a new pivot row (made positive) at its first nonzero column; a
    remainder that vanishes is dropped.  Then the entries above the pivots
    are reduced from the first row that changed on (_reduce_above_pivots);
    the rows before it are untouched.
    """
    start = len(h)  # the first row that changes
    i = c = 0
    while True:
        c = next((j for j in range(c, len(v)) if v[j]), None)
        if c is None:
            break
        while i < len(pivots) and pivots[i] < c:
            i += 1
        if i == len(pivots) or pivots[i] > c:
            h.insert(i, v if v[c] > 0 else [-x for x in v])
            pivots.insert(i, c)
            start = min(start, i)
            break
        row, x = h[i], v[c]
        # both rows vanish before column c
        if x % row[c] == 0:
            q = x // row[c]
            v = [0] * c + [a - q * b for a, b in zip(v[c:], row[c:])]
        else:
            e, s, t = xgcd(row[c], x)
            a, b = row[c] // e, x // e
            h[i] = [0] * c + [s * y + t * z for y, z in zip(row[c:], v[c:])]
            v = [0] * c + [a * z - b * y for y, z in zip(row[c:], v[c:])]
            start = min(start, i)
        i += 1
    _reduce_above_pivots(h, pivots, start)


def _echelon(rows) -> tuple[list[list[int]], list[int]]:
    """HNF rows of the lattice of rows, and their pivot columns, by _hnf_insert."""
    h: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        _hnf_insert(h, pivots, row)
    return h, pivots


def left_kernel(rows) -> list[list[int]]:
    """HNF basis (rows) of {x : x*M = 0} for the matrix M with these rows; saturated.

    One _echelon of [M | I]: the kernel rows are its rows whose M block is
    zero.  They come last, and their I blocks have positive pivots with the
    entries above reduced, so they are already the HNF of the kernel.
    """
    n = len(rows[0]) if rows else 0
    h, _ = _echelon([*r, *(int(i == j) for j in range(len(rows)))] for i, r in enumerate(rows))
    return [r[n:] for r in h if not any(r[:n])]
