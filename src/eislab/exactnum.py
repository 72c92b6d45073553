"""Exact integers, rationals, and integer-matrix normal forms.

Everything downstream (divisor tables, unit lattices, Hecke rings) runs on
the primitives in this module.  All arithmetic is exact; no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, prod


def num(x, den=None):
    """Numerator of x in lowest terms; sign carried on the numerator."""
    if den is not None:
        x = Fraction(x, den)
    elif not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator


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
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d <= isqrt(n):
        if n % d == 0:
            return False
        d += 2
    return True


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


def factor_squarefree(n: int) -> tuple[int, ...]:
    """Strictly increasing prime factors of a square-free n >= 1.

    Raises ValueError when n is not square-free.  Trial division stops at
    TRIAL_DIVISION_LIMIT; a cofactor left below the square of the next
    trial divisor is prime, and a larger one raises ValueError, so every
    input costs at most half a million divisions.
    """
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    primes = []
    m = n
    p = 2
    while p * p <= m and p <= TRIAL_DIVISION_LIMIT:
        if m % p == 0:
            m //= p
            if m % p == 0:
                raise ValueError(f"{n} is not square-free (divisible by {p}^2)")
            primes.append(p)
        p += 1 if p == 2 else 2
    if p * p <= m:
        raise ValueError(
            f"{n} has no prime factor up to {TRIAL_DIVISION_LIMIT} and a cofactor"
            f" {m} too large to certify prime by trial division"
        )
    if m > 1:
        primes.append(m)
    return tuple(primes)


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
    """Dense integer matrix, row-major, immutable after construction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols: int | None = None):
        rows = [tuple(int(x) for x in row) for row in data]
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

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, r: int, c: int) -> "IntMatrix":
        return cls([[0] * c for _ in range(r)], cols=c)

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

    def tolist(self) -> list[list[int]]:
        return [list(r) for r in self.data]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        return IntMatrix(_mul(self.tolist(), other.tolist(), other.cols), cols=other.cols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch in matrix sum")
        return IntMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
            cols=self.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch in matrix difference")
        return IntMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
            cols=self.cols,
        )

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix([[k * x for x in row] for row in self.data], cols=self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)


def _mul(a: list[list[int]], b: list[list[int]], bc: int) -> list[list[int]]:
    out = []
    for row in a:
        acc = [0] * bc
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for j in range(bc):
                    acc[j] += x * brow[j]
        out.append(acc)
    return out


def _hnf_inplace(a: list[list[int]], u: list[list[int]] | None) -> int:
    """Row-style Hermite reduction of a; mirrors row ops into u.  Returns rank."""
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for j in range(n):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if a[i][j]:
                if piv is None:
                    piv = i
                    continue
                # two-row gcd step keeps the transform unimodular
                g, s, t = xgcd(a[piv][j], a[i][j])
                x, y = a[piv][j] // g, a[i][j] // g
                rp, ri = a[piv], a[i]
                a[piv] = [s * p + t * q for p, q in zip(rp, ri)]
                a[i] = [x * q - y * p for p, q in zip(rp, ri)]
                if u is not None:
                    rp, ri = u[piv], u[i]
                    u[piv] = [s * p + t * q for p, q in zip(rp, ri)]
                    u[i] = [x * q - y * p for p, q in zip(rp, ri)]
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        if u is not None:
            u[r], u[piv] = u[piv], u[r]
        if a[r][j] < 0:
            a[r] = [-x for x in a[r]]
            if u is not None:
                u[r] = [-x for x in u[r]]
        p = a[r][j]
        for i in range(r):
            if a[i][j]:
                q = a[i][j] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                if u is not None:
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return r


def hermite_normal_form(M: IntMatrix) -> IntMatrix:
    """Canonical basis of the row lattice of M: row-style HNF, zero rows dropped.

    Pivots are positive, entries above each pivot reduced into [0, pivot).
    """
    a = M.tolist()
    rank = _hnf_inplace(a, None)
    return IntMatrix(a[:rank], cols=M.cols)


def determinant(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination.

    Every division is exact, so entries never exceed the size of a minor.
    """
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], row_k)]
        prev = p
    return sign * prev


def hnf_mod_det(rows, d: int) -> IntMatrix:
    """Row HNF of a square nonsingular integer matrix, given d = |det(rows)|.

    Domich-Kannan-Trotter (Cohen, GTM 138, Algorithm 2.4.8): column j is
    cleared with gcd row operations on the rows without a pivot yet, all
    entries reduced modulo a running modulus R.  R starts at d; the lattice
    still to be reduced has determinant dividing R, so it contains R*Z^k and
    the reduction changes nothing.  Each pivot is gcd(column entry, R),
    which is R itself when the column is 0 mod R, and R is then divided by
    it.  A last pass reduces the entries above the pivots into [0, pivot),
    in ascending column order, giving the same canonical form as
    hermite_normal_form.  The reduction is sound for any multiple of |det|,
    but d must be |det| exactly: a ValueError is raised unless the pivots
    multiply to d.
    """
    n = len(rows)
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    if any(len(row) != n for row in rows):
        raise ValueError("hnf_mod_det needs a square matrix")
    # active rows keep only the columns from j on
    active = [[int(x) % d for x in row] for row in rows]
    out = []
    mod = d
    for j in range(n):
        head = [x % mod for x in active.pop()]
        if not head[0]:
            head[0] = mod
        for i, row in enumerate(active):
            x = row[0] % mod
            if not x:
                continue
            g, s, t = xgcd(head[0], x)
            a, b = head[0] // g, x // g
            head, active[i] = (
                [(s * p + t * q) % mod for p, q in zip(head, row)],
                [(a * q - b * p) % mod for p, q in zip(head, row)],
            )
        g, u, _ = xgcd(head[0], mod)
        out.append([0] * j + [g] + [u * x % mod for x in head[1:]])
        mod //= g
        active = [row[1:] for row in active]
    for j in range(n):
        row_j, p = out[j], out[j][j]
        for i in range(j):
            q = out[i][j] // p
            if q:
                out[i] = [x - q * y for x, y in zip(out[i], row_j)]
    pivots = prod(out[j][j] for j in range(n))
    if pivots != d:
        raise ValueError(f"d = {d} is not |det|: the pivots multiply to {pivots}")
    return IntMatrix(out, cols=n)


def hnf_with_transform(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """(H, U) with U unimodular, U*M = H, H in row HNF with zero rows kept."""
    a = M.tolist()
    u = [[1 if i == j else 0 for j in range(M.rows)] for i in range(M.rows)]
    _hnf_inplace(a, u)
    return IntMatrix(a, cols=M.cols), IntMatrix(u, cols=M.rows)


def left_kernel(M: IntMatrix) -> IntMatrix:
    """Basis (rows) of {x : x*M = 0}; saturated by construction."""
    h, u = hnf_with_transform(M)
    rows = [u.data[i] for i in range(M.rows) if all(x == 0 for x in h.data[i])]
    return IntMatrix(rows, cols=M.rows)


def saturation(M: IntMatrix) -> IntMatrix:
    """HNF basis of (Q-span of rows of M) intersected with Z^cols."""
    ker = left_kernel(M.transpose())
    return hermite_normal_form(left_kernel(ker.transpose()))


def hnf_coordinates(H: IntMatrix, v) -> list[int] | None:
    """Integer coordinates of v over the HNF rows of H, or None if outside."""
    w = [int(x) for x in v]
    if len(w) != H.cols:
        raise ValueError("vector length mismatch")
    coeffs = []
    for row in H.data:
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            coeffs.append(0)
            continue
        c, rem = divmod(w[p], row[p])
        if rem:
            return None
        if c:
            w = [x - c * y for x, y in zip(w, row)]
        coeffs.append(c)
    if any(w):
        return None
    return coeffs


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(U, D, V) with U*M*V = D diagonal, d_i | d_{i+1}, U and V unimodular."""
    m, n = M.rows, M.cols
    a = M.tolist()
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    t = 0
    while t < min(m, n):
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        u[t], u[i0] = u[i0], u[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        for row in v:
            row[t], row[j0] = row[j0], row[t]
        clean = False
        while not clean:
            clean = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        u[t], u[i] = u[i], u[t]
                        clean = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        for row in v:
                            row[t], row[j] = row[j], row[t]
                        clean = False
            if clean:
                p = a[t][t]
                stop = False
                for i in range(t + 1, m):
                    for j in range(t + 1, n):
                        if a[i][j] % p:
                            a[t] = [x + y for x, y in zip(a[t], a[i])]
                            u[t] = [x + y for x, y in zip(u[t], u[i])]
                            clean = False
                            stop = True
                            break
                    if stop:
                        break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return IntMatrix(u, cols=m), IntMatrix(a, cols=n), IntMatrix(v, cols=n)


def elementary_divisors(M: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, 1s included."""
    _, d, _ = smith_normal_form(M)
    out = []
    for i in range(min(d.rows, d.cols)):
        if d.data[i][i]:
            out.append(d.data[i][i])
    return tuple(out)
