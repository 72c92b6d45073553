from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from operator import index

import pytest

from eislab import exactnum
from eislab.exactnum import (
    IntMatrix,
    _echelon,
    _factor,
    _hnf_insert,
    _mul,
    _width,
    factor_squarefree,
    is_prime,
    left_kernel,
    phi_psi_omega,
    xgcd,
)


# Moved from eislab.exactnum, which has no caller of them left: the membership
# solve over an HNF, the Smith form (cuspidal_group_structure, in
# test_cuspgroup, is its one caller), IntMatrix.is_zero, .scale,
# .transpose, .identity and .tolist, and the IntMatrix Hermite forms
# hermite_normal_form and hnf_with_transform (production echelonizes plain
# rows with _echelon).

def identity(n: int) -> IntMatrix:
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def tolist(m: IntMatrix) -> list[list[int]]:
    return [list(r) for r in m.data]


def hermite_normal_form(M: IntMatrix) -> IntMatrix:
    """Canonical basis of the row lattice of M: row-style HNF, zero rows dropped.

    Pivots are positive, entries above each pivot reduced into [0, pivot).
    """
    h, _ = _echelon(M.data)
    return IntMatrix(h, cols=M.cols)


def _augmented(M: IntMatrix):
    """The rows (x*M, x) of [M | I], x running over the unit vectors."""
    for i, row in enumerate(M.data):
        yield [*row, *(int(i == j) for j in range(M.rows))]


def hnf_with_transform(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """(H, U) with U unimodular, U*M = H, H in row HNF with zero rows kept.

    One HNF of [M | I]: it has M.rows rows, those with a pivot in M's
    columns first, and H and U are its two blocks.
    """
    n = M.cols
    h, _ = _echelon(_augmented(M))
    return IntMatrix([r[:n] for r in h], cols=n), IntMatrix([r[n:] for r in h], cols=M.rows)


def kernel(M: IntMatrix) -> IntMatrix:
    """left_kernel of the rows of M, as a matrix of M.rows columns."""
    return IntMatrix(left_kernel(M.data), cols=M.rows)


def is_zero(m: IntMatrix) -> bool:
    return all(x == 0 for row in m.data for x in row)


def scale(m: IntMatrix, k: int) -> IntMatrix:
    """k * m, entrywise."""
    return IntMatrix([[k * x for x in row] for row in m.data], cols=m.cols)


def mat_sum(*ms: IntMatrix) -> IntMatrix:
    """The entrywise sum of matrices of one shape."""
    if len({(m.rows, m.cols) for m in ms}) != 1:
        raise ValueError("dimension mismatch in matrix sum")
    return IntMatrix([list(map(sum, zip(*rows))) for rows in zip(*(m.data for m in ms))],
                     cols=ms[0].cols)


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix(
        [[m.data[i][j] for i in range(m.rows)] for j in range(m.cols)],
        cols=m.rows,
    )


def hnf_coordinates(H: IntMatrix, v) -> list[int] | None:
    """Integer coordinates of v over the HNF rows of H, or None if outside.

    Each pivot is looked for after the previous one, and a row is
    subtracted from its pivot column on, where all of its entries are.
    """
    w = list(map(index, v))
    if len(w) != H.cols:
        raise ValueError("vector length mismatch")
    coeffs = []
    p = 0
    for row in H.data:
        p = next((j for j in range(p, H.cols) if row[j]), None)
        if p is None:
            coeffs.extend([0] * (H.rows - len(coeffs)))
            break
        c, rem = divmod(w[p], row[p])
        if rem:
            return None
        if c:
            w[p:] = [x - c * y for x, y in zip(w[p:], row[p:])]
        coeffs.append(c)
        p += 1
    if any(w):
        return None
    return coeffs


def elementary_divisors(M: IntMatrix) -> tuple[int, ...]:
    """Smith form diagonal d_1 | d_2 | ... | d_n of a square nonsingular M, 1s included.

    Kannan-Bachem (Cohen, GTM 138, section 2.4): the row HNF is taken of the
    matrix and then of its transpose, in turn, until it is diagonal
    (_smith_from_hnf).  Raises ValueError unless M is square and of full
    rank, which the HNF shows as one row per column.
    """
    if M.rows != M.cols:
        raise ValueError("elementary_divisors needs a square matrix")
    h = hermite_normal_form(M)
    if h.rows != M.rows:
        raise ValueError("elementary_divisors needs a nonsingular matrix")
    return _smith_from_hnf(h)


def _smith_from_hnf(h: IntMatrix) -> tuple[int, ...]:
    """Smith form diagonal of a square nonsingular row HNF h.

    The transpose is put into row HNF in turn until it is diagonal.
    Unimodular row operations and transposes leave Z^n / Z^n h the same
    group up to isomorphism, and every HNF has its entries reduced below
    its pivots, whose product stays |det h|.  The diagonal is then put into
    a divisibility chain, (d_i, d_j) -> (gcd, lcm) for i < j.
    """
    while any(x for i, row in enumerate(h.data) for x in row[i + 1:]):
        h = hermite_normal_form(transpose(h))
    diag = [h[i][i] for i in range(h.rows)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return tuple(diag)


def saturation(M: IntMatrix) -> IntMatrix:
    """HNF basis of (Q-span of rows of M) intersected with Z^cols."""
    ker = kernel(transpose(M))
    return hermite_normal_form(kernel(transpose(ker)))


def _hnf_inplace(a: list[list[int]], u: list[list[int]] | None) -> int:
    """Row-style Hermite reduction of a; mirrors row ops into u.  Returns rank.

    Pairwise xgcd steps down each column, then the entries above the new
    pivot are reduced: the reference every row-insertion HNF is checked on.
    """
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


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(U, D, V) with U*M*V = D diagonal, d_i | d_{i+1}, U and V unimodular.

    Pivoting on the smallest entry with unreduced row and column
    operations: the reference every Smith form is checked on.
    """
    m, n = M.rows, M.cols
    a = tolist(M)
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


def reference_elementary_divisors(M: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the reference Smith form, 1s included; any shape."""
    _, d, _ = smith_normal_form(M)
    return tuple(d[i][i] for i in range(min(d.rows, d.cols)) if d[i][i])


def reference_hnf(M: IntMatrix) -> IntMatrix:
    """Row HNF of M, zero rows dropped, by the pairwise-xgcd reference."""
    a = tolist(M)
    rank = _hnf_inplace(a, None)
    return IntMatrix(a[:rank], cols=M.cols)


def left_inverse_by_full_fold(M: IntMatrix) -> IntMatrix | None:
    """S with S*M = I, or None: the fold of every row of [M | I] (hnf_with_transform).

    The rows of M span Z^cols exactly when the first cols rows of the HNF
    are I; the transform's first cols rows are then S.
    """
    n = M.cols
    h, u = hnf_with_transform(M)
    if h.rows < n or IntMatrix(h.data[:n], cols=n) != identity(n):
        return None
    return IntMatrix(u.data[:n], cols=M.rows)


def reference_hnf_with_transform(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """(H, U) with U*M = H, zero rows kept, by the pairwise-xgcd reference."""
    a = tolist(M)
    u = [[int(i == j) for j in range(M.rows)] for i in range(M.rows)]
    _hnf_inplace(a, u)
    return IntMatrix(a, cols=M.cols), IntMatrix(u, cols=M.rows)


def _det(m: list[list[int]]) -> int:
    # cofactor expansion, oracle only, sizes <= 5
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det(minor)
    return total


def determinant(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination.

    Every division is exact, so entries never exceed the size of a minor;
    the reference for blocks too large for the cofactor expansion.
    """
    a = [list(row) for row in rows]
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


def _divisor_chain_oracle(m: list[list[int]]) -> list[int]:
    # determinantal divisors: gcd of all k x k minors, independent of any
    # elimination strategy.  Each k x k minor is expanded along its first
    # row over the (k - 1) x (k - 1) minors kept from the step before.
    rows, cols = len(m), len(m[0])
    minors = {((), ()): 1}
    chain = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        step = {}
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                x = sum(
                    (-1) ** j * m[ri[0]][c] * minors[ri[1:], ci[:j] + ci[j + 1:]]
                    for j, c in enumerate(ci)
                )
                step[ri, ci] = x
                g = gcd(g, x)
        if g == 0:
            break
        minors = step
        chain.append(g // prev)
        prev = g
    return chain


def _rand_matrix(rng, r, c, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def test_xgcd():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        g, s, t = xgcd(a, b)
        assert g == gcd(a, b)
        assert s * a + t * b == g


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime(n) == (n in primes)


def test_factor_squarefree():
    assert factor_squarefree(1) == ()
    assert factor_squarefree(30) == (2, 3, 5)
    assert factor_squarefree(17) == (17,)
    for bad in (4, 12, 18, 0, -6):
        try:
            factor_squarefree(bad)
        except ValueError:
            pass
        else:
            raise AssertionError(f"expected ValueError for {bad}")


def test_factor_squarefree_bounded_trial_division():
    # a cofactor below 10^12 with no factor up to 10^6 is prime
    assert factor_squarefree(999999999989) == (999999999989,)
    assert factor_squarefree(2 * 3 * 999999999989) == (2, 3, 999999999989)
    # anything larger cannot be certified by trial division and is refused
    for hard in (10**18 + 3, 1000003 * 1000033, 2 * 1000003 * 1000033):
        try:
            factor_squarefree(hard)
        except ValueError as exc:
            assert "too large to certify prime" in str(exc)
        else:
            raise AssertionError(f"expected ValueError for {hard}")


def test_factor_reassembles():
    rng = random.Random(17)
    for n in [1, 2, 1024, 999999999989 * 9, *(rng.randint(1, 10**9) for _ in range(200))]:
        factors = _factor(n)
        assert list(factors) == sorted(factors)
        assert all(is_prime(p) and e > 0 for p, e in factors.items())
        assert prod(p**e for p, e in factors.items()) == n
    assert _factor(2**10 * 3**4 * 1000003) == {2: 10, 3: 4, 1000003: 1}
    for bad in (0, -5):
        with pytest.raises(ValueError):
            _factor(bad)


def test_is_prime_bounded():
    assert is_prime(999999999989) and not is_prime(999999999989 * 3)
    with pytest.raises(ValueError, match="too large to certify prime"):
        is_prime(10**18 + 3)


def test_phi_psi_omega_examples():
    assert phi_psi_omega(30) == (8, 72, 3)
    assert phi_psi_omega(1) == (1, 1, 0)
    assert phi_psi_omega(11) == (10, 12, 1)


def test_snf_identity():
    m = identity(3)
    u, d, v = smith_normal_form(m)
    assert d == m


def test_snf_diag_2_3():
    m = IntMatrix([[2, 0], [0, 3]])
    u, d, v = smith_normal_form(m)
    assert [d[0][0], d[1][1]] == [1, 6]
    # oracle: first divisor is the gcd of entries, product is |det|
    assert gcd(2, 3) == 1
    assert abs(_det(tolist(m))) == 6
    assert u * m * v == d


def test_snf_zero():
    m = IntMatrix([[0] * 3 for _ in range(2)])
    _, d, _ = smith_normal_form(m)
    assert is_zero(d)


def test_snf_random_properties():
    rng = random.Random(7)
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = IntMatrix(_rand_matrix(rng, r, c))
        u, d, v = smith_normal_form(m)
        assert u * m * v == d
        assert abs(_det(tolist(u))) == 1
        assert abs(_det(tolist(v))) == 1
        diag = [d[i][i] for i in range(min(r, c))]
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d[i][j] == 0
        chain = _divisor_chain_oracle(tolist(m))
        assert list(reference_elementary_divisors(m)) == chain
        if r == c and _det(tolist(m)):
            assert list(elementary_divisors(m)) == chain


def test_snf_permutation_invariance():
    rng = random.Random(11)
    for _ in range(40):
        r = rng.randint(2, 4)
        c = rng.randint(2, 4)
        rows = _rand_matrix(rng, r, c)
        # elementary_divisors takes square nonsingular input only
        snf = elementary_divisors if r == c and _det(rows) else reference_elementary_divisors
        ed = snf(IntMatrix(rows))
        shuffled = rows[:]
        rng.shuffle(shuffled)
        perm = list(range(c))
        rng.shuffle(perm)
        shuffled = [[row[p] for p in perm] for row in shuffled]
        assert snf(IntMatrix(shuffled)) == ed


def test_snf_product_is_abs_det():
    rng = random.Random(13)
    checked = 0
    while checked < 30:
        n = rng.randint(1, 5)
        m = _rand_matrix(rng, n, n, -6, 6)
        det = _det(m)
        if det == 0:
            continue
        assert prod(elementary_divisors(IntMatrix(m))) == abs(det)
        checked += 1


def test_elementary_divisors_match_reference():
    # entries in [-2, 2] keep the unreduced reference fast up to size 8;
    # P * D * Q with a random diagonal D gives longer divisor chains
    rng = random.Random(29)
    for n in range(1, 9):
        small = []
        while len(small) < 6:
            m = IntMatrix(_rand_matrix(rng, n, n, -2, 2))
            if determinant(m.data):
                small.append(m)
        for m in small:
            assert elementary_divisors(m) == reference_elementary_divisors(m), m
        chained = []
        while len(chained) < 4:
            p, q = _rand_matrix(rng, n, n, -3, 3), _rand_matrix(rng, n, n, -3, 3)
            d = [[rng.choice((1, 2, 3, 4, 6, 12)) * (i == j) for j in range(n)] for i in range(n)]
            m = IntMatrix(p) * IntMatrix(d) * IntMatrix(q)
            if determinant(m.data):
                chained.append(m)
        for m in small + chained:
            ed = elementary_divisors(m)
            assert list(ed) == _divisor_chain_oracle(tolist(m)), m
            assert all(b % a == 0 for a, b in zip(ed, ed[1:])), m


@pytest.mark.parametrize(
    "rows", [[[1, 2, 3]], [[1, 2], [2, 4]], [[0, 0], [0, 0]], [[1], [2]]]
)
def test_elementary_divisors_reject_singular_or_nonsquare(rows):
    with pytest.raises(ValueError):
        elementary_divisors(IntMatrix(rows))


def test_hnf_identity():
    m = identity(4)
    assert hermite_normal_form(m) == m


def test_hnf_full_rank_example():
    m = IntMatrix([[2, 0], [0, 3], [1, 1]])
    h = hermite_normal_form(m)
    # the three rows span all of Z^2: small combinations reach both units
    reachable = set()
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                reachable.add(
                    (2 * a + c, 3 * b + c)
                )
    assert (1, 0) in reachable and (0, 1) in reachable
    assert h == identity(2)
    assert abs(_det(tolist(h))) == 1


def test_hnf_single_row_is_lattice_basis():
    # Z*(4,6) contains no shorter vector; (2,3) is in the saturation only
    h = hermite_normal_form(IntMatrix([[4, 6]]))
    assert h == IntMatrix([[4, 6]])
    assert saturation(IntMatrix([[4, 6]])) == IntMatrix([[2, 3]])


def test_hnf_idempotent():
    rng = random.Random(17)
    for _ in range(50):
        m = IntMatrix(_rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)))
        h = hermite_normal_form(m)
        assert hermite_normal_form(h) == h


def test_hnf_preserves_row_lattice():
    rng = random.Random(19)
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix(_rand_matrix(rng, r, c, -5, 5))
        h = hermite_normal_form(m)
        # every original row lies in the HNF lattice and vice versa
        for row in m.data:
            assert hnf_coordinates(h, row) is not None
        hm = hermite_normal_form(IntMatrix(list(m.data) + list(h.data), cols=c))
        assert hm == h


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(0, 5)
        m = _rand_matrix(rng, n, n, -6, 6)
        if n and rng.random() < 0.3:
            m[-1] = list(m[0])  # singular
        assert determinant(m) == _det(m)


def _nonsingular(rng, n):
    while True:
        m = _rand_matrix(rng, n, n)
        shape = rng.random()
        if shape < 0.25:
            # triangular: the pivots are fixed up front
            m = [[x if j >= i else 0 for j, x in enumerate(row)] for i, row in enumerate(m)]
        elif shape < 0.5:
            # a common factor on every other row repeats a pivot
            k = rng.randint(2, 6)
            m = [[k * x for x in row] if i % 2 else row for i, row in enumerate(m)]
        det = determinant(m)
        if det:
            return m, abs(det)


def test_smith_from_hnf_matches_reference():
    # triangular and common-factor shapes start the transpose rounds from
    # an HNF that is nearly diagonal or has repeated pivots
    rng = random.Random(41)
    for _ in range(200):
        m, det = _nonsingular(rng, rng.randint(1, 7))
        ed = _smith_from_hnf(hermite_normal_form(IntMatrix(m)))
        assert list(ed) == _divisor_chain_oracle(m), m
        assert prod(ed) == det, m
    assert _smith_from_hnf(IntMatrix([], cols=0)) == ()


def test_hnf_with_transform():
    rng = random.Random(23)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 4)
        m = IntMatrix(_rand_matrix(rng, r, c))
        h, u = hnf_with_transform(m)
        assert h == reference_hnf_with_transform(m)[0]
        assert (u.rows, u.cols) == (r, r)
        assert u * m == h
        assert abs(_det(tolist(u))) == 1


def test_hnf_coordinates_roundtrip():
    rng = random.Random(29)
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(2, 5)
        h = hermite_normal_form(IntMatrix(_rand_matrix(rng, r, c, -7, 7)))
        if h.rows == 0:
            continue
        coeffs = [rng.randint(-4, 4) for _ in range(h.rows)]
        v = [
            sum(coeffs[i] * h[i][j] for i in range(h.rows))
            for j in range(c)
        ]
        assert hnf_coordinates(h, v) == coeffs
        # membership answers must be faithful either way
        off = list(v)
        off[-1] += 1
        lifted = hnf_coordinates(h, off)
        if lifted is not None:
            back = [
                sum(lifted[i] * h[i][j] for i in range(h.rows))
                for j in range(c)
            ]
            assert back == off


def test_non_integer_entries_raise():
    # 7/2 and 2.9 must not become 3 and 2
    for x in (Fraction(7, 2), 2.9):
        with pytest.raises(TypeError):
            IntMatrix([[x, 2]])
        with pytest.raises(TypeError):
            hnf_coordinates(identity(2), [x, 2])


def _naive_product(a, b, bc):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(bc)] for row in a]


def test_packed_product_matches_naive(monkeypatch):
    rng = random.Random(41)
    top = 1 << 63
    near = [top - 1, top - 2, -top, 1 - top, -1, 0, 1]
    cases = []
    for _ in range(30):
        r, k, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        cases.append((_rand_matrix(rng, r, k), _rand_matrix(rng, k, c)))
    for _ in range(10):
        r, k, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.choice((-1, 0, 1)) for _ in range(k)] for _ in range(r)]
        b = [[rng.choice(near) for _ in range(c)] for _ in range(k)]
        cases.append((a, b))
    for _ in range(10):
        r, k, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = _rand_matrix(rng, r, k)
        b = [[rng.randint(-(1 << 80), 1 << 80) for _ in range(c)] for _ in range(k)]
        cases.append((a, b))
    cases += [
        ([[1, 0, 0]], [[top - 1], [5], [-7]]),   # the largest 64-bit digit
        ([[3, -4, 5]], [[1], [2], [-7]]),
        ([[2], [-3]], [[5, -6, 7]]),
        ([[]], []),
    ]
    widths = set()
    for a, b in cases:
        bc = len(b[0]) if b else 3
        widths.add(_width(max(1, *(sum(map(abs, row)) for row in a))
                          * max((abs(x) for row in b for x in row), default=0)))
        # array('q') digits at w = 64 on a little-endian machine, and the
        # to_bytes digits that every other machine and width use
        for little in {exactnum._LITTLE, False}:
            monkeypatch.setattr(exactnum, "_LITTLE", little)
            assert _mul(a, b, bc) == _naive_product(a, b, bc), (a, b, little)
    assert {64, 128} <= widths
    assert _mul([[1, 2], [3, 4]], [[], []], 0) == [[], []]
    m = IntMatrix([[top, -top], [1, 1]])
    assert tolist(m * m) == _naive_product(m.data, m.data, 2)


def test_left_kernel():
    rng = random.Random(31)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 4)
        m = IntMatrix(_rand_matrix(rng, r, c, -5, 5))
        k = kernel(m)
        assert left_kernel(m.data) == tolist(k)  # plain list rows
        if k.rows:
            assert is_zero(k * m)
        assert k.rows == r - reference_hnf(m).rows
        h, u = reference_hnf_with_transform(m)
        ref = [u.data[i] for i in range(r) if not any(h.data[i])]
        assert reference_hnf(k) == reference_hnf(IntMatrix(ref, cols=r))
        if k.rows:
            assert saturation(k) == hermite_normal_form(k)
    # no rows: the kernel of Z^0; rows of no columns: all of Z^rows
    assert left_kernel([]) == []
    assert left_kernel([[], []]) == [[1, 0], [0, 1]]


def test_left_kernel_is_in_hnf():
    # build_space takes the star-fixed lattice straight from left_kernel
    rng = random.Random(32)
    for _ in range(400):
        r, c = rng.randint(1, 7), rng.randint(1, 5)
        # and a matrix of lower rank: r combinations of fewer random rows
        base = _rand_matrix(rng, rng.randint(1, r), c, -6, 6)
        coef = _rand_matrix(rng, r, len(base), -2, 2)
        low = [[sum(a * x for a, x in zip(u, col)) for col in zip(*base)] for u in coef]
        for m in (IntMatrix(_rand_matrix(rng, r, c, -6, 6)), IntMatrix(low, cols=c)):
            k = kernel(m)
            assert hermite_normal_form(k) == k, m.data
            assert reference_hnf(k) == k, m.data


def test_saturation_examples():
    assert saturation(IntMatrix([[2, 0], [0, 2]])) == identity(2)
    assert saturation(IntMatrix([[0, 3, 6]])) == IntMatrix([[0, 1, 2]])


def test_hnf_insert_matches_hnf():
    # the rows are the HNF of the rows so far after every single insert
    rng = random.Random(53)
    inputs = []
    for _ in range(300):
        r, c = rng.randint(1, 7), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.3:
            rows.append([rng.randint(-3, 3) * x for x in rows[0]])
        inputs.append((rows, c))
    # a full-rank start, then extra rows with larger entries
    rng = random.Random(59)
    for _ in range(300):
        g = rng.randint(1, 5)
        start = reference_hnf(
            IntMatrix([[rng.randint(-6, 6) for _ in range(g)] for _ in range(g + 1)], cols=g)
        )
        if start.rows < g:
            continue
        extra = [[rng.randint(-40, 40) for _ in range(g)] for _ in range(rng.randint(1, 4))]
        inputs.append((tolist(start) + extra, g))
    for rows, c in inputs:
        h, pivots = [], []
        for k, row in enumerate(rows, 1):
            _hnf_insert(h, pivots, list(row))
            assert pivots == [next(j for j, x in enumerate(r) if x) for r in h]
            assert IntMatrix(h, cols=c) == reference_hnf(IntMatrix(rows[:k], cols=c)), rows[:k]
        assert hermite_normal_form(IntMatrix(rows, cols=c)) == IntMatrix(h, cols=c), rows


def _spans(m: IntMatrix) -> bool:
    return reference_hnf(m) == identity(m.cols)


def test_left_inverse():
    # the full fold, the reference section of the symbol-row route:
    # seeded random inputs, spanning or not
    rng = random.Random(61)
    cases = [
        IntMatrix(_rand_matrix(rng, rng.randint(c, c + 4), c, -3, 3))
        for c in (rng.randint(1, 4) for _ in range(300))
    ]
    # unimodular rows first, then redundant rows after they span
    rng = random.Random(67)
    for _ in range(100):
        c = rng.randint(1, 5)
        start = [[int(i == j) for j in range(c)] for i in range(c)]
        for _ in range(rng.randint(0, 6)):
            i, j = rng.randrange(c), rng.randrange(c)
            if i != j:
                start[i] = [x + rng.randint(-3, 3) * y for x, y in zip(start[i], start[j])]
        rng.shuffle(start)
        cases.append(IntMatrix(start + _rand_matrix(rng, rng.randint(1, 6), c, -50, 50)))
    # no entry at all, rank deficient, index-2 and index-3 sublattices
    cases += [
        IntMatrix(m)
        for m in ([[2]], [[1, 2], [2, 4], [3, 6]], [[1, 1], [1, -1], [2, 0]],
                  [[3, 0], [0, 1], [6, 5]], [[0, 0, 0]] * 4)
    ]
    # no rows and no columns, no rows, no columns
    cases += [IntMatrix([], cols=0), IntMatrix([], cols=3), IntMatrix([[]] * 4, cols=0)]
    spanning = 0
    for m in cases:
        s = left_inverse_by_full_fold(m)
        if _spans(m):
            spanning += 1
            assert s is not None and s * m == identity(m.cols), m
            assert (s.rows, s.cols) == (m.cols, m.rows), m
        else:
            assert s is None, m
    assert 200 < spanning < len(cases) - 100
    assert left_inverse_by_full_fold(IntMatrix([[]] * 4, cols=0)) == IntMatrix([], cols=4)
