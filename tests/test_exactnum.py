from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

from eislab.exactnum import (
    IntMatrix,
    determinant,
    elementary_divisors,
    factor_squarefree,
    hermite_normal_form,
    hnf_mod_det,
    hnf_coordinates,
    hnf_with_transform,
    is_prime,
    left_kernel,
    num,
    phi_psi_omega,
    saturation,
    smith_normal_form,
    xgcd,
)


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


def _divisor_chain_oracle(m: list[list[int]]) -> list[int]:
    # determinantal divisors: gcd of all k x k minors, independent of any
    # elimination strategy
    rows, cols = len(m), len(m[0])
    chain = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[m[i][j] for j in ci] for i in ri]
                g = gcd(g, _det(sub))
        if g == 0:
            break
        chain.append(g // prev)
        prev = g
    return chain


def _rand_matrix(rng, r, c, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def test_num_examples():
    assert num(Fraction(10, 24)) == 5
    assert num(Fraction(1, 4)) == 1
    assert num(7) == 7
    assert num(10, 24) == 5
    assert num(-10, 24) == -5


def test_num_zero_denominator_rejected():
    try:
        num(1, 0)
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("expected error on zero denominator")


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


def test_phi_psi_omega_examples():
    assert phi_psi_omega(30) == (8, 72, 3)
    assert phi_psi_omega(1) == (1, 1, 0)
    assert phi_psi_omega(11) == (10, 12, 1)


def test_snf_identity():
    m = IntMatrix.identity(3)
    u, d, v = smith_normal_form(m)
    assert d == m


def test_snf_diag_2_3():
    m = IntMatrix([[2, 0], [0, 3]])
    u, d, v = smith_normal_form(m)
    assert [d[0][0], d[1][1]] == [1, 6]
    # oracle: first divisor is the gcd of entries, product is |det|
    assert gcd(2, 3) == 1
    assert abs(_det(m.tolist())) == 6
    assert u * m * v == d


def test_snf_zero():
    m = IntMatrix.zeros(2, 3)
    _, d, _ = smith_normal_form(m)
    assert d.is_zero()


def test_snf_random_properties():
    rng = random.Random(7)
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = IntMatrix(_rand_matrix(rng, r, c))
        u, d, v = smith_normal_form(m)
        assert u * m * v == d
        assert abs(_det(u.tolist())) == 1
        assert abs(_det(v.tolist())) == 1
        diag = [d[i][i] for i in range(min(r, c))]
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d[i][j] == 0
        assert list(elementary_divisors(m)) == _divisor_chain_oracle(m.tolist())


def test_snf_permutation_invariance():
    rng = random.Random(11)
    for _ in range(40):
        r = rng.randint(2, 4)
        c = rng.randint(2, 4)
        rows = _rand_matrix(rng, r, c)
        ed = elementary_divisors(IntMatrix(rows))
        shuffled = rows[:]
        rng.shuffle(shuffled)
        perm = list(range(c))
        rng.shuffle(perm)
        shuffled = [[row[p] for p in perm] for row in shuffled]
        assert elementary_divisors(IntMatrix(shuffled)) == ed


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


def test_hnf_identity():
    m = IntMatrix.identity(4)
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
    assert h == IntMatrix.identity(2)
    assert abs(_det(h.tolist())) == 1


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
            # triangular: pivots fixed up front, most columns 0 mod the modulus
            m = [[x if j >= i else 0 for j, x in enumerate(row)] for i, row in enumerate(m)]
        elif shape < 0.5:
            # a common factor makes some column 0 modulo the running modulus
            k = rng.randint(2, 6)
            m = [[k * x for x in row] if i % 2 else row for i, row in enumerate(m)]
        det = determinant(m)
        if det:
            return m, abs(det)


def test_hnf_mod_det_matches_hnf():
    rng = random.Random(41)
    for _ in range(400):
        m, det = _nonsingular(rng, rng.randint(1, 7))
        assert hnf_mod_det(m, det) == hermite_normal_form(IntMatrix(m))
    assert hnf_mod_det([], 1) == IntMatrix([], cols=0)


def test_hnf_mod_det_rejects_wrong_d():
    rng = random.Random(43)
    for _ in range(100):
        m, det = _nonsingular(rng, rng.randint(1, 6))
        for wrong in (2 * det, det + 1, 0, -det):
            try:
                hnf_mod_det(m, wrong)
            except ValueError:
                pass
            else:
                raise AssertionError(f"accepted d={wrong} for |det|={det}")
    try:
        hnf_mod_det([[1, 2]], 1)
    except ValueError:
        pass
    else:
        raise AssertionError("accepted a non-square matrix")


def test_hnf_with_transform():
    rng = random.Random(23)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 4)
        m = IntMatrix(_rand_matrix(rng, r, c))
        h, u = hnf_with_transform(m)
        assert u * m == h
        assert abs(_det(u.tolist())) == 1


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


def test_left_kernel():
    rng = random.Random(31)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 4)
        m = IntMatrix(_rand_matrix(rng, r, c, -5, 5))
        k = left_kernel(m)
        if k.rows:
            assert (k * m).is_zero()
        assert k.rows == r - hermite_normal_form(m).rows
        if k.rows:
            assert saturation(k) == hermite_normal_form(k)


def test_saturation_examples():
    assert saturation(IntMatrix([[2, 0], [0, 2]])) == IntMatrix.identity(2)
    assert saturation(IntMatrix([[0, 3, 6]])) == IntMatrix([[0, 1, 2]])
