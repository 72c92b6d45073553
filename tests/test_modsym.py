import dataclasses
import gc
import hashlib
import json
import random
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm, prod

import pytest

from eislab import exactnum, modsym
from eislab.divlattice import SquareFreeLevel
from eislab.exactnum import (
    IntMatrix,
    _echelon,
    _factor,
    _hnf_insert,
    _pack_rows,
    _width,
    is_prime,
    left_kernel,
    phi_psi_omega,
    primes_up_to,
    xgcd,
)
from eislab.modsym import (
    build_space,
    compare_index_order,
    eisenstein_index,
    enumerate_eisenstein_maximal,
    hecke_ring,
    level_indices,
    m1_index_witnesses,
    verify_main_theorem,
    _cuspidal_lift,
    _heilbronn_family,
    _matrix_on_cuspidal,
    _orbit,
    _p1_table,
    _prime_matrix,
    _prime_rows,
    _relation_quotient,
    _solve_over,
    _unit_coords,
)
from test_exactnum import (
    _smith_from_hnf,
    hermite_normal_form,
    hnf_coordinates,
    hnf_with_transform,
    identity,
    is_zero,
    kernel,
    left_inverse_by_full_fold,
    mat_sum,
    reference_hnf,
    scale,
    tolist,
    transpose,
)

SQUAREFREE = [n for n in range(7, 71)
              if all(n % (p * p) for p in (2, 3, 5, 7))]


# level_indices keeps only the index models; the tests that read a level's
# space or ring share one build of each per session
@lru_cache(maxsize=None)
def cached_space(n: int):
    return build_space(n)


@lru_cache(maxsize=None)
def cached_ring(n: int):
    return hecke_ring(cached_space(n))


# the space, the operators and the ring hold plain integer rows; the tests
# read them as IntMatrix wherever they multiply, echelonize or compare them
# with a matrix

def coords_of(space) -> IntMatrix:
    return IntMatrix(space.coords, cols=space.quotient_rank)


def boundary_of(space) -> IntMatrix:
    return IntMatrix(space.boundary, cols=2 ** len(space.level.primes))


def plus_of(space) -> IntMatrix:
    return IntMatrix(space.plus, cols=space.quotient_rank)


def prime_matrix(space, p: int) -> IntMatrix:
    return IntMatrix(_prime_matrix(space, p), cols=space.genus)


def basis_of(ring) -> IntMatrix:
    return IntMatrix(ring.basis, cols=ring.genus)


def wide_basis(ref) -> IntMatrix:
    # reference_ring's basis: the flattened g x g operators
    return IntMatrix(ref.basis, cols=ref.genus ** 2)


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fractions; returns (rows, pivot columns)."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for j in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][j]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][j]
        a[r] = [x / inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][j]:
                c = a[i][j]
                a[i] = [x - c * y for x, y in zip(a[i], a[r])]
        pivots.append(j)
        r += 1
    return a[:r], pivots


def relation_quotient_by_fractions(relations, kept):
    """The Fraction route to _relation_quotient: rref of the dense relation rows.

    Each kept coordinate over the free ones, scaled by the lcm of every
    denominator (each coordinate is some symbol's image, so this is the
    common denominator of all symbol images), the free columns, and that
    denominator.
    """
    rows = []
    for rel in relations:
        row = [Fraction(0)] * kept
        for c, x in rel.items():
            row[c] += x
        rows.append(row)
    reduced, pivots = rref(rows) if rows else ([], [])
    free = [j for j in range(kept) if j not in set(pivots)]
    expr = {j: [Fraction(int(f == j)) for f in free] for j in free}
    for row, j in zip(reduced, pivots):
        expr[j] = [-row[f] for f in free]
    den = lcm(*(x.denominator for row in expr.values() for x in row))
    return [[int(x * den) for x in expr[j]] for j in range(kept)], free, den


def genus_oracle(n):
    # classical genus count for the level-n modular curve, square-free n
    level = SquareFreeLevel(n)
    psi = phi_psi_omega(level)[1]
    nu2 = 1
    nu3 = 1
    for p in level.primes:
        nu2 *= 1 if p == 2 else (2 if p % 4 == 1 else 0)
        nu3 *= 1 if p == 3 else (2 if p % 3 == 1 else 0)
    nu_inf = 2 ** len(level.primes)
    g12 = 12 + psi - 3 * nu2 - 4 * nu3 - 6 * nu_inf
    assert g12 % 12 == 0
    return g12 // 12


def p1_normalize(n, u, v):
    """Canonical representative of (u : v), or None when gcd(u, v, n) > 1.

    Reference normalisation by extended gcd, the oracle for the symbol
    table and its symbol order.
    """
    u %= n
    v %= n
    if u == 0:
        return (0, 1) if gcd(v, n) == 1 else None
    g, s, _ = xgcd(u, n)
    if gcd(g, v) != 1:
        return None
    s %= n
    # s must be a unit; shifting by n/g keeps u*s = g
    while gcd(s, n) != 1:
        s = (s + n // g) % n
    v = s * v % n
    if g == 1:
        return (1, v)
    # the units fixing the first slot are 1 + k*(n/g); minimize the second
    step = n // g
    jump = v * step % n
    best = v
    t = 1
    for _ in range(1, g):
        v = (v + jump) % n
        t = (t + step) % n
        if v < best and gcd(t, n) == 1:
            best = v
    return (g, best)


def image_rows(space, symbol_rows):
    # every symbol's image on the quotient basis, dense
    rank_q = space.quotient_rank
    out = []
    for i in range(len(space.symbols)):
        acc = [0] * rank_q
        for j, mult in symbol_rows[i].items():
            xr = space.coords[j]
            for t in range(rank_q):
                acc[t] += mult * xr[t]
        out.append(acc)
    return out


def section_matrix(space):
    """The rank x psi(N) selector S with S * coords = I: row f is e at basis_symbols[f]."""
    return IntMatrix(
        [[int(s == i) for s in range(len(space.symbols))] for i in space.basis_symbols],
        cols=len(space.symbols),
    )


def cuspidal_lattice(space):
    """HNF basis of the cuspidal lattice ker(boundary), which build_space never forms."""
    return hermite_normal_form(kernel(boundary_of(space)))


def matrix_on_quotient(space, symbol_rows):
    w = IntMatrix(image_rows(space, symbol_rows), cols=space.quotient_rank)
    return section_matrix(space) * w


def eta_block(d, terms):
    s = [0] * terms
    s[0] = 1
    m = d
    while m < terms:
        for j in range(terms - 1, m - 1, -1):
            s[j] -= s[j - m]
        m += d
    return s


def eta_product(pairs, terms):
    shift = sum(d * e for d, e in pairs)
    assert shift % 24 == 0
    shift //= 24
    s = [0] * terms
    s[0] = 1
    for d, e in pairs:
        blk = eta_block(d, terms)
        for _ in range(e):
            out = [0] * terms
            for i, x in enumerate(s):
                if x:
                    for j in range(terms - i):
                        if blk[j]:
                            out[i + j] += x * blk[j]
            s = out
    shifted = [0] * terms
    for i, x in enumerate(s):
        if i + shift < terms:
            shifted[i + shift] = x
    return shifted


def test_symbol_counts():
    for n in (7, 11, 14, 15, 30):
        space = build_space(n)
        assert len(space.symbols) == phi_psi_omega(SquareFreeLevel(n))[1]
        assert len(set(space.symbols)) == len(space.symbols)
    assert len(build_space(11).symbols) == 12


def test_genus_matches_oracle():
    anchors = {7: 0, 10: 0, 11: 1, 13: 0, 14: 1, 15: 1, 22: 2, 30: 3, 33: 3, 70: 9}
    for n, g in anchors.items():
        assert genus_oracle(n) == g
    for n in SQUAREFREE:
        if n <= 42 or n == 70:
            assert cached_space(n).genus == genus_oracle(n), n


def test_build_space_rejects_bad_levels():
    with pytest.raises(ValueError):
        build_space(4)
    with pytest.raises(ValueError):
        build_space(12)
    with pytest.raises(ValueError):
        build_space(45)


def test_build_space_at_the_smallest_levels():
    # genus 0 throughout; level 1 has one symbol, S-fixed, so no slot at all
    for n in (1, 2, 3, 5, 6):
        space = build_space(n)
        psi = phi_psi_omega(SquareFreeLevel(n))[1]
        rank = len(level_divisors(n)) - 1
        assert len(space.symbols) == psi, n
        assert (space.genus, cuspidal_lattice(space).rows, len(space.plus)) == (0, 0, 0), n
        assert space.quotient_rank == rank, n
        coords = coords_of(space)
        assert (coords.rows, coords.cols) == (psi, rank), n
        assert len(space.basis_symbols) == rank, n
        assert section_matrix(space) * coords == identity(rank), n
    assert build_space(1).basis_symbols == ()


def test_cuspidal_lift_lies_on_basis_symbols():
    # coordinate f lifts to basis_symbols[f]: the lift touches no other
    # symbol, and reading it back at the basis symbols gives plus
    for n in (11, 30, 70, 130):
        space = cached_space(n)
        lifted, support = _cuspidal_lift(space)
        assert set(support) <= set(space.basis_symbols), n
        back = [[row.get(i, 0) for i in space.basis_symbols] for row in lifted]
        assert IntMatrix(back, cols=space.quotient_rank) == plus_of(space), n


def test_quotient_rank_accounts_for_cusps_and_genus():
    for n in (11, 14, 15, 21, 30, 33):
        space = cached_space(n)
        classes = len(level_divisors(n))
        assert {len(row) for row in space.boundary} == {classes}
        assert space.quotient_rank == 2 * space.genus + classes - 1


def test_cusp_classes_follow_divisors():
    # one boundary column per divisor, ascending, and basis symbol (c : d)
    # has the row [gcd(c, N)] - [gcd(d, N)] over them
    for n in (11, 14, 30, 66):
        space = cached_space(n)
        divisors = level_divisors(n)
        assert len(divisors) == 2 ** len(space.level.primes)
        assert {len(row) for row in space.boundary} == {len(divisors)}
        for i, row in zip(space.basis_symbols, space.boundary):
            assert list(row) == gcd_boundary_row(n, divisors, *space.symbols[i]), (n, i)


def test_cusp_classification_dual_route():
    rng = random.Random(37)
    for n in (14, 15, 30):
        divisors = level_divisors(n)
        for _ in range(60):
            c = rng.randrange(0, 3 * n)
            a = rng.randrange(1, 3 * n)
            g = gcd(a, c)
            a, c = a // g, c // g
            assert divisors[classify_cusp(n, divisors, (a, c))] == gcd(c, n)


def test_cusp_equivalence_is_congruence_invariant():
    rng = random.Random(41)
    for n in (11, 14, 30):
        reps = [(1, d) for d in level_divisors(n)]
        for i, x in enumerate(reps):
            for j, y in enumerate(reps):
                assert cusps_equivalent(n, x, y) == (i == j)
        for _ in range(25):
            a, c = rng.choice(reps)
            m = (1, 0, 0, 1)
            for _ in range(8):
                if rng.random() < 0.5:
                    m = (m[0], m[1] + m[0], m[2], m[3] + m[2])
                else:
                    m = (m[0] + m[1] * n, m[1], m[2] + m[3] * n, m[3])
            assert m[0] * m[3] - m[1] * m[2] == 1
            moved = (m[0] * a + m[1] * c, m[2] * a + m[3] * c)
            assert cusps_equivalent(n, (a, c), moved)


def test_lift_route_gives_the_gcd_boundary_rows():
    # the SL2 lift of every P^1 point, its two ends classified by
    # equivalence against the representatives 1/d, against build_space's
    # rule [gcd(c, N)] - [gcd(d, N)], at every square-free level 2-330
    for n in range(2, 331):
        if max(_factor(n).values()) > 1:
            continue
        divisors = level_divisors(n)
        for c, d in _p1_table(n)[1]:
            lift = lift_boundary_row(n, divisors, c, d)
            assert lift == gcd_boundary_row(n, divisors, c, d), (n, c, d)


# The continued-fraction route to the prime operators, the reference for
# Cremona's Heilbronn family, which builds every one of them in modsym.
# Each coset of determinant r sends a symbol's path {b/d, a/c} to the path
# between two cusps, and each end is joined to infinity through its
# convergents.

def _infty_path(space, cusp):
    """The symbol chain carrying {infinity, cusp}, one index per segment."""
    p, q = cusp
    if q == 0:
        return []
    n = space.level.value
    terms = []
    while q:
        a0, rem = divmod(p, q)
        terms.append(a0)
        p, q = q, rem
    out = []
    prev, cur = 0, 1  # denominators of successive convergents
    for k, a0 in enumerate(terms):
        if k:
            prev, cur = cur, a0 * cur + prev
        sign = -1 if k % 2 == 0 else 1
        out.append(space.p1_index[cur % n * n + (sign * prev) % n])
    return out


def _add_path(space, acc, alpha, beta):
    for i in _infty_path(space, beta):
        acc[i] = acc.get(i, 0) + 1
    for i in _infty_path(space, alpha):
        acc[i] = acc.get(i, 0) - 1


def _sl2_lift(n: int, c: int, d: int) -> tuple[int, int, int, int]:
    """Determinant-one integer matrix (a, b, c1, d1) with (c1 : d1) = (c : d)."""
    c %= n
    d %= n
    if c == 0:
        return (1, 0, 0, 1)
    d1 = d
    while gcd(c, d1) != 1:
        d1 += n
    _, x, y = xgcd(d1, c)
    return (x, -y, c, d1)


def _reduce_frac(p: int, q: int) -> tuple[int, int]:
    if q == 0:
        return (1, 0)
    g = gcd(p, q)
    p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    return (p, q)


# The equivalence route to the cusp classes, the reference for build_space's
# gcd rule: a/c and a'/c' in lowest terms are equivalent under Gamma_0(N),
# N square-free, when a^-1 c' = a'^-1 c mod gcd(c c', N) (inverses mod the
# denominators), and the divisors d give the representatives 1/d.

def level_divisors(n):
    """The divisors of n in ascending order: build_space's boundary columns."""
    return [d for d in range(1, n + 1) if n % d == 0]


def _inverse_like(a: int, c: int) -> int:
    # s with a*s = 1 mod c; denominator zero demands the exact inverse
    if c == 0:
        return a
    if c == 1:
        return 0
    return pow(a % c, -1, c)


def cusps_equivalent(n: int, x: tuple[int, int], y: tuple[int, int]) -> bool:
    a1, c1 = x
    a2, c2 = y
    g = gcd(c1 * c2, n)
    return (_inverse_like(a1, c1) * c2 - _inverse_like(a2, c2) * c1) % g == 0


def classify_cusp(n, divisors, cusp):
    """Column of the one representative 1/d equivalent to a lowest-terms cusp."""
    matches = [k for k, d in enumerate(divisors) if cusps_equivalent(n, cusp, (1, d))]
    assert len(matches) == 1, (n, cusp, matches)
    return matches[0]


def lift_boundary_row(n, divisors, c, d):
    """Boundary row of (c : d) by its lift's path {b/d1, a/c1}, ends classified."""
    a, b, c1, d1 = _sl2_lift(n, c, d)
    row = [0] * len(divisors)
    row[classify_cusp(n, divisors, _reduce_frac(a, c1))] += 1
    row[classify_cusp(n, divisors, _reduce_frac(b, d1))] -= 1
    return row


def gcd_boundary_row(n, divisors, c, d):
    """build_space's boundary row of (c : d): [gcd(c, N)] - [gcd(d, N)]."""
    row = [0] * len(divisors)
    row[divisors.index(gcd(c, n))] += 1
    row[divisors.index(gcd(d, n))] -= 1
    return row


def _rows_by_paths(space, r, with_scaling, which):
    n = space.level.value
    rows = {}
    for i in which:
        c, d = space.symbols[i]
        a, b, c1, d1 = _sl2_lift(n, c, d)
        acc = {}
        for j in range(r):
            alpha = _reduce_frac(b + j * d1, r * d1)
            beta = _reduce_frac(a + j * c1, r * c1)
            _add_path(space, acc, alpha, beta)
        if with_scaling:
            _add_path(space, acc, _reduce_frac(r * b, d1), _reduce_frac(r * a, c1))
        rows[i] = {k: v for k, v in acc.items() if v}
    return rows


def _prime_rows_by_paths(space, r, which):
    # T_r takes the scaling coset diag(r, 1); U_r, r dividing the level, does not
    return _rows_by_paths(space, r, space.level.value % r != 0, which)


# Merel's family, the second reference for the prime operators and the only
# route here to composite determinants (T_4, T_6, U_p^e).  Every integer
# matrix (a, b, c, d) of determinant n with a > b >= 0 and d > c >= 0 acts
# on the symbols as Cremona's Heilbronn matrices do in modsym.

@lru_cache(maxsize=None)
def merel_family(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Determinant-n integer matrices with a > b >= 0 and d > c >= 0."""
    mats = []
    for a in range(1, n + 1):
        for d in range(-(-n // a), n + 2 - a):
            bc = a * d - n
            if bc == 0:
                mats.extend((a, b, 0, d) for b in range(a))
                mats.extend((a, 0, c, d) for c in range(1, d))
            elif d > 1:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        mats.append((a, b, bc // b, d))
    return tuple(mats)


def merel_symbol_rows(space, r, which):
    """Images under the determinant-r Merel family of the symbols in which.

    Merel's theorem gives T_r for r prime to the level and U_r for r
    dividing it, once the images off P^1(Z/N) (table entry -1) are dropped.
    """
    n = space.level.value
    rows = {}
    for i in which:
        u, v = space.symbols[i]
        acc = {}
        for a, b, c, d in merel_family(r):
            j = space.p1_index[(u * a + v * c) % n * n + (u * b + v * d) % n]
            if j >= 0:
                acc[j] = acc.get(j, 0) + 1
        rows[i] = acc
    return rows


def heilbronn_symbol_rows(space, p, which):
    """Images under the Heilbronn family of prime p of the symbols in which, as counts.

    The dict route _prime_matrix replaced: symbol index -> multiplicity,
    images off P^1(Z/N) (table entry -1) dropped.  The reference for the
    packed walk, and the way the tests plant a fault in one symbol's image.
    """
    n = space.level.value
    table = space.p1_index
    rows = {}
    for i in which:
        u, v = space.symbols[i]
        acc = {}
        for a, b, c, d in _heilbronn_family(p):
            j = table[(u * a + v * c) % n * n + (u * b + v * d) % n]
            if j >= 0:
                acc[j] = acc.get(j, 0) + 1
        rows[i] = acc
    return rows


def packed_images(space, symbol_rows):
    """Symbol images given as counts, packed for _matrix_on_cuspidal: (images, w).

    The width is fixed by the counts themselves: max|coords| times each
    lifted row's sum of |coef| * (L1 norm of the symbol's image).
    """
    lifted, support = _cuspidal_lift(space)
    coords = space.coords
    top = max((abs(x) for row in coords for x in row), default=0)
    weight = {s: sum(map(abs, symbol_rows[s].values())) for s in support}
    reach = max((sum(abs(c) * weight[s] for s, c in row.items()) for row in lifted), default=0)
    w = _width(top * max(reach, 1))
    packed = _pack_rows(coords, space.quotient_rank, w)
    return {s: sum(x * packed[j] for j, x in symbol_rows[s].items()) for s in support}, w


def on_cuspidal(space, symbol_rows):
    """The operator with the given symbol images (counts), through the production certificate."""
    return IntMatrix(_matrix_on_cuspidal(space, *packed_images(space, symbol_rows)),
                     cols=space.genus)


def test_identity_paths_recover_symbols():
    # writing each symbol as a geodesic chain must give back its own class
    for n in (11, 14, 30):
        space = cached_space(n)
        rows = _rows_by_paths(space, 1, False, range(len(space.symbols)))
        assert matrix_on_quotient(space, rows) == identity(space.quotient_rank)


def test_boundary_well_defined_and_ranked():
    for n in (11, 15, 30):
        space = cached_space(n)
        ncl, boundary = len(level_divisors(n)), space.boundary
        assert len(boundary) == space.quotient_rank
        assert {len(row) for row in boundary} == {ncl}
        assert reference_hnf(boundary_of(space)).rows == ncl - 1


def test_planted_boundary_fault_is_caught(monkeypatch):
    # once the P^1 table is built, a gcd that misreports one symbol's class
    # gives that symbol a wrong boundary, which the relations through it
    # must expose
    table = modsym._p1_table
    calls = []

    def faulty_gcd(*args):
        if len(args) == 2 and args[1] == 70:
            calls.append(args)
            if len(calls) == 5:
                return 1 if gcd(*args) != 1 else 70
        return gcd(*args)

    def planted(n):
        out = table(n)
        monkeypatch.setattr(modsym, "gcd", faulty_gcd)
        return out

    monkeypatch.setattr(modsym, "_p1_table", planted)
    with pytest.raises(RuntimeError, match="boundary not well-defined"):
        build_space(70)
    assert len(calls) >= 5


def test_planted_symbol_image_leaves_cuspidal_lattice():
    # one support symbol's image gains a symbol with nonzero boundary: the
    # images through it leave the cuspidal lattice
    for n, r in ((11, 2), (35, 3), (70, 3)):
        space = build_space(n)
        support = _cuspidal_lift(space)[1]
        rows = heilbronn_symbol_rows(space, r, support)
        assert on_cuspidal(space, rows) == prime_matrix(space, r)
        j = next(
            j for j in range(len(space.symbols))
            if not is_zero(IntMatrix([space.coords[j]]) * boundary_of(space))
        )
        s = support[0]
        rows[s] = {**rows[s], j: rows[s].get(j, 0) + 1}
        with pytest.raises(RuntimeError, match="cuspidal lattice not stable"):
            on_cuspidal(space, rows)


# The full 2g route, the reference for the operators on the star-fixed half
# plus: the whole cuspidal basis lifted to symbols, each symbol sent to a
# row on the quotient basis, and the sums written over the cuspidal HNF.

REFERENCE_LEVELS = SQUAREFREE + [105, 110, 130]


def _on_full_cuspidal(space, image_of):
    """Matrix on the cuspidal basis of the map sending symbol s to the quotient row image_of(s)."""
    cuspidal = cuspidal_lattice(space)
    out = []
    for row in (cuspidal * section_matrix(space)).data:
        img = [0] * space.quotient_rank
        for s, x in enumerate(row):
            if x:
                img = [a + x * b for a, b in zip(img, image_of(s))]
        c = hnf_coordinates(cuspidal, img)
        assert c is not None
        out.append(c)
    return IntMatrix(out, cols=cuspidal.rows)


@lru_cache(maxsize=None)
def _full_star(n):
    # (u : v) -> -(-u : v)
    space = cached_space(n)

    def image_of(s):
        u, v = space.symbols[s]
        return [-x for x in space.coords[space.p1_index[-u % n * n + v]]]

    return _on_full_cuspidal(space, image_of)


@lru_cache(maxsize=None)
def _full_prime_matrix(n, p):
    space = cached_space(n)
    support = sorted({s for row in (cuspidal_lattice(space) * section_matrix(space)).data
                      for s, x in enumerate(row) if x})
    rows = heilbronn_symbol_rows(space, p, support)

    def image_of(s):
        out = [0] * space.quotient_rank
        for j, mult in rows[s].items():
            out = [a + mult * b for a, b in zip(out, space.coords[j])]
        return out

    return _on_full_cuspidal(space, image_of)


def _plus_over_cuspidal(space):
    # the rows of plus as coordinates over the cuspidal basis
    cuspidal = cuspidal_lattice(space)
    return IntMatrix([hnf_coordinates(cuspidal, row) for row in space.plus],
                     cols=cuspidal.rows)


def test_star_is_an_involution_commuting_with_the_full_operators():
    for n in REFERENCE_LEVELS:
        space = cached_space(n)
        two_g = cuspidal_lattice(space).rows
        star = _full_star(n)
        assert star * star == identity(two_g), n
        bound = -(-len(space.symbols) // 6)
        for p in primes_up_to(bound):
            t = _full_prime_matrix(n, p)
            assert star * t == t * star, (n, p)
        # plus has rank g and is the saturated star-fixed sublattice: its
        # rows are fixed and their coordinates extend to a unimodular basis
        assert len(space.plus) == space.genus == two_g // 2, n
        c = _plus_over_cuspidal(space)
        assert c * star == c, n
        assert space.genus == 0 or hermite_normal_form(transpose(c)) == (
            identity(space.genus)
        ), n


def test_operators_are_the_full_ones_restricted_to_plus():
    for n in REFERENCE_LEVELS:
        space = cached_space(n)
        c = _plus_over_cuspidal(space)
        for p in primes_up_to(-(-len(space.symbols) // 6)):
            images = c * _full_prime_matrix(n, p) * cuspidal_lattice(space)
            restricted = [hnf_coordinates(plus_of(space), row) for row in images.data]
            assert prime_matrix(space, p) == IntMatrix(restricted, cols=space.genus), (n, p)


def test_planted_image_cuspidal_but_not_star_fixed():
    # one support symbol's image gains a vector of the star's -1 lattice,
    # times the pivot product of plus: every image stays cuspidal and the
    # pivot solve stays integral, so only the whole comparison sees it
    for n, r in ((11, 2), (35, 3), (70, 3)):
        space = build_space(n)
        cuspidal = cuspidal_lattice(space)
        ident = identity(cuspidal.rows)
        minus = (kernel(mat_sum(_full_star(n), ident)) * cuspidal).data[0]
        assert is_zero(IntMatrix([minus]) * boundary_of(space))
        scale = prod(next(x for x in row if x) for row in space.plus)
        planted = IntMatrix([[scale * x for x in minus]]) * section_matrix(space)
        support = _cuspidal_lift(space)[1]
        rows = heilbronn_symbol_rows(space, r, support)
        s = support[0]
        acc = dict(rows[s])
        for j, x in enumerate(planted.data[0]):
            if x:
                acc[j] = acc.get(j, 0) + x
        rows[s] = {j: x for j, x in acc.items() if x}
        with pytest.raises(RuntimeError, match="cuspidal lattice not stable"):
            on_cuspidal(space, rows)


def test_merel_family_shape():
    for n, size in ((2, 4), (3, 7)):
        fam = merel_family(n)
        assert len(fam) == size
        assert all(a * d - b * c == n for a, b, c, d in fam)
        assert all(a > b >= 0 and d > c >= 0 for a, b, c, d in fam)


def test_heilbronn_family_shape():
    for p, size in ((2, 4), (3, 6), (5, 12), (7, 18), (37, 128), (79, 310)):
        fam = _heilbronn_family(p)
        assert len(fam) == size, p
        assert all(a * d - b * c == p for a, b, c, d in fam), p
    assert _heilbronn_family(2) == ((1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2))
    for n in (1, 4, 9, 15):
        with pytest.raises(RuntimeError, match="needs a prime determinant"):
            _heilbronn_family(n)


def test_heilbronn_rounding_and_planted_gap(monkeypatch):
    # halves rounded to even (Python's round) give other matrices from p = 5
    # on, but the same operators: any continued fraction of p/r carries the
    # path, and nearest quotients only keep it short.  A family without
    # (1, 0, 0, p) is refused by the stability check at level 11
    build = modsym._heilbronn_family.__wrapped__
    space = cached_space(11)
    away = {p: prime_matrix(space, p) for p in primes_up_to(40)}
    with monkeypatch.context() as patch:
        patch.setattr(modsym, "_nearest", lambda a, b: round(Fraction(a, b)))
        patch.setattr(modsym, "_heilbronn_family", build)
        assert build(5) != _heilbronn_family(5)
        fresh = build_space(11)
        for p, op in away.items():
            assert len(build(p)) == len(_heilbronn_family(p)), p
            assert prime_matrix(fresh, p) == op, p
    monkeypatch.setattr(modsym, "_heilbronn_family", lambda p: build(p)[1:])
    for p in primes_up_to(20):
        with pytest.raises(RuntimeError, match="cuspidal lattice not stable"):
            _prime_matrix(build_space(11), p)


HEILBRONN_LEVELS = SQUAREFREE + [105, 110, 130, 190, 210]


def test_heilbronn_operators_match_merel_reference():
    # every prime up to bound + 10 and U_p at every level prime: the
    # Heilbronn operators against Merel's family on the same support, and
    # the packed walk against the Heilbronn symbol counts it replaced
    for n in HEILBRONN_LEVELS:
        space = cached_space(n)
        support = _cuspidal_lift(space)[1]
        bound = -(-len(space.symbols) // 6)
        for p in sorted({*primes_up_to(bound + 10), *space.level.primes}):
            merel = on_cuspidal(space, merel_symbol_rows(space, p, support))
            assert prime_matrix(space, p) == merel, (n, p)
            counts = on_cuspidal(space, heilbronn_symbol_rows(space, p, support))
            assert prime_matrix(space, p) == counts, (n, p)


def test_packed_walk_matches_dict_reference_above_the_bound_at_330():
    # the stabilization primes above the bound that every index at 330
    # reads, where the families are longest
    space = build_space(330)
    ring = hecke_ring(space)
    models = [eisenstein_index(ring, m) for m in _divisors(330)]
    above = sorted({r for model in models for r, _ in model.stabilization if r > ring.bound})
    assert above
    support = _cuspidal_lift(space)[1]
    for p in above:
        rows = heilbronn_symbol_rows(space, p, support)
        assert prime_matrix(space, p) == on_cuspidal(space, rows), p


def test_prime_operator_with_wide_digits():
    # coordinates scaled by k = 2^61 give k T_p.  At level 11 and p = 79 the
    # lifted sums reach 20 k >= 2^63 while max|coords| times the largest
    # lifted L1 norm is 3 k < 2^63: only the len(family) factor of the width
    # bound moves the digits to 128 bits
    space = cached_space(11)
    k = 2 ** 61
    coords = tuple(tuple(k * x for x in row) for row in space.coords)
    wide = dataclasses.replace(space, coords=coords, op_cache={})
    for p in (2, 3, 11, 13, 31, 79):
        assert prime_matrix(wide, p) == scale(prime_matrix(space, p), k), p
    assert ("packed", 128) in wide.op_cache


def test_symbol_coordinates_packed_once_per_width(monkeypatch):
    # deterministic counts, not a timing: over the ring and every index at
    # N = 130 the psi(N) coordinate rows are packed once for each digit
    # width, where packing per operator took one pack per prime; each pack
    # carries the trailing 0 an image off P^1 reads
    packs, operators = [], []
    pack, production = modsym._pack_rows, modsym._matrix_on_cuspidal

    def counting_pack(rows, n, w):
        packs.append(w)
        return pack(rows, n, w)

    def counting_on_cuspidal(space, images, w):
        operators.append(space)
        return production(space, images, w)

    monkeypatch.setattr(modsym, "_pack_rows", counting_pack)
    monkeypatch.setattr(modsym, "_matrix_on_cuspidal", counting_on_cuspidal)
    n = 130
    space = build_space(n)
    ring = hecke_ring(space)
    for m in (d for d in range(1, n + 1) if n % d == 0):
        eisenstein_index(ring, m)
    widths = sorted(k[1] for k in space.op_cache if k[0] == "packed")
    primes = [k[1] for k in space.op_cache if k[0] == "prime"]
    assert sorted(packs) == widths and len(set(packs)) == len(packs) <= 2
    for w in widths:
        assert space.op_cache["packed", w] == [*pack(space.coords, space.quotient_rank, w), 0]
    assert len(operators) == len(primes) == 15
    # a cached pack gives the operator a fresh space packs for itself
    for p in primes:
        fresh = dataclasses.replace(space, op_cache={})
        assert _prime_matrix(fresh, p) == space.op_cache[("prime", p)], p
    assert len(packs) == len(widths) + len(primes)


def test_prime_action_two_routes_agree():
    # the Heilbronn family, the only route in modsym, against continued
    # fractions: T_r at a few primes away from the level, U_p at every
    # level prime of every square-free level 7-70, 105, 110 and 130
    rng = random.Random(43)
    cases = [(11, 2), (11, 3), (14, 3), (15, 2), (30, 7)]
    cases += [(rng.choice((21, 22, 26)), rng.choice((3, 5, 7, 11))) for _ in range(4)]
    cases += [(n, p) for n in SQUAREFREE + [105, 110, 130] for p in SquareFreeLevel(n).primes]
    for n, r in cases:
        space = cached_space(n)
        paths = _prime_rows_by_paths(space, r, _cuspidal_lift(space)[1])
        assert prime_matrix(space, r) == on_cuspidal(space, paths), (n, r)


def test_eta_anchor_level_11():
    space = cached_space(11)
    coeffs = eta_product([(1, 2), (11, 2)], 16)
    assert coeffs[1:6] == [1, -2, -1, 2, 1]
    ident = identity(space.genus)
    for r in (2, 3, 5, 7, 13):
        assert prime_matrix(space, r) == scale(ident, coeffs[r]), r
    assert prime_matrix(space, 11) == scale(ident, coeffs[11])
    char = prime_matrix(space, 2)
    assert is_zero(mat_sum(char, scale(ident, 2)))


def test_eta_anchor_level_14():
    space = cached_space(14)
    coeffs = eta_product([(1, 1), (2, 1), (7, 1), (14, 1)], 16)
    assert coeffs[1:8] == [1, -1, -2, 1, 0, 2, 1]
    ident = identity(space.genus)
    for r in (2, 3, 5, 7, 11, 13):
        assert prime_matrix(space, r) == scale(ident, coeffs[r]), r


def test_eta_anchor_level_15():
    space = cached_space(15)
    coeffs = eta_product([(1, 1), (3, 1), (5, 1), (15, 1)], 16)
    assert coeffs[1:5] == [1, -1, -1, -1]
    ident = identity(space.genus)
    for r in (2, 3, 5, 7, 11, 13):
        assert prime_matrix(space, r) == scale(ident, coeffs[r]), r


def test_old_space_relations_level_22():
    space = cached_space(22)
    assert space.genus == 2
    ident = identity(space.genus)
    u2 = prime_matrix(space, 2)
    assert is_zero(mat_sum(u2 * u2, scale(u2, 2), scale(ident, 2)))
    assert prime_matrix(space, 11) == ident
    assert prime_matrix(space, 3) == scale(ident, -1)
    assert prime_matrix(space, 7) == scale(ident, -2)


def test_hecke_multiplicative_and_commutative():
    space = cached_space(35)
    assert hecke_matrix(space, 6) == hecke_matrix(space, 2) * hecke_matrix(space, 3)
    direct = on_cuspidal(space, merel_symbol_rows(space, 6, range(len(space.symbols))))
    assert hecke_matrix(space, 6) == direct
    s11 = cached_space(11)
    four = merel_symbol_rows(s11, 4, range(len(s11.symbols)))
    assert hecke_matrix(s11, 4) == on_cuspidal(s11, four)
    s30 = cached_space(30)
    pairs = [(2, 3), (5, 7), (3, 7), (2, 11)]
    for a, b in pairs:
        ta = hecke_matrix(s30, a)
        tb = hecke_matrix(s30, b)
        assert ta * tb == tb * ta, (a, b)
    assert hecke_matrix(s30, 1) == identity(s30.genus)


def test_level_prime_powers_repeat_u():
    # Merel's determinant-p^e family gives U_p^e at a level prime p
    for n, p in ((14, 2), (30, 3), (35, 5)):
        space = cached_space(n)
        u = prime_matrix(space, p)
        for e in (2, 3):
            rows = merel_symbol_rows(space, p ** e, _cuspidal_lift(space)[1])
            assert on_cuspidal(space, rows) == hecke_matrix(space, p ** e), (n, p, e)
        assert hecke_matrix(space, p ** 3) == u * u * u, (n, p)


def test_boundary_sees_operator_degree():
    # a prime-r operator moves each cusp class to itself r+1 times over
    for n, r in ((11, 2), (14, 3), (30, 7)):
        space = cached_space(n)
        every = range(len(space.symbols))
        full = matrix_on_quotient(space, heilbronn_symbol_rows(space, r, every))
        assert full * boundary_of(space) == scale(boundary_of(space), r + 1), (n, r)


def test_ring_rank_matches_genus():
    assert len(cached_ring(11).basis) == 1
    assert len(cached_ring(7).basis) == 0
    assert len(cached_ring(30).basis) == 3
    assert len(cached_ring(35).basis) == 3
    model = cached_ring(11)
    assert model.bound == 2
    assert model.vector == (1,)
    assert hecke_matrix(model.space, 1) == identity(model.space.genus)


def test_ring_basis_matches_one_shot_hnf():
    # the ring HNF takes the orbit v T_k, k <= bound, one vector at a time
    # from the prime recursion; v times every full operator, all at once,
    # is the reference
    for n in (11, 35, 70, 105):
        ring = cached_ring(n)
        v = list(ring.vector)
        orbit = [_times(v, hecke_matrix(ring.space, k)) for k in range(1, ring.bound + 1)]
        assert basis_of(ring) == reference_hnf(IntMatrix(orbit, cols=ring.genus)), n


def test_ring_closed_under_products():
    # L T_k lies in L for every k <= bound, composites included
    ring = cached_ring(30)
    for k in range(1, ring.bound + 1):
        t = hecke_matrix(ring.space, k)
        for b in ring.basis:
            assert hnf_coordinates(basis_of(ring), _times(list(b), t)) is not None, k


def test_non_cyclic_candidates_fall_through(monkeypatch):
    # the first unit vector is not cyclic at 30, and no unit vector is at 39
    # or 66: each ring takes the first candidate whose orbit has rank g
    for n, v in ((30, (0, 1, 0)), (39, (1, 1, 1)), (66, (1,) * 9)):
        ring = cached_ring(n)
        assert ring.vector == v, n
        first = [int(j == 0) for j in range(ring.genus)]
        assert len(_echelon(_orbit(ring.space, first, ring.bound))[0]) < ring.genus, n
    # with no cyclic candidate at all, the ring is refused
    monkeypatch.setattr(modsym, "_candidates", lambda g: iter([[0] * g, [1] + [0] * (g - 1)]))
    with pytest.raises(RuntimeError, match="no candidate vector is cyclic"):
        hecke_ring(cached_space(35))


def test_index_anchors():
    assert level_indices(11)[11].index == 5
    assert level_indices(11)[11].elementary_divisors == (5,)
    assert level_indices(19)[19].index == 3
    assert level_indices(17)[17].index == 4
    assert level_indices(33)[3].index == 10
    assert level_indices(11)[1].index == 5


def test_index_zero_ring_flag():
    model = level_indices(7)[7]
    assert model.zero_ring
    assert model.index == 1
    assert not level_indices(11)[11].zero_ring


def test_index_stabilization_logged():
    model = level_indices(11)[11]
    assert len(model.stabilization) >= 3
    tail = [t for _, t in model.stabilization[-3:]]
    assert tail == [model.index] * 3
    assert "U11-1" in model.generator_names
    assert "T2-3" in model.generator_names


def test_index_rejects_non_divisor():
    with pytest.raises(ValueError):
        eisenstein_index(cached_ring(11), 4)
    with pytest.raises(ValueError):
        eisenstein_index(cached_ring(11), 0)


def test_comparison_verdicts():
    rep = compare_index_order(11, 11)
    assert rep.verdict == "equal"
    assert rep.index == rep.cusp_order == 5
    rep = compare_index_order(33, 3)
    assert rep.verdict == "equal"
    assert rep.alpha == rep.beta
    rep = compare_index_order(14, 7)
    assert rep.verdict in ("equal", "equal-up-to-2-power")
    t, c = rep.index, rep.cusp_order
    while t % 2 == 0:
        t //= 2
    while c % 2 == 0:
        c //= 2
    assert t == c == 3
    rep = compare_index_order(30, 15)
    assert rep.verdict == "equal-up-to-2-power"
    assert rep.index == 2 and rep.cusp_order == 1


def test_comparison_sweep_no_violations():
    for n in (11, 14, 15, 21, 22, 26, 30, 33, 34, 35):
        for m in range(2, n + 1):
            if n % m:
                continue
            rep = compare_index_order(n, m)
            assert rep.verdict != "violation", (n, m, rep.index, rep.cusp_order)
            exact = m != n and ((n // m) % 2 == 1)
            if exact:
                assert rep.index == rep.cusp_order, (n, m)


def test_census_level_11():
    recs = enumerate_eisenstein_maximal(11)
    assert [(r.ell, r.m) for r in recs] == [(5, 11)]
    assert recs[0].normalized
    assert recs[0].up_eigenvalues == ((11, 1),)


def test_census_drops_reappear_at_larger_m():
    # at level 33 the residue-5 ideal is dropped at m=3 (11 is 1 mod 5)
    # and must resurface at m=33
    recs = enumerate_eisenstein_maximal(33)
    pairs = [(r.ell, r.m) for r in recs]
    assert (5, 3) not in pairs
    assert (5, 33) in pairs
    assert (5, 11) in pairs
    assert level_indices(33)[3].index % 5 == 0
    assert level_indices(33)[33].index % 5 == 0


def test_census_residue_two_needs_small_cofactor():
    for n in (30, 34, 66):
        for rec in enumerate_eisenstein_maximal(n):
            if rec.ell == 2:
                assert n // rec.m in (1, 2), rec


def test_m1_witnesses():
    assert m1_index_witnesses(11) == ((5, 11),)
    for n in (14, 15, 30, 33, 34, 35, 66):
        for _, witness in m1_index_witnesses(n):
            assert witness is not None


def test_main_theorem_sample_levels():
    for n in (11, 14, 15, 17, 26, 30, 33, 34, 35, 66, 70):
        report = verify_main_theorem(n)
        assert report.ok, (n, [c for c in report.checks if not c.ok])


def test_main_theorem_case_labels():
    seventeen = verify_main_theorem(17)
    assert [c.case for c in seventeen.checks] == ["level-prime"]
    assert seventeen.checks[0].ok
    thirty_four = verify_main_theorem(34)
    cases = {c.case for c in thirty_four.checks}
    assert "doubled-prime" in cases
    doubled = next(c for c in thirty_four.checks if c.case == "doubled-prime")
    assert doubled.m == 17 and "order 4" in doubled.detail
    thirty = verify_main_theorem(30)
    assert {"doubled-composite", "level-composite"} <= {c.case for c in thirty.checks}


def test_cached_layers_are_shared():
    assert level_indices(11) is level_indices(11)
    assert list(level_indices(11)) == [1, 11]


def _live_spaces_and_rings() -> int:
    gc.collect()
    kinds = (modsym.ManinSymbolSpace, modsym.HeckeRingModel)
    return sum(isinstance(obj, kinds) for obj in gc.get_objects())


def test_level_indices_frees_the_space_and_the_ring():
    # no other test builds level 133, so this call builds its space and ring;
    # only the index models may outlive it
    before = _live_spaces_and_rings()
    misses = level_indices.cache_info().misses
    indices = level_indices(133)
    assert level_indices.cache_info().misses == misses + 1
    assert _live_spaces_and_rings() == before
    assert list(indices) == [1, 7, 19, 133]
    assert all(not model.zero_ring for model in indices.values())


def test_compare_refuses_a_non_divisor():
    for m in (7, 0, -2):
        with pytest.raises(ValueError, match="^m must be a positive divisor of the level$"):
            compare_index_order(30, m)


def test_p1_table_matches_normalisation():
    # the table against the extended-gcd normalisation it replaced, with the
    # old symbol order (sorted canonical points)
    levels = [n for n in range(2, 71) if all(n % (p * p) for p in (2, 3, 5, 7))]
    for n in levels + [130]:
        table, points = _p1_table(n)
        canon = [[p1_normalize(n, u, v) for v in range(n)] for u in range(n)]
        assert points == tuple(sorted({pt for row in canon for pt in row if pt})), n
        for u in range(n):
            for v in range(n):
                i = table[u * n + v]
                assert (i < 0) if canon[u][v] is None else points[i] == canon[u][v], (n, u, v)


def p1_table_full_scan(n):
    """_p1_table scanning every row u < n: the reference for the divisor-row scan."""
    table = array("i", [-1]) * (n * n)
    units = [s for s in range(1, n + 1) if gcd(s, n) == 1]
    points = []
    for u in range(n):
        gu = gcd(u, n)
        for v in range(n):
            if table[u * n + v] >= 0 or gcd(gu, v) != 1:
                continue
            k = len(points)
            points.append((u, v))
            for s in units:
                table[s * u % n * n + s * v % n] = k
    return table, tuple(points)


def test_p1_table_scans_divisor_rows_only():
    # the rows u = 0 and u = d, d | n, d < n, meet every orbit first: the
    # same table and point order as the full scan at every square-free
    # level 1-330 and at 462
    for n in [n for n in range(1, 331) if max(_factor(n).values(), default=1) == 1] + [462]:
        assert _p1_table(n) == p1_table_full_scan(n), n


def test_restricted_images_match_full():
    # operators read symbol images on the support of the cuspidal lift only
    for n, r in ((35, 3), (70, 11), (66, 7)):
        space = cached_space(n)
        support = _cuspidal_lift(space)[1]
        assert len(support) < len(space.symbols)
        every = range(len(space.symbols))
        full = on_cuspidal(space, heilbronn_symbol_rows(space, r, every))
        assert on_cuspidal(space, heilbronn_symbol_rows(space, r, support)) == full
        assert prime_matrix(space, r) == full


# The g^2-wide route, the reference for the ring as the cyclic module v T:
# every T_k a g x g matrix (prime powers by the Hecke recursion, composites
# as products), the ring the HNF of the flattened T_1, ..., T_bound, closed
# under every product of two basis matrices, and each generator's rows read
# off that product table.  It takes the production ring's cyclic vector v
# only to carry its ideals to Z^g.

def _vec(m: IntMatrix) -> list[int]:
    return [x for row in m.data for x in row]


def _times(vec: list[int], m: IntMatrix) -> list[int]:
    """Row vector times matrix."""
    out = [0] * m.cols
    for x, row in zip(vec, m.data):
        if x:
            out = [a + x * b for a, b in zip(out, row)]
    return out


def _prime_power_matrix(space, p: int, e: int) -> IntMatrix:
    key = ("power", p, e)
    if key in space.op_cache:
        return space.op_cache[key]
    a = prime_matrix(space, p)
    m = a
    if space.level.value % p == 0:
        for _ in range(e - 1):
            m = m * a
    else:
        prev = identity(a.rows)
        for _ in range(e - 1):
            prev, m = m, mat_sum(a * m, scale(prev, -p))
    space.op_cache[key] = m
    return m


def hecke_matrix(space, n: int) -> IntMatrix:
    """Matrix of the n-th Hecke operator on the star-fixed cuspidal basis (g x g)."""
    factors = [_prime_power_matrix(space, p, e) for p, e in _factor(n).items()]
    if not factors:
        return identity(space.genus)
    out = factors[0]
    for factor in factors[1:]:
        out = out * factor
    return out


def _check_closed(n: int, basis: list[list[int]]) -> list[list[int]]:
    """Coordinates of each product b_i b_j (i <= j) over the ring basis, in order.

    Raises unless every such product lies in the ring lattice.  The basis
    rows are the g x g matrices b_k flattened, in HNF.  For each i, one
    packed product (_mul) of b_i with the b_j, j >= i, laid side by side (g
    rows of width g(g - i)) gives every b_i b_j, and one _solve_over gives
    their coordinates and compares them with the products whole.
    """
    g = len(basis)
    fault = f"ring lattice not closed under products at level {n}"
    mats = [[b[r * g:(r + 1) * g] for r in range(g)] for b in basis]
    out = []
    for i, bi in enumerate(mats):
        side = [[x for bj in mats[i:] for x in bj[s]] for s in range(g)]
        wide = exactnum._mul(bi, side, g * (g - i))
        products = [
            [x for row in wide for x in row[k * g:(k + 1) * g]] for k in range(g - i)
        ]
        out.extend(_solve_over(basis, g * g, products, fault))
    return out


@lru_cache(maxsize=None)
def reference_ring(n: int):
    """The ring at level n as the HNF of the flattened T_k, k <= bound."""
    ring = cached_ring(n)
    rows, _ = _echelon(_vec(hecke_matrix(ring.space, k)) for k in range(1, ring.bound + 1))
    assert len(rows) == ring.genus, n
    return modsym.HeckeRingModel(
        space=ring.space, bound=ring.bound, basis=rows, genus=ring.genus, vector=ring.vector
    )


def _product_table(ring) -> list[list[list[int]]]:
    """table[i][j]: coordinates of b_i b_j over the ring basis, certified by _check_closed."""
    table = ring.cache.get("table")
    if table is None:
        g = ring.genus
        products = iter(_check_closed(ring.space.level.value, ring.basis))
        table = [[None] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                table[i][j] = table[j][i] = next(products)
        ring.cache["table"] = table
    return table


def reference_prime_rows(ring, p: int) -> list[list[int]]:
    """Row j: the coordinates of T_p b_j, sum_i c_i b_i b_j off the product table."""
    key = ("prime", p)
    if key not in ring.cache:
        c = hnf_coordinates(wide_basis(ring), _vec(prime_matrix(ring.space, p)))
        if c is None:
            raise RuntimeError(
                f"operator {p} escapes the ring lattice at level {ring.space.level.value}"
            )
        table = _product_table(ring)
        rows = []
        for j in range(ring.genus):
            row = [0] * ring.genus
            for ci, products in zip(c, table):
                if ci:
                    row = [a + ci * b for a, b in zip(row, products[j])]
            rows.append(row)
        ring.cache[key] = rows
    return ring.cache[key]


def reference_unit_coords(ring) -> list[int]:
    """Coordinates of T_1, the flattened identity, over the ring basis."""
    e = ring.cache.get("one")
    if e is None:
        e = ring.cache["one"] = hnf_coordinates(
            wide_basis(ring), _vec(identity(ring.genus))
        )
    return e


# The row-insertion route, the reference for the index as one linear
# functional: every generator t = T_p - s adds its g rows t*t_j, from
# _prime_rows, to the ideal's HNF, and the index is its pivot product.

def _next_generator_prime(r: int, n: int) -> int:
    r += 1
    while not is_prime(r) or n % r == 0:
        r += 1
    return r


@dataclasses.dataclass(frozen=True, eq=False)
class BasedIdeal(modsym.EisensteinIdealModel):
    """An index model with the HNF of its ideal, over the ring basis t_1, ..., t_g."""

    ideal_basis: IntMatrix


def ideal_basis(ring, m: int, t: int) -> IntMatrix:
    """The HNF of the ideal {x : x f = 0 mod t}, f = (phi(t_j)) for m, in closed form.

    With d_i = gcd(t, f_i, ..., f_{g-1}), row i has pivot d_{i+1}/d_i and
    then the x_j < d_{j+1}/d_j that keep x f = 0 mod d_{j+1}.
    """
    g = ring.genus
    if g == 0:
        return IntMatrix([], cols=0)
    f = modsym._functionals(ring)[m][0]
    d = list(accumulate(reversed(f), gcd, initial=t))[::-1]
    basis = [[0] * i + [d[i + 1] // d[i]] + [0] * (g - 1 - i) for i in range(g)]
    for i, row in enumerate(basis):
        y = row[i] * f[i]
        for j in (j for j in range(i + 1, g) if d[j + 1] > d[j]):
            q = d[j + 1] // d[j]
            row[j] = -(y // d[j]) * pow(f[j] // d[j], -1, q) % q
            y += row[j] * f[j]
    return IntMatrix(basis, cols=g)


def based_index(n: int, m: int) -> BasedIdeal:
    """level_indices(n)[m] with its ideal basis over the basis of cached_ring(n)."""
    model = level_indices(n)[m]
    return BasedIdeal(**vars(model), ideal_basis=ideal_basis(cached_ring(n), m, model.index))


def _in_ideal(ideal: list[list[int]], v: list[int]) -> bool:
    """Whether v lies in the lattice of the HNF rows ideal, by its membership solve."""
    return hnf_coordinates(IntMatrix(ideal, cols=len(v)), v) is not None


def insertion_index(ring, m: int):
    """Index of the ideal shifting each operator to its cusp-count value.

    Level primes dividing m are shifted by 1, the others by themselves;
    primes away from the level are shifted by r + 1.  The generator prime
    bound grows until the index survives two consecutive extra primes.
    A generator t = T_p - s adds the principal ideal t*T, spanned by the g
    products t*t_j over the ring basis: the rows of _prime_rows(ring, p)
    with s taken off the diagonal.  Their coordinates are shared by every
    m.  Once the ideal J has full rank, t itself (sum_j e_j t*t_j, with e
    the coordinates of T_1) is tested first, by its membership solve over
    J's HNF: when t is in J, so is every t*t_j, J being an ideal, and its g
    rows are skipped.
    """
    n = ring.space.level.value
    if m < 1 or n % m:
        raise ValueError("m must be a positive divisor of the level")
    if ring.genus == 0:
        return BasedIdeal(
            level=n, m=m, index=1, elementary_divisors=(), generator_names=(),
            prime_bound=0, stabilization=(), zero_ring=True,
            ideal_basis=IntMatrix([], cols=0),
        )
    g = ring.genus
    one = modsym._unit_coords(ring)
    ideal: list[list[int]] = []  # HNF basis of every generator row so far
    pivots: list[int] = []
    names: list[str] = []

    def absorb(kind: str, p: int, shift: int) -> None:
        names.append(f"{kind}{p}-{shift}")
        rows = modsym._prime_rows(ring, p)
        if len(ideal) == g:
            gen = [-shift * x for x in one]
            for x, row in zip(one, rows):
                if x:
                    gen = [a + x * b for a, b in zip(gen, row)]
            if _in_ideal(ideal, gen):
                return
        for j, row in enumerate(rows):
            row = row.copy()
            row[j] -= shift
            _hnf_insert(ideal, pivots, row)

    def index() -> int | None:
        # the pivot product once the ideal has full rank
        return prod(r[c] for r, c in zip(ideal, pivots)) if len(ideal) == g else None

    for p in ring.space.level.primes:
        absorb("U", p, 1 if m % p == 0 else p)
    start = [r for r in primes_up_to(ring.bound) if n % r]
    for r in start:
        absorb("T", r, r + 1)
    t = index()
    r = start[-1] if start else 1
    log = [(r, t)]
    stable = 0
    while stable < 2:
        r = _next_generator_prime(r, n)
        absorb("T", r, r + 1)
        t2 = index()
        log.append((r, t2))
        if t2 is not None and t2 == t:
            stable += 1
        else:
            stable = 0
        t = t2
        if r > 20 * ring.bound + 100:
            raise RuntimeError(f"index failed to stabilize at level {n}, m={m}")
    basis = IntMatrix(ideal, cols=g)
    # the ideal basis is a row HNF with pivot product t: the Smith form
    # starts from it
    eds = _smith_from_hnf(basis)
    if prod(eds) != t:
        raise RuntimeError(f"Smith form disagrees with the index at level {n}, m={m}")
    nontrivial = [e for e in eds if e != 1]
    if len(nontrivial) > 1:
        raise RuntimeError(
            f"quotient not cyclic at level {n}, m={m}: divisors {eds}"
        )
    return BasedIdeal(
        level=n, m=m, index=t, elementary_divisors=eds,
        generator_names=tuple(names), prime_bound=r, stabilization=tuple(log),
        zero_ring=False, ideal_basis=basis,
    )


@lru_cache(maxsize=None)
def reference_index(n: int, m: int):
    """The insertion route on the g^2-wide ring, its rows read off the product table."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modsym, "_prime_rows", reference_prime_rows)
        patch.setattr(modsym, "_unit_coords", reference_unit_coords)
        return insertion_index(reference_ring(n), m)


def _carried(v: list[int], flat) -> list[int]:
    """v t for the g x g matrix t flattened to one row."""
    g = len(v)
    return _times(v, IntMatrix([flat[i * g:(i + 1) * g] for i in range(g)], cols=g))


def _ideal_in_plus(model, ring) -> IntMatrix:
    """v J in Z^g: the ideal's rows times the ring basis, carried by v on the wide ring."""
    width = len(ring.basis[0])
    rows = (model.ideal_basis * IntMatrix(ring.basis, cols=width)).data
    if width != ring.genus:
        rows = [_carried(list(ring.vector), r) for r in rows]
    return hermite_normal_form(IntMatrix(rows, cols=ring.genus))


EQUALITY_LEVELS = SQUAREFREE + [105, 110, 130, 190, 210]


def test_cyclic_route_matches_the_wide_reference():
    # every index field but ideal_basis, every m, and the ideal lattice v J
    # in Z^g: the cyclic module against the g^2-wide ring and its table
    for n in EQUALITY_LEVELS:
        ring, ref = cached_ring(n), reference_ring(n)
        for m in (d for d in range(1, n + 1) if n % d == 0):
            new, old = based_index(n, m), reference_index(n, m)
            fields, wide = _index_fields(new), _index_fields(old)
            del fields[7], wide[7]
            assert fields == wide, (n, m)
            if ring.genus:
                assert _ideal_in_plus(new, ring) == _ideal_in_plus(old, ref), (n, m)


def test_probe_coordinates_match_full_width():
    # v is the probe: the coordinates c of v T_k over L are those of T_k over
    # the ring basis t_j (row j of L is v t_j), and U with U (v B) = L
    # carries them to the g^2-wide reference basis B.  The orbit runs to
    # 3 * bound here, past the prime powers the ring itself needs
    for n in (11, 35, 70):
        ring, ref = cached_ring(n), reference_ring(n)
        v, g = list(ring.vector), ring.genus
        vb = IntMatrix([_carried(v, b) for b in ref.basis], cols=g)
        h, u = hnf_with_transform(vb)
        assert h == basis_of(ring), n
        orbit = _orbit(ring.space, v, 3 * ring.bound)
        for k, w in enumerate(orbit, 1):
            t = hecke_matrix(ring.space, k)
            assert w == _times(v, t), (n, k)
            c = hnf_coordinates(basis_of(ring), w)
            assert c is not None, (n, k)
            assert _times(c, u) == hnf_coordinates(wide_basis(ref), _vec(t)), (n, k)


def _generator_rows(ring, names):
    # the `bound` rows of each named generator t: the coordinates over L of
    # v T_k t, k <= bound, every operator a full g x g matrix
    space, v = ring.space, list(ring.vector)
    rows = []
    for name in names:
        head, shift = name[1:].split("-")
        t = mat_sum(hecke_matrix(space, int(head)),
                    scale(identity(ring.genus), -int(shift)))
        for k in range(1, ring.bound + 1):
            c = hnf_coordinates(basis_of(ring), _times(_times(v, hecke_matrix(space, k)), t))
            assert c is not None, (name, k)
            rows.append(c)
    return rows


def _table_rows(ring, name):
    # the g rows t*b_j the index takes for the generator t named
    head, shift = name[1:].split("-")
    shift = int(shift)
    return [
        [x - shift * (i == j) for i, x in enumerate(row)]
        for j, row in enumerate(_prime_rows(ring, int(head)))
    ]


INDEX_LEVELS = (11, 35, 66, 70, 105)


def test_incremental_index_hnf_matches_one_shot():
    for n in INDEX_LEVELS:
        ring = cached_ring(n)
        for m in (d for d in range(1, n + 1) if n % d == 0):
            model = based_index(n, m)
            rows = _generator_rows(ring, model.generator_names)
            one_shot = reference_hnf(IntMatrix(rows, cols=ring.genus))
            assert model.ideal_basis == one_shot, (n, m)


def test_table_rows_span_each_generator_ideal():
    # each generator on its own: its g rows over L and its `bound` rows
    # v T_k t span the same principal ideal t*T
    for n in INDEX_LEVELS:
        ring = cached_ring(n)
        names = {
            name
            for m in range(1, n + 1) if n % m == 0
            for name in level_indices(n)[m].generator_names
        }
        for name in sorted(names):
            table = reference_hnf(IntMatrix(_table_rows(ring, name), cols=ring.genus))
            oracle = reference_hnf(IntMatrix(_generator_rows(ring, [name]), cols=ring.genus))
            assert table == oracle, (n, name)


def test_planted_prime_operator_escapes_ring():
    # T_r + E_00 for a prime r above the bound: at 22 and 35 the ring
    # lattice is Z^g, which that integer matrix maps into itself, so its
    # solve alone passes; the commutation with every T_q, q <= bound,
    # refuses it, both in the per-prime rows and in the index that reads
    # them (at genus 1 every 1 x 1 operator commutes and lies in Z)
    for n, r in ((22, 7), (35, 13)):
        space = build_space(n)
        ring = hecke_ring(space)
        assert r > ring.bound
        assert basis_of(ring) == identity(ring.genus)
        wrong = [list(row) for row in _prime_matrix(build_space(n), r)]
        wrong[0][0] += 1
        space.op_cache[("prime", r)] = wrong
        assert _solve_over(ring.basis, ring.genus, wrong, "escapes") == wrong
        with pytest.raises(RuntimeError, match="escapes the ring lattice"):
            _prime_rows(ring, r)
        with pytest.raises(RuntimeError, match="escapes the ring lattice"):
            eisenstein_index(ring, n)


def test_planted_ring_without_identity_is_refused():
    # the index reads its generators through the coordinates of T_1
    ring = cached_ring(11)
    doubled = modsym.HeckeRingModel(
        space=ring.space, bound=ring.bound, basis=[[2 * x for x in row] for row in ring.basis],
        genus=ring.genus,
        vector=ring.vector,
    )
    with pytest.raises(RuntimeError, match="operator 1 escapes the ring lattice"):
        eisenstein_index(doubled, 11)


def test_planted_smith_form_disagrees_with_index(monkeypatch):
    # the insertion reference reads its divisors off the ideal's Smith form
    smith = _smith_from_hnf

    def off_by_two(h):
        *head, last = smith(h)
        return (*head, 2 * last)

    monkeypatch.setattr(sys.modules[__name__], "_smith_from_hnf", off_by_two)
    with pytest.raises(RuntimeError, match="Smith form disagrees with the index"):
        insertion_index(hecke_ring(build_space(11)), 11)


def _index_fields(t):
    return [
        t.level, t.m, t.index, list(t.elementary_divisors),
        list(t.generator_names), t.prime_bound,
        [list(step) for step in t.stabilization],
        tolist(t.ideal_basis), t.zero_ring,
    ]


def _index_digests(levels, index=based_index):
    """Digests of every index field but ideal_basis, and of ideal_basis, every m.

    ideal_basis is written over the ring basis, which depends on the route
    the ring is built by; every other field belongs to the ring itself.
    """
    fields, basis = hashlib.sha256(), hashlib.sha256()
    for n in levels:
        for m in (d for d in range(1, n + 1) if n % d == 0):
            record = _index_fields(index(n, m))
            basis.update(json.dumps(record.pop(7)).encode() + b"\n")
            fields.update(json.dumps(record).encode() + b"\n")
    return fields.hexdigest()[:16], basis.hexdigest()[:16]


def test_index_models_above_the_golden_range():
    # every index field but ideal_basis, every m, at the levels the
    # bench golden sees only the index and verdict of
    assert _index_digests((105, 110, 130))[0] == "8d2583927601d326"


def test_index_models_through_level_70():
    # every index field but ideal_basis, every m, at every
    # square-free level 7-70
    assert _index_digests(SQUAREFREE)[0] == "5f3adb54fd2c51f1"


def test_ideal_basis_pinned():
    # on the g^2-wide reference ring, whose basis production used until the
    # cyclic module; with the ring on the full 2g cuspidal lattice these
    # were 97656357d15e9a05 and be3ccebb6c80a258
    assert _index_digests(SQUAREFREE, reference_index)[1] == "52053d9b4e7397d0"
    assert _index_digests((105, 110, 130), reference_index)[1] == "5662361d5e9a8821"
    # over the basis of L = v T; over the g^2-wide ring basis these were
    # 52053d9b4e7397d0 and 5662361d5e9a8821
    assert _index_digests(SQUAREFREE)[1] == "d9bb0ea1f26bad2b"
    assert _index_digests((105, 110, 130))[1] == "6499e00cd92a8494"


def test_index_without_the_generator_skip(monkeypatch):
    # in the insertion reference, a generator already in the ideal adds
    # nothing: inserting all of its rows instead gives the same model,
    # stabilization trace included, and so does the functional route
    levels = [n for n in range(2, 71) if all(n % (p * p) for p in (2, 3, 5, 7))]
    pairs = [(n, m) for n in levels + [105] for m in range(1, n + 1) if n % m == 0]
    skipped = []
    contains = _in_ideal
    this = sys.modules[__name__]

    def spy(*args):
        skipped.append(contains(*args))
        return skipped[-1]

    with monkeypatch.context() as patch:
        patch.setattr(this, "_in_ideal", spy)
        with_skip = [_index_fields(insertion_index(cached_ring(n), m)) for n, m in pairs]
    assert any(skipped) and not all(skipped)
    monkeypatch.setattr(this, "_in_ideal", lambda *args: False)
    for (n, m), fields in zip(pairs, with_skip):
        assert _index_fields(insertion_index(cached_ring(n), m)) == fields, (n, m)
        assert _index_fields(based_index(n, m)) == fields, (n, m)


FUNCTIONAL_LEVELS = [
    n for n in range(7, 131) if all(n % (p * p) for p in (2, 3, 5, 7, 11))
] + [190, 210]


def test_functional_route_matches_insertion_reference():
    # every field, ideal_basis included, at every m: one gcd of residuals of
    # phi against the g rows per generator inserted into the ideal's HNF
    for n in FUNCTIONAL_LEVELS:
        ring = cached_ring(n)
        for m in (d for d in range(1, n + 1) if n % d == 0):
            new = _index_fields(based_index(n, m))
            assert new == _index_fields(insertion_index(ring, m)), (n, m)


def _planted_ring(ring):
    """A copy of ring whose cache keeps the prime rows and holds the orbit again, not phi."""
    cache = {k: v for k, v in ring.cache.items() if k != "phi"}
    cache["orbit"] = _orbit(ring.space, list(ring.vector), ring.bound)
    return dataclasses.replace(ring, cache=cache)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_level_primes_above_the_bound_are_needed(monkeypatch):
    # condition (ii) with U_13 skipped at N = 26, where the bound is 7: the
    # shifted rows of U_13 - 1 read as zero, and the index of the ideal at
    # m = 26 reads 7 where the ring's is 1
    ring = cached_ring(26)
    assert ring.bound < 13
    rows = modsym._prime_rows

    def skip_13(ring, p):
        if p != 13:
            return rows(ring, p)
        return [[int(i == j) for i in range(ring.genus)] for j in range(ring.genus)]

    assert level_indices(26)[26].index == insertion_index(ring, 26).index == 1
    monkeypatch.setattr(modsym, "_prime_rows", skip_13)
    assert eisenstein_index(_planted_ring(ring), 26).index == 7


PLANT_LEVELS = (11, 26, 35, 38, 66)


def test_planted_eigenvalue_changes_the_index(monkeypatch):
    # a_k + 1 for one k <= bound: (ii) makes phi a ring map with phi(T_k) =
    # a_k, so (i) then allows no t > 1, and every index above 1 changes
    series = modsym.eisenstein_series
    seen = 0
    for n in PLANT_LEVELS:
        ring = cached_ring(n)
        indices = {m: model.index for m, model in level_indices(n).items()}
        for k in range(2, ring.bound + 1):

            def planted_series(level, m, precision):
                f = series(level, m, precision)
                return tuple(x - 24 * (j == k) for j, x in enumerate(f))

            with monkeypatch.context() as patch:
                patch.setattr(modsym, "eisenstein_series", planted_series)
                planted = _planted_ring(ring)
                for m, t in indices.items():
                    if t > 1:
                        assert eisenstein_index(planted, m).index != t, (n, k, m)
                        seen += 1
    assert seen > 20


def test_planted_prime_rows_entry_changes_the_index():
    # a wrong entry (j, i) of _prime_rows(ring, p) moves phi(t_j T_p) by
    # f_i: at 1 < m < N, where no later prime moves t, the index becomes
    # gcd(t, f_i), which is t only where f_i = 0 mod t hides the entry
    changed = 0
    for n in PLANT_LEVELS:
        ring = cached_ring(n)
        ps = sorted(set(primes_up_to(ring.bound)) | set(ring.space.level.primes))
        for m in _divisors(n)[1:-1]:
            t = level_indices(n)[m].index
            f = modsym._functionals(ring)[m][0]
            for p in ps:
                for i in range(ring.genus):
                    rows = [row.copy() for row in _prime_rows(ring, p)]
                    rows[0][i] += 1
                    planted = _planted_ring(ring)
                    planted.cache[("prime", p)] = rows
                    got = eisenstein_index(planted, m).index
                    assert got == gcd(t, f[i]), (n, m, p, i)
                    changed += got != t
    assert changed > 20


def test_planted_extra_prime_lowering_the_index_raises():
    # phi(T_r) moved by 1 for the first generator prime r above the bound.
    # The Sturm bound rules that out at 1 < m < N, and at m = N when t
    # divides the numerator of phi(N)/24, and there it raises; elsewhere
    # the index is certified by stabilization only, and drops to 1
    raised = dropped = 0
    for n in PLANT_LEVELS + (17, 34):
        ring = cached_ring(n)
        r = level_indices(n)[1].stabilization[1][0]
        moved = [
            [x + (i == j) for i, x in enumerate(row)]
            for j, row in enumerate(_prime_rows(ring, r))
        ]
        for m in _divisors(n):
            t = level_indices(n)[m].index
            if t == 1:
                continue
            planted = _planted_ring(ring)
            planted.cache[("prime", r)] = moved
            sturm = 1 < m < n or m == n and Fraction(phi_psi_omega(n)[0], 24).numerator % t == 0
            if sturm:
                with pytest.raises(RuntimeError, match="past the Sturm bound"):
                    eisenstein_index(planted, m)
                raised += 1
            else:
                assert eisenstein_index(planted, m).index == 1, (n, m)
                dropped += 1
    assert raised > 5 and dropped > 5


def test_rref_small():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(7)],
    ]
    red, pivots = rref(rows)
    assert pivots == [0, 2]
    assert red == [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_integer_quotient_matches_fraction_route(monkeypatch):
    # the Fraction route's common denominator is 1 at every level: the
    # quotient is unimodular, and its images are the integer route's
    seen = []
    quotient = modsym._relation_quotient

    def by_fractions(relations, kept, nn):
        images, free, den = relation_quotient_by_fractions(relations, kept)
        assert den == 1, nn
        assert quotient(relations, kept, nn) == (images, free), nn
        seen.append(kept)
        return images, free

    levels = [n for n in range(2, 71) if all(n % (p * p) for p in (2, 3, 5, 7))]
    levels += [105, 110, 130]
    for n in levels:
        with monkeypatch.context() as patch:
            patch.setattr(modsym, "_relation_quotient", by_fractions)
            old = build_space(n)
        new = cached_space(n)
        assert old.coords == new.coords, n
        assert old.boundary == new.boundary, n
        assert cuspidal_lattice(old) == cuspidal_lattice(new), n
        assert old.genus == new.genus, n
    assert len(seen) == len(levels)


def test_relation_quotient_refuses_non_unit_pivot():
    assert _relation_quotient([{0: 1, 1: 1}], 2, 7) == ([[-1], [1]], [1])
    assert _relation_quotient([], 2, 7) == ([[1, 0], [0, 1]], [0, 1])
    with pytest.raises(RuntimeError, match="not unimodular at level 7"):
        _relation_quotient([{0: 2, 1: 1}], 2, 7)
    # a unit pivot that a later row turns into 2
    with pytest.raises(RuntimeError, match="not unimodular at level 7"):
        _relation_quotient([{0: 1, 1: 1, 2: 1}, {0: 1, 1: -1}], 3, 7)


def slot_substitution(space):
    """(slot, sign) of every symbol as build_space numbers the two-term slots; None if S-fixed."""
    n = space.level.value
    slot, subst = {}, []
    for i, (u, v) in enumerate(space.symbols):
        j = space.p1_index[v % n * n + -u % n]
        if i < j:
            slot[i] = len(slot)
            subst.append((slot[i], 1))
        else:
            subst.append(None if i == j else (slot[j], -1))
    return subst


def space_by_symbol_rows(space, slot_images):
    """The lattice route over all psi(N) symbols, S-fixed included.

    The symbol images are the slot images times each symbol's sign, or
    zero; the lattice is their HNF, coords one hnf_coordinates per symbol,
    and the section the full fold of [coords | I].  The boundary is the
    section times every symbol's boundary row, and the star is read from
    the cuspidal basis lifted through that section.
    """
    n, rank = space.level.value, space.quotient_rank
    zero = [0] * rank
    scaled = IntMatrix(
        [zero if sub is None else [sub[1] * x for x in slot_images[sub[0]]]
         for sub in slot_substitution(space)],
        cols=rank,
    )
    lattice = hermite_normal_form(scaled)
    coords = IntMatrix([hnf_coordinates(lattice, row) for row in scaled.data], cols=rank)
    section = left_inverse_by_full_fold(coords)
    assert section is not None, n
    divisors = level_divisors(n)
    brows = [lift_boundary_row(n, divisors, c, d) for c, d in space.symbols]
    boundary = section * IntMatrix(brows, cols=len(divisors))
    cuspidal = hermite_normal_form(kernel(boundary))
    flipped = IntMatrix(
        [[-y for y in coords[space.p1_index[-u % n * n + v]]] for u, v in space.symbols],
        cols=rank,
    )
    star = IntMatrix(
        [hnf_coordinates(cuspidal, row) for row in (cuspidal * section * flipped).data],
        cols=cuspidal.rows,
    )
    minus_ident = scale(identity(cuspidal.rows), -1)
    plus = hermite_normal_form(kernel(mat_sum(star, minus_ident)) * cuspidal)
    return {"lattice": lattice, "coords": coords, "section": section,
            "boundary": boundary, "cuspidal": cuspidal, "plus": plus}


def test_slot_route_matches_symbol_rows(monkeypatch):
    # the HNF of every symbol's image is the identity, so coords are the
    # slot images themselves, and the full-fold section (not the selector)
    # gives the same boundary, cuspidal lattice and star-fixed half
    captured = []
    quotient = modsym._relation_quotient

    def capture(relations, kept, nn):
        captured.append(quotient(relations, kept, nn))
        return captured[-1]

    levels = [n for n in range(1, 71) if all(n % (p * p) for p in (2, 3, 5, 7))]
    levels += [105, 110, 130, 190, 210]
    monkeypatch.setattr(modsym, "_relation_quotient", capture)
    for n in levels:
        space = build_space(n)
        ref = space_by_symbol_rows(space, captured[-1][0])
        rank = space.quotient_rank
        assert ref["lattice"] == identity(rank), n
        assert ref["section"] * coords_of(space) == identity(rank), n
        assert section_matrix(space) * coords_of(space) == identity(rank), n
        for name, ours in (("coords", coords_of), ("boundary", boundary_of), ("plus", plus_of)):
            assert ref[name] == ours(space), (n, name)
        assert ref["cuspidal"] == cuspidal_lattice(space), n
        assert len(space.plus) == space.genus, n
    assert len(captured) == len(levels)


# One extra relation setting one two-term slot to zero: the quotient is too
# small, every relation check on the symbols still holds, and at level 14
# the slot decides which certificate of build_space is the first to see it.
@pytest.mark.parametrize(
    ("slot", "message"),
    [
        (0, "cuspidal rank defect at level 14"),
        (4, "star is not an involution at level 14"),
        (2, "star does not negate the boundary at level 14"),
        (3, "star-fixed rank 0 is not half the cuspidal rank at level 14"),
    ],
    ids=["boundary-rank", "star-squared", "star-boundary", "half-rank"],
)
def test_planted_quotient_fault_is_refused(monkeypatch, slot, message):
    quotient = modsym._relation_quotient
    monkeypatch.setattr(
        modsym,
        "_relation_quotient",
        lambda relations, kept, nn: quotient([*relations, {slot: 1}], kept, nn),
    )
    with pytest.raises(RuntimeError, match=message):
        build_space(14)


def test_planted_projective_line_short_of_psi_is_refused(monkeypatch):
    table = modsym._p1_table

    def short(n):
        index, points = table(n)
        return index, points[:-1]

    monkeypatch.setattr(modsym, "_p1_table", short)
    with pytest.raises(RuntimeError, match="projective line count mismatch at level 11"):
        build_space(11)


@pytest.mark.parametrize(
    ("name", "message"),
    [
        ("_S", "S does not act as an involution on symbols at level 11"),
        ("_T", "T does not act with order three on symbols at level 11"),
    ],
    ids=["S", "T"],
)
def test_planted_generator_of_infinite_order_is_refused(monkeypatch, name, message):
    # (u : v) -> (u : u + v) has infinite order in SL_2(Z) and moves every
    # symbol with u a unit mod 11, so neither S^2 nor T^3 fixes it
    monkeypatch.setattr(modsym, name, (1, 1, 0, 1))
    with pytest.raises(RuntimeError, match=message):
        build_space(11)


def test_planted_free_slot_image_off_its_unit_vector_is_refused(monkeypatch):
    # free slot 0 maps to twice its unit vector: every relation check still
    # holds over Q, but basis symbol 0 no longer has coordinates e_0
    quotient = modsym._relation_quotient

    def doubled(relations, kept, nn):
        images, free = quotient(relations, kept, nn)
        images[free[0]] = [2 * x for x in images[free[0]]]
        return images, free

    monkeypatch.setattr(modsym, "_relation_quotient", doubled)
    with pytest.raises(
        RuntimeError, match="basis symbols do not split the symbol images at level 11"
    ):
        build_space(11)


def test_planted_ring_basis_off_the_orbit_is_refused():
    # L with its first row doubled still has rank g, but it is not the HNF
    # of the orbit v T_k that _functionals echelonizes again
    ring = hecke_ring(build_space(30))
    doubled = modsym.HeckeRingModel(
        space=ring.space, bound=ring.bound,
        basis=[[2 * x for x in ring.basis[0]], *ring.basis[1:]],
        genus=ring.genus, vector=ring.vector, cache={"orbit": ring.cache["orbit"]},
    )
    with pytest.raises(RuntimeError, match="the orbit does not echelonize to L at level 30"):
        modsym._functionals(doubled)


def test_planted_functional_not_onto_is_refused(monkeypatch):
    # phi(T_1) = e f must be 1 mod t, and t must not be 0: at (11, 11) t = 5
    ring = hecke_ring(build_space(11))
    functionals = modsym._functionals
    with monkeypatch.context() as patch:
        patch.setattr(modsym, "_unit_coords", lambda ring: [0] * ring.genus)
        with pytest.raises(RuntimeError, match=r"phi is not onto Z/t .* level 11, m=11: t = 5$"):
            eisenstein_index(ring, 11)
    monkeypatch.setattr(
        modsym, "_functionals", lambda ring: {m: (f, 0) for m, (f, _) in functionals(ring).items()}
    )
    with pytest.raises(
        RuntimeError, match=r"phi is not onto Z/t with phi\(T_1\) = 1 at level 11, m=11: t = 0$"
    ):
        eisenstein_index(ring, 11)


def test_planted_odd_prime_without_witness_is_falsified(monkeypatch):
    monkeypatch.setattr(modsym, "m1_index_witnesses", lambda n: ((3, None),))
    with pytest.raises(
        modsym.FalsifiedExpectation,
        match="odd prime 3 divides the m=1 index at level 11 with no level prime = 1 mod 3",
    ):
        enumerate_eisenstein_maximal(11)


def test_planted_residue_two_record_outside_the_cases_is_falsified(monkeypatch):
    # residue 2 at m = 3 of level 30: neither m = N nor N = 2m
    record = modsym.MaximalIdealRecord(ell=2, m=3, normalized=True, up_eigenvalues=())
    monkeypatch.setattr(modsym, "enumerate_eisenstein_maximal", lambda n: [record])
    with pytest.raises(
        modsym.FalsifiedExpectation, match=r"record \(2, 3\) escapes the residue-2 normalization"
    ):
        verify_main_theorem(30)


# SHA-256 over basis_symbols, coords, boundary, plus and genus at every
# square-free level 1-210, 330 and 462, one line each as symbol_space_digest
# writes them; recorded from the build that solved the star over the
# cuspidal lattice
SYMBOL_SPACE_LEVELS = [
    n for n in range(1, 211) if all(n % (p * p) for p in (2, 3, 5, 7, 11, 13))
] + [330, 462]
SYMBOL_SPACE_SHA256 = "18790b61388dfc6109cbcf0d891647f40e7d750855f86918c8c7c93f6fe9fda3"


def symbol_space_digest() -> str:
    h = hashlib.sha256()
    for n in SYMBOL_SPACE_LEVELS:
        s = build_space(n)
        line = f"{n}:{s.basis_symbols}:{s.coords}:{s.boundary}:{s.plus}:{s.genus}\n"
        h.update(line.encode())
    return h.hexdigest()


def test_symbol_spaces_are_pinned():
    assert symbol_space_digest() == SYMBOL_SPACE_SHA256


def test_space_work_is_one_solve_per_slot(monkeypatch):
    # deterministic counts, not a timing: the slot route once solved one row
    # per two-term slot and folded up to one per slot (124 slots at N = 130).
    # The unimodular quotient reads the coordinates off the elimination, so
    # up to the boundary there is no solve and no HNF insertion.  Then one
    # insertion per boundary row gives its rank, the one kernel is that of
    # F - I on the whole quotient, and the build solves nothing
    events = []
    solve, insert = modsym._solve_over, exactnum._hnf_insert

    def counting_solve(basis, width, images, fault):
        events.append(("solve", len(images)))
        return solve(basis, width, images, fault)

    def counting_insert(*args):
        events.append(("insert", None))
        return insert(*args)

    def marked_kernel(rows):
        events.append(("kernel", len(rows)))
        return left_kernel(rows)

    monkeypatch.setattr(modsym, "_solve_over", counting_solve)
    monkeypatch.setattr(exactnum, "_hnf_insert", counting_insert)
    monkeypatch.setattr(modsym, "left_kernel", marked_kernel)
    space = build_space(130)
    rank = space.quotient_rank
    assert (len(space.symbols), rank, space.genus) == (252, 41, 17)
    assert events[:rank + 1] == [("insert", None)] * rank + [("kernel", rank)]
    assert [e for e in events if e[0] == "kernel"] == [("kernel", rank)]
    assert [e for e in events if e[0] == "solve"] == []


def test_packed_closure_matches_full_width():
    # each prime's rows from one packed product L T_p and one batched solve,
    # against one hnf_coordinates call per row b_j T_p
    for n in (11, 30, 35, 70, 105):
        ring = cached_ring(n)
        for p in primes_up_to(ring.bound + 10):
            t = prime_matrix(ring.space, p)
            full = [hnf_coordinates(basis_of(ring), _times(list(b), t)) for b in ring.basis]
            assert _prime_rows(ring, p) == full, (n, p)


def test_closure_with_wide_digits():
    # k L is stable under the same operators with the same coordinates, and
    # k v has the same coordinates over it; at k = 2^70 the packed products
    # run on digits wider than 64 bits, which no level of the bench
    # workloads reaches
    k = 2 ** 70
    for n in (30, 70, 105):
        ring = cached_ring(n)
        wide = modsym.HeckeRingModel(
            space=ring.space, bound=ring.bound, basis=[[k * x for x in row] for row in ring.basis],
            genus=ring.genus,
            vector=tuple(k * x for x in ring.vector),
        )
        for p in primes_up_to(ring.bound + 10):
            assert _prime_rows(wide, p) == _prime_rows(ring, p), (n, p)
        assert _unit_coords(wide) == _unit_coords(ring), n


def test_planted_product_escapes_ring(monkeypatch):
    # the orbit's HNF with its first row doubled still has rank g but is not
    # stable under every T_q, q <= bound: hecke_ring's closure refuses it
    echelon = modsym._echelon

    def doubled(rows):
        h, _ = echelon(rows)
        return echelon([[2 * x for x in h[0]]] + h[1:]) if h else (h, [])

    monkeypatch.setattr(modsym, "_echelon", doubled)
    for n in (30, 35, 70):
        with pytest.raises(RuntimeError, match="escapes the ring lattice"):
            hecke_ring(build_space(n))
