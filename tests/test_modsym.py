import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

from eislab import modsym
from eislab.divlattice import SquareFreeLevel
from eislab.exactnum import (
    IntMatrix,
    hermite_normal_form,
    hnf_coordinates,
    phi_psi_omega,
    xgcd,
)
from eislab.modsym import (
    boundary_and_cusps,
    build_space,
    cached_index,
    cached_ring,
    cached_space,
    compare_index_order,
    eisenstein_index,
    enumerate_eisenstein_maximal,
    hecke_matrix,
    hecke_ring,
    m1_index_witnesses,
    verify_main_theorem,
    _check_closed,
    _cuspidal_lift,
    _cusps_equivalent,
    _hnf_insert,
    _hnf_insert_mod,
    _matrix_on_cuspidal,
    _merel_family,
    _merel_symbol_rows,
    _op_coords,
    _p1_table,
    _reduce_above_pivots,
    _relation_quotient,
    _rows_by_paths,
    _t_symbol_rows_by_paths,
    _vec,
)

SQUAREFREE = [n for n in range(7, 71)
              if all(n % (p * p) for p in (2, 3, 5, 7))]


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
    common denominator of all symbol images).
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
    return [[int(x * den) for x in expr[j]] for j in range(kept)]


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
            xr = space.coords.data[j]
            for t in range(rank_q):
                acc[t] += mult * xr[t]
        out.append(acc)
    return out


def matrix_on_quotient(space, symbol_rows):
    w = IntMatrix(image_rows(space, symbol_rows), cols=space.quotient_rank)
    return space.section * w


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
        build_space(12)
    with pytest.raises(ValueError):
        build_space(45)
    with pytest.raises(ValueError):
        build_space(127)
    build_space(127, max_level=127)


def test_quotient_rank_accounts_for_cusps_and_genus():
    for n in (11, 14, 15, 21, 30, 33):
        space = cached_space(n)
        classes = len(space.cusps.labels)
        assert space.quotient_rank == 2 * space.genus + classes - 1


def test_cusp_classes_follow_divisors():
    for n in (11, 14, 30, 66):
        space = cached_space(n)
        level = space.level
        assert len(space.cusps.labels) == 2 ** len(level.primes)
        assert all(n % d == 0 for d in space.cusps.labels)
    assert cached_space(11).cusps.labels == (1, 11)


def test_cusp_classification_dual_route():
    rng = random.Random(37)
    from math import gcd
    for n in (14, 15, 30):
        space = cached_space(n)
        for _ in range(60):
            c = rng.randrange(0, 3 * n)
            a = rng.randrange(1, 3 * n)
            g = gcd(a, c)
            a, c = a // g, c // g
            label = space.cusps.labels[space.cusps.classify((a, c))]
            assert label == gcd(c, n)


def test_cusp_equivalence_is_congruence_invariant():
    rng = random.Random(41)
    for n in (11, 14, 30):
        reps = cached_space(n).cusps.representatives
        for i, x in enumerate(reps):
            for j, y in enumerate(reps):
                assert _cusps_equivalent(n, x, y) == (i == j)
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
            assert _cusps_equivalent(n, (a, c), moved)


def test_identity_paths_recover_symbols():
    # writing each symbol as a geodesic chain must give back its own class
    for n in (11, 14, 30):
        space = cached_space(n)
        rows = _rows_by_paths(space, 1, False)
        assert matrix_on_quotient(space, rows) == IntMatrix.identity(space.quotient_rank)


def test_boundary_well_defined_and_ranked():
    for n in (11, 15, 30):
        space = cached_space(n)
        cusps, boundary = boundary_and_cusps(space)
        assert boundary.rows == space.quotient_rank
        assert boundary.cols == len(cusps.labels)
        from eislab.exactnum import hermite_normal_form
        assert hermite_normal_form(boundary).rows == len(cusps.labels) - 1


def test_merel_family_shape():
    for n, size in ((2, 4), (3, 7)):
        fam = _merel_family(n)
        assert len(fam) == size
        assert all(a * d - b * c == n for a, b, c, d in fam)
        assert all(a > b >= 0 and d > c >= 0 for a, b, c, d in fam)


def test_prime_action_two_routes_agree():
    rng = random.Random(43)
    cases = [(11, 2), (11, 3), (14, 3), (15, 2), (30, 7)]
    cases += [(rng.choice((21, 22, 26)), rng.choice((3, 5, 7, 11))) for _ in range(4)]
    for n, r in cases:
        if n % r == 0:
            continue
        space = cached_space(n)
        merel = _matrix_on_cuspidal(space, _merel_symbol_rows(space, r))
        paths = _matrix_on_cuspidal(space, _t_symbol_rows_by_paths(space, r))
        assert merel == paths, (n, r)


def test_eta_anchor_level_11():
    space = cached_space(11)
    coeffs = eta_product([(1, 2), (11, 2)], 16)
    assert coeffs[1:6] == [1, -2, -1, 2, 1]
    ident = IntMatrix.identity(2)
    for r in (2, 3, 5, 7, 13):
        assert hecke_matrix(space, r) == ident.scale(coeffs[r]), r
    assert hecke_matrix(space, 11) == ident.scale(coeffs[11])
    char = hecke_matrix(space, 2)
    assert (char + ident.scale(2)).is_zero()


def test_eta_anchor_level_14():
    space = cached_space(14)
    coeffs = eta_product([(1, 1), (2, 1), (7, 1), (14, 1)], 16)
    assert coeffs[1:8] == [1, -1, -2, 1, 0, 2, 1]
    ident = IntMatrix.identity(2)
    for r in (2, 3, 5, 7, 11, 13):
        assert hecke_matrix(space, r) == ident.scale(coeffs[r]), r


def test_eta_anchor_level_15():
    space = cached_space(15)
    coeffs = eta_product([(1, 1), (3, 1), (5, 1), (15, 1)], 16)
    assert coeffs[1:5] == [1, -1, -1, -1]
    ident = IntMatrix.identity(2)
    for r in (2, 3, 5, 7, 11, 13):
        assert hecke_matrix(space, r) == ident.scale(coeffs[r]), r


def test_old_space_relations_level_22():
    space = cached_space(22)
    assert space.genus == 2
    ident = IntMatrix.identity(4)
    u2 = hecke_matrix(space, 2)
    assert (u2 * u2 + u2.scale(2) + ident.scale(2)).is_zero()
    assert hecke_matrix(space, 11) == ident
    assert hecke_matrix(space, 3) == ident.scale(-1)
    assert hecke_matrix(space, 7) == ident.scale(-2)


def test_hecke_multiplicative_and_commutative():
    space = cached_space(35)
    assert hecke_matrix(space, 6) == hecke_matrix(space, 2) * hecke_matrix(space, 3)
    direct = _matrix_on_cuspidal(space, _merel_symbol_rows(space, 6))
    assert hecke_matrix(space, 6) == direct
    s11 = cached_space(11)
    assert hecke_matrix(s11, 4) == _matrix_on_cuspidal(s11, _merel_symbol_rows(s11, 4))
    s30 = cached_space(30)
    pairs = [(2, 3), (5, 7), (3, 7), (2, 11)]
    for a, b in pairs:
        ta = hecke_matrix(s30, a)
        tb = hecke_matrix(s30, b)
        assert ta * tb == tb * ta, (a, b)
    assert hecke_matrix(s30, 1) == IntMatrix.identity(2 * s30.genus)


def test_level_prime_powers_repeat_u():
    space = cached_space(14)
    u2 = hecke_matrix(space, 2)
    assert hecke_matrix(space, 4) == u2 * u2
    assert hecke_matrix(space, 8) == u2 * u2 * u2


def test_boundary_sees_operator_degree():
    # a prime-r operator moves each cusp class to itself r+1 times over
    for n, r in ((11, 2), (14, 3), (30, 7)):
        space = cached_space(n)
        full = matrix_on_quotient(space, _merel_symbol_rows(space, r))
        assert full * space.boundary == space.boundary.scale(r + 1), (n, r)


def test_hecke_matrix_rejects_bad_index():
    with pytest.raises(ValueError):
        hecke_matrix(cached_space(11), 0)


def test_ring_rank_matches_genus():
    assert cached_ring(11).basis.rows == 1
    assert cached_ring(7).basis.rows == 0
    assert cached_ring(30).basis.rows == 3
    assert cached_ring(35).basis.rows == 3
    model = cached_ring(11)
    assert model.bound == 2
    assert model.operators[0] == IntMatrix.identity(2)


def test_hnf_insert_matches_hnf():
    rng = random.Random(53)
    for _ in range(300):
        r, c = rng.randint(1, 7), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.3:
            rows.append([rng.randint(-3, 3) * x for x in rows[0]])
        h = []
        for row in rows:
            _hnf_insert(h, list(row))
        assert IntMatrix(h, cols=c) == hermite_normal_form(IntMatrix(rows, cols=c)), rows


def test_hnf_insert_mod_matches_hnf():
    # full rank: rows go in modulo the determinant, reduced above pivots once
    rng = random.Random(59)
    for _ in range(300):
        g = rng.randint(1, 5)
        start = hermite_normal_form(
            IntMatrix([[rng.randint(-6, 6) for _ in range(g)] for _ in range(g + 1)], cols=g)
        )
        if start.rows < g:
            continue
        h = start.tolist()
        d = prod(row[i] for i, row in enumerate(h))
        extra = [[rng.randint(-40, 40) for _ in range(g)] for _ in range(rng.randint(1, 4))]
        for row in extra:
            d = _hnf_insert_mod(h, row, d)
        _reduce_above_pivots(h, range(g))
        expected = hermite_normal_form(IntMatrix(start.tolist() + extra, cols=g))
        assert IntMatrix(h, cols=g) == expected, (start, extra)
        assert d == prod(row[i] for i, row in enumerate(expected.data))


def test_ring_basis_matches_one_shot_hnf():
    # the ring HNF takes one operator at a time; all at once is the reference
    for n in (11, 35, 70, 105):
        ring = cached_ring(n)
        vecs = IntMatrix([_vec(op) for op in ring.operators], cols=(2 * ring.genus) ** 2)
        assert ring.basis == hermite_normal_form(vecs), n


def test_ring_closed_under_products():
    ring = cached_ring(30)
    ops = ring.operators
    for i in range(1, ring.bound + 1):
        for j in range(i, ring.bound + 1):
            if i * j > ring.bound:
                continue
            prod_vec = [x for row in (ops[i - 1] * ops[j - 1]).data for x in row]
            assert hnf_coordinates(ring.basis, prod_vec) is not None, (i, j)


def test_index_anchors():
    assert cached_index(11, 11).index == 5
    assert cached_index(11, 11).elementary_divisors == (5,)
    assert cached_index(19, 19).index == 3
    assert cached_index(17, 17).index == 4
    assert cached_index(33, 3).index == 10
    assert cached_index(11, 1).index == 5


def test_index_zero_ring_flag():
    model = cached_index(7, 7)
    assert model.zero_ring
    assert model.index == 1
    assert not cached_index(11, 11).zero_ring


def test_index_stabilization_logged():
    model = cached_index(11, 11)
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
    assert cached_index(33, 3).index % 5 == 0
    assert cached_index(33, 33).index % 5 == 0


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
    assert cached_space(11) is cached_space(11)
    assert cached_ring(11).space is cached_space(11)
    assert cached_index(11, 11) is cached_index(11, 11)


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


def test_restricted_images_match_full():
    # operators read symbol images on the support of the cuspidal lift only
    for n, r in ((35, 3), (70, 11), (66, 7)):
        space = cached_space(n)
        support = _cuspidal_lift(space)[1]
        assert len(support) < len(space.symbols)
        full = _matrix_on_cuspidal(space, _merel_symbol_rows(space, r))
        assert _matrix_on_cuspidal(space, _merel_symbol_rows(space, r, support)) == full
        assert hecke_matrix(space, r) == full


def test_probe_coordinates_match_full_width():
    for n in (11, 35, 70):
        ring = cached_ring(n)
        for k in range(1, 3 * ring.bound + 1):
            full = hnf_coordinates(ring.basis, _vec(hecke_matrix(ring.space, k)))
            assert full is not None, (n, k)
            assert _op_coords(ring, k) == tuple(full), (n, k)


def _generator_rows(ring, names):
    # the rows eisenstein_index builds for each named generator
    rows = []
    for name in names:
        head, shift = name[1:].split("-")
        p, shift = int(head), int(shift)
        for k in range(1, ring.bound + 1):
            c = list(_op_coords(ring, k * p))
            if name[0] == "T" and k % p == 0:
                c = [x + p * y for x, y in zip(c, _op_coords(ring, k // p))]
            rows.append([x - shift * y for x, y in zip(c, _op_coords(ring, k))])
    return rows


def test_incremental_index_hnf_matches_one_shot():
    for n in (11, 35, 66, 70, 105):
        ring = cached_ring(n)
        for m in (d for d in range(1, n + 1) if n % d == 0):
            model = cached_index(n, m)
            rows = _generator_rows(ring, model.generator_names)
            one_shot = hermite_normal_form(IntMatrix(rows, cols=ring.genus))
            assert model.ideal_basis == one_shot, (n, m)


def test_planted_prime_operator_escapes_ring():
    # a wrong prime operator must trip the ring-lattice certificate
    for n, r in ((11, 3), (35, 13)):
        space = build_space(n)
        ring = hecke_ring(space)
        assert r > ring.bound
        wrong = [list(row) for row in hecke_matrix(build_space(n), r).data]
        wrong[0][0] += 1
        space.op_cache[("prime", r)] = IntMatrix(wrong)
        _op_coords(ring, 2)
        with pytest.raises(RuntimeError, match="escapes the ring lattice"):
            _op_coords(ring, r)


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
    seen = []

    def by_fractions(relations, kept):
        out = relation_quotient_by_fractions(relations, kept)
        assert _relation_quotient(relations, kept) == out
        seen.append(kept)
        return out

    levels = [n for n in range(2, 71) if all(n % (p * p) for p in (2, 3, 5, 7))]
    levels += [105, 110, 130]
    for n in levels:
        with monkeypatch.context() as patch:
            patch.setattr(modsym, "_relation_quotient", by_fractions)
            old = build_space(n, max_level=n)
        new = cached_space(n)
        assert old.coords == new.coords, n
        assert old.boundary == new.boundary, n
        assert old.cuspidal == new.cuspidal, n
        assert old.genus == new.genus, n
    assert len(seen) == len(levels)


def _as_matrices(basis):
    two_g = 2 * basis.rows
    return [
        IntMatrix([b[r * two_g:(r + 1) * two_g] for r in range(two_g)], cols=two_g)
        for b in basis.data
    ]


def _full_width_products(basis):
    mats = _as_matrices(basis)
    return [
        hnf_coordinates(basis, _vec(bi * bj))
        for i, bi in enumerate(mats)
        for bj in mats[i:]
    ]


def _planted_basis(basis):
    # one entry of b_0 changed at a row and a column that no pivot position
    # uses: every pivot entry of every product, and so every coordinate the
    # triangular solve reads, is unchanged; only the full comparison sees it
    two_g = 2 * basis.rows
    pivots = [next(q for q, x in enumerate(row) if x) for row in basis.data]
    t0 = min(set(range(two_g)) - {q // two_g for q in pivots})
    s0 = min(set(range(two_g)) - {q % two_g for q in pivots})
    q0 = t0 * two_g + s0
    assert q0 > pivots[0]
    data = basis.tolist()
    data[0][q0] += 1
    planted = IntMatrix(data, cols=basis.cols)
    assert hermite_normal_form(planted) == planted
    assert None in _full_width_products(planted)
    return planted


def test_packed_closure_matches_full_width():
    for n in (11, 35, 70, 105):
        ring = cached_ring(n)
        assert _check_closed(n, ring.basis) == _full_width_products(ring.basis), n


def test_planted_product_escapes_ring():
    for n in (11, 35, 70):
        with pytest.raises(RuntimeError, match="not closed under products"):
            _check_closed(n, _planted_basis(cached_ring(n).basis))


def test_packed_closure_widens_past_a_small_start(monkeypatch):
    widths = []
    pack = modsym._pack

    def spy(rows, w):
        widths.append(w)
        return pack(rows, w)

    monkeypatch.setattr(modsym, "_start_width", lambda g, top: 2)
    monkeypatch.setattr(modsym, "_pack", spy)
    basis = cached_ring(35).basis
    full = _full_width_products(basis)
    assert _check_closed(35, basis) == full
    top = max(abs(x) for row in basis.data for x in row)
    # every comparison ran at a width that meets the bound of every pair
    bound = max(2 * basis.rows * top * top + sum(map(abs, c)) * top for c in full)
    assert min(widths) > 2 and bound < 1 << (min(widths) - 1)
    with pytest.raises(RuntimeError, match="not closed under products"):
        _check_closed(35, _planted_basis(basis))
