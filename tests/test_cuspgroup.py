from __future__ import annotations

import hashlib
from fractions import Fraction
from math import gcd, prod

import pytest

from eislab import cuspgroup
from eislab.cli import _squarefree_levels
from eislab.cuspgroup import (
    cuspidal_class,
    level_orders,
    order_closed_form,
    order_lattice_oracle,
    order_with_oracle,
    principal_lattice_basis,
)
from eislab.divlattice import SquareFreeLevel, _check_m, build_tables, divisor_values
from eislab.exactnum import (
    IntMatrix,
    left_kernel,
    phi_psi_omega,
)
from test_divlattice import omega as omega_of, sgn
from test_exactnum import (
    _divisor_chain_oracle,
    determinant,
    elementary_divisors,
    hermite_normal_form,
    hnf_coordinates,
    reference_elementary_divisors,
)


# Moved from eislab.cuspgroup, which has no caller of them left: the
# exponent vector two ways, the structure of the cuspidal group, and the
# admissible eta exponents that the principal lattice once was built from.

def e_vector(n, m) -> list[Fraction]:
    """The exponent vector Lambda^{-1} C_{M,N}, computed two ways.

    Closed form entry a: sgn(d_{s+1-a}) * 24/(phi(N)psi(N/M)) *
    d_{s+1-a}/(d_{s+1-a}, M).  The linear-algebra route multiplies the
    inverse table matrix against the class vector.  Both must agree.
    """
    level = SquareFreeLevel(n)
    m = _check_m(level, m)
    values, _, amat = build_tables(level)
    s = len(values)
    phi, psi, _ = phi_psi_omega(level)
    psi_c = phi_psi_omega(level.value // m)[1]
    coeffs = cuspidal_class(level, m)
    solved = [
        Fraction(24, phi * psi)
        * sum(amat[a][j] * coeffs[j] for j in range(s))
        for a in range(s)
    ]
    closed = []
    for a in range(s):
        dual = values[s - 1 - a]
        closed.append(
            sgn(level, dual)
            * Fraction(24, phi * psi_c)
            * Fraction(dual, gcd(dual, m))
        )
    if solved != closed:
        raise RuntimeError("E-vector routes disagree")
    return closed


def cuspidal_group_structure(n) -> tuple[int, ...]:
    """Elementary divisors (> 1) of degree-zero cusp divisors modulo principal ones.

    The principal lattice basis has full rank on the first s - 1 cusps.
    Written over the basis P_{d_j} - P_{d_(j+1)} of the degree-zero
    divisors (coordinates: prefix sums), it is square and nonsingular, and
    its Smith form is the group.
    """
    level = SquareFreeLevel(n)
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
    return tuple(d for d in divisors if d > 1)


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
    values = divisor_values(level)
    s = len(values)
    moduli = [24, 24] + [2] * level.n
    k = len(moduli)
    rows = []
    for i, d in enumerate(values[:-1]):
        unit = [0] * (s - 1)
        unit[i] = 1
        congruences = [d - level.value, level.value // d - 1]
        congruences += [(d % p == 0) - 1 for p in level.primes]
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


def _proper_divisors(n):
    return [m for m in range(2, n + 1) if n % m == 0]


# --- reference routes: slower or older computations of the same objects ----

def order_by_covolume(n, m) -> int:
    """Covolume-ratio route: index drop when the class joins the lattice.

    Two reference Smith forms per call, of non-square matrices; exact but
    slow at 4-prime levels.  Kept as an independent small-level cross-check
    for the solver.
    """
    level = SquareFreeLevel(n)
    m = _check_m(level, m)
    basis = principal_lattice_basis(level.value)
    coeffs = cuspidal_class(level, m)
    ed_l = prod(reference_elementary_divisors(basis))
    enlarged = IntMatrix(list(basis.data) + [coeffs], cols=basis.cols)
    ed_e = prod(reference_elementary_divisors(enlarged))
    k, rem = divmod(ed_l, ed_e)
    if rem:
        raise RuntimeError("lattice covolumes must divide")
    return k


def order_by_search(n, m, k_max: int = 100000) -> int:
    """Brute-force cross-check: step k until k * C lands in the lattice."""
    level = SquareFreeLevel(n)
    m = _check_m(level, m)
    basis = principal_lattice_basis(level.value)
    coeffs = cuspidal_class(level, m)
    for k in range(1, k_max + 1):
        if hnf_coordinates(basis, [k * c for c in coeffs]) is not None:
            return k
    raise AssertionError(f"no multiple of the class up to {k_max} is principal")


def order_by_triangular_solve(basis: IntMatrix, coeffs) -> int:
    """The fraction-free triangular solve of one class over the HNF basis.

    Moved from eislab.cuspgroup, where the solve now runs inside
    level_orders for every class of a level at once.
    """
    w = list(coeffs)
    order, p = 1, 0
    for row in basis.data:
        while not row[p]:
            p += 1
        f = row[p] // gcd(w[p], row[p])
        if f > 1:
            order *= f
            w[p:] = [f * x for x in w[p:]]
        q = w[p] // row[p]
        if q:
            w[p:] = [x - q * y for x, y in zip(w[p:], row[p:])]
    if any(w):
        raise RuntimeError("class vector leaves the rational span of the lattice")
    return order


def rational_coordinates(basis: IntMatrix, v) -> list[Fraction]:
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


def order_by_fractions(n, m) -> int:
    """The oracle's order as the lcm of the Fraction coordinates' denominators."""
    basis = principal_lattice_basis(n)
    order = 1
    for c in rational_coordinates(basis, cuspidal_class(n, m)):
        order = order * c.denominator // gcd(order, c.denominator)
    return order


def unit_lattice_by_kernel(n) -> IntMatrix:
    """Admissible eta exponents as a projected left kernel over all s coordinates."""
    level = SquareFreeLevel(n)
    values = divisor_values(level)
    s, nprimes = len(values), level.n
    rows = [[1, d, n // d] + [int(d % p == 0) for p in level.primes] for d in values]
    rows.append([0, 24, 0] + [0] * nprimes)
    rows.append([0, 0, 24] + [0] * nprimes)
    for t in range(nprimes):
        aux = [0] * (3 + nprimes)
        aux[3 + t] = 2
        rows.append(aux)
    kernel = left_kernel(rows)
    return hermite_normal_form(IntMatrix([row[:s] for row in kernel], cols=s))


def principal_lattice_by_hnf(n) -> IntMatrix:
    """Principal divisors as the plain HNF of the unit divisors on all s cusps."""
    _, lam24, _ = build_tables(n)
    gens = unit_lattice_by_kernel(n) * IntMatrix(lam24)
    if any(x % 24 for row in gens.data for x in row):
        raise RuntimeError("unit divisor must be integral on every cusp")
    return hermite_normal_form(
        IntMatrix([[x // 24 for x in row] for row in gens.data], cols=len(lam24))
    )


def test_class_vector_examples():
    assert cuspidal_class(11, 11) == (1, -1)
    assert cuspidal_class(30, 6) == (1, -1, -1, 0, 1, 0, 0, 0)


def test_class_vector_degree_zero():
    for level in _squarefree_levels(60, 2):
        n = level.value
        for m in _proper_divisors(n):
            assert sum(cuspidal_class(n, m)) == 0


def test_class_vector_input_validation():
    for n, m in ((11, 1), (11, 3), (30, 4)):
        try:
            cuspidal_class(n, m)
        except ValueError:
            pass
        else:
            raise AssertionError(f"expected rejection of M={m} at N={n}")


def test_closed_form_examples():
    assert (order_closed_form(11, 11).closed_form_order, order_closed_form(11, 11).h) == (5, 1)
    assert (order_closed_form(17, 17).closed_form_order, order_closed_form(17, 17).h) == (4, 2)
    assert (order_closed_form(34, 17).closed_form_order, order_closed_form(34, 17).h) == (4, 2)
    assert (order_closed_form(30, 2).closed_form_order, order_closed_form(30, 2).h) == (8, 1)
    assert order_closed_form(33, 3).closed_form_order == 10


def test_h_two_family_scan():
    for level in _squarefree_levels(120):
        n = level.value
        for m in _proper_divisors(n):
            res = order_closed_form(n, m)
            expected_h = 2 if (n in (m, 2 * m) and m % 8 == 1 and
                               len(SquareFreeLevel(m).primes) == 1) else 1
            assert res.h == expected_h, (n, m)


def test_oracle_examples():
    assert order_lattice_oracle(11, 11) == 5
    assert order_lattice_oracle(19, 19) == 3
    assert order_lattice_oracle(30, 30) == 1
    assert order_lattice_oracle(17, 17) == 4


def test_oracle_agrees_with_closed_form_small():
    for level in _squarefree_levels(60):
        n = level.value
        for m in _proper_divisors(n):
            res = order_with_oracle(n, m)
            assert res.agreed, (n, m, res)


def test_brute_force_search_cross_check():
    # simplest possible membership loop, small tables only
    for n in (11, 17, 19, 22, 30, 33, 34, 42):
        for m in _proper_divisors(n):
            assert order_by_search(n, m) == order_lattice_oracle(n, m), (n, m)


def test_covolume_route_cross_check():
    # Smith-form covolume ratio, independent of the triangular solve
    for n in (11, 19, 30, 42, 66, 105):
        for m in _proper_divisors(n):
            assert order_by_covolume(n, m) == order_lattice_oracle(n, m), (n, m)


# every square-free level to the lattice cap, then the six-prime levels
# 2*3*5*7*11*13 and 2*3*5*7*11*17
REFERENCE_LATTICE_LEVELS = [
    level.value for level in _squarefree_levels(2310, 2)
] + [30030, 39270]


def test_unit_lattice_matches_kernel_route():
    for n in REFERENCE_LATTICE_LEVELS:
        assert unit_exponent_lattice(n) == unit_lattice_by_kernel(n), n


def test_principal_lattice_matches_plain_hnf():
    for n in REFERENCE_LATTICE_LEVELS:
        assert principal_lattice_basis(n) == principal_lattice_by_hnf(n), n


# SHA-256 of every principal lattice basis, class vector and oracle order at
# REFERENCE_LATTICE_LEVELS, one line each as lattice_pipeline_digest writes
# them; recorded from the Divisor-object pipeline before divisors became ints
LATTICE_PIPELINE_SHA256 = "e85d45736997cacaa4fb93b36640fc732500cfb9b2892b33ee9389b9ac0c1b6d"


def lattice_pipeline_digest() -> str:
    h = hashlib.sha256()
    for n in REFERENCE_LATTICE_LEVELS:
        h.update(f"{n}:{principal_lattice_basis(n).data}\n".encode())
        for m in divisor_values(SquareFreeLevel(n))[1:]:
            line = f"{m}:{cuspidal_class(n, m)}:{order_lattice_oracle(n, m)}\n"
            h.update(line.encode())
    return h.hexdigest()


def test_lattice_pipeline_is_pinned():
    assert lattice_pipeline_digest() == LATTICE_PIPELINE_SHA256


@pytest.mark.parametrize(
    "plant",
    [lambda h: h.data[:-1], lambda h: [*h.data[:-1], [2 * x for x in h.data[-1]]]],
    ids=["drops-last-row", "doubles-last-pivot"],
)
def test_planted_congruence_hnf_is_refused(monkeypatch, plant):
    hnf = hermite_normal_form
    monkeypatch.setitem(
        unit_exponent_lattice.__globals__,
        "hermite_normal_form",
        lambda M: IntMatrix(plant(hnf(M)), cols=M.cols),
    )
    with pytest.raises(RuntimeError, match="congruence system must have full rank"):
        unit_exponent_lattice(30)


# Level 30 has 3 primes, so its principal-lattice echelon has k = 5
# congruence columns and 7 cusp columns (the last cusp dropped).
CONGRUENCE_COLUMNS_AT_30 = 5


@pytest.fixture
def fresh_orders():
    # a planted fault must reach the echelon, not an order cached by an
    # earlier test, and leaves no order of its own behind
    level_orders.cache_clear()
    yield
    level_orders.cache_clear()


def plant_echelon(monkeypatch, plant):
    """Route the principal lattice's echelon through plant(h), pivots kept."""
    echelon = cuspgroup._echelon

    def planted(rows):
        h, pivots = echelon(rows)
        return plant([list(row) for row in h]), pivots

    monkeypatch.setattr(cuspgroup, "_echelon", planted)


def _bump(h, i, j):
    h[i][j] += 1
    return h


@pytest.mark.parametrize(
    ("plant", "message"),
    [
        (
            lambda h: [*h[:-1], [2 * x for x in h[-1]]],
            "congruence system must have full rank",
        ),
        # the last row picks up a congruence entry; the diagonal is unchanged
        (lambda h: _bump(h, -1, 0), "must fill the degree-0 hyperplane"),
        # an entry above a later pivot leaves 24 * Z; the diagonal is unchanged
        (
            lambda h: _bump(h, CONGRUENCE_COLUMNS_AT_30, CONGRUENCE_COLUMNS_AT_30 + 1),
            "integral on every cusp",
        ),
    ],
    ids=["doubles-last-pivot", "leaves-the-hyperplane", "not-integral"],
)
def test_planted_echelon_fault_is_refused(monkeypatch, fresh_orders, plant, message):
    plant_echelon(monkeypatch, plant)
    with pytest.raises(RuntimeError, match=message):
        principal_lattice_basis(30)
    with pytest.raises(RuntimeError, match=message):
        order_lattice_oracle(30, 2)


def test_planted_rank_drop_in_principal_lattice_is_refused(monkeypatch, fresh_orders):
    # the one echelon loses its last row, which carries the last cusp pivot
    plant_echelon(monkeypatch, lambda h: h[:-1])
    with pytest.raises(RuntimeError, match="congruence system must have full rank"):
        principal_lattice_basis(30)


def test_planted_row_sum_of_lambda_is_refused(monkeypatch, fresh_orders):
    tables = cuspgroup.build_tables

    def bent(n):
        values, lam24, amat = tables(n)
        data = [list(row) for row in lam24]
        data[0][0] += 1
        return values, data, amat

    monkeypatch.setattr(cuspgroup, "build_tables", bent)
    with pytest.raises(RuntimeError, match="a row of 24\\*Lambda"):
        principal_lattice_basis(30)


def test_planted_rank_drop_leaves_a_class_outside_the_span(monkeypatch, fresh_orders):
    # the principal lattice without its last row no longer spans the
    # degree-0 hyperplane, where every class lies
    basis = cuspgroup.principal_lattice_basis

    def short(n):
        full = basis(n)
        return IntMatrix(full.data[:-1], cols=full.cols)

    monkeypatch.setattr(cuspgroup, "principal_lattice_basis", short)
    with pytest.raises(RuntimeError, match="class vector leaves the rational span of the lattice"):
        level_orders(30)


def test_planted_class_of_nonzero_degree_is_refused(monkeypatch):
    # M = 1 let through: its class is the cusp P_1 alone, of degree 1
    monkeypatch.setattr(cuspgroup, "_check_m", lambda level, m: int(m))
    with pytest.raises(RuntimeError, match="class must have degree zero"):
        cuspidal_class(30, 1)


def test_planted_lattice_fault_raises_on_every_oracle_call(monkeypatch, fresh_orders):
    # lru_cache stores no exception, so a refused level is refused again
    calls = []
    plant_echelon(monkeypatch, lambda h: calls.append(1) or h[:-1])
    for m in (2, 2, 30):
        with pytest.raises(RuntimeError, match="congruence system must have full rank"):
            order_lattice_oracle(30, m)
    assert len(calls) == 3
    assert level_orders.cache_info().currsize == 0


# the lattice cap's square-free levels and the six-prime level 2*3*5*7*11*13
LEVEL_ORDER_LEVELS = [level.value for level in _squarefree_levels(2310)] + [30030]


def test_level_orders_match_per_class_solve():
    for n in LEVEL_ORDER_LEVELS:
        basis = principal_lattice_basis(n)
        expected = {
            m: order_by_triangular_solve(basis, cuspidal_class(n, m))
            for m in divisor_values(SquareFreeLevel(n))[1:]
        }
        assert level_orders(n) == expected, n
        assert list(level_orders(n)) == list(expected), n


def test_integer_oracle_matches_fraction_solve():
    for level in _squarefree_levels(330, 2):
        n = level.value
        for m in _proper_divisors(n):
            assert order_lattice_oracle(n, m) == order_by_fractions(n, m), (n, m)


def test_unit_exponent_lattice_rank():
    for n in (11, 15, 30, 42):
        values = divisor_values(SquareFreeLevel(n))
        exps = unit_exponent_lattice(n)
        assert exps.rows == len(values) - 1
        for row in exps.data:
            assert sum(row) == 0
            assert sum(e * d for e, d in zip(row, values)) % 24 == 0
            assert sum(e * (n // d) for e, d in zip(row, values)) % 24 == 0
            for p in SquareFreeLevel(n).primes:
                parity = sum(e for e, d in zip(row, values) if d % p == 0)
                assert parity % 2 == 0


def test_e_vector_last_entry_and_m_equals_n():
    for level in _squarefree_levels(40):
        n = level.value
        phi, psi, omega = phi_psi_omega(n)
        for m in _proper_divisors(n):
            vec = e_vector(n, m)
            psi_c = phi_psi_omega(n // m)[1]
            assert vec[-1] == (-1) ** omega * Fraction(24, phi * psi_c)
        full = e_vector(n, n)
        values = divisor_values(level)
        s = len(values)
        for a in range(s):
            dual = values[s - 1 - a]
            expected = Fraction(24, phi) * (
                1 if (omega - omega_of(level, dual)) % 2 == 0 else -1
            )
            assert full[a] == expected


def test_e_vector_example_n10():
    vec = e_vector(10, 10)
    assert vec == [Fraction(24, 4) * s for s in (1, -1, -1, 1)]


def test_group_structure_examples():
    assert cuspidal_group_structure(11) == (5,)
    assert cuspidal_group_structure(13) == ()


# 3-prime levels where the unreduced reference Smith form does not finish
# in 2 s; the determinantal-divisor oracle stands in for it there
REFERENCE_SNF_STALLS = {938, 1702, 2054, 2294}


def test_group_structure_at_every_level_to_the_cap():
    # the coordinate block is rebuilt here as cuspidal_group_structure builds it
    for level in _squarefree_levels(2310, 1):
        n = level.value
        structure = cuspidal_group_structure(n)
        basis = principal_lattice_basis(n)
        block = [[sum(row[: j + 1]) for j in range(basis.cols - 1)] for row in basis.data]
        assert prod(structure) == abs(determinant(block)), n
        assert all(b % a == 0 for a, b in zip(structure, structure[1:])), n
        assert all(d > 1 for d in structure), n
        if SquareFreeLevel(n).n > 3:
            continue
        if n in REFERENCE_SNF_STALLS:
            reference = _divisor_chain_oracle(block)
        else:
            reference = reference_elementary_divisors(IntMatrix(block, cols=basis.cols - 1))
        assert structure == tuple(d for d in reference if d > 1), n


def test_group_exponent_divisible_by_class_orders():
    for level in _squarefree_levels(60):
        n = level.value
        structure = cuspidal_group_structure(n)
        exponent = structure[-1] if structure else 1
        for m in _proper_divisors(n):
            assert exponent % order_lattice_oracle(n, m) == 0, (n, m)
