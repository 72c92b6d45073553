"""Modular symbols for Gamma_0(N) at square-free level.

Manin symbols, the star-fixed half of the integral symbol lattice (which
lies in the cuspidal part, since the star negates the boundary), prime
Hecke matrices on that half (one pass of the Heilbronn family summing
packed coordinate rows per operator), the Hecke ring as the lattice v T of
a cyclic vector v, shifted-operator ideals with their indices, and the
census of maximal ideals sitting above them.  level_indices is the one
cache: it keeps each level's index models and drops its space and ring.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count
from math import gcd
from operator import mul

from eislab.cuspgroup import order_closed_form
from eislab.divlattice import SquareFreeLevel, divisor_values
from eislab.exactnum import (
    _echelon,
    _factor,
    _mul,
    _pack_rows,
    _unpack_rows,
    _width,
    is_prime,
    left_kernel,
    phi_psi_omega,
    primes_up_to,
)
from eislab.qseries import eisenstein_series

_S = (0, -1, 1, 0)
_T = (0, -1, 1, -1)


# ---------------------------------------------------------------------------
# P^1(Z/N)

def _p1_table(n: int) -> tuple[array, tuple[tuple[int, int], ...]]:
    """Index of every pair in P^1(Z/n), and the canonical points in index order.

    Entry u*n + v of the table is the index of (u : v), or -1 when
    gcd(u, v, n) > 1.  A lexicographic scan meets each unit orbit first at
    its canonical point (smallest first slot, then smallest second slot), so
    the points come out sorted; the rest of each orbit is filled by scaling
    (Cremona's P^1 lists).  At square-free n some unit s has s u = gcd(u, n)
    mod n, so the scan reads the rows u = 0 and u = d | n, d < n, only: the
    other rows hold only cells already filled or off P^1.
    """
    table = array("i", [-1]) * (n * n)
    units = [s for s in range(1, n + 1) if gcd(s, n) == 1]
    points = []
    for u in [0, *(d for d in range(1, n) if n % d == 0)]:
        gu = gcd(u, n)
        for v in range(n):
            if table[u * n + v] >= 0 or gcd(gu, v) != 1:
                continue
            k = len(points)
            points.append((u, v))
            for s in units:
                table[s * u % n * n + s * v % n] = k
    return table, tuple(points)


# ---------------------------------------------------------------------------
# the symbol space

@dataclass(frozen=True, eq=False)
class ManinSymbolSpace:
    """One level's Manin-symbol presentation (build_space); matrices are tuples of int rows."""

    level: SquareFreeLevel
    symbols: tuple[tuple[int, int], ...]
    p1_index: array            # (u % N) * N + v % N -> symbol index, -1 off P^1
    quotient_rank: int
    coords: tuple              # symbol -> quotient coordinates, rows span Z^rank
    basis_symbols: tuple[int, ...]  # coords row of symbol basis_symbols[f] is e_f
    boundary: tuple            # on the quotient basis, one column per cusp
    plus: tuple                # HNF rows of the star-fixed vectors, all in ker(boundary)
    genus: int
    op_cache: dict = field(default_factory=dict, repr=False)


def _eliminate(row: dict[int, int], other: dict[int, int], c: int) -> dict[int, int]:
    """The primitive combination a*row - b*other (a > 0) with no entry at column c.

    other[c] is positive, so a is too and row keeps the sign of its pivot.
    """
    g = gcd(other[c], row[c])
    a, b = other[c] // g, row[c] // g
    out = {k: a * x for k, x in row.items()}
    for k, y in other.items():
        z = out[k] - b * y if k in out else -b * y
        if z:
            out[k] = z
        else:
            del out[k]
    g = gcd(*out.values())
    return {k: x // g for k, x in out.items()} if g > 1 else out


def _relation_quotient(
    relations: list[dict[int, int]], kept: int, nn: int
) -> tuple[list[list[int]], list[int]]:
    """Each of the kept coordinates written over the free ones, and the free columns.

    Sparse fraction-free Gauss-Jordan over the relation rows ({col: int},
    at most three entries each).  A new row is reduced by the pivot rows,
    its content divided out, and its lowest column becomes its pivot
    (made positive), which is then cleared from the older pivot rows.  The
    pivot rows stay primitive multiples of the reduced row echelon form,
    which is unique: pivot j with row r says x_j = -sum_f r_f x_f / r_j over
    the free columns f.  Every pivot is 1 (at each of the 607 square-free
    levels 2-1000), so the images are integral, free column f maps to a
    unit vector, and the symbol lattice is Z^rank: the coordinates are read
    straight off the elimination (Cremona, Algorithms for Modular Elliptic
    Curves, 2nd ed., 2.2-2.4).  Any other pivot raises.
    """
    pivots: dict[int, dict[int, int]] = {}
    for rel in relations:
        row = rel
        for c in [c for c in row if c in pivots]:
            row = _eliminate(row, pivots[c], c)
        if not row:
            continue
        c = min(row)
        if row[c] < 0:
            row = {k: -x for k, x in row.items()}
        for j, prow in pivots.items():
            if c in prow:
                pivots[j] = _eliminate(prow, row, c)
        pivots[c] = row
    if any(prow[j] != 1 for j, prow in pivots.items()):
        raise RuntimeError(f"relation quotient is not unimodular at level {nn}")
    free = [j for j in range(kept) if j not in pivots]
    out = []
    for j in range(kept):
        prow = pivots.get(j)
        if prow is None:
            out.append([int(f == j) for f in free])
        else:
            out.append([-prow.get(f, 0) for f in free])
    return out, free


def _solve_over(basis, width: int, images: list[list[int]], fault: str) -> list[list[int]]:
    """The rows of X with X * basis = images; raises fault when there is none.

    basis is the rows of a row HNF and width its column count, which an
    empty basis cannot show.  X is read from the images' entries at the
    pivot columns of basis (upper triangular there), by one triangular
    solve for all images, one column of X at a time; a non-integral entry
    raises.  Off a square basis (plus, g x rank) the pivot entries fix X
    only inside the span of basis, so X * basis is then compared with the
    images whole: that product is the membership certificate.  A square
    basis (the ring lattice L, g x g) must be upper triangular with a
    positive diagonal, or the fault is raised.  Then every column q is a
    pivot column, and column q of X * basis is sum_{i <= q} X_i basis[i][q]
    (rows below q are 0 there), which the solve set to the images' column
    q exactly once row q's division was checked: the product cannot differ
    and is not formed.  Every batch solve over a Hermite basis runs through
    it: the operators (_matrix_on_cuspidal, on the lifted sums of the
    packed images _prime_matrix walks), the ring lattice under each prime
    and v and v T_r over it (_prime_rows, _unit_coords, _vector_coords),
    which the index reads; the symbol space and the index solve nothing.
    """
    square = len(basis) == width
    if square and any(row[i] <= 0 or any(row[:i]) for i, row in enumerate(basis)):
        raise RuntimeError(fault)
    cols: list[list[int]] = []
    for row in basis:
        q = next(q for q, x in enumerate(row) if x)
        col = [img[q] for img in images]
        for above, done in zip(basis, cols):
            if above[q]:
                col = [y - above[q] * x for y, x in zip(col, done)]
        if row[q] != 1:
            if any(y % row[q] for y in col):
                raise RuntimeError(fault)
            col = [y // row[q] for y in col]
        cols.append(col)
    x = [list(r) for r in zip(*cols)] or [[] for _ in images]
    if not square and _mul(x, basis, width) != images:
        raise RuntimeError(fault)
    return x


def build_space(n) -> ManinSymbolSpace:
    """Manin-symbol presentation at square-free level n.

    Builds the quotient by the two- and three-term relations on the
    two-term slots, about half the symbols (_relation_quotient): a symbol's
    coordinates are its slot's image times its sign, or zero, and coordinate
    f is the representative symbol of free slot f (basis_symbols).  The
    boundary of (c : d) is [gcd(c, N)] - [gcd(d, N)] over the divisors in
    ascending order, since the cusps of X_0(N) at square-free N are the
    divisors and a/c in lowest terms is the class gcd(c, N) (Cremona,
    Algorithms for Modular Elliptic Curves, 2nd ed., 2.2; Stein, Modular
    Forms: A Computational Approach, 8.4).  The star involution F,
    (u : v) -> -(-u : v), is read on basis_symbols only, as the boundary is.
    (-u : v) has the gcds of (u : v), so F B = -B, and a vector x F = x has
    x B = x F B = -x B = 0: the star-fixed half plus, the saturated kernel
    of F - I in the HNF that left_kernel returns, is cuspidal with no
    cuspidal lattice built.
    Certified by explicit raises: F F = I, F B = -B, the boundary has rank
    (cusps - 1), and plus has half the cuspidal rank, its rank g being the
    genus.  The Hecke ring acts faithfully on plus (Stein, ch. 8), so every
    operator is taken there.
    """
    level = SquareFreeLevel(n)
    nn = level.value
    p1_index, symbols = _p1_table(nn)
    if len(symbols) != phi_psi_omega(level)[1]:
        raise RuntimeError(f"projective line count mismatch at level {nn}")
    count = len(symbols)

    def act(i: int, mat: tuple[int, int, int, int]) -> int:
        u, v = symbols[i]
        a, b, c, d = mat
        return p1_index[(u * a + v * c) % nn * nn + (u * b + v * d) % nn]

    s_of = [act(i, _S) for i in range(count)]
    t_of = [act(i, _T) for i in range(count)]
    if any(s_of[s_of[i]] != i for i in range(count)):
        raise RuntimeError(f"S does not act as an involution on symbols at level {nn}")
    if any(t_of[t_of[t_of[i]]] != i for i in range(count)):
        raise RuntimeError(f"T does not act with order three on symbols at level {nn}")

    # one coordinate per two-term orbit; fixed points die rationally
    slot: dict[int, int] = {}
    subst: list[tuple[int, int] | None] = [None] * count
    for i in range(count):
        j = s_of[i]
        if j == i:
            continue
        if i < j:
            slot[i] = len(slot)
            subst[i] = (slot[i], 1)
        else:
            subst[i] = (slot[j], -1)
    kept = len(slot)

    relations = []
    for i in range(count):
        o2 = t_of[i]
        o3 = t_of[o2]
        if i > o2 or i > o3:
            continue
        row: dict[int, int] = {}
        for member in (i, o2, o3):
            sub = subst[member]
            if sub is not None:
                row[sub[0]] = row.get(sub[0], 0) + sub[1]
        row = {c: x for c, x in row.items() if x}
        if row:
            relations.append(row)
    slot_images, free = _relation_quotient(relations, kept, nn)
    rank_q = len(free)
    zero = (0,) * rank_q
    coords = tuple(
        zero if sub is None else tuple(sub[1] * x for x in slot_images[sub[0]]) for sub in subst
    )
    reps = [i for i, sub in enumerate(subst) if sub is not None and sub[1] == 1]
    basis_symbols = tuple(reps[f] for f in free)
    ident = [[int(f == j) for j in range(rank_q)] for f in range(rank_q)]
    if [list(coords[i]) for i in basis_symbols] != ident:
        raise RuntimeError(f"basis symbols do not split the symbol images at level {nn}")

    divisors = sorted(divisor_values(level))
    column = {d: k for k, d in enumerate(divisors)}
    ncl = len(divisors)
    brows = []
    for c, d in symbols:
        row = [0] * ncl
        row[column[gcd(c, nn)]] += 1
        row[column[gcd(d, nn)]] -= 1
        brows.append(row)
    # the relations span the kernel of the quotient over Q, so the boundary
    # is well defined there when it kills each one (every member checks its own)
    for i in range(count):
        pair = zip(brows[i], brows[s_of[i]])
        orbit = zip(brows[i], brows[t_of[i]], brows[t_of[t_of[i]]])
        if any(x + y for x, y in pair) or any(x + y + z for x, y, z in orbit):
            raise RuntimeError(f"boundary not well-defined on the quotient at level {nn}")
    boundary = tuple(tuple(brows[i]) for i in basis_symbols)
    if len(_echelon(boundary)[0]) != ncl - 1:
        raise RuntimeError(f"cuspidal rank defect at level {nn}")
    # the star on the quotient basis: basis symbol (u : v) sent to -(-u : v)
    star = [
        [-y for y in coords[p1_index[-u % nn * nn + v]]]
        for u, v in (symbols[i] for i in basis_symbols)
    ]
    if _mul(star, star, rank_q) != ident:
        raise RuntimeError(f"star is not an involution at level {nn}")
    if _mul(star, boundary, ncl) != [[-x for x in row] for row in boundary]:
        raise RuntimeError(f"star does not negate the boundary at level {nn}")
    fixed = [[x - (f == j) for j, x in enumerate(row)] for f, row in enumerate(star)]
    plus = tuple(map(tuple, left_kernel(fixed)))
    if 2 * len(plus) != rank_q - (ncl - 1):
        raise RuntimeError(
            f"star-fixed rank {len(plus)} is not half the cuspidal rank at level {nn}"
        )
    genus = len(plus)
    return ManinSymbolSpace(
        level=level,
        symbols=symbols,
        p1_index=p1_index,
        quotient_rank=rank_q,
        coords=coords,
        basis_symbols=basis_symbols,
        boundary=boundary,
        plus=plus,
        genus=genus,
    )


# ---------------------------------------------------------------------------
# Hecke action on symbols

def _nearest(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, halves away from zero (b nonzero)."""
    q = (2 * abs(a) + abs(b)) // (2 * abs(b))
    return -q if (a < 0) != (b < 0) else q


@lru_cache(maxsize=None)
def _heilbronn_family(p: int) -> tuple[tuple[int, int, int, int], ...]:
    """Cremona's Heilbronn matrices of prime determinant p.

    (1, 0, 0, p), then for each r with |r| <= p // 2 the matrices met along
    the continued fraction of p/r with nearest-integer quotients, halves
    away from zero (Cremona, Algorithms for Modular Elliptic Curves, 2nd
    ed., 2.4).  Each step keeps the determinant.  Other quotients give
    other expansions and the same operators; nearest ones keep the list
    short (310 matrices at p = 79, against 549 with floor quotients and 789
    in Merel's family).  p = 2 takes the fixed list of four.
    """
    if not is_prime(p):
        raise RuntimeError(f"the Heilbronn family needs a prime determinant, not {p}")
    if p == 2:
        return ((1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2))
    mats = [(1, 0, 0, p)]
    for r in range(-(p // 2), p // 2 + 1):
        x1, x2, y1, y2 = p, -r, 0, 1
        a, b = -p, r
        mats.append((x1, x2, y1, y2))
        while b:
            q = _nearest(a, b)
            a, b = -b, a - b * q
            x1, x2 = x2, q * x2 - x1
            y1, y2 = y2, q * y2 - y1
            mats.append((x1, x2, y1, y2))
    return tuple(mats)


def _cuspidal_lift(space: ManinSymbolSpace):
    """The star-fixed cuspidal basis written on symbols, and the symbols it touches.

    Coordinate f lifts to the symbol basis_symbols[f], so an operator on
    that lattice walks the basis symbols only (39 of 252 symbols at level
    130, where the rank is 41).
    """
    key = "plus-as-symbols"
    if key not in space.op_cache:
        basis = space.basis_symbols
        rows = [{basis[f]: x for f, x in enumerate(row) if x} for row in space.plus]
        space.op_cache[key] = (rows, sorted(set().union(*rows)))
    return space.op_cache[key]


def _matrix_on_cuspidal(space: ManinSymbolSpace, images: dict[int, int], w: int) -> list:
    """Operator on the star-fixed cuspidal basis from the symbol images packed at width w.

    Each lifted basis vector's image is one sum of images[s] over its
    support, unpacked once.  _solve_over's whole comparison is the one
    membership certificate: plus is cuspidal, so it refuses an image that
    leaves the cuspidal lattice and one that is cuspidal but not star-fixed.
    """
    sums = [sum(coef * images[s] for s, coef in row.items()) for row in _cuspidal_lift(space)[0]]
    fault = f"cuspidal lattice not stable under the operator at level {space.level.value}"
    rank = space.quotient_rank
    return _solve_over(space.plus, rank, _unpack_rows(sums, rank, w), fault)


def _prime_matrix(space: ManinSymbolSpace, p: int) -> list[list[int]]:
    """T_p (U_p when p | N) on the star-fixed cuspidal basis, by the Heilbronn family of p.

    Each support symbol (u : v) sums the packed coordinate rows of its
    images (u a + v c : u b + v d) in one pass; a and c are scaled by N once,
    so an image is one table index, and the rows end in a 0 that an image
    off P^1 (entry -1) reads.  An image takes at most one row per matrix, so
    "reach" (max|coords| times the largest lifted L1 norm) times len(family)
    bounds every lifted sum and fixes the width.  The rows are packed once
    per width, not once per operator.
    """
    key = ("prime", p)
    cache = space.op_cache
    if key not in cache:
        n = space.level.value
        fam = [(a * n, c * n, b, d) for a, b, c, d in _heilbronn_family(p)]
        if space.genus == 0:
            return []
        lifted, support = _cuspidal_lift(space)
        if "reach" not in cache:
            coords = space.coords
            top = max(max(map(max, coords)), -min(map(min, coords)))
            cache["reach"] = top * max(sum(map(abs, row.values())) for row in lifted)
        w = _width(cache["reach"] * len(fam))
        if ("packed", w) not in cache:
            cache["packed", w] = [*_pack_rows(space.coords, space.quotient_rank, w), 0]
        packed, table, nn = cache["packed", w], space.p1_index, n * n
        images = {}
        for s in support:
            u, v = space.symbols[s]
            images[s] = sum([
                packed[table[(u * an + v * cn) % nn + (u * b + v * d) % n]]
                for an, cn, b, d in fam
            ])
        cache[key] = _matrix_on_cuspidal(space, images, w)
    return cache[key]


# ---------------------------------------------------------------------------
# the Hecke ring and its shifted-operator ideals

@dataclass(frozen=True, eq=False)
class HeckeRingModel:
    """The Hecke ring as the lattice L = v T (hecke_ring); basis is L's g HNF rows, g wide."""

    space: ManinSymbolSpace
    bound: int
    basis: list[list[int]]     # L = v T, the HNF rows of the orbit v T_k, k <= bound
    genus: int
    vector: tuple[int, ...]    # the cyclic vector v, in plus coordinates
    # the a_k-extended orbit echelon until _functionals reads it, the prime
    # rows, the coordinates of v (T_1) and of v T_r, the commutation set, phi
    cache: dict = field(default_factory=dict, repr=False)


@dataclass(frozen=True, eq=False)
class EisensteinIdealModel:
    level: int
    m: int
    index: int
    elementary_divisors: tuple[int, ...]
    generator_names: tuple[str, ...]
    prime_bound: int
    stabilization: tuple[tuple[int, int], ...]
    zero_ring: bool


@dataclass(frozen=True)
class IndexComparisonReport:
    level: int
    m: int
    index: int
    cusp_order: int
    alpha: tuple[tuple[int, int], ...]
    beta: tuple[tuple[int, int], ...]
    verdict: str


class FalsifiedExpectation(RuntimeError):
    """The census or the main-theorem check found a case the paper rules out.

    Raised only where the mathematics, not this program, would be wrong;
    every other RuntimeError is an internal fault.
    """


@dataclass(frozen=True)
class MaximalIdealRecord:
    ell: int
    m: int
    normalized: bool
    up_eigenvalues: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CaseCheck:
    ell: int
    m: int
    case: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class MainTheoremReport:
    level: int
    checks: tuple[CaseCheck, ...]
    ok: bool


def _candidates(g: int):
    """Candidate cyclic vectors: the unit vectors, then (1, k, ..., k^(g-1)) for k <= g + 1."""
    for i in range(g):
        yield [int(i == j) for j in range(g)]
    for k in range(1, g + 2):
        yield [k ** j for j in range(g)]


def _orbit(space: ManinSymbolSpace, v: list[int], bound: int) -> list[list[int]]:
    """w(k) = v T_k for k = 1, ..., bound, from the prime operators only.

    With p the smallest prime of k, w(k) = w(k/p) T_p, less p w(k/p^2) when
    p does not divide the level and p^2 divides k: T_{p^e} = T_p T_{p^(e-1)}
    - p T_{p^(e-2)} away from the level, and U_p^e is the plain power.
    Each product is a dot product with the columns of T_p: packing T_p for
    one row (_mul) costs more than the product itself.
    """
    n = space.level.value
    cols: dict[int, list[tuple[int, ...]]] = {}
    w = [None, v]
    for k in range(2, bound + 1):
        p = min(_factor(k))
        if p not in cols:
            cols[p] = list(zip(*_prime_matrix(space, p)))
        x = [sum(map(mul, w[k // p], col)) for col in cols[p]]
        if n % p and k % (p * p) == 0:
            x = [a - p * b for a, b in zip(x, w[k // (p * p)])]
        w.append(x)
    return w[1:]


def _series_columns(space: ManinSymbolSpace, bound: int) -> list[list[int]]:
    """a_k = phi(T_k), coefficient k of the Eisenstein series of (N, m) over -24, every m | N.

    One row per m in ascending order, for k up to the bound and every level prime.
    """
    level = space.level
    top = max(bound, *level.primes) + 1
    ms = sorted(divisor_values(level))
    return [[-x // 24 for x in eisenstein_series(level, m, top)] for m in ms]


def _orbit_echelon(space: ManinSymbolSpace, v, bound: int, a: list[list[int]]):
    """HNF rows and pivots of the orbit rows w(k) = v T_k, k <= bound, each extended by a_k of every m."""
    orbit = enumerate(_orbit(space, v, bound), 1)
    return _echelon([*w, *(x[k] for x in a)] for k, w in orbit)


def hecke_ring(space: ManinSymbolSpace) -> HeckeRingModel:
    """The Hecke ring T as the lattice L = v T, for a cyclic vector v of the star-fixed half.

    T is commutative, so when the w(k) = v T_k, k up to the weight-two
    spanning bound, span Q^g, t -> v t is injective on T tensor Q: v t = 0
    gives (v s) t = (v t) s = 0 for every s, so t kills Q^g.  Each
    candidate's orbit (_orbit) is echelonized once, every row already
    extended by the a_k that _functionals reads (_orbit_echelon).  The
    orbit has rank g exactly when the first g pivots of that echelon are
    the columns 0, ..., g - 1, so the v taken is the first candidate whose
    orbit has rank g.  Its first g rows cut to g columns are then the HNF
    of the orbit, L: the later rows vanish on those columns.  At genus 0
    nothing is extended.  L T_p lies in L for every prime p up to the bound
    (_prime_rows, which raises otherwise), so L is a module over the ring
    those primes generate, holding v: L = v T.  Indices are read on L, g
    wide where the operators are g^2 wide, off the echelon the ring keeps
    for _functionals.  The ring's cache lives as long as the ring.
    """
    psi = len(space.symbols)
    bound = -(-psi // 6)
    g = space.genus
    a = _series_columns(space, bound) if g else []
    for v in _candidates(g):
        h, pivots = _orbit_echelon(space, v, bound, a)
        if pivots[:g] == list(range(g)):
            break
    else:
        raise RuntimeError(f"no candidate vector is cyclic at level {space.level.value}")
    ring = HeckeRingModel(
        space=space, bound=bound, basis=[r[:g] for r in h[:g]], genus=g, vector=tuple(v),
        cache={"echelon": (h, a)},
    )
    for p in primes_up_to(bound):
        _prime_rows(ring, p)
    return ring


_KRYLOV_MODULUS = 2 ** 61 - 1


def _krylov_cyclic(v, c: list[list[int]]) -> bool:
    """Whether v, v C, ..., v C^(g-1) are independent modulo 2^61 - 1, and so over Q.

    Each new vector is reduced modulo the prime against the earlier ones
    (kept with a 1 at their pivot, in insertion order); one that vanishes
    ends the test.
    """
    q = _KRYLOV_MODULUS
    cols = [[x % q for x in col] for col in zip(*c)]
    rows: dict[int, list[int]] = {}
    w = [x % q for x in v]
    for _ in v:
        r = w
        for j, row in rows.items():
            if s := r[j]:
                r = [(x - s * y) % q for x, y in zip(r, row)]
        j = next((j for j, x in enumerate(r) if x), None)
        if j is None:
            return False
        inv = pow(r[j], -1, q)
        rows[j] = [x * inv % q for x in r]
        w = [sum(map(mul, w, col)) % q for col in cols]
    return True


def _commutation_set(ring: HeckeRingModel) -> list[list[list[int]]]:
    """What a prime above the bound must commute with: [C], or every T_q, q <= bound.

    C = sum_k (k + 1) T_{q_k} over the primes q_0 < q_1 < ... up to the
    bound.  When v is cyclic for C alone (_krylov_cyclic), C is
    non-derogatory, so its commutant is Q[C] (a matrix commuting with a
    non-derogatory one is a polynomial in it: Horn and Johnson, Matrix
    Analysis, ch. 3), which lies in T tensor Q as C lies in T.  Otherwise
    (level 43) every T_q is kept: v is cyclic for T, so the commutant of T
    tensor Q is T tensor Q itself.
    """
    out = ring.cache.get("commutant")
    if out is None:
        tq = [_prime_matrix(ring.space, q) for q in primes_up_to(ring.bound)]
        c = [[sum(k * x for k, x in enumerate(col, 1)) for col in zip(*rows)] for rows in zip(*tq)]
        out = ring.cache["commutant"] = [c] if _krylov_cyclic(ring.vector, c) else tq
    return out


def _check_commutes(ring: HeckeRingModel, t: list[list[int]], fault: str) -> None:
    """Raise fault unless t commutes with every matrix of _commutation_set, so t is in T tensor Q.

    One packed product each way: t times the set laid side by side, and
    the set stacked times t.
    """
    g, tq = ring.genus, _commutation_set(ring)
    side = _mul(t, [[x for s in tq for x in s[r]] for r in range(g)], g * len(tq))
    stack = _mul([row for s in tq for row in s], t, g)
    if any(
        side[r][i * g:(i + 1) * g] != stack[i * g + r] for i in range(len(tq)) for r in range(g)
    ):
        raise RuntimeError(fault)


def _prime_rows(ring: HeckeRingModel, p: int) -> list[list[int]]:
    """Row j: the coordinates of b_j T_p over the ring lattice L (U_p when p | N).

    b_j = v t_j is row j of L, so row j also gives t_j T_p over the ring
    basis t_1, ..., t_g.  One packed product L T_p and one _solve_over read
    them, and raise unless L T_p lies in L: for p up to the bound that is
    the closure certificate hecke_ring runs.  A prime above the bound (a
    level prime, whose rows _functionals' (ii) reads) must first pass
    _check_commutes, which puts T_p in T tensor Q, at some t; v t = v T_p
    in L = v T then puts t in T.  A matrix that only maps L into L (with L
    = Z^g, any integer one) fails the commutation.
    """
    key = ("prime", p)
    if key not in ring.cache:
        g = ring.genus
        fault = f"operator {p} escapes the ring lattice at level {ring.space.level.value}"
        t = _prime_matrix(ring.space, p)
        if p > ring.bound:
            _check_commutes(ring, t, fault)
        ring.cache[key] = _solve_over(ring.basis, g, _mul(ring.basis, t, g), fault)
    return ring.cache[key]


def _unit_coords(ring: HeckeRingModel) -> list[int]:
    """Coordinates of T_1, the identity, over the ring basis: v solved over L."""
    e = ring.cache.get("one")
    if e is None:
        fault = f"operator 1 escapes the ring lattice at level {ring.space.level.value}"
        e = ring.cache["one"] = _solve_over(ring.basis, ring.genus, [list(ring.vector)], fault)[0]
    return e


def _vector_coords(ring: HeckeRingModel, r: int) -> list[int]:
    """Coordinates of v T_r over L, for a generator prime r above the bound.

    With e = _unit_coords(ring), v = sum_j e_j b_j, so these are e R_r for
    R_r the rows _prime_rows would give: the one row of T_r that
    eisenstein_index reads, shared by every m.  Once T_r passes
    _check_commutes it is some t in T tensor Q, and v t = v T_r in L = v T
    puts t in T: one row is solved over L, not the g rows of L T_r.
    """
    key = ("vector", r)
    if key not in ring.cache:
        fault = f"operator {r} escapes the ring lattice at level {ring.space.level.value}"
        t = _prime_matrix(ring.space, r)
        _check_commutes(ring, t, fault)
        w = [sum(map(mul, ring.vector, col)) for col in zip(*t)]
        ring.cache[key] = _solve_over(ring.basis, ring.genus, [w], fault)[0]
    return ring.cache[key]


def _functionals(ring: HeckeRingModel) -> dict[int, tuple[list[int], int]]:
    """For every m | N: f = (phi(t_j)) on the ring basis, and [T : J_b].

    hecke_ring's echelon of the orbit rows w(k) = v T_k, k <= bound, each
    extended by a_k for every m (_series_columns), is read once and
    dropped.  u W = b_j gives t_j = sum u_k T_k and phi(t_j) = sum u_k a_k,
    so its first g rows, whose orbit part must be L, carry f, and the rest,
    the relations u W = 0, hold (i) phi(T_k) = a_k mod t when t divides
    them all.  (ii) phi(t_j T_p) = a_p phi(t_j) for every prime p <= bound
    and every level prime, one packed product _prime_rows(ring, p) f each,
    makes phi a ring map.
    """
    out = ring.cache.get("phi")
    if out is None:
        level, g = ring.space.level, ring.genus
        h, a = ring.cache.pop("echelon")
        if [r[:g] for r in h[:g]] != ring.basis:
            raise RuntimeError(f"the orbit does not echelonize to L at level {level.value}")
        fs = [r[g:] for r in h[:g]]
        ts = [gcd(*(r[g + c] for r in h[g:])) for c in range(len(a))]
        for p in {*level.primes, *primes_up_to(ring.bound)}:
            for y, x in zip(_mul(_prime_rows(ring, p), fs, len(a)), fs):
                ts = list(map(gcd, ts, [u - c[p] * v for u, c, v in zip(y, a, x)]))
        ms = sorted(divisor_values(level))
        out = ring.cache["phi"] = {m: ([x[c] for x in fs], ts[c]) for c, m in enumerate(ms)}
    return out


def eisenstein_index(ring: HeckeRingModel, m: int) -> EisensteinIdealModel:
    """Index t of the ideal I shifting each operator to its cusp-count value.

    Level primes dividing m are shifted by 1, the others by themselves;
    primes r off the level by r + 1.  Each generator is an integer mod I,
    so T/I = Z/t, and the quotient map phi sends T_k to a_k.  t starts at
    [T : J_b] (_functionals), J_b generated by the T_p - a_p there; the
    level primes above the bound count (without U_13, N = m = 26 reads 7,
    not 1).  Each generator prime r above the bound takes t to gcd(t,
    phi(T_r) - r - 1) until two in a row leave it, phi(T_r) being the one
    row e R_r (_vector_coords: v T_r over L, shared by every m) times f.
    The ideal {x : x f = 0 mod t} holds I and has index t; only t is kept.
    Sturm certificate (Sturm 1987; Stein, Modular Forms: A Computational
    Approach, ch. 9): T x S_2(Z) -> Z is perfect, so phi is a cusp form F
    mod t, a_n(F) = phi(T_n).  At 1 < m < N the Eisenstein series is
    holomorphic with constant term 0, so it agrees with F mod t up to the
    Sturm bound psi(N)/6 by (i), hence everywhere: a prime above the bound
    that lowers t raises.  At m = N its constant term is -prod(1 - p)/24,
    and the same holds when t divides the numerator of phi(N)/24.  At m = 1
    no U_p is 1, E_2's non-holomorphic part survives, and t rests on the
    stabilization only, as at other m = N.
    """
    n = ring.space.level.value
    if m < 1 or n % m:
        raise ValueError("m must be a positive divisor of the level")
    if ring.genus == 0:
        return EisensteinIdealModel(
            level=n, m=m, index=1, elementary_divisors=(), generator_names=(),
            prime_bound=0, stabilization=(), zero_ring=True,
        )
    g = ring.genus
    e = _unit_coords(ring)
    f, t = _functionals(ring)[m]
    if t == 0 or (sum(map(mul, e, f)) - 1) % t:
        raise RuntimeError(f"phi is not onto Z/t with phi(T_1) = 1 at level {n}, m={m}: t = {t}")
    phi = phi_psi_omega(ring.space.level)[0]
    certified = 1 < m < n or m == n and phi // gcd(phi, 24) % t == 0
    start = [r for r in primes_up_to(ring.bound) if n % r]
    names = [f"U{p}-{1 if m % p == 0 else p}" for p in ring.space.level.primes]
    names += [f"T{r}-{r + 1}" for r in start]
    r = start[-1] if start else 1
    log = [(r, t)]
    # t stays or drops to a proper divisor (so this ends); stop when two primes leave it
    while len(log) < 3 or log[-3][1] != t:
        r = next(q for q in count(r + 1) if n % q and is_prime(q))
        names.append(f"T{r}-{r + 1}")
        t2 = gcd(t, sum(map(mul, _vector_coords(ring, r), f)) - r - 1)
        if t2 != t and certified:
            raise RuntimeError(f"T_{r} lowers the index past the Sturm bound at level {n}, m={m}")
        t = t2
        log.append((r, t))
    return EisensteinIdealModel(
        level=n, m=m, index=t, elementary_divisors=(1,) * (g - 1) + (t,),
        generator_names=tuple(names), prime_bound=r, stabilization=tuple(log),
        zero_ring=False,
    )


# ---------------------------------------------------------------------------
# the per-level entry point

@lru_cache(maxsize=None)
def level_indices(n: int) -> dict[int, EisensteinIdealModel]:
    """The index model of every m | n, in ascending m: one level's answers.

    The space and the ring are built here and dropped on return, with the
    prime matrices and rows their caches hold, so only the models outlive
    the call.  build_space, hecke_ring and eisenstein_index are looked up
    by name at each call, so a wrapper bound over any of them sees it.
    """
    level = SquareFreeLevel(n)
    ring = hecke_ring(build_space(level.value))
    return {m: eisenstein_index(ring, m) for m in sorted(divisor_values(level))}


def compare_index_order(n: int, m: int) -> IndexComparisonReport:
    """Ideal index against the closed-form cusp order, with the parity split.

    Exact agreement is demanded when m is proper and the cofactor is odd;
    otherwise only the odd parts must match, so an odd prime appearing more
    often in the order than in the index is always a violation.
    """
    n, m = int(n), int(m)
    indices = level_indices(n)
    if m not in indices:
        raise ValueError("m must be a positive divisor of the level")
    t = indices[m].index
    c = order_closed_form(n, m).closed_form_order
    ft, fc = _factor(t), _factor(c)
    support = sorted(ft.keys() | fc.keys())
    alpha = tuple((l, ft.get(l, 0)) for l in support)
    beta = tuple((l, fc.get(l, 0)) for l in support)
    exact = m != n and ((n // m) % 2 == 1)
    if t == c:
        verdict = "equal"
    elif not exact and all(a == b for a, b in zip(alpha, beta) if a[0] != 2):
        verdict = "equal-up-to-2-power"
    else:
        verdict = "violation"
    return IndexComparisonReport(
        level=n, m=m, index=t, cusp_order=c, alpha=alpha, beta=beta, verdict=verdict
    )


def m1_index_witnesses(n: int) -> tuple[tuple[int, int | None], ...]:
    """Odd primes dividing the m=1 index, each with a level prime q = 1 mod l.

    A missing witness (None) would leave a maximal ideal unaccounted for at
    every divisor; callers treat that as a falsified expectation.
    """
    level = SquareFreeLevel(n)
    t = level_indices(level.value)[1].index
    out = []
    for l in _factor(t):
        if l == 2:
            continue
        out.append((l, next((q for q in level.primes if q % l == 1), None)))
    return tuple(out)


def enumerate_eisenstein_maximal(n: int) -> list[MaximalIdealRecord]:
    """Maximal ideals (l, shifted ideal at m) surviving the normalization.

    A pair is dropped when some level prime q away from m has q = 1 mod l;
    the same ideal shows up again at m*q.  Level primes dividing m carry
    eigenvalue 1, the rest carry their own residue.
    """
    level = SquareFreeLevel(n)
    records = []
    for m, model in level_indices(level.value).items():
        if m == 1:
            continue
        for l in _factor(model.index):
            if any(q % l == 1 for q in level.primes if m % q):
                continue
            up = tuple((p, 1 if m % p == 0 else p % l) for p in level.primes)
            records.append(
                MaximalIdealRecord(ell=l, m=m, normalized=True, up_eigenvalues=up)
            )
    for l, witness in m1_index_witnesses(level.value):
        if witness is None:
            raise FalsifiedExpectation(
                f"odd prime {l} divides the m=1 index at level {n}"
                f" with no level prime = 1 mod {l}"
            )
    return records


def verify_main_theorem(n: int) -> MainTheoremReport:
    """Check every censused maximal ideal against the cuspidal class orders.

    Odd residue characteristics must divide the matching class order.  For
    residue two the level shape decides: a prime level must be 1 mod 8; a
    composite level needs an even class order at one prime (2 when the level
    is even); a doubled prime must be 1 mod 8 with order (m-1)/4; a doubled
    composite needs even class orders at all of its primes.
    """
    level = SquareFreeLevel(n)
    nn = level.value
    checks = []
    for rec in enumerate_eisenstein_maximal(nn):
        l, m = rec.ell, rec.m
        if l % 2:
            c = order_closed_form(nn, m).closed_form_order
            checks.append(
                CaseCheck(l, m, "odd-divides-order", c % l == 0, f"order {c}")
            )
        elif m == nn and is_prime(nn):
            checks.append(
                CaseCheck(2, m, "level-prime", nn % 8 == 1, f"{nn} mod 8 = {nn % 8}")
            )
        elif m == nn:
            p = 2 if nn % 2 == 0 else level.primes[0]
            c = order_closed_form(nn, p).closed_form_order
            checks.append(
                CaseCheck(2, m, "level-composite", c % 2 == 0, f"order at {p} is {c}")
            )
        elif nn == 2 * m and is_prime(m):
            c = order_closed_form(nn, m).closed_form_order
            ok = m % 8 == 1 and c == (m - 1) // 4
            checks.append(
                CaseCheck(2, m, "doubled-prime", ok, f"order {c}, m mod 8 = {m % 8}")
            )
        elif nn == 2 * m:
            orders = [
                order_closed_form(nn, p).closed_form_order
                for p in SquareFreeLevel(m).primes
            ]
            ok = all(c % 2 == 0 for c in orders)
            checks.append(
                CaseCheck(2, m, "doubled-composite", ok, f"orders {orders}")
            )
        else:
            raise FalsifiedExpectation(
                f"record (2, {m}) escapes the residue-2 normalization"
            )
    return MainTheoremReport(level=nn, checks=tuple(checks), ok=all(c.ok for c in checks))
