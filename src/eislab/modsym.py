"""Modular symbols for Gamma_0(N) at square-free level.

Manin symbols, the integral cuspidal lattice, Hecke matrices, the Hecke
ring as a lattice of endomorphisms, shifted-operator ideals with their
indices, and the census of maximal ideals sitting above them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, lcm, prod

from eislab.cuspgroup import order_closed_form
from eislab.divlattice import SquareFreeLevel
from eislab.exactnum import (
    IntMatrix,
    elementary_divisors,
    hermite_normal_form,
    hnf_coordinates,
    hnf_with_transform,
    is_prime,
    left_kernel,
    phi_psi_omega,
    primes_up_to,
    xgcd,
)

DESK_LEVEL_BOUND = 120  # projective-line enumeration is quadratic in the level

_S = (0, -1, 1, 0)
_T = (0, -1, 1, -1)


# ---------------------------------------------------------------------------
# P^1(Z/N), lifts, cusps

def _p1_table(n: int) -> tuple[array, tuple[tuple[int, int], ...]]:
    """Index of every pair in P^1(Z/n), and the canonical points in index order.

    Entry u*n + v of the table is the index of (u : v), or -1 when
    gcd(u, v, n) > 1.  A lexicographic scan meets each unit orbit first at
    its canonical point (smallest first slot, then smallest second slot), so
    the points come out sorted; the rest of each orbit is filled by scaling
    (Cremona's P^1 lists).
    """
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


def _inverse_like(a: int, c: int) -> int:
    # s with a*s = 1 mod c; denominator zero demands the exact inverse
    if c == 0:
        return a
    if c == 1:
        return 0
    return pow(a % c, -1, c)


def _cusps_equivalent(n: int, x: tuple[int, int], y: tuple[int, int]) -> bool:
    a1, c1 = x
    a2, c2 = y
    g = gcd(c1 * c2, n)
    return (_inverse_like(a1, c1) * c2 - _inverse_like(a2, c2) * c1) % g == 0


def _divisors(level: SquareFreeLevel) -> tuple[int, ...]:
    ds = [1]
    for p in level.primes:
        ds += [d * p for d in ds]
    return tuple(sorted(ds))


@dataclass(frozen=True)
class CuspSet:
    """Cusp classes for square-free level, one per divisor, labelled by it."""

    level: SquareFreeLevel
    labels: tuple[int, ...]
    representatives: tuple[tuple[int, int], ...]

    def classify(self, cusp: tuple[int, int]) -> int:
        """Class index of a lowest-terms cusp, checked along both routes."""
        a, c = cusp
        n = self.level.value
        matches = [
            i
            for i, rep in enumerate(self.representatives)
            if _cusps_equivalent(n, (a, c), rep)
        ]
        if len(matches) != 1 or self.labels[matches[0]] != gcd(c, n):
            raise RuntimeError(f"cusp {a}/{c} failed unique classification at level {n}")
        return matches[0]


# ---------------------------------------------------------------------------
# the symbol space

@dataclass(frozen=True, eq=False)
class ManinSymbolSpace:
    level: SquareFreeLevel
    symbols: tuple[tuple[int, int], ...]
    p1_index: array            # (u % N) * N + v % N -> symbol index, -1 off P^1
    quotient_rank: int
    coords: IntMatrix          # symbol -> lattice coordinates, rows span Z^rank
    section: IntMatrix         # section * coords = identity
    cusps: CuspSet
    symbol_boundary: IntMatrix
    boundary: IntMatrix        # on the quotient basis
    cuspidal: IntMatrix        # HNF basis of ker(boundary)
    genus: int
    op_cache: dict = field(default_factory=dict, repr=False)

    def symbol_index(self, c: int, d: int) -> int:
        n = self.level.value
        i = self.p1_index[c % n * n + d % n]
        if i < 0:
            raise ValueError(f"({c} : {d}) is not projective at level {n}")
        return i


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


def _relation_quotient(relations: list[dict[int, int]], kept: int) -> list[list[int]]:
    """Each of the kept coordinates written over the free ones, times a common den.

    Sparse fraction-free Gauss-Jordan over the relation rows ({col: int},
    at most three entries each).  A new row is reduced by the pivot rows,
    its content divided out, and its lowest column becomes its pivot
    (made positive), which is then cleared from the older pivot rows.  The
    pivot rows stay primitive multiples of the reduced row echelon form,
    which is unique: pivot j with row r says x_j = -sum_f r_f x_f / r_j over
    the free columns f.  A primitive row's pivot is the lcm of those
    denominators, so den, the lcm of the pivots, clears all of them.
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
    free = [j for j in range(kept) if j not in pivots]
    den = lcm(*(prow[j] for j, prow in pivots.items()))
    out = []
    for j in range(kept):
        prow = pivots.get(j)
        if prow is None:
            out.append([den if f == j else 0 for f in free])
        else:
            scale = den // prow[j]
            out.append([-prow.get(f, 0) * scale for f in free])
    return out


def build_space(n, max_level: int = DESK_LEVEL_BOUND) -> ManinSymbolSpace:
    """Manin-symbol presentation at square-free level n.

    Builds the rational quotient by the two- and three-term relations,
    re-coordinatizes so the integer symbol images span the full lattice,
    classifies boundary cusps, and cuts out the cuspidal sublattice.
    """
    level = n if isinstance(n, SquareFreeLevel) else SquareFreeLevel(n)
    nn = level.value
    if nn > max_level:
        raise ValueError(f"level {nn} is beyond the desk bound {max_level}")
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
    slot_images = _relation_quotient(relations, kept)
    rank_q = len(slot_images[0]) if slot_images else 0
    zero = [0] * rank_q
    scaled = IntMatrix(
        [
            zero if sub is None else [sub[1] * x for x in slot_images[sub[0]]]
            for sub in subst
        ],
        cols=rank_q,
    )
    lattice = hermite_normal_form(scaled)
    if lattice.rows != rank_q:
        raise RuntimeError(f"quotient lattice rank defect at level {nn}")
    coords = IntMatrix(
        [hnf_coordinates(lattice, row) for row in scaled.data], cols=rank_q
    )
    if hermite_normal_form(coords) != IntMatrix.identity(rank_q):
        raise RuntimeError(f"symbol images do not span the quotient lattice at level {nn}")
    _, transform = hnf_with_transform(coords)
    section = IntMatrix(transform.data[:rank_q], cols=count)
    if section * coords != IntMatrix.identity(rank_q):
        raise RuntimeError(f"section does not split the symbol images at level {nn}")

    divisors = _divisors(level)
    cusps = CuspSet(
        level=level, labels=divisors, representatives=tuple((1, d) for d in divisors)
    )
    ncl = len(divisors)
    brows = []
    for c, d in symbols:
        a, b, c1, d1 = _sl2_lift(nn, c, d)
        row = [0] * ncl
        row[cusps.classify(_reduce_frac(a, c1))] += 1
        row[cusps.classify(_reduce_frac(b, d1))] -= 1
        brows.append(row)
    symbol_boundary = IntMatrix(brows, cols=ncl)
    # combinations that die in the quotient must have no boundary
    for i in range(rank_q, count):
        krow = transform.data[i]
        img = [0] * ncl
        for s_idx, x in enumerate(krow):
            if x:
                for j in range(ncl):
                    img[j] += x * brows[s_idx][j]
        if any(img):
            raise RuntimeError(f"boundary not well-defined on the quotient at level {nn}")
    boundary = section * symbol_boundary
    cuspidal = hermite_normal_form(left_kernel(boundary))
    if hermite_normal_form(boundary).rows != ncl - 1:
        raise RuntimeError(f"boundary rank breach at level {nn}")
    if cuspidal.rows != rank_q - (ncl - 1):
        raise RuntimeError(f"cuspidal rank defect at level {nn}")
    if cuspidal.rows % 2:
        raise RuntimeError(f"cuspidal rank {cuspidal.rows} is odd at level {nn}")
    return ManinSymbolSpace(
        level=level,
        symbols=symbols,
        p1_index=p1_index,
        quotient_rank=rank_q,
        coords=coords,
        section=section,
        cusps=cusps,
        symbol_boundary=symbol_boundary,
        boundary=boundary,
        cuspidal=cuspidal,
        genus=cuspidal.rows // 2,
    )


def boundary_and_cusps(space: ManinSymbolSpace) -> tuple[CuspSet, IntMatrix]:
    return space.cusps, space.boundary


# ---------------------------------------------------------------------------
# Hecke action on symbols

@lru_cache(maxsize=None)
def _merel_family(n: int) -> tuple[tuple[int, int, int, int], ...]:
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


def _symbol_range(space: ManinSymbolSpace, which):
    return range(len(space.symbols)) if which is None else which


def _merel_symbol_rows(space: ManinSymbolSpace, r: int, which=None) -> dict[int, dict[int, int]]:
    """Images under the determinant-r family of the symbols in which (default all)."""
    n = space.level.value
    table = space.p1_index
    fam = _merel_family(r)
    rows = {}
    for i in _symbol_range(space, which):
        u, v = space.symbols[i]
        acc: dict[int, int] = {}
        for a, b, c, d in fam:
            j = table[(u * a + v * c) % n * n + (u * b + v * d) % n]
            if j >= 0:
                acc[j] = acc.get(j, 0) + 1
        rows[i] = acc
    return rows


def _infty_path(space: ManinSymbolSpace, cusp: tuple[int, int]) -> list[int]:
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


def _add_path(space, acc: dict[int, int], alpha, beta, sign: int) -> None:
    for i in _infty_path(space, beta):
        acc[i] = acc.get(i, 0) + sign
    for i in _infty_path(space, alpha):
        acc[i] = acc.get(i, 0) - sign


def _rows_by_paths(
    space: ManinSymbolSpace, r: int, with_scaling: bool, which=None
) -> dict[int, dict[int, int]]:
    n = space.level.value
    rows = {}
    for i in _symbol_range(space, which):
        c, d = space.symbols[i]
        a, b, c1, d1 = _sl2_lift(n, c, d)
        acc: dict[int, int] = {}
        for j in range(r):
            alpha = _reduce_frac(b + j * d1, r * d1)
            beta = _reduce_frac(a + j * c1, r * c1)
            _add_path(space, acc, alpha, beta, 1)
        if with_scaling:
            _add_path(space, acc, _reduce_frac(r * b, d1), _reduce_frac(r * a, c1), 1)
        rows[i] = {k: v for k, v in acc.items() if v}
    return rows


def _u_symbol_rows(space: ManinSymbolSpace, q: int, which=None) -> dict[int, dict[int, int]]:
    return _rows_by_paths(space, q, False, which)


def _t_symbol_rows_by_paths(space: ManinSymbolSpace, r: int) -> dict[int, dict[int, int]]:
    # independent route to the same operator as the determinant-r family
    return _rows_by_paths(space, r, True)


def _cuspidal_lift(space: ManinSymbolSpace):
    """The cuspidal basis written on symbols, the symbols it touches, and coords sparsely.

    An operator on the cuspidal lattice needs the images of these symbols
    only: about a third of P^1 at the larger levels.
    """
    key = "cuspidal-as-symbols"
    if key not in space.op_cache:
        lifted = space.cuspidal * space.section
        rows = [{s: x for s, x in enumerate(row) if x} for row in lifted.data]
        support = sorted(set().union(*rows))
        sparse = [[(t, x) for t, x in enumerate(row) if x] for row in space.coords.data]
        space.op_cache[key] = (rows, support, sparse)
    return space.op_cache[key]


def _matrix_on_cuspidal(space: ManinSymbolSpace, symbol_rows) -> IntMatrix:
    """Operator on the cuspidal basis from symbol images; reads symbol_rows[s] on the support."""
    two_g = space.cuspidal.rows
    if two_g == 0:
        return IntMatrix([], cols=0)
    lifted, support, sparse = _cuspidal_lift(space)
    rank_q = space.quotient_rank
    images = {}
    for s_idx in support:
        img = [0] * rank_q
        for j, mult in symbol_rows[s_idx].items():
            for t, y in sparse[j]:
                img[t] += mult * y
        images[s_idx] = img
    out = []
    for row in lifted:
        img = [0] * rank_q
        for s_idx, coef in row.items():
            img = [a + coef * b for a, b in zip(img, images[s_idx])]
        coords = hnf_coordinates(space.cuspidal, img)
        if coords is None:
            raise RuntimeError(
                f"cuspidal lattice not stable under the operator at level {space.level.value}"
            )
        out.append(coords)
    return IntMatrix(out, cols=two_g)


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _prime_matrix(space: ManinSymbolSpace, p: int) -> IntMatrix:
    key = ("prime", p)
    if key not in space.op_cache:
        support = _cuspidal_lift(space)[1]
        if space.level.value % p == 0:
            rows = _u_symbol_rows(space, p, support)
        else:
            rows = _merel_symbol_rows(space, p, support)
        space.op_cache[key] = _matrix_on_cuspidal(space, rows)
    return space.op_cache[key]


def _prime_power_matrix(space: ManinSymbolSpace, p: int, e: int) -> IntMatrix:
    key = ("power", p, e)
    if key in space.op_cache:
        return space.op_cache[key]
    a = _prime_matrix(space, p)
    m = a
    if space.level.value % p == 0:
        for _ in range(e - 1):
            m = m * a
    else:
        prev = IntMatrix.identity(a.rows)
        for _ in range(e - 1):
            prev, m = m, a * m - prev.scale(p)
    space.op_cache[key] = m
    return m


def hecke_matrix(space: ManinSymbolSpace, n: int) -> IntMatrix:
    """Matrix of the n-th Hecke operator on the cuspidal lattice basis."""
    if n < 1:
        raise ValueError("operator index must be positive")
    factors = [_prime_power_matrix(space, p, e) for p, e in sorted(_factorize(n).items())]
    if not factors:
        return IntMatrix.identity(space.cuspidal.rows)
    out = factors[0]
    for factor in factors[1:]:
        out = out * factor
    return out


# ---------------------------------------------------------------------------
# the Hecke ring and its shifted-operator ideals

@dataclass(frozen=True, eq=False)
class HeckeRingModel:
    space: ManinSymbolSpace
    bound: int
    operators: tuple[IntMatrix, ...]
    basis: IntMatrix
    genus: int
    coord_cache: dict = field(default_factory=dict, repr=False)
    probe: dict = field(default_factory=dict, repr=False)  # filled by _probe


@dataclass(frozen=True, eq=False)
class EisensteinIdealModel:
    level: int
    m: int
    index: int
    elementary_divisors: tuple[int, ...]
    generator_names: tuple[str, ...]
    prime_bound: int
    stabilization: tuple[tuple[int, int], ...]
    ideal_basis: IntMatrix
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


def _vec(m: IntMatrix) -> list[int]:
    return [x for row in m.data for x in row]


def _reduce_above_pivots(h: list[list[int]], pivots) -> None:
    """Make echelon rows with positive pivots an HNF: entries above pivots into [0, pivot).

    Columns go in ascending order: a row subtraction at one pivot column
    changes only later columns of the row it reduces.
    """
    for j, c in enumerate(pivots):
        row = h[j]
        for k in range(j):
            q = h[k][c] // row[c]
            if q:
                h[k] = [x - q * y for x, y in zip(h[k], row)]


def _hnf_insert(h: list[list[int]], v: list[int]) -> None:
    """Add the row v to the lattice of h, a list of HNF rows, keeping h in HNF.

    v walks the pivot columns in order: a pivot that divides v's entry
    takes one row subtraction, otherwise an xgcd step replaces the pivot
    row and leaves v zero there.  What is left of v becomes a new pivot row
    (made positive) where no pivot is; a last pass reduces the entries
    above the pivots into [0, pivot), in ascending column order.
    """
    pivots = [next(j for j, x in enumerate(row) if x) for row in h]
    i = 0
    while True:
        c = next((j for j, x in enumerate(v) if x), None)
        if c is None:
            break
        while i < len(h) and pivots[i] < c:
            i += 1
        if i == len(h) or pivots[i] > c:
            h.insert(i, v if v[c] > 0 else [-x for x in v])
            pivots.insert(i, c)
            break
        row, x = h[i], v[c]
        if x % row[c] == 0:
            q = x // row[c]
            v = [a - q * b for a, b in zip(v, row)]
        else:
            e, s, t = xgcd(row[c], x)
            a, b = row[c] // e, x // e
            h[i] = [s * y + t * z for y, z in zip(row, v)]
            v = [a * z - b * y for y, z in zip(row, v)]
        i += 1
    _reduce_above_pivots(h, pivots)


def hecke_ring(space: ManinSymbolSpace) -> HeckeRingModel:
    """Lattice spanned by the operators up to the weight-two spanning bound.

    The operators enter the HNF one at a time (_hnf_insert), so it never
    holds more than g + 1 rows of width (2g)^2; all `bound` rows at once
    would be the largest allocation of a sweep to level 130.
    """
    psi = len(space.symbols)
    bound = -(-psi // 6)
    ops = tuple(hecke_matrix(space, k) for k in range(1, bound + 1))
    rows: list[list[int]] = []
    for op in ops:
        _hnf_insert(rows, _vec(op))
    basis = IntMatrix(rows, cols=(2 * space.genus) ** 2)
    if basis.rows != space.genus:
        raise RuntimeError(
            f"operator lattice rank {basis.rows} != genus {space.genus}"
            f" at level {space.level.value}"
        )
    return HeckeRingModel(
        space=space, bound=bound, operators=ops, basis=basis, genus=space.genus
    )


def _times(vec: list[int], m: IntMatrix) -> list[int]:
    """Row vector times matrix."""
    out = [0] * m.cols
    for x, row in zip(vec, m.data):
        if x:
            out = [a + x * b for a, b in zip(out, row)]
    return out


def _pack(rows: list[list[int]], w: int) -> list[int]:
    """Each row as the integer sum of x_c * 2^(w*c)."""
    return [sum(x << (w * c) for c, x in enumerate(row) if x) for row in rows]


def _start_width(g: int, top: int) -> int:
    # 24 bits above the largest product entry; no level up to 130 widens
    return (4 * g * top * top).bit_length() + 24


def _check_closed(n: int, basis: IntMatrix) -> list[list[int]]:
    """Coordinates of each product b_i b_j (i <= j) over the ring basis, in order.

    Raises unless every such product lies in the ring lattice.  The basis
    rows H_k are the b_k flattened, in HNF.  The coordinates c of b_i b_j
    are fixed by its g pivot entries (g dot products of length 2g, then a
    triangular solve), and a non-integral c_k raises.  The whole identity
    b_i b_j = sum c_k H_k is then one integer comparison: a matrix packs as
    sum x_q * 2^(w*q) over its flat entries q, and row r of b_i b_j packs as
    sum_s b_i[r][s] * packed(row s of b_j).  The packed sides are equal
    exactly when every entry e of the difference is 0, provided that
    |e| < 2^(w-1).  The bound |e| <= 2g max|b|^2 + sum |c_k| max|b| is
    checked for every pair before it is compared, and w widens (all rows
    are repacked) whenever it is not met.
    """
    g = basis.rows
    two_g = 2 * g
    mats = [[b[r * two_g:(r + 1) * two_g] for r in range(two_g)] for b in basis.data]
    pivots = [next(q for q, x in enumerate(row) if x) for row in basis.data]
    at_pivots = IntMatrix([[row[q] for q in pivots] for row in basis.data], cols=g)
    top = max(abs(x) for row in basis.data for x in row)
    w = _start_width(g, top)
    packed_w = None
    out = []
    for i, bi in enumerate(mats):
        for j in range(i, g):
            bj = mats[j]
            coeffs = hnf_coordinates(at_pivots, [
                sum(x * bj[t][q % two_g] for t, x in enumerate(bi[q // two_g]) if x)
                for q in pivots
            ])
            if coeffs is None:
                raise RuntimeError(f"ring lattice not closed under products at level {n}")
            bound = two_g * top * top + sum(map(abs, coeffs)) * top
            while bound >= 1 << (w - 1):
                w *= 2
            if packed_w != w:
                packed_w, stride = w, two_g * w
                packed = [_pack(m, w) for m in mats]
                flat = [sum(x << (stride * r) for r, x in enumerate(p)) for p in packed]
            product = 0
            for row in reversed(bi):
                product = (product << stride) + sum(
                    x * y for x, y in zip(row, packed[j]) if x
                )
            if product != sum(c * h for c, h in zip(coeffs, flat) if c):
                raise RuntimeError(f"ring lattice not closed under products at level {n}")
            out.append(coeffs)
    return out


def _probe(ring: HeckeRingModel) -> dict:
    """A probe vector v with rank{v b_j} = g, once the ring lattice is certified.

    The ring lattice R, with basis b_j, holds T_1 = 1 and is checked to be
    closed under the products b_i b_j, so R is a ring: once each prime
    operator in use is checked to lie in R (_certified_prime), every T_k
    does.  Since t -> v t is injective on the Q-span of R when the v b_j
    are independent, the ring coordinates of T_k are then the unique
    integer solution of v T_k = sum c_j v b_j, a system of width 2g
    instead of (2g)^2.
    """
    state = ring.probe
    if state:
        return state
    n, g = ring.space.level.value, ring.genus
    two_g = 2 * g
    _check_closed(n, ring.basis)
    # v is the first unit vector e_i that separates (e_0 does not at N=105);
    # v b_j is then row i of b_j
    for i in range(two_g):
        h, u = hnf_with_transform(
            IntMatrix([b[i * two_g:(i + 1) * two_g] for b in ring.basis.data], cols=two_g)
        )
        if any(h.data[-1]):
            break
    else:
        raise RuntimeError(f"no probe vector separates the ring lattice at level {n}")
    v = [int(i == j) for j in range(two_g)]
    state.update(hnf=h, transform=u, primes=set(), images={1: v})
    return state


def _certified_prime(ring: HeckeRingModel, p: int) -> IntMatrix:
    """The prime operator at p, checked (once) to lie in the ring lattice."""
    mat = _prime_matrix(ring.space, p)
    checked = ring.probe["primes"]
    if p not in checked:
        if hnf_coordinates(ring.basis, _vec(mat)) is None:
            raise RuntimeError(
                f"operator {p} escapes the ring lattice at level {ring.space.level.value}"
            )
        checked.add(p)
    return mat


def _probe_image(ring: HeckeRingModel, k: int) -> list[int]:
    """v T_k, in hecke_matrix's factor order: v T_c, then the top prime power.

    Only the images with k within the ring bound are kept: they are the
    cofactors every larger k starts from.
    """
    images = ring.probe["images"]
    if k in images:
        return images[k]
    factors = _factorize(k)
    p = max(factors)
    e = factors[p]
    x = _probe_image(ring, k // p**e)
    a = _certified_prime(ring, p)
    if ring.space.level.value % p == 0:
        for _ in range(e):
            x = _times(x, a)
    else:
        prev, x = x, _times(x, a)
        for _ in range(e - 1):
            prev, x = x, [s - p * t for s, t in zip(_times(x, a), prev)]
    if k <= ring.bound:
        images[k] = x
    return x


def _op_coords(ring: HeckeRingModel, k: int) -> tuple[int, ...]:
    """Coordinates of T_k over the ring basis, solved on the probe vector."""
    if k not in ring.coord_cache:
        state = _probe(ring)
        d = hnf_coordinates(state["hnf"], _probe_image(ring, k))
        if d is None:
            raise RuntimeError(
                f"operator {k} escapes the ring lattice at level {ring.space.level.value}"
            )
        u = state["transform"].data
        ring.coord_cache[k] = tuple(
            sum(x * row[j] for x, row in zip(d, u)) for j in range(ring.genus)
        )
    return ring.coord_cache[k]


def _next_generator_prime(r: int, n: int) -> int:
    r += 1
    while not is_prime(r) or n % r == 0:
        r += 1
    return r


def _hnf_insert_mod(h: list[list[int]], v: list[int], d: int) -> int:
    """Add v to the lattice of h, a full-rank triangular basis with pivot product d.

    h changes in place; the new pivot product is returned.  The lattice
    contains d*Z^g, so v and each changed row are kept modulo d.  Column by
    column, a pivot that divides v's entry takes one row subtraction;
    otherwise an xgcd step replaces the pivot by the gcd, which divides d by
    the same factor (the new, smaller lattice determinant), and v is cleared
    there.  Entries above the pivots are left to _reduce_above_pivots.
    """
    v = [x % d for x in v]
    for j, row in enumerate(h):
        x = v[j]
        if not x:
            continue
        p = row[j]
        if x % p == 0:
            q = x // p
            v = [0] * (j + 1) + [(a - q * b) % d for a, b in zip(v[j + 1:], row[j + 1:])]
            continue
        e, s, t = xgcd(p, x)
        a, b = p // e, x // e
        d //= a
        h[j] = [0] * j + [e] + [(s * y + t * z) % d for y, z in zip(row[j + 1:], v[j + 1:])]
        v = [0] * (j + 1) + [(a * z - b * y) % d for y, z in zip(row[j + 1:], v[j + 1:])]
    return d


def eisenstein_index(ring: HeckeRingModel, m: int) -> EisensteinIdealModel:
    """Index of the ideal shifting each operator to its cusp-count value.

    Level primes dividing m are shifted by 1, the others by themselves;
    primes away from the level are shifted by r + 1.  The generator prime
    bound grows until the index survives two consecutive extra primes.
    """
    n = ring.space.level.value
    if m < 1 or n % m:
        raise ValueError("m must be a positive divisor of the level")
    if ring.genus == 0:
        return EisensteinIdealModel(
            level=n, m=m, index=1, elementary_divisors=(), generator_names=(),
            prime_bound=0, stabilization=(), ideal_basis=IntMatrix([], cols=0),
            zero_ring=True,
        )
    g = ring.genus
    bound = ring.bound
    ideal: list[list[int]] = []  # triangular basis of every generator row so far
    det = 0  # product of its pivots once it has full rank
    names: list[str] = []

    def absorb(name: str, rows: list[list[int]]) -> None:
        # once the ideal has full rank, its determinant d puts d*Z^g inside,
        # and each row is inserted into the triangular basis modulo d
        nonlocal ideal, det
        names.append(name)
        if det:
            for row in rows:
                det = _hnf_insert_mod(ideal, row, det)
        else:
            ideal = hermite_normal_form(IntMatrix(ideal + rows, cols=g)).tolist()
            if len(ideal) == g:
                det = prod(row[i] for i, row in enumerate(ideal))

    def add_u_rows(p: int, shift: int) -> None:
        rows = []
        for k in range(1, bound + 1):
            ck = _op_coords(ring, k * p)
            base = _op_coords(ring, k)
            rows.append([x - shift * y for x, y in zip(ck, base)])
        absorb(f"U{p}-{shift}", rows)

    def add_t_rows(r: int) -> None:
        rows = []
        for k in range(1, bound + 1):
            c = list(_op_coords(ring, k * r))
            if k % r == 0:
                lower = _op_coords(ring, k // r)
                c = [x + r * y for x, y in zip(c, lower)]
            base = _op_coords(ring, k)
            rows.append([x - (r + 1) * y for x, y in zip(c, base)])
        absorb(f"T{r}-{r + 1}", rows)

    for p in ring.space.level.primes:
        add_u_rows(p, 1 if m % p == 0 else p)
    start = [r for r in primes_up_to(bound) if n % r]
    for r in start:
        add_t_rows(r)
    t = det or None
    r = start[-1] if start else 1
    log = [(r, t)]
    stable = 0
    while stable < 2:
        r = _next_generator_prime(r, n)
        add_t_rows(r)
        t2 = det or None
        log.append((r, t2))
        if t2 is not None and t2 == t:
            stable += 1
        else:
            stable = 0
        t = t2
        if r > 20 * bound + 100:
            raise RuntimeError(f"index failed to stabilize at level {n}, m={m}")
    _reduce_above_pivots(ideal, range(g))
    basis = IntMatrix(ideal, cols=g)
    eds = elementary_divisors(basis)
    if prod(eds) != t:
        raise RuntimeError(f"Smith form disagrees with the index at level {n}, m={m}")
    nontrivial = [e for e in eds if e != 1]
    if len(nontrivial) > 1:
        raise RuntimeError(
            f"quotient not cyclic at level {n}, m={m}: divisors {eds}"
        )
    return EisensteinIdealModel(
        level=n, m=m, index=t, elementary_divisors=eds,
        generator_names=tuple(names), prime_bound=r, stabilization=tuple(log),
        ideal_basis=basis, zero_ring=False,
    )


# ---------------------------------------------------------------------------
# cached per-level entry points

@lru_cache(maxsize=None)
def cached_space(n: int) -> ManinSymbolSpace:
    return build_space(n, max_level=max(n, DESK_LEVEL_BOUND))


@lru_cache(maxsize=None)
def cached_ring(n: int) -> HeckeRingModel:
    return hecke_ring(cached_space(n))


@lru_cache(maxsize=None)
def cached_index(n: int, m: int) -> EisensteinIdealModel:
    return eisenstein_index(cached_ring(n), m)


def _prime_factors(n: int) -> list[int]:
    return sorted(_factorize(n)) if n > 1 else []


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


def compare_index_order(n: int, m: int) -> IndexComparisonReport:
    """Ideal index against the closed-form cusp order, with the parity split.

    Exact agreement is demanded when m is proper and the cofactor is odd;
    otherwise only the odd parts must match.  An odd prime appearing more
    often in the order than in the index is a breach and aborts.
    """
    n, m = int(n), int(m)
    model = cached_index(n, m)
    t = model.index
    c = order_closed_form(n, m).closed_form_order
    support = _prime_factors(t * c)
    alpha = tuple((l, _valuation(t, l)) for l in support)
    beta = tuple((l, _valuation(c, l)) for l in support)
    for l in support:
        if l != 2 and _valuation(t, l) < _valuation(c, l):
            raise RuntimeError(
                f"odd exponent drop at level {n}, m={m}, prime {l}: index {t}, order {c}"
            )
    exact = m != n and ((n // m) % 2 == 1)
    if t == c:
        verdict = "equal"
    elif not exact and _odd_part(t) == _odd_part(c):
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
    t = cached_index(level.value, 1).index
    out = []
    for l in _prime_factors(t):
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
    for m in _divisors(level):
        if m == 1:
            continue
        t = cached_index(level.value, m).index
        for l in _prime_factors(t):
            if any(q % l == 1 for q in level.primes if m % q):
                continue
            up = tuple((p, 1 if m % p == 0 else p % l) for p in level.primes)
            records.append(
                MaximalIdealRecord(ell=l, m=m, normalized=True, up_eigenvalues=up)
            )
    for l, witness in m1_index_witnesses(level.value):
        if witness is None:
            raise RuntimeError(
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
            raise RuntimeError(f"record (2, {m}) escapes the residue-2 normalization")
    return MainTheoremReport(level=nn, checks=tuple(checks), ok=all(c.ok for c in checks))
