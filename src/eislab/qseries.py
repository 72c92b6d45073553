"""q-expansions as tuples of exact integer coefficients.

A series is the tuple (a_0, ..., a_{T-1}) of its first T coefficients, so
its length is its precision.  Carries the weight-2 series
e = 1 - 24 sum sigma(n) q^n, the level-raising operators
g(z) -> g(z) - c * g(pz), the composite Eisenstein series attached to a
divisor M of N, Hecke operators on expansions, and the cusp-residue closed
forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .divlattice import SquareFreeLevel, _check_m
from .exactnum import is_prime, phi_psi_omega


def sigma_sieve(precision: int) -> list[int]:
    """sigma(n) for 0 <= n < precision, with the unused slot 0 at n=0."""
    out = [0] * precision
    for d in range(1, precision):
        for m in range(d, precision, d):
            out[m] += d
    return out


@lru_cache(maxsize=8)
def series_e(precision: int) -> tuple[int, ...]:
    """1 - 24 sum_{n>=1} sigma(n) q^n, sieved once per precision.

    The cache keeps the last eight precisions.  A caller uses one
    precision for all its series (one per level in modsym.level_indices),
    while the level-lowering identity takes a new one for each prime (163
    up to level 2310), so an unbounded cache would grow with the sweep.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1")
    sig = sigma_sieve(precision)
    return (1, *(-24 * s for s in sig[1:]))


def level_raise(g: tuple[int, ...], p: int, k: int, sign: str) -> tuple[int, ...]:
    """g(z) - p^{k-1} g(pz) for sign '+', g(z) - g(pz) for sign '-'."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if sign == "+":
        c = p ** (k - 1)
    elif sign == "-":
        c = 1
    else:
        raise ValueError("sign must be '+' or '-'")
    out = list(g)
    for j in range(0, len(g), p):
        out[j] -= c * g[j // p]
    return tuple(out)


def eisenstein_series(n, m: int, precision: int = 200) -> tuple[int, ...]:
    """Apply the plus word over primes of M, then the minus word over N/M, to e.

    Returns the tuple of the first precision coefficients.  M = 1 is
    allowed (pure minus word).  The constant term comes out as
    prod_{p | M} (1 - p) when M = N and 0 otherwise; this is checked.
    """
    level = SquareFreeLevel(n)
    m = int(m)
    if m < 1 or level.value % m:
        raise ValueError(f"M must divide {level.value}, got {m}")
    f = series_e(precision)
    for p in level.primes:
        if m % p == 0:
            f = level_raise(f, p, 2, "+")
    for q in level.primes:
        if m % q:
            f = level_raise(f, q, 2, "-")
    expected = 1
    if m == level.value:
        for p in level.primes:
            expected *= 1 - p
    else:
        expected = 0
    if f[0] != expected:
        raise RuntimeError("constant term of the operator word is forced")
    return f


def hecke_on_expansion(f: tuple[int, ...], n: int, level) -> tuple[int, ...]:
    """Weight-2 Hecke action on the coefficients f, truncated to the usable prefix.

    b_j = sum over d | gcd(n, j) with gcd(d, N) = 1 of d * a_{nj/d^2}.
    From T = len(f) terms the result keeps floor((T-1)/n) + 1 coefficients;
    fewer than 2 is an error because nothing could be compared against it.
    """
    if n < 1:
        raise ValueError("operator index must be positive")
    nvalue = SquareFreeLevel(level).value
    usable = (len(f) - 1) // n + 1
    if usable < 2:
        raise ValueError(f"usable precision {usable} after T_{n} on {len(f)} terms")
    coeffs = []
    for j in range(usable):
        acc = 0
        g = gcd(n, j) if j else n
        for d in range(1, g + 1):
            if g % d == 0 and gcd(d, nvalue) == 1:
                acc += d * f[n * j // (d * d)]
        coeffs.append(acc)
    return tuple(coeffs)


def eigenform_violations(
    n, m: int, precision: int = 200, prime_bound: int = 20
) -> list[str]:
    """Check the eigenvalue pattern of the series for (N, M); empty list = pass.

    T_r acts by r + 1 for primes r not dividing N, U_p by 1 for p | M and
    U_q by q for q | N/M, all compared on the usable coefficient prefix.
    """
    level = SquareFreeLevel(n)
    m = _check_m(level, m)
    f = eisenstein_series(level, m, precision)
    bad = []
    for r in range(2, prime_bound):
        if not is_prime(r):
            continue
        image = hecke_on_expansion(f, r, level)
        if level.value % r == 0:
            scale = 1 if m % r == 0 else r
            label = f"U_{r} -> {scale}"
        else:
            scale = r + 1
            label = f"T_{r} -> {scale}"
        if any(b != scale * a for b, a in zip(image, f)):
            bad.append(label)
    return bad


@dataclass(frozen=True)
class ResidueReport:
    cusp: int
    value: Fraction


def residues(n, m: int) -> list[ResidueReport]:
    """Closed-form residues of the (N, M) series at the cusps that carry one.

    Reported: the width-N cusp (the constant term), every cusp N/p when
    M = N, and the cusp M when M < N.  The M < N value is rational with
    denominator dividing N/M and is reported unreduced against any width
    convention.
    """
    level = SquareFreeLevel(n)
    m = _check_m(level, m)
    phi, _, omega = phi_psi_omega(level)
    reports = []
    if m == level.value:
        reports.append(ResidueReport(level.value, Fraction((-1) ** omega * phi)))
        for p in level.primes:
            reports.append(
                ResidueReport(
                    level.value // p, Fraction((-1) ** (omega - 1) * phi)
                )
            )
    else:
        reports.append(ResidueReport(level.value, Fraction(0)))
        omega_m = sum(1 for p in level.primes if m % p == 0)
        psi_c = phi_psi_omega(level.value // m)[1]
        reports.append(
            ResidueReport(
                m,
                (-1) ** omega_m * phi * psi_c * Fraction(m, level.value),
            )
        )
    return reports


@dataclass(frozen=True)
class IdentityCheck:
    ok: bool
    first_fail: int | None
    precision: int


def level_lowering_identity_check(
    n, p: int, precision: int = 500
) -> IdentityCheck:
    """Check E_{1,N} - E_{p,N} = (p-1) E_{1,D}(q^p) with D = N/p, coefficientwise."""
    level = SquareFreeLevel(n)
    if p not in level.primes:
        raise ValueError(f"{p} does not divide {level.value}")
    d = level.value // p
    if d <= 1:
        raise ValueError("the lowered level must be greater than 1")
    if precision < 2 * p:
        raise ValueError("precision must reach at least 2p")
    e1 = eisenstein_series(level, 1, precision)
    ep = eisenstein_series(level, p, precision)
    inner = eisenstein_series(SquareFreeLevel(d), 1, (precision - 1) // p + 1)
    for j in range(precision):
        rhs = (p - 1) * inner[j // p] if j % p == 0 else 0
        if e1[j] - ep[j] != rhs:
            return IdentityCheck(False, j, precision)
    return IdentityCheck(True, None, precision)
