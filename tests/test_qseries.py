from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from eislab import qseries
from eislab.cli import _squarefree_levels
from eislab.cuspgroup import order_closed_form
from eislab.divlattice import divisor_values
from eislab.exactnum import phi_psi_omega
from eislab.qseries import (
    eigenform_violations,
    eisenstein_series,
    hecke_on_expansion,
    level_lowering_identity_check,
    level_raise,
    residues,
    series_e,
    sigma_sieve,
)


def series_E4(precision: int) -> tuple[int, ...]:
    """1 + 240 sum_{n>=1} sigma_3(n) q^n."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    sig = [0] * precision
    for d in range(1, precision):
        for n in range(d, precision, d):
            sig[n] += d**3
    return (1, *(240 * s for s in sig[1:]))


def weight4_G(primes, precision: int = 200) -> tuple[int, ...]:
    """Plus word in weight 4 over the given primes, applied to E4.

    The constant term is checked equal to prod (1 - p^3).
    """
    primes = [int(p) for p in primes]
    if not primes:
        raise ValueError("prime list must be nonempty")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    f = series_E4(precision)
    expected = 1
    for p in primes:
        f = level_raise(f, p, 4, "+")
        expected *= 1 - p**3
    if f[0] != expected:
        raise RuntimeError("constant term of the weight-4 word is forced")
    return f


def test_series_e_prefix():
    f = series_e(8)
    assert f[:5] == (1, -24, -72, -96, -168)
    assert f[6] == -288


def test_series_e_cache_is_bounded():
    # twenty precisions leave at most eight tuples, each still the sieve's
    for precision in range(10, 30):
        series_e(precision)
    assert series_e.cache_info().currsize <= 8
    for precision in range(10, 30):
        assert series_e(precision) == (1, *(-24 * s for s in sigma_sieve(precision)[1:]))


def test_series_E4_prefix():
    f = series_E4(4)
    assert f[0] == 1
    assert f[1] == 240
    assert f[2] == 2160


def test_sigma_sieve_against_direct_sum():
    sig = sigma_sieve(50)
    for n in range(1, 50):
        assert sig[n] == sum(d for d in range(1, n + 1) if n % d == 0)


def test_level_raise_constant_terms():
    f = series_e(30)
    assert level_raise(f, 5, 2, "-")[0] == 0
    assert level_raise(f, 5, 2, "+")[0] == 1 - 5
    both = level_raise(level_raise(f, 3, 2, "+"), 5, 2, "+")
    assert both[0] == (1 - 3) * (1 - 5)


def test_level_raise_operator_orders_commute():
    f = series_e(120)
    one = level_raise(level_raise(f, 2, 2, "+"), 3, 2, "-")
    other = level_raise(level_raise(f, 3, 2, "-"), 2, 2, "+")
    assert one == other
    for level in _squarefree_levels(30, 6):
        m = level.primes[0]
        series = eisenstein_series(level, m, 60)
        g = series_e(60)
        for q in reversed(level.primes):
            if m % q:
                g = level_raise(g, q, 2, "-")
        g = level_raise(g, m, 2, "+")
        assert series == g


def test_series_refusals(monkeypatch):
    f = series_e(30)
    with pytest.raises(ValueError, match="precision must be at least 1"):
        series_e(0)
    with pytest.raises(ValueError, match="4 is not prime"):
        level_raise(f, 4, 2, "+")
    for sign in (1, -1, "*"):
        with pytest.raises(ValueError, match="sign must be"):
            level_raise(f, 5, 2, sign)
    with pytest.raises(ValueError, match="M must divide 30, got 7"):
        eisenstein_series(30, 7)
    # an operator word that does nothing leaves the constant term 1
    monkeypatch.setattr(qseries, "level_raise", lambda g, p, k, sign: g)
    with pytest.raises(RuntimeError, match="constant term of the operator word"):
        eisenstein_series(30, 6)


def test_eisenstein_series_n11():
    f = eisenstein_series(11, 11, 24)
    assert f[0] == -10
    assert f[1] == -24
    assert f[11] == -24


def test_eisenstein_series_constant_terms():
    for level in _squarefree_levels(40, 2):
        n = level.value
        for m in [d for d in range(2, n + 1) if n % d == 0]:
            f = eisenstein_series(n, m, 12)
            if m == n:
                phi, _, omega = phi_psi_omega(n)
                assert f[0] == (-1) ** omega * phi
            else:
                assert f[0] == 0
            assert f[1] == -24


def test_hecke_u_p_shifts():
    f = tuple(range(12))
    out = hecke_on_expansion(f, 3, 6)
    assert out[1] == f[3]
    assert len(out) == 4


def test_hecke_usable_precision_error():
    f = series_e(9)
    try:
        hecke_on_expansion(f, 9, 11)
    except ValueError:
        pass
    else:
        raise AssertionError("expected usable-precision error")


def test_hecke_composite_matches_composition():
    # T_6 = T_2 T_3 away from the level, on the common usable prefix
    f = eisenstein_series(35, 35, 120)
    direct = hecke_on_expansion(f, 6, 35)
    step = hecke_on_expansion(hecke_on_expansion(f, 2, 35), 3, 35)
    assert direct[: len(step)] == step


def test_eigenform_small_sweep():
    for level in _squarefree_levels(30, 2):
        n = level.value
        for m in [d for d in range(2, n + 1) if n % d == 0]:
            assert eigenform_violations(n, m, precision=200) == [], (n, m)


def test_planted_coefficient_breaks_the_pattern(monkeypatch):
    # a_150 + 1 is read at j = 150 / r by T_2, T_3 and U_5 only: every other
    # operator, and the scaled side, stop before it
    series = qseries.eisenstein_series

    def planted(n, m, precision):
        return tuple(x + (j == 150) for j, x in enumerate(series(n, m, precision)))

    monkeypatch.setattr(qseries, "eisenstein_series", planted)
    assert eigenform_violations(35, 35, precision=200) == ["T_2 -> 3", "T_3 -> 4", "U_5 -> 1"]


def test_residue_prime_level():
    rep = residues(11, 11)
    assert [(r.cusp, r.value) for r in rep] == [(11, -10), (1, 10)]
    assert sum(r.value for r in rep) == 0


def test_residue_rational_example():
    rep = residues(15, 3)
    by_cusp = {r.cusp: r.value for r in rep}
    assert by_cusp[15] == 0
    assert by_cusp[3] == Fraction(-48, 5)


def test_residue_m_equals_n_consistency():
    # the general-cusp formula at M = N collapses to the constant term value
    for level in _squarefree_levels(40):
        n = level.value
        phi, _, omega = phi_psi_omega(n)
        rep = residues(n, n)
        assert rep[0].cusp == n
        assert rep[0].value == (-1) ** omega * phi
        general = (-1) ** omega * phi * phi_psi_omega(1)[1] * Fraction(n, n)
        assert rep[0].value == general


def test_level_lowering_examples():
    assert level_lowering_identity_check(15, 3, 500).ok
    assert level_lowering_identity_check(10, 2, 500).ok


def test_level_lowering_rejects_bad_input():
    for n, p in ((15, 7), (3, 3)):
        try:
            level_lowering_identity_check(n, p, 500)
        except ValueError:
            pass
        else:
            raise AssertionError(f"expected rejection for N={n}, p={p}")


def test_weight4_constants():
    assert weight4_G([7], 10)[0] == 1 - 343
    g = weight4_G([3, 5], 10)
    assert g[0] == (1 - 27) * (1 - 125) == 3224
    assert g[1] == 240


def test_non_divisor_m_refused_alike():
    # one M check behind the class order, the residues and the eigenvalue
    # check: zero once divided the level in eigenform_violations
    for m in (0, -1, 1, 7):
        for check in (order_closed_form, residues, eigenform_violations):
            with pytest.raises(ValueError, match="other than 1"):
                check(30, m)


# SHA-256 of f"{N}:{m}:{list(f)}" for f = eisenstein_series(N, m, 200) at every
# square-free N <= 210 and every m | N, m = 1 included; recorded while
# series were still wrapped in a class
SERIES_SHA256 = "f24998433f8d7504dd7e3ac2928181e37b5a1b4edeeca86dce279ef22935373c"


def test_series_are_pinned():
    h = hashlib.sha256()
    for level in _squarefree_levels(210, 1):
        n = level.value
        for m in divisor_values(level):
            h.update(f"{n}:{m}:{list(eisenstein_series(n, m, 200))}\n".encode())
    assert h.hexdigest() == SERIES_SHA256
