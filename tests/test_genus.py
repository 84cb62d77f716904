"""Genus numbers, period polynomials and the exact-9 bound on r.

The numeric oracles below recompute Gaussian periods with plain floats and
math.cos, and with 40-digit mpmath cosines (the package's former runtime
check), fully separate code paths from the exact coefficients and from the
package's own verification modulo a prime ell = 1 (mod p).
"""

from __future__ import annotations

import math
import random
import re
from math import isqrt

import pytest

import cubic93._intmath
import cubic93.genus
from cubic93.eisenstein import OMEGA, PrimeSplitting, SplitKind, factor_rational_prime
from cubic93.genus import (
    _verify_periods,
    format_cubic,
    genus_field_description,
    genus_number,
    period_polynomial,
)
from oracles import primes_below

EXPECTED_7 = (1, 1, -2, -1)
EXPECTED_13 = (1, 1, -4, 1)


def oracle_periods(p: int, lib=math) -> list:
    """The three periods as sums of cosines, with math or mpmath as lib."""
    cubes = sorted({pow(x, 3, p) for x in range(1, p)})
    cube_set = set(cubes)
    n = 2
    while n in cube_set:
        n += 1
    cosets = (cubes, [n * t % p for t in cubes], [n * n * t % p for t in cubes])
    return [lib.fsum(lib.cos(2 * lib.pi * t / p) for t in coset) for coset in cosets]


def closed_form(p: int) -> tuple[tuple[int, int, int, int], int]:
    """The period polynomial of p from 4p = L^2 + 27M^2, L = 1 (mod 3), and M."""
    big_m = next(m for m in range(1, p) if is_square(4 * p - 27 * m * m))
    big_l = isqrt(4 * p - 27 * big_m * big_m)
    if big_l % 3 != 1:
        big_l = -big_l
    return (1, 1, -(p - 1) // 3, -(p * (big_l + 3) - 1) // 27), big_m


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def cubic_disc(c2: int, c1: int, c0: int) -> int:
    return 18 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2**2 * c1**2 - 4 * c1**3 - 27 * c0**2


# --------------------------------------------------------------- genus number


def test_genus_number_examples():
    assert genus_number(455) == (2, 9)  # 5 * 7 * 13
    assert genus_number(2) == (0, 1)
    assert genus_number(199) == (1, 3)


def test_genus_number_stable_under_removing_other_primes():
    rng = random.Random(7)
    split = [7, 13, 19, 31]
    other = [2, 3, 5, 11, 17, 23]
    for _ in range(100):
        picked_split = rng.sample(split, rng.randint(0, 2))
        picked_other = rng.sample(other, rng.randint(0, 3))
        d_full = 1
        for p in picked_split + picked_other:
            d_full *= p
        if d_full < 2:
            continue
        d_split_only = 1
        for p in picked_split:
            d_split_only *= p
        if d_split_only < 2:
            assert genus_number(d_full)[0] == 0 if not picked_split else True
            continue
        assert genus_number(d_full) == genus_number(d_split_only)


# --------------------------------------------------------- period polynomials


def test_period_polynomial_frozen_spot_values():
    assert period_polynomial(7) == EXPECTED_7
    assert period_polynomial(13) == EXPECTED_13


def test_period_polynomial_rejects_wrong_primes():
    with pytest.raises(ValueError):
        period_polynomial(5)
    with pytest.raises(ValueError):
        period_polynomial(21)
    with pytest.raises(ValueError):
        period_polynomial(3)
    with pytest.raises(ValueError, match="91 is not a rational prime"):
        period_polynomial(91)  # 7 * 13 = 1 (mod 3)


def test_period_polynomial_proves_p_prime_once(monkeypatch):
    # factor_rational_prime's proof of p is the only one, also on its cache miss
    calls: list[int] = []
    real = cubic93._intmath._proven_prime
    monkeypatch.setattr(cubic93._intmath, "_proven_prime", lambda n: calls.append(n) or real(n))
    factor_rational_prime.cache_clear()
    assert period_polynomial.__wrapped__(1009)[0] == 1
    assert calls.count(1009) == 1


def test_period_polynomial_against_numeric_oracle():
    for p in [q for q in primes_below(500) if q % 3 == 1]:
        one, c2, c1, c0 = period_polynomial(p)
        assert one == 1
        for eta in oracle_periods(p):
            assert abs(((eta + c2) * eta + c1) * eta + c0) < 1e-6, p
        disc = cubic_disc(c2, c1, c0)
        assert disc > 0  # three real roots
        assert disc % (p * p) == 0
        m = isqrt(disc // (p * p))
        assert m * m == disc // (p * p)  # p^2 times a perfect square
        # irreducible mod at least one auxiliary prime (no root there)
        assert any(
            all((x**3 + c2 * x**2 + c1 * x + c0) % ell for x in range(ell))
            for ell in (2, 5, 11, 17, 23, 29, 31, 41)
        ), p


def test_period_polynomial_against_mpmath_oracle():
    """The 40-digit mpmath period sum that used to run inside period_polynomial."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for p in [q for q in primes_below(500) if q % 3 == 1]:
            _, c2, c1, c0 = period_polynomial(p)
            for eta in oracle_periods(p, mpmath):
                assert abs(((eta + c2) * eta + c1) * eta + c0) < mpmath.mpf(10) ** -30, p


def test_exact_check_agrees_with_closed_form_below_20000():
    for p in [q for q in primes_below(20_000) if q % 3 == 1]:
        # __wrapped__ bypasses the cache, so the exact check runs for every p
        assert period_polynomial.__wrapped__(p) == closed_form(p)[0], p


@pytest.mark.parametrize("p", [100_003, 1_000_003])
def test_period_polynomial_large_primes(p):
    coeffs, big_m = closed_form(p)
    assert period_polynomial(p) == coeffs
    assert cubic_disc(*coeffs[1:]) == p * p * big_m * big_m


@pytest.mark.parametrize("p", [355_300_063, 1_000_000_000_039])
def test_period_check_beyond_the_bound_names_p(p):
    # the check needs a prime ell near 2(p/3)^3, above 3.3e24 for these p
    with pytest.raises(ValueError, match=rf"p = {p}\b.*3\.3e24"):
        period_polynomial(p)


def perturbed(coeffs: tuple[int, int, int, int]) -> list[tuple[int, int, int, int]]:
    one, c2, c1, c0 = coeffs
    return [
        (one, c2, c1, c0 + 1),
        (one, c2, c1, c0 - 1),
        (one, c2, c1 + 1, c0),
        (one, c2 - 1, c1, c0),
        (2, c2, c1, c0),
        (2, 2 * c2, 2 * c1, 2 * c0),  # the same roots, but not monic
    ]


@pytest.mark.parametrize("p", [7, 13, 19, 199, 1009, 100_003])
def test_exact_check_rejects_perturbed_cubics(p):
    coeffs = period_polynomial(p)
    _verify_periods(p, coeffs)
    for bad in perturbed(coeffs):
        with pytest.raises(ArithmeticError, match="does not vanish"):
            _verify_periods(p, bad)


@pytest.mark.parametrize("p", [7, 13, 19, 31])
def test_exact_check_modulus_exceeds_coefficient_bound(p):
    """A cubic off by a prime q = 1 (mod p) below the bound agrees mod q only."""
    one, c2, c1, c0 = period_polynomial(p)
    bound = 2 * (1 + (p - 1) // 3) ** 3
    for q in [q for q in primes_below(bound + 1) if q % p == 1]:
        with pytest.raises(ArithmeticError):
            _verify_periods(p, (one, c2, c1, c0 + q))
        with pytest.raises(ArithmeticError):
            _verify_periods(p, (one, c2, c1 - q, c0))


@pytest.mark.parametrize(
    "wrong",
    [
        lambda pi: -pi,  # primary up to sign: L = 2 (mod 3)
        lambda pi: OMEGA * pi,  # 3 does not divide b, so 27M^2 != 3b^2
        lambda pi: factor_rational_prime(19).factors[0],  # norm 19, not p
    ],
    ids=["negated", "times_omega", "other_norm"],
)
def test_wrong_prime_above_p_raises(monkeypatch, wrong):
    def wrong_splitting(p: int) -> PrimeSplitting:
        pi = wrong(factor_rational_prime(p).factors[0])
        return PrimeSplitting(p, SplitKind.SPLIT, (pi, pi.conjugate()))

    monkeypatch.setattr(cubic93.genus, "factor_rational_prime", wrong_splitting)
    for p in (7, 13, 31, 1009):
        pi = wrong_splitting(p).factors[0]
        with pytest.raises(ArithmeticError, match=rf"the prime {re.escape(str(pi))} above {p}\b"):
            period_polynomial.__wrapped__(p)


def test_format_cubic():
    assert format_cubic(EXPECTED_7) == "x^3 + x^2 - 2x - 1"
    assert format_cubic(EXPECTED_13) == "x^3 + x^2 - 4x + 1"
    assert format_cubic((1, 0, 0, -2)) == "x^3 - 2"


# ------------------------------------------------------------- bound checking


def test_genus_field_description_exact9_bound():
    """3^r divides h, so 9 || h admits r <= 2 and flags r = 3 as inconsistent."""
    assert genus_field_description(2, h_gamma3_exactly9=True).hilbert_equals_genus is False
    rep = genus_field_description(1729, h_gamma3_exactly9=True)  # 7 * 13 * 19
    assert rep.r == 3
    assert rep.hilbert_equals_genus is None
    assert any(note.startswith("inconsistent data") for note in rep.notes)
    rep = genus_field_description(1729, h_gamma3_exactly9=False)
    assert rep.hilbert_equals_genus is None
    assert not any(note.startswith("inconsistent data") for note in rep.notes)


# --------------------------------------------------------- field descriptions


def test_genus_field_description_two_split_primes():
    rep = genus_field_description(91, h_gamma3_exactly9=True)  # 7 * 13
    assert rep.r == 2 and rep.genus_number == 9
    assert rep.hilbert_equals_genus is True
    assert dict(rep.m_fields) == {7: EXPECTED_7, 13: EXPECTED_13}


def test_genus_field_description_one_split_prime():
    rep = genus_field_description(199, h_gamma3_exactly9=True)
    assert rep.r == 1 and rep.genus_number == 3
    assert rep.hilbert_equals_genus is False


def test_genus_field_description_no_split_prime():
    rep = genus_field_description(2, h_gamma3_exactly9=False)
    assert rep.r == 0 and rep.genus_number == 1
    assert rep.hilbert_equals_genus is None
    assert rep.m_fields == ()
    assert any("cubic field itself" in note for note in rep.notes)
    assert any("Hilbert" in note for note in rep.notes)
