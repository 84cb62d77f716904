"""Normalization and mod-9 decomposition of radicands.

The exhaustive checks use their own smallest-prime-factor sieve as the
factorization oracle, independent of the library's factorize.
"""

from __future__ import annotations

import re
from math import isqrt

import pytest

from cubic93._intmath import is_prime
from cubic93.classifier import _SCAN_LIST_LIMIT, necessary_form
from cubic93.genus import genus_field_description, genus_number
from cubic93.radicand import (
    _SCAN_LIMIT,
    GerthForm,
    _cube_free_count,
    _cube_free_forms,
    gerth_decompose,
    normalize,
)
from cubic93.ramification import ramify
from oracles import cube_free_sieve

LIMIT = 100_000


def spf_table(limit: int) -> list[int]:
    """smallest prime factor for every n <= limit (0 marks 0 and 1)."""
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def oracle_factor(n: int, spf: list[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    while n > 1:
        p = spf[n]
        out[p] = out.get(p, 0) + 1
        n //= p
    return out


def recomposed(g: GerthForm) -> int:
    """3^e times every listed prime power: d again."""
    out = 3**g.e
    for p, e in g.split_primes + g.inert_primes:
        out *= p**e
    return out


# ----------------------------------------------------------------- normalize


def test_normalize_twelve():
    nr = normalize(12)
    assert (nr.d, nr.a, nr.b, nr.conjugate_d) == (12, 3, 2, 18)
    assert nr.canonical == 12
    assert nr.d == 12  # nothing stripped


def test_normalize_prime_and_its_square():
    nr = normalize(199)
    assert (nr.d, nr.a, nr.b, nr.conjugate_d) == (199, 199, 1, 39601)
    sq = normalize(39601)
    assert (sq.d, sq.a, sq.b, sq.conjugate_d) == (39601, 1, 199, 199)
    assert nr.canonical == sq.canonical == 199


def test_normalize_rejects_perfect_cubes_and_small_inputs():
    for bad in (27, 8, 1000, 1, 0, -5):
        with pytest.raises(ValueError):
            normalize(bad)


def test_normalize_strips_cube_factors():
    nr = normalize(24)  # 2^3 * 3
    assert nr.d == 3
    assert nr.d != 24  # a cube part was stripped
    nr = normalize(54)  # 2 * 3^3
    assert (nr.d, nr.d != 54) == (2, True)


def test_normalize_idempotent_and_conjugate_swaps():
    for n in (12, 50, 63, 199, 361, 2023):
        nr = normalize(n)
        again = normalize(nr.d)
        assert again == nr
        conj = normalize(nr.conjugate_d)
        assert (conj.a, conj.b) == (nr.b, nr.a)
        assert conj.conjugate_d == nr.d
        assert conj.canonical == nr.canonical


# ------------------------------------------------------------- decomposition


def test_decompose_199():
    g = gerth_decompose(199)
    assert g.e == 0
    assert g.class1mod9 == ((199, 1),)
    assert (g.v, g.w, g.I, g.J) == (1, 1, 0, 0)


def test_decompose_63():
    g = gerth_decompose(63)  # 3^2 * 7
    assert g.e == 2
    assert g.class47mod9 == ((7, 1),)
    assert (g.v, g.w, g.J) == (0, 1, 0)


def test_decompose_two():
    g = gerth_decompose(2)
    assert g.class25mod9 == ((2, 1),)
    assert (g.w, g.I, g.J) == (0, 0, 1)


def test_decompose_rejects_non_cube_free():
    for bad in (8, 24, 199**3):
        with pytest.raises(ValueError):
            gerth_decompose(bad)
    with pytest.raises(ValueError):
        gerth_decompose(1)
    with pytest.raises(ValueError, match="not cube-free"):
        gerth_decompose(24)


#: 10^30 + 57 is a cube-free prime above 3.3e24, where primality is not proven
PRIME_ABOVE_RANGE = 10**30 + 57


@pytest.mark.parametrize("call", [
    necessary_form,
    ramify,
    genus_number,
    lambda d: genus_field_description(d, h_gamma3_exactly9=True),
], ids=["necessary_form", "ramify", "genus_number", "genus_field_description"])
def test_decompose_beyond_the_bound_names_it_not_cube_freeness(call):
    with pytest.raises(ValueError, match=r"3\.3e24"):
        call(PRIME_ABOVE_RANGE)


def test_decompose_exhaustive_against_sieve():
    spf = spf_table(LIMIT)
    flags = cube_free_sieve(LIMIT)
    for d in range(2, LIMIT + 1):
        fac = oracle_factor(d, spf)
        cube_free = all(e <= 2 for e in fac.values())
        assert bool(flags[d]) == cube_free

        # normalize(n), cube factors included, against d = a*b^2 from the oracle
        a = b = 1
        for p, e in fac.items():
            if e % 3 == 1:
                a *= p
            elif e % 3 == 2:
                b *= p
        if a * b == 1:
            with pytest.raises(ValueError, match="perfect cube"):
                normalize(d)
            continue
        nr = normalize(d)
        assert (nr.d, nr.a, nr.b, nr.conjugate_d) == (a * b * b, a, b, a * a * b), d
        assert nr.canonical == min(a * b * b, a * a * b)
        assert (nr.d != d) == any(e >= 3 for e in fac.values())
        if not cube_free:
            continue
        g = gerth_decompose(d)
        assert g == nr
        assert recomposed(g) == d
        listed = [p for p, _ in g.class1mod9 + g.class47mod9 + g.class8mod9 + g.class25mod9]
        assert sorted(listed) == sorted(p for p in fac if p != 3)
        assert len(set(listed)) == len(listed)  # classes are disjoint
        assert g.e == fac.get(3, 0)
        for p, _ in g.class1mod9:
            assert p % 9 == 1
        for p, _ in g.class47mod9:
            assert p % 9 in (4, 7)
        for q, _ in g.class8mod9:
            assert q % 9 == 8
        for q, _ in g.class25mod9:
            assert q % 9 in (2, 5)
        assert g.v == len(g.class1mod9)
        assert g.w == g.v + len(g.class47mod9)
        assert g.I == len(g.class8mod9)
        assert g.J == g.I + len(g.class25mod9)
        if d % 9 in (1, 8):
            assert g.e == 0  # d = +-1 (mod 9) forces 3 not to divide d


# --------------------------------------------------------------------- sieve


def assert_built_forms(forms: list[GerthForm]) -> None:
    """The sieve builds its forms with tuple.__new__, which checks neither
    the class nor the arity that GerthForm's own constructor would; a plain
    tuple of the same values compares equal to a GerthForm, so equality
    alone does not catch a wrong class."""
    for g in forms:
        assert type(g) is GerthForm, g
        assert len(g) == 6, g


def test_sieve_matches_normalize():
    flags = cube_free_sieve(2000)
    want = [normalize(d) for d in range(2, 2001) if flags[d]]
    # 8 = 2^3 and 27 = 3^3 are the first cubes, 9 = 3^2 sets e = 2
    for limit in (2, 7, 8, 9, 26, 27, 28, 1000, 2000):
        got = _cube_free_forms(limit)
        assert type(got) is list
        assert got == [g for g in want if g.d <= limit], limit
        assert_built_forms(got)


@pytest.mark.parametrize("block", [97, 1000])
def test_block_sieve_matches_normalize(block):
    """Every limit in 2..block where the sieved primes change: at p^2 - 1
    the prime p is still the leftover above isqrt(limit), at p^2 it is
    sieved and p^2 is its first (p, 2)."""
    flags = cube_free_sieve(block)
    want = [normalize(d) for d in range(2, block + 1) if flags[d]]
    squares = [p * p for p in range(2, isqrt(block) + 1) if is_prime(p)]
    limits = {2, 3, block} | {s + k for s in squares for k in (-1, 0, 1)}
    for limit in sorted(x for x in limits if 2 <= x <= block):
        got = _cube_free_forms(limit)
        assert got == [g for g in want if g.d <= limit], limit
        assert_built_forms(got)


def test_sieve_matches_normalize_up_to_the_scan_bound():
    # the highest range that any caller sieves: library scan's bound
    got = _cube_free_forms(_SCAN_LIST_LIMIT)[-20_000:]
    flags = cube_free_sieve(_SCAN_LIST_LIMIT)
    want = [normalize(d) for d in range(got[0].d, _SCAN_LIST_LIMIT + 1) if flags[d]]
    assert got == want
    assert_built_forms(got)


def test_cube_free_count_is_the_running_count_of_the_sieve():
    cube_free = {g.d for g in _cube_free_forms(20_000)}
    count = 0
    for n in range(2, 20_001):
        count += n in cube_free
        assert _cube_free_count(n) == count, n


@pytest.mark.parametrize("limit, message", [
    (1, "scan bound must be >= 2, got 1"),
    (_SCAN_LIMIT + 1, "scan bound must be <= 10^8 = 100000000, got 100000001: beyond it"),
])
def test_cube_free_count_names_its_bounds(limit, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _cube_free_count(limit)
