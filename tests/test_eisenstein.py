"""Eisenstein arithmetic, characters and reciprocity.

Brute-force oracles live at the top and deliberately avoid the library's
own code paths: the split search enumerates norm equations directly, the
residue oracle cubes every residue, and the associate oracle tries all six
units.  The character, factorization and split-prime oracles are the
library's earlier slow paths, which work in Z[w] itself by Euclidean
division; the library now computes the first two in the residue field
Z[w]/(pi), and the prime above a split p by Cornacchia's algorithm on
integers.  `factor` divides exactly on integer pairs.  The oracles' Z[w]
division is `oracles.ediv`, the nearest-lattice-point Euclidean division.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubic93 import _intmath, eisenstein
from cubic93._intmath import _MR_LIMIT, factorize, is_prime
from cubic93.eisenstein import (
    LAMBDA,
    OMEGA,
    OMEGA_SQUARED,
    ONE,
    UNITS,
    ZERO,
    CubicCharacterValue,
    EisensteinInt,
    PrimeSplitting,
    SplitKind,
    cubic_character,
    factor,
    factor_rational_prime,
    primary_associate,
    rational_cubic_symbol,
)
from oracles import (
    character_product,
    cubic_symbol_of_three,
    divides,
    ediv,
    factor_by_divmod,
    gcd,
    is_eisenstein_prime_by_trial_division,
    is_prime_by_trial_division,
    power,
    primes_below,
    recomposed,
    split_prime_by_gcd,
)

# ---------------------------------------------------------------- oracles


def oracle_split(p: int) -> tuple[int, int]:
    """Any (a, b) with a^2 - a*b + b^2 = p, by exhaustive search."""
    for b in range(1, isqrt(4 * p // 3) + 2):
        rest = 4 * p - 3 * b * b
        if rest < 0:
            break
        x = isqrt(rest)
        if x * x == rest and (x + b) % 2 == 0:
            return (x + b) // 2, b
    raise AssertionError(f"{p} is not a norm")


def oracle_is_cubic_residue(a: int, p: int) -> bool:
    return any(pow(x, 3, p) == a % p for x in range(1, p))


def is_associate(x: EisensteinInt, y: EisensteinInt) -> bool:
    return any(u * x == y for u in UNITS)


def oracle_pow_mod(base: EisensteinInt, exponent: int, modulus: EisensteinInt) -> EisensteinInt:
    result = ONE
    base = ediv(base, modulus)[1]
    n = exponent
    while n:
        if n & 1:
            result = ediv(result * base, modulus)[1]
        base = ediv(base * base, modulus)[1]
        n >>= 1
    return result


def oracle_cubic_character(alpha: EisensteinInt, pi: EisensteinInt) -> CubicCharacterValue:
    """alpha^((N(pi) - 1)/3) by square-and-multiply in Z[w], reduced mod pi
    by Euclidean division at every step."""
    if divides(pi, alpha):
        return CubicCharacterValue.ZERO
    r = oracle_pow_mod(alpha, (pi.norm() - 1) // 3, pi)
    for value, element in (
        (CubicCharacterValue.ONE, ONE),
        (CubicCharacterValue.OMEGA, OMEGA),
        (CubicCharacterValue.OMEGA_SQUARED, OMEGA_SQUARED),
    ):
        if divides(pi, r - element):
            return value
    raise AssertionError(f"chi_{pi}({alpha}) did not land on a cube root of unity")


def oracle_split_primes(lo: int, hi: int) -> list[EisensteinInt]:
    """Both primes above each split p in [lo, hi), from the norm search."""
    out = []
    for p in range(lo, hi):
        if p % 3 == 1 and is_prime_by_trial_division(p):
            a, b = oracle_split(p)
            out += [EisensteinInt(a, b), EisensteinInt(a, b).conjugate()]
    return out


# small and benchmark-sized split primes, and inert q up to norm ~1e6
PRIME_MODULI = (
    oracle_split_primes(5, 400)
    + oracle_split_primes(999_000, 1_000_000)
    + [EisensteinInt(q) for q in (2, 5, 11, 17, 23, 47, 389, 983)]
)


# ---------------------------------------------------------------- ring ops


def test_omega_satisfies_its_equation():
    assert OMEGA * OMEGA + OMEGA + ONE == ZERO
    assert OMEGA * OMEGA == OMEGA_SQUARED


def test_conjugate_of_omega():
    assert OMEGA.conjugate() == EisensteinInt(-1, -1)


def test_lambda_times_conjugate_is_three():
    assert LAMBDA * LAMBDA.conjugate() == EisensteinInt(3)
    assert LAMBDA.norm() == 3


def test_conjugation_is_an_involution():
    z = EisensteinInt(5, 2)
    assert z.conjugate().conjugate() == z


def test_units_are_exactly_the_norm_one_elements():
    assert len(set(UNITS)) == 6
    assert all(u.norm() == 1 for u in UNITS)


def test_int_coercion_in_arithmetic():
    z = EisensteinInt(2, 1)
    assert z + 1 == EisensteinInt(3, 1)
    assert 2 * z == EisensteinInt(4, 2)
    assert z - 2 == EisensteinInt(0, 1)
    assert z == z + 0 and EisensteinInt(5) == 5
    assert 3 - OMEGA == EisensteinInt(3, -1)


def test_arithmetic_with_a_str_is_refused():
    z = EisensteinInt(2, 1)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(z, "1")
        with pytest.raises(TypeError):
            op("1", z)
    assert (z == "2+1w") is False and z != "2+1w"


def test_str_of_a_pure_multiple_of_omega():
    assert str(EisensteinInt(0, 5)) == "5w"
    assert str(EisensteinInt(0, -1)) == "-1w"
    assert (str(EisensteinInt(3)), str(EisensteinInt(3, -1))) == ("3", "3-1w")


@given(st.integers())
@example(3)
def test_rational_values_hash_like_the_equal_int(n):
    assert EisensteinInt(n) == n and hash(EisensteinInt(n)) == hash(n)
    assert len({n, EisensteinInt(n)}) == 1


def test_norm_values():
    assert LAMBDA.norm() == 3
    assert EisensteinInt(3, 1).norm() == 7
    assert ZERO.norm() == 0


@given(
    st.integers(-1000, 1000),
    st.integers(-1000, 1000),
    st.integers(-1000, 1000),
    st.integers(-1000, 1000),
)
def test_norm_is_multiplicative(a, b, c, d):
    x, y = EisensteinInt(a, b), EisensteinInt(c, d)
    assert (x * y).norm() == x.norm() * y.norm()


@given(st.integers(-500, 500), st.integers(-500, 500), st.integers(-500, 500), st.integers(-500, 500))
def test_conjugation_is_multiplicative(a, b, c, d):
    x, y = EisensteinInt(a, b), EisensteinInt(c, d)
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_norm_multiplicativity_large_sample():
    rng = random.Random(0)
    for _ in range(10_000):
        x = EisensteinInt(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        y = EisensteinInt(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        assert (x * y).norm() == x.norm() * y.norm()


@given(st.integers(-300, 300), st.integers(-300, 300), st.integers(-300, 300), st.integers(-300, 300))
def test_divmod_contract(a, b, c, d):
    x, y = EisensteinInt(a, b), EisensteinInt(c, d)
    if y.is_zero:
        with pytest.raises(ZeroDivisionError):
            ediv(x, y)
        return
    q, r = ediv(x, y)
    assert q * y + r == x
    assert r.norm() < y.norm()


# ------------------------------------------------- rational prime splitting


def test_split_seven():
    s = factor_rational_prime(7)
    assert s.kind is SplitKind.SPLIT
    pi, pi_bar = s.factors
    # frozen from the exhaustive norm search: primary, positive w-part
    assert pi == EisensteinInt(2, 3)
    assert pi_bar == EisensteinInt(-1, -3)
    assert pi_bar == pi.conjugate()
    assert pi.norm() == 7
    # the textbook pair 3 + w, 2 - w describes the same primes
    assert is_associate(pi, EisensteinInt(3, 1)) or is_associate(pi, EisensteinInt(2, -1))
    assert is_associate(pi_bar, EisensteinInt(3, 1)) or is_associate(
        pi_bar, EisensteinInt(2, -1)
    )


def test_inert_five():
    s = factor_rational_prime(5)
    assert s.kind is SplitKind.INERT
    assert s.factors == (EisensteinInt(5),)


def test_ramified_three():
    s = factor_rational_prime(3)
    assert s.kind is SplitKind.RAMIFIED
    assert s.factors == (LAMBDA,)
    assert -OMEGA_SQUARED * LAMBDA * LAMBDA == EisensteinInt(3)


def test_factor_rational_prime_rejects_composites():
    with pytest.raises(ValueError):
        factor_rational_prime(6)


def test_split_agrees_with_norm_search_oracle():
    for p in [q for q in primes_below(500) if q % 3 == 1]:
        a, b = oracle_split(p)
        found = EisensteinInt(a, b)
        s = factor_rational_prime(p)
        pi, pi_bar = s.factors
        assert pi.norm() == p
        assert pi.a % 3 == 2 and pi.b % 3 == 0 and pi.b > 0
        assert is_associate(found, pi) or is_associate(found, pi_bar)


def split_primes_from(start: int, count: int, step: int) -> list[int]:
    """The first count primes p = 1 (mod 3) met stepping from start by +-1."""
    out = []
    n = start
    while len(out) < count:
        if n % 3 == 1 and is_prime(n):
            out.append(n)
        n += step
    return out


@functools.cache
def cornacchia_test_primes() -> list[int]:
    return (
        [p for p in primes_below(20_000) if p % 3 == 1]
        + [p for p in range(999_000, 1_000_000) if p % 3 == 1 and is_prime(p)]
        + split_primes_from(10**8, 200, 1)
        + split_primes_from(10**12, 20, 1)
        + split_primes_from(_MR_LIMIT - 1, 5, -1)
    )


def test_split_prime_matches_the_gcd_oracle():
    primes = cornacchia_test_primes()
    assert len(primes) > 1300 and primes[-1] > 3.3e24
    for p in primes:
        pi = split_prime_by_gcd(p)
        expected = PrimeSplitting(p, SplitKind.SPLIT, (pi, pi.conjugate()))
        # __wrapped__ skips the cache, so every p runs the new path
        assert factor_rational_prime.__wrapped__(p) == expected


def test_split_prime_matches_sympy_cornacchia():
    diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")
    for p in cornacchia_test_primes():
        pi, pi_bar = factor_rational_prime.__wrapped__(p).factors
        ((x, y),) = diophantine.cornacchia(1, 3, p)
        found = EisensteinInt(int(x + y), int(2 * y))
        assert is_associate(found, pi) or is_associate(found, pi_bar)


def test_split_prime_raises_when_the_norm_is_wrong(monkeypatch):
    # an ArithmeticError, not an assert, so the check also runs under -O
    monkeypatch.setattr(eisenstein, "isqrt", lambda n: isqrt(n) + 1)
    with pytest.raises(ArithmeticError, match=r"above 7 has norm"):
        eisenstein._split_pair(7)


def test_split_pins_a_prime_above_1e12():
    # frozen from the gcd path that preceded Cornacchia's algorithm
    assert factor_rational_prime(1000000000039).factors[0] == EisensteinInt(409553, 1139763)


# --------------------------------------------------------- primary elements


def test_primary_associate_frozen_examples():
    # exhaustive six-associate oracle gave -1 - 3w as the primary one
    assert primary_associate(EisensteinInt(1, 3)) == EisensteinInt(-1, -3)
    assert primary_associate(EisensteinInt(2)) == EisensteinInt(2)
    with pytest.raises(ValueError):
        primary_associate(LAMBDA)
    # str() of 3^10000 and of 3 * 10^5000 raises CPython's int-limit error
    for z in (EisensteinInt(3**10000, 0), EisensteinInt(3 * 10**5000, 0)):
        with pytest.raises(ValueError, match="has norm divisible by 3; no primary associate") as info:
            primary_associate(z)
        assert len(str(info.value)) < 200 and "digits" not in str(info.value)


def test_primary_associate_unique_among_the_six():
    count = 0
    for a in range(-60, 61):
        for b in range(-60, 61):
            z = EisensteinInt(a, b)
            if z.norm() % 3 == 0:
                continue
            count += 1
            primaries = [u * z for u in UNITS if (u * z).a % 3 == 2 and (u * z).b % 3 == 0]
            assert len(primaries) == 1
            assert primary_associate(z) == primaries[0]
    # N(z) = (a + b)^2 (mod 3), so 41^2 + 2 * 40^2 of the 121^2 pairs drop out
    assert count == 121 * 121 - 41 * 41 - 2 * 40 * 40


def congruent_to(z: EisensteinInt, other: EisensteinInt, modulus: EisensteinInt) -> bool:
    """z = other (mod modulus), decided by exact division."""
    return divides(modulus, z - other)


def one_mod_three_associate(z: EisensteinInt) -> EisensteinInt:
    """The unique associate congruent to 1 (mod 3); the negative of the
    primary one.  Converts between the two usual normalisations."""
    return -primary_associate(z)


def is_one_mod_lambda_cubed(z: EisensteinInt) -> bool:
    """z = 1 (mod lam^3); decided by exact division.

    For the associate of a split prime that is 1 (mod 3) this holds exactly
    when the underlying rational prime is 1 (mod 9), and for a rational
    integer m exactly when m = 1 (mod 9).
    """
    return congruent_to(z, ONE, LAMBDA * LAMBDA * LAMBDA)


def test_one_mod_three_associate_and_lambda_cubed():
    # for split p the 1-mod-3 associate is 1 mod lam^3 exactly when p = 1 (mod 9)
    for p in [q for q in primes_below(1000) if q % 3 == 1]:
        pi = factor_rational_prime(p).factors[0]
        z = one_mod_three_associate(pi)
        assert congruent_to(z, ONE, EisensteinInt(3))
        assert is_one_mod_lambda_cubed(z) == (p % 9 == 1)
    # rational integers: mod lam^3 is mod 9
    for m in range(-30, 30):
        assert is_one_mod_lambda_cubed(EisensteinInt(m)) == (m % 9 == 1)


# --------------------------------------------------------------- characters


def test_character_zero_on_multiples():
    pi = EisensteinInt(3, 1)
    for x in (EisensteinInt(1, 1), EisensteinInt(-4, 7), EisensteinInt(2)):
        assert cubic_character(pi * x, pi) is CubicCharacterValue.ZERO


def test_character_of_one():
    assert cubic_character(ONE, EisensteinInt(3, 1)) is CubicCharacterValue.ONE
    assert cubic_character(ONE, EisensteinInt(2)) is CubicCharacterValue.ONE


def test_character_frozen_values_and_multiplicativity():
    pi = EisensteinInt(3, 1)
    alpha, beta = EisensteinInt(2), EisensteinInt(1, 3)
    va = cubic_character(alpha, pi)
    vb = cubic_character(beta, pi)
    vab = cubic_character(alpha * beta, pi)
    # frozen from the direct evaluation oracle
    assert va is CubicCharacterValue.OMEGA
    assert vb is CubicCharacterValue.ONE
    assert vab is CubicCharacterValue.OMEGA
    assert character_product(va, vb) is vab


def test_character_multiplicative_random():
    rng = random.Random(2)
    pi = factor_rational_prime(13).factors[0]
    for _ in range(200):
        x = EisensteinInt(rng.randint(-40, 40), rng.randint(-40, 40))
        y = EisensteinInt(rng.randint(-40, 40), rng.randint(-40, 40))
        product = character_product(cubic_character(x, pi), cubic_character(y, pi))
        assert product is cubic_character(x * y, pi)


def test_character_well_defined_modulo_pi():
    rng = random.Random(3)
    pi = factor_rational_prime(31).factors[0]
    alpha = EisensteinInt(5, 2)
    base = cubic_character(alpha, pi)
    for _ in range(200):
        gamma = EisensteinInt(rng.randint(-100, 100), rng.randint(-100, 100))
        assert cubic_character(alpha + pi * gamma, pi) is base


@settings(max_examples=300)
@given(
    st.sampled_from(PRIME_MODULI),
    st.sampled_from(UNITS),
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
    st.booleans(),
)
def test_character_matches_zw_power_oracle(prime, unit, a, b, multiple):
    pi = unit * prime  # unit multiples of split primes and of inert q
    alpha = EisensteinInt(a, b)
    if multiple:
        alpha = alpha * pi
    assert cubic_character(alpha, pi) is oracle_cubic_character(alpha, pi)


def test_character_matches_zw_power_oracle_at_every_residue():
    # (pi, n) with every residue class mod pi among a + b*w, 0 <= a, b < n
    for pi, n in ((EisensteinInt(5), 5), (-OMEGA * EisensteinInt(11), 11), (EisensteinInt(2, 3), 7)):
        for a in range(n):
            for b in range(n):
                alpha = EisensteinInt(a, b)
                assert cubic_character(alpha, pi) is oracle_cubic_character(alpha, pi)


def test_character_rejects_bad_moduli():
    with pytest.raises(ValueError):
        cubic_character(ONE, LAMBDA)  # norm 3
    with pytest.raises(ValueError):
        cubic_character(ONE, EisensteinInt(4))  # composite
    with pytest.raises(ValueError):
        cubic_character(ONE, EisensteinInt(7))  # 7 splits, not prime here
    for u in UNITS:  # norm 1: no prime, and no residue field
        with pytest.raises(ValueError, match=r"is not a prime of Z\[w\]"):
            cubic_character(OMEGA, u)
    # str() of 10^5000 raises CPython's int-limit error; 4 * 3^5000 has 2 387 digits
    for pi in (EisensteinInt(10**5000, 0), EisensteinInt(4 * 3**5000, 0)):
        with pytest.raises(ValueError, match=r"is not a prime of Z\[w\]") as info:
            cubic_character(ONE, pi)
        assert len(str(info.value)) < 200 and "digits" not in str(info.value)


def test_split_character_raises_off_the_cube_roots_of_unity():
    # 3 is no cube root of unity mod 7 (3^3 = 6), and 2^((7 - 1)/3) = 4 is
    # none of 1, 3 and 3^2 = 2: a broken residue field raises, under -O too
    with pytest.raises(ArithmeticError, match=r"^2\^\(\(7 - 1\)/3\) mod 7 is not a cube root"):
        eisenstein._split_character(2, 7, 3)


def test_inert_character_raises_off_the_cube_roots_of_unity():
    # 7 splits, so F_7[w] is no field: 2^((7^2 - 1)/3) = 2^16 = 2 (mod 7)
    # is none of 1, w and w^2
    with pytest.raises(ArithmeticError, match=r"^\(2\)\^\(\(7\^2 - 1\)/3\) mod 7 is not a cube"):
        eisenstein._inert_character(EisensteinInt(2), 7)


# ---------------------------------------------------------- rational symbol


def test_omega_is_a_cube_exactly_at_norms_one_mod_nine():
    # (w/pi)_3 = w^((N pi - 1)/3), which is 1 exactly when N pi = 1 (mod 9)
    count = 0
    for p in range(5, 20_000):
        if factorize(p) != {p: 1}:
            continue
        for pi in factor_rational_prime(p).factors:
            is_one = cubic_character(OMEGA, pi) is CubicCharacterValue.ONE
            assert is_one == (pi.norm() % 9 == 1), (p, pi)
            count += 1
    assert count == 3384


def test_symbol_paper_residue_facts():
    for p in (61, 67, 103, 151):
        assert rational_cubic_symbol(3, p) is CubicCharacterValue.ONE


def test_symbol_of_one_is_one():
    for p in (7, 13, 61, 199):
        assert rational_cubic_symbol(1, p) is CubicCharacterValue.ONE


def test_symbol_three_mod_199_is_not_one():
    # 3^66 = 106 (mod 199)
    assert rational_cubic_symbol(3, 199) is not CubicCharacterValue.ONE


def test_symbol_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rational_cubic_symbol(3, 5)  # p = 2 (mod 3): everything is a cube
    with pytest.raises(ValueError):
        rational_cubic_symbol(3, 9)  # not prime
    with pytest.raises(ValueError):
        rational_cubic_symbol(14, 7)  # p | a


def test_symbol_proves_p_prime_once(monkeypatch):
    # the public symbol proves p itself and then takes that proof to the
    # prime above p, so an empty factor_rational_prime cache adds no second one
    calls: list[int] = []
    real_mr, real_is_prime = _intmath._miller_rabin, eisenstein._is_rational_prime
    monkeypatch.setattr(_intmath, "_miller_rabin", lambda n: calls.append(n) or real_mr(n))
    factor_rational_prime.cache_clear()
    assert rational_cubic_symbol(3, 1048633) is CubicCharacterValue.OMEGA_SQUARED
    assert calls == [1048633]
    del calls[:]
    monkeypatch.setattr(eisenstein, "_is_rational_prime", lambda n: calls.append(n) or real_is_prime(n))
    factor_rational_prime.cache_clear()
    assert rational_cubic_symbol(3, 1009) is CubicCharacterValue.ONE
    assert calls == [1009]


@pytest.mark.parametrize("p", [1009 * 1021, 1021 * 1033])  # below and above 2^20
def test_a_composite_p_is_still_refused(p):
    assert p % 3 == 1
    with pytest.raises(ValueError, match="need a rational prime"):
        rational_cubic_symbol(3, p)
    with pytest.raises(ValueError, match="is not a rational prime"):
        factor_rational_prime(p)


def test_symbol_matches_brute_force_small():
    for p in [q for q in primes_below(300) if q % 3 == 1]:
        for a in (2, 3, 5, 7):
            if a % p == 0:
                continue
            expected = oracle_is_cubic_residue(a, p)
            got = rational_cubic_symbol(a, p) is CubicCharacterValue.ONE
            assert got == expected, (a, p)


def test_symbol_agrees_with_character_at_prime_above_p():
    for p in [q for q in primes_below(200) if q % 3 == 1]:
        pi = factor_rational_prime(p).factors[0]
        for a in (2, 3, 5, 7, 10):
            if a % p == 0:
                continue
            assert rational_cubic_symbol(a, p) is cubic_character(EisensteinInt(a), pi)


def test_symbol_of_three_follows_the_supplementary_laws():
    # p crosses 300^2, so is_prime proves it by the primes below 300 and by
    # one gcd with the primes between 300 and 2^10
    primes = [p for p in primes_below(200_000) if p % 3 == 1]
    assert len(primes) == 8988 and primes[0] < 90_000 < primes[-1]
    for p in primes:
        assert rational_cubic_symbol(3, p) is cubic_symbol_of_three(p), p


# ------------------------------------------------------------- reciprocity


def primary_primes_with_norm_below(bound: int) -> list[EisensteinInt]:
    out = []
    for p in primes_below(bound):
        if p % 3 == 1:
            out.extend(factor_rational_prime(p).factors)
        elif p % 3 == 2 and p * p < bound:
            out.append(EisensteinInt(p))
    return out


def test_cubic_reciprocity_small():
    prims = primary_primes_with_norm_below(300)
    for i, x in enumerate(prims):
        for y in prims[i + 1 :]:
            if x.norm() == y.norm() and is_associate(x, y.conjugate()):
                continue  # conjugate pair shares its norm
            if x.norm() % y.norm() == 0 or y.norm() % x.norm() == 0:
                continue
            assert cubic_character(x, y) is cubic_character(y, x), (x, y)


# ------------------------------------------------------------ factorization


def test_factor_twenty_one():
    f = factor(EisensteinInt(21))
    assert recomposed(f) == EisensteinInt(21)
    by_norm = sorted(prime.norm() for prime, _ in f.factors)
    assert by_norm == [3, 7, 7]
    lam_exp = {prime: e for prime, e in f.factors}[LAMBDA]
    assert lam_exp == 2
    assert f.unit.is_unit


def test_factor_of_a_unit():
    f = factor(OMEGA)
    assert f.factors == ()
    assert f.unit == OMEGA


def test_factor_lambda_cubed():
    lam3 = LAMBDA * LAMBDA * LAMBDA
    f = factor(lam3)
    assert f.factors == ((LAMBDA, 3),)
    assert f.unit * lam3 == lam3
    assert recomposed(f) == lam3


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(ZERO)


def test_factor_round_trip_random():
    rng = random.Random(4)
    done = 0
    while done < 150:
        z = EisensteinInt(rng.randint(-400, 400), rng.randint(-400, 400))
        if z.is_zero:
            continue
        done += 1
        f = factor(z)
        assert recomposed(f) == z
        for prime, exp in f.factors:
            assert exp >= 1
            assert is_eisenstein_prime_by_trial_division(prime)
            if prime.norm() % 3 != 0:
                assert prime.a % 3 == 2 and prime.b % 3 == 0  # primary
            else:
                assert prime == LAMBDA


@settings(max_examples=300)
@given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
def test_factor_matches_divides_oracle(a, b):
    z = EisensteinInt(a, b)
    if z.is_zero:
        return
    assert factor(z) == factor_by_divmod(z)


def test_factor_matches_divides_oracle_on_prime_powers():
    for base in (LAMBDA, EisensteinInt(2), EisensteinInt(2, 3), EisensteinInt(-1, -3)):
        for k in range(1, 6):
            for unit in UNITS:
                z = unit * power(base, k) * EisensteinInt(5, 1)
                assert factor(z) == factor_by_divmod(z)


def test_factor_rejects_a_wrong_splitting(monkeypatch):
    real = eisenstein.factor_rational_prime
    pi = real(7).factors[0]
    wrong = PrimeSplitting(7, SplitKind.SPLIT, (pi, pi))  # conj(pi) never divided out
    monkeypatch.setattr(
        eisenstein, "factor_rational_prime", lambda p: wrong if p == 7 else real(p)
    )
    with pytest.raises(ArithmeticError, match="norm exponent mismatch"):
        factor(EisensteinInt(21))


def factor_oracle_inputs() -> list[EisensteinInt]:
    """The box |a|, |b| <= 40, random z of norm up to 1e8, products of small
    prime powers, and random z of norm near 1e14."""
    box = [EisensteinInt(a, b) for a in range(-40, 41) for b in range(-40, 41)]
    rng = random.Random(20)
    medium: list[EisensteinInt] = []
    while len(medium) < 2000:
        z = EisensteinInt(rng.randint(-11547, 11547), rng.randint(-11547, 11547))
        if 0 < z.norm() <= 10**8:
            medium.append(z)
    products = []
    for q in (2, 5, 11):
        for p in (7, 13):
            pi, pi_bar = factor_rational_prime(p).factors
            for i, j, k, l in itertools.product(range(4), repeat=4):
                base = power(LAMBDA, i) * power(EisensteinInt(q), j) * power(pi, k) * power(pi_bar, l)
                products += [unit * base for unit in UNITS]
    large = []
    while len(large) < 20:
        z = EisensteinInt(rng.randint(-(10**7), 10**7), rng.randint(-(10**7), 10**7))
        if 10**14 // 2 <= z.norm() <= 2 * 10**14:
            large.append(z)
    return [z for z in box + medium + products + large if not z.is_zero]


def test_factor_matches_the_divmod_oracle():
    inputs = factor_oracle_inputs()
    assert len(inputs) == 81 * 81 - 1 + 2000 + 3 * 2 * 4**4 * 6 + 20
    for z in inputs:
        assert factor(z) == factor_by_divmod(z), z


def test_factor_raises_when_a_prime_does_not_divide_exactly(monkeypatch):
    # 2*pi has the residue field of pi, so the residue test passes at 7, but
    # 7 / (2*pi) = conj(pi)/2 is not in Z[w]; a raise, so it also runs under -O
    real = eisenstein.factor_rational_prime
    pi, pi_bar = real(7).factors
    wrong = PrimeSplitting(7, SplitKind.SPLIT, (2 * pi, pi_bar))
    monkeypatch.setattr(
        eisenstein, "factor_rational_prime", lambda p: wrong if p == 7 else real(p)
    )
    with pytest.raises(ArithmeticError, match=r"4\+6w does not divide 7 exactly"):
        factor(EisensteinInt(7))


def test_gcd_divides_both():
    rng = random.Random(5)
    for _ in range(100):
        x = EisensteinInt(rng.randint(-200, 200), rng.randint(-200, 200))
        y = EisensteinInt(rng.randint(-200, 200), rng.randint(-200, 200))
        if x.is_zero and y.is_zero:
            continue
        g = gcd(x, y) if not y.is_zero else x
        if g.is_zero:
            continue
        assert divides(g, x) and divides(g, y)
