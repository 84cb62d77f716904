"""The integer kernel: deterministic primality, factorization and the 3-part of n.

is_prime decides n < 300^2 by the primes below 300 and switches to
Miller-Rabin there, picking its bases by size.  So it is checked against
plain trial division across each switch point and on the strong
pseudoprimes that bound each tier, and against sympy as an independent
second oracle on large inputs.  factorize trial-divides only by the primes
below 300 and hands the cofactor to Miller-Rabin and Pollard-Brent rho.  So
it is checked against full trial division, and against sympy on the inputs
that rho finds hardest.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubic93._intmath import factorize, is_prime, three_part
from oracles import factorize_by_trial_division, is_prime_by_trial_division

#: is_prime and factorize are proven below this bound, the least strong
#: pseudoprime to the first 13 prime bases
MR_LIMIT = 3317044064679887385961981


#: least strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 8 and 11 prime bases
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
)
#: least strong pseudoprime to the first 12 prime bases, 2..37
PSI_12 = 318665857834031151167461

SMALL_CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
                    41041, 46657, 52633, 62745, 63973, 75361, 101101, 115921)


def chernick_carmichael(count: int) -> list[int]:
    """(6k+1)(12k+1)(18k+1) with all three factors prime is a Carmichael number."""
    out, k = [], 1
    while len(out) < count:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(is_prime_by_trial_division(f) for f in factors):
            out.append(factors[0] * factors[1] * factors[2])
        k += 1
    return out


def test_matches_trial_division_up_to_2e5():
    for n in range(-5, 200_001):
        assert is_prime(n) == is_prime_by_trial_division(n), n


@pytest.mark.parametrize("switch", [50_000, 90_000, 1_000_000, 1373653, 25326001, 3215031751])
def test_matches_trial_division_around_switch_points(switch):
    for n in range(switch - 1500, switch + 1500):
        assert is_prime(n) == is_prime_by_trial_division(n), n


def test_strong_pseudoprimes_are_composite():
    for n in STRONG_PSEUDOPRIMES + (PSI_12,):
        assert not is_prime(n), n
    for n in STRONG_PSEUDOPRIMES[:4]:
        assert not is_prime_by_trial_division(n)


def test_carmichael_numbers_are_composite():
    large = chernick_carmichael(12)
    assert max(large) > 3215031751  # reaches the five-base tier
    for n in SMALL_CARMICHAEL + tuple(large):
        assert not is_prime(n), n


def test_above_the_miller_rabin_range_stays_exact():
    big = 3317044064679887385961981  # least strong pseudoprime to 2..41
    assert not is_prime(big + 1)  # even
    assert not is_prime(3 * (big // 3 + 1))
    assert not is_prime(7 * 11 * 13 * (big // 1000 + 1))


def test_matches_sympy_on_large_inputs():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    cases = list(STRONG_PSEUDOPRIMES) + [PSI_12] + chernick_carmichael(12)
    for digits in range(5, 25):
        lo, hi = 10 ** (digits - 1), 10**digits
        for _ in range(20):
            cases.append(rng.randrange(lo, hi) | 1)
        for _ in range(5):
            p = int(sympy.nextprime(rng.randrange(lo, hi)))
            cases += [p, p + 2]
        half = 10 ** (digits // 2)
        for _ in range(5):  # semiprimes with two factors of similar size
            cases.append(int(sympy.nextprime(rng.randrange(half, 3 * half)))
                         * int(sympy.nextprime(rng.randrange(half, 3 * half))))
    for n in cases:
        if n < 3317044064679887385961981:
            assert is_prime(n) == sympy.isprime(n), n


def test_factorize_matches_trial_division_up_to_2e5():
    for n in range(1, 200_001):
        fac = factorize(n)
        assert fac == factorize_by_trial_division(n), n
        assert list(fac) == sorted(fac), n


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**12 - 1))
def test_factorize_matches_trial_division_below_1e12(n):
    assert factorize(n) == factorize_by_trial_division(n)


def test_factorize_rejects_non_positive():
    for bad in (0, -1, -12):
        with pytest.raises(ValueError):
            factorize(bad)


def test_factorize_matches_sympy_on_hard_inputs():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    cases = []
    for _ in range(3):  # two primes near 1e11: rho's longest searches here
        cases.append(int(sympy.nextprime(rng.randrange(10**11, 2 * 10**11)))
                     * int(sympy.nextprime(rng.randrange(10**11, 2 * 10**11))))
    for p in (307, 311, 65537, 1000003):  # squares and cubes of primes above 300
        cases += [p**2, p**3, 2 * p**2, p**2 * 1000033]
    cases += [999999999989**2, 2 * 999999999989**2]
    cases += chernick_carmichael(12)
    for small in (2, 3, 293):  # a trial-division prime times a prime near 1e15
        cases.append(small * int(sympy.nextprime(10**15 + rng.randrange(10**9))))
    cases += [10**20 + 39, 2**81 - 1, MR_LIMIT - 1]
    for n in cases:
        assert factorize(n) == sympy.factorint(n), n


def test_above_the_miller_rabin_range_fails_fast():
    prime = 10**30 + 57
    with pytest.raises(ValueError, match=r"3\.3e24"):
        is_prime(prime)
    for n in (prime, 2 * prime, 7**3 * prime, MR_LIMIT):
        with pytest.raises(ValueError, match=r"3\.3e24"):
            factorize(n)
    # a prime factor below 300 still decides, and a cofactor below the
    # bound still factors
    assert not is_prime(293 * prime)
    assert factorize(2**90 * 3) == {2: 90, 3: 1}
    q = 10**22 + 9  # prime
    assert factorize(7 * 11 * 13 * q) == {7: 1, 11: 1, 13: 1, q: 1}


def test_three_part():
    for n in range(1, 2000):
        g = three_part(n)
        assert n % g == 0 and (n // g) % 3 != 0
        assert g == 3 ** sum(1 for k in range(1, 8) if n % 3**k == 0)
    for bad in (0, -1, -9):
        with pytest.raises(ValueError):
            three_part(bad)
