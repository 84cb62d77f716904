"""The integer kernel: deterministic primality and the 3-part of n.

is_prime switches from trial division to Miller-Rabin at 50 000 and picks
its bases by size, so it is checked against plain trial division across
each switch point and on the strong pseudoprimes that bound each tier, and
against sympy as an independent second oracle on large inputs.
"""

from __future__ import annotations

import random
from math import isqrt

import pytest

from cubic93._intmath import is_prime, three_part


def oracle_is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


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
        if all(oracle_is_prime(f) for f in factors):
            out.append(factors[0] * factors[1] * factors[2])
        k += 1
    return out


def test_matches_trial_division_up_to_2e5():
    for n in range(-5, 200_001):
        assert is_prime(n) == oracle_is_prime(n), n


@pytest.mark.parametrize("switch", [50_000, 1_000_000, 1373653, 25326001, 3215031751])
def test_matches_trial_division_around_switch_points(switch):
    for n in range(switch - 1500, switch + 1500):
        assert is_prime(n) == oracle_is_prime(n), n


def test_strong_pseudoprimes_are_composite():
    for n in STRONG_PSEUDOPRIMES + (PSI_12,):
        assert not is_prime(n), n
    for n in STRONG_PSEUDOPRIMES[:4]:
        assert not oracle_is_prime(n)


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


def test_three_part():
    for n in range(1, 2000):
        g = three_part(n)
        assert n % g == 0 and (n // g) % 3 != 0
        assert g == 3 ** sum(1 for k in range(1, 8) if n % 3**k == 0)
    for bad in (0, -1, -9):
        with pytest.raises(ValueError):
            three_part(bad)
