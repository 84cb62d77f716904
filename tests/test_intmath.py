"""The integer kernel: deterministic primality, factorization and the 3-part of n.

is_prime decides n < 300^2 by the primes below 300, n < 2^20 by one gcd
with the primes between 300 and 2^10, and larger n by Miller-Rabin, picking
its bases by size.  So it is checked against a plain sieve up past 2^20,
against plain trial division across each switch point and on the strong
pseudoprimes that bound each tier, and against sympy as an independent
second oracle on large inputs.  factorize trial-divides only by the primes
below 300 and hands the cofactor to the gcd tiers and Miller-Rabin; it
splits a composite piece below 1e8 by a gcd descent over a product tree of
the primes below 1e4, and a larger one by Pollard-Brent rho.  So it is checked
against full trial division, on cofactors on both sides of 2^20, below 1e8
with rho made to fail if it is called, and against sympy on the inputs
that rho finds hardest.
"""

from __future__ import annotations

import random
import signal
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubic93 import _intmath, cli
from cubic93._intmath import _PRIMORIAL, factorize, is_prime, three_part
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


def test_matches_a_plain_sieve_across_the_table():
    # an Eratosthenes sieve over all n, written independently of the
    # library's gcd tiers
    limit = 2**20 + 2_000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, limit, p))
    assert [n for n in range(-5, 2) if is_prime(n)] == []
    for n in range(limit):
        assert is_prime(n) == sieve[n], n
    # the last n below 300^2 and the first above it, the last prime below
    # 2^20, 2^20 itself and the first prime above it
    assert [is_prime(n) for n in (89_999, 90_001, 1_048_573, 2**20, 1_048_583)] == [
        False, True, True, False, True]


def test_factorize_matches_trial_division_on_cofactors_near_2_20():
    # every cofactor with no prime factor below 300 within 3 000 of 2^20,
    # alone and times small primes: primes and composites that the gcd
    # tier decides below 2^20, and Miller-Rabin primes above it
    cofactors = [c for c in range(2**20 - 3_000, 2**20 + 3_000) if gcd(c, _PRIMORIAL) == 1]
    below = [c for c in cofactors if c < 2**20]
    assert any(is_prime(c) for c in below) and not all(is_prime(c) for c in below)
    assert any(is_prime(c) for c in cofactors if c > 2**20)
    for c in cofactors + [1021**2, 1031**2, 307 * 3413, 1009 * 1039]:
        for n in (c, 6 * c, 293 * c):
            assert factorize(n) == factorize_by_trial_division(n), n


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
    fac = factorize(n)
    assert fac == factorize_by_trial_division(n)
    assert list(fac) == sorted(fac)  # eisenstein.factor relies on this order


#: composites below 1e8 with every prime factor above 300: p*q with both
#: primes below 1e4, p*q with one on each side of it, p^2, p^2*q, p*q*r with
#: all three in (300, 465), the two largest tree primes, and 9973 * 10007
TREE_SPLITS = (
    307 * 311, 3467 * 8971, 9941 * 9949, 9967 * 9973,
    307 * 325_709, 1009 * 99_083, 9973 * 10_007,
    307**2, 9973**2, 307**2 * 311,
    307 * 311 * 313, 457 * 461 * 463, 307 * 311 * 463,
)


def test_composites_below_1e8_split_without_rho(monkeypatch):
    # below 1e8 a composite with no prime factor below 300 has one below
    # 1e4, so the descent over the product tree finds it and rho never runs
    def no_rho(n: int) -> int:
        pytest.fail(f"_brent_rho({n}) was called below 1e8")

    monkeypatch.setattr(_intmath, "_brent_rho", no_rho)
    rng = random.Random(5)
    sampled = []
    while len(sampled) < 200:  # random composites in [300^2, 1e8) with no factor below 300
        n = rng.randrange(90_000, 10**8)
        if gcd(n, _PRIMORIAL) == 1 and not is_prime_by_trial_division(n):
            sampled.append(n)
    assert max(TREE_SPLITS) < 10**8 and 9973 * 10_007 == 99_799_811
    for c in TREE_SPLITS + tuple(sampled):
        assert gcd(c, _PRIMORIAL) == 1, c
        for n in (c, 2 * 293 * c):
            fac = factorize(n)
            assert fac == factorize_by_trial_division(n) and list(fac) == sorted(fac), n
    sympy = pytest.importorskip("sympy")
    for c in TREE_SPLITS:
        assert factorize(c) == sympy.factorint(c), c


def test_composites_from_1e8_up_still_reach_rho(monkeypatch):
    calls = []
    rho = _intmath._brent_rho
    monkeypatch.setattr(_intmath, "_brent_rho", lambda n: calls.append(n) or rho(n))
    assert factorize(10_007 * 10_009) == {10_007: 1, 10_009: 1}  # 100 160 063
    assert factorize(307 * 325_747) == {307: 1, 325_747: 1}  # 100 004 329
    assert calls == [100_160_063, 100_004_329]
    assert factorize(9973 * 10_007) == {9973: 1, 10_007: 1} and len(calls) == 2


def test_prime_tree_is_built_once_from_the_primes_between_300_and_1e4(monkeypatch):
    # level 0 holds the primes in order, padded with 1s to 2^11; each level
    # above holds the products of pairs, up to the two children of the root
    monkeypatch.setattr(_intmath, "_PRIME_TREE", [])
    assert factorize(307 * 311) == {307: 1, 311: 1}
    tree = _intmath._PRIME_TREE
    primes = [p for p in range(300, 10_000) if is_prime_by_trial_division(p)]
    assert len(primes) == 1167 and tree[0] == primes + [1] * (2048 - 1167)
    assert [len(level) for level in tree] == [2**k for k in range(11, 0, -1)]
    for below, above in zip(tree, tree[1:]):
        assert above == [below[2 * j] * below[2 * j + 1] for j in range(len(above))]
    factorize(311 * 313)
    assert _intmath._PRIME_TREE is tree


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
    # a number of more than 39 digits is named by its size, in a short line
    with pytest.raises(ValueError, match=r"^cannot decide whether a 9966-bit integer is prime") as refused:
        is_prime(prime**100)
    assert len(str(refused.value)) < 130
    with pytest.raises(ValueError, match=r"^cannot factor a 9967-bit integer: its cofactor a 9966-bit"):
        factorize(2 * prime**100)
    for n in (prime, 2 * prime, 7**3 * prime, MR_LIMIT):
        with pytest.raises(ValueError, match=r"3\.3e24"):
            factorize(n)
    # a prime factor below 300 still decides, and a cofactor below the
    # bound still factors
    assert not is_prime(293 * prime)
    assert factorize(2**90 * 3) == {2: 90, 3: 1}
    q = 10**22 + 9  # prime
    assert factorize(7 * 11 * 13 * q) == {7: 1, 11: 1, 13: 1, q: 1}


def test_rho_raises_on_a_prime_read_as_composite(monkeypatch, capsys):
    # a wrong primality answer hands rho a prime, which no c splits; rho
    # gives up after _RHO_TRIES values of c and raises, which the CLI maps to
    # exit 2, instead of searching forever
    proven = _intmath._proven_prime
    monkeypatch.setattr(_intmath, "_proven_prime", lambda n: n != 1_000_003 and proven(n))

    def give_up(signum, frame):
        raise TimeoutError("still searching after 10 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    try:
        with pytest.raises(ArithmeticError, match="no factor of 1000003 in 20 tries"):
            factorize(1_000_003)
        assert cli.main(["classify", "1000003"]) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: Pollard rho found no factor of 1000003 in 20 tries; is it prime?"
    ]


def test_three_part():
    for n in range(1, 2000):
        g = three_part(n)
        assert n % g == 0 and (n // g) % 3 != 0
        assert g == 3 ** sum(1 for k in range(1, 8) if n % 3**k == 0)
    for bad in (0, -1, -9):
        with pytest.raises(ValueError):
            three_part(bad)
