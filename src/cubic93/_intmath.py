"""Small deterministic integer helpers shared across the package.

Primality is trial division for small n, where it is the faster test, and
deterministic Miller-Rabin above that: with the first k prime bases the
strong-probable-prime test is exact below the least strong pseudoprime to
all of them (Jaeschke; Sorenson and Webster), the first 13 reaching
3.3e24.  Beyond that bound the test falls back to trial division, which is
slow but keeps every answer exact.  Factorization is trial division.  The
tool targets desk-scale inputs (radicands up to ~1e8, Eisenstein norms up
to ~1e14), and everything stays exact and dependency-free.
"""

from __future__ import annotations

#: below this, trial division beats Miller-Rabin (the crossover measured
#: 3e4-5e4 with CPython 3.11 on a 2-vCPU Intel Xeon virtual machine)
_TRIAL_DIVISION_LIMIT = 50_000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: (bound, k): the first k prime bases decide every n < bound exactly; the
#: bounds are the least strong pseudoprimes to those bases
_MR_TIERS = (
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)


def is_prime(n: int) -> bool:
    """Deterministic primality: trial division below 50 000 and above
    3.3e24, Miller-Rabin with enough prime bases for an exact answer in
    between."""
    if n < _TRIAL_DIVISION_LIMIT or n >= _MR_TIERS[-1][0]:
        return _is_prime_by_trial_division(n)
    for p in _MR_BASES:
        if n % p == 0:
            return False
    k = next(k for bound, k in _MR_TIERS if n < bound)
    return all(_is_strong_probable_prime(n, a) for a in _MR_BASES[:k])


def _is_strong_probable_prime(n: int, a: int) -> bool:
    """The Miller-Rabin test of odd n > a to base a."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_prime_by_trial_division(n: int) -> bool:
    """Primality by trial division (2, 3, then 6k +- 1)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factor {n}; need a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def three_part(n: int) -> int:
    """The largest power of 3 dividing n >= 1."""
    if n < 1:
        raise ValueError(f"cannot take the 3-part of {n}; need a positive integer")
    g = 1
    while n % 3 == 0:
        g *= 3
        n //= 3
    return g
