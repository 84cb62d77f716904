"""Small deterministic integer helpers shared across the package.

Primality and factorization share one table, the primes below 300.  One
gcd with their product decides primality below 300^2; above it primality
is deterministic Miller-Rabin: with the first k prime bases the
strong-probable-prime test is exact below the least strong pseudoprime to
all of them (Jaeschke; Sorenson and Webster), the first 13 reaching
3.3e24.  Factorization trial-divides by the table only; the cofactor left
is proven prime by the same Miller-Rabin test or split by Pollard rho with
Brent's cycle search.  At or above 3.3e24 nothing but a prime factor below
300 can be found, so there is_prime and factorize raise ValueError naming
that bound instead of searching on.  Every n < 3.3e24 is factored exactly;
the worst case, two primes near 1.8e12, takes seconds.  The tool targets
desk-scale inputs (radicands up to ~1e8, Eisenstein norms up to ~1e14) and
needs no dependencies.
"""

from __future__ import annotations

from math import gcd, isqrt, prod

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
#: is_prime is proven below this bound and nowhere above it
_MR_LIMIT = _MR_TIERS[-1][0]
#: factorize trial-divides by the primes below this bound only, which
#: factors every n below 300^2 = 90 000 without Miller-Rabin or rho.  On
#: classify, between 180 and 1000 a larger bound made factorize faster for
#: d up to 1e8 and slower for d <= 30 000, by at most about 2 us per call
#: either way (CPython 3.11, 2-vCPU Xeon); 300 splits the difference.  scan
#: factors nothing (a block sieve gives its forms), so it does not enter here
_TRIAL_BOUND = 300
_SMALL_PRIMES = tuple(
    p for p in range(2, _TRIAL_BOUND) if all(p % f for f in range(2, isqrt(p) + 1))
)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_PRIMORIAL = prod(_SMALL_PRIMES)
#: Pollard-Brent rho steps per gcd
_RHO_BLOCK = 128


def is_prime(n: int) -> bool:
    """Deterministic primality: the primes below 300 decide n < 300^2, and
    Miller-Rabin with enough prime bases for an exact answer decides n up
    to 3.3e24.

    At or above 3.3e24 only a prime factor below 300 decides (composite);
    without one this raises ValueError instead of searching on.
    """
    if n < _TRIAL_BOUND:
        return n in _SMALL_PRIME_SET
    if gcd(n, _PRIMORIAL) > 1:
        return False
    if n < _TRIAL_BOUND * _TRIAL_BOUND:
        return True
    if n >= _MR_LIMIT:
        raise ValueError(
            f"cannot decide whether {n} is prime: it has no prime factor below"
            f" {_TRIAL_BOUND}, and primality is proven only below 3.3e24"
        )
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Primality of n < 3.3e24 with no prime factor below 300: the strong
    probable-prime test to as many of _MR_BASES as _MR_TIERS asks for."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    k = next(k for bound, k in _MR_TIERS if n < bound)
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    Trial division by the primes below 300 leaves a cofactor with no prime
    factor below 300, so it, and every piece split off it, is prime when
    below 300^2.  A larger piece is proven prime by Miller-Rabin or split,
    as a square or by _brent_rho.  Raises ValueError when the cofactor is
    at or above 3.3e24, where no primality proof is available.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}; need a positive integer")
    whole = n
    out: dict[int, int] = {}
    g = gcd(n, _PRIMORIAL)  # the product of the primes below 300 dividing n
    if g > 1:
        for p in _SMALL_PRIMES:
            if g % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out[p] = e
                g //= p
                if g == 1:
                    break
    if n >= _MR_LIMIT:
        rest = "it has" if n == whole else f"its cofactor {n} has"
        raise ValueError(
            f"cannot factor {whole}: {rest} no prime factor below"
            f" {_TRIAL_BOUND}, and primality is proven only below 3.3e24"
        )
    stack = [n] if n > 1 else []
    large: list[int] = []
    while stack:
        m = stack.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or _miller_rabin(m):
            large.append(m)
        elif (r := isqrt(m)) * r == m:  # rho would need ~sqrt(r) steps
            stack += (r, r)
        else:
            f = _brent_rho(m)
            stack += (f, m // f)
    for m in sorted(large):  # keep the keys ascending
        out[m] = out.get(m, 0) + 1
    return out


def _brent_rho(n: int) -> int:
    """A proper factor of an odd composite n.

    Pollard rho on x -> x^2 + c with Brent's cycle search, taking one gcd per
    128 steps and retracing the last block when that gcd jumps to n (Brent,
    BIT 20, 1980).  A c that still finds only n is replaced by c + 1.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BLOCK, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BLOCK
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def three_part(n: int) -> int:
    """The largest power of 3 dividing n >= 1."""
    if n < 1:
        raise ValueError(f"cannot take the 3-part of {n}; need a positive integer")
    g = 1
    while n % 3 == 0:
        g *= 3
        n //= 3
    return g
