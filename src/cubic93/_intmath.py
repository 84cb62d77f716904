"""Small deterministic integer helpers shared across the package.

Primality has three tiers.  One gcd with the product of the primes below
300 decides n < 300^2.  A second gcd, with the product of the 110 primes
between 300 and 2^10, decides n < 2^20, since a composite n < 2^20 has a
prime factor below 2^10.  Deterministic Miller-Rabin decides
n < 3.3e24: the first k prime bases make the strong-probable-prime test
exact below the least strong pseudoprime to all of them (Jaeschke;
Sorenson and Webster).  Factorization trial-divides by the primes below
300, then proves each piece of the cofactor prime or splits it: below 1e8
by a gcd descent over a product tree of the primes below 1e4 (Bernstein
2004; built on first use), above by Pollard-Brent rho.  At or above 3.3e24
nothing but a prime factor below 300 can be found, so there is_prime and
factorize raise ValueError naming that bound.  Every n < 3.3e24 is
factored exactly; two primes near 1.8e12 take seconds.  The tool targets
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
#: factorize trial-divides by the primes below this bound only, so a piece
#: of the cofactor below 300^2 is prime, and a composite one below 1e8 has
#: a prime factor in _PRIME_TREE
_TRIAL_BOUND = 300
_SMALL_PRIMES = tuple(
    p for p in range(2, _TRIAL_BOUND) if all(p % f for f in range(2, isqrt(p) + 1))
)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_PRIMORIAL = prod(_SMALL_PRIMES)
#: 300^2 <= n < 2^20 with no prime factor below 300 is prime iff it has none
#: below 2^10 either, that is, iff gcd(n, _GCD_PRODUCT) == 1
_GCD_LIMIT = 1 << 20
_GCD_PRODUCT = prod(p for p in range(_TRIAL_BOUND + 1, 1 << 10, 2) if gcd(p, _PRIMORIAL) == 1)
#: level k of _PRIME_TREE: products of 2^k consecutive primes between 300 and this bound (then 1s)
_TREE_BOUND = 10_000
_PRIME_TREE: list[list[int]] = []
#: Pollard-Brent rho steps per gcd
_RHO_BLOCK = 128
#: values of c that _brent_rho tries: a composite needed at most 2 (60 calls
#: in tier-1, 6 000 semiprimes near 1e12), so only a prime runs out
_RHO_TRIES = 20
#: CPython prints no int past 4300 digits, about 14 280 bits
_PRINT_BITS = 14_000


def is_prime(n: int) -> bool:
    """Deterministic primality in the three tiers of the module docstring:
    the primes below 300, those up to 2^10, and Miller-Rabin up to
    3.3e24.  At or above 3.3e24 only a prime factor below 300 decides
    (composite); without one this raises ValueError instead of searching on.
    """
    if n < _TRIAL_BOUND:
        return n in _SMALL_PRIME_SET
    if gcd(n, _PRIMORIAL) > 1:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(
            f"cannot decide whether {_shown(n)} is prime: it has no prime factor below"
            f" {_TRIAL_BOUND}, and primality is proven only below 3.3e24"
        )
    return _proven_prime(n)


def _proven_prime(n: int) -> bool:
    """Primality of 300 <= n < 3.3e24 with no prime factor below 300."""
    if n < _TRIAL_BOUND * _TRIAL_BOUND:
        return True
    if n < _GCD_LIMIT:
        return gcd(n, _GCD_PRODUCT) == 1
    return _miller_rabin(n)


def _prime_tree() -> list[list[int]]:
    """Build _PRIME_TREE in a local and publish it in one assignment."""
    global _PRIME_TREE
    tree = [[p for p in range(_TRIAL_BOUND + 1, _TREE_BOUND, 2) if gcd(p, _PRIMORIAL) == 1]]
    tree[0] += [1] * (2**11 - len(tree[0]))  # 1 167 primes (no factor below 300, below 300^2)
    while len(tree[-1]) > 2:
        tree.append([a * b for a, b in zip(tree[-1][::2], tree[-1][1::2])])
    _PRIME_TREE = tree
    return tree


def _miller_rabin(n: int) -> bool:
    """Primality of 2^20 <= n < 3.3e24 with no prime factor below 300: the
    strong probable-prime test to as many of _MR_BASES as _MR_TIERS asks for."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for bound, k in _MR_TIERS:
        if n < bound:
            break
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
    """Prime factorization of n >= 1 as {prime: exponent}, primes ascending.

    Trial division by the primes below 300 leaves a cofactor whose pieces
    below 300^2 are prime.  A larger piece is proven prime (by one gcd below
    2^20, else by Miller-Rabin) or split: as a square, below 1e8 by a
    descent of _PRIME_TREE, else by _brent_rho.  Raises ValueError when the
    cofactor is at or above 3.3e24, beyond every primality proof.
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
        rest = "it has" if n == whole else f"its cofactor {_shown(n)} has"
        raise ValueError(
            f"cannot factor {_shown(whole)}: {rest} no prime factor below"
            f" {_TRIAL_BOUND}, and primality is proven only below 3.3e24"
        )
    stack = [n] if n > 1 else []
    large: list[int] = []
    while stack:
        m = stack.pop()
        if _proven_prime(m):
            large.append(m)
        elif (r := isqrt(m)) * r == m:  # rho would need ~sqrt(r) steps
            stack += (r, r)
        else:
            f = i = 0
            if m < _TREE_BOUND * _TREE_BOUND:  # descend to a prime factor below 1e4
                for level in reversed(tree := _PRIME_TREE or _prime_tree()):
                    i = 2 * i + (gcd(level[2 * i], m) == 1)  # keep a child sharing a factor
                f = tree[0][i]
            if not 1 < f < m or m % f:  # 1e8 or above, or a prime read as composite
                f = _brent_rho(m)
            stack += (f, m // f)
    for m in sorted(large):  # keep the keys ascending
        out[m] = out.get(m, 0) + 1
    return out


def _brent_rho(n: int) -> int:
    """A proper factor of an odd composite n, which factorize passes on from 1e8 up.

    Pollard rho on x -> x^2 + c with Brent's cycle search, taking one gcd per
    128 steps and retracing the last block when that gcd jumps to n (Brent,
    BIT 20, 1980).  A c that still finds only n is replaced by c + 1.  After
    _RHO_TRIES values n is taken for a prime that a wrong primality answer
    handed on, and this raises: in 7 ms near 1e6, 18 s near 1e12 (2-vCPU Xeon).
    """
    for c in range(1, _RHO_TRIES + 1):
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
    raise ArithmeticError(f"Pollard rho found no factor of {n} in {_RHO_TRIES} tries; is it prime?")


def _shown(n: int) -> str:
    """n in decimal up to 128 bits (39 digits), else its size: a message stays one short line."""
    return str(n) if n.bit_length() <= 128 else f"a {n.bit_length()}-bit integer"


def three_part(n: int) -> int:
    """The largest power of 3 dividing n >= 1."""
    if n < 1:
        raise ValueError(f"cannot take the 3-part of {_shown(n)}; need a positive integer")
    g = 1
    while n % 3 == 0:
        g *= 3
        n //= 3
    return g
