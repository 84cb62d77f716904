"""Slow, obviously correct reference implementations shared by the tests."""

from __future__ import annotations

from cubic93._intmath import factorize
from cubic93.eisenstein import (
    EisensteinFactorization,
    EisensteinInt,
    SplitKind,
    _is_zero_mod,
    _omega_residue,
    factor_rational_prime,
    primary_associate,
)


def cube_free_sieve(limit: int) -> bytearray:
    """flags[d] = 1 exactly for cube-free d, for 0 <= d <= limit."""
    flags = bytearray(b"\x01") * (limit + 1)
    c = 2
    while c * c * c <= limit:
        cube = c * c * c
        flags[cube :: cube] = b"\x00" * (limit // cube)
        c += 1
    return flags


def gcd(x: EisensteinInt, y: EisensteinInt) -> EisensteinInt:
    """A greatest common divisor of x and y (unique up to units)."""
    while not y.is_zero:
        x, y = y, x % y
    return x


def split_prime_by_gcd(p: int) -> EisensteinInt:
    """The canonical prime above a split p: primary with positive b.

    The library's earlier path, a Euclidean gcd in Z[w] itself."""
    # A square root of -3 mod p comes from a primitive cube root of unity z:
    # (2z + 1)^2 = -3 (mod p).  Then gcd picks out one prime above p.
    c = 2
    while True:
        z = pow(c, (p - 1) // 3, p)
        if z != 1:
            break
        c += 1
    u = (2 * z + 1) % p
    # u - (1 + 2w) is divisible by exactly one of the two primes above p
    pi = gcd(EisensteinInt(p), EisensteinInt(u - 1, -2))
    pi = primary_associate(pi)
    if pi.b < 0:
        pi = pi.conjugate()
    if pi.norm() != p:
        raise ArithmeticError(f"the prime {pi} found above {p} has norm {pi.norm()}")
    return pi


def factor_by_divmod(z: EisensteinInt) -> EisensteinFactorization:
    """Factor z != 0 into a unit and prime powers.

    The library's earlier path: the same residue-field test, but each prime
    is divided out by EisensteinInt floor division."""
    if z.is_zero:
        raise ValueError("cannot factor 0")
    remaining = z
    out: list[tuple[EisensteinInt, int]] = []
    for p, norm_exp in sorted(factorize(z.norm()).items()):
        splitting = factor_rational_prime(p)
        inert = splitting.kind is SplitKind.INERT
        total = 0
        for prime in splitting.factors:
            m = None if inert else _omega_residue(prime, p)
            e = 0
            while _is_zero_mod(remaining.a, remaining.b, p, m):
                remaining = remaining // prime
                e += 1
            if e:
                out.append((prime, e))
            total += e
        # norm bookkeeping: split/ramified primes have norm p, inert norm p^2
        if total * (2 if inert else 1) != norm_exp:
            raise ArithmeticError(f"norm exponent mismatch at {p} while factoring {z}")
    if not remaining.is_unit:
        raise ArithmeticError(f"non-unit cofactor {remaining} left over factoring {z}")
    return EisensteinFactorization(unit=remaining, factors=tuple(out))
