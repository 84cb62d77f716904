"""Slow, obviously correct reference implementations shared by the tests."""

from __future__ import annotations

from cubic93.eisenstein import EisensteinInt, gcd, primary_associate


def cube_free_sieve(limit: int) -> bytearray:
    """flags[d] = 1 exactly for cube-free d, for 0 <= d <= limit."""
    flags = bytearray(b"\x01") * (limit + 1)
    c = 2
    while c * c * c <= limit:
        cube = c * c * c
        flags[cube :: cube] = b"\x00" * (limit // cube)
        c += 1
    return flags


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
