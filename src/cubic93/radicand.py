"""Cube-free radicands and their residue-class bookkeeping mod 9.

A pure cubic field is Q(cbrt(d)) for a cube-free d >= 2.  Writing d = a*b^2
with a, b coprime and square-free, the radicands a*b^2 and a^2*b generate
the same field, so the smaller of the two serves as the canonical key for
field-level work.

The mod-9 decomposition sorts the prime divisors of d into four classes
(1; 4 or 7; 8; 2 or 5 mod 9) plus the power of 3, with the counts

    v = #(p = 1 mod 9)          w = #(p = 1 mod 3)
    I = #(q = 8 mod 9)          J = #(q = 2 mod 3)

that drive the ramification and rank analysis downstream.  This follows the
shape introduced by Gerth for 3-class groups of pure cubic fields.

`normalize` factors one radicand: it strips cube factors and returns the
`GerthForm` of what is left, from which a, b, the conjugate radicand and the
canonical key are all read off.  `_cube_free_forms` gives the same forms for
a whole range at once, from a block sieve, and factors nothing.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import compress
from math import isqrt
from typing import NamedTuple

from ._intmath import factorize, is_prime

#: the largest bound _cube_free_forms accepts: `cubic93 scan --max 10^8`
#: took 205 s (CPython 3.11, 2-vCPU Xeon), and the time grows linearly
_SCAN_LIMIT = 10**8
#: radicands per block of that sieve; a block is all it holds in memory
_BLOCK = 1 << 16
#: index of each prime's residue class mod 9 in the four GerthForm classes
_CLASS_OF = {1: 0, 4: 1, 7: 1, 8: 2, 2: 3, 5: 3}


class GerthForm(NamedTuple):
    """The factorization of a cube-free d sorted by residue class mod 9.

    Each list holds (prime, exponent) pairs with exponent 1 or 2; e is the
    exponent of 3.  Recomposing 3^e times all prime powers gives d back.
    """

    d: int
    e: int
    class1mod9: tuple[tuple[int, int], ...]
    class47mod9: tuple[tuple[int, int], ...]
    class8mod9: tuple[tuple[int, int], ...]
    class25mod9: tuple[tuple[int, int], ...]

    @property
    def v(self) -> int:
        return len(self.class1mod9)

    @property
    def w(self) -> int:
        """Number of primes = 1 (mod 3) dividing d."""
        return self.v + len(self.class47mod9)

    @property
    def I(self) -> int:  # noqa: E741 - standard letter for this count
        return len(self.class8mod9)

    @property
    def J(self) -> int:
        """Number of primes = 2 (mod 3) dividing d."""
        return self.I + len(self.class25mod9)

    @property
    def split_primes(self) -> tuple[tuple[int, int], ...]:
        """All (p, exponent) with p = 1 (mod 3)."""
        return self.class1mod9 + self.class47mod9

    @property
    def inert_primes(self) -> tuple[tuple[int, int], ...]:
        """All (q, exponent) with q = 2 (mod 3)."""
        return self.class8mod9 + self.class25mod9

    @property
    def b(self) -> int:
        """The product of the primes that divide d exactly twice."""
        out = 3 if self.e == 2 else 1
        for p, e in self.split_primes + self.inert_primes:
            if e == 2:
                out *= p
        return out

    @property
    def a(self) -> int:
        """The product of the primes that divide d exactly once: d = a*b^2."""
        b = self.b
        return self.d // (b * b)

    @property
    def conjugate_d(self) -> int:
        """a^2*b, the other radicand of the same field."""
        b = self.b
        a = self.d // (b * b)
        return a * a * b

    @property
    def canonical(self) -> int:
        """min(a*b^2, a^2*b): one key per pure cubic field."""
        return min(self.d, self.conjugate_d)


def normalize(n: int) -> GerthForm:
    """Strip cube factors from n >= 2 and decompose the rest mod 9.

    A perfect cube is rejected (the cube root is rational and there is no
    cubic field).  Something was stripped exactly when the result's d != n.
    """
    if n <= 1:
        raise ValueError(f"radicand must be an integer >= 2, got {n}")
    fac = factorize(n)
    e3 = fac.pop(3, 0) % 3
    d = 3**e3
    classes: tuple[list[tuple[int, int]], ...] = ([], [], [], [])
    for p, e in sorted(fac.items()):
        e %= 3
        if e == 0:
            continue
        d *= p**e
        # p % 9 is never 0, 3 or 6 for a prime p != 3
        classes[_CLASS_OF[p % 9]].append((p, e))
    if d == 1:
        raise ValueError(f"{n} is a perfect cube; its cube root is rational")
    c1, c47, c8, c25 = classes
    return GerthForm(
        d=d,
        e=e3,
        class1mod9=tuple(c1),
        class47mod9=tuple(c47),
        class8mod9=tuple(c8),
        class25mod9=tuple(c25),
    )


def gerth_decompose(d: int) -> GerthForm:
    """Decompose a cube-free d >= 2 into the mod-9 residue classes."""
    form = normalize(d)
    if form.d != d:
        raise ValueError(f"{d} is not cube-free")
    return form


def cube_free_sieve(limit: int) -> bytearray:
    """flags[d] = 1 exactly for cube-free d, for 0 <= d <= limit."""
    flags = bytearray(b"\x01") * (limit + 1)
    c = 2
    while c * c * c <= limit:
        cube = c * c * c
        flags[cube :: cube] = b"\x00" * (limit // cube)
        c += 1
    return flags


def _cube_free_forms(limit: int) -> Iterator[GerthForm]:
    """normalize(d) for every cube-free 2 <= d <= limit, in ascending order.

    A segmented sieve (Bays and Hudson, BIT 17, 1977) over blocks of _BLOCK
    radicands, so that one block is all it holds; nothing is factored.
    Raises ValueError on the first step for a limit outside [2, _SCAN_LIMIT].
    """
    if limit < 2:
        raise ValueError(f"scan bound must be >= 2, got {limit}")
    if limit > _SCAN_LIMIT:
        raise ValueError(
            f"scan bound must be <= 10^8 = {_SCAN_LIMIT}, got {limit}: beyond it"
            " a scan would run for hours"
        )
    # 3 counts in e and in no class, so it is sieved out even when above isqrt
    primes = [p for p in range(2, max(isqrt(limit), 3) + 1) if is_prime(p)]
    for lo in range(2, limit + 1, _BLOCK):
        yield from _block_forms(lo, min(lo + _BLOCK, limit + 1), primes)


def _block_forms(lo: int, hi: int, primes: list[int]) -> Iterator[GerthForm]:
    """normalize(d) for every cube-free lo <= d < hi, given 2 <= lo and every
    prime up to max(isqrt(hi - 1), 3) in ascending order.

    Each prime is divided out of its multiples and appended to their
    class, as (p, 2) at a multiple of p^2; a multiple of p^3 is dropped.
    What is left of a radicand is then 1 or one prime above isqrt(hi - 1),
    the largest, with exponent 1.
    """
    n = hi - lo
    rest = list(range(lo, hi))
    cube_free = bytearray(b"\x01") * n
    e3 = bytearray(n)
    classes = [[()] * n for _ in range(4)]
    for p in primes:
        p2, p3 = p * p, p * p * p
        i1, i2, i3 = -lo % p, -lo % p2, -lo % p3
        cube_free[i3::p3] = bytes(len(range(i3, n, p3)))
        if p == 3:  # 3 counts in e, and its pairs go to a list never read
            e3[i1::3] = b"\x01" * len(range(i1, n, 3))
            e3[i2::9] = b"\x02" * len(range(i2, n, 9))
            fac = [()] * n
        else:
            fac = classes[_CLASS_OF[p % 9]]
        once, twice = ((p, 1),), ((p, 2),)
        for i in range(i1, n, p):
            rest[i] //= p
            fac[i] += once
        for i in range(i2, n, p2):
            rest[i] //= p
            fac[i] = fac[i][:-1] + twice
    c1, c47, c8, c25 = classes
    for i in compress(range(n), cube_free):
        q = rest[i]
        if q > 1:
            classes[_CLASS_OF[q % 9]][i] += ((q, 1),)
        yield GerthForm(lo + i, e3[i], c1[i], c47[i], c8[i], c25[i])
