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
a whole range at once: it visits each prime up to the bound once, in
ascending order, at its multiples, and factors nothing.
"""

from __future__ import annotations

from itertools import compress, repeat
from math import isqrt
from typing import NamedTuple

from ._intmath import _shown, factorize

#: the largest bound _cube_free_count accepts: `cubic93 scan --max 10^8`
#: took 18.4-25.0 s (three runs, CPython 3.11, 2-vCPU Xeon)
_SCAN_LIMIT = 10**8
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
        for primes in self[2:]:
            for p, e in primes:
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
        raise ValueError(f"radicand must be an integer >= 2, got {_shown(n)}")
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
        raise ValueError(f"{_shown(n)} is a perfect cube; its cube root is rational")
    return GerthForm(d, e3, *map(tuple, classes))


def gerth_decompose(d: int) -> GerthForm:
    """Decompose a cube-free d >= 2 into the mod-9 residue classes."""
    form = normalize(d)
    if form.d != d:
        raise ValueError(f"{_shown(d)} is not cube-free")
    return form


def _cube_free_forms(limit: int) -> list[GerthForm]:
    """normalize(d) for every cube-free 2 <= d <= limit, in ascending order.

    One sieve (Bays and Hudson, BIT 17, 1977) over columns indexed by d;
    nothing is factored.  The primes up to limit come from a sieve of
    Eratosthenes and are taken in ascending order, so each class is built in
    the order normalize gives it: each prime but 3 is appended to its class
    at its multiples, as (p, 2) at a multiple of p^2, and 3 only sets e.  A
    multiple of p^3 is dropped; only a prime up to isqrt(limit) has square
    or cube multiples.  The forms are then built in one C-level pass: the
    columns d, e and the four classes are zipped, the cube-free rows picked
    by compress, and each row made a GerthForm by tuple.__new__, with no
    Python step per radicand.  A list, not a generator, so that the columns
    are freed before a caller builds on the forms.
    """
    if limit < 2:
        raise ValueError(f"scan bound must be >= 2, got {_shown(limit)}")
    n, root = limit + 1, isqrt(limit)
    prime = bytearray(2) + b"\x01" * (n - 2)
    for p in range(2, root + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, n, p)))
    cube_free = bytearray(2) + b"\x01" * (n - 2)  # 0 and 1 are no radicands
    e3 = bytearray(n)
    classes = [[()] * n for _ in range(4)]
    for p in compress(range(n), prime):
        if p == 3:  # 3 counts in e and in no class
            e3[3::3] = b"\x01" * len(range(3, n, 3))
            e3[9::9] = b"\x02" * len(range(9, n, 9))
            cube_free[27::27] = bytes(len(range(27, n, 27)))
            continue
        fac = classes[_CLASS_OF[p % 9]]
        once = ((p, 1),)
        for d in range(p, n, p):
            fac[d] += once
        if p <= root:
            p2, p3, twice = p * p, p * p * p, ((p, 2),)
            cube_free[p3::p3] = bytes(len(range(p3, n, p3)))
            for d in range(p2, n, p2):
                fac[d] = fac[d][:-1] + twice
    # tuple.__new__ skips GerthForm.__new__, and with it the check that each
    # row has six fields: tests/test_radicand.py checks class and length
    return list(map(
        tuple.__new__, repeat(GerthForm), compress(zip(range(n), e3, *classes), cube_free),
    ))


def _cube_free_count(limit: int) -> int:
    """The number of cube-free 2 <= d <= limit: each n >= 1 is m*k^3 with m
    cube-free in exactly one way, so by Moebius inversion the cube-free m <=
    limit number sum(mu(k) * (limit // k^3)).  ValueError outside [2, _SCAN_LIMIT]."""
    if limit < 2:
        raise ValueError(f"scan bound must be >= 2, got {_shown(limit)}")
    if limit > _SCAN_LIMIT:
        raise ValueError(
            f"scan bound must be <= 10^8 = {_SCAN_LIMIT}, got {_shown(limit)}: beyond it"
            " a scan would run for hours"
        )
    total, k = -1, 1  # m = 1 is no radicand
    while k**3 <= limit:
        if max((fac := factorize(k)).values(), default=1) == 1:  # mu(k) != 0
            total += (-1) ** len(fac) * (limit // k**3)
        k += 1
    return total
