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

`normalize` is the one place that factors a radicand: it strips cube
factors and returns the `GerthForm` of what is left, from which a, b, the
conjugate radicand and the canonical key are all read off.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._intmath import factorize


@dataclass(frozen=True)
class GerthForm:
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
        return self.a**2 * self.b

    @property
    def canonical(self) -> int:
        """min(a*b^2, a^2*b): one key per pure cubic field."""
        return min(self.d, self.conjugate_d)

    def recomposed(self) -> int:
        out = 3**self.e
        for p, e in self.split_primes + self.inert_primes:
            out *= p**e
        return out


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
    c1: list[tuple[int, int]] = []
    c47: list[tuple[int, int]] = []
    c8: list[tuple[int, int]] = []
    c25: list[tuple[int, int]] = []
    for p, e in sorted(fac.items()):
        e %= 3
        if e == 0:
            continue
        d *= p**e
        r = p % 9
        if r == 1:
            c1.append((p, e))
        elif r in (4, 7):
            c47.append((p, e))
        elif r == 8:
            c8.append((p, e))
        else:  # r in (2, 5); r = 0, 3, 6 impossible for a prime != 3
            c25.append((p, e))
    if d == 1:
        raise ValueError(f"{n} is a perfect cube; its cube root is rational")
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
