"""Exact arithmetic in Z[w], the ring of Eisenstein integers (w = zeta_3).

The ring Z[w] with w^2 + w + 1 = 0 is Euclidean for the norm
N(a + b*w) = a^2 - a*b + b^2, has exactly six units +-1, +-w, +-w^2, and a
single prime lam = 1 - w above 3 (with 3 = -w^2 * lam^2).  A rational prime
p != 3 splits as pi * conj(pi) when p = 1 (mod 3) and stays inert when
p = 2 (mod 3).  For split p, pi comes from p = x^2 + 3y^2, found on plain
integers by Cornacchia's algorithm (Cohen, GTM 138, Alg. 1.5.2).  `factor`
also works on integer pairs: it divides each prime out exactly, and a
nonzero remainder is an error, not a rounding.

Cubic residue characters follow the classical "primary" normalisation
z = 2 (mod 3) of Ireland & Rosen (A Classical Introduction to Modern Number
Theory, chapter 9); under it the reciprocity law reads
chi_pi(theta) = chi_theta(pi) for primary primes of coprime norms.

All values are immutable and every function is pure, so the module is safe
to use from many threads at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import isqrt
from typing import Union

from ._intmath import factorize, is_prime as _is_rational_prime

_Operand = Union["EisensteinInt", int]


def _round_div(n: int, d: int) -> int:
    """Nearest integer to n/d for d > 0; ties go away from zero."""
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


@dataclass(frozen=True)
class EisensteinInt:
    """a + b*w with integer a, b, where all arithmetic reduces w^2 to -1 - w.

    The norm a^2 - a*b + b^2 is nonnegative and vanishes only at 0.  Python
    integers are unbounded, so no overflow is possible at any input size.
    """

    a: int = 0
    b: int = 0

    @classmethod
    def _coerce(cls, other: _Operand) -> "EisensteinInt | None":
        if isinstance(other, EisensteinInt):
            return other
        if isinstance(other, int):
            return cls(other, 0)
        return None

    def __add__(self, other: _Operand) -> "EisensteinInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EisensteinInt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: _Operand) -> "EisensteinInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EisensteinInt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: _Operand) -> "EisensteinInt":
        return (-self) + other

    def __neg__(self) -> "EisensteinInt":
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other: _Operand) -> "EisensteinInt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + bw)(c + dw) = ac + (ad + bc)w + bd(-1 - w)
        return EisensteinInt(
            self.a * o.a - self.b * o.b,
            self.a * o.b + self.b * o.a - self.b * o.b,
        )

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other) if isinstance(other, (EisensteinInt, int)) else None
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        # equal to an int when b == 0, so it must hash like that int
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def conjugate(self) -> "EisensteinInt":
        """Complex conjugation w -> w^2, i.e. (a, b) -> (a - b, -b)."""
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_unit(self) -> bool:
        return self.norm() == 1

    def __divmod__(self, other: _Operand) -> tuple["EisensteinInt", "EisensteinInt"]:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero in Z[w]")
        # Nearest-lattice-point division: N(r) <= (3/4) N(o) < N(o).
        n = self * o.conjugate()
        nn = o.norm()
        q = EisensteinInt(_round_div(n.a, nn), _round_div(n.b, nn))
        return q, self - q * o

    def __floordiv__(self, other: _Operand) -> "EisensteinInt":
        return divmod(self, other)[0]

    def __mod__(self, other: _Operand) -> "EisensteinInt":
        return divmod(self, other)[1]

    def divides(self, other: _Operand) -> bool:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot test divisibility against {other!r}")
        return (o % self).is_zero

    def __pow__(self, exponent: int) -> "EisensteinInt":
        if exponent < 0:
            if not self.is_unit:
                raise ValueError("negative powers exist only for units")
            inv = next(u for u in UNITS if (self * u) == ONE)
            return inv ** (-exponent)
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_prime(self) -> bool:
        """True for primes of Z[w]: norm a rational prime, or a unit multiple
        of an inert rational prime q = 2 (mod 3)."""
        return _residue_field(self) is not None

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}w"
        return f"{self.a}{self.b:+}w"


ZERO = EisensteinInt(0, 0)
ONE = EisensteinInt(1, 0)
OMEGA = EisensteinInt(0, 1)
OMEGA_SQUARED = EisensteinInt(-1, -1)
#: lam = 1 - w, the prime above 3; N(lam) = 3 and 3 = -w^2 * lam^2.
LAMBDA = EisensteinInt(1, -1)
UNITS: tuple[EisensteinInt, ...] = (
    ONE,
    -ONE,
    OMEGA,
    -OMEGA,
    OMEGA_SQUARED,
    -OMEGA_SQUARED,
)


class CubicCharacterValue(Enum):
    """Value of a cubic residue character: 0 or a cube root of unity."""

    ZERO = "0"
    ONE = "1"
    OMEGA = "w"
    OMEGA_SQUARED = "w^2"

    @property
    def exponent(self) -> int:
        """k with value = w^k, for the three nonzero values."""
        if self is CubicCharacterValue.ZERO:
            raise ValueError("0 is not a root of unity")
        return {"1": 0, "w": 1, "w^2": 2}[self.value]

    @classmethod
    def from_exponent(cls, k: int) -> "CubicCharacterValue":
        return (cls.ONE, cls.OMEGA, cls.OMEGA_SQUARED)[k % 3]

    def __mul__(self, other: "CubicCharacterValue") -> "CubicCharacterValue":
        if CubicCharacterValue.ZERO in (self, other):
            return CubicCharacterValue.ZERO
        return CubicCharacterValue.from_exponent(self.exponent + other.exponent)


class SplitKind(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


@dataclass(frozen=True)
class PrimeSplitting:
    """How a rational prime factors in Z[w].

    For a split p the factors are (pi, conj(pi)) with pi the primary prime
    of norm p whose w-coefficient is positive; for an inert q the single
    factor is q itself; for 3 it is lam.
    """

    p: int
    kind: SplitKind
    factors: tuple[EisensteinInt, ...]


def primary_associate(z: EisensteinInt) -> EisensteinInt:
    """The unique associate of z congruent to 2 (mod 3), i.e. with
    a = 2 and b = 0 (mod 3).  Requires N(z) coprime to 3."""
    if z.norm() % 3 == 0:
        raise ValueError(f"{z} has norm divisible by 3; no primary associate")
    # walk z, w*z, w^2*z on pairs: w*(a + b*w) = -b + (a - b)*w; the one
    # with b = 0 (mod 3) has a = 1 or 2 (mod 3), and -1 turns 1 into 2
    a, b = z.a, z.b
    for _ in range(3):
        if b % 3 == 0:
            return EisensteinInt(a, b) if a % 3 == 2 else EisensteinInt(-a, -b)
        a, b = -b, a - b
    raise AssertionError(f"no primary associate found for {z}")


@lru_cache(maxsize=None)
def factor_rational_prime(p: int) -> PrimeSplitting:
    """Factor a rational prime in Z[w].

    p = 1 (mod 3) -> SPLIT with factors (pi, conj(pi)), N(pi) = p;
    p = 2 (mod 3) -> INERT; p = 3 -> RAMIFIED with factor lam = 1 - w.
    """
    if not _is_rational_prime(p):
        raise ValueError(f"{p} is not a rational prime")
    if p == 3:
        # sanity of the stored identity 3 = -w^2 * lam^2
        if -OMEGA_SQUARED * LAMBDA * LAMBDA != EisensteinInt(3):
            raise ArithmeticError("the identity 3 = -w^2 * lam^2 fails")
        return PrimeSplitting(3, SplitKind.RAMIFIED, (LAMBDA,))
    if p % 3 == 2:
        return PrimeSplitting(p, SplitKind.INERT, (EisensteinInt(p),))
    pi = _split_prime(p)
    return PrimeSplitting(p, SplitKind.SPLIT, (pi, pi.conjugate()))


def _split_prime(p: int) -> EisensteinInt:
    """The canonical prime above a split p: primary with positive b."""
    # A square root of -3 mod p comes from a primitive cube root of unity z:
    # (2z + 1)^2 = -3 (mod p).  Cornacchia's algorithm (Cohen, GTM 138,
    # Alg. 1.5.2) turns it into p = x^2 + 3y^2: Euclid on (p, 2z + 1) stops
    # at the first remainder x with x^2 <= p.  Then (x + y) + 2y*w has norm p.
    c = 2
    while True:
        z = pow(c, (p - 1) // 3, p)
        if z != 1:
            break
        c += 1
    r, x = p, (2 * z + 1) % p
    while x * x > p:
        r, x = x, r % x
    y = isqrt((p - x * x) // 3)
    pi = primary_associate(EisensteinInt(x + y, 2 * y))
    if pi.b < 0:
        pi = pi.conjugate()
    if pi.norm() != p:
        raise ArithmeticError(f"the prime {pi} found above {p} has norm {pi.norm()}")
    return pi


def _omega_residue(pi: EisensteinInt, p: int) -> int:
    """The image m of w in Z[w]/(pi) = F_p, for pi = s + t*w of prime norm p.

    p cannot divide t (it would then divide s and p^2 the norm), and
    s + t*m = 0 forces m = -s/t mod p.
    """
    return -pi.a * pow(pi.b, -1, p) % p


def _residue_field(pi: EisensteinInt) -> tuple[int, int | None] | None:
    """Z[w]/(pi) for a prime pi, or None when pi is not prime.

    (p, m) when N(pi) = p is a rational prime: the residue field is F_p with
    w mapped to m.  (q, None) when pi is a unit times an inert rational
    prime q: the residue field is F_q[w] = F_{q^2}, elements reduced
    componentwise mod q.
    """
    n = pi.norm()
    if n < 2:
        return None
    if _is_rational_prime(n):
        return n, _omega_residue(pi, n)
    q = isqrt(n)
    if (
        q * q == n
        and q % 3 == 2
        and pi.a % q == 0
        and pi.b % q == 0
        and _is_rational_prime(q)
    ):
        return q, None
    return None


def _is_zero_mod(a: int, b: int, p: int, m: int | None) -> bool:
    """a + b*w = 0 in the residue field (p, m) from _residue_field."""
    if m is None:
        return a % p == 0 and b % p == 0
    return (a + b * m) % p == 0


def _split_character(x: int, p: int, m: int) -> CubicCharacterValue:
    """The cubic character of a unit x of F_p = Z[w]/(pi), where w maps to m:
    x^((p - 1)/3) is 1, m or m^2."""
    e = pow(x, (p - 1) // 3, p)
    roots = {
        1: CubicCharacterValue.ONE,
        m: CubicCharacterValue.OMEGA,
        m * m % p: CubicCharacterValue.OMEGA_SQUARED,
    }
    value = roots.get(e)
    if value is None:
        raise ArithmeticError(f"{x}^(({p} - 1)/3) mod {p} is not a cube root of unity")
    return value


def _inert_character(alpha: EisensteinInt, q: int) -> CubicCharacterValue:
    """The cubic character of a unit alpha of F_q[w] = Z[w]/(q), q inert:
    alpha^((q^2 - 1)/3) is 1, w or w^2 = -1 - w, computed on pairs mod q."""
    a, b = alpha.a % q, alpha.b % q
    ra, rb = 1, 0
    n = (q * q - 1) // 3
    while n:
        # (x + yw)(u + vw) = xu - yv + (xv + yu - yv)w, as in Z[w]
        if n & 1:
            ra, rb = (ra * a - rb * b) % q, (ra * b + rb * a - rb * b) % q
        a, b = (a * a - b * b) % q, (2 * a * b - b * b) % q
        n >>= 1
    roots = {
        (1, 0): CubicCharacterValue.ONE,
        (0, 1): CubicCharacterValue.OMEGA,
        (q - 1, q - 1): CubicCharacterValue.OMEGA_SQUARED,
    }
    value = roots.get((ra, rb))
    if value is None:
        raise ArithmeticError(f"({alpha})^(({q}^2 - 1)/3) mod {q} is not a cube root of unity")
    return value


def cubic_character(alpha: EisensteinInt, pi: EisensteinInt) -> CubicCharacterValue:
    """chi_pi(alpha): the cube root of unity congruent to
    alpha^((N(pi) - 1)/3) mod pi, or 0 when pi divides alpha.

    pi must be a prime of Z[w] with norm different from 3.  The power is
    taken in the residue field Z[w]/(pi): in F_p, with w mapped to
    m = -s/t mod p, when pi = s + t*w has prime norm p; in F_q[w], on pairs
    reduced mod q, when pi is a unit times an inert q.
    """
    field = _residue_field(pi)
    if field is None:
        raise ValueError(f"{pi} is not a prime of Z[w]")
    p, m = field
    if p == 3:
        raise ValueError("the character is not defined at the prime above 3")
    if _is_zero_mod(alpha.a, alpha.b, p, m):
        return CubicCharacterValue.ZERO
    if m is None:
        return _inert_character(alpha, p)
    return _split_character(alpha.a + alpha.b * m, p, m)


def rational_cubic_symbol(a: int, p: int) -> CubicCharacterValue:
    """The cubic residue symbol (a/p)_3 for a rational prime p = 1 (mod 3).

    Returns ONE exactly when a is a cube mod p.  The nonzero value is
    normalised to agree with cubic_character(a, pi) at the canonical prime
    pi above p.  For p = 2 (mod 3) every residue is a cube and the symbol
    carries no information, so such p are rejected.
    """
    if not _is_rational_prime(p) or p % 3 != 1:
        raise ValueError(f"need a rational prime p = 1 (mod 3), got {p}")
    if a % p == 0:
        raise ValueError(f"{p} divides {a}; the symbol is 0 there")
    pi = factor_rational_prime(p).factors[0]
    return _split_character(a, p, _omega_residue(pi, p))


@dataclass(frozen=True)
class EisensteinFactorization:
    """unit * prod(prime^exponent) = value, with primes primary whenever
    their norm is coprime to 3 and lam itself above 3."""

    unit: EisensteinInt
    factors: tuple[tuple[EisensteinInt, int], ...]

    def value(self) -> EisensteinInt:
        out = self.unit
        for prime, exp in self.factors:
            out = out * prime**exp
        return out


def factor(z: EisensteinInt) -> EisensteinFactorization:
    """Factor z != 0 into a unit and prime powers.

    Strategy: factor N(z) over Z (N(z) < 3.3e24), lift each rational prime
    through factor_rational_prime and divide out, testing divisibility in
    the residue field of each prime.  The division is exact, on integer
    pairs, and a nonzero remainder raises ArithmeticError.  Deterministic,
    with the factors ordered by the underlying rational prime.
    """
    if z.is_zero:
        raise ValueError("cannot factor 0")
    a, b = z.a, z.b
    out: list[tuple[EisensteinInt, int]] = []
    for p, norm_exp in sorted(factorize(z.norm()).items()):
        splitting = factor_rational_prime(p)
        inert = splitting.kind is SplitKind.INERT
        total = 0
        for prime in splitting.factors:
            c, d = prime.a, prime.b
            n = prime.norm()
            m = None if inert else _omega_residue(prime, p)
            e = 0
            while _is_zero_mod(a, b, p, m):
                # (a + b*w) * ((c - d) - d*w), then divide both parts by n
                qa, ra = divmod(a * (c - d) + b * d, n)
                qb, rb = divmod(b * c - a * d, n)
                if ra or rb:
                    raise ArithmeticError(
                        f"{prime} does not divide {EisensteinInt(a, b)} exactly, factoring {z}"
                    )
                a, b = qa, qb
                e += 1
            if e:
                out.append((prime, e))
            total += e
        # norm bookkeeping: split/ramified primes have norm p, inert norm p^2
        if total * (2 if inert else 1) != norm_exp:
            raise ArithmeticError(f"norm exponent mismatch at {p} while factoring {z}")
    unit = EisensteinInt(a, b)
    if not unit.is_unit:
        raise ArithmeticError(f"non-unit cofactor {unit} left over factoring {z}")
    return EisensteinFactorization(unit=unit, factors=tuple(out))
