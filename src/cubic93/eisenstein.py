"""Exact arithmetic in Z[w], the ring of Eisenstein integers (w = zeta_3).

The ring Z[w] with w^2 + w + 1 = 0 is Euclidean for the norm
N(a + b*w) = a^2 - a*b + b^2, has exactly six units +-1, +-w, +-w^2, and a
single prime lam = 1 - w above 3 (with 3 = -w^2 * lam^2).  A rational prime
p != 3 splits as pi * conj(pi) when p = 1 (mod 3) and stays inert when
p = 2 (mod 3).  For split p, pi comes from p = x^2 + 3y^2, found on plain
integers by Cornacchia's algorithm (Cohen, GTM 138, Alg. 1.5.2).
`EisensteinInt` holds the ring's values and + - *; `factor` divides on
integer pairs, exactly: a nonzero remainder is an error, not a rounding.

Cubic residue characters follow the classical "primary" normalisation
z = 2 (mod 3) of Ireland & Rosen (A Classical Introduction to Modern Number
Theory, chapter 9); under it the reciprocity law reads
chi_pi(theta) = chi_theta(pi) for primary primes of coprime norms.

All values are immutable and every function is pure, so the module is safe
to use from many threads at once.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import isqrt
from typing import NamedTuple, Union

from ._intmath import _shown, factorize, is_prime as _is_rational_prime

_Operand = Union["EisensteinInt", int]


class EisensteinInt:
    """a + b*w with integer a, b: the ring's values and + - *, where the
    product reduces w^2 to -1 - w; factor divides on integer pairs.

    The norm a^2 - a*b + b^2 is nonnegative and vanishes only at 0, and
    Python integers do not overflow.  Immutable and slotted, not a tuple:
    EisensteinInt(1, 0) equals 1, never the pair (1, 0).
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int = 0, b: int = 0) -> None:
        _set_a(self, a)
        _set_b(self, b)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"EisensteinInt(a={self.a!r}, b={self.b!r})"

    def __reduce__(self) -> tuple[type, tuple[int, int]]:
        # pickle and deepcopy rebuild through __init__; slot state would
        # go through the refusing __setattr__
        return EisensteinInt, (self.a, self.b)

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
        o = self._coerce(other)
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

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}w"
        return f"{self.a}{self.b:+}w"


# the slots' own setters, bound once: __init__ writes past __setattr__
_set_a, _set_b = EisensteinInt.a.__set__, EisensteinInt.b.__set__
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


class SplitKind(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


class PrimeSplitting(NamedTuple):
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
        ab = f"({_shown(z.a)}, {_shown(z.b)})"
        raise ValueError(f"a + b*w with (a, b) = {ab} has norm divisible by 3; no primary associate")
    return EisensteinInt(*_primary_pair(z.a, z.b))


def _primary_pair(a: int, b: int) -> tuple[int, int]:
    """primary_associate on the pair (a, b) of a + b*w, N coprime to 3."""
    # walk z, w*z, w^2*z: w*(a + b*w) = -b + (a - b)*w; the one with
    # b = 0 (mod 3) has a = 1 or 2 (mod 3), and -1 turns 1 into 2
    for _ in range(3):
        if b % 3 == 0:
            return (a, b) if a % 3 == 2 else (-a, -b)
        a, b = -b, a - b
    raise ArithmeticError(f"no primary associate found for {EisensteinInt(a, b)}")


@lru_cache(maxsize=None)
def factor_rational_prime(p: int) -> PrimeSplitting:
    """Factor a rational prime in Z[w].

    p = 1 (mod 3) -> SPLIT with factors (pi, conj(pi)), N(pi) = p;
    p = 2 (mod 3) -> INERT; p = 3 -> RAMIFIED with factor lam = 1 - w.
    """
    if not _is_rational_prime(p):
        raise ValueError(f"{_shown(p)} is not a rational prime")
    if p == 3:
        return PrimeSplitting(3, SplitKind.RAMIFIED, (LAMBDA,))
    if p % 3 == 2:
        return PrimeSplitting(p, SplitKind.INERT, (EisensteinInt(p),))
    pi = EisensteinInt(*_split_pair(p))
    return PrimeSplitting(p, SplitKind.SPLIT, (pi, pi.conjugate()))


def _split_pair(p: int) -> tuple[int, int]:
    """(a, b) of the canonical prime a + b*w above a split prime p: primary,
    with b > 0.  p is taken to be prime."""
    # A square root of -3 mod p comes from a primitive cube root of unity z:
    # (2z + 1)^2 = -3 (mod p).  Cornacchia's algorithm (Cohen, GTM 138,
    # Alg. 1.5.2) turns it into p = x^2 + 3y^2: Euclid on (p, 2z + 1) stops
    # at the first remainder x with x^2 <= p.  Then (x + y) + 2y*w has norm p.
    c = 2
    while (z := pow(c, (p - 1) // 3, p)) == 1:
        c += 1
    r, x = p, (2 * z + 1) % p
    while x * x > p:
        r, x = x, r % x
    y = isqrt((p - x * x) // 3)
    a, b = _primary_pair(x + y, 2 * y)
    if b < 0:  # the conjugate (a - b) - b*w
        a, b = a - b, -b
    if (n := a * a - a * b + b * b) != p:
        raise ArithmeticError(f"the prime {EisensteinInt(a, b)} found above {p} has norm {n}")
    return a, b


def _omega_residue(s: int, t: int, p: int) -> int:
    """The image m of w in Z[w]/(pi) = F_p, for pi = s + t*w of prime norm p.

    p cannot divide t (it would then divide s and p^2 the norm), and
    s + t*m = 0 forces m = -s/t mod p.
    """
    return -s * pow(t, -1, p) % p


def _split_character(x: int, p: int, m: int) -> CubicCharacterValue:
    """The cubic character of a unit x of F_p = Z[w]/(pi), where w maps to m:
    x^((p - 1)/3) is 1, m or m^2."""
    e = pow(x, (p - 1) // 3, p)
    if e == 1:
        return CubicCharacterValue.ONE
    if e == m:
        return CubicCharacterValue.OMEGA
    if e == p - 1 - m:  # m^2 = -1 - m, as m is a root of x^2 + x + 1 mod p
        return CubicCharacterValue.OMEGA_SQUARED
    raise ArithmeticError(f"{x}^(({p} - 1)/3) mod {p} is not a cube root of unity")


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
    if (ra, rb) == (1, 0):
        return CubicCharacterValue.ONE
    if (ra, rb) == (0, 1):
        return CubicCharacterValue.OMEGA
    if (ra, rb) == (q - 1, q - 1):  # w^2 = -1 - w
        return CubicCharacterValue.OMEGA_SQUARED
    raise ArithmeticError(f"({alpha})^(({q}^2 - 1)/3) mod {q} is not a cube root of unity")


def cubic_character(alpha: EisensteinInt, pi: EisensteinInt) -> CubicCharacterValue:
    """chi_pi(alpha): the cube root of unity congruent to
    alpha^((N(pi) - 1)/3) mod pi, or 0 when pi divides alpha.

    pi must be a prime of Z[w] with norm different from 3.  The power is
    taken in the residue field Z[w]/(pi): in F_p, with w mapped to
    m = -s/t mod p, when pi = s + t*w has prime norm p; in F_q[w], on pairs
    reduced mod q, when pi is a unit times an inert q.
    """
    n = pi.norm()
    if n > 1 and _is_rational_prime(n):
        if n == 3:
            raise ValueError("the character is not defined at the prime above 3")
        m = _omega_residue(pi.a, pi.b, n)
        x = (alpha.a + alpha.b * m) % n
        return _split_character(x, n, m) if x else CubicCharacterValue.ZERO
    q = isqrt(n)
    if q * q != n or q % 3 != 2 or pi.a % q or pi.b % q or not _is_rational_prime(q):
        raise ValueError(f"a + b*w with (a, b) = ({_shown(pi.a)}, {_shown(pi.b)}) is not a prime of Z[w]")
    if alpha.a % q or alpha.b % q:
        return _inert_character(alpha, q)
    return CubicCharacterValue.ZERO


def rational_cubic_symbol(a: int, p: int) -> CubicCharacterValue:
    """The cubic residue symbol (a/p)_3 for a rational prime p = 1 (mod 3).

    Returns ONE exactly when a is a cube mod p.  The nonzero value is
    normalised to agree with cubic_character(a, pi) at the canonical prime
    pi above p.  For p = 2 (mod 3) every residue is a cube and the symbol
    carries no information, so such p are rejected.
    """
    if not _is_rational_prime(p) or p % 3 != 1:
        raise ValueError(f"need a rational prime p = 1 (mod 3), got {_shown(p)}")
    if a % p == 0:
        raise ValueError(f"{p} divides {_shown(a)}; the symbol is 0 there")
    return _split_character(a, p, _omega_residue(*_split_pair(p), p))


class EisensteinFactorization(NamedTuple):
    """unit * prod(prime^exponent) = value, with primes primary whenever
    their norm is coprime to 3 and lam itself above 3."""

    unit: EisensteinInt
    factors: tuple[tuple[EisensteinInt, int], ...]


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
    for p, norm_exp in factorize(z.norm()).items():  # p ascending
        splitting = factor_rational_prime(p)
        inert = splitting.kind is SplitKind.INERT
        total = 0
        for prime in splitting.factors:
            # N(prime) and, unless inert, w's image m in F_p: from this prime, never its conjugate
            c, d = prime.a, prime.b
            n = prime.norm()
            m = 0 if inert else _omega_residue(c, d, p)
            e = 0
            while not (a % p or b % p) if inert else (a + b * m) % p == 0:
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
