"""Genus-theoretic data for the pure cubic field Q(cbrt(d)).

The genus number of Q(cbrt(d)) is 3^r where r counts the distinct primes
p = 1 (mod 3) dividing d, and the genus field is obtained by composing the
cubic field with the fields M(p): for each such p, M(p) is the unique cubic
subfield of Q(zeta_p), the field of the degree-3 Gaussian periods.

M(p) is produced here as the period polynomial.  Writing 4p = L^2 + 27M^2
with L = 1 (mod 3), the three periods are the roots of

    x^3 + x^2 - ((p - 1)/3) x - (p(L + 3) - 1)/27,

a classical consequence of the cubic Gauss sum evaluation.  The exact
coefficients are cross-checked against high-precision numeric periods
before being returned, so a wrong branch in the (L, M) search cannot slip
through silently.  mpmath, which computes the periods, is imported on the
first such check, so importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import isqrt
from typing import TYPE_CHECKING

from ._intmath import is_prime
from .radicand import gerth_decompose

#: residual tolerance for the numeric verification of period polynomials
NUMERIC_TOLERANCE = 1e-6
#: working precision (decimal digits) for the period evaluation
_VERIFY_DPS = 40

Cubic = tuple[int, int, int, int]

if TYPE_CHECKING:
    import mpmath


def genus_number(d: int) -> tuple[int, int]:
    """(r, 3^r) with r the number of primes = 1 (mod 3) dividing d.

    For r = 0 the genus field is the cubic field itself.
    """
    form = gerth_decompose(d)
    r = form.w
    return r, 3**r


def _gauss_sum_parameters(p: int) -> tuple[int, int]:
    """The unique (L, M) with 4p = L^2 + 27 M^2, L = 1 (mod 3), M > 0."""
    for m in range(1, isqrt(4 * p // 27) + 1):
        rest = 4 * p - 27 * m * m
        root = isqrt(rest)
        if root * root == rest:
            if root % 3 == 1:
                return root, m
            if (-root) % 3 == 1:
                return -root, m
    raise ArithmeticError(f"no decomposition 4*{p} = L^2 + 27M^2 found")


def _numeric_periods(p: int) -> list[mpmath.mpf]:
    """The three degree-3 Gaussian periods of Q(zeta_p), high precision."""
    import mpmath

    cubes = sorted({pow(x, 3, p) for x in range(1, p)})
    cube_set = set(cubes)
    n = 2
    while n % p == 0 or n % p in cube_set:
        n += 1
    cosets = (cubes, [n * t % p for t in cubes], [n * n * t % p for t in cubes])
    two_pi = 2 * mpmath.pi
    return [
        mpmath.fsum(mpmath.cos(two_pi * t / p) for t in coset) for coset in cosets
    ]


@lru_cache(maxsize=None)
def period_polynomial(p: int) -> Cubic:
    """Monic integer cubic with the Gaussian periods of Q(zeta_p) as roots.

    Defined for primes p = 1 (mod 3); this is the defining polynomial of the
    cubic subfield M(p) of Q(zeta_p).  Coefficients are returned monic and
    descending: (1, c2, c1, c0).
    """
    if not is_prime(p) or p % 3 != 1:
        raise ValueError(f"need a prime p = 1 (mod 3), got {p}")
    big_l, _ = _gauss_sum_parameters(p)
    if (p * (big_l + 3) - 1) % 27 != 0:
        raise ArithmeticError(f"constant term for p = {p} is not integral")
    coeffs: Cubic = (1, 1, -(p - 1) // 3, -(p * (big_l + 3) - 1) // 27)
    _verify_periods(p, coeffs)
    return coeffs


def _verify_periods(p: int, coeffs: Cubic) -> None:
    import mpmath

    with mpmath.workdps(_VERIFY_DPS):
        for eta in _numeric_periods(p):
            residual = abs(((eta + coeffs[1]) * eta + coeffs[2]) * eta + coeffs[3])
            if residual > NUMERIC_TOLERANCE:
                raise ArithmeticError(
                    f"period polynomial for {p} misses its root: |res| = {residual}"
                )


def format_cubic(coeffs: Cubic) -> str:
    """Human-readable 'x^3 + x^2 - 2x - 1' rendering."""
    names = ("x^3", "x^2", "x", "")
    parts: list[str] = []
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        mag = abs(c)
        body = name if (mag == 1 and name) else (f"{mag}{name}" if name else str(mag))
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


class BoundStatus(Enum):
    NOT_APPLICABLE = "not_applicable"
    ADMISSIBLE = "admissible"
    VIOLATION = "violation"


@dataclass(frozen=True)
class SplitPrimeBound:
    status: BoundStatus
    r: int
    detail: str


def split_prime_bound(h_gamma3_exactly9: bool, r: int) -> SplitPrimeBound:
    """Check r against the bound forced by 9 exactly dividing h.

    3^r divides the class number of the cubic field, so 9 || h forces
    r <= 2; the admissible subcases are r = 0, 1, 2.
    """
    if not h_gamma3_exactly9:
        return SplitPrimeBound(
            BoundStatus.NOT_APPLICABLE, r, "no exact-9 hypothesis supplied"
        )
    if r <= 2:
        labels = {0: "no prime", 1: "one prime", 2: "two primes"}
        return SplitPrimeBound(
            BoundStatus.ADMISSIBLE, r, f"{labels[r]} = 1 (mod 3) dividing d"
        )
    return SplitPrimeBound(
        BoundStatus.VIOLATION,
        r,
        f"3^{r} divides h, contradicting that 9 divides h exactly",
    )


@dataclass(frozen=True)
class GenusReport:
    d: int
    r: int
    genus_number: int
    m_fields: tuple[tuple[int, Cubic], ...]
    hilbert_equals_genus: bool | None
    notes: tuple[str, ...]


def genus_field_description(d: int, h_gamma3_exactly9: bool) -> GenusReport:
    """Assemble r, 3^r and the M(p) polynomials for every p = 1 (mod 3) | d.

    hilbert_equals_genus is True exactly when r = 2 under the exact-9
    hypothesis (the genus field then fills the whole Hilbert 3-class field),
    False when r < 2 under that hypothesis, and None when it cannot be
    decided from the given data.
    """
    form = gerth_decompose(d)
    split = [p for p, _ in form.split_primes]
    r = len(split)
    polys = tuple((p, period_polynomial(p)) for p in split)
    if h_gamma3_exactly9 and r == 2:
        flag: bool | None = True
    elif h_gamma3_exactly9 and r < 2:
        flag = False
    else:
        flag = None
    notes = ["the genus field always embeds in the Hilbert 3-class field"]
    if r == 0:
        notes.append("no prime = 1 (mod 3) divides d: the genus field is the cubic field itself")
    if h_gamma3_exactly9 and r > 2:
        notes.append(
            f"inconsistent data: 3^{r} divides h, so 9 cannot divide h exactly"
        )
    return GenusReport(
        d=d,
        r=r,
        genus_number=3**r,
        m_fields=polys,
        hilbert_equals_genus=flag,
        notes=tuple(notes),
    )
