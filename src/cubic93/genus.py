"""Genus-theoretic data for the pure cubic field Q(cbrt(d)).

The genus number of Q(cbrt(d)) is 3^r where r counts the distinct primes
p = 1 (mod 3) dividing d, and the genus field is obtained by composing the
cubic field with the fields M(p): for each such p, M(p) is the unique cubic
subfield of Q(zeta_p), the field of the degree-3 Gaussian periods.

M(p) is produced here as the period polynomial.  Writing 4p = L^2 + 27M^2
with L = 1 (mod 3), the three periods are the roots of

    x^3 + x^2 - ((p - 1)/3) x - (p(L + 3) - 1)/27,

a classical consequence of the cubic Gauss sum evaluation.  Before being
returned, the coefficients are checked exactly against the periods
themselves, reduced modulo a large prime ell = 1 (mod p), so a wrong branch
in the (L, M) search cannot slip through silently.  Everything is integer
arithmetic; no floating point and no third-party package is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from ._intmath import factorize, is_prime
from .radicand import GerthForm, gerth_decompose

Cubic = tuple[int, int, int, int]


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
    """Raise ArithmeticError unless the periods of Q(zeta_p) are the roots of coeffs.

    The periods are reduced modulo a prime ell = 1 (mod p): there zeta_p maps
    to an element zeta of order p in F_ell, and the period over a coset C of
    the cubes in F_p^* maps to the sum of zeta^t over t in C.  Each period is
    real with |eta| <= (p - 1)/3, so prod(x - eta) has integer coefficients
    of absolute value at most (1 + (p - 1)/3)^3.  If the three residues are
    distinct roots of the monic coeffs mod ell, then coeffs and prod(x - eta)
    agree mod ell, and since ell exceeds twice every coefficient of both,
    they are equal.  (A correct cubic always passes: ell does not divide its
    discriminant p^2 M^2, so its roots stay distinct mod ell.)
    """
    bound = 2 * max((1 + (p - 1) // 3) ** 3, *(abs(c) for c in coeffs))
    k = bound // p + 1
    try:
        while not is_prime(k * p + 1):
            k += 1
    except ValueError as exc:  # ell left the range where primality is proven
        raise ValueError(
            f"cannot check the periods of p = {p}: the check needs a prime"
            " near 2(p/3)^3, and primality is proven only below 3.3e24,"
            " so for p below about 3.55e8"
        ) from exc
    ell = k * p + 1
    a = 2
    while (zeta := pow(a, k, ell)) == 1:
        a += 1
    # the cubic coset of t = g^i in F_p^* is i mod 3
    g = _primitive_root(p)
    coset = bytearray(p)
    t = 1
    for _ in range((p - 1) // 3):
        t = t * g % p
        coset[t] = 1
        t = t * g % p
        coset[t] = 2
        t = t * g % p
    etas = [0, 0, 0]
    z = 1
    for t in range(1, p):
        z = z * zeta % ell
        etas[coset[t]] += z
    residues = {eta % ell for eta in etas}
    one, c2, c1, c0 = coeffs
    if (
        one != 1
        or len(residues) != 3
        or any((((x + c2) * x + c1) * x + c0) % ell for x in residues)
    ):
        raise ArithmeticError(
            f"period polynomial for {p} does not vanish on the periods mod {ell}"
        )


def _primitive_root(p: int) -> int:
    """The least generator of F_p^* for a prime p."""
    cofactors = [(p - 1) // q for q in factorize(p - 1)]
    g = 2
    while any(pow(g, c, p) == 1 for c in cofactors):
        g += 1
    return g


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
    return _genus_from_form(gerth_decompose(d), h_gamma3_exactly9)


def _genus_from_form(form: GerthForm, h_gamma3_exactly9: bool) -> GenusReport:
    split = [p for p, _ in form.split_primes]
    r = len(split)
    polys = tuple((p, period_polynomial(p)) for p in split)
    notes = ["the genus field always embeds in the Hilbert 3-class field"]
    if r == 0:
        notes.append("no prime = 1 (mod 3) divides d: the genus field is the cubic field itself")
    flag: bool | None = None
    if h_gamma3_exactly9 and r > 2:
        notes.append(f"inconsistent data: 3^{r} divides h, so 9 cannot divide h exactly")
    elif h_gamma3_exactly9:
        flag = r == 2
    return GenusReport(
        d=form.d,
        r=r,
        genus_number=3**r,
        m_fields=polys,
        hilbert_equals_genus=flag,
        notes=tuple(notes),
    )
