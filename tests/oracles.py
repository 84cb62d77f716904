"""Slow, obviously correct reference implementations shared by the tests.

pytest does not rewrite this module and python -O strips asserts, so a
broken invariant here raises instead of failing an assert."""

from __future__ import annotations

import json
from math import isqrt

from cubic93._intmath import factorize
from cubic93.classifier import (
    _CYCLIC_3,
    _ELEMENTARY_3_3,
    Reason,
    ReasonCode,
    Verdict,
    _decision,
    _necessary_form,
)
from cubic93.eisenstein import (
    CubicCharacterValue,
    EisensteinFactorization,
    EisensteinInt,
    SplitKind,
    factor_rational_prime,
    primary_associate,
    rational_cubic_symbol,
)
from cubic93.radicand import GerthForm, _cube_free_forms


def is_prime_by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


def primes_below(limit: int) -> list[int]:
    return [n for n in range(2, limit) if is_prime_by_trial_division(n)]


def factorize_by_trial_division(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division (2, 3, then 6k +- 1)."""
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def cube_free_sieve(limit: int) -> bytearray:
    """flags[d] = 1 exactly for cube-free d, for 0 <= d <= limit."""
    flags = bytearray(b"\x01") * (limit + 1)
    c = 2
    while c * c * c <= limit:
        cube = c * c * c
        flags[cube :: cube] = b"\x00" * (limit // cube)
        c += 1
    return flags


def is_eisenstein_prime_by_trial_division(z: EisensteinInt) -> bool:
    """True for primes of Z[w]: a prime norm, or the norm q^2 of a unit
    times an inert prime q = 2 (mod 3), which then divides both coordinates."""
    n = z.norm()
    q = isqrt(n)
    return is_prime_by_trial_division(n) or (
        q * q == n and q % 3 == 2 and z.a % q == 0 and z.b % q == 0 and is_prime_by_trial_division(q)
    )


#: the cube roots of unity by their exponent k in w^k
_ROOTS = (CubicCharacterValue.ONE, CubicCharacterValue.OMEGA, CubicCharacterValue.OMEGA_SQUARED)


def character_product(*values: CubicCharacterValue) -> CubicCharacterValue:
    """The product of character values in mu_3 and 0: 0 absorbs, and the
    exponents of w add mod 3."""
    if CubicCharacterValue.ZERO in values:
        return CubicCharacterValue.ZERO
    return _ROOTS[sum(_ROOTS.index(v) for v in values) % 3]


def _round_div(n: int, d: int) -> int:
    """A nearest integer to n/d for d > 0: floor(n/d + 1/2), so ties go up."""
    return (2 * n + d) // (2 * d)


def ediv(x: EisensteinInt, y: EisensteinInt) -> tuple[EisensteinInt, EisensteinInt]:
    """Euclidean division in Z[w]: (q, r) with x = q*y + r, where q is the
    lattice point nearest x/y, so N(r) <= (3/4) N(y) < N(y)."""
    if y.is_zero:
        raise ZeroDivisionError("division by zero in Z[w]")
    n, nn = x * y.conjugate(), y.norm()
    q = EisensteinInt(_round_div(n.a, nn), _round_div(n.b, nn))
    return q, x - q * y


def divides(y: EisensteinInt, x: EisensteinInt) -> bool:
    """y divides x in Z[w], for y != 0: ediv leaves no remainder."""
    return ediv(x, y)[1].is_zero


def power(z: EisensteinInt, n: int) -> EisensteinInt:
    """z^n for n >= 0, by repeated multiplication."""
    out = EisensteinInt(1)
    for _ in range(n):
        out = out * z
    return out


def recomposed(f: EisensteinFactorization) -> EisensteinInt:
    """unit * prod(prime^exponent): the value a factorization stands for."""
    out = f.unit
    for prime, exp in f.factors:
        out = out * power(prime, exp)
    return out


def gcd(x: EisensteinInt, y: EisensteinInt) -> EisensteinInt:
    """A greatest common divisor of x and y (unique up to units)."""
    while not y.is_zero:
        x, y = y, ediv(x, y)[1]
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


def cubic_symbol_of_three(p: int) -> CubicCharacterValue:
    """(3/p)_3 for a prime p = 1 (mod 3) by the supplementary laws.

    With pi = a + b*w = factor_rational_prime(p).factors[0] (primary: a =
    3m - 1, b = 3n), 3 = -w^2 * lam^2, (w/pi)_3 = w^(m+n) and (lam/pi)_3 =
    w^(2m) (Ireland & Rosen, ch. 9) give (3/pi)_3 = w^(2n) = w^(2b/3)."""
    pi = factor_rational_prime(p).factors[0]
    if pi.norm() != p or pi.a % 3 != 2 or pi.b % 3:
        raise ArithmeticError(f"{pi} is not a primary prime above {p}")
    return _ROOTS[2 * pi.b // 3 % 3]


def factor_by_divmod(z: EisensteinInt) -> EisensteinFactorization:
    """Factor z != 0 into a unit and prime powers.

    Where factor tests residues and divides integer pairs, this tests and
    divides out each prime by the Euclidean division ediv."""
    if z.is_zero:
        raise ValueError("cannot factor 0")
    remaining = z
    out: list[tuple[EisensteinInt, int]] = []
    for p, norm_exp in sorted(factorize(z.norm()).items()):
        splitting = factor_rational_prime(p)
        inert = splitting.kind is SplitKind.INERT
        total = 0
        for prime in splitting.factors:
            e = 0
            while divides(prime, remaining):
                remaining = ediv(remaining, prime)[0]
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


def _signature(g: GerthForm) -> tuple[int, ...]:
    """(v, w, I, J, e, d % 9, p % 9, q % 9), with p and q the first split
    and inert primes (0 where there is none), read through the GerthForm
    properties: the key of _decision that _necessary_form builds inline."""
    split, inert = g.split_primes, g.inert_primes
    return (
        g.v, g.w, g.I, g.J, g.e, g.d % 9,
        split[0][0] % 9 if split else 0, inert[0][0] % 9 if inert else 0,
    )


def necessary_form_by_properties(g: GerthForm) -> Verdict:
    """The verdict for a cube-free form, read through the GerthForm properties.

    The library's earlier path: split_primes and inert_primes are rebuilt by
    concatenation for the signature, the factor text and each named prime."""
    dec = _decision(_signature(g))
    parts = []
    if g.e:
        parts.append(f"3^{g.e}" if g.e > 1 else "3")
    for p, e in g.split_primes + g.inert_primes:
        parts.append(f"{p}^{e}" if e > 1 else str(p))
    factors = " * ".join(parts)
    line, reasons, predicted, symbol = dec.line, dec.reasons, dec.predicted, None
    if dec.named:  # p is the one split prime; only SPLIT_INERT_RANK names q
        q = g.inert_primes[0][0] if g.inert_primes else None
        line = line.format(factors=factors, p=g.split_primes[0][0], q=q)
    elif dec.code is ReasonCode.CUBIC_SYMBOL_CONJECTURE:
        # the symbol only explains the outcome and names the predicted shape
        p = g.split_primes[0][0]
        symbol = rational_cubic_symbol(3, p)
        one = symbol is CubicCharacterValue.ONE
        predicted = _ELEMENTARY_3_3 if one else _CYCLIC_3
        line = (
            f"(3/{p})_3 = {symbol.value}{'' if one else ' != 1'}, and for"
            " p = 4 or 7 (mod 9) the conjectural classification then gives"
            f" C_k3 = {predicted}, not (9, 3)"
        )
        detail = f"(3/{p})_3 = {symbol.value}: predicted shape {predicted}"
        reasons = (Reason(dec.code, detail, conjectural=True),)
    return Verdict(
        input_d=g.d,
        d=g.canonical,
        form=dec.form,
        status=dec.status,
        reasons=reasons,
        trace=(f"d = {g.d} = {factors}", dec.counts, line),
        decomposition=g,
        t=dec.t,
        q_star=dec.q_star,
        sigma_rank=dec.sigma_rank,
        predicted_class_group=predicted,
        symbol_three=symbol,
    )


def scan_output_by_sieve(max_d: int, as_json: bool) -> str:
    """What `cubic93 scan --max max_d [--json]` prints, by deciding every
    cube-free radicand that the library's sieve gives and printing each one
    that _decision admits.

    The CLI's earlier path: it counts and decides each radicand, where the
    CLI now lists only the admitted shape and counts the rest by Moebius."""
    lines, total = [], 0
    for g in _cube_free_forms(max_d):
        total += 1
        if _decision(_signature(g)).code is not None:
            continue
        v = _necessary_form(g)
        if as_json:
            lines.append(json.dumps(v.to_json_dict()))
        else:
            lines.append(f"d = {v.input_d:>8d}   canonical {v.d:>8d}   {v.form.value}")
    if not as_json:
        candidates = len(lines)
        lines.append(
            f"{total} cube-free radicands <= {max_d}:"
            f" {candidates} candidates, {total - candidates} excluded"
        )
    return "".join(line + "\n" for line in lines)
