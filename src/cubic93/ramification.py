"""Ramification in the Kummer extension k/k0 attached to a cube-free d.

Here k0 = Q(zeta_3) and k = k0(cbrt(d)).  Primes dividing d ramify in the
cubic field Q(cbrt(d)); 3 ramifies there exactly when 3 | d or d is not
congruent to +-1 mod 9 (Dedekind's criterion).  In k/k0 each ramified
rational prime contributes its primes of k0: a split p = 1 (mod 3) gives
two, an inert q = 2 (mod 3) gives one, and 3 gives lam = 1 - zeta_3.  Each
k0 prime carries the SplitKind of its rational prime (RAMIFIED for lam).

The count t of ramified primes of k0 feeds the ambiguous-class rank

    rank = t - 2 + q*,

where q* = 1 when zeta_3 is a norm from k.  The only criterion applied for
q* = 1 is the sufficient one: every non-lam ramified prime of k0 must be
congruent to 1 mod lam^3, which at the rational level reads p = 1 (mod 9)
for every split divisor and q = 8 (mod 9) for every inert divisor.  When it
does not apply the indicator is reported as UNKNOWN rather than guessed, so
every emitted rank is sound.

t, q* and the rank are read off the mod-9 counts of the GerthForm alone:
t = [3 ramifies] + 2w + J.  The list of ramified primes of k0, one Z[w]
factorization per ramified rational prime, is built only for the ramify
report, where its length cross-checks t.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .eisenstein import EisensteinInt, SplitKind, factor_rational_prime
from .radicand import GerthForm, gerth_decompose


class QStar(Enum):
    ONE = 1
    UNKNOWN = "unknown"


class K0Prime(NamedTuple):
    """One prime of k0 = Q(zeta_3) that ramifies in k/k0."""

    kind: SplitKind
    p: int
    element: EisensteinInt


class RamificationReport(NamedTuple):
    d: int
    gamma_ramified: frozenset[int]
    three_ramified: bool
    k0_ramified: tuple[K0Prime, ...]
    t: int
    q_star: QStar
    sigma_rank: int | None
    notes: tuple[str, ...]


def ramify(d: int) -> RamificationReport:
    """Full ramification report for a cube-free d >= 2."""
    return _ramify_from_form(gerth_decompose(d))


def _ambiguous_rank(
    v: int, w: int, I: int, J: int, e: int, d9: int  # noqa: E741
) -> tuple[bool, int, QStar, int | None]:
    """(three ramified, t, q*, ambiguous rank) from the mod-9 counts of d
    and d9 = d mod 9."""
    # 3 ramifies in Q(cbrt(d)) when 3 | d or d != +-1 (mod 9)
    three = e > 0 or d9 not in (1, 8)
    t = three + 2 * w + J
    # Sufficient norm criterion: all non-lam ramified primes 1 mod lam^3,
    # which fails once a split prime is 4 or 7 or an inert one 2 or 5 mod 9.
    if w > v or J > I:
        return three, t, QStar.UNKNOWN, None
    rank = t - 2 + 1
    if rank < 0:
        raise ArithmeticError(
            f"negative ambiguous rank t - 1 = {rank} for w = {w}, J = {J}, e = {e}"
        )
    return three, t, QStar.ONE, rank


def _ramify_from_form(form: GerthForm) -> RamificationReport:
    three, t, qs, rank = _ambiguous_rank(form.v, form.w, form.I, form.J, form.e, form.d % 9)
    primes = {p for p, _ in form.split_primes + form.inert_primes}
    if three:
        primes.add(3)
    entries: list[K0Prime] = []
    for p in sorted(primes):
        splitting = factor_rational_prime(p)
        entries += (K0Prime(splitting.kind, p, prime) for prime in splitting.factors)
    if len(entries) != t:
        raise ArithmeticError(
            f"{len(entries)} ramified primes of k0 found in Z[w] for d = {form.d},"
            f" but the mod-9 counts give t = {t}"
        )

    notes = [
        "ambiguous classes are elementary: fixed by sigma, their cube is the"
        " norm to k0, which has class number 1",
    ]
    if qs is QStar.ONE:
        notes.append(
            "every non-lam ramified prime of k0 is 1 mod lam^3, so zeta_3 is"
            " a norm from k and q* = 1"
        )
    else:
        notes.append(
            "the sufficient norm criterion for q* = 1 does not apply and no"
            " general criterion is implemented, so q* stays unknown"
        )
    return RamificationReport(
        d=form.d,
        gamma_ramified=frozenset(primes),
        three_ramified=three,
        k0_ramified=tuple(entries),
        t=t,
        q_star=qs,
        sigma_rank=rank,
        notes=tuple(notes),
    )
