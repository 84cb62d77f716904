"""Decide for which radicands d the 3-class group of Q(cbrt(d), zeta_3)
can be, or certainly is, of type (9, 3).

The necessary-form analysis is purely arithmetic: it eliminates every shape
of d except d = p^e with p = 1 (mod 9), walking through the exclusion
arguments in a fixed order and recording a human-readable trace of each
step.  Certification needs two external inputs that the library never
computes itself, the exact 3-part h of the class number of the cubic field
and the unit index u of the sextic field: with h = 9 and u = 1 the verdict
upgrades to a certified type (9, 3); with h != 9 or u = 3 it flips to a
data-backed exclusion.

Exclusion reasons carry a `conjectural` flag: the eliminations for
d = p^e, p = 4 or 7 (mod 9) rest on a published conjecture about the cubic
residue symbol (3/p)_3, while every other branch is theorem-backed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from ._intmath import three_part
from .eisenstein import CubicCharacterValue, rational_cubic_symbol
from .radicand import GerthForm, cube_free_sieve, gerth_decompose, normalize
from .ramification import QStar, _ambiguous_rank


@dataclass(frozen=True)
class ClassGroupShape:
    """An abelian 3-group given by its cyclic orders, largest first."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        for n in self.orders:
            if n < 2:
                raise ValueError(f"cyclic order {n} is not a group order >= 2")
            if three_part(n) != n:
                raise ValueError(f"cyclic order {n} is not a power of 3")
        if tuple(sorted(self.orders, reverse=True)) != self.orders:
            raise ValueError(f"orders {self.orders} must be non-increasing")

    @classmethod
    def of(cls, *orders: int) -> "ClassGroupShape":
        return cls(tuple(orders))

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
    def is_type_9_3(self) -> bool:
        return self.orders == (9, 3)

    def __str__(self) -> str:
        if not self.orders:
            return "trivial"
        return " x ".join(f"Z/{n}" for n in self.orders)


TYPE_9_3 = ClassGroupShape.of(9, 3)
CYCLIC_9 = ClassGroupShape.of(9)


def hk_from_hgamma(h_gamma: int, u: int) -> int:
    """h_k = (u/3) * h_gamma^2 for the sextic field; must come out integral."""
    if u not in (1, 3):
        raise ValueError(f"unit index must be 1 or 3, got {u}")
    if h_gamma < 1:
        raise ValueError(f"class number must be positive, got {h_gamma}")
    num = u * h_gamma * h_gamma
    if num % 3 != 0:
        raise ValueError(f"(u/3)*h^2 = {num}/3 is not an integer")
    return num // 3


@dataclass(frozen=True)
class EquivalenceResult:
    applicable: bool
    consistent: bool
    c_k: ClassGroupShape | None
    c_gamma: ClassGroupShape | None
    u: int | None
    trace: tuple[str, ...]


def type93_equivalence(
    direction: str,
    *,
    c_k: ClassGroupShape | None = None,
    c_gamma: ClassGroupShape | None = None,
    u: int | None = None,
) -> EquivalenceResult:
    """The two-way bridge between the sextic and cubic 3-class groups:

        C_k = Z/9 x Z/3  <=>  C_gamma = Z/9 and u = 1.

    forward: from a sextic shape, derive (c_gamma, u); only type (9, 3) is
    governed.  backward: from (c_gamma, u), derive the sextic shape.
    Supplying contradictory data yields consistent=False with the reason in
    the trace.  A unit index other than 1 or 3 raises ValueError either way.
    """
    if u is not None and u not in (1, 3):
        raise ValueError(f"unit index must be 1 or 3, got {u}")
    if direction == "forward":
        if c_k is None:
            raise ValueError("forward direction needs the sextic shape c_k")
        if not c_k.is_type_9_3:
            return EquivalenceResult(
                applicable=False,
                consistent=True,
                c_k=c_k,
                c_gamma=None,
                u=None,
                trace=(f"the equivalence governs type (9, 3) only, not {c_k}",),
            )
        trace = [
            "h_k3 = 27 and h_k3 = (u/3) * h_gamma3^2 force u = 1: with u = 3"
            " the order 27 would be a perfect square",
            "then h_gamma3^2 = 81, so h_gamma3 = 9",
            "tau splits C_k3 into fixed and inverted parts with |C^-| = 3",
            "C^+ is the cubic field's part, cyclic of order 9",
        ]
        if u == 3:
            return EquivalenceResult(
                applicable=True,
                consistent=False,
                c_k=c_k,
                c_gamma=CYCLIC_9,
                u=1,
                trace=tuple(
                    trace
                    + ["supplied u = 3 contradicts the derived u = 1"]
                ),
            )
        if c_gamma is not None and c_gamma != CYCLIC_9:
            return EquivalenceResult(
                applicable=True,
                consistent=False,
                c_k=c_k,
                c_gamma=CYCLIC_9,
                u=u if u is not None else 1,
                trace=tuple(
                    trace
                    + [f"supplied cubic shape {c_gamma} contradicts Z/9"]
                ),
            )
        return EquivalenceResult(
            applicable=True,
            consistent=True,
            c_k=c_k,
            c_gamma=CYCLIC_9,
            u=1,
            trace=tuple(trace),
        )

    if direction == "backward":
        if c_gamma is None or u is None:
            raise ValueError("backward direction needs c_gamma and u")
        if c_gamma == CYCLIC_9 and u == 1:
            return EquivalenceResult(
                applicable=True,
                consistent=True,
                c_k=TYPE_9_3,
                c_gamma=c_gamma,
                u=u,
                trace=(
                    "|C_k3| = (1/3) * 9^2 = 27",
                    "C_k3 = C_gamma3 x C^- with |C^-| = 3",
                    "hence C_k3 = Z/9 x Z/3",
                ),
            )
        return EquivalenceResult(
            applicable=True,
            consistent=True,
            c_k=None,
            c_gamma=c_gamma,
            u=u,
            trace=(
                f"(c_gamma, u) = ({c_gamma}, {u}) does not satisfy"
                " (Z/9, 1), so the sextic 3-class group is not of type (9, 3)",
            ),
        )

    raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")


class FormClass(Enum):
    P_1MOD9 = "p^e, p = 1 (mod 9)"
    P_47MOD9 = "p^e, p = 4 or 7 (mod 9)"
    THREE_P_1MOD9 = "3^e * p^e1, p = 1 (mod 9)"
    THREE_P_47MOD9 = "3^e * p^e1, p = 4 or 7 (mod 9)"
    PQ_1MOD9 = "p^e1 * q^f1 = +-1 (mod 9), p = -q = 1 (mod 9)"
    OTHER = "outside the admissible forms"


class VerdictStatus(Enum):
    CERTIFIED_9_3 = "certified_9_3"
    CANDIDATE_NEEDS_DATA = "candidate_needs_data"
    EXCLUDED = "excluded"


class ReasonCode(Enum):
    NO_SPLIT_PRIME = "no_split_prime"
    MULTIPLE_SPLIT_PRIMES = "multiple_split_primes"
    CUBIC_SYMBOL_CONJECTURE = "cubic_symbol_conjecture"
    THREE_TIMES_SPLIT_RANK = "three_times_split_rank"
    THREE_TIMES_NONRESIDUE_CYCLIC = "three_times_nonresidue_cyclic"
    SPLIT_INERT_RANK = "split_inert_rank"
    RANK_CASE_EXHAUSTION = "rank_case_exhaustion"
    DATA_H_GAMMA3 = "data_h_gamma3"
    DATA_UNIT_INDEX = "data_unit_index"


@dataclass(frozen=True)
class Reason:
    code: ReasonCode
    detail: str
    conjectural: bool = False


@dataclass(frozen=True)
class Verdict:
    """Outcome of classifying one radicand, with its derivation trace."""

    input_d: int
    d: int  # canonical radicand: min(a*b^2, a^2*b)
    form: FormClass
    status: VerdictStatus
    reasons: tuple[Reason, ...]
    trace: tuple[str, ...]
    decomposition: GerthForm
    t: int
    q_star: QStar
    sigma_rank: int | None
    h_gamma3: int | None = None
    u: int | None = None
    h_k3: int | None = None
    class_group: ClassGroupShape | None = None
    predicted_class_group: ClassGroupShape | None = None
    symbol_three: CubicCharacterValue | None = None

    def to_json_dict(self) -> dict:
        g = self.decomposition
        return {
            "input_d": self.input_d,
            "d": self.d,
            "form": self.form.name,
            "status": self.status.value,
            "reasons": [
                {"code": r.code.value, "detail": r.detail, "conjectural": r.conjectural}
                for r in self.reasons
            ],
            "decomposition": {
                "e": g.e,
                "class1mod9": [list(x) for x in g.class1mod9],
                "class47mod9": [list(x) for x in g.class47mod9],
                "class8mod9": [list(x) for x in g.class8mod9],
                "class25mod9": [list(x) for x in g.class25mod9],
                "v": g.v,
                "w": g.w,
                "I": g.I,
                "J": g.J,
            },
            "t": self.t,
            "q_star": self.q_star.value,
            "sigma_rank": self.sigma_rank,
            "h_gamma3": self.h_gamma3,
            "u": self.u,
            "h_k3": self.h_k3,
            "class_group": list(self.class_group.orders) if self.class_group else None,
            "predicted_class_group": (
                list(self.predicted_class_group.orders)
                if self.predicted_class_group
                else None
            ),
            "symbol_three": self.symbol_three.value if self.symbol_three else None,
            "trace": list(self.trace),
        }


def _form_string(g: GerthForm) -> str:
    parts = []
    if g.e:
        parts.append(f"3^{g.e}" if g.e > 1 else "3")
    for p, e in g.split_primes + g.inert_primes:
        parts.append(f"{p}^{e}" if e > 1 else str(p))
    return " * ".join(parts)


def necessary_form(d: int) -> Verdict:
    """Run the arithmetic elimination pipeline on a cube-free d >= 2.

    Returns CANDIDATE_NEEDS_DATA exactly for d = p^e with p = 1 (mod 9);
    everything else is EXCLUDED with the first applicable reason, in the
    fixed order: no split prime; several split primes; then the five-form
    case analysis for exactly one split prime.  The count t, q* and the
    ambiguous rank come from the mod-9 counts of d; no prime is factored
    in Z[w] (that is the ramify report's job).
    """
    return _necessary_form(gerth_decompose(d))


def _necessary_form(g: GerthForm) -> Verdict:
    d = g.d
    _, t, q_star, sigma_rank = _ambiguous_rank(g)
    trace = [
        f"d = {d} = {_form_string(g)}",
        f"counts: v = {g.v}, w = {g.w}, I = {g.I}, J = {g.J}, e = {g.e};"
        f" d = {d % 9} (mod 9)",
    ]

    def verdict(
        form: FormClass,
        status: VerdictStatus,
        reasons: tuple[Reason, ...] = (),
        predicted: ClassGroupShape | None = None,
        symbol: CubicCharacterValue | None = None,
    ) -> Verdict:
        return Verdict(
            input_d=d,
            d=g.canonical,
            form=form,
            status=status,
            reasons=reasons,
            trace=tuple(trace),
            decomposition=g,
            t=t,
            q_star=q_star,
            sigma_rank=sigma_rank,
            predicted_class_group=predicted,
            symbol_three=symbol,
        )

    # (a) no prime = 1 (mod 3) divides d
    if g.w == 0:
        trace.append(
            "no prime = 1 (mod 3) divides d, so the sextic 3-class group is"
            " the square C x C of the cubic one; its order is an even power"
            " of 3 and can never be 27"
        )
        return verdict(
            FormClass.OTHER,
            VerdictStatus.EXCLUDED,
            (Reason(ReasonCode.NO_SPLIT_PRIME, "w = 0 forces C_k3 = C x C"),),
        )

    # (b) two or more primes = 1 (mod 3) divide d
    if g.w >= 2:
        trace.append(
            f"w = {g.w} primes = 1 (mod 3) divide d; type (9, 3) would make"
            " the cubic 3-class group cyclic of order 9, whose Hilbert"
            " 3-class field has a single degree-3 step over the cubic field,"
            " yet the genus field would already contain two distinct ones"
        )
        return verdict(
            FormClass.OTHER,
            VerdictStatus.EXCLUDED,
            (
                Reason(
                    ReasonCode.MULTIPLE_SPLIT_PRIMES,
                    f"w = {g.w} >= 2 contradicts a cyclic Z/9 cubic 3-class group",
                ),
            ),
        )

    # exactly one p = 1 (mod 3) from here on
    p, _ = g.split_primes[0]

    if g.J == 0 and g.e == 0:
        if p % 9 == 1:
            trace.append(
                f"d = {_form_string(g)} with {p} = 1 (mod 9): the one"
                " admissible shape; certification needs the exact 3-part of"
                " the cubic class number and the unit index"
            )
            return verdict(FormClass.P_1MOD9, VerdictStatus.CANDIDATE_NEEDS_DATA)
        symbol = rational_cubic_symbol(3, p)
        if symbol is CubicCharacterValue.ONE:
            predicted = ClassGroupShape.of(3, 3)
            trace.append(
                f"(3/{p})_3 = 1, and for p = 4 or 7 (mod 9) the conjectural"
                " classification then gives C_k3 = Z/3 x Z/3, not (9, 3)"
            )
        else:
            predicted = ClassGroupShape.of(3)
            trace.append(
                f"(3/{p})_3 = {symbol.value} != 1, and for p = 4 or 7 (mod 9)"
                " the conjectural classification then gives C_k3 = Z/3,"
                " not (9, 3)"
            )
        return verdict(
            FormClass.P_47MOD9,
            VerdictStatus.EXCLUDED,
            (
                Reason(
                    ReasonCode.CUBIC_SYMBOL_CONJECTURE,
                    f"(3/{p})_3 = {symbol.value}: predicted shape {predicted}",
                    conjectural=True,
                ),
            ),
            predicted=predicted,
            symbol=symbol,
        )

    if g.J == 0 and g.e > 0:
        if p % 9 == 1:
            trace.append(
                f"3 and {p} = 1 (mod 9) ramify: t = {t} primes of k0"
                " (lam and the two above p), all non-lam ones 1 mod lam^3,"
                f" so q* = 1 and the ambiguous rank is {sigma_rank};"
                " type (9, 3) needs ambiguous rank 1"
            )
            return verdict(
                FormClass.THREE_P_1MOD9,
                VerdictStatus.EXCLUDED,
                (
                    Reason(
                        ReasonCode.THREE_TIMES_SPLIT_RANK,
                        f"t = {t}, q* = 1, ambiguous rank"
                        f" {sigma_rank} != 1",
                    ),
                ),
            )
        trace.append(
            f"d = {_form_string(g)} with {p} = 4 or 7 (mod 9): for this shape"
            " the sextic 3-class group is cyclic of order 3, not (9, 3)"
        )
        return verdict(
            FormClass.THREE_P_47MOD9,
            VerdictStatus.EXCLUDED,
            (
                Reason(
                    ReasonCode.THREE_TIMES_NONRESIDUE_CYCLIC,
                    "C_k3 is cyclic of order 3 for 3^e * p^e1 with"
                    " p = 4 or 7 (mod 9)",
                ),
            ),
            predicted=ClassGroupShape.of(3),
        )

    # J >= 1: mixed split/inert forms
    q, _ = g.inert_primes[0]
    if g.J == 1 and g.e == 0 and d % 9 in (1, 8) and p % 9 == 1 and q % 9 == 8:
        trace.append(
            f"d = +-1 (mod 9) keeps 3 unramified; {p} splits and {q} stays"
            f" inert, so t = {t}; p = 1 (mod 9) and q = 8 (mod 9) put"
            " every ramified prime of k0 at 1 mod lam^3, so q* = 1 and the"
            f" ambiguous rank is {sigma_rank}; type (9, 3) needs rank 1"
        )
        return verdict(
            FormClass.PQ_1MOD9,
            VerdictStatus.EXCLUDED,
            (
                Reason(
                    ReasonCode.SPLIT_INERT_RANK,
                    f"t = {t}, q* = 1, ambiguous rank {sigma_rank} != 1",
                ),
            ),
        )

    two_w_plus_j = 2 * g.w + g.J
    if two_w_plus_j > 3:
        trace.append(
            f"2w + J = {two_w_plus_j} > 3, but an ambiguous rank of 1 allows"
            f" only 2w + J in {{1, 2, 3}}; here t = {t} >= 4 already"
            " forces ambiguous rank >= 2"
        )
        detail = f"2w + J = {two_w_plus_j} outside {{1, 2, 3}}; t = {t}"
    elif d % 9 not in (1, 8):
        trace.append(
            f"d != +-1 (mod 9), so 3 ramifies as well: t = {t} >= 4"
            " primes of k0 ramify, forcing ambiguous rank >= 2; type (9, 3)"
            " needs rank 1"
        )
        detail = f"t = {t} >= 4 forces ambiguous rank >= 2"
    else:
        trace.append(
            f"d = +-1 (mod 9) with one split and one inert prime, but"
            f" p = {p % 9} and q = {q % 9} (mod 9) instead of p = 1 and"
            " q = 8: this residue pattern lies outside every admissible"
            " shape of the classification"
        )
        detail = (
            f"residues (p, q) = ({p % 9}, {q % 9}) (mod 9) outside the"
            " admissible two-prime form"
        )
    return verdict(
        FormClass.OTHER,
        VerdictStatus.EXCLUDED,
        (Reason(ReasonCode.RANK_CASE_EXHAUSTION, detail),),
    )


def _validate_h3(h_gamma3: int) -> None:
    if h_gamma3 < 1:
        raise ValueError(f"h_gamma3 must be positive, got {h_gamma3}")
    if three_part(h_gamma3) != h_gamma3:
        raise ValueError(f"h_gamma3 must be a power of 3, got {h_gamma3}")


def classify(d: int, h_gamma3: int | None = None, u: int | None = None) -> Verdict:
    """Classify any integer radicand d >= 2, with optional external data.

    d is normalised first (cube factors are stripped, perfect cubes are
    rejected).  h_gamma3 is the exact 3-part of the cubic field's class
    number; u is the unit index of the sextic field, 1 or 3.
    """
    if h_gamma3 is not None:
        _validate_h3(h_gamma3)
    if u is not None and u not in (1, 3):
        raise ValueError(f"unit index must be 1 or 3, got {u}")

    form = normalize(d)
    v = _necessary_form(form)
    if form.d != d:
        v = replace(
            v,
            input_d=d,
            trace=(f"stripped a cube factor: {d} defines the same field as {form.d}",)
            + v.trace,
        )

    h_k3 = hk_from_hgamma(h_gamma3, u) if (h_gamma3 is not None and u is not None) else None

    if v.status is VerdictStatus.CANDIDATE_NEEDS_DATA:
        if h_gamma3 == 9 and u == 1:
            trace = v.trace + (
                "h_gamma3 = 9 and u = 1: h_k3 = (1/3) * 81 = 27, exactly"
                " divisible by 27",
                "9 exactly divides the cubic class number, so the sextic"
                " 3-class group has rank 2 (Calegari-Emerton criterion)",
                "a rank-2 group of order 27 containing a cyclic part of"
                " order 9 is Z/9 x Z/3: certified type (9, 3)",
            )
            return replace(
                v,
                status=VerdictStatus.CERTIFIED_9_3,
                trace=trace,
                h_gamma3=h_gamma3,
                u=u,
                h_k3=27,
                class_group=TYPE_9_3,
            )
        reasons: list[Reason] = []
        trace_add: list[str] = []
        if h_gamma3 is not None and h_gamma3 != 9:
            reasons.append(
                Reason(
                    ReasonCode.DATA_H_GAMMA3,
                    f"h_gamma3 = {h_gamma3} != 9, so the cubic 3-class group"
                    " cannot be cyclic of order 9",
                )
            )
            trace_add.append(
                f"supplied h_gamma3 = {h_gamma3}: type (9, 3) requires the"
                " cubic 3-class group Z/9, impossible here"
            )
        if u == 3:
            reasons.append(
                Reason(
                    ReasonCode.DATA_UNIT_INDEX,
                    "u = 3 gives h_k3 = h_gamma3^2, a perfect square, while"
                    " 27 exactly dividing h_k3 is required",
                )
            )
            trace_add.append(
                "supplied u = 3: h_k3 = (3/3) * h_gamma3^2 would be a"
                " perfect square, but type (9, 3) makes h_k3 = 27"
            )
        if reasons:
            return replace(
                v,
                status=VerdictStatus.EXCLUDED,
                reasons=tuple(reasons),
                trace=v.trace + tuple(trace_add),
                h_gamma3=h_gamma3,
                u=u,
                h_k3=h_k3,
            )
        missing = []
        if h_gamma3 is None:
            missing.append("the exact 3-part of the cubic class number")
        if u is None:
            missing.append("the unit index u")
        return replace(
            v,
            trace=v.trace + (f"still needed: {', '.join(missing)}",),
            h_gamma3=h_gamma3,
            u=u,
            h_k3=h_k3,
        )

    # already excluded on form grounds; fold in any supplied data as a note
    if h_k3 is not None and v.predicted_class_group is not None:
        match = "matches" if v.predicted_class_group.order == h_k3 else "conflicts with"
        v = replace(
            v,
            trace=v.trace
            + (
                f"supplied data give h_k3 = {h_k3}, which {match} the"
                f" predicted shape {v.predicted_class_group}",
            ),
        )
    return replace(v, h_gamma3=h_gamma3, u=u, h_k3=h_k3)


def scan(max_d: int) -> list[Verdict]:
    """Classify every cube-free radicand 2 <= d <= max_d (no external data).

    The candidate set is exactly {p, p^2 <= max_d : p prime, p = 1 (mod 9)}.
    """
    if max_d < 2:
        raise ValueError(f"scan bound must be >= 2, got {max_d}")
    flags = cube_free_sieve(max_d)
    return [necessary_form(d) for d in range(2, max_d + 1) if flags[d]]
