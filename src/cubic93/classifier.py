"""Decide for which radicands d the 3-class group of Q(cbrt(d), zeta_3)
can be, or certainly is, of type (9, 3).

The necessary-form analysis is purely arithmetic: it eliminates every shape
of d except d = p^e with p = 1 (mod 9).  The outcome is decided from the
mod-9 counts of d alone, by the first exclusion argument that applies in a
fixed order, and the branch that decides it also writes its trace line and
reason.  A few hundred count signatures cover every radicand, so that text
is written once per signature, and a verdict fills in only the factors of d
and its primes p and q; d = p^e with p = 4 or 7 (mod 9) adds (3/p)_3.

Certification needs two external inputs that the library never computes
itself, the exact 3-part h of the class number of the cubic field and the
unit index u of the sextic field: with h = 9 and u = 1 the verdict
upgrades to a certified type (9, 3); with h != 9 or u = 3 it flips to a
data-backed exclusion.

Exclusion reasons carry a `conjectural` flag: the eliminations for
d = p^e, p = 4 or 7 (mod 9) rest on a published conjecture about the cubic
residue symbol (3/p)_3, while every other branch is theorem-backed.
"""

from __future__ import annotations

import functools
import gc
import math
import reprlib
from collections.abc import Iterator
from enum import Enum
from typing import NamedTuple

from ._intmath import _PRINT_BITS, _shown, is_prime, three_part
from .eisenstein import CubicCharacterValue, _split_pair
from .radicand import GerthForm, _cube_free_forms, gerth_decompose, normalize
from .ramification import QStar, _ambiguous_rank


class ClassGroupShape(NamedTuple("ClassGroupShape", [("orders", tuple[int, ...])])):
    """An abelian 3-group given by its cyclic orders, largest first.

    __new__ checks the orders; _make and _replace skip it, and nothing calls
    them on a shape."""

    __slots__ = ()

    def __new__(cls, orders: tuple[int, ...]) -> "ClassGroupShape":
        for n in orders:
            if n < 2:
                raise ValueError(f"cyclic order {_shown(n)} is not a group order >= 2")
            if three_part(n) != n:
                raise ValueError(f"cyclic order {_shown(n)} is not a power of 3")
        if tuple(sorted(orders, reverse=True)) != orders:
            raise ValueError(f"orders {reprlib.repr(orders)} must be non-increasing")
        return super().__new__(cls, orders)

    @classmethod
    def of(cls, *orders: int) -> "ClassGroupShape":
        return cls(tuple(orders))

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    def __str__(self) -> str:
        if not self.orders:
            return "trivial"
        return " x ".join(f"Z/{n}" for n in self.orders)


def _named(value: int | ClassGroupShape) -> str:
    """A value in a short phrase: an int by _shown, a shape past 100 characters by its
    orders, and one with an order that CPython cannot print by its size."""
    if isinstance(value, int):
        return _shown(value)
    if (top := max(value.orders, default=1)).bit_length() > _PRINT_BITS:
        k = len(value.orders)
        return f"a shape with {k} cyclic factor{'s' * (k > 1)}, the largest of order {_shown(top)}"
    return text if len(text := str(value)) <= 100 else f"orders {reprlib.repr(value.orders)}"


TYPE_9_3 = ClassGroupShape.of(9, 3)
CYCLIC_9 = ClassGroupShape.of(9)
_CYCLIC_3 = ClassGroupShape.of(3)
_ELEMENTARY_3_3 = ClassGroupShape.of(3, 3)
#: the largest max_d of scan: 437 MiB for its 831 909 verdicts, 0.54 KiB each
_SCAN_LIST_LIMIT = 10**6


def hk_from_hgamma(h_gamma: int, u: int) -> int:
    """h_k = (u/3) * h_gamma^2 for the sextic field; must come out integral."""
    if u not in (1, 3):
        raise ValueError(f"unit index must be 1 or 3, got {_shown(u)}")
    if h_gamma < 1:
        raise ValueError(f"class number must be positive, got {_shown(h_gamma)}")
    num = u * h_gamma * h_gamma
    if num % 3 != 0:
        raise ValueError(f"(u/3)*h^2 = {_shown(num)}/3 is not an integer")
    return num // 3


class EquivalenceResult(NamedTuple):
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
        raise ValueError(f"unit index must be 1 or 3, got {_shown(u)}")
    if direction == "forward":
        if c_k is None:
            raise ValueError("forward direction needs the sextic shape c_k")
        if c_k != TYPE_9_3:
            return EquivalenceResult(
                applicable=False,
                consistent=True,
                c_k=c_k,
                c_gamma=None,
                u=None,
                trace=(f"the equivalence governs type (9, 3) only, not {_named(c_k)}",),
            )
        trace = [
            "h_k3 = 27 and h_k3 = (u/3) * h_gamma3^2 force u = 1: with u = 3"
            " the order 27 would be a perfect square",
            "then h_gamma3^2 = 81, so h_gamma3 = 9",
            "tau splits C_k3 into fixed and inverted parts with |C^-| = 3",
            "C^+ is the cubic field's part, cyclic of order 9",
        ]
        # the derivation always gives (Z/9, u = 1); supplied data can only conflict
        conflict = None
        if u == 3:
            conflict = "supplied u = 3 contradicts the derived u = 1"
        elif c_gamma is not None and c_gamma != CYCLIC_9:
            conflict = f"supplied cubic shape {_named(c_gamma)} contradicts Z/9"
        return EquivalenceResult(
            applicable=True,
            consistent=conflict is None,
            c_k=c_k,
            c_gamma=CYCLIC_9,
            u=1,
            trace=tuple(trace if conflict is None else trace + [conflict]),
        )

    if direction == "backward":
        if c_gamma is None or u is None:
            raise ValueError("backward direction needs c_gamma and u")
        certified = c_gamma == CYCLIC_9 and u == 1
        return EquivalenceResult(
            applicable=True,
            consistent=True,
            c_k=TYPE_9_3 if certified else None,
            c_gamma=c_gamma,
            u=u,
            trace=(
                "|C_k3| = (1/3) * 9^2 = 27",
                "C_k3 = C_gamma3 x C^- with |C^-| = 3",
                "hence C_k3 = Z/9 x Z/3",
            ) if certified else (
                f"(c_gamma, u) = ({_named(c_gamma)}, {u}) does not satisfy"
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


class Reason(NamedTuple):
    code: ReasonCode
    detail: str
    conjectural: bool = False


class Verdict(NamedTuple):
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
        """The fields by name and in order, with trace moved last: an enum
        gives its value, form its name, and a record its own JSON shape."""
        out = {k: getattr(x, "value", x) for k, x in self._asdict().items()}
        del out["trace"]
        g = self.decomposition
        out.update(
            form=self.form.name,
            reasons=[dict(r._asdict(), code=r.code.value) for r in self.reasons],
            decomposition={
                "e": g.e, **{k: [list(x) for x in c] for k, c in zip(g._fields[2:], g[2:])},
                "v": g.v, "w": g.w, "I": g.I, "J": g.J,
            },
            trace=list(self.trace),
        )
        for key in ("class_group", "predicted_class_group"):
            if out[key] is not None:
                out[key] = list(out[key].orders)
        return out


def necessary_form(d: int) -> Verdict:
    """Run the arithmetic elimination pipeline on a cube-free d >= 2.

    Returns CANDIDATE_NEEDS_DATA exactly for d = p^e with p = 1 (mod 9);
    everything else is EXCLUDED with the first applicable reason, in the
    fixed order: no split prime; several split primes; then the five-form
    case analysis for exactly one split prime.  The outcome, the count t,
    q* and the ambiguous rank are decided from the mod-9 counts of d alone,
    and so is the trace text, up to the primes it names; no prime is factored
    in Z[w] (that is the ramify report's job).
    """
    return _necessary_form(gerth_decompose(d))


class _Decision(NamedTuple):
    """What a signature decides, with its trace line and reasons."""

    code: ReasonCode | None
    form: FormClass
    status: VerdictStatus
    t: int
    q_star: QStar
    sigma_rank: int | None
    counts: str  # the "counts:" trace line
    # the code's trace line; when named, {factors}, {p} and {q} are left open
    line: str
    named: bool
    reasons: tuple[Reason, ...]
    predicted: ClassGroupShape | None


@functools.lru_cache(maxsize=None)
def _decision(sig: tuple[int, ...]) -> _Decision:
    """Decide and explain a signature once: the first exclusion that applies,
    or None, its form, its trace line and its reason.

    The outcome reads only the counts v, w, I, J, e and d mod 9, never a
    prime; p and q mod 9 enter only the text of RANK_CASE_EXHAUSTION.  A
    line that names the radicand is kept as a template, so a verdict only
    fills in {factors}, {p} and {q}.  CUBIC_SYMBOL_CONJECTURE is the one
    code whose text is left to the verdict: it reads (3/p)_3.
    """
    v, w, I, J, e, d9, p9, q9 = sig  # noqa: E741
    _, t, q_star, sigma_rank = _ambiguous_rank(v, w, I, J, e, d9)
    named, detail, predicted = False, None, None
    # (a) no prime = 1 (mod 3) divides d; (b) two or more do
    if w == 0:
        code, form = ReasonCode.NO_SPLIT_PRIME, FormClass.OTHER
        line = (
            "no prime = 1 (mod 3) divides d, so the sextic 3-class group is"
            " the square C x C of the cubic one; its order is an even power"
            " of 3 and can never be 27"
        )
        detail = "w = 0 forces C_k3 = C x C"
    elif w >= 2:
        code, form = ReasonCode.MULTIPLE_SPLIT_PRIMES, FormClass.OTHER
        line = (
            f"w = {w} primes = 1 (mod 3) divide d; type (9, 3) would make"
            " the cubic 3-class group cyclic of order 9, whose Hilbert"
            " 3-class field has a single degree-3 step over the cubic field,"
            " yet the genus field would already contain two distinct ones"
        )
        detail = f"w = {w} >= 2 contradicts a cyclic Z/9 cubic 3-class group"
    # exactly one p = 1 (mod 3) from here on, so p = 1 (mod 9) reads v == 1
    elif J == 0 and e == 0 and v == 1:
        code, form, named = None, FormClass.P_1MOD9, True
        line = (
            "d = {factors} with {p} = 1 (mod 9): the one"
            " admissible shape; certification needs the exact 3-part of"
            " the cubic class number and the unit index"
        )
    elif J == 0 and e == 0:
        code, form, line = ReasonCode.CUBIC_SYMBOL_CONJECTURE, FormClass.P_47MOD9, ""
    elif J == 0 and v == 1:
        code, form, named = ReasonCode.THREE_TIMES_SPLIT_RANK, FormClass.THREE_P_1MOD9, True
        line = (
            f"3 and {{p}} = 1 (mod 9) ramify: t = {t} primes of k0"
            " (lam and the two above p), all non-lam ones 1 mod lam^3,"
            f" so q* = 1 and the ambiguous rank is {sigma_rank};"
            " type (9, 3) needs ambiguous rank 1"
        )
        detail = f"t = {t}, q* = 1, ambiguous rank {sigma_rank} != 1"
    elif J == 0:
        code, form = ReasonCode.THREE_TIMES_NONRESIDUE_CYCLIC, FormClass.THREE_P_47MOD9
        named, predicted = True, _CYCLIC_3
        line = (
            "d = {factors} with {p} = 4 or 7 (mod 9): for this shape"
            " the sextic 3-class group is cyclic of order 3, not (9, 3)"
        )
        detail = "C_k3 is cyclic of order 3 for 3^e * p^e1 with p = 4 or 7 (mod 9)"
    # J >= 1: mixed split/inert forms; with J == 1, q = 8 (mod 9) reads I == 1
    elif J == 1 and e == 0 and d9 in (1, 8) and v == 1 and I == 1:
        code, form, named = ReasonCode.SPLIT_INERT_RANK, FormClass.PQ_1MOD9, True
        line = (
            "d = +-1 (mod 9) keeps 3 unramified; {p} splits and {q} stays"
            f" inert, so t = {t}; p = 1 (mod 9) and q = 8 (mod 9) put"
            " every ramified prime of k0 at 1 mod lam^3, so q* = 1 and the"
            f" ambiguous rank is {sigma_rank}; type (9, 3) needs rank 1"
        )
        detail = f"t = {t}, q* = 1, ambiguous rank {sigma_rank} != 1"
    else:
        code, form = ReasonCode.RANK_CASE_EXHAUSTION, FormClass.OTHER
        if 2 * w + J > 3:
            line = (
                f"2w + J = {2 * w + J} > 3, but an ambiguous rank of 1 allows"
                f" only 2w + J in {{1, 2, 3}}; here t = {t} >= 4 already"
                " forces ambiguous rank >= 2"
            )
            detail = f"2w + J = {2 * w + J} outside {{1, 2, 3}}; t = {t}"
        elif d9 not in (1, 8):
            line = (
                f"d != +-1 (mod 9), so 3 ramifies as well: t = {t} >= 4"
                " primes of k0 ramify, forcing ambiguous rank >= 2; type (9, 3)"
                " needs rank 1"
            )
            detail = f"t = {t} >= 4 forces ambiguous rank >= 2"
        else:
            line = (
                f"d = +-1 (mod 9) with one split and one inert prime, but"
                f" p = {p9} and q = {q9} (mod 9) instead of p = 1 and"
                " q = 8: this residue pattern lies outside every admissible"
                " shape of the classification"
            )
            detail = (
                f"residues (p, q) = ({p9}, {q9}) (mod 9) outside the"
                " admissible two-prime form"
            )
    return _Decision(
        code=code,
        form=form,
        status=VerdictStatus.CANDIDATE_NEEDS_DATA if code is None else VerdictStatus.EXCLUDED,
        t=t,
        q_star=q_star,
        sigma_rank=sigma_rank,
        counts=f"counts: v = {v}, w = {w}, I = {I}, J = {J}, e = {e}; d = {d9} (mod 9)",
        line=line,
        named=named,
        reasons=() if detail is None else (Reason(code, detail),),
        predicted=predicted,
    )


def _candidate_forms(n: int) -> Iterator[GerthForm]:
    """The form of each d <= n that _decision admits, ascending: d = p and p^2,
    p prime = 1 (mod 9).  All are 1 (mod 18), as is p^2 for p = 17 (mod 18)."""
    for d in range(19, n + 1, 18):
        if is_prime(d):
            yield GerthForm(d, 0, ((d, 1),), (), (), ())
        elif (p := math.isqrt(d)) * p == d and p % 18 == 1 and is_prime(p):
            yield GerthForm(d, 0, ((p, 2),), (), (), ())


#: (3/p)_3 = w^(2b/3) at the primary prime a + b*w above p (Ireland & Rosen,
#: ch. 9): by b/3 mod 3, the symbol, the shape that the conjecture predicts,
#: and the text after "(3/p)_3 = " in the trace line and in the reason
_SYMBOL_OF_THREE = tuple(
    (symbol, shape, f"{symbol.value}{'' if symbol is CubicCharacterValue.ONE else ' != 1'}, and for"
     f" p = 4 or 7 (mod 9) the conjectural classification then gives C_k3 = {shape}, not (9, 3)",
     f"{symbol.value}: predicted shape {shape}")
    for symbol, shape in (
        (CubicCharacterValue.ONE, _ELEMENTARY_3_3),
        (CubicCharacterValue.OMEGA_SQUARED, _CYCLIC_3),
        (CubicCharacterValue.OMEGA, _CYCLIC_3),
    )
)

def _necessary_form(g: GerthForm) -> Verdict:
    # one walk over the factors writes their text and multiplies up b in
    # d = a*b^2, so the canonical radicand needs no second walk (g.canonical)
    d, e, c1, c47, c8, c25 = g
    # the key is (v, w, I, J, e, d % 9, p % 9, q % 9), with p and q the first
    # split and inert primes (0 where there is none): all that an outcome, and
    # the text of one that names no prime, depend on.  A class1mod9 prime is
    # 1 (mod 9) and a class8mod9 prime 8, so only the other two are read.
    v, I = len(c1), len(c8)  # noqa: E741
    code, form, status, t, q_star, sigma_rank, counts, line, named, reasons, predicted = _decision((
        v, v + len(c47), I, I + len(c25), e, d % 9,
        1 if c1 else (c47[0][0] % 9 if c47 else 0),
        8 if c8 else (c25[0][0] % 9 if c25 else 0),
    ))
    parts = [f"3^{e}" if e > 1 else "3"] if e else []
    b = 3 if e == 2 else 1
    for p, k in c1 + c47 + c8 + c25:
        if k > 1:
            parts.append(f"{p}^{k}")
            b *= p
        else:
            parts.append(f"{p}")
    factors = " * ".join(parts)
    canonical = d if b == 1 else min(d, (d // (b * b)) ** 2 * b)  # min(a*b^2, a^2*b)
    symbol = None
    if named:  # p is the one split prime; only SPLIT_INERT_RANK names q = 8 (mod 9)
        line = line.format(factors=factors, p=(c1 or c47)[0][0], q=c8[0][0] if c8 else None)
    elif code is ReasonCode.CUBIC_SYMBOL_CONJECTURE:
        # the symbol only explains the outcome and names the predicted shape;
        # p, the one split prime, is proven prime
        p = c47[0][0]
        symbol, predicted, tail, detail = _SYMBOL_OF_THREE[_split_pair(p)[1] // 3 % 3]
        line = f"(3/{p})_3 = {tail}"
        reasons = (Reason(code, f"(3/{p})_3 = {detail}", True),)
    # tuple.__new__ skips Verdict.__new__, and with it the check that the row
    # has all 16 fields: tests/test_classifier.py checks class and length
    return tuple.__new__(Verdict, (
        d, canonical, form, status, reasons, (f"d = {d} = {factors}", counts, line),
        g, t, q_star, sigma_rank, None, None, None, None, predicted, symbol,
    ))


def classify(d: int, h_gamma3: int | None = None, u: int | None = None) -> Verdict:
    """Classify any integer radicand d >= 2, with optional external data.

    d is normalised first (cube factors are stripped, perfect cubes are
    rejected).  h_gamma3 is the exact 3-part of the cubic field's class
    number; u is the unit index of the sextic field, 1 or 3.
    """
    # then h_k3 <= h_gamma3^2 fits in _PRINT_BITS, so every output can print it
    if h_gamma3 is not None and h_gamma3.bit_length() > _PRINT_BITS // 2:
        raise ValueError(f"h_gamma3 must have at most {_PRINT_BITS // 2} bits, got {_shown(h_gamma3)}")
    if h_gamma3 is not None and h_gamma3 < 1:
        raise ValueError(f"h_gamma3 must be positive, got {_shown(h_gamma3)}")
    if h_gamma3 is not None and three_part(h_gamma3) != h_gamma3:
        raise ValueError(f"h_gamma3 must be a power of 3, got {_shown(h_gamma3)}")
    if u is not None and u not in (1, 3):
        raise ValueError(f"unit index must be 1 or 3, got {_shown(u)}")

    form = normalize(d)
    v = _necessary_form(form)
    h_k3 = hk_from_hgamma(h_gamma3, u) if (h_gamma3 is not None and u is not None) else None

    status, reasons, class_group = v.status, list(v.reasons), None
    trace = list(v.trace)
    if form.d != d:
        trace.insert(0, f"stripped a cube factor: {d} defines the same field as {form.d}")
    if v.status is VerdictStatus.CANDIDATE_NEEDS_DATA and h_gamma3 == 9 and u == 1:
        status, class_group = VerdictStatus.CERTIFIED_9_3, TYPE_9_3
        trace += [
            "h_gamma3 = 9 and u = 1: h_k3 = (1/3) * 81 = 27, exactly"
            " divisible by 27",
            "9 exactly divides the cubic class number, so the sextic"
            " 3-class group has rank 2 (Calegari-Emerton criterion)",
            "a rank-2 group of order 27 containing a cyclic part of"
            " order 9 is Z/9 x Z/3: certified type (9, 3)",
        ]
    elif v.status is VerdictStatus.CANDIDATE_NEEDS_DATA:
        if h_gamma3 is not None and h_gamma3 != 9:
            reasons.append(
                Reason(
                    ReasonCode.DATA_H_GAMMA3,
                    f"h_gamma3 = {_shown(h_gamma3)} != 9, so the cubic 3-class group"
                    " cannot be cyclic of order 9",
                )
            )
            trace.append(
                f"supplied h_gamma3 = {_shown(h_gamma3)}: type (9, 3) requires the"
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
            trace.append(
                "supplied u = 3: h_k3 = (3/3) * h_gamma3^2 would be a"
                " perfect square, but type (9, 3) makes h_k3 = 27"
            )
        if reasons:
            status = VerdictStatus.EXCLUDED
        else:
            missing = []
            if h_gamma3 is None:
                missing.append("the exact 3-part of the cubic class number")
            if u is None:
                missing.append("the unit index u")
            trace.append(f"still needed: {', '.join(missing)}")
    elif h_k3 is not None and v.predicted_class_group is not None:
        # already excluded on form grounds; fold in any supplied data as a note
        match = "matches" if v.predicted_class_group.order == h_k3 else "conflicts with"
        trace.append(
            f"supplied data give h_k3 = {_shown(h_k3)}, which {match} the"
            f" predicted shape {v.predicted_class_group}"
        )
    return v._replace(
        input_d=d,
        status=status,
        reasons=tuple(reasons),
        trace=tuple(trace),
        h_gamma3=h_gamma3,
        u=u,
        h_k3=h_k3,
        class_group=class_group,
    )


def scan(max_d: int) -> list[Verdict]:
    """Classify every cube-free radicand 2 <= d <= max_d (no external data).

    The candidate set is exactly {p, p^2 <= max_d : p prime, p = 1 (mod 9)}.
    The radicands come from one sieve, so none is factored; a max_d
    outside [2, _SCAN_LIST_LIMIT] raises ValueError before the sieve starts.
    """
    if max_d > _SCAN_LIST_LIMIT:
        raise ValueError(
            f"scan bound must be <= {_SCAN_LIST_LIMIT}, got {_shown(max_d)}: scan returns one"
            " verdict per radicand; `cubic93 scan --max` streams bounds up to 10^8"
        )
    # The collector is off while the list is built.  A GerthForm and a Verdict
    # per radicand are tuple subclasses, which the collector never untracks,
    # so each of its older-generation passes during a scan would walk every
    # record kept so far again, and find nothing: the records hold only ints,
    # strings, enums and tuples, so they form no cycle (tests/test_classifier.py
    # checks that a scan leaves none).  Reference counting still frees what the
    # build drops, and the list returned gets one young-generation pass after
    # the call.  The collector is turned back on also when the scan raises, but
    # only if it was on at the start.  The switch is process-wide: cyclic
    # garbage that another thread makes meanwhile waits until the list is
    # built.  A contextlib context manager would allocate in its exit, after
    # the collector is back on, and so run that young pass inside the call.
    enabled = gc.isenabled()
    gc.disable()
    try:
        # each verdict takes its form's place: one list of pointers, not two
        verdicts = _cube_free_forms(max_d)
        for i, g in enumerate(verdicts):
            verdicts[i] = _necessary_form(g)
        return verdicts
    finally:
        if enabled:
            gc.enable()
