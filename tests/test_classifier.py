"""The decision engine: forms, eliminations, certification and scanning."""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import json
import operator
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubic93._intmath
import cubic93.classifier
import cubic93.ramification
from cubic93.classifier import (
    ClassGroupShape,
    FormClass,
    ReasonCode,
    Verdict,
    VerdictStatus,
    _candidate_forms,
    _decision,
    _necessary_form,
    classify,
    hk_from_hgamma,
    necessary_form,
    scan,
    type93_equivalence,
)
from cubic93.eisenstein import CubicCharacterValue, factor_rational_prime, rational_cubic_symbol
from cubic93.genus import period_polynomial
from cubic93.radicand import GerthForm, _cube_free_count, _cube_free_forms, normalize
from cubic93.ramification import ramify
from oracles import _signature, cube_free_sieve, necessary_form_by_properties, primes_below

LIMIT = 10_000


# ------------------------------------------------------------------ h relation


def test_hk_from_hgamma_values():
    assert hk_from_hgamma(9, 1) == 27
    assert hk_from_hgamma(3, 3) == 9
    assert hk_from_hgamma(9, 3) == 81


def test_hk_from_hgamma_errors():
    with pytest.raises(ValueError):
        hk_from_hgamma(9, 2)
    with pytest.raises(ValueError):
        hk_from_hgamma(2, 1)  # 4/3 is not an integer
    with pytest.raises(ValueError):
        hk_from_hgamma(0, 1)


# ----------------------------------------------------------------- equivalence


def test_equivalence_forward():
    res = type93_equivalence("forward", c_k=ClassGroupShape.of(9, 3))
    assert res.applicable and res.consistent
    assert res.c_gamma == ClassGroupShape.of(9)
    assert res.u == 1
    assert any("|C^-| = 3" in line for line in res.trace)
    assert any("cyclic of order 9" in line for line in res.trace)


def test_equivalence_backward():
    res = type93_equivalence("backward", c_gamma=ClassGroupShape.of(9), u=1)
    assert res.applicable and res.consistent
    assert res.c_k == ClassGroupShape.of(9, 3)
    assert any("27" in line for line in res.trace)


def test_equivalence_not_applicable_off_type():
    res = type93_equivalence("forward", c_k=ClassGroupShape.of(3, 3))
    assert not res.applicable


def test_equivalence_contradiction_on_u_three():
    res = type93_equivalence("forward", c_k=ClassGroupShape.of(9, 3), u=3)
    assert res.applicable and not res.consistent
    assert any("square" in line for line in res.trace)


def test_equivalence_backward_negative_case():
    res = type93_equivalence("backward", c_gamma=ClassGroupShape.of(9), u=3)
    assert res.c_k is None
    res = type93_equivalence("backward", c_gamma=ClassGroupShape.of(3), u=1)
    assert res.c_k is None


def test_equivalence_rejects_bad_inputs():
    with pytest.raises(ValueError):
        type93_equivalence("sideways", c_k=ClassGroupShape.of(9, 3))
    with pytest.raises(ValueError):
        type93_equivalence("forward")
    with pytest.raises(ValueError):
        type93_equivalence("backward", c_gamma=ClassGroupShape.of(9), u=2)
    for c_gamma in (None, ClassGroupShape.of(3)):
        with pytest.raises(ValueError, match="unit index"):
            type93_equivalence(
                "forward", c_k=ClassGroupShape.of(9, 3), c_gamma=c_gamma, u=2
            )


@pytest.mark.parametrize(
    "call",
    [
        lambda u: classify(199, 9, u),
        lambda u: type93_equivalence("forward", c_k=ClassGroupShape.of(9, 3), u=u),
        lambda u: type93_equivalence("backward", c_gamma=ClassGroupShape.of(9), u=u),
    ],
    ids=["classify", "forward", "backward"],
)
def test_a_unit_index_past_4300_digits_is_named_by_its_size(call):
    # str() of 10^5000 raises CPython's int-limit error, which would replace the message
    with pytest.raises(ValueError) as info:
        call(10**5000)
    assert str(info.value) == "unit index must be 1 or 3, got a 16610-bit integer"


@pytest.mark.parametrize(
    "call, n",
    [
        (scan, 10**5000),
        (scan, -10**5000),
        (normalize, -10**5000),
        (normalize, 10**5001),  # a perfect cube
        (classify, -10**5000),
        (necessary_form, 16 * 10**5000),  # not cube-free
        (_cube_free_count, 10**5000),
        (_cube_free_count, -10**5000),
        (factor_rational_prime, 2 * 10**5000),
        (functools.partial(rational_cubic_symbol, 3), 2 * 10**5000),
        (lambda a: rational_cubic_symbol(a, 7), 7 * 10**5000),  # 7 divides it
        (period_polynomial, 2 * 10**5000 + 2),
    ],
    ids=[
        "scan", "scan-negative", "normalize-negative", "normalize-cube", "classify",
        "necessary_form", "cube_free_count", "cube_free_count-negative",
        "factor_rational_prime", "rational_cubic_symbol-modulus", "rational_cubic_symbol-multiple",
        "period_polynomial",
    ],
)
def test_an_argument_past_4300_digits_is_named_by_its_size(call, n):
    # str() of such an integer raises CPython's int-limit error, which would replace the message
    with pytest.raises(ValueError) as info:
        call(n)
    message = str(info.value)
    assert "Exceeds the limit" not in message and len(message) < 200
    assert f"a {n.bit_length()}-bit integer" in message


def test_equivalence_names_a_shape_past_100_characters_by_its_orders():
    cut = "orders (3, 3, 3, 3, 3, 3, ...)"
    # 17 factors print in 99 characters, 18 in 105; 10 000 printed lines of 60 000 and more;
    # str() of 3^10000 raises CPython's int-limit error, which would replace the trace
    for shape, named in (
        (ClassGroupShape((3,) * 17), " x ".join(["Z/3"] * 17)),
        (ClassGroupShape((3,) * 18), cut),
        (ClassGroupShape((3,) * 10_000), cut),
        (ClassGroupShape.of(3**10_000), "a shape with 1 cyclic factor, the largest of order a 15850-bit integer"),
    ):
        traces = [
            type93_equivalence("forward", c_k=ClassGroupShape.of(9, 3), c_gamma=shape).trace,
            type93_equivalence("backward", c_gamma=shape, u=1).trace,
            type93_equivalence("forward", c_k=shape).trace,
        ]
        assert [t[-1] for t in traces] == [
            f"supplied cubic shape {named} contradicts Z/9",
            f"(c_gamma, u) = ({named}, 1) does not satisfy (Z/9, 1), so the sextic"
            " 3-class group is not of type (9, 3)",
            f"the equivalence governs type (9, 3) only, not {named}",
        ]
        assert max(len(line) for t in traces for line in t) < 200


def test_class_group_shape_validation():
    with pytest.raises(ValueError):
        ClassGroupShape.of(3, 9)  # must be non-increasing
    with pytest.raises(ValueError):
        ClassGroupShape.of(6)  # not a power of 3
    with pytest.raises(ValueError):
        ClassGroupShape.of(1)
    assert ClassGroupShape.of(9, 3).order == 27
    assert ClassGroupShape.of().order == 1


# -------------------------------------------------------------- necessary form


def test_candidate_199():
    v = necessary_form(199)
    assert v.status is VerdictStatus.CANDIDATE_NEEDS_DATA
    assert v.form is FormClass.P_1MOD9
    assert v.d == 199
    assert v.reasons == ()


def test_candidate_square_maps_to_canonical_field():
    v = necessary_form(39601)
    assert v.status is VerdictStatus.CANDIDATE_NEEDS_DATA
    assert v.input_d == 39601 and v.d == 199


def test_exclusion_61_conjectural_with_symbol():
    v = necessary_form(61)
    assert v.status is VerdictStatus.EXCLUDED
    assert v.form is FormClass.P_47MOD9
    (reason,) = v.reasons
    assert reason.code is ReasonCode.CUBIC_SYMBOL_CONJECTURE
    assert reason.conjectural
    assert v.symbol_three is CubicCharacterValue.ONE
    assert v.predicted_class_group == ClassGroupShape.of(3, 3)


def test_exclusion_7_symbol_not_one():
    v = necessary_form(7)
    assert v.form is FormClass.P_47MOD9
    assert v.symbol_three is not CubicCharacterValue.ONE
    assert v.predicted_class_group == ClassGroupShape.of(3)


def test_exclusion_42_by_rank_cases():
    v = necessary_form(42)
    assert v.status is VerdictStatus.EXCLUDED
    (reason,) = v.reasons
    assert reason.code is ReasonCode.RANK_CASE_EXHAUSTION
    assert v.t == 4
    assert "t = 4" in reason.detail


def test_exclusion_597_three_times_split():
    v = necessary_form(597)  # 3 * 199
    assert v.form is FormClass.THREE_P_1MOD9
    (reason,) = v.reasons
    assert reason.code is ReasonCode.THREE_TIMES_SPLIT_RANK
    assert not reason.conjectural
    assert v.sigma_rank == 2


def test_exclusion_21_three_times_nonresidue():
    v = necessary_form(21)  # 3 * 7
    assert v.form is FormClass.THREE_P_47MOD9
    (reason,) = v.reasons
    assert reason.code is ReasonCode.THREE_TIMES_NONRESIDUE_CYCLIC
    assert v.predicted_class_group == ClassGroupShape.of(3)


def test_exclusion_3383_split_inert_pair():
    v = necessary_form(3383)  # 199 * 17 = -1 (mod 9)
    assert v.form is FormClass.PQ_1MOD9
    (reason,) = v.reasons
    assert reason.code is ReasonCode.SPLIT_INERT_RANK
    assert v.sigma_rank == 2


def test_exclusion_no_split_prime():
    for d in (2, 10, 3, 9, 170):  # 170 = 2 * 5 * 17
        v = necessary_form(d)
        assert v.status is VerdictStatus.EXCLUDED
        assert v.reasons[0].code is ReasonCode.NO_SPLIT_PRIME


def test_exclusion_two_split_primes():
    v = necessary_form(91)  # 7 * 13
    assert v.reasons[0].code is ReasonCode.MULTIPLE_SPLIT_PRIMES
    v = necessary_form(1729)  # 7 * 13 * 19
    assert v.reasons[0].code is ReasonCode.MULTIPLE_SPLIT_PRIMES


def test_exclusion_residual_two_prime_residues():
    v = necessary_form(26)  # 13 * 2 = -1 (mod 9) but residues (4, 2)
    assert v.status is VerdictStatus.EXCLUDED
    (reason,) = v.reasons
    assert reason.code is ReasonCode.RANK_CASE_EXHAUSTION
    assert "residues" in reason.detail


def test_soundness_against_independent_filter():
    primes = set(primes_below(LIMIT + 1))
    expected = {
        x
        for p in primes
        if p % 9 == 1
        for x in (p, p * p)
        if x <= LIMIT
    }
    got = {
        v.input_d
        for v in scan(LIMIT)
        if v.status is VerdictStatus.CANDIDATE_NEEDS_DATA
    }
    assert got == expected


def test_reason_consistency_invariants():
    for v in scan(2000):
        if not v.reasons:
            continue
        code = v.reasons[0].code
        if code in (ReasonCode.THREE_TIMES_SPLIT_RANK, ReasonCode.SPLIT_INERT_RANK):
            assert ramify(v.input_d).sigma_rank == 2
            assert v.sigma_rank == 2
        if code is ReasonCode.CUBIC_SYMBOL_CONJECTURE:
            p = v.decomposition.split_primes[0][0]
            assert v.symbol_three is rational_cubic_symbol(3, p)
            assert v.reasons[0].conjectural
        else:
            assert not v.reasons[0].conjectural


def test_decision_is_a_function_of_the_mod9_counts(monkeypatch):
    # _decision must not need a prime: the P_47MOD9 symbol only explains its outcome
    def no_symbol(p: int) -> None:
        raise AssertionError(f"_decision evaluated a cubic residue symbol at p = {p}")

    verdicts = scan(20_000)
    monkeypatch.setattr(cubic93.classifier, "_split_pair", no_symbol)
    by_signature: dict[tuple, set] = {}
    for v in verdicts:
        g = v.decomposition
        code = v.reasons[0].code if v.reasons else None
        assert _decision(_signature(g)).code is code, v.input_d
        signature = (g.v, g.w, g.I, g.J, g.e, g.d % 9)
        by_signature.setdefault(signature, set()).add((v.form, v.status, code))
    assert len(verdicts) == 16_638
    mixed = {sig: outcomes for sig, outcomes in by_signature.items() if len(outcomes) > 1}
    assert not mixed


def _consistent_signatures():
    """Every signature (v, w, I, J, e, d % 9, p % 9, q % 9) that a cube-free
    d can have with w, J <= 6: v <= w and I <= J; d % 9 a unit when
    e = 0, 3 or 6 when e = 1, 0 when e = 2; p % 9 is 1 when v > 0, 4 or 7
    when only class47mod9 primes split, else 0, and q % 9 likewise."""

    def residues(n_one: int, n_all: int, one: int, others: tuple[int, int]):
        return (one,) if n_one else (others if n_all else (0,))

    for w, J, e in itertools.product(range(7), range(7), range(3)):
        if w == J == e == 0:  # d = 1
            continue
        for v, I in itertools.product(range(w + 1), range(J + 1)):  # noqa: E741
            for d9 in ((1, 2, 4, 5, 7, 8), (3, 6), (0,))[e]:
                for p9 in residues(v, w, 1, (4, 7)):
                    for q9 in residues(I, J, 8, (2, 5)):
                        yield (v, w, I, J, e, d9, p9, q9)


#: sha256 of every field of every _Decision over _consistent_signatures(),
#: recorded before the records became named tuples; it also pins the text of
#: signatures that no golden radicand reaches
_DECISION_TABLE_SHA256 = "7896d9ef08e637da16d8e0e051be204d6f0d0e0bb161a21e9b8eb16edf1f0f2b"


def test_the_elimination_over_its_whole_domain():
    signatures = list(_consistent_signatures())
    assert len(signatures) == len(set(signatures)) == 10_398
    assert {_signature(g) for g in _cube_free_forms(20_000)} <= set(signatures)
    digest = hashlib.sha256()
    outcomes: dict[tuple, set] = {}
    for sig in signatures:
        v, w, I, J, e, d9, _, _ = sig  # noqa: E741
        dec = _decision(sig)
        # counts above 2 change no outcome, so the bound 6 covers every d
        clamped = tuple(min(n, 2) for n in sig[:4]) + sig[4:]
        outcomes.setdefault(clamped, set()).add((dec.code, dec.form, dec.status))
        # the one shape left standing: d = p or p^2 with p = 1 (mod 9)
        assert (dec.code is None) == ((v, w, J, e) == (1, 1, 0, 0)), sig
        # (v, w, I, J, e) of each form that `cubic93 scan` lists undecided
        assert (dec.code is None) == (sig[:5] == (1, 1, 0, 0, 0)), sig
        assert dec.t == (e > 0 or d9 not in (1, 8)) + 2 * w + J, sig
        row = [
            sig, None if dec.code is None else dec.code.value, dec.form.name,
            dec.status.value, dec.t, dec.q_star.name, dec.sigma_rank, dec.counts,
            dec.line, dec.named,
            [[r.code.value, r.detail, r.conjectural] for r in dec.reasons],
            None if dec.predicted is None else dec.predicted.orders,
        ]
        digest.update(json.dumps(row).encode() + b"\n")
    assert all(len(seen) == 1 for seen in outcomes.values())
    assert digest.hexdigest() == _DECISION_TABLE_SHA256


def test_the_listed_candidates_are_the_primes_1_mod_9_and_their_squares():
    sympy = pytest.importorskip("sympy")
    n = 10**7
    # the sieve's primerange, as sympy.primerange alone steps by nextprime
    primes = [p for p in sympy.sieve.primerange(2, n + 1) if p % 9 == 1]
    forms = list(_candidate_forms(n))
    assert [g.d for g in forms] == sorted(primes + [p * p for p in primes if p * p <= n])
    assert all(g == normalize(g.d) for g in forms if g.d < 10**5 or g.class1mod9[0][1] == 2)


#: where the trace line of a verdict names the radicand's primes: "with p =
#: ...", "3 and p = 1 (mod 9) ramify", "p splits and q stays inert", "(3/p)_3"
_NAMED = re.compile(
    r"with (\S+) = |3 and (\S+) = 1 \(mod 9\) ramify"
    r"|(\S+) splits and (\S+) stays inert|\(3/(\S+?)\)_3"
)
#: the one place where a reason names a prime
_SYMBOL = re.compile(r"\(3/(\S+?)\)_3")
_T = re.compile(r"\bt = (\w+)")
#: where the text states the ambiguous rank itself, not the rank (9, 3) needs
_RANK = re.compile(r"ambiguous rank is (\w+)|ambiguous rank (\w+) != 1")
_detail = operator.attrgetter("detail")
#: how many primes the trace line and the reasons of each form name
_NAMED_PER_FORM = {
    FormClass.OTHER: 0, FormClass.P_1MOD9: 1, FormClass.P_47MOD9: 2,
    FormClass.THREE_P_1MOD9: 1, FormClass.THREE_P_47MOD9: 1, FormClass.PQ_1MOD9: 2,
}


@functools.lru_cache(maxsize=4096)
def _text_facts(lines: tuple[str, ...], details: tuple[str, ...]):
    """Every N of a t = N, every stated ambiguous rank, and the named primes,
    in the lines from the decision's trace line on and in the reason
    details.  Cached, because most verdicts share their text with many
    others."""
    text = "\n".join(lines + details)
    ranks = tuple(r for m in _RANK.findall(text) for r in m if r)
    named = [n for m in _NAMED.findall(lines[0]) for n in m if n]
    return tuple(_T.findall(text)), ranks, named + _SYMBOL.findall("\n".join(details))


def assert_trace_matches_record(v: Verdict) -> None:
    """The text of a verdict says what its record holds: the factors of the
    first line multiply back to d, the counts line reads the form's counts,
    every t = N is v.t, every stated ambiguous rank is v.sigma_rank, and
    every named p or q divides d."""
    d, e, c1, c47, c8, c25 = v.decomposition
    # classify puts a note on a stripped cube factor before the factor line
    start = v.input_d != d
    first, counts = v.trace[start : start + 2]
    head, value, factors = first.split(" = ")
    product = 1
    for term in factors.split(" * "):
        base, _, exponent = term.partition("^")
        product *= int(base) ** int(exponent or 1)
    assert (head, int(value), product) == ("d", d, d), first
    v1, I = len(c1), len(c8)  # noqa: E741
    assert counts == (
        f"counts: v = {v1}, w = {v1 + len(c47)}, I = {I}, J = {I + len(c25)},"
        f" e = {e}; d = {d % 9} (mod 9)"
    )
    ts, ranks, named = _text_facts(v.trace[start + 2 :], tuple(map(_detail, v.reasons)))
    for t in ts:
        assert t == str(v.t), (d, t)
    for rank in ranks:
        assert rank == str(v.sigma_rank), (d, rank)
    assert len(named) == _NAMED_PER_FORM[v.form], (d, named)
    for n in map(int, named):
        assert n > 1 and d % n == 0, (d, n)


def test_every_scan_trace_matches_its_record():
    for v in scan(200_000):
        assert_trace_matches_record(v)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=10**12))
def test_every_classify_trace_matches_its_record(d):
    try:
        v = classify(d)
    except ValueError:  # a perfect cube
        return
    assert_trace_matches_record(v)


# --------------------------------------------------------------------- classify


def test_classify_certified_199():
    v = classify(199, 9, 1)
    assert v.status is VerdictStatus.CERTIFIED_9_3
    assert v.class_group == ClassGroupShape.of(9, 3)
    assert v.h_k3 == 27
    assert (v.h_gamma3, v.u) == (9, 1)
    assert any("27" in line for line in v.trace)
    assert any("rank 2" in line for line in v.trace)


def test_classify_without_data_stays_candidate():
    v = classify(199)
    assert v.status is VerdictStatus.CANDIDATE_NEEDS_DATA
    assert v.class_group is None
    assert any("still needed" in line for line in v.trace)


def test_classify_partial_data_stays_candidate():
    assert classify(199, 9, None).status is VerdictStatus.CANDIDATE_NEEDS_DATA
    assert classify(199, None, 1).status is VerdictStatus.CANDIDATE_NEEDS_DATA


def test_classify_excluded_by_h_data():
    v = classify(199, 3, 1)
    assert v.status is VerdictStatus.EXCLUDED
    assert v.reasons[0].code is ReasonCode.DATA_H_GAMMA3


def test_classify_excluded_by_unit_index():
    v = classify(199, 9, 3)
    assert v.status is VerdictStatus.EXCLUDED
    assert any(r.code is ReasonCode.DATA_UNIT_INDEX for r in v.reasons)
    assert any("square" in line for line in v.trace)


def test_classify_61_with_fixture_like_data():
    v = classify(61, 3, 3)
    assert v.status is VerdictStatus.EXCLUDED
    assert v.h_k3 == 9
    assert v.predicted_class_group == ClassGroupShape.of(3, 3)
    assert any("matches" in line for line in v.trace)


def test_classify_validates_data_arguments():
    with pytest.raises(ValueError):
        classify(199, 9, 2)
    with pytest.raises(ValueError):
        classify(199, 5, 1)  # not a power of 3
    with pytest.raises(ValueError):
        classify(199, -9, 1)


def test_classify_strips_cube_factors_with_notice():
    v = classify(8 * 199, 9, 1)
    assert v.input_d == 1592 and v.d == 199
    assert v.status is VerdictStatus.CERTIFIED_9_3
    assert any("stripped" in line for line in v.trace)


def test_classify_rejects_cubes_and_small_d():
    with pytest.raises(ValueError):
        classify(27)
    with pytest.raises(ValueError):
        classify(1)


def test_classify_without_data_adds_only_the_still_needed_line():
    # with no data, classify is necessary_form plus, for a candidate, one line
    still_needed = (
        "still needed: the exact 3-part of the cubic class number, the unit index u"
    )
    flags = cube_free_sieve(2000)
    for d in range(2, 2000):
        if not flags[d]:
            continue
        v, bare = classify(d), necessary_form(d)
        if v.status is VerdictStatus.EXCLUDED:
            assert v == bare, d
            continue
        assert v.status is VerdictStatus.CANDIDATE_NEEDS_DATA, d
        assert v.trace == bare.trace + (still_needed,), d
        got, want = v.to_json_dict(), bare.to_json_dict()
        del got["trace"], want["trace"]
        assert got == want, d


def test_verdicts_and_forms_are_immutable_and_hashable():
    scanned, certified = scan(200)[-1], classify(199, 9, 1)
    # a plain tuple of the same fields would compare equal, so pin the type
    assert type(scanned) is Verdict and type(certified) is Verdict
    for value, field in (
        (scanned, "status"),
        (certified, "class_group"),
        (scanned.decomposition, "d"),
    ):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        hash(value)
    # equal values hash equal: a scan verdict keys the same as a fresh one
    assert scanned.input_d == 199
    assert len({scanned, necessary_form(199)}) == 1


# ------------------------------------------------------------------------ scan


def test_scan_200_candidates_frozen():
    got = [
        v.input_d
        for v in scan(200)
        if v.status is VerdictStatus.CANDIDATE_NEEDS_DATA
    ]
    assert got == [19, 37, 73, 109, 127, 163, 181, 199]


def test_scan_2_is_empty_of_candidates():
    verdicts = scan(2)
    assert [v for v in verdicts if v.status is VerdictStatus.CANDIDATE_NEEDS_DATA] == []


def test_scan_includes_prime_and_square_for_same_field():
    verdicts = {v.input_d: v for v in scan(39601)}
    assert verdicts[199].status is VerdictStatus.CANDIDATE_NEEDS_DATA
    assert verdicts[39601].status is VerdictStatus.CANDIDATE_NEEDS_DATA
    assert verdicts[199].d == verdicts[39601].d == 199


def test_scan_rejects_bad_bound():
    with pytest.raises(ValueError):
        scan(1)


def test_scan_names_its_upper_bound():
    with pytest.raises(ValueError, match=r"10\^8"):
        scan(10**8 + 1)


def test_scan_refuses_a_list_that_would_not_fit_in_memory(monkeypatch):
    # one verdict per radicand is about 0.7 KiB, so 10^6 is the bound;
    # the check runs before the sieve, so this raises at once
    monkeypatch.setattr(cubic93.classifier, "_cube_free_forms", lambda n: pytest.fail("sieved"))
    with pytest.raises(ValueError, match=r"<= 1000000, got 1000001: .*`cubic93 scan"):
        scan(10**6 + 1)


def test_scan_bound_itself_passes(monkeypatch):
    monkeypatch.setattr(cubic93.classifier, "_SCAN_LIST_LIMIT", 199)
    assert scan(199)[-1].input_d == 199
    with pytest.raises(ValueError, match="<= 199, got 200"):
        scan(200)


@pytest.mark.parametrize("enabled", [True, False])
def test_scan_leaves_the_collector_as_it_found_it(enabled):
    # the scan pauses the cyclic collector (classifier.scan)
    try:
        if not enabled:
            gc.disable()
        scan(2000)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_scan_that_raises_leaves_the_collector_as_it_found_it(monkeypatch, enabled):
    calls = itertools.count()

    def failing(g):
        if next(calls) == 500:
            raise ArithmeticError("broken invariant")
        return _necessary_form(g)

    monkeypatch.setattr(cubic93.classifier, "_necessary_form", failing)
    try:
        if not enabled:
            gc.disable()
        with pytest.raises(ArithmeticError, match="broken invariant"):
            scan(2000)
        assert next(calls) == 501
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_scan_builds_its_verdicts_with_the_collector_off(monkeypatch):
    states = []

    def recording(g):
        states.append(gc.isenabled())
        return _necessary_form(g)

    monkeypatch.setattr(cubic93.classifier, "_necessary_form", recording)
    try:
        assert len(scan(2000)) == len(states) > 1000
        assert set(states) == {False} and gc.isenabled()
    finally:
        gc.enable()


def test_scan_leaves_no_cyclic_garbage():
    # what makes the pause safe: a scan builds only ints, strings, enums and
    # tuples, so reference counting frees all of it and the collector,
    # turned off here for the whole build, has nothing left to find
    gc.collect()
    try:
        gc.disable()
        verdicts = scan(200_000)
        del verdicts
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_scan_and_classify_in_two_threads_give_the_verdicts_of_one(monkeypatch):
    # the README says every module is safe for concurrent use.  The caches
    # start empty, so the threads fill them together, switching every
    # microsecond; and the collector, which scan pauses for the whole
    # process, is on again when both are done
    def classify_all() -> list[object]:
        out: list[object] = []
        for d in range(2, 3000):
            try:
                out.append(classify(d, 9, 1))
            except ValueError as exc:  # a perfect cube
                out.append(repr(exc))
        return out

    expected = {"scan": scan(20_000), "classify": classify_all()}
    _decision.cache_clear()
    factor_rational_prime.cache_clear()
    got: dict[str, object] = {}
    threads = [
        threading.Thread(target=lambda: got.update(scan=scan(20_000))),
        threading.Thread(target=lambda: got.update(classify=classify_all())),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected
    assert gc.isenabled()


def test_threads_that_build_the_prime_tree_at_once_give_the_verdicts_of_one(monkeypatch):
    # every radicand here has a composite cofactor below 1e8 with no prime
    # factor below 300, so each thread may find the product tree empty and
    # build it; either build is the same whole tree, published at once, so
    # every verdict holds and no cofactor falls through to rho
    radicands = [k * c for c in (307 * 311, 3467 * 8971, 457 * 461 * 463, 9973 * 10_007)
                 for k in (1, 2, 3, 7, 19)] + [307**2, 2 * 9973**2]

    def classify_all(order: list[int]) -> dict[int, object]:
        return {d: classify(d, 9, 1) for d in order}

    expected = classify_all(radicands)
    factor_rational_prime.cache_clear()
    monkeypatch.setattr(cubic93._intmath, "_PRIME_TREE", [])
    rho, rho_calls = cubic93._intmath._brent_rho, []
    monkeypatch.setattr(cubic93._intmath, "_brent_rho", lambda n: rho_calls.append(n) or rho(n))
    got: list[dict[int, object]] = []
    threads = [  # four threads, two in each order
        threading.Thread(target=lambda order=order: got.append(classify_all(order)))
        for order in (radicands, radicands[::-1]) * 2
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [expected] * 4 and rho_calls == []
    assert len(cubic93._intmath._PRIME_TREE) == 11


def test_scan_equals_the_per_radicand_pipeline():
    # the per-d loop scan ran before the block sieve, kept as the oracle
    limit = 30_000
    flags = cube_free_sieve(limit)
    assert scan(limit) == [necessary_form(d) for d in range(2, limit + 1) if flags[d]]


def test_necessary_form_equals_the_property_oracle_below_20000():
    for g in _cube_free_forms(20_000):
        v = _necessary_form(g)
        assert type(v) is Verdict and v == necessary_form_by_properties(g), g.d


@pytest.mark.parametrize("g", [
    # 3^2 * p, p = 1 (mod 9): THREE_TIMES_SPLIT_RANK names p
    GerthForm(9 * 100153, 2, ((100153, 1),), (), (), ()),
    # a split p^2, p = 1 (mod 9): the candidate names p
    GerthForm(100153**2, 0, ((100153, 2),), (), (), ()),
    # an inert q^2, q = 8 (mod 9): SPLIT_INERT_RANK names p and q
    GerthForm(100153 * 100043**2, 0, ((100153, 1),), (), ((100043, 2),), ()),
    # p^2 with p = 4 (mod 9): the cubic symbol (3/p)_3 writes the line
    GerthForm(100003**2, 0, (), ((100003, 2),), (), ()),
    # 3 * p^2 with p = 7 (mod 9): THREE_TIMES_NONRESIDUE_CYCLIC names p
    GerthForm(3 * 100069**2, 1, (), ((100069, 2),), (), ()),
    # p = 4 and q = 5 (mod 9), d = 1 (mod 9): the text reads both residues
    GerthForm(100003 * 100049**2, 0, (), ((100003, 1),), (), ((100049, 2),)),
    # only inert primes, with and without 3
    GerthForm(100043 * 100019 * 100049**2, 0, (), (), ((100043, 1),), ((100019, 1), (100049, 2))),
    GerthForm(9 * 100043**2, 2, (), (), ((100043, 2),), ()),
    # canonical radicand a^2 * b < d: b = 3 * p takes the 3 of e = 2, a = 1
    GerthForm(9 * 100153**2, 2, ((100153, 2),), (), (), ()),
    # a = 19 < b = p, so a^2 * b < a * b^2 = d
    GerthForm(19 * 100153**2, 0, ((19, 1), (100153, 2)), (), (), ()),
], ids=lambda g: str(g.d))
def test_necessary_form_equals_the_property_oracle_on_built_forms(g):
    assert normalize(g.d) == g
    v = _necessary_form(g)
    assert type(v) is Verdict and v == necessary_form_by_properties(g)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10**8).filter(lambda n: round(n ** (1 / 3)) ** 3 != n))
def test_necessary_form_equals_the_property_oracle_on_any_radicand(n):
    # large primes and stripped cube factors, which scan never hands over
    g = normalize(n)
    assert _necessary_form(g) == necessary_form_by_properties(g)


def _keys_passed(forms) -> list[tuple[int, ...]]:
    """The key that _necessary_form hands _decision, for each form in turn."""
    keys: list[tuple[int, ...]] = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubic93.classifier, "_decision", lambda key: keys.append(key) or _decision(key))
        for g in forms:
            _necessary_form(g)
    return keys


def test_the_inline_key_is_the_signature_below_20000():
    forms = _cube_free_forms(20_000)
    assert _keys_passed(forms) == [_signature(g) for g in forms]


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10**8).filter(lambda n: round(n ** (1 / 3)) ** 3 != n))
def test_the_inline_key_is_the_signature_on_any_radicand(n):
    g = normalize(n)
    assert _keys_passed([g]) == [_signature(g)]


def test_the_scan_path_reads_no_concatenating_property(monkeypatch):
    # each of these properties rebuilds a tuple or a sum, or walks the factors
    # again, on every read; the per-radicand path reads the six fields instead
    forms = list(_cube_free_forms(2000))
    for name in ("split_primes", "inert_primes", "v", "w", "I", "J",
                 "b", "a", "conjugate_d", "canonical"):
        def unread(g, name=name):
            pytest.fail(f"the scan path read GerthForm.{name} of {g.d}")
        monkeypatch.setattr(GerthForm, name, property(unread))
    assert len(scan(2000)) == len(forms)


# ------------------------------------------------------ one factorization each


def test_classify_factors_once(factorize_calls):
    for n in (199, 12, 24, 54, 199**4):
        del factorize_calls[:]
        classify(n)
        assert factorize_calls == [n]


def test_scan_factors_each_radicand_once(factorize_calls):
    # the block sieve hands scan every form, so no radicand is factored at all
    scan(3000)
    assert factorize_calls == []


def test_classify_proves_its_symbol_prime_once(monkeypatch):
    # 1048633 is the least prime above 2^20 that is 4 or 7 (mod 9): factorize
    # proves it by Miller-Rabin, and (3/p)_3 takes that proof instead of
    # repeating it, also with factor_rational_prime's cache empty
    calls: list[int] = []
    real = cubic93._intmath._miller_rabin
    monkeypatch.setattr(cubic93._intmath, "_miller_rabin", lambda n: calls.append(n) or real(n))
    factor_rational_prime.cache_clear()
    v = classify(1048633)
    assert v.reasons[0].code is ReasonCode.CUBIC_SYMBOL_CONJECTURE
    assert v.symbol_three is rational_cubic_symbol(3, 1048633)
    assert calls == [1048633, 1048633]  # one for classify, one for the public symbol


def test_the_elimination_reads_the_symbol_of_three_the_public_symbol_computes():
    # the elimination reads (3/p)_3 = w^(2b/3) off the prime a + b*w above p;
    # rational_cubic_symbol takes 3^((p - 1)/3) at the image of w, and Euler's
    # criterion says whether 3 is a cube: every p = 4, 7 (mod 9) below 2e5 and
    # 2 000 seeded ones that factorize proves by Miller-Rabin
    rng, drawn = random.Random(93), []
    while len(drawn) < 2000:
        p = rng.randrange(1 << 20, 10**8)
        if p % 9 in (4, 7) and cubic93._intmath.is_prime(p):
            drawn.append(p)
    seen = set()
    for p in [p for p in primes_below(200_000) if p % 9 in (4, 7)] + drawn:
        v = classify(p)
        assert v.reasons[0].code is ReasonCode.CUBIC_SYMBOL_CONJECTURE, p
        assert v.symbol_three is rational_cubic_symbol(3, p), p
        assert (v.symbol_three is CubicCharacterValue.ONE) == (pow(3, (p - 1) // 3, p) == 1), p
        seen.add(v.symbol_three)
    assert len(seen) == 3


def test_rank_from_counts_matches_the_ramify_report():
    # ramify() counts t off its K0Prime list, one Z[w] factorization per
    # ramified prime; the verdict reads t off the mod-9 counts.
    flags = cube_free_sieve(100_000)
    for d in range(2, len(flags)):
        if flags[d]:
            v, rep = necessary_form(d), ramify(d)
            assert (v.t, v.q_star, v.sigma_rank) == (rep.t, rep.q_star, rep.sigma_rank), d


def test_verdicts_factor_no_prime_in_z_omega(monkeypatch):
    calls: list[int] = []
    real = cubic93.ramification.factor_rational_prime

    def counting(p: int):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(cubic93.ramification, "factor_rational_prime", counting)
    scan(3000)
    for d in (199, 597, 3383, 42, 39601):
        classify(d)
    assert calls == []
    ramify(42)
    assert calls == [2, 3, 7]


def test_verdict_json_round_trips_key_fields():
    import json

    v = classify(199, 9, 1)
    blob = json.loads(json.dumps(v.to_json_dict()))
    assert blob["status"] == "certified_9_3"
    assert blob["class_group"] == [9, 3]
    assert blob["h_k3"] == 27
    assert blob["decomposition"]["w"] == 1
    assert isinstance(blob["trace"], list) and blob["trace"]
    # the keys are the record's fields, so that the two cannot drift apart
    assert list(v.to_json_dict()) == [f for f in Verdict._fields if f != "trace"] + ["trace"]

    bare = json.loads(json.dumps(necessary_form(42).to_json_dict()))
    assert bare["status"] == "excluded"
    assert bare["class_group"] is None
    assert bare["predicted_class_group"] is None
    assert bare["symbol_three"] is None
    assert bare["t"] == 4


def test_classify_is_pure_under_concurrency():
    from concurrent.futures import ThreadPoolExecutor

    ds = list(range(2, 400))
    sequential = [classify(d) for d in ds if d not in (8, 27, 64, 125, 216, 343)]
    args = [d for d in ds if d not in (8, 27, 64, 125, 216, 343)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(classify, args))
    assert concurrent == sequential
