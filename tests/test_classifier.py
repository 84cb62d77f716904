"""The decision engine: forms, eliminations, certification and scanning."""

from __future__ import annotations

from math import isqrt

import pytest

import cubic93.classifier
import cubic93.ramification
from cubic93.classifier import (
    ClassGroupShape,
    FormClass,
    ReasonCode,
    VerdictStatus,
    _decision,
    _signature,
    classify,
    hk_from_hgamma,
    necessary_form,
    scan,
    type93_equivalence,
)
from cubic93.eisenstein import CubicCharacterValue, rational_cubic_symbol
from cubic93.radicand import cube_free_sieve
from cubic93.ramification import ramify

LIMIT = 10_000


def small_primes(limit: int) -> list[int]:
    return [n for n in range(2, limit) if all(n % f for f in range(2, isqrt(n) + 1))]


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


def test_hk_exactly_27_only_at_nine_one():
    def v3(n: int) -> int:
        k = 0
        while n % 3 == 0:
            n //= 3
            k += 1
        return k

    hits = [
        (h, u)
        for h in (3, 9, 27)
        for u in (1, 3)
        if v3(hk_from_hgamma(h, u)) == 3
    ]
    assert hits == [(9, 1)]


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


def test_equivalence_round_trip():
    fwd = type93_equivalence("forward", c_k=ClassGroupShape.of(9, 3))
    back = type93_equivalence("backward", c_gamma=fwd.c_gamma, u=fwd.u)
    assert back.c_k == ClassGroupShape.of(9, 3)


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
    primes = set(small_primes(LIMIT + 1))
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
    def no_symbol(a: int, p: int) -> None:
        raise AssertionError(f"_decision evaluated a cubic residue symbol at p = {p}")

    verdicts = scan(20_000)
    monkeypatch.setattr(cubic93.classifier, "rational_cubic_symbol", no_symbol)
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
    scanned = scan(200)[-1]
    for value, field in (
        (scanned, "status"),
        (classify(199, 9, 1), "class_group"),
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


def test_scan_equals_the_per_radicand_pipeline():
    # the per-d loop scan ran before the block sieve, kept as the oracle
    limit = 30_000
    flags = cube_free_sieve(limit)
    assert scan(limit) == [necessary_form(d) for d in range(2, limit + 1) if flags[d]]


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
