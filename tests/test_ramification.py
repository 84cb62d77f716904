"""Ramification counts t, the norm indicator q* and the ambiguous rank."""

from __future__ import annotations

from dataclasses import replace

import pytest

import cubic93.ramification
from cubic93.eisenstein import SplitKind, factor_rational_prime
from cubic93.ramification import QStar, ramify
from oracles import cube_free_sieve, factorize_by_trial_division

LIMIT = 10_000


def test_gamma_ramified_examples():
    rep = ramify(199)
    assert rep.gamma_ramified == frozenset({199}) and not rep.three_ramified
    rep = ramify(21)
    assert rep.gamma_ramified == frozenset({3, 7}) and rep.three_ramified
    rep = ramify(7)  # 7 != +-1 (mod 9): 3 ramifies too
    assert rep.gamma_ramified == frozenset({7, 3}) and rep.three_ramified
    rep = ramify(17)  # 17 = 8 (mod 9): 3 stays unramified
    assert rep.gamma_ramified == frozenset({17}) and not rep.three_ramified


def test_three_ramified_by_residue_mod9():
    # 3 stays unramified exactly for d = +-1 (mod 9)
    assert not ramify(199).three_ramified
    assert ramify(21).three_ramified
    assert not ramify(17).three_ramified
    assert not ramify(26).three_ramified
    assert ramify(9).three_ramified


def test_count_t_examples():
    assert ramify(199).t == 2
    assert ramify(57).t == 3  # 3 * 19 with 19 = 1 (mod 9)
    assert ramify(597).t == 3  # 3 * 199
    assert ramify(42).t == 4  # 2 * 3 * 7


def test_q_star_examples():
    assert ramify(199).q_star is QStar.ONE
    assert ramify(3383).q_star is QStar.ONE  # 199 * 17, both residues good
    assert ramify(7).q_star is QStar.UNKNOWN
    assert ramify(26).q_star is QStar.UNKNOWN  # 13 = 4, 2 = 2 (mod 9)


def test_sigma_rank_examples():
    assert ramify(199).sigma_rank == 1
    assert ramify(597).sigma_rank == 2
    assert ramify(3383).sigma_rank == 2
    assert ramify(7).sigma_rank is None  # unknown q* propagates


def test_report_structure_for_42():
    rep = ramify(42)
    assert rep.t == 4
    assert rep.three_ramified
    kinds = [e.kind for e in rep.k0_ramified]
    assert kinds.count(SplitKind.SPLIT) == 2
    assert kinds.count(SplitKind.INERT) == 1
    assert kinds.count(SplitKind.RAMIFIED) == 1
    assert rep.q_star is QStar.UNKNOWN and rep.sigma_rank is None
    assert any("class number 1" in note for note in rep.notes)


def test_t_identity_exhaustive():
    # t = 2 * #(split | d) + #(inert | d) + [3 ramified], via a direct oracle
    flags = cube_free_sieve(LIMIT)
    for d in range(2, LIMIT + 1):
        if not flags[d]:
            continue
        rep = ramify(d)
        fac = factorize_by_trial_division(d)
        split = sum(1 for p in fac if p % 3 == 1)
        inert = sum(1 for p in fac if p % 3 == 2)
        three = 3 in fac or d % 9 not in (1, 8)
        assert rep.t == 2 * split + inert + (1 if three else 0), d
        assert rep.three_ramified == three
        assert rep.t == len(rep.k0_ramified)
        if rep.q_star is QStar.ONE:
            assert rep.sigma_rank == rep.t - 2 + 1
            assert rep.sigma_rank in (rep.t - 2, rep.t - 1)
            # every split divisor must be 1 (mod 9), every inert one 8 (mod 9)
            for p in fac:
                if p % 3 == 1:
                    assert p % 9 == 1
                elif p % 3 == 2:
                    assert p % 9 == 8
        else:
            assert rep.q_star is QStar.UNKNOWN
            assert rep.sigma_rank is None


def test_splitting_consistency_with_eisenstein_layer():
    rep = ramify(4389)  # 3 * 7 * 11 * 19
    by_p: dict[int, list] = {}
    for entry in rep.k0_ramified:
        by_p.setdefault(entry.p, []).append(entry)
    for p, entries in by_p.items():
        splitting = factor_rational_prime(p)
        if splitting.kind is SplitKind.SPLIT:
            assert len(entries) == 2
            assert {e.element for e in entries} == set(splitting.factors)
        else:
            assert len(entries) == 1


def test_k0_primes_carry_the_splitting_of_their_rational_prime():
    # each k0 prime has the kind of p in Z[w] and norm p, or p^2 when p is inert
    flags = cube_free_sieve(1999)
    for d in range(2, 2000):
        if not flags[d]:
            continue
        for entry in ramify(d).k0_ramified:
            kind = factor_rational_prime(entry.p).kind
            assert entry.kind is kind, (d, entry)
            want = entry.p**2 if kind is SplitKind.INERT else entry.p
            assert entry.element.norm() == want, (d, entry)


def test_rejects_non_cube_free():
    with pytest.raises(ValueError):
        ramify(8)


def test_lost_split_factor_fails_the_t_cross_check(monkeypatch):
    # A Z[w] splitting that returns one factor for a split prime must not
    # pass silently: t from the K0Prime list then disagrees with the counts.
    real = cubic93.ramification.factor_rational_prime

    def one_factor(p: int):
        splitting = real(p)
        return replace(splitting, factors=splitting.factors[:1])

    monkeypatch.setattr(cubic93.ramification, "factor_rational_prime", one_factor)
    with pytest.raises(ArithmeticError, match="t = 3"):
        ramify(7)
