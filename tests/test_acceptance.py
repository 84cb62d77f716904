"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen (pytest captures them otherwise).  Timings are wall-clock budgets and
every numeric tolerance is pinned here, not configurable.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from math import cos, fsum, isqrt, pi

from cubic93.classifier import (
    ClassGroupShape,
    VerdictStatus,
    classify,
    hk_from_hgamma,
    scan,
    type93_equivalence,
)
from cubic93.eisenstein import (
    CubicCharacterValue,
    EisensteinInt,
    UNITS,
    cubic_character,
    factor_rational_prime,
    rational_cubic_symbol,
)
from cubic93.fixtures import load_bundled_fixtures
from cubic93.genus import period_polynomial
from cubic93.ramification import ramify
from oracles import primes_below


@contextmanager
def criterion(number: int, description: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        )
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_table_reproduction():
    with criterion(1, "all 28 fixture rows certify as type (9, 3)", 1.0):
        rows = load_bundled_fixtures()
        assert len(rows) == 28
        assert rows[0].p == 199 and rows[-1].p == 5347
        for row in rows:
            verdict = classify(row.p, 9, 1)
            assert verdict.status is VerdictStatus.CERTIFIED_9_3, row.p
            assert verdict.class_group == ClassGroupShape.of(9, 3), row.p
            assert verdict.h_k3 == 27, row.p


def test_criterion_2_candidate_scan_matches_sieve():
    with criterion(2, "scan to 10^4 finds exactly {p, p^2 : p = 1 (mod 9)}", 30.0):
        limit = 10_000
        expected = {
            x
            for p in primes_below(limit + 1)
            if p % 9 == 1
            for x in (p, p * p)
            if x <= limit
        }
        got = {
            v.input_d
            for v in scan(limit)
            if v.status is VerdictStatus.CANDIDATE_NEEDS_DATA
        }
        assert got == expected


def test_criterion_3_cubic_symbol_oracle():
    with criterion(3, "symbol agrees with brute force for p < 2000, a in {2,3,5,7}", 10.0):
        for p in primes_below(2000):
            if p % 3 != 1:
                continue
            cubes = {pow(x, 3, p) for x in range(1, p)}
            for a in (2, 3, 5, 7):
                if a % p == 0:
                    continue
                expected = a % p in cubes
                got = rational_cubic_symbol(a, p) is CubicCharacterValue.ONE
                assert got == expected, (a, p)


def test_criterion_4_residue_facts():
    with criterion(4, "(3/p)_3 = 1 for p in {61, 67, 103, 151}"):
        for p in (61, 67, 103, 151):
            assert rational_cubic_symbol(3, p) is CubicCharacterValue.ONE, p


def test_criterion_5_cubic_reciprocity():
    with criterion(5, "chi_theta(pi) = chi_pi(theta) for primary primes, norms < 1000", 10.0):
        primaries: list[EisensteinInt] = []
        for p in primes_below(1000):
            if p % 3 == 1:
                primaries.extend(factor_rational_prime(p).factors)
            elif p % 3 == 2 and p * p < 1000:
                primaries.append(EisensteinInt(p))
        for z in primaries:
            assert z.a % 3 == 2 and z.b % 3 == 0  # primary by construction
        checked = 0
        for i, x in enumerate(primaries):
            nx = x.norm()
            for y in primaries[i + 1 :]:
                ny = y.norm()
                if nx == ny and any(u * x == y.conjugate() for u in UNITS):
                    continue  # the conjugate pair over one p shares its norm
                if nx % ny == 0 or ny % nx == 0:
                    continue
                assert cubic_character(x, y) is cubic_character(y, x), (x, y)
                checked += 1
        assert checked > 10_000


def test_criterion_6_ramification_counts():
    with criterion(6, "t and ambiguous ranks for d = 199, 597, 42"):
        assert ramify(199).t == 2
        assert ramify(597).t == 3
        assert ramify(42).t == 4
        assert ramify(199).sigma_rank == 1
        assert ramify(597).sigma_rank == 2


def test_criterion_7_genus_invariants():
    with criterion(7, "period polynomials for p < 500: roots, discriminant, spot values", 5.0):
        def oracle_periods(p: int) -> list[float]:
            cubes = sorted({pow(x, 3, p) for x in range(1, p)})
            cube_set = set(cubes)
            n = 2
            while n in cube_set:
                n += 1
            cosets = (cubes, [n * t % p for t in cubes], [n * n * t % p for t in cubes])
            return [fsum(cos(2 * pi * t / p) for t in coset) for coset in cosets]

        for p in primes_below(500):
            if p % 3 != 1:
                continue
            one, c2, c1, c0 = period_polynomial(p)
            assert one == 1
            for eta in oracle_periods(p):
                assert abs(((eta + c2) * eta + c1) * eta + c0) < 1e-6, p
            disc = (
                18 * c2 * c1 * c0
                - 4 * c2**3 * c0
                + c2**2 * c1**2
                - 4 * c1**3
                - 27 * c0**2
            )
            assert disc % (p * p) == 0, p
            rest = disc // (p * p)
            root = isqrt(rest)
            assert root * root == rest, p
        assert period_polynomial(7) == (1, 1, -2, -1)
        assert period_polynomial(13) == (1, 1, -4, 1)


def test_criterion_8_h_relation_and_equivalence():
    with criterion(8, "h_k3 exactly 27 only at (9, 1); the (9, 3) bridge round-trips"):
        def v3(n: int) -> int:
            k = 0
            while n % 3 == 0:
                n //= 3
                k += 1
            return k

        exact = [
            (h, u)
            for h in (3, 9, 27)
            for u in (1, 3)
            if v3(hk_from_hgamma(h, u)) == 3
        ]
        assert exact == [(9, 1)]
        forward = type93_equivalence("forward", c_k=ClassGroupShape.of(9, 3))
        assert forward.c_gamma == ClassGroupShape.of(9) and forward.u == 1
        back = type93_equivalence("backward", c_gamma=forward.c_gamma, u=forward.u)
        assert back.c_k == ClassGroupShape.of(9, 3)
