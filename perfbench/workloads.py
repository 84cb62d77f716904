"""The four benchmark workloads.

Each workload turns a seed into a fixed list of operations, calls the
library once per operation, renders each output as canonical text for the
golden digest, keeps a small record of it, and checks that record without
the library (sympy and plain integer arithmetic are the oracles).

Why these four:

* ``scan``: one ``scan(N)`` batch.  Per-radicand object and trace building
  dominates; factorisation of small d is cheap.  The whole range is the
  input, so the seed is unused.  N = 30 000 keeps a batch short enough for
  a run to repeat it about ten times.
* ``classify``: single ``classify()`` calls on d up to 1e8, where
  trial-division ``factorize`` dominates.  Slices hit the certified path
  (fixture primes with h3 = 9, u = 1) and the ``rational_cubic_symbol``
  path (primes p = 4, 7 mod 9).
* ``genus``: ``genus_field_description`` on products of fresh split
  primes, so every ``period_polynomial`` starts cold.  Primes stop at 3600
  so that a pass takes a few seconds and a run repeats it several times.
* ``reciprocity``: cubic characters both ways between primary Eisenstein
  primes and one ``factor(z)``; the only workload dominated by ``Z[w]``
  division.
"""

from __future__ import annotations

import json
import math
import random
from importlib import resources
from math import isqrt

#: inputs are generated from ``seed % SEED_CLASSES`` so that every seed has
#: a golden digest recorded for it
SEED_CLASSES = 64

SIZES = {
    "full": {"scan": 30_000, "classify": 10_000, "genus": 120, "reciprocity": 2_000},
    "smoke": {"scan": 3_000, "classify": 300, "genus": 8, "reciprocity": 40},
}

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first 12 prime bases (exact below 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_CUBE_PRIMES = [p for p in range(2, 465) if is_prime(p)]  # p^3 <= 1e8


def _is_cube_free(d: int) -> bool:
    for p in _CUBE_PRIMES:
        cube = p * p * p
        if cube > d:
            return True
        if d % cube == 0:
            return False
    return True


def _is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _verdict_text(v) -> str:
    """Status, form, reason codes, t, q*, rank, canonical d and trace of a verdict."""
    return repr(
        (
            v.input_d,
            v.d,
            v.status.value,
            v.form.name,
            tuple(r.code.value for r in v.reasons),
            v.t,
            v.q_star.value,
            v.sigma_rank,
            v.trace,
        )
    )


class Scan:
    name = "scan"
    seeded = False
    tail = ("max", 100.0)

    def inputs(self, lib, seed_class: int, size: int) -> list:
        return [size]

    def call(self, lib, op):
        return lib.scan(op)

    def units(self, op, out) -> int:
        return len(out)

    def radicands(self, op, out) -> int:
        return len(out)

    def canon(self, op, out):
        return (_verdict_text(v) for v in out)

    def record(self, op, out):
        candidates = [v.input_d for v in out if v.status.value == "candidate_needs_data"]
        return [v.input_d for v in out], candidates

    def check(self, op, record) -> int:
        """Radicands whose verdict disagrees with an independent sieve and sympy."""
        import sympy

        radicands, candidates = record
        cube_free = bytearray(b"\x01") * (op + 1)
        for p in sympy.primerange(2, op + 1):
            cube = p**3
            if cube > op:
                break
            cube_free[cube::cube] = b"\x00" * (op // cube)
        expected = [d for d in range(2, op + 1) if cube_free[d]]
        if radicands != expected:
            return max(len(radicands), len(expected))
        want = set()
        for p in sympy.primerange(2, op + 1):
            if p % 9 == 1:
                want.add(p)
                if p * p <= op:
                    want.add(p * p)
        return len(want.symmetric_difference(candidates))


class Classify:
    name = "classify"
    seeded = True
    tail = ("p99", 99.0)

    def inputs(self, lib, seed_class: int, size: int) -> list:
        rng = random.Random(f"classify:{seed_class}")
        text = resources.files("cubic93").joinpath("data/type93_fixtures.jsonl").read_text()
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        ops = [(r["p"], 9, 1) for r in rows if r["h_gamma3"] == 9 and r["u"] == 1]
        n_random = size * 9 // 10
        while len(ops) < size - n_random:  # primes p = 4, 7 (mod 9)
            p = _log_uniform(rng, 1e4, 1e8)
            if p % 9 in (4, 7) and is_prime(p):
                ops.append((p, None, None))
        while len(ops) < size:
            d = _log_uniform(rng, 1e4, 1e8)
            if _is_cube_free(d):
                ops.append((d, None, None))
        rng.shuffle(ops)
        return ops

    def call(self, lib, op):
        return lib.classify(*op)

    def units(self, op, out) -> int:
        return 1

    def radicands(self, op, out) -> int:
        return 1

    def canon(self, op, out):
        return (_verdict_text(out),)

    def record(self, op, out):
        return (
            out.d,
            out.status.value,
            out.class_group.orders if out.class_group else None,
            tuple(r.code.value for r in out.reasons),
            out.symbol_three.value if out.symbol_three else None,
        )

    def check(self, op, record) -> int:
        """Normalisation and status against sympy; the certified and symbol slices."""
        import sympy

        n, h3, u = op
        canonical, status, group, codes, symbol = record
        a = b = 1
        for p, e in sympy.factorint(n).items():
            if e % 3 == 1:
                a *= p
            elif e % 3 == 2:
                b *= p
        ok = canonical == min(a * b * b, a * a * b)
        core = a * b
        candidate = core % 9 == 1 and sympy.isprime(core)
        if not candidate:
            ok &= status == "excluded"
        elif (h3, u) == (9, 1):
            ok &= status == "certified_9_3" and group == (9, 3)
        else:
            ok &= status == "candidate_needs_data"
        if h3 is None and n % 9 in (4, 7) and sympy.isprime(n):
            cube = pow(3, (n - 1) // 3, n) == 1
            ok &= codes == ("cubic_symbol_conjecture",) and (symbol == "1") == cube
        return 0 if ok else 1


class Genus:
    name = "genus"
    seeded = True
    tail = ("p90", 90.0)

    def inputs(self, lib, seed_class: int, size: int) -> list:
        rng = random.Random(f"genus:{seed_class}")
        pool = [p for p in range(300, 3601) if p % 3 == 1 and is_prime(p)]
        inert = [q for q in range(2, 60) if q % 3 == 2 and is_prime(q)]
        # one prime from each of `need` equal slices of the pool, without
        # replacement, so that every seed gets the same spread of sizes
        need = size + (size + 1) // 2
        cut = [len(pool) * k // need for k in range(need + 1)]
        primes = iter([rng.choice(pool[cut[k] : cut[k + 1]]) for k in range(need)])
        ops = []
        for k in range(size):
            d = next(primes) * next(primes) if k % 2 == 0 else next(primes)
            q = rng.choice(inert)
            if rng.random() < 0.3 and d * q <= 100_000_000:
                d *= q
            ops.append(d)
        rng.shuffle(ops)
        return ops

    def call(self, lib, op):
        return lib.genus_field_description(op, False)

    def units(self, op, out) -> int:
        return 1

    def radicands(self, op, out) -> int:
        return 1

    def canon(self, op, out):
        return (repr((out.d, out.r, out.genus_number, out.m_fields, out.hilbert_equals_genus, out.notes)),)

    def record(self, op, out):
        return out.r, out.genus_number, out.m_fields

    def check(self, op, record) -> int:
        """r from sympy.factorint; each M(p) has discriminant p^2 M^2, 4p = L^2 + 27M^2."""
        import sympy

        r, genus_number, m_fields = record
        split = sorted(p for p in sympy.factorint(op) if p % 3 == 1)
        ok = r == len(split) and genus_number == 3**r and sorted(p for p, _ in m_fields) == split
        for p, (lead, b, c, d) in m_fields:
            m = next(m for m in range(1, isqrt(4 * p // 27) + 1) if _is_square(4 * p - 27 * m * m))
            disc = 18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d
            ok &= lead == 1 and disc == p * p * m * m
        return 0 if ok else 1


def _primary(a: int, b: int) -> tuple[int, int]:
    """The associate of a + b*w with a = 2, b = 0 (mod 3)."""
    for _ in range(3):
        for s in (1, -1):
            if s * a % 3 == 2 and s * b % 3 == 0:
                return s * a, s * b
        a, b = -b, a - b  # multiply by w
    raise ValueError(f"{a}{b:+}w has no primary associate")


def _mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0] - x[1] * y[1]


def _norm(a: int, b: int) -> int:
    return a * a - a * b + b * b


class Reciprocity:
    name = "reciprocity"
    seeded = True
    tail = ("p99", 99.0)

    def inputs(self, lib, seed_class: int, size: int) -> list:
        rng = random.Random(f"reciprocity:{seed_class}")
        composite = bytearray(1_000_001)
        for p in range(2, 1001):
            if not composite[p]:
                composite[p * p :: p] = b"\x01" * ((1_000_000 - p * p) // p + 1)
        inert = [q for q in range(317, 1001) if q % 3 == 2 and not composite[q]]  # q^2 in [1e5, 1e6]

        def prime() -> tuple[int, int]:
            if rng.random() < 0.1:
                return rng.choice(inert), 0
            while True:
                a, b = rng.randint(-1155, 1155), rng.randint(-1155, 1155)
                n = _norm(a, b)
                if 100_000 <= n <= 1_000_000 and not composite[n]:
                    return _primary(a, b)

        ops = []
        while len(ops) < size:
            pi, alpha = prime(), prime()
            if _norm(*pi) == _norm(*alpha):
                continue
            z = (0, 0)
            while not 0 < _norm(*z) <= 100_000_000:
                z = rng.randint(-11548, 11548), rng.randint(-11548, 11548)
            ops.append(tuple(lib.EisensteinInt(*x) for x in (pi, alpha, z)))
        return ops

    def call(self, lib, op):
        pi, alpha, z = op
        return lib.cubic_character(alpha, pi), lib.cubic_character(pi, alpha), lib.factor(z)

    def units(self, op, out) -> int:
        return 1

    def radicands(self, op, out) -> int:
        return 0

    def record(self, op, out):
        chi, chi_back, fac = out
        return (
            chi.value,
            chi_back.value,
            (fac.unit.a, fac.unit.b),
            tuple((q.a, q.b, e) for q, e in fac.factors),
        )

    def canon(self, op, out):
        return (repr((tuple((x.a, x.b) for x in op), self.record(op, out))),)

    def check(self, op, record) -> int:
        """Reciprocity, the character in F_p for split pi, and the product of the factors."""
        import sympy

        pi, alpha, z = ((x.a, x.b) for x in op)
        chi, chi_back, unit, factors = record
        ok = chi == chi_back
        p = _norm(*pi)
        if pi[1]:  # split: w maps to m = -s/t in Z[w]/(pi) = F_p
            m = -pi[0] * pow(pi[1], -1, p) % p
            e = pow((alpha[0] + alpha[1] * m) % p, (p - 1) // 3, p)
            ok &= {1: "1", m: "w", m * m % p: "w^2"}.get(e) == chi
        value = unit
        for a, b, e in factors:
            n = _norm(a, b)
            q = isqrt(n)
            ok &= sympy.isprime(n) or (q * q == n and q % 3 == 2 and sympy.isprime(q))
            for _ in range(e):
                value = _mul(value, (a, b))
        ok &= _norm(*unit) == 1 and value == z
        return 0 if ok else 1


WORKLOADS = {w.name: w for w in (Scan(), Classify(), Genus(), Reciprocity())}
