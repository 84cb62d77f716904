"""Fixture rows, the CAS adapter that recomputes them, and table reproduction.

The bundled table lists 28 primes p = 1 (mod 9), from 199 up to 5347, whose
cubic field has 3-class number exactly 9 and whose sextic field has unit
index u = 1; for each of them the sextic 3-class group is Z/9 x Z/3.

Fixture files are JSON Lines: one object per row with the fields
p, h_gamma3, h_k3, u, c_gamma, c_k.  Saving uses a canonical field order so
that a load/save round trip is byte-identical.  Every value must be a JSON
integer (a list of them for c_gamma and c_k); floats, strings and booleans
are rejected rather than coerced.

The class data were computed with PARI/GP, and cas_query recomputes a row
when a gp binary is available.  Its gp script, written to the subprocess's
standard input, asks for the class group invariants of the cubic field
x^3 - d and of the sextic field obtained by composing with x^2 + x + 1.  The
3-parts of the two integer lists it prints give c_gamma and c_k with their
orders h_gamma3 and h_k3.  gp does not report the unit index, so u is solved
from h_k3 = (u/3) * h_gamma3^2, and data that admit no u in {1, 3} are
rejected.  A recomputed row passes the table only if it equals the fixture
row, field by field.  A missing executable raises CasUnavailableError, so
that callers can degrade to a notice; anything else (timeout, bad exit,
unparseable output) raises CasError.  One call is one subprocess, so
separate calls may run concurrently.
"""

from __future__ import annotations

import json
import re
import subprocess
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

from ._intmath import is_prime, three_part
from .classifier import ClassGroupShape, Verdict, VerdictStatus, classify, hk_from_hgamma

_FIELDS = ("p", "h_gamma3", "h_k3", "u", "c_gamma", "c_k")
_BUNDLED = "data/type93_fixtures.jsonl"


class FixtureError(ValueError):
    """A fixture file is missing, malformed or violates a row invariant."""


@dataclass(frozen=True)
class FixtureRow:
    p: int
    h_gamma3: int
    h_k3: int
    u: int
    c_gamma: ClassGroupShape
    c_k: ClassGroupShape


def _integer(value: object, name: str) -> int:
    """value itself if it is a JSON integer; bools, floats and strings fail."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _parse_row(line: str) -> FixtureRow:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise ValueError("expected one JSON object per line")
    missing = [k for k in _FIELDS if k not in record]
    if missing:
        raise ValueError(f"missing fields {missing}")
    unknown = [k for k in record if k not in _FIELDS + ("p_squared", "p_mod9")]
    if unknown:
        raise ValueError(f"unknown fields {unknown}")
    for key in ("c_gamma", "c_k"):
        if not isinstance(record[key], list):
            raise ValueError(f"{key} must be a list of cyclic orders")
    p, h_gamma3, h_k3, u = (_integer(record[k], k) for k in _FIELDS[:4])
    gamma_orders, k_orders = (
        tuple(_integer(x, f"{k} entry") for x in record[k])
        for k in ("c_gamma", "c_k")
    )
    c_gamma = ClassGroupShape(gamma_orders)
    c_k = ClassGroupShape(k_orders)
    p_squared = _integer(record.get("p_squared", p * p), "p_squared")
    p_mod9 = _integer(record.get("p_mod9", p % 9), "p_mod9")
    # is_prime raises ValueError for p above the range where primality is proven
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    expected_hk = hk_from_hgamma(h_gamma3, u)
    if h_k3 != expected_hk:
        raise ValueError(
            f"h_k3 = {h_k3} violates h_k3 = (u/3)*h_gamma3^2"
            f" = {expected_hk}"
        )
    for key, shape, h in (("c_gamma", c_gamma, "h_gamma3"), ("c_k", c_k, "h_k3")):
        if shape.order != record[h]:
            raise ValueError(
                f"{key} = {shape} has order {shape.order}, not {h} = {record[h]}"
            )
    if p_squared != p * p:
        raise ValueError("p_squared != p^2")
    if p_mod9 != p % 9:
        raise ValueError("p_mod9 != p mod 9")
    return FixtureRow(
        p=p,
        h_gamma3=h_gamma3,
        h_k3=h_k3,
        u=u,
        c_gamma=c_gamma,
        c_k=c_k,
    )


def _parse_lines(text: str, source: str) -> list[FixtureRow]:
    rows: list[FixtureRow] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(_parse_row(line))
        except ValueError as exc:
            raise FixtureError(f"{source}, line {lineno}: {exc}") from exc
    return rows


def load_fixtures(path: str | Path) -> list[FixtureRow]:
    """Load and validate a JSON Lines fixture file."""
    given, path = path, Path(path)
    if not path.exists():
        raise FixtureError(f"fixture file {path} does not exist")
    # Path("") is the current directory, so name the path as given
    if not path.is_file():
        raise FixtureError(f"fixture path {str(given)!r} is not a file")
    return _parse_lines(path.read_text(encoding="utf-8"), str(path))


def load_bundled_fixtures() -> list[FixtureRow]:
    """The table shipped with the package."""
    text = resources.files(__package__).joinpath(_BUNDLED).read_text(encoding="utf-8")
    return _parse_lines(text, "bundled table")


def _row_to_json(row: FixtureRow) -> str:
    return json.dumps(
        {
            "p": row.p,
            "h_gamma3": row.h_gamma3,
            "h_k3": row.h_k3,
            "u": row.u,
            "c_gamma": list(row.c_gamma.orders),
            "c_k": list(row.c_k.orders),
        }
    )


def save_fixtures(path: str | Path, rows: Iterable[FixtureRow]) -> None:
    """Write rows in the canonical format (one JSON object per line)."""
    text = "".join(_row_to_json(row) + "\n" for row in rows)
    Path(path).write_text(text, encoding="utf-8")


class CasError(RuntimeError):
    """The CAS ran but did not produce a usable answer."""


class CasUnavailableError(RuntimeError):
    """The configured CAS executable cannot be started."""


@dataclass(frozen=True)
class CasConfig:
    command: tuple[str, ...] = ("gp", "-q")
    timeout: float = 120.0


_CUBIC_TAG = "CUBIC"
_SEXTIC_TAG = "SEXTIC"


def _script(d: int) -> str:
    return (
        "default(parisizemax, 256000000);\n"
        f"K = bnfinit(x^3 - {d}, 1);\n"
        f"L = bnfinit(polcompositum(x^3 - {d}, x^2 + x + 1)[1], 1);\n"
        f'print("{_CUBIC_TAG} ", K.clgp.cyc);\n'
        f'print("{_SEXTIC_TAG} ", L.clgp.cyc);\n'
    )


def _three_part(invariants: list[int]) -> ClassGroupShape:
    """The 3-group shape of positive cyclic invariants; its order is the 3-class number."""
    parts = sorted((g for g in map(three_part, invariants) if g > 1), reverse=True)
    return ClassGroupShape(tuple(parts))


def _parse_invariants(output: str, tag: str) -> list[int]:
    for line in output.splitlines():
        line = line.strip()
        if line.startswith(tag):
            return [int(x) for x in re.findall(r"-?\d+", line[len(tag) :])]
    raise CasError(f"no '{tag}' line in CAS output: {output!r}")


def cas_query(d: int, config: CasConfig) -> FixtureRow:
    """The fixture row of the prime d, freshly computed by the CAS."""
    try:
        proc = subprocess.run(
            list(config.command),
            input=_script(d),
            capture_output=True,
            text=True,
            timeout=config.timeout,
        )
    except FileNotFoundError as exc:
        raise CasUnavailableError(f"CAS executable not found: {exc}") from exc
    except subprocess.TimeoutExpired as exc:
        raise CasError(f"CAS timed out after {config.timeout}s for d = {d}") from exc
    if proc.returncode != 0:
        raise CasError(
            f"CAS exited with {proc.returncode} for d = {d}: {proc.stderr.strip()}"
        )
    try:
        c_gamma = _three_part(_parse_invariants(proc.stdout, _CUBIC_TAG))
        c_k = _three_part(_parse_invariants(proc.stdout, _SEXTIC_TAG))
    except ValueError as exc:
        raise CasError(f"bad class group invariant for d = {d}: {exc}") from exc
    h_gamma3, h_k3 = c_gamma.order, c_k.order
    u, remainder = divmod(3 * h_k3, h_gamma3 * h_gamma3)
    if remainder or u not in (1, 3):
        raise CasError(
            f"inconsistent CAS data for d = {d}: h_gamma3 = {h_gamma3},"
            f" h_k3 = {h_k3} admit no unit index in {{1, 3}}"
        )
    return FixtureRow(
        p=d,
        h_gamma3=h_gamma3,
        h_k3=h_k3,
        u=u,
        c_gamma=c_gamma,
        c_k=c_k,
    )


@dataclass(frozen=True)
class TableRowResult:
    p: int
    ok: bool
    message: str
    verdict: Verdict | None


@dataclass(frozen=True)
class TableReport:
    results: tuple[TableRowResult, ...]
    skipped_reason: str | None = None

    @property
    def all_ok(self) -> bool:
        return self.skipped_reason is None and all(r.ok for r in self.results)

    @property
    def summary(self) -> str:
        if self.skipped_reason is not None:
            return f"skipped: {self.skipped_reason}"
        good = sum(1 for r in self.results if r.ok)
        return f"{good}/{len(self.results)} rows certified as type (9, 3)"


def reproduce_table(
    fixtures_path: str | Path | None = None,
    cas_config: CasConfig | None = None,
) -> TableReport:
    """Re-certify every fixture row through classify().

    Rows come from fixtures_path, or from the bundled table when it is None.
    Without a cas_config each row's own (h_gamma3, u) is fed back in; with
    one, the external CAS recomputes the whole row first, and the row passes
    only if the recomputed row equals it.  A missing CAS executable yields a
    skipped report, never an exception.  A fixture file without rows raises
    FixtureError: "0/0 rows certified" would certify nothing.
    """
    rows = load_bundled_fixtures() if fixtures_path is None else load_fixtures(fixtures_path)
    if not rows:
        raise FixtureError(f"fixture file {fixtures_path} holds no rows")
    results: list[TableRowResult] = []
    for row in rows:
        try:
            data = row if cas_config is None else cas_query(row.p, cas_config)
        except CasUnavailableError as exc:
            return TableReport(results=(), skipped_reason=str(exc))
        verdict = classify(row.p, data.h_gamma3, data.u)
        ok = (
            verdict.status is VerdictStatus.CERTIFIED_9_3
            and verdict.class_group == row.c_k
            and data == row
        )
        if ok:
            message = f"p = {row.p}: certified {verdict.class_group}"
        elif data != row:
            message = f"p = {row.p}: " + "; ".join(
                f"{k} = {getattr(data, k)} recomputed, {getattr(row, k)} in the row"
                for k in _FIELDS
                if getattr(data, k) != getattr(row, k)
            )
        else:
            got = "no certified shape" if verdict.class_group is None else verdict.class_group
            message = (
                f"p = {row.p}: expected certified {row.c_k}, got {got}"
                f" ({verdict.status.value}); trace: " + " | ".join(verdict.trace)
            )
        if cas_config is not None:
            message += f" [CAS: h_gamma3 = {data.h_gamma3}, c_k = {data.c_k}, u inferred = {data.u}]"
        results.append(TableRowResult(p=row.p, ok=ok, message=message, verdict=verdict))
    return TableReport(results=tuple(results))
