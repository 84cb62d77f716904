"""Fixture table handling and table reproduction.

The bundled table lists 28 primes p = 1 (mod 9), from 199 up to 5347, whose
cubic field has 3-class number exactly 9 and whose sextic field has unit
index u = 1; for each of them the sextic 3-class group is Z/9 x Z/3.  The
class data were computed with PARI/GP and can be recomputed independently
through the CAS adapter when a gp binary is available.

Fixture files are JSON Lines: one object per row with the fields
p, h_gamma3, h_k3, u, c_gamma, c_k.  Saving uses a canonical field order so
that a load/save round trip is byte-identical.  Every value must be a JSON
integer (a list of them for c_gamma and c_k); floats, strings and booleans
are rejected rather than coerced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

from ._intmath import is_prime
from .cas import CasConfig, CasUnavailableError, cas_query
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


def _integer(value: object, name: str, where: str) -> int:
    """value itself if it is a JSON integer; bools, floats and strings fail."""
    if type(value) is not int:
        raise FixtureError(f"{where}: {name} must be an integer, got {value!r}")
    return value


def _parse_row(record: dict, where: str) -> FixtureRow:
    missing = [k for k in _FIELDS if k not in record]
    if missing:
        raise FixtureError(f"{where}: missing fields {missing}")
    unknown = [k for k in record if k not in _FIELDS + ("p_squared", "p_mod9")]
    if unknown:
        raise FixtureError(f"{where}: unknown fields {unknown}")
    for key in ("c_gamma", "c_k"):
        if not isinstance(record[key], list):
            raise FixtureError(f"{where}: {key} must be a list of cyclic orders")
    p, h_gamma3, h_k3, u = (_integer(record[k], k, where) for k in _FIELDS[:4])
    gamma_orders, k_orders = (
        tuple(_integer(x, f"{k} entry", where) for x in record[k])
        for k in ("c_gamma", "c_k")
    )
    try:
        c_gamma = ClassGroupShape(gamma_orders)
        c_k = ClassGroupShape(k_orders)
    except ValueError as exc:
        raise FixtureError(f"{where}: {exc}") from exc
    p_squared = _integer(record.get("p_squared", p * p), "p_squared", where)
    p_mod9 = _integer(record.get("p_mod9", p % 9), "p_mod9", where)
    if not is_prime(p):
        raise FixtureError(f"{where}: p = {p} is not prime")
    if u not in (1, 3):
        raise FixtureError(f"{where}: u = {u} is not 1 or 3")
    try:
        expected_hk = hk_from_hgamma(h_gamma3, u)
    except ValueError as exc:
        raise FixtureError(f"{where}: {exc}") from exc
    if h_k3 != expected_hk:
        raise FixtureError(
            f"{where}: h_k3 = {h_k3} violates h_k3 = (u/3)*h_gamma3^2"
            f" = {expected_hk}"
        )
    if p_squared != p * p:
        raise FixtureError(f"{where}: p_squared != p^2")
    if p_mod9 != p % 9:
        raise FixtureError(f"{where}: p_mod9 != p mod 9")
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
        where = f"{source}, line {lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FixtureError(f"{where}: not valid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise FixtureError(f"{where}: expected one JSON object per line")
        rows.append(_parse_row(record, where))
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
    one, the external CAS recomputes them first.  A missing CAS executable
    yields a skipped report, never an exception.  A fixture file without
    rows raises FixtureError: "0/0 rows certified" would certify nothing.
    """
    rows = load_bundled_fixtures() if fixtures_path is None else load_fixtures(fixtures_path)
    if not rows:
        raise FixtureError(f"fixture file {fixtures_path} holds no rows")
    results: list[TableRowResult] = []
    for row in rows:
        if cas_config is not None:
            try:
                cas = cas_query(row.p, cas_config)
            except CasUnavailableError as exc:
                return TableReport(results=(), skipped_reason=str(exc))
            h3, u = cas.h_gamma3, cas.u_estimate
            data_note = f"CAS: h_gamma3 = {h3}, c_k = {cas.c_k}, u inferred = {u}"
        else:
            h3, u = row.h_gamma3, row.u
            data_note = ""
        verdict = classify(row.p, h3, u)
        ok = (
            verdict.status is VerdictStatus.CERTIFIED_9_3
            and verdict.class_group is not None
            and verdict.class_group.orders == (9, 3)
            and verdict.h_k3 == row.h_k3
        )
        if ok:
            message = f"p = {row.p}: certified {verdict.class_group}"
        else:
            message = (
                f"p = {row.p}: expected certified Z/9 x Z/3, got"
                f" {verdict.status.value}; trace: " + " | ".join(verdict.trace)
            )
        if data_note:
            message += f" [{data_note}]"
        results.append(TableRowResult(p=row.p, ok=ok, message=message, verdict=verdict))
    return TableReport(results=tuple(results))
