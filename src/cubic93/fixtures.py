"""Fixture rows, the CAS adapter that recomputes them, and table reproduction.

The bundled table lists 28 primes p = 1 (mod 9), from 199 up to 5347, whose
cubic field has 3-class number exactly 9 and whose sextic field has unit
index u = 1; for each of them the sextic 3-class group is Z/9 x Z/3.  It
is read as a plain file, data/type93_fixtures.jsonl next to this module, so
the package must be installed as files, not imported from a zip archive.

Fixture files are JSON Lines: one object per row with the fields
p, h_gamma3, h_k3, u, c_gamma, c_k, and no others.  Every value must be a
JSON integer (a list of them for c_gamma and c_k); floats, strings and
booleans are rejected rather than coerced.

The class data were computed with PARI/GP, and cas_query recomputes a row
when a gp binary is available.  Its gp script, written to the subprocess's
standard input, asks for the class group invariants of the cubic field
x^3 - d and of the sextic field obtained by composing with x^2 + x + 1.  The
3-parts of the two integer lists it prints give c_gamma and c_k with their
orders h_gamma3 and h_k3.  gp does not report the unit index, so u is solved
from h_k3 = (u/3) * h_gamma3^2, and data that admit no u in {1, 3} are
rejected.  A recomputed row passes the table only if it equals the fixture
row, field by field.  An executable that does not exist raises
CasUnavailableError, so that callers can degrade to a notice; one that
cannot be started, runs longer than _CAS_TIMEOUT_S seconds, exits non-zero
or prints unparseable output raises CasError; an empty command raises
ValueError.  One call is one subprocess, so separate calls may run
concurrently.
"""

from __future__ import annotations

import json
import re
import reprlib
import subprocess
from pathlib import Path
from typing import NamedTuple

from ._intmath import _PRINT_BITS, _shown, is_prime, three_part
from .classifier import ClassGroupShape, Verdict, VerdictStatus, _named, classify, hk_from_hgamma

_BUNDLED = "data/type93_fixtures.jsonl"
#: seconds one CAS call may run before it counts as failed
_CAS_TIMEOUT_S = 120.0


class FixtureError(ValueError):
    """A fixture file is missing, malformed or violates a row invariant."""


class FixtureRow(NamedTuple):  # its fields are the file's keys, in order
    p: int
    h_gamma3: int
    h_k3: int
    u: int
    c_gamma: ClassGroupShape
    c_k: ClassGroupShape


def _integer(value: object, name: str) -> int:
    """value itself if it is a JSON integer; bools, floats and strings fail."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return value


def _parse_row(line: str) -> FixtureRow:
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:  # too deeply nested, or an int too long
        raise ValueError(f"not valid JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise ValueError("expected one JSON object per line")
    missing = [k for k in FixtureRow._fields if k not in record]
    if missing:
        raise ValueError(f"missing fields {missing}")
    unknown = [k for k in record if k not in FixtureRow._fields]
    if unknown:
        raise ValueError(f"unknown fields {unknown}")
    for key in ("c_gamma", "c_k"):
        if not isinstance(record[key], list):
            raise ValueError(f"{key} must be a list of cyclic orders")
    p, h_gamma3, h_k3, u = (_integer(record[k], k) for k in FixtureRow._fields[:4])
    gamma_orders, k_orders = (
        tuple(_integer(x, f"{k} entry") for x in record[k])
        for k in ("c_gamma", "c_k")
    )
    # on plain ints, before ClassGroupShape divides them; twice the log2(h) + n bits of a valid shape
    for key, orders, h in (("c_gamma", gamma_orders, "h_gamma3"), ("c_k", k_orders, "h_k3")):
        if (n := len(orders)) > record[h].bit_length():  # order >= 3^n > 2^n > h
            raise ValueError(f"{key} has {n} cyclic factors, too many for {h} = {_shown(record[h])}")
        if (bits := sum(x.bit_length() for x in orders)) > 2 * (record[h].bit_length() + n):
            raise ValueError(f"{key} orders hold {bits} bits, too many for {h} = {_shown(record[h])}")
    c_gamma, c_k = ClassGroupShape(gamma_orders), ClassGroupShape(k_orders)
    # is_prime raises ValueError for p above the range where primality is proven
    if not is_prime(p):
        raise ValueError(f"p = {_shown(p)} is not prime")
    expected_hk = hk_from_hgamma(h_gamma3, u)
    if h_k3 != expected_hk:
        raise ValueError(f"h_k3 = {_shown(h_k3)} violates h_k3 = (u/3)*h_gamma3^2 = {_shown(expected_hk)}")
    if h_gamma3.bit_length() > _PRINT_BITS // 2:  # as classify does, so table reports bad data
        raise ValueError(f"h_gamma3 must have at most {_PRINT_BITS // 2} bits, got {_shown(h_gamma3)}")
    for key, shape, h in (("c_gamma", c_gamma, "h_gamma3"), ("c_k", c_k, "h_k3")):
        if (order := shape.order) != record[h]:
            named = f"= {text}" if (text := _named(shape)) == str(shape) else f"of {text}"
            raise ValueError(f"{key} {named} has order {_shown(order)}, not {h} = {_shown(record[h])}")
    return FixtureRow(p, h_gamma3, h_k3, u, c_gamma, c_k)


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
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FixtureError(f"cannot read fixture file {path}: {exc}") from exc
    return _parse_lines(text, str(path))


def load_bundled_fixtures() -> list[FixtureRow]:
    """The table shipped with the package."""
    text = (Path(__file__).parent / _BUNDLED).read_text(encoding="utf-8")
    return _parse_lines(text, "bundled table")


class CasError(RuntimeError):
    """The CAS could not be started or did not produce a usable answer."""


class CasUnavailableError(RuntimeError):
    """The CAS executable does not exist."""


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


def _tagged_shape(output: str, tag: str) -> ClassGroupShape:
    """The 3-group shape of the invariants on gp's tag line; its order is the 3-class number."""
    digits = len(str(1 << _PRINT_BITS))  # a token of more digits has more bits
    for line in output.splitlines():
        if (line := line.strip()).startswith(tag):
            tokens = re.findall(r"-?\d+", line[len(tag) :])
            # refused before int(), which stops at 4 300 digits with CPython's own message
            if (n := max((len(t.lstrip("-")) for t in tokens), default=0)) > digits:
                raise ValueError(f"{tag} lists an invariant of {n} digits: too large")
            parts = sorted((g for g in map(three_part, map(int, tokens)) if g > 1), reverse=True)
            # refused before it is multiplied out: by Landau's bound no field of a
            # d below 3.3e24 has a class number anywhere near 2^_PRINT_BITS
            if (bits := sum(g.bit_length() for g in parts)) > _PRINT_BITS:
                raise ValueError(f"{tag} lists {len(parts)} cyclic 3-parts, {bits} bits: too large")
            return ClassGroupShape(tuple(parts))
    raise CasError(f"no '{tag}' line in CAS output: {reprlib.repr(output)}")


def cas_query(d: int, command: tuple[str, ...]) -> FixtureRow:
    """The fixture row of the prime d, freshly computed by the gp command argv."""
    if not command:
        raise ValueError("CAS command is empty")
    try:
        proc = subprocess.run(
            list(command),
            input=_script(d),
            capture_output=True,
            text=True,
            timeout=_CAS_TIMEOUT_S,
        )
    except FileNotFoundError as exc:
        raise CasUnavailableError(f"CAS executable not found: {exc}") from exc
    except subprocess.TimeoutExpired as exc:
        raise CasError(f"CAS timed out after {_CAS_TIMEOUT_S}s for d = {d}") from exc
    except OSError as exc:
        raise CasError(f"cannot start CAS command {' '.join(command)!r}: {exc}") from exc
    if proc.returncode != 0:
        raise CasError(
            f"CAS exited with {proc.returncode} for d = {d}: {proc.stderr.strip()}"
        )
    try:
        c_gamma, c_k = (_tagged_shape(proc.stdout, tag) for tag in (_CUBIC_TAG, _SEXTIC_TAG))
    except ValueError as exc:
        raise CasError(f"bad class group invariant for d = {d}: {exc}") from exc
    h_gamma3, h_k3 = c_gamma.order, c_k.order
    u, remainder = divmod(3 * h_k3, h_gamma3 * h_gamma3)
    if remainder or u not in (1, 3):
        raise CasError(
            f"inconsistent CAS data for d = {d}: h_gamma3 = {_shown(h_gamma3)},"
            f" h_k3 = {_shown(h_k3)} admit no unit index in {{1, 3}}"
        )
    return FixtureRow(d, h_gamma3, h_k3, u, c_gamma, c_k)


class TableRowResult(NamedTuple):
    p: int
    ok: bool
    message: str
    verdict: Verdict | None


class TableReport(NamedTuple):
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
    cas_command: tuple[str, ...] | None = None,
) -> TableReport:
    """Re-certify every fixture row through classify().

    Rows come from fixtures_path, or from the bundled table when it is None.
    Without a cas_command each row's own (h_gamma3, u) is fed back in; with
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
            data = row if cas_command is None else cas_query(row.p, cas_command)
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
                f"{k} = {_named(getattr(data, k))} recomputed, {_named(getattr(row, k))} in the row"
                for k in FixtureRow._fields
                if getattr(data, k) != getattr(row, k)
            )
        else:
            got = "no certified shape" if verdict.class_group is None else verdict.class_group
            message = (
                f"p = {row.p}: expected certified {_named(row.c_k)}, got {got}"
                f" ({verdict.status.value}); trace: " + " | ".join(verdict.trace)
            )
        if cas_command is not None:
            message += (f" [CAS: h_gamma3 = {_named(data.h_gamma3)}, c_k = {_named(data.c_k)},"
                        f" u inferred = {data.u}]")
        results.append(TableRowResult(p=row.p, ok=ok, message=message, verdict=verdict))
    return TableReport(results=tuple(results))
