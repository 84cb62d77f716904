"""Optional bridge to an external computer algebra system (PARI/GP).

The adapter writes a short gp script to the subprocess's standard input,
asking for the class group invariants of the cubic field x^3 - d and of the
sextic field obtained by composing with x^2 + x + 1, and parses the two
integer lists from standard output.  The 3-parts of the invariants give the
shapes and 3-class numbers.  The CAS does not report the unit index, so
u_estimate is solved from h_k3 = (u/3) * h_gamma3^2, and data that admit no
u in {1, 3} are rejected.

A missing executable raises CasUnavailableError so callers can degrade to a
notice; anything else (timeout, bad exit, unparseable output) raises
CasError.  One adapter call is one subprocess, so separate calls may run
concurrently.
"""

from __future__ import annotations

import math
import re
import subprocess
from dataclasses import dataclass

from ._intmath import three_part
from .classifier import ClassGroupShape

_CUBIC_TAG = "CUBIC"
_SEXTIC_TAG = "SEXTIC"


class CasError(RuntimeError):
    """The CAS ran but did not produce a usable answer."""


class CasUnavailableError(RuntimeError):
    """The configured CAS executable cannot be started."""


@dataclass(frozen=True)
class CasConfig:
    command: tuple[str, ...] = ("gp", "-q")
    timeout: float = 120.0


@dataclass(frozen=True)
class CasResult:
    d: int
    h_gamma3: int
    c_gamma: ClassGroupShape
    c_k: ClassGroupShape
    u_estimate: int


def _script(d: int) -> str:
    return (
        "default(parisizemax, 256000000);\n"
        f"K = bnfinit(x^3 - {d}, 1);\n"
        f"L = bnfinit(polcompositum(x^3 - {d}, x^2 + x + 1)[1], 1);\n"
        f'print("{_CUBIC_TAG} ", K.clgp.cyc);\n'
        f'print("{_SEXTIC_TAG} ", L.clgp.cyc);\n'
    )


def _three_part(invariants: list[int]) -> tuple[int, ClassGroupShape]:
    """The 3-class number and 3-group shape of positive cyclic invariants."""
    parts = sorted((g for g in map(three_part, invariants) if g > 1), reverse=True)
    return math.prod(parts), ClassGroupShape(tuple(parts))


def _parse_invariants(output: str, tag: str) -> list[int]:
    for line in output.splitlines():
        line = line.strip()
        if line.startswith(tag):
            return [int(x) for x in re.findall(r"-?\d+", line[len(tag) :])]
    raise CasError(f"no '{tag}' line in CAS output: {output!r}")


def cas_query(d: int, config: CasConfig) -> CasResult:
    """Class-group data for the fields attached to d, freshly computed."""
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
        h_gamma3, c_gamma = _three_part(_parse_invariants(proc.stdout, _CUBIC_TAG))
        h_k3, c_k = _three_part(_parse_invariants(proc.stdout, _SEXTIC_TAG))
    except ValueError as exc:
        raise CasError(f"bad class group invariant for d = {d}: {exc}") from exc
    num = 3 * h_k3
    den = h_gamma3 * h_gamma3
    if num % den != 0 or num // den not in (1, 3):
        raise CasError(
            f"inconsistent CAS data for d = {d}: h_gamma3 = {h_gamma3},"
            f" h_k3 = {h_k3} admit no unit index in {{1, 3}}"
        )
    return CasResult(
        d=d,
        h_gamma3=h_gamma3,
        c_gamma=c_gamma,
        c_k=c_k,
        u_estimate=num // den,
    )
