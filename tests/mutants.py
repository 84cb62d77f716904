"""Mutation checks: each entry below breaks the library in one place and names
the tests that must then fail, so that a test which a later change makes
vacuous shows up as a survived mutant.

    python tests/mutants.py [name ...]

For each entry (or each one named) this copies src/ to a temporary directory,
applies the entry's one replacement, which must occur exactly once in its file,
and runs the named tests with PYTHONPATH pointing at the copy.  It prints one
JSON line per mutant: its name, "killed" when every named test failed,
"survived" when one of them passed (those are listed), or "error" when the
replacement or the test run could not be made or the run took more than
TIMEOUT seconds, and the seconds it took.  The exit status is 0 when every
mutant is killed, except the entries marked to survive, which must
survive; it is 1 otherwise.  It needs only the standard
library and pytest, and runs the mutants one after another.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: seconds a mutant's test run may take; past it the run is stopped and counts as an error
TIMEOUT = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # node ids, relative to the repository root
    survives: bool = False  # a control: the named tests must still pass


_SIEVE = "tests/test_intmath.py::test_matches_a_plain_sieve_across_the_table"
_DOMAIN = "tests/test_classifier.py::test_the_elimination_over_its_whole_domain"
_STRAINS = "tests/test_cli.py::test_table_fixture_that_strains_the_parser_is_one_error_line"
_SCAN_ORACLE = "tests/test_cli.py::test_scan_prints_what_deciding_every_radicand_prints"
_LONG_SHAPES = "tests/test_cli.py::test_table_row_of_long_shapes_prints_short_lines"
_NO_RHO = "tests/test_intmath.py::test_composites_below_1e8_split_without_rho"
_HUGE_H3 = "tests/test_cli.py::test_classify_refuses_an_h_gamma3_past_7000_bits_before_any_output"
_NAMED_H = "tests/test_cli.py::test_classify_names_a_class_number_past_39_digits_by_its_size"
_SYMBOL_ORACLE = (
    "tests/test_classifier.py::test_the_elimination_reads_the_symbol_of_three_the_public_symbol_computes"
)
_GP_OUTPUT = "tests/test_data_bridge.py::test_any_gp_output_is_a_row_or_one_cas_error"
_FORMS = "tests/test_radicand.py::test_sieve_matches_normalize"
_PAST_4300 = "tests/test_classifier.py::test_an_argument_past_4300_digits_is_named_by_its_size"
_WORK = "tests/test_cli.py::test_the_kernel_work_of_each_command_from_empty_caches"

MUTANTS = (
    # the gcd that proves 300^2 <= n < 2^20 prime
    Mutant(
        "gcd tier's primes stop at 2^9", "cubic93/_intmath.py",
        "range(_TRIAL_BOUND + 1, 1 << 10, 2)", "range(_TRIAL_BOUND + 1, 1 << 9, 2)",
        (_SIEVE,),
    ),
    Mutant(
        "gcd tier's bound raised to 2^21", "cubic93/_intmath.py",
        "_GCD_LIMIT = 1 << 20", "_GCD_LIMIT = 1 << 21",
        ("tests/test_intmath.py::test_factorize_matches_trial_division_on_cofactors_near_2_20",),
    ),
    Mutant(
        "gcd tier's product ends before 1021", "cubic93/_intmath.py",
        "range(_TRIAL_BOUND + 1, 1 << 10, 2)", "range(_TRIAL_BOUND + 1, 1021, 2)",
        (_SIEVE,),
    ),
    # the product tree that splits a composite cofactor below 1e8, and its descent
    Mutant(
        "descent keeps the child without the factor", "cubic93/_intmath.py",
        "i = 2 * i + (gcd(level[2 * i], m) == 1)", "i = 2 * i + (gcd(level[2 * i], m) > 1)",
        (_NO_RHO,),
    ),
    Mutant(
        "tree leaves start above 1000", "cubic93/_intmath.py",
        "range(_TRIAL_BOUND + 1, _TREE_BOUND, 2)", "range(1001, _TREE_BOUND, 2)",
        (_NO_RHO, "tests/test_intmath.py::test_prime_tree_is_built_once_from_the_primes_between_300_and_1e4"),
    ),
    Mutant(
        "descent only below 1e6", "cubic93/_intmath.py",
        "if m < _TREE_BOUND * _TREE_BOUND:", "if m < 10**6:",
        (_NO_RHO,),
    ),
    Mutant(
        "leaf taken as a factor unchecked", "cubic93/_intmath.py",
        "if not 1 < f < m or m % f:", "if not f:",
        ("tests/test_intmath.py::test_rho_raises_on_a_prime_read_as_composite",),
    ),
    # the two parsers of outside data
    Mutant(
        "relation message prints the h_k3 a huge h_gamma3 implies", "cubic93/fixtures.py",
        "= {_shown(expected_hk)}", "= {expected_hk}",
        (
            f"{_STRAINS}[h_gamma3-of-2386-digits]",
            "tests/test_data_bridge.py::test_any_fixture_line_is_a_row_or_one_fixture_error",
        ),
    ),
    Mutant(
        "CAS shape multiplied out however long", "cubic93/fixtures.py",
        "if (bits := sum(g.bit_length() for g in parts)) > _PRINT_BITS:",
        "if (bits := sum(g.bit_length() for g in parts)) > 100 * _PRINT_BITS:",
        (
            "tests/test_cli.py::test_table_cas_answer_with_200000_cyclic_factors_is_one_error_line",
            "tests/test_data_bridge.py::test_any_gp_output_is_a_row_or_one_cas_error",
        ),
    ),
    Mutant(
        "CAS message names its class numbers in full", "cubic93/fixtures.py",
        "h_gamma3 = {_shown(h_gamma3)},", "h_gamma3 = {h_gamma3},",
        (_GP_OUTPUT,),
    ),
    Mutant(
        "a gp token of any length handed to int()", "cubic93/fixtures.py",
        "default=0)) > digits:", "default=0)) > 10**6:",
        (_GP_OUTPUT,),
    ),
    Mutant(
        "a fixture h_gamma3 past 7000 bits taken", "cubic93/fixtures.py",
        "if h_gamma3.bit_length() > _PRINT_BITS // 2:", "if h_gamma3.bit_length() > _PRINT_BITS:",
        (f"{_STRAINS}[h_gamma3-of-7001-bits]",),
    ),
    Mutant(
        "RecursionError from the JSON decoder not caught", "cubic93/fixtures.py",
        "except (ValueError, RecursionError) as exc:", "except ValueError as exc:",
        (f"{_STRAINS}[nested-1100-deep]",),
    ),
    Mutant(
        "cyclic factors not counted before the order", "cubic93/fixtures.py",
        "if (n := len(orders)) > record[h].bit_length():",
        "if (n := len(orders)) > record[h].bit_length() + 10**6:",
        (f"{_STRAINS}[c_k-of-100000]", f"{_STRAINS}[c_k-of-100-huge]"),
    ),
    Mutant(
        "bits of a shape not bounded before it is built", "cubic93/fixtures.py",
        "> 2 * (record[h].bit_length() + n):", "> 2 * (record[h].bit_length() + n) + 10**9:",
        (f"{_STRAINS}[c_k-of-5-huge]",),
    ),
    Mutant(
        "a rejected value printed in full", "cubic93/fixtures.py",
        "got {reprlib.repr(value)}", "got {value!r}",
        (f"{_STRAINS}[p-a-list-of-100000]",),
    ),
    Mutant(
        "a long shape printed in full", "cubic93/classifier.py",
        "if len(text := str(value)) <= 100 else", "if len(text := str(value)) <= 10**9 else",
        (
            f"{_STRAINS}[c_k-of-12000-for-3818-digits]", _LONG_SHAPES,
            "tests/test_classifier.py::test_equivalence_names_a_shape_past_100_characters_by_its_orders",
        ),
    ),
    Mutant(
        "expected shape of a failed row printed in full", "cubic93/fixtures.py",
        "expected certified {_named(row.c_k)}", "expected certified {row.c_k}",
        (_LONG_SHAPES,),
    ),
    Mutant(
        "long increasing orders printed in full", "cubic93/classifier.py",
        "orders {reprlib.repr(orders)} must", "orders {orders} must",
        (f"{_STRAINS}[c_gamma-of-6000-increasing]",),
    ),
    # a supplied class number: bounded, and named by its size
    Mutant(
        "an h_gamma3 of up to 28 000 bits taken", "cubic93/classifier.py",
        "h_gamma3.bit_length() > _PRINT_BITS // 2:", "h_gamma3.bit_length() > 2 * _PRINT_BITS:",
        (f"{_HUGE_H3}[text]", f"{_HUGE_H3}[json]"),
    ),
    Mutant(
        "supplied h_gamma3 traced in full", "cubic93/classifier.py",
        "supplied h_gamma3 = {_shown(h_gamma3)}:", "supplied h_gamma3 = {h_gamma3}:",
        (f"{_NAMED_H}[candidate]", _LONG_SHAPES),
    ),
    Mutant(
        "h_k3 of the supplied data noted in full", "cubic93/classifier.py",
        "give h_k3 = {_shown(h_k3)},", "give h_k3 = {h_k3},",
        (f"{_NAMED_H}[excluded]",),
    ),
    Mutant(
        "a unit index refused by classify printed in full", "cubic93/classifier.py",
        'got {_shown(u)}")\n\n    form = normalize(d)', 'got {u}")\n\n    form = normalize(d)',
        ("tests/test_classifier.py::test_a_unit_index_past_4300_digits_is_named_by_its_size[classify]",),
    ),
    Mutant(
        "a shape past 4300 digits printed by its orders", "cubic93/classifier.py",
        "if (top := max(value.orders, default=1)).bit_length() > _PRINT_BITS:",
        "if (top := max(value.orders, default=1)).bit_length() > 10**9:",
        ("tests/test_classifier.py::test_equivalence_names_a_shape_past_100_characters_by_its_orders",),
    ),
    Mutant(
        "the equivalence prints a long supplied shape in full", "cubic93/classifier.py",
        "supplied cubic shape {_named(c_gamma)} contradicts", "supplied cubic shape {c_gamma} contradicts",
        ("tests/test_classifier.py::test_equivalence_names_a_shape_past_100_characters_by_its_orders",),
    ),
    Mutant(
        "normalize prints a refused radicand in full", "cubic93/radicand.py",
        "an integer >= 2, got {_shown(n)}", "an integer >= 2, got {n}",
        (f"{_PAST_4300}[normalize-negative]", f"{_PAST_4300}[classify]"),
    ),
    Mutant(
        "inputs line prints the class numbers in full", "cubic93/cli.py",
        "(n if n is None else _shown(n) for n in", "(n for n in",
        (f"{_NAMED_H}[candidate]", "tests/test_cli.py::test_classify_prints_the_largest_h_gamma3_it_takes[1]"),
    ),
    # the residue characters
    Mutant(
        "the image of w taken without its sign", "cubic93/eisenstein.py",
        "return -s * pow(t, -1, p) % p", "return s * pow(t, -1, p) % p",
        (
            "tests/test_eisenstein.py::test_factor_matches_the_divmod_oracle",
            "tests/test_eisenstein.py::test_factor_matches_divides_oracle_on_prime_powers",
            "tests/test_eisenstein.py::test_character_matches_zw_power_oracle_at_every_residue",
        ),
    ),
    Mutant(
        "split character returns instead of raising", "cubic93/eisenstein.py",
        'raise ArithmeticError(f"{x}^(({p} - 1)/3) mod {p} is not a cube root of unity")',
        "return CubicCharacterValue.ONE",
        ("tests/test_eisenstein.py::test_split_character_raises_off_the_cube_roots_of_unity",),
    ),
    Mutant(
        "inert character returns instead of raising", "cubic93/eisenstein.py",
        'raise ArithmeticError(f"({alpha})^(({q}^2 - 1)/3) mod {q} is not a cube root of unity")',
        "return CubicCharacterValue.ONE",
        ("tests/test_eisenstein.py::test_inert_character_raises_off_the_cube_roots_of_unity",),
    ),
    # the prime above a split p, and the symbol taken at it
    Mutant(
        "the prime above p not conjugated to b > 0", "cubic93/eisenstein.py",
        "    if b < 0:  # the conjugate (a - b) - b*w\n        a, b = a - b, -b\n", "",
        (
            "tests/test_eisenstein.py::test_split_seven",
            "tests/test_eisenstein.py::test_split_agrees_with_norm_search_oracle",
        ),
    ),
    Mutant(
        "the pair walk returns the associate without negation", "cubic93/eisenstein.py",
        "return (a, b) if a % 3 == 2 else (-a, -b)", "return (a, b)",
        ("tests/test_eisenstein.py::test_primary_associate_frozen_examples",),
    ),
    Mutant(
        "the symbol takes the image p - 1 - m of w^2 for m", "cubic93/eisenstein.py",
        "return _split_character(a, p, _omega_residue(*_split_pair(p), p))",
        "return _split_character(a, p, p - 1 - _omega_residue(*_split_pair(p), p))",
        (
            "tests/test_eisenstein.py::test_symbol_of_three_follows_the_supplementary_laws",
            "tests/test_eisenstein.py::test_symbol_agrees_with_character_at_prime_above_p",
        ),
    ),
    Mutant(
        "the elimination's table swaps (3/p)_3 = w and w^2", "cubic93/classifier.py",
        "(CubicCharacterValue.OMEGA_SQUARED, _CYCLIC_3),\n        (CubicCharacterValue.OMEGA, _CYCLIC_3),",
        "(CubicCharacterValue.OMEGA, _CYCLIC_3),\n        (CubicCharacterValue.OMEGA_SQUARED, _CYCLIC_3),",
        (_SYMBOL_ORACLE,),
    ),
    Mutant(
        "the elimination indexes its table by b mod 3, not b/3 mod 3", "cubic93/classifier.py",
        "_split_pair(p)[1] // 3 % 3]", "_split_pair(p)[1] % 3]",
        (_SYMBOL_ORACLE,),
    ),
    Mutant(
        "the decision key takes q = 2 (mod 9) for a class8mod9 prime", "cubic93/classifier.py",
        "8 if c8 else (c25[0][0] % 9", "2 if c8 else (c25[0][0] % 9",
        ("tests/test_classifier.py::test_the_inline_key_is_the_signature_below_20000",),
    ),
    Mutant(
        "a second _split_pair per verdict", "cubic93/classifier.py",
        "_SYMBOL_OF_THREE[_split_pair(p)[1] // 3 % 3]",
        "_SYMBOL_OF_THREE[(_split_pair(p) and _split_pair(p))[1] // 3 % 3]",
        (f"{_WORK}[classify 1000003]", f"{_WORK}[scan(30000)]"),
    ),
    # Eisenstein integers
    Mutant(
        "a foreign operand coerces to zero", "cubic93/eisenstein.py",
        "            return cls(other, 0)\n        return None",
        "            return cls(other, 0)\n        return cls(0, 0)",
        ("tests/test_eisenstein.py::test_arithmetic_with_a_str_is_refused",),
    ),
    Mutant(
        "int - z computed as z - int", "cubic93/eisenstein.py",
        "return (-self) + other", "return self - other",
        ("tests/test_eisenstein.py::test_int_coercion_in_arithmetic",),
    ),
    Mutant(
        "b*w printed as 0+bw", "cubic93/eisenstein.py",
        "        if self.a == 0:\n", "        if False:\n",
        ("tests/test_eisenstein.py::test_str_of_a_pure_multiple_of_omega",),
    ),
    Mutant(
        "a unit modulus not refused", "cubic93/eisenstein.py",
        "        raise ValueError(f\"a + b*w with (a, b) = ({_shown(pi.a)}",
        "        if not pi.is_unit:\n            raise ValueError(f\"a + b*w with (a, b) = ({_shown(pi.a)}",
        ("tests/test_eisenstein.py::test_character_rejects_bad_moduli",),
    ),
    Mutant(
        "a refused modulus printed in full", "cubic93/eisenstein.py",
        "({_shown(pi.a)}, {_shown(pi.b)}) is not a prime", "({pi.a}, {pi.b}) is not a prime",
        ("tests/test_eisenstein.py::test_character_rejects_bad_moduli",),
    ),
    Mutant(
        "a huge input to primary_associate printed in full", "cubic93/eisenstein.py",
        'ab = f"({_shown(z.a)}, {_shown(z.b)})"', 'ab = f"({z.a}, {z.b})"',
        ("tests/test_eisenstein.py::test_primary_associate_frozen_examples",),
    ),
    # the elimination
    Mutant(
        "decision: the J == 0 branch before the J == 0 and v == 1 branch", "cubic93/classifier.py",
        """    elif J == 0 and v == 1:
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
""",
        """    elif J == 0:
        code, form = ReasonCode.THREE_TIMES_NONRESIDUE_CYCLIC, FormClass.THREE_P_47MOD9
        named, predicted = True, _CYCLIC_3
        line = (
            "d = {factors} with {p} = 4 or 7 (mod 9): for this shape"
            " the sextic 3-class group is cyclic of order 3, not (9, 3)"
        )
        detail = "C_k3 is cyclic of order 3 for 3^e * p^e1 with p = 4 or 7 (mod 9)"
    elif J == 0 and v == 1:
        code, form, named = ReasonCode.THREE_TIMES_SPLIT_RANK, FormClass.THREE_P_1MOD9, True
        line = (
            f"3 and {{p}} = 1 (mod 9) ramify: t = {t} primes of k0"
            " (lam and the two above p), all non-lam ones 1 mod lam^3,"
            f" so q* = 1 and the ambiguous rank is {sigma_rank};"
            " type (9, 3) needs ambiguous rank 1"
        )
        detail = f"t = {t}, q* = 1, ambiguous rank {sigma_rank} != 1"
""",
        (_DOMAIN,),
    ),
    Mutant(
        "t one too high at J = 6", "cubic93/ramification.py",
        "t = three + 2 * w + J", "t = three + 2 * w + J + (J == 6)",
        (_DOMAIN,),
    ),
    # the exact period check of genus, and the primes it is defined for
    Mutant(
        "period polynomial refuses only p = 2 (mod 3)", "cubic93/genus.py",
        "    if p % 3 != 1:\n", "    if p % 3 == 2:\n",
        ("tests/test_genus.py::test_period_polynomial_rejects_wrong_primes",),
    ),
    Mutant(
        "period polynomial proves p prime itself again", "cubic93/genus.py",
        "    if p % 3 != 1:\n", "    if not is_prime(p) or p % 3 != 1:\n",
        ("tests/test_genus.py::test_period_polynomial_proves_p_prime_once",),
    ),
    Mutant(
        "period check: a wrong coset label", "cubic93/genus.py",
        "coset[t] = 2", "coset[t] = 1",
        ("tests/test_genus.py::test_exact_check_rejects_perturbed_cubics[199]",),
    ),
    Mutant(
        "period check: an off-by-one coset index", "cubic93/genus.py",
        "etas[coset[t]] += z", "etas[coset[t - 1]] += z",
        ("tests/test_genus.py::test_exact_check_rejects_perturbed_cubics[199]",),
    ),
    # scan --max's listing and count
    Mutant(
        "squares p^2 not listed", "cubic93/classifier.py",
        "elif (p := math.isqrt(d)) * p == d and p % 18 == 1 and is_prime(p):", "elif False:",
        (f"{_SCAN_ORACLE}[False-361]", f"{_SCAN_ORACLE}[True-361]"),
    ),
    Mutant(
        "squares of p = 17 (mod 18) listed too", "cubic93/classifier.py",
        "* p == d and p % 18 == 1 and is_prime(p)", "* p == d and is_prime(p)",
        (f"{_SCAN_ORACLE}[False-360]", f"{_SCAN_ORACLE}[True-360]"),
    ),
    # the sieve of library scan
    Mutant(
        "the sieve lists d = 0 and d = 1", "cubic93/radicand.py",
        'cube_free = bytearray(2) + b"\\x01" * (n - 2)', 'cube_free = bytearray(b"\\x01") * n',
        (_FORMS,),
    ),
    Mutant(
        "the sieve skips the primes above isqrt(limit)", "cubic93/radicand.py",
        "for p in compress(range(n), prime):", "for p in compress(range(root + 1), prime):",
        (_FORMS, f"{_FORMS}_up_to_the_scan_bound"),
    ),
    Mutant(
        "cube-free count includes m = 1", "cubic93/radicand.py",
        "total, k = -1, 1", "total, k = 0, 1",
        ("tests/test_radicand.py::test_cube_free_count_is_the_running_count_of_the_sieve",),
    ),
    # the collector pause that scan shares with every other thread
    Mutant(
        "collector not turned back on after a scan", "cubic93/classifier.py",
        "        if enabled:\n            gc.enable()", "        if enabled:\n            pass",
        ("tests/test_classifier.py::test_scan_and_classify_in_two_threads_give_the_verdicts_of_one",),
    ),
    Mutant(
        "scan without its collector pause", "cubic93/classifier.py",
        "    enabled = gc.isenabled()\n    gc.disable()\n", "    enabled = gc.isenabled()\n",
        (f"{_WORK}[scan(30000)]",),
    ),
    # the control: a comment edit changes no behaviour, so nothing can kill it
    Mutant(
        "comment edited (control)", "cubic93/_intmath.py",
        "#: Pollard-Brent rho steps per gcd", "#: Pollard-Brent rho steps per gcd (edited)",
        (_SIEVE,), survives=True,
    ),
)


def mutated(mutant: Mutant, src: Path = SRC) -> str:
    """The text of mutant.file under src with the one replacement made; a
    ValueError when old does not occur there exactly once."""
    text = (src / mutant.file).read_text(encoding="utf-8")
    if (found := text.count(mutant.old)) != 1:
        raise ValueError(f"old occurs {found} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def run(mutant: Mutant) -> dict[str, object]:
    """Apply mutant to a copy of src/ and run its tests there."""
    start = time.perf_counter()
    record: dict[str, object] = {"name": mutant.name}
    with tempfile.TemporaryDirectory(prefix="cubic93-mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        try:
            (copy / mutant.file).write_text(mutated(mutant, copy), encoding="utf-8")
        except ValueError as exc:
            return {**record, "result": "error", "why": str(exc)}
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy), env.get("PYTHONPATH")]))
        where = subprocess.run(
            [sys.executable, "-c", "import cubic93; print(cubic93.__file__)"],
            capture_output=True, text=True, env=env, cwd=ROOT,
        ).stdout.strip()
        if not where.startswith(str(copy)):
            return {**record, "result": "error", "why": f"cubic93 imports from {where!r}"}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.tests],
                capture_output=True, text=True, env=env, cwd=ROOT, timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return {**record, "result": "error", "why": f"its tests ran past {TIMEOUT} s"}
    failed = set(re.findall(r"^FAILED (.+?)(?: - .*)?$", proc.stdout, re.MULTILINE))
    passed = [t for t in mutant.tests if t not in failed]
    if proc.returncode not in (0, 1):  # a named test that does not exist, or a crash
        return {**record, "result": "error", "why": proc.stdout.strip().splitlines()[-1:]}
    return {
        **record,
        "result": "survived" if passed else "killed",
        "passed": passed,
        "seconds": round(time.perf_counter() - start, 2),
    }


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {sorted(unknown)}", file=sys.stderr)
        return 2
    ok = True
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        record = run(mutant)
        print(json.dumps(record), flush=True)
        ok &= record["result"] == ("survived" if mutant.survives else "killed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
