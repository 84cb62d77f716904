"""Fixture files, the table reproduction report and the CAS adapter.

The CAS is exercised through a scripted stand-in executable, so no external
computer algebra system is ever required here.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cubic93.fixtures
from cubic93._intmath import _PRINT_BITS
from cubic93.classifier import ClassGroupShape, hk_from_hgamma
from cubic93.fixtures import (
    CasError,
    CasUnavailableError,
    FixtureError,
    FixtureRow,
    _parse_lines,
    cas_query,
    load_bundled_fixtures,
    load_fixtures,
    reproduce_table,
)


def bundled_lines() -> list[str]:
    """The lines of the bundled fixture file, each with its newline."""
    bundled = Path(cubic93.fixtures.__file__).parent / cubic93.fixtures._BUNDLED
    return bundled.read_text(encoding="utf-8").splitlines(keepends=True)


# ------------------------------------------------------------------- fixtures


def test_bundled_table_shape():
    rows = load_bundled_fixtures()
    assert len(rows) == 28
    assert rows[0].p == 199
    assert rows[-1].p == 5347
    for row in rows:
        assert row.p % 9 == 1
        assert row.h_gamma3 == 9 and row.h_k3 == 27 and row.u == 1
        assert row.c_gamma == ClassGroupShape.of(9)
        assert row.c_k == ClassGroupShape.of(9, 3)
        assert row.h_k3 == hk_from_hgamma(row.h_gamma3, row.u)


def test_bundled_rows_respect_genus_bound():
    # genus number 3^r divides the 3-part of the cubic class number
    from cubic93.genus import genus_number

    for row in load_bundled_fixtures():
        r, g = genus_number(row.p)
        assert r == 1
        assert row.h_gamma3 % g == 0


def test_load_rejects_bad_h_relation(tmp_path: Path):
    path = tmp_path / "rows.jsonl"
    path.write_text(
        json.dumps(
            {"p": 199, "h_gamma3": 9, "h_k3": 28, "u": 1, "c_gamma": [9], "c_k": [9, 3]}
        )
        + "\n"
    )
    with pytest.raises(FixtureError, match="line 1"):
        load_fixtures(path)


def test_load_rejects_malformed_lines_with_line_numbers(tmp_path: Path):
    good = json.dumps(
        {"p": 199, "h_gamma3": 9, "h_k3": 27, "u": 1, "c_gamma": [9], "c_k": [9, 3]}
    )
    path = tmp_path / "rows.jsonl"
    path.write_text(good + "\n" + "{not json}\n")
    with pytest.raises(FixtureError, match="line 2"):
        load_fixtures(path)
    path.write_text(good + "\n" + json.dumps({"p": 199}) + "\n")
    with pytest.raises(FixtureError, match="missing fields"):
        load_fixtures(path)
    path.write_text(json.dumps({"p": 198, "h_gamma3": 9, "h_k3": 27, "u": 1,
                                "c_gamma": [9], "c_k": [9, 3]}) + "\n")
    with pytest.raises(FixtureError, match="not prime"):
        load_fixtures(path)
    path.write_text(json.dumps({"p": 10**30 + 57, "h_gamma3": 9, "h_k3": 27, "u": 1,
                                "c_gamma": [9], "c_k": [9, 3]}) + "\n")
    with pytest.raises(FixtureError, match=r"line 1: .*3\.3e24"):
        load_fixtures(path)
    path.write_text(good + "\n" + json.dumps({"p": 199, "h_gamma3": 9, "h_k3": 54, "u": 2,
                                              "c_gamma": [9], "c_k": [9, 3]}) + "\n")
    with pytest.raises(FixtureError, match="line 2: unit index must be 1 or 3, got 2"):
        load_fixtures(path)


@pytest.mark.parametrize(
    ("row", "message"),
    [
        ({"extra": 1}, "unknown fields ['extra']"),
        ({"p_squared": 39601}, "unknown fields ['p_squared']"),
        ({"c_gamma": 9}, "c_gamma must be a list of cyclic orders"),
        ({"c_k": [3, 9]}, "orders (3, 9) must be non-increasing"),
        ([1, 2], "expected one JSON object per line"),
        ({"c_gamma": [3], "c_k": [27]}, "c_gamma = Z/3 has order 3, not h_gamma3 = 9"),
        ({"c_k": [9, 9]}, "c_k = Z/9 x Z/9 has order 81, not h_k3 = 27"),
    ],
    ids=["extra-key", "p_squared", "c_gamma-not-a-list", "c_k-increasing", "not-an-object",
         "c_gamma-order", "c_k-order"],
)
def test_load_rejects_bad_rows(tmp_path: Path, row, message: str):
    good = {"p": 199, "h_gamma3": 9, "h_k3": 27, "u": 1, "c_gamma": [9], "c_k": [9, 3]}
    record = {**good, **row} if isinstance(row, dict) else row
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(FixtureError, match="line 1: " + re.escape(message)):
        load_fixtures(path)


@pytest.mark.parametrize(
    "extra",
    [
        {"p": 199.9, "h_gamma3": 9.2, "c_gamma": [9.7]},
        {"p": 199.0},
        {"p": "199"},
        {"h_gamma3": "9"},
        {"h_k3": 27.0},
        {"u": True},
        {"c_gamma": [9.0]},
        {"c_k": [9, "3"]},
        {"c_k": [9, True]},
    ],
    ids=lambda extra: json.dumps(extra),
)
def test_load_rejects_non_integer_values(tmp_path: Path, extra: dict):
    good = {"p": 199, "h_gamma3": 9, "h_k3": 27, "u": 1, "c_gamma": [9], "c_k": [9, 3]}
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **extra}) + "\n")
    with pytest.raises(FixtureError, match="line 2: .* must be an integer"):
        load_fixtures(path)


def test_load_empty_file(tmp_path: Path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_fixtures(path) == []


def test_load_missing_file(tmp_path: Path):
    with pytest.raises(FixtureError, match="does not exist"):
        load_fixtures(tmp_path / "nope.jsonl")


# an integer of up to about 4000 digits: small, a power of 3 (the orders of a
# shape), or any size in between; CPython reads and prints up to 4300 digits
INTEGERS = st.one_of(
    st.integers(-30, 300),
    st.integers(0, 8000).map(lambda e: 3**e),
    st.integers(-(10**4000), 10**4000),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | INTEGERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# lists of up to 10^5 entries, of small entries only, so that a line stays
# below a megabyte
LONG_LISTS = st.tuples(
    st.sampled_from([3, 9, 27, 1, 0, -3, 6, True, 1.5, None]), st.integers(0, 10**5)
).map(lambda entry_count: [entry_count[0]] * entry_count[1])
# tokens of 4 001 to 6 000 digits, past the 4 300 digits at which CPython's
# int() and str() stop, so they are built as text
LONG_TOKENS = st.builds(
    lambda sign, head, n: sign + (head * n)[:n],
    st.sampled_from(["", "-"]), st.integers(1, 10**30).map(str), st.integers(4_001, 6_000),
)
VALID_ROW = {"p": 199, "h_gamma3": 9, "h_k3": 27, "u": 1, "c_gamma": [9], "c_k": [9, 3]}


@st.composite
def fixture_lines(draw) -> str:
    """A line of a fixture file: mostly the valid row with fields replaced,
    dropped or added, else nesting past the recursion limit, or any text."""
    kind = draw(st.sampled_from(["row", "row", "row", "nested", "text"]))
    if kind == "nested":
        depth = draw(st.integers(1, 5000))
        return draw(st.sampled_from(["[" * depth + "]" * depth, '{"a": ' * depth + "1" + "}" * depth]))
    if kind == "text":
        return " ".join(draw(st.text()).splitlines())
    row = dict(VALID_ROW)
    for key in draw(st.sets(st.sampled_from(FixtureRow._fields), max_size=3)):
        shapes = [LONG_LISTS, st.lists(INTEGERS, max_size=4)] if key.startswith("c_") else []
        row[key] = draw(st.one_of(INTEGERS, *shapes, JSON_VALUES))
    rarely = st.sampled_from([False] * 7 + [True])
    if draw(rarely):
        row.pop(draw(st.sampled_from(FixtureRow._fields)))
    if draw(rarely):
        row[draw(st.text(max_size=3))] = draw(JSON_VALUES)
    return json.dumps(row)


@settings(max_examples=150, deadline=None)
@given(fixture_lines())
@example(json.dumps({**VALID_ROW, "h_gamma3": 3**5000}))
@example(json.dumps({**VALID_ROW, "c_k": [3] * 100_000}))
@example("[" * 1100)
def test_any_fixture_line_is_a_row_or_one_fixture_error(line):
    # the message names the row's fault: it never trips over CPython's limit
    # on printing an int, which no parsed value here reaches
    start = time.perf_counter()
    try:
        _parse_lines(line, "f")
    except FixtureError as exc:
        assert str(exc).startswith("f, line 1: ") and "Exceeds the limit" not in str(exc)
    assert time.perf_counter() - start < 2


# ------------------------------------------------------------ table reproduction


def test_reproduce_table_from_fixtures():
    report = reproduce_table()
    assert report.all_ok
    assert len(report.results) == 28
    assert report.summary == "28/28 rows certified as type (9, 3)"


def test_reproduce_table_is_order_independent(tmp_path: Path):
    lines = bundled_lines()
    random.Random(11).shuffle(lines)
    path = tmp_path / "shuffled.jsonl"
    path.write_text("".join(lines))
    report = reproduce_table(path)
    assert report.all_ok
    assert {r.p for r in report.results} == {r.p for r in load_bundled_fixtures()}


def test_reproduce_table_flags_corrupted_row(tmp_path: Path):
    # u = 3 forces h_k3 = 81 (so c_k of order 81) for the row to load;
    # classify then refuses it
    path = tmp_path / "corrupt.jsonl"
    path.write_text(
        json.dumps(
            {"p": 199, "h_gamma3": 9, "h_k3": 81, "u": 3, "c_gamma": [9], "c_k": [9, 9]}
        )
        + "\n"
    )
    report = reproduce_table(path)
    assert not report.all_ok
    (result,) = report.results
    assert not result.ok
    assert "expected certified" in result.message


def test_reproduce_table_compares_the_certified_shape_with_c_k(tmp_path: Path):
    # Z/3 x Z/3 x Z/3 has the order 27 = h_k3, so the row loads, but 199
    # certifies as Z/9 x Z/3
    path = tmp_path / "elementary.jsonl"
    path.write_text(
        json.dumps(
            {"p": 199, "h_gamma3": 9, "h_k3": 27, "u": 1, "c_gamma": [9], "c_k": [3, 3, 3]}
        )
        + "\n"
    )
    (row,) = load_fixtures(path)
    assert row.c_k.order == row.h_k3
    report = reproduce_table(path)
    (result,) = report.results
    assert not result.ok and not report.all_ok
    assert result.verdict.class_group == ClassGroupShape.of(9, 3)
    assert "expected certified Z/3 x Z/3 x Z/3, got Z/9 x Z/3 (certified_9_3)" in result.message


# ------------------------------------------------------------------ CAS bridge


def make_stub(tmp_path: Path, body: str) -> tuple[str, ...]:
    script = tmp_path / "fake_gp.py"
    script.write_text(body)
    return (sys.executable, str(script))


GOOD_STUB = """\
import sys
text = sys.stdin.read()
assert "bnfinit" in text and "polcompositum" in text
print("CUBIC [9]")
print("SEXTIC [9, 3]")
"""


def test_cas_query_parses_stub_transcript(tmp_path: Path):
    command = make_stub(tmp_path, GOOD_STUB)
    result = cas_query(199, command)
    assert result.h_gamma3 == 9
    assert result.c_gamma == ClassGroupShape.of(9)
    assert result.c_k == ClassGroupShape.of(9, 3)
    assert result.u == 1
    assert result == load_bundled_fixtures()[0]


def test_cas_three_part_extraction(tmp_path: Path):
    # mixed invariants: 18 = 2 * 3^2 and 6 = 2 * 3 carry the 3-parts 9 and 3
    command = make_stub(
        tmp_path,
        'import sys; sys.stdin.read(); print("CUBIC [9]"); print("SEXTIC [18, 6]")',
    )
    result = cas_query(199, command)
    assert result.c_k == ClassGroupShape.of(9, 3)
    assert result.h_gamma3 == 9
    assert result.u == 1


def test_cas_u_inference_rejects_impossible_data(tmp_path: Path):
    command = make_stub(
        tmp_path,
        'import sys; sys.stdin.read(); print("CUBIC [9]"); print("SEXTIC [3]")',
    )
    with pytest.raises(CasError, match="no unit index"):
        cas_query(199, command)


@pytest.mark.parametrize("invariants", ["[0]", "[-9]"])
def test_cas_rejects_non_positive_invariants(tmp_path: Path, invariants: str):
    command = make_stub(
        tmp_path,
        'import sys; sys.stdin.read(); print("CUBIC [9]");'
        f' print("SEXTIC {invariants}")',
    )
    with pytest.raises(CasError, match="invariant"):
        cas_query(199, command)


def test_cas_missing_executable_is_unavailable():
    with pytest.raises(CasUnavailableError):
        cas_query(199, ("/nonexistent/gp-binary",))


def test_cas_that_cannot_be_started_is_an_error(tmp_path: Path):
    # a directory exists, so the CAS is not missing: it fails to start
    with pytest.raises(CasError, match=re.escape(f"cannot start CAS command '{tmp_path}'")):
        cas_query(199, (str(tmp_path),))


def test_cas_empty_command_is_rejected():
    with pytest.raises(ValueError, match="CAS command is empty"):
        cas_query(199, ())
    with pytest.raises(ValueError, match="CAS command is empty"):
        reproduce_table(cas_command=())


def test_cas_timeout_is_an_error(monkeypatch):
    monkeypatch.setattr(cubic93.fixtures, "_CAS_TIMEOUT_S", 0.3)
    with pytest.raises(CasError, match="timed out"):
        cas_query(199, (sys.executable, "-c", "import time; time.sleep(5)"))


def test_cas_unparseable_output(tmp_path: Path):
    command = make_stub(tmp_path, 'import sys; sys.stdin.read(); print("garbage")')
    with pytest.raises(CasError, match="CUBIC"):
        cas_query(199, command)


def test_cas_nonzero_exit(tmp_path: Path):
    command = make_stub(tmp_path, "import sys; sys.exit(3)")
    with pytest.raises(CasError, match="exited with 3"):
        cas_query(199, command)


@st.composite
def gp_outputs(draw) -> str:
    """What a gp stand-in might print: tagged lines of invariants, long or
    short, around any text."""
    lines = draw(st.lists(st.text(max_size=8), max_size=2))
    for tag in draw(st.lists(st.sampled_from(["CUBIC", "SEXTIC", "CUBIC ", "SEXTIC:"]), max_size=3)):
        tokens = st.lists(st.one_of(INTEGERS.map(str), LONG_TOKENS), max_size=6)
        invariants = draw(st.one_of(tokens.map(lambda xs: f"[{', '.join(xs)}]"), LONG_LISTS))
        lines.insert(draw(st.integers(0, len(lines))), f"{tag} {invariants}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(gp_outputs())
@example("CUBIC [" + ", ".join(["3"] * 10_000) + "]\nSEXTIC [9, 3]\n")
@example("CUBIC [" + ", ".join(["3"] * 200_000) + "]\nSEXTIC [9, 3]\n")
@example(f"CUBIC [{3**2000}]\nSEXTIC [9, 3]\n")  # h_gamma3 of 955 digits, no unit index
@example(f"CUBIC [{'3' * 5_000}]\nSEXTIC [9, 3]\n")  # past int()'s 4 300 digits
def test_any_gp_output_is_a_row_or_one_cas_error(stdout):
    def gp(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    start = time.perf_counter()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cubic93.fixtures.subprocess, "run", gp)
        try:
            row = cas_query(199, ("gp",))
        except CasError as exc:
            # one short line, and a class number it names by its size fits in
            # _PRINT_BITS: a longer shape is refused before it is multiplied out
            message = str(exc)
            assert len(message) <= 400 and "Exceeds the limit" not in message, message[:400]
            assert all(int(n) <= _PRINT_BITS for n in re.findall(r"a (\d+)-bit integer", message))
        else:
            assert row.p == 199 and row.u in (1, 3)
    assert time.perf_counter() - start < 2


def test_reproduce_table_with_cas_stub(tmp_path: Path):
    path = tmp_path / "three.jsonl"
    path.write_text("".join(bundled_lines()[:3]))
    report = reproduce_table(path, make_stub(tmp_path, GOOD_STUB))
    assert report.all_ok
    assert len(report.results) == 3
    assert all("CAS" in r.message for r in report.results)


@pytest.mark.parametrize(
    ("cubic", "sextic", "difference"),
    [
        ("[9]", "[27]", "c_k = Z/27 recomputed, Z/9 x Z/3 in the row"),
        ("[3, 3]", "[9, 3]", "c_gamma = Z/3 x Z/3 recomputed, Z/9 in the row"),
    ],
    ids=["sextic-27", "cubic-3-3"],
)
def test_reproduce_table_fails_a_recomputed_row_that_differs(
    tmp_path: Path, cubic: str, sextic: str, difference: str
):
    # both answers keep h_gamma3 = 9 and u = 1, so 199 still certifies as
    # Z/9 x Z/3, but the recomputed row is not the fixture row
    path = tmp_path / "199.jsonl"
    path.write_text(bundled_lines()[0])
    command = make_stub(
        tmp_path,
        f'import sys; sys.stdin.read(); print("CUBIC {cubic}"); print("SEXTIC {sextic}")',
    )
    report = reproduce_table(path, command)
    (result,) = report.results
    assert not result.ok and not report.all_ok
    assert result.message.startswith(f"p = 199: {difference} [CAS: ")


def test_reproduce_table_cas_unavailable_is_skipped(tmp_path: Path):
    report = reproduce_table(cas_command=("/nonexistent/gp-binary",))
    assert report.skipped_reason is not None
    assert not report.all_ok
    assert "skipped" in report.summary


def test_fixture_row_u_inference_pair():
    # (h_gamma3, h_k3) = (9, 27) pins u = 1 through the h relation
    assert hk_from_hgamma(9, 1) == 27
    row = FixtureRow(
        p=199, h_gamma3=9, h_k3=27, u=1,
        c_gamma=ClassGroupShape.of(9), c_k=ClassGroupShape.of(9, 3),
    )
    assert row.h_k3 == hk_from_hgamma(row.h_gamma3, row.u)
