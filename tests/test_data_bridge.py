"""Fixture files, the table reproduction report and the CAS adapter.

The CAS is exercised through a scripted stand-in executable, so no external
computer algebra system is ever required here.
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

from cubic93.classifier import ClassGroupShape, hk_from_hgamma
from cubic93.fixtures import (
    CasConfig,
    CasError,
    CasUnavailableError,
    FixtureError,
    FixtureRow,
    cas_query,
    load_bundled_fixtures,
    load_fixtures,
    reproduce_table,
    save_fixtures,
)

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


def test_load_checks_optional_derived_fields(tmp_path: Path):
    row = {"p": 199, "h_gamma3": 9, "h_k3": 27, "u": 1, "c_gamma": [9], "c_k": [9, 3]}
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps({**row, "p_squared": 199**2, "p_mod9": 1}) + "\n")
    assert [r.p for r in load_fixtures(path)] == [199]
    for extra, message in (
        ({"p_squared": 199}, "p_squared != p"),
        ({"p_mod9": 2}, "p_mod9 != p mod 9"),
        ({"p_squared": [1]}, "line 1"),
        ({"p_mod9": "x"}, "line 1"),
    ):
        path.write_text(json.dumps({**row, **extra}) + "\n")
        with pytest.raises(FixtureError, match=message):
            load_fixtures(path)


@pytest.mark.parametrize(
    ("row", "message"),
    [
        ({"extra": 1}, "unknown fields ['extra']"),
        ({"c_gamma": 9}, "c_gamma must be a list of cyclic orders"),
        ({"c_k": [3, 9]}, "orders (3, 9) must be non-increasing"),
        ([1, 2], "expected one JSON object per line"),
        ({"c_gamma": [3], "c_k": [27]}, "c_gamma = Z/3 has order 3, not h_gamma3 = 9"),
        ({"c_k": [9, 9]}, "c_k = Z/9 x Z/9 has order 81, not h_k3 = 27"),
    ],
    ids=["extra-key", "c_gamma-not-a-list", "c_k-increasing", "not-an-object",
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
        {"p_squared": 39601.0},
        {"p_mod9": True},
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


def test_save_load_round_trip_is_byte_identical(tmp_path: Path):
    rows = load_bundled_fixtures()
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    save_fixtures(first, rows)
    reloaded = load_fixtures(first)
    assert reloaded == rows
    save_fixtures(second, reloaded)
    assert first.read_bytes() == second.read_bytes()


def test_bundled_file_is_in_canonical_save_format(tmp_path: Path):
    import cubic93

    bundled = Path(cubic93.__file__).parent / "data" / "type93_fixtures.jsonl"
    resaved = tmp_path / "resaved.jsonl"
    save_fixtures(resaved, load_bundled_fixtures())
    assert resaved.read_bytes() == bundled.read_bytes()


# ------------------------------------------------------------ table reproduction


def test_reproduce_table_from_fixtures():
    report = reproduce_table()
    assert report.all_ok
    assert len(report.results) == 28
    assert report.summary == "28/28 rows certified as type (9, 3)"


def test_reproduce_table_is_order_independent(tmp_path: Path):
    rows = load_bundled_fixtures()
    shuffled = rows[:]
    random.Random(11).shuffle(shuffled)
    path = tmp_path / "shuffled.jsonl"
    save_fixtures(path, shuffled)
    report = reproduce_table(path)
    assert report.all_ok
    assert {r.p for r in report.results} == {r.p for r in rows}


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


def make_stub(tmp_path: Path, body: str) -> CasConfig:
    script = tmp_path / "fake_gp.py"
    script.write_text(body)
    return CasConfig(command=(sys.executable, str(script)), timeout=30.0)


GOOD_STUB = """\
import sys
text = sys.stdin.read()
assert "bnfinit" in text and "polcompositum" in text
print("CUBIC [9]")
print("SEXTIC [9, 3]")
"""


def test_cas_query_parses_stub_transcript(tmp_path: Path):
    config = make_stub(tmp_path, GOOD_STUB)
    result = cas_query(199, config)
    assert result.h_gamma3 == 9
    assert result.c_gamma == ClassGroupShape.of(9)
    assert result.c_k == ClassGroupShape.of(9, 3)
    assert result.u == 1
    assert result == load_bundled_fixtures()[0]


def test_cas_three_part_extraction(tmp_path: Path):
    # mixed invariants: 18 = 2 * 3^2 and 6 = 2 * 3 carry the 3-parts 9 and 3
    config = make_stub(
        tmp_path,
        'import sys; sys.stdin.read(); print("CUBIC [9]"); print("SEXTIC [18, 6]")',
    )
    result = cas_query(199, config)
    assert result.c_k == ClassGroupShape.of(9, 3)
    assert result.h_gamma3 == 9
    assert result.u == 1


def test_cas_u_inference_rejects_impossible_data(tmp_path: Path):
    config = make_stub(
        tmp_path,
        'import sys; sys.stdin.read(); print("CUBIC [9]"); print("SEXTIC [3]")',
    )
    with pytest.raises(CasError, match="no unit index"):
        cas_query(199, config)


@pytest.mark.parametrize("invariants", ["[0]", "[-9]"])
def test_cas_rejects_non_positive_invariants(tmp_path: Path, invariants: str):
    config = make_stub(
        tmp_path,
        'import sys; sys.stdin.read(); print("CUBIC [9]");'
        f' print("SEXTIC {invariants}")',
    )
    with pytest.raises(CasError, match="invariant"):
        cas_query(199, config)


def test_cas_missing_executable_is_unavailable():
    config = CasConfig(command=("/nonexistent/gp-binary",), timeout=5.0)
    with pytest.raises(CasUnavailableError):
        cas_query(199, config)


def test_cas_timeout_is_an_error():
    config = CasConfig((sys.executable, "-c", "import time; time.sleep(5)"), timeout=0.3)
    with pytest.raises(CasError, match="timed out"):
        cas_query(199, config)


def test_cas_unparseable_output(tmp_path: Path):
    config = make_stub(tmp_path, 'import sys; sys.stdin.read(); print("garbage")')
    with pytest.raises(CasError, match="CUBIC"):
        cas_query(199, config)


def test_cas_nonzero_exit(tmp_path: Path):
    config = make_stub(tmp_path, "import sys; sys.exit(3)")
    with pytest.raises(CasError, match="exited with 3"):
        cas_query(199, config)


def test_reproduce_table_with_cas_stub(tmp_path: Path):
    rows = load_bundled_fixtures()[:3]
    path = tmp_path / "three.jsonl"
    save_fixtures(path, rows)
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
    save_fixtures(path, load_bundled_fixtures()[:1])
    config = make_stub(
        tmp_path,
        f'import sys; sys.stdin.read(); print("CUBIC {cubic}"); print("SEXTIC {sextic}")',
    )
    report = reproduce_table(path, config)
    (result,) = report.results
    assert not result.ok and not report.all_ok
    assert result.message.startswith(f"p = 199: {difference} [CAS: ")


def test_reproduce_table_cas_unavailable_is_skipped(tmp_path: Path):
    report = reproduce_table(cas_config=CasConfig(command=("/nonexistent/gp-binary",)))
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
