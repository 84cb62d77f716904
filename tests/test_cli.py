"""CLI surface: subcommands, output shapes and exit codes."""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubic93
from cubic93 import _intmath, classifier, eisenstein, genus
from cubic93._intmath import _MR_LIMIT
from cubic93.cli import _cmd_scan, main
from cubic93.radicand import normalize
from oracles import scan_output_by_sieve


def subprocess_env() -> dict[str, str]:
    """The environment with this checkout's package first on the path."""
    src = str(Path(cubic93.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_certified(capsys):
    code, out, _ = run(capsys, "classify", "199", "--h3", "9", "--u", "1")
    assert code == 0
    assert "certified_9_3" in out
    assert "Z/9 x Z/3" in out
    assert "trace:" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "199", "--h3", "9", "--u", "1", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["status"] == "certified_9_3"
    assert blob["class_group"] == [9, 3]


def test_classify_without_data(capsys):
    code, out, _ = run(capsys, "classify", "199")
    assert code == 0
    assert "candidate_needs_data" in out


def test_classify_prints_the_predicted_shape(capsys):
    code, out, _ = run(capsys, "classify", "61")
    assert code == 0
    assert "predicted 3-class group of k: Z/3 x Z/3\n" in out


def test_classify_perfect_cube_is_usage_error(capsys):
    code, _, err = run(capsys, "classify", "27")
    assert code == 1
    assert "perfect cube" in err


def test_classify_bad_u_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "199", "--u", "2"])
    assert exc.value.code == 1


@pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["text", "json"])
def test_classify_refuses_an_h_gamma3_past_7000_bits_before_any_output(capsys, as_json):
    # its h_k3 = h_gamma3^2 / 3 would have 4 771 digits, more than CPython prints
    code, out, err = run(capsys, "classify", "199", "--h3", str(3**5000), "--u", "1", *as_json)
    assert (code, out) == (1, "")
    assert err == "error: h_gamma3 must have at most 7000 bits, got a 7925-bit integer\n"


@pytest.mark.parametrize("u", [1, 3])
def test_classify_prints_the_largest_h_gamma3_it_takes(capsys, u):
    h = 3**4416  # 7000 bits; h_k3 = (u/3) * h^2 has at most 14 000
    code, out, _ = run(capsys, "classify", "199", "--h3", str(h), "--u", str(u))
    assert code == 0 and "inputs: h_gamma3 = a 7000-bit integer, u = " in out
    assert max(map(len, out.splitlines())) < 200
    code, out, _ = run(capsys, "classify", "199", "--h3", str(h), "--u", str(u), "--json")
    blob = json.loads(out)
    assert code == 0 and (blob["h_gamma3"], blob["h_k3"]) == (h, u * h * h // 3)


@pytest.mark.parametrize("d, named", [
    ("199", "supplied h_gamma3 = a 3170-bit integer: type (9, 3)"),  # a candidate's trace
    ("7", "supplied data give h_k3 = a 6339-bit integer, which"),  # an excluded radicand's note
], ids=["candidate", "excluded"])
def test_classify_names_a_class_number_past_39_digits_by_its_size(capsys, d, named):
    code, out, _ = run(capsys, "classify", d, "--h3", str(3**2000), "--u", "1")
    assert code == 0 and named in out
    assert "inputs: h_gamma3 = a 3170-bit integer, u = 1, h_k3 = a 6339-bit integer\n" in out
    assert max(map(len, out.splitlines())) < 200


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "12")
    assert code == 0
    assert "12 = 3 * 2^2" in out
    assert "(2, 2)" in out
    assert "v = 0, w = 0, I = 0, J = 1" in out


def test_ramify(capsys):
    code, out, _ = run(capsys, "ramify", "42")
    assert code == 0
    assert "t = 4" in out
    assert "lambda" in out


def test_ramify_report_is_pinned(capsys):
    code, out, _ = run(capsys, "ramify", "42")
    assert code == 0
    assert out == (
        "d = 42\n"
        "ramified in the cubic field: [2, 3, 7]   (3 ramified: True)\n"
        "ramified primes of k0 in k/k0:\n"
        "  - inert  above 2: 2\n"
        "  - lambda above 3: 1-1w\n"
        "  - split  above 7: 2+3w\n"
        "  - split  above 7: -1-3w\n"
        "t = 4, q* = unknown, ambiguous 3-rank = unknown\n"
        "note: ambiguous classes are elementary: fixed by sigma, their cube is"
        " the norm to k0, which has class number 1\n"
        "note: the sufficient norm criterion for q* = 1 does not apply and no"
        " general criterion is implemented, so q* stays unknown\n"
    )


def test_genus(capsys):
    code, out, _ = run(capsys, "genus", "91")
    assert code == 0
    assert "genus number 3^2 = 9" in out
    assert "x^3 + x^2 - 2x - 1" in out
    assert "x^3 + x^2 - 4x + 1" in out


def test_symbol(capsys):
    code, out, _ = run(capsys, "symbol", "3", "61")
    assert code == 0
    assert "(3/61)_3 = 1" in out
    code, out, _ = run(capsys, "symbol", "3", "199")
    assert code == 0
    assert "not a cubic residue" in out


def test_symbol_bad_prime_is_usage_error(capsys):
    code, _, err = run(capsys, "symbol", "3", "5")
    assert code == 1
    assert "error" in err


def test_table_bundled(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert "28/28 rows certified" in out
    assert out.count("PASS") == 28


def test_table_corrupt_fixture_is_data_error(tmp_path: Path, capsys):
    path = tmp_path / "corrupt.jsonl"
    path.write_text(
        json.dumps(
            {"p": 199, "h_gamma3": 9, "h_k3": 81, "u": 3, "c_gamma": [9], "c_k": [9, 9]}
        )
        + "\n"
    )
    code, out, _ = run(capsys, "table", "--fixtures", str(path))
    assert code == 2
    assert "FAIL" in out


def test_table_fixture_whose_shapes_contradict_its_class_numbers_is_data_error(
    tmp_path: Path, capsys
):
    path = tmp_path / "inconsistent.jsonl"
    path.write_text(
        json.dumps(
            {"p": 199, "h_gamma3": 9, "h_k3": 27, "u": 1, "c_gamma": [3], "c_k": [27]}
        )
        + "\n"
    )
    code, out, err = run(capsys, "table", "--fixtures", str(path))
    assert code == 2
    assert out == ""
    assert "line 1: c_gamma = Z/3 has order 3, not h_gamma3 = 9" in err


def test_table_unreadable_fixture_is_data_error(tmp_path: Path, capsys):
    path = tmp_path / "broken.jsonl"
    path.write_text("{oops}\n")
    code, _, err = run(capsys, "table", "--fixtures", str(path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("path", ["", "."])
def test_table_fixture_path_that_is_no_file_is_data_error(capsys, path):
    # "" must not fall back to the bundled table, and Path("") is ".", a directory
    code, out, err = run(capsys, "table", "--fixtures", path)
    assert code == 2
    assert out == ""
    assert err == f"error: fixture path {path!r} is not a file\n"


@pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["zero-byte", "blank-lines"])
def test_table_fixture_without_rows_is_data_error(tmp_path: Path, capsys, text):
    # no rows must not read as "0/0 rows certified" with exit 0
    path = tmp_path / "empty.jsonl"
    path.write_text(text)
    code, out, err = run(capsys, "table", "--fixtures", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: fixture file {path} holds no rows\n"


@pytest.mark.parametrize("line, message", [
    ("[" * 1100, "not valid JSON (maximum recursion depth exceeded"),
    (json.dumps({"p": 199, "h_gamma3": 9, "h_k3": 27, "u": 1, "c_gamma": [9], "c_k": [3] * 100_000}),
     "c_k has 100000 cyclic factors, too many for h_k3 = 27"),
    (json.dumps({"p": 199, "h_gamma3": 3**5000, "h_k3": 27, "u": 1, "c_gamma": [9], "c_k": [9, 3]}),
     "h_k3 = 27 violates h_k3 = (u/3)*h_gamma3^2 = a 15849-bit integer"),
    (json.dumps({"p": 199, "h_gamma3": 9, "h_k3": 27, "u": 1, "c_gamma": [9], "c_k": [3**8000] * 100}),
     "c_k has 100 cyclic factors, too many for h_k3 = 27"),
    (json.dumps({"p": 199, "h_gamma3": 9, "h_k3": 27, "u": 1, "c_gamma": [9], "c_k": [3**8000] * 5}),
     "c_k orders hold 63400 bits, too many for h_k3 = 27"),
    (json.dumps({"p": [3] * 100_000, "h_gamma3": 9, "h_k3": 27, "u": 1, "c_gamma": [9], "c_k": [9, 3]}),
     "p must be an integer, got [3, 3, "),
    (json.dumps({"p": 199, "h_gamma3": 3**8000, "h_k3": 27, "u": 1, "c_gamma": [3] * 20_000, "c_k": [9, 3]}),
     "c_gamma has 20000 cyclic factors, too many for h_gamma3 = a 12680-bit integer"),
    (json.dumps({"p": 199, "h_gamma3": 3**8000, "h_k3": 3**8000, "u": 1, "c_gamma": [3] * 20_000,
                 "c_k": [9, 3]}),
     "c_gamma has 20000 cyclic factors, too many for h_gamma3 = a 12680-bit integer"),
    (json.dumps({"p": 10**3000 + 1, "h_gamma3": 9, "h_k3": 27, "u": 1, "c_gamma": [9], "c_k": [9, 3]}),
     "p = a 9966-bit integer is not prime"),
    (json.dumps({"p": 199, "h_gamma3": 3**8000, "h_k3": 27, "u": 1, "c_gamma": [3, 9] * 3000, "c_k": [9, 3]}),
     "orders (3, 9, 3, 9, 3, 9, ...) must be non-increasing"),
    (json.dumps({"p": 199, "h_gamma3": 3**4000, "h_k3": 3**8000, "u": 3, "c_gamma": [3] * 4000,
                 "c_k": [3] * 12_000}),
     "c_k of orders (3, 3, 3, 3, 3, 3, ...) has order a 19020-bit integer, not h_k3 = a 12680-bit integer"),
    (json.dumps({"p": 199, "h_gamma3": 3**4417, "h_k3": 3**8833, "u": 1, "c_gamma": [3**4417],
                 "c_k": [3**8833]}),
     "h_gamma3 must have at most 7000 bits, got a 7001-bit integer"),
], ids=["nested-1100-deep", "c_k-of-100000", "h_gamma3-of-2386-digits", "c_k-of-100-huge",
        "c_k-of-5-huge", "p-a-list-of-100000", "c_gamma-of-20000-for-3818-digits",
        "both-class-numbers-of-3818-digits", "p-of-3001-digits", "c_gamma-of-6000-increasing",
        "c_k-of-12000-for-3818-digits", "h_gamma3-of-7001-bits"])
def test_table_fixture_that_strains_the_parser_is_one_error_line(tmp_path: Path, line, message):
    # the decoder raises RecursionError past the recursion limit, the order
    # of a long shape would not fit in the message, and neither would the
    # h_k3 that a 2386-digit h_gamma3 implies (CPython prints at most 4300);
    # a shape's size is checked before its 3^8000s are divided down by 3,
    # a rejected value is named by a cut repr, and a row integer of more
    # than 39 digits by its size, and a long shape by its cut orders
    path = tmp_path / "row.jsonl"
    path.write_text(line + "\n")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "cubic93.cli", "table", "--fixtures", str(path)],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout) == (2, "")
    (err,) = proc.stderr.splitlines()
    prefix = f"error: {path}, line 1: "
    assert err.startswith(prefix + message), err[:300]
    assert len(err) < len(prefix) + 200, err[:300]
    assert len(err) - len(prefix) < 120, err[:300]


def test_table_cas_answer_with_200000_cyclic_factors_is_one_error_line(tmp_path: Path):
    # its order, 3^200000, would take seconds to multiply out and could not be
    # printed in the message; the answer is refused before either
    stand_in = tmp_path / "gp.py"
    stand_in.write_text(
        "import sys\nsys.stdin.read()\n"
        "print('CUBIC [' + ', '.join(['3'] * 200_000) + ']')\nprint('SEXTIC [9, 3]')\n"
    )
    row = tmp_path / "row.jsonl"
    row.write_text(json.dumps(
        {"p": 199, "h_gamma3": 9, "h_k3": 27, "u": 1, "c_gamma": [9], "c_k": [9, 3]}) + "\n")
    cas = shlex.join([sys.executable, "-S", str(stand_in)])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "cubic93.cli", "table", "--fixtures", str(row), "--cas", cas],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout) == (2, "")
    (err,) = proc.stderr.splitlines()
    assert err == (
        "error: bad class group invariant for d = 199:"
        " CUBIC lists 200000 cyclic 3-parts, 400000 bits: too large"
    )


def test_table_cas_missing_is_notice_not_failure(capsys):
    code, out, _ = run(capsys, "table", "--cas", "/nonexistent/gp-binary -q")
    assert code == 0
    assert "skipped" in out


def test_table_fixture_that_cannot_be_read_is_data_error(tmp_path: Path, capsys, monkeypatch):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b"\xff\n")
    code, out, err = run(capsys, "table", "--fixtures", str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"error: cannot read fixture file {path}: 'utf-8' codec can't decode"
        " byte 0xff in position 0: invalid start byte\n"
    )

    def failing_read(self, *args, **kwargs):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(Path, "read_text", failing_read)
    code, out, err = run(capsys, "table", "--fixtures", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read fixture file {path}: [Errno 5] Input/output error\n"


@pytest.mark.parametrize("cas, code, message", [
    ("", 1, "CAS command is empty"),
    (" ", 1, "CAS command is empty"),
    ("{dir}", 2, "cannot start CAS command '{dir}': [Errno 13] Permission denied: '{dir}'"),
], ids=["empty", "blank", "directory"])
def test_table_cas_that_cannot_run_is_one_error_line(tmp_path: Path, cas, code, message):
    # an existing path that cannot be executed is a CAS failure, not a missing CAS
    cas, message = (s.replace("{dir}", str(tmp_path)) for s in (cas, message))
    proc = subprocess.run(
        [sys.executable, "-m", "cubic93.cli", "table", "--cas", cas],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("sextic, code, out", [
    ("[9, 3]", 0,
     "PASS  p = 199: certified Z/9 x Z/3 [CAS: h_gamma3 = 9, c_k = Z/9 x Z/3, u inferred = 1]\n"
     "1/1 rows certified as type (9, 3)\n"),
    ("[27]", 2,  # still h_gamma3 = 9 and u = 1, but c_k differs from the row
     "FAIL  p = 199: c_k = Z/27 recomputed, Z/9 x Z/3 in the row"
     " [CAS: h_gamma3 = 9, c_k = Z/27, u inferred = 1]\n"
     "0/1 rows certified as type (9, 3)\n"),
], ids=["same", "differs"])
def test_table_row_recomputed_by_a_stand_in_cas(tmp_path: Path, capsys, sextic, code, out):
    row = tmp_path / "row.jsonl"
    row.write_text(
        json.dumps({"p": 199, "h_gamma3": 9, "h_k3": 27, "u": 1, "c_gamma": [9], "c_k": [9, 3]})
        + "\n"
    )
    stub = tmp_path / "gp.py"
    stub.write_text(f"import sys\nsys.stdin.read()\nprint('CUBIC [9]')\nprint('SEXTIC {sextic}')\n")
    cas = shlex.join([sys.executable, "-S", str(stub)])
    assert run(capsys, "table", "--fixtures", str(row), "--cas", cas) == (code, out, "")


def test_table_row_of_long_shapes_prints_short_lines(tmp_path: Path):
    # a consistent row (3^3999 = (1/3) * (3^2000)^2) of 2 000 and 3 999 cyclic
    # factors: each message names a shape past 100 characters by its cut
    # orders, and an integer past 39 digits by its size, the supplied
    # h_gamma3 in the trace too
    row = tmp_path / "row.jsonl"
    row.write_text(json.dumps(
        {"p": 199, "h_gamma3": 3**2000, "h_k3": 3**3999, "u": 1, "c_gamma": [3] * 2000, "c_k": [3] * 3999}
    ) + "\n")
    cut = "orders (3, 3, 3, 3, 3, 3, ...)"

    def table(*cas: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-S", "-m", "cubic93.cli", "table", "--fixtures", str(row), *cas],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )

    proc = table()
    fail, summary = proc.stdout.splitlines()
    assert (proc.returncode, proc.stderr, summary) == (2, "", "0/1 rows certified as type (9, 3)")
    assert fail.startswith(f"FAIL  p = 199: expected certified {cut}, got no certified shape (excluded)")
    assert len(fail) < 500 and "Z/3 x Z/3" not in fail, fail[:300]
    assert fail.endswith(" | supplied h_gamma3 = a 3170-bit integer: type (9, 3) requires the"
                         " cubic 3-class group Z/9, impossible here"), fail[-300:]
    # a stand-in gp whose 2 000 and 4 000 factors Z/3 give u = 3
    stand_in = tmp_path / "gp.py"
    stand_in.write_text(
        "import sys\nsys.stdin.read()\nprint('CUBIC [' + ', '.join(['3'] * 2000) + ']')\n"
        "print('SEXTIC [' + ', '.join(['3'] * 4000) + ']')\n"
    )
    proc = table("--cas", shlex.join([sys.executable, "-S", str(stand_in)]))
    assert (proc.returncode, proc.stderr) == (2, "")
    assert proc.stdout.splitlines() == [
        "FAIL  p = 199: h_k3 = a 6340-bit integer recomputed, a 6339-bit integer in the row;"
        f" u = 3 recomputed, 1 in the row; c_k = {cut} recomputed, {cut} in the row"
        f" [CAS: h_gamma3 = a 3170-bit integer, c_k = {cut}, u inferred = 3]",
        "0/1 rows certified as type (9, 3)",
    ]


def test_scan_text(capsys):
    code, out, _ = run(capsys, "scan", "--max", "200")
    assert code == 0
    for p in (19, 37, 73, 109, 127, 163, 181, 199):
        assert str(p) in out
    assert "8 candidates" in out


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", "--max", "200", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert [r["input_d"] for r in records] == [19, 37, 73, 109, 127, 163, 181, 199]
    assert all(r["status"] == "candidate_needs_data" for r in records)


@pytest.mark.parametrize("max_d", [2, 18, 19, 20, 360, 361, 362, 2000, 200_000])
@pytest.mark.parametrize("as_json", [False, True])
def test_scan_prints_what_deciding_every_radicand_prints(capsys, max_d, as_json):
    # 19 is the first candidate and 361 = 19^2 the first square
    argv = ["scan", "--max", str(max_d)] + ["--json"] * as_json
    assert run(capsys, *argv) == (0, scan_output_by_sieve(max_d, as_json), "")


def test_scan_refuses_a_listed_radicand_that_is_excluded(capsys, monkeypatch):
    monkeypatch.setattr(cubic93.cli, "_candidate_forms", lambda n: iter([normalize(7)]))
    code, out, err = run(capsys, "scan", "--max", "100")
    assert (code, out) == (2, "")
    assert err == "error: d = 7 was listed as a candidate but is excluded\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_scan_leaves_the_collector_as_it_found_it(capsys, monkeypatch, enabled):
    # the CLI holds one verdict at a time, so it leaves the collector alone
    states = []

    def recording(g):
        states.append(gc.isenabled())
        return cubic93.classifier._necessary_form(g)

    monkeypatch.setattr(cubic93.cli, "_necessary_form", recording)
    try:
        if not enabled:
            gc.disable()
        assert _cmd_scan(argparse.Namespace(max=2000, json=False)) == 0
        assert gc.isenabled() is enabled
        assert len(states) == 49 and set(states) == {enabled}
    finally:
        gc.enable()
    assert capsys.readouterr().out.endswith(": 49 candidates, 1615 excluded\n")


@pytest.mark.parametrize("as_json", [False, True])
def test_scan_leaves_no_cyclic_garbage(capsys, as_json):
    # _cmd_scan, not main: the argparse parser alone leaves cyclic garbage
    gc.collect()
    try:
        gc.disable()
        assert _cmd_scan(argparse.Namespace(max=200_000, json=as_json)) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out


def test_scan_bad_bound_is_usage_error(capsys):
    code, _, err = run(capsys, "scan", "--max", "1")
    assert code == 1
    assert "error" in err


def test_scan_into_a_closed_pipe_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "cubic93.cli", "scan", "--max", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=subprocess_env(),
    )
    proc.stdout.close()  # the reader is gone before the first write
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_scan_memory_stays_flat():
    # the scan streams its candidates, so memory holds one verdict; the
    # child reads its own VmHWM, as its ru_maxrss keeps the parent's peak
    # across exec on Linux
    if not Path("/proc/self/status").is_file():
        pytest.skip("no /proc/self/status to read the peak RSS from")
    code = (
        "import os, sys\n"
        "from cubic93.cli import main\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "code = main(['scan', '--max', '300000'])\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line for line in status if line.startswith('VmHWM:')), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    peak_mib = int(proc.stderr.split()[-2]) / 1024  # "VmHWM:  27648 kB"
    assert peak_mib < 64, peak_mib


def test_import_does_not_load_mpmath():
    code = "import cubic93, sys; assert 'mpmath' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=subprocess_env(), check=True, timeout=120)


def test_period_check_raises_without_asserts():
    code = (
        "from cubic93.genus import _verify_periods, period_polynomial\n"
        "one, c2, c1, c0 = period_polynomial(100003)\n"
        "for bad in ((one, c2, c1, c0 + 1), (one, c2, c1, c0 - 1)):\n"
        "    try:\n"
        "        _verify_periods(100003, bad)\n"
        "    except ArithmeticError:\n"
        "        continue\n"
        "    raise SystemExit(f'perturbed cubic {bad} accepted')\n"
    )
    subprocess.run([sys.executable, "-O", "-c", code], env=subprocess_env(), check=True, timeout=120)


@pytest.mark.parametrize("argv", [["ramify", "24"], ["genus", "455"], ["decompose", "24"]])
def test_commands_factor_the_radicand_once(capsys, factorize_calls, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert factorize_calls == [int(argv[1])]


#: command, or library scan(30000), -> the kernel's work from empty caches:
#: Miller-Rabin tests, rho splits, Cornacchia pairs and product-tree builds.
#: A prime below 2^20 takes no Miller-Rabin; 1048633 takes one, and so does
#: each of the six moduli near 7.4e16 that genus 1000003's period check
#: tries; 95477 = 307 * 311 builds the tree once and needs no rho.  scan's
#: row also counts the cyclic collections inside it
WORK = {
    "classify 199 --h3 9 --u 1": {"_miller_rabin": 0, "_brent_rho": 0, "_split_pair": 0, "_prime_tree": 0},
    "classify 1000003": {"_miller_rabin": 0, "_brent_rho": 0, "_split_pair": 1, "_prime_tree": 0},
    "classify 1048633": {"_miller_rabin": 1, "_brent_rho": 0, "_split_pair": 1, "_prime_tree": 0},
    "classify 95477": {"_miller_rabin": 0, "_brent_rho": 0, "_split_pair": 0, "_prime_tree": 1},
    "symbol 3 1000003": {"_miller_rabin": 0, "_brent_rho": 0, "_split_pair": 1, "_prime_tree": 0},
    "ramify 42": {"_miller_rabin": 0, "_brent_rho": 0, "_split_pair": 1, "_prime_tree": 0},
    "genus 1000003": {"_miller_rabin": 6, "_brent_rho": 0, "_split_pair": 1, "_prime_tree": 0},
    "scan(30000)": {"_miller_rabin": 0, "_brent_rho": 0, "_split_pair": 1082, "_prime_tree": 0,
                    "collections": 0},
}


@pytest.mark.parametrize("command", WORK)
def test_the_kernel_work_of_each_command_from_empty_caches(capsys, monkeypatch, command):
    # a count, not a time, so a lost shortcut (a second proof of a prime, a
    # second Cornacchia per verdict, the collector left on in scan) fails on
    # any host
    counts = dict.fromkeys(WORK[command], 0)

    def count(name: str, *modules: object) -> None:
        real = getattr(modules[0], name)

        def counting(*args: object) -> object:
            counts[name] += 1
            return real(*args)

        for module in modules:
            monkeypatch.setattr(module, name, counting)

    count("_miller_rabin", _intmath)
    count("_brent_rho", _intmath)
    count("_prime_tree", _intmath)
    count("_split_pair", eisenstein, classifier)
    monkeypatch.setattr(_intmath, "_PRIME_TREE", [])
    for cached in (eisenstein.factor_rational_prime, genus.period_polynomial, classifier._decision):
        cached.cache_clear()
    if command == "scan(30000)":
        def collected(phase: str, info: dict[str, int]) -> None:
            counts["collections"] += phase == "start"

        gc.collect()
        gc.callbacks.append(collected)
        try:
            assert len(classifier.scan(30000)) == 24953
        finally:
            gc.callbacks.remove(collected)
    else:
        assert run(capsys, *command.split())[0] == 0
    assert counts == WORK[command]


def test_broken_invariant_is_a_data_error():
    # a Z[w] splitting that loses a factor of a split prime breaks the
    # cross-check of t in ramify, which raises ArithmeticError
    code = (
        "import sys\n"
        "import cubic93.ramification as ramification\n"
        "from cubic93.cli import main\n"
        "real = ramification.factor_rational_prime\n"
        "def one_factor(p):\n"
        "    splitting = real(p)\n"
        "    return splitting._replace(factors=splitting.factors[:1])\n"
        "ramification.factor_rational_prime = one_factor\n"
        "sys.exit(main(['ramify', '7']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "t = 3" in line, line


#: integers of every size plus the values where the arithmetic changes regime
_NUMBER = st.one_of(
    st.integers(-(10**40), 10**40),
    st.sampled_from([0, 1, 2, 8, 27, _MR_LIMIT - 1, _MR_LIMIT + 1, 10**30 + 57]),
).map(str)
_WORD = st.one_of(_NUMBER, st.text(max_size=8))


#: scan bounds that run briefly or are refused: at most 200 000 (about 0.1 s,
#: as only the candidates are listed), or above 10^8
_SCAN_MAX = st.one_of(
    st.integers(-(10**40), 200_000), st.integers(10**8 + 1, 10**40)
).map(str)


@st.composite
def _argv(draw) -> list[str]:
    """argv for the commands whose cost is bounded by the size of d alone,
    and for scan with a bound that is small or refused."""
    # genus and table are left out, and scan is drawn only through _SCAN_MAX:
    # their time grows with p and N
    junk = st.text(max_size=8).filter(lambda w: w not in ("genus", "scan", "table"))
    command = draw(st.one_of(
        st.sampled_from(["classify", "decompose", "ramify", "symbol", "scan"]), junk
    ))
    if command == "scan":
        return ["scan", "--max", draw(_SCAN_MAX)] + draw(st.sampled_from([[], ["--json"]]))
    argv = [command] + draw(st.lists(_WORD, min_size=1, max_size=2))
    if command == "classify":
        if draw(st.booleans()):
            # powers of 3 up to 4 000 digits: past 7 000 bits classify refuses them
            h3 = st.one_of(
                st.sampled_from([-3, 0, 1, 2, 3, 6, 9, 27]), st.integers(0, 8380).map(lambda e: 3**e)
            )
            argv += ["--h3", str(draw(h3))]
        if draw(st.booleans()):
            argv += ["--u", str(draw(st.sampled_from([1, 3])))]
    return argv


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_any_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    # none of these commands reads data, so exit 2 can only be a broken invariant
    stderr = err.getvalue()
    assert code in (0, 1), (argv, stderr)
    if code == 1:
        # nothing of a verdict on stdout, and one error line: main's own, or
        # argparse's after its usage lines; never CPython's int-limit text
        assert out.getvalue() == "" and "Exceeds the limit" not in stderr, (argv, stderr)
        assert stderr.count("error: ") == 1, (argv, stderr)
        by_main = stderr.startswith("error: ") and stderr.count("\n") == 1
        assert by_main or stderr.startswith("usage: "), (argv, stderr)
