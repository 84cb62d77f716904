"""CLI surface: subcommands, output shapes and exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubic93
from cubic93._intmath import _MR_LIMIT
from cubic93.cli import main


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
            {"p": 199, "h_gamma3": 9, "h_k3": 81, "u": 3, "c_gamma": [9], "c_k": [9, 3]}
        )
        + "\n"
    )
    code, out, _ = run(capsys, "table", "--fixtures", str(path))
    assert code == 2
    assert "FAIL" in out


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


def test_table_cas_missing_is_notice_not_failure(capsys):
    code, out, _ = run(capsys, "table", "--cas", "/nonexistent/gp-binary -q")
    assert code == 0
    assert "skipped" in out


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
    # the scan streams its radicands, so memory holds one sieve block
    code = (
        "import os, resource, sys\n"
        "from cubic93.cli import main\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "code = main(['scan', '--max', '300000'])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
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
    peak_mib = int(proc.stderr.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mib < 100, peak_mib


def test_import_does_not_load_mpmath():
    code = "import cubic93, sys; assert 'mpmath' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=subprocess_env(), check=True, timeout=120)


def test_commands_run_with_mpmath_blocked():
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from cubic93.cli import main\n"
        "for argv in (['genus', '455'], ['genus', '1000003'], ['classify', '199'],\n"
        "             ['decompose', '24'], ['ramify', '42'], ['symbol', '2', '31'],\n"
        "             ['table'], ['scan', '--max', '200']):\n"
        "    assert main(argv) == 0, argv\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "M(7): x^3 + x^2 - 2x - 1" in proc.stdout
    assert "M(1000003): x^3 + x^2 - 333334x - 37259371" in proc.stdout


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


#: 10^30 + 57 is prime and lies above 3.3e24, where primality is not proven
PRIME_ABOVE_RANGE = str(10**30 + 57)


@pytest.mark.parametrize("argv, want", [
    (["classify", "100000000000000000039"], 0),  # a prime near 1e20
    (["classify", PRIME_ABOVE_RANGE], 1),
    (["symbol", "2", PRIME_ABOVE_RANGE], 1),
    (["genus", "1000000000039"], 1),  # its period check tests numbers near 7e34
], ids=["classify-1e20", "classify-1e30", "symbol-1e30", "genus-1e12"])
def test_large_inputs_finish_or_name_the_bound(argv, want):
    # a generous timeout rather than a wall-clock assert, as hosts are noisy;
    # trial division ran for hours on each of these
    proc = subprocess.run(
        [sys.executable, "-m", "cubic93.cli", *argv],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == want, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    if want:
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ") and "3.3e24" in line, line


#: integers of every size plus the values where the arithmetic changes regime
_NUMBER = st.one_of(
    st.integers(-(10**40), 10**40),
    st.sampled_from([0, 1, 2, 8, 27, _MR_LIMIT - 1, _MR_LIMIT + 1, 10**30 + 57]),
).map(str)
_WORD = st.one_of(_NUMBER, st.text(max_size=8))


#: scan bounds that run briefly or are refused: at most 2000, or above 10^8
_SCAN_MAX = st.one_of(
    st.integers(-(10**40), 2000), st.integers(10**8 + 1, 10**40)
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
            argv += ["--h3", str(draw(st.sampled_from([1, 2, 3, 9, 27])))]
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
    assert code in (0, 1, 2), (argv, err.getvalue())
