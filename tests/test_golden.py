"""Verdict text pinned byte for byte.

The verdicts, reason codes and trace text are part of the interface: a
change to how they are computed must not change a byte of them.  Each
digest below is a sha256 over the JSON rendering of every verdict in a
range (and, for the data step, the repr of every equivalence result),
recorded from an earlier version of the library; a rejected input
contributes the repr of its ValueError.  The CLI table pins what each
command prints: a sha256 over the JSON list [exit code, stdout, stderr]
of the command run as its own process under ``python -S``, with no
site-packages on the path, so every pinned command also shows that the
CLI runs on the standard library alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cubic93
from cubic93.classifier import ClassGroupShape, classify, scan, type93_equivalence
from cubic93.cli import main

#: this checkout's src directory, the only entry the CLI processes get on their path
SRC = str(Path(cubic93.__file__).resolve().parents[1])

SCAN_200000 = "de65cfaf438485af3f124c59e7aad2305abf5b6151414686a37dfcea95763a63"
CLASSIFY_2_TO_3000 = "3fb91f8764b28a077a2497a448fc3a462b56601d3421d6ec561d8db26a5fa7df"
DATA_STEP = "19e649a6cda8b0c94cb935169278b84aec7da12ed3b03370488b000aa6ad06a2"

# command line (split with shlex) -> digest of its exit code, stdout and stderr
CLI_OUTPUT = {
    "classify 199 --h3 9 --u 1": "2539b08248cb6e3ce10e51f2fc6c148fbed2ee6c615611f0bc67319cbd803c88",
    "classify 61": "0a96831ae6070d985b4e09ffad4872d85dff5cc69e79708a24f16e49e38de11f",
    "classify 7": "b99e18676cc3086bc7d644ff4b0ebc2b7212ee70e9c9da6f528b5363de10cc59",
    "genus 455": "4dd4e75618df28540dd4b3dfa64c2ae63dea8334303861bef65fac512ff64c79",
    "scan --max 2000": "00d694a20270bc3487c5901fb57936ebc04fee9c465b4310ef9d35c496c6f035",
    "table": "e339ffa201ff134dd133506fc9a2aa522d5e54011cc175a4330ba5cccdd445b2",
    "symbol 3 61": "e6baa72b36d4f0cbb98f237c2948cdae2809215f7d706717ddb49d307b877a2a",
    "ramify 42": "e803ec6a79e2133a79278a3e08c3922f35c96e561e1e3a748ccb343b4a4e7717",
    "symbol 3 1000000000039": "9edc8c073870d041ca960da87d29e229f7af7539c729c6983a743206da7d0462",
    "ramify 1000000000039": "5323aa7bb22a27e029ae705dad662952009050f1a467205d964382ba854906f0",
    "decompose 39601": "c149eb99404e0c19170dee2794ce987ba211121fca610676e41e19c0f7546b86",
    "classify 100000000000000000039": "51495f920b7d6a2239765dd640d672d3e9eb79d31f75b1f24361ac0a98ac51fb",
    'table --cas " "': "547b9a39c6b7f119eb996aad87e64e5f61ed4c44dcac0548274875fd0b216132",
    "classify 1000000000000000000000000000057": "b4d31967206f8342b6f01ece4bb4a715ee4cbec0207925a8b1f6836f3ce6ebe5",
    "genus 1000000000039": "d183f97ddad2a5c13294a9612ca3032eab2269b8162fda8524ade246e27923ce",
    "scan --max 100000000000": "5dabed257ccc459b596b96a2036ef4a3dc031f8fa2c9e2011350a6a0ebf3dc38",
    "genus 91": "8f5ac19924817fb3e03a763ad34d3130e2563b8ad768b96b6956ca46b498cf1c",
    "genus 1000003": "ff2db09cdd6b205f9db774ac74a4bfce58f0ea09c52f300ad616051885386402",
    "classify 42 --json": "08b1894148e637fbf4fb53a534eb7006b1447e81beaa851ccde511a158eb4e58",
    "scan --max 200000 --json": "58844fe2931dd595e2b7d4a4ea6f1af66804dca9d1cb10853dc479b5ced81555",
    "classify 199": "5afe804c27dc0b3316e7e71a1e827497133d311a2ce70be308107f2aa267d786",
    "decompose 24": "dcc760cbb140d90cfdf8adec4e86d0a3a1041a719a1c5f9c56b588bf38f8e343",
    "symbol 2 31": "57dc9dd58308576d2064f35b5d61612019258f6adac2074a67a72e4c32acbc81",
    "scan --max 200": "331e8858e6b5ae9ec9e01c9cd41c51b7195a6776313c4e338c504ad28a6a0335",
    "symbol 2 1000000000000000000000000000057": "3f60561b9b3d84a397160e743b79b70bbfe04d58aa239657f4b6fca9acd73bdf",
    "scan --max 1000000": "a7ed0a66142f127dc4e291b25393d56f7ad5e915932f60e1791ad7bc7a9c269b",
    "scan --max 10000000": "705cc6380cae5cd30011a7c38b66e0aeab9adef15d3770b842fc7f2a0395b4ec",
}


@pytest.mark.parametrize("command", CLI_OUTPUT)
def test_cli_output_is_unchanged(command):
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "cubic93.cli", *shlex.split(command)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, encoding="utf-8", timeout=120,
    )
    digest = hashlib.sha256(json.dumps([proc.returncode, proc.stdout, proc.stderr]).encode())
    assert digest.hexdigest() == CLI_OUTPUT[command], proc.stderr


def test_the_readme_cli_examples_are_pinned_and_print_what_they_state(capsys):
    # each "$ cubic93 <command>  # <result>" line of the README's Examples
    # block: its output is pinned above, and its stated result is read here.
    # The PARI/GP one needs gp, so only its place in the block is checked
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = dict(re.findall(r"^\$ cubic93 (.+?) +# (.+)$", readme, re.MULTILINE))
    assert list(examples) == [
        "classify 199 --h3 9 --u 1", "classify 61", "scan --max 200", "table --cas 'gp -q'"]
    outputs = {}
    for command in list(examples)[:3]:
        assert command in CLI_OUTPUT
        assert main(shlex.split(command)) == 0
        outputs[command] = capsys.readouterr().out
    assert examples["classify 199 --h3 9 --u 1"] == "certified Z/9 x Z/3"
    assert "status: certified_9_3\n3-class group of k: Z/9 x Z/3\n" in outputs["classify 199 --h3 9 --u 1"]
    assert examples["classify 61"] == "excluded, conjecture-backed reason"
    assert "status: excluded\n" in outputs["classify 61"]
    assert re.search(r"^reason: \[\w+\] \(conjecture-backed\) ", outputs["classify 61"], re.MULTILINE)
    listed = [line.split()[2] for line in outputs["scan --max 200"].splitlines() if line.startswith("d = ")]
    assert examples["scan --max 200"].split() == listed == "19 37 73 109 127 163 181 199".split()


def test_scan_200000_verdict_text_is_unchanged():
    h = hashlib.sha256()
    for v in scan(200000):
        h.update(json.dumps(v.to_json_dict()).encode() + b"\n")
    assert h.hexdigest() == SCAN_200000


def test_classify_verdict_text_is_unchanged():
    h = hashlib.sha256()
    for d in range(2, 3001):
        try:
            h.update(json.dumps(classify(d).to_json_dict()).encode())
        except ValueError as exc:
            h.update(repr(exc).encode())
    assert h.hexdigest() == CLASSIFY_2_TO_3000


def test_data_step_text_is_unchanged():
    # every (h_gamma3, u) pairing on radicands that reach each branch of the
    # data step: certified primes (199, 271, 379), stripped candidates
    # (152 = 8 * 19), stripped exclusions, perfect cubes, (1, 1), which has
    # no integral h_k3, and p = 4 or 7 (mod 9) with a predicted shape
    h = hashlib.sha256()
    for d in range(2, 401):
        for h_gamma3 in (None, 1, 3, 9, 27):
            for u in (None, 1, 3):
                try:
                    h.update(json.dumps(classify(d, h_gamma3, u).to_json_dict()).encode())
                except ValueError as exc:
                    h.update(repr(exc).encode())
    shapes = (None, (), (3,), (9,), (27,), (3, 3), (9, 3))
    for direction in ("forward", "backward", "sideways"):
        for c_k in shapes:
            for c_gamma in shapes:
                for u in (None, 1, 2, 3):
                    try:
                        out = repr(type93_equivalence(
                            direction,
                            c_k=None if c_k is None else ClassGroupShape(c_k),
                            c_gamma=None if c_gamma is None else ClassGroupShape(c_gamma),
                            u=u,
                        ))
                    except ValueError as exc:
                        out = repr(exc)
                    h.update(out.encode())
    assert h.hexdigest() == DATA_STEP
