"""Verdict text pinned byte for byte.

The verdicts, reason codes and trace text are part of the interface: a
change to how they are computed must not change a byte of them.  Each
digest below is a sha256 over the JSON rendering of every verdict in a
range (and, for the data step, the repr of every equivalence result),
recorded from an earlier version of the library; a rejected input
contributes the repr of its ValueError.
"""

from __future__ import annotations

import hashlib
import json

from cubic93.classifier import ClassGroupShape, classify, scan, type93_equivalence

SCAN_20000 = "e81d1d282c573c299dceca8d652463213feecc275a4d1d3f03ffd5314cce538e"
SCAN_200000 = "de65cfaf438485af3f124c59e7aad2305abf5b6151414686a37dfcea95763a63"
CLASSIFY_2_TO_3000 = "3fb91f8764b28a077a2497a448fc3a462b56601d3421d6ec561d8db26a5fa7df"
DATA_STEP = "19e649a6cda8b0c94cb935169278b84aec7da12ed3b03370488b000aa6ad06a2"


def test_scan_verdict_text_is_unchanged():
    h = hashlib.sha256()
    for v in scan(20000):
        h.update(json.dumps(v.to_json_dict()).encode() + b"\n")
    assert h.hexdigest() == SCAN_20000


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
