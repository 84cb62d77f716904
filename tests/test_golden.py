"""Verdict text pinned byte for byte.

The verdicts, reason codes and trace text are part of the interface: a
change to how they are computed must not change a byte of them.  Each
digest below is a sha256 over the JSON rendering of every verdict in a
range, recorded from an earlier version of the library; a rejected
radicand contributes the repr of its ValueError.
"""

from __future__ import annotations

import hashlib
import json

from cubic93.classifier import classify, scan

SCAN_20000 = "e81d1d282c573c299dceca8d652463213feecc275a4d1d3f03ffd5314cce538e"
CLASSIFY_2_TO_3000 = "3fb91f8764b28a077a2497a448fc3a462b56601d3421d6ec561d8db26a5fa7df"


def test_scan_verdict_text_is_unchanged():
    h = hashlib.sha256()
    for v in scan(20000):
        h.update(json.dumps(v.to_json_dict()).encode() + b"\n")
    assert h.hexdigest() == SCAN_20000


def test_classify_verdict_text_is_unchanged():
    h = hashlib.sha256()
    for d in range(2, 3001):
        try:
            h.update(json.dumps(classify(d).to_json_dict()).encode())
        except ValueError as exc:
            h.update(repr(exc).encode())
    assert h.hexdigest() == CLASSIFY_2_TO_3000
