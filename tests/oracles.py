"""Slow, obviously correct reference implementations shared by the tests."""

from __future__ import annotations


def cube_free_sieve(limit: int) -> bytearray:
    """flags[d] = 1 exactly for cube-free d, for 0 <= d <= limit."""
    flags = bytearray(b"\x01") * (limit + 1)
    c = 2
    while c * c * c <= limit:
        cube = c * c * c
        flags[cube :: cube] = b"\x00" * (limit // cube)
        c += 1
    return flags
