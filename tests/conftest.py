"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest


@pytest.fixture
def factorize_calls(monkeypatch):
    """The arguments of every factorize call made through the radicand layer."""
    import cubic93.radicand

    calls: list[int] = []
    real = cubic93.radicand.factorize

    def counting(n: int) -> dict[int, int]:
        calls.append(n)
        return real(n)

    monkeypatch.setattr(cubic93.radicand, "factorize", counting)
    return calls
