"""Spans around the library's module-level functions, recorded from outside.

``installed`` replaces each target function, in every ``cubic93`` module
that holds a reference to it, by a wrapper that records one span (name, start,
end, parent) per call into flat in-memory arrays.  A target that a later
version of the library no longer has is reported as absent and skipped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

#: layer name -> (module, candidate attribute names, first found wins)
TARGETS = {
    "intmath.factorize": ("cubic93._intmath", ("factorize",)),
    "intmath.is_prime": ("cubic93._intmath", ("is_prime",)),
    "eisenstein.cubic_character": ("cubic93.eisenstein", ("cubic_character",)),
    "eisenstein.factor": ("cubic93.eisenstein", ("factor",)),
    "eisenstein.factor_rational_prime": ("cubic93.eisenstein", ("factor_rational_prime",)),
    "eisenstein.rational_cubic_symbol": ("cubic93.eisenstein", ("rational_cubic_symbol",)),
    "radicand.normalize": ("cubic93.radicand", ("normalize",)),
    "radicand.gerth_decompose": ("cubic93.radicand", ("gerth_decompose",)),
    "radicand.cube_free_sieve": ("cubic93.radicand", ("cube_free_sieve",)),
    # necessary_form calls the form-based entry, not the public ramify(d)
    "ramification.ramify": ("cubic93.ramification", ("_ramify_from_form", "ramify")),
    "classifier.necessary_form": ("cubic93.classifier", ("necessary_form",)),
    "classifier.classify": ("cubic93.classifier", ("classify",)),
    "genus.period_polynomial": ("cubic93.genus", ("period_polynomial",)),
    "genus.genus_field_description": ("cubic93.genus", ("genus_field_description",)),
}

#: layers whose functions are memoised; their cache_info() is reported
CACHED = ("eisenstein.factor_rational_prime", "genus.period_polynomial")


def find(module_name: str, attrs: tuple[str, ...]):
    """The first of ``attrs`` that ``module_name`` defines, or None."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    for attr in attrs:
        fn = getattr(module, attr, None)
        if callable(fn):
            return fn
    return None


class Recorder:
    """Flat span arrays; index i of each array describes span i."""

    def __init__(self, names: list[str]):
        self.names = names
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def clear(self) -> None:
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]

    def wrap(self, fn, name_id: int):
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(name)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def aggregate(self) -> dict:
        """Calls and self time (span minus its children) per layer, plus root coverage."""
        n = len(self)
        duration = [e - s for s, e in zip(self.start, self.end)]
        children = [0] * n
        root_ns = 0
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += duration[i]
            else:
                root_ns += duration[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, k in enumerate(self.name):
            calls[k] += 1
            self_ns[k] += duration[i] - children[i]
        return {
            "spans": n,
            "root_ns": root_ns,
            "calls": dict(zip(self.names, calls)),
            "self_ns": dict(zip(self.names, self_ns)),
        }


@contextlib.contextmanager
def installed(recorder: Recorder, targets=TARGETS):
    """Wrap every target found while the block runs; yield the absent layer names."""
    modules = [m for k, m in list(sys.modules.items()) if k == "cubic93" or k.startswith("cubic93.")]
    absent, patched = [], []
    for name, (module_name, attrs) in targets.items():
        fn = find(module_name, attrs)
        if fn is None:
            absent.append(name)
            continue
        wrapper = recorder.wrap(fn, recorder.names.index(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, fn))
    try:
        yield absent
    finally:
        for module, attr, fn in patched:
            setattr(module, attr, fn)


def write_spans(path, recorder: Recorder, passes: list) -> None:
    """One line per span: pass, operation, name, parent, start_ns, end_ns.

    ``passes`` holds (pass index, op start offsets, name, parent, start, end)
    snapshots of the recorder's arrays taken at the end of traced passes.
    """
    with open(path, "w", encoding="utf-8") as out:
        out.write("pass\top\tname\tparent\tstart_ns\tend_ns\n")
        for k, op_starts, name, parent, start, end in passes:
            bounds = list(op_starts) + [len(name)]
            for op in range(len(op_starts)):
                out.writelines(
                    f"{k}\t{op}\t{recorder.names[name[i]]}\t{parent[i]}\t{start[i]}\t{end[i]}\n"
                    for i in range(bounds[op], bounds[op + 1])
                )
