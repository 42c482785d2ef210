"""Spans around hyperq's public functions, kept in memory.

`Tracer.install` replaces every public function of the layer modules,
at every name it is bound to in any hyperq module (so both
`hyperq.quadrics.construct_map` and `hyperq.cli.construct_map`, and the
private alias `hyperq.forms._matrix_rank`), with a wrapper that records
(name, start, end, parent span, op).  scalars, multiindex and errors
are left alone: their calls are too fine-grained to time one by one,
and their cost shows in the self time of their callers.

Self time is a span's duration minus the time its child spans cover.
Counters are taken outside the timed part of a span, and the time they
take is removed from the parent's self time.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from collections import defaultdict
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Tuple

LAYERS = ("combinat", "linalg", "forms", "restrict", "quadrics", "polys", "formats", "cli")
MATRIX_KERNELS = ("linalg.rank", "linalg.inertia", "linalg.ldl_components")


def _bits(x) -> int:
    """Bit length of the larger of numerator and denominator."""
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return max(_bits(x.re), _bits(x.im))


def _count_matrix(counters, parent_name: str, args, result) -> None:
    # a kernel called by another kernel (inertia -> ldl_components) is counted once
    if parent_name.startswith("linalg."):
        return
    rows = args[0]
    counters["linalg.entries"] += sum(len(r) for r in rows)
    top = max((_bits(x) for r in rows for x in r), default=0)
    counters["linalg.max_coeff_bits"] = max(counters["linalg.max_coeff_bits"], top)


def _count_restricted(counters, parent_name: str, args, result) -> None:
    counters["restrict.restrict_form.out_entries"] += len(result.entries)


COUNTERS = {name: _count_matrix for name in MATRIX_KERNELS}
COUNTERS["restrict.restrict_form"] = _count_restricted

# (span, parent) pairs whose self time is booked to the parent: the LDL*
# pass that inertia runs, and the parse that load_form runs
BOOKED_TO_PARENT = {
    ("linalg.ldl_components", "linalg.inertia"),
    ("formats.parse_form", "formats.load_form"),
}


# op ids for spans outside the batch
SETUP_OP = -1
CLI_OP = -2


class Tracer:
    """Spans as parallel arrays: name id, start, end, parent index, op id."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_id: Dict[str, int] = {}
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.ops = array("l")
        self.stack: List[Tuple[int, str]] = []
        self.excluded: Dict[int, float] = defaultdict(float)
        self.counters: Dict[str, int] = defaultdict(int)
        self.op = SETUP_OP
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        kind_id = self.name_id.setdefault(name, len(self.names))
        if kind_id == len(self.names):
            self.names.append(name)
        kinds, starts, ends, parents, ops = self.kind, self.start, self.end, self.parent, self.ops
        stack, excluded = self.stack, self.excluded
        counter = COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            parent, parent_name = stack[-1] if stack else (-1, "")
            idx = len(kinds)
            kinds.append(kind_id)
            parents.append(parent)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append((idx, name))
            start = perf_counter()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                ends[idx] = end
            if counter is not None:
                counter(tracer.counters, parent_name, args, result)
                if parent >= 0:
                    excluded[parent] += perf_counter() - end
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self, package: str = "hyperq") -> None:
        modules = [
            m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")
        ]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def totals(self, op=None) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Calls and self seconds per span name, optionally for one op only.

        Calls count every span under its own name; self time of the pairs in
        BOOKED_TO_PARENT goes to the parent's name.
        """
        names, kinds, starts, ends, parents = self.names, self.kind, self.start, self.end, self.parent
        covered = [0.0] * len(kinds)
        for i, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        for i, kind in enumerate(kinds):
            if op is not None and self.ops[i] != op:
                continue
            name = names[kind]
            calls[name] += 1
            parent = parents[i]
            if parent >= 0 and (name, names[kinds[parent]]) in BOOKED_TO_PARENT:
                name = names[kinds[parent]]
            self_s[name] += ends[i] - starts[i] - covered[i] - self.excluded.get(i, 0.0)
        return calls, self_s

    def dump(self, path: str) -> None:
        """Write every span as gzipped JSON lines: a header, then
        [name, start_us, duration_us, parent, op] per span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "counters": dict(self.counters)}) + "\n")
            for i, kind in enumerate(self.kind):
                start, end = self.start[i], self.end[i]
                fh.write(
                    f"[{kind},{(start - t0) * 1e6:.1f},{(end - start) * 1e6:.1f},"
                    f"{self.parent[i]},{self.ops[i]}]\n"
                )
