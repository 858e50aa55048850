"""Spans recorded around calls into the program, from the benchmark's own files.

Tracer.install() replaces each function named in WRAPPED with a wrapper that
records a span (name, start, end, parent) in memory, also on the names other
modules import directly; uninstall() puts the originals back.  COUNTED
functions only count calls, since they are too small for a span.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter_ns

# span name -> the (module, attribute) pairs the wrapper is installed on
WRAPPED = {
    "nonic.classify": (("nonic", "classify"), ("verify", "classify"), ("cli", "classify")),
    "nonic.normalize": (("nonic", "normalize"),),
    "nonic.irreducibility_certificate": (("nonic", "irreducibility_certificate"),
                                         ("verify", "irreducibility_certificate")),
    "nonic.nu2": (("nonic", "nu2"), ("verify", "nu2")),
    "nonic.nu3": (("nonic", "nu3"), ("verify", "nu3")),
    "nonic.bounded_factor": (("nonic", "bounded_factor"),),
    "nonic.is_order_maximal": (("nonic", "is_order_maximal"),),
    "nonic.engine_split": (("nonic", "engine_split"), ("verify", "engine_split")),
    "polygon.ore_analyze": (("polygon", "ore_analyze"), ("nonic", "ore_analyze")),
    "polygon.analyze_phi": (("polygon", "analyze_phi"),),
    "gf.factor": (("gf", "factor"),),
    "gf.is_irreducible": (("gf", "is_irreducible"),),
    "gf.ExtField": (("gf.ExtField", "__init__"),),
    "engstrom.nu_lookup": (("engstrom", "nu_lookup"), ("nonic", "nu_lookup")),
    "verify.certified_lift": (("verify", "certified_lift"),),
    "verify.sweep_agreement": (("verify", "sweep_agreement"),),
}
COUNTED = {
    "arith.is_prime": (("arith", "is_prime"), ("gf", "is_prime")),
}
SYMPY_PRIME_FLOOR = 47 * 47  # arith.is_prime hands n >= 2209 to sympy.isprime


class Tracer:
    def __init__(self, modules: dict):
        """modules: short name ("nonic", "gf", ...) -> the imported module."""
        self.modules = modules
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list = []
        self.counts: dict = {}
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def _span_wrapper(self, name: str, fn):
        opened, close = self.open, self.close
        counts = self.counts

        def traced(*args, **kwargs):
            i = opened(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if name == "nonic.bounded_factor" and result[1] == 1:
                counts["nonic.bounded_factor.complete"] = counts.get(
                    "nonic.bounded_factor.complete", 0) + 1
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        calls, big = f"{name}.calls", f"{name}.sympy_calls"
        counts.setdefault(calls, 0)
        counts.setdefault(big, 0)

        def counted(n):
            counts[calls] += 1
            if n >= SYMPY_PRIME_FLOOR:
                counts[big] += 1
            return fn(n)

        return counted

    def _target(self, where: str):
        module, _, cls = where.partition(".")
        obj = self.modules[module]
        return getattr(obj, cls) if cls else obj

    def install(self) -> None:
        for table, make in ((WRAPPED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for name, places in table.items():
                original = None
                for where, attr in places:
                    target = self._target(where)
                    fn = getattr(target, attr)
                    original = original or fn
                    self._saved.append((target, attr, fn))
                    setattr(target, attr, make(name, original))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, fn = self._saved.pop()
            setattr(target, attr, fn)

    def totals(self) -> dict:
        """name -> {"calls", "total_ns", "self_ns"} over every recorded span."""
        n = len(self.start)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["total_ns"] += dur
            rec["self_ns"] += dur - child[i]
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({
                "names": self.names,
                "name": self.name_id.tolist(),
                "parent": self.parent.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "counts": self.counts,
            }, fh)
