"""Spans around the public functions of every tricut module, from outside.

`Tracer(package)` finds each public function defined in a module of the
package and, on `install()`, rebinds it in every module namespace that holds
it (``validate_simple`` lives in ``cells`` but is also bound in ``wedges``,
``generators`` and ``cli``), so calls made through any of those names are
seen.  `uninstall()` restores the originals.

Functions of ``core`` are hot inner predicates (``orient`` runs O(m^3)
times); they get a count-only wrapper.  Every other function records a span
``[function id, parent span, start, end]`` in memory.  Spans are aggregated
with `summary()` and can be written out with `dump()`.  Span times are
process CPU time, the clock of the benchmark's timed loop.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


class Tracer:
    def __init__(self, package):
        prefix = package.__name__
        modules = sorted(
            (m for name, m in list(sys.modules.items())
             if m is not None and (name == prefix or name.startswith(prefix + "."))),
            key=lambda m: m.__name__,
        )
        self.names: list[str] = []
        self.calls: list[int] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, fn in sorted(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                fid = len(self.names)
                self.names.append(f"{short}.{name}")
                self.calls.append(0)
                count_only = short == "core" or inspect.isgeneratorfunction(fn)
                wrappers[fn] = (self._counter if count_only else self._span)(fn, fid)
        self._patches = [
            (mod, name, fn, wrappers[fn])
            for mod in modules
            for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and fn in wrappers
        ]

    # -- wrappers ------------------------------------------------------------------

    def _counter(self, fn, fid):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[fid] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, fid):
        calls, spans, stack, clock = self.calls, self.spans, self._stack, time.process_time

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[fid] += 1
            rec = [fid, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()

        return spanned

    def install(self) -> None:
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, fn, _ in self._patches:
            setattr(mod, name, fn)

    def clear(self) -> None:
        self.spans.clear()
        self.calls[:] = [0] * len(self.calls)

    # -- aggregation -----------------------------------------------------------------

    def summary(self) -> "Summary":
        return Summary(self.names, list(self.calls), [list(s) for s in self.spans])

    def dump(self, path: str, phases: dict) -> None:
        """Write the spans of each phase, `phases` maps a name to a Summary."""
        doc = {
            "names": self.names,
            "span_fields": ["function", "parent", "start_s", "end_s"],
            "phases": {k: v.spans for k, v in phases.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class Summary:
    """Calls, inclusive and self time per function for one phase of a run."""

    def __init__(self, names, calls, spans):
        self.names, self.spans = names, spans
        self.fid = {n: i for i, n in enumerate(names)}
        self._calls = calls
        covered = [0.0] * len(spans)
        for fid, parent, t0, t1 in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        self._self = [0.0] * len(names)
        for (fid, _, t0, t1), c in zip(spans, covered):
            self._self[fid] += t1 - t0 - c

    def _ids(self, names) -> set[int]:
        return {self.fid[n] for n in names}

    def _has_ancestor(self, i: int, fids: set[int]) -> bool:
        j = self.spans[i][1]
        while j >= 0:
            if self.spans[j][0] in fids:
                return True
            j = self.spans[j][1]
        return False

    def calls(self, name: str) -> int:
        return self._calls[self.fid[name]]

    def self_s(self, name: str) -> float:
        return self._self[self.fid[name]]

    def seconds(self, *names: str) -> float:
        """Wall time inside any of `names`, nested calls among them counted once."""
        fids = self._ids(names)
        return sum(
            s[3] - s[2]
            for i, s in enumerate(self.spans)
            if s[0] in fids and not self._has_ancestor(i, fids)
        )

    def calls_under(self, name: str, ancestor: str) -> int:
        fid, anc = self.fid[name], self._ids([ancestor])
        return sum(
            1 for i, s in enumerate(self.spans) if s[0] == fid and self._has_ancestor(i, anc)
        )

    def matching(self, module: str, prefixes: tuple[str, ...]) -> list[str]:
        return [
            n for n in self.names
            if n.startswith(module + ".") and n.split(".", 1)[1].startswith(prefixes)
        ]
