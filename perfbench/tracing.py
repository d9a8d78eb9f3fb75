"""In-memory spans around the public functions of ``rodbilliard``.

The tracer replaces functions by wrappers in every loaded module that
holds them (``from .x import f`` leaves one binding per importer), so the
program itself is not edited.  Two kinds of wrapper exist:

* a span wrapper records (name, parent, start, end) for each call, plus
  an optional number taken from the call's result;
* a count wrapper, for the cheap leaf functions of ``flight``, only adds
  one to the innermost open span, so evaluations are attributed to the
  layer that asked for them without the cost of a span per call.

Span 0 is the root; every other span's parent has a smaller index, which
lets self time and inclusive counts be folded in one backward pass.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from pathlib import Path

# (module, function, what the span keeps from the result)
SPANNED = (
    ("rootfind", "first_impact", None),
    ("rootfind", "solve_delta", None),
    ("rootfind", "hybrid_root", lambda res: res.iterations),
    ("impact_map", "step", None),
    ("impact_map", "segment_max_height", None),
    ("simulator", "simulate", None),
    ("oracle", "oracle_simulate", len),
    ("analysis", "asymptotic_table", None),
    ("analysis", "estimate_growth_constant", None),
    ("cli_io", "record_to_json", None),
    ("cli_io", "record_from_json", None),
    ("cli_io", "export_trajectory", len),
)
COUNTED = (
    ("flight", "flight_position"),
    ("flight", "flight_velocity"),
    ("flight", "segment_position"),
)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = ["<root>"]
        self._name_ids: dict[str, int] = {"<root>": 0}
        self.name = array("i", [0])
        self.parent = array("i", [-1])
        self.start = array("d", [0.0])
        self.end = array("d", [0.0])
        self.evals = array("q", [0])   # count-wrapper calls made directly in the span
        self.value = array("d", [0.0])  # number kept from the call's result
        self.stack = [0]
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        """Open a span by hand (rounds, set-up); close it with ``close``."""
        sid = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1])
        self.evals.append(0)
        self.value.append(0.0)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        popped = self.stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while {popped} was open")

    def span_wrapper(self, name: str, fn, keep=None):
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        evals, values, stack = self.evals, self.value, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            evals.append(0)
            values.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if keep is not None:
                values[sid] = keep(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, fn):
        evals, stack = self.evals, self.stack

        def wrapper(*args, **kwargs):
            evals[stack[-1]] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package: str = "rodbilliard") -> None:
        """Wrap every function of SPANNED and COUNTED wherever it is bound.

        A function that no longer exists is listed in ``absent`` and
        skipped, so a rename in the program does not stop a traced run.
        """
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package
                                         or key.startswith(package + "."))]
        table = [(mod, fn, self.span_wrapper, keep) for mod, fn, keep in SPANNED]
        table += [(mod, fn, None, None) for mod, fn in COUNTED]
        for mod_name, fn_name, make, keep in table:
            label = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                self.absent.append(label)
                continue
            wrapped = (make(label, original, keep) if make is not None
                       else self.count_wrapper(original))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\tevals\tvalue\n")
            for sid in range(1, len(self.start)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.names[self.name[sid]]}"
                         f"\t{self.start[sid]!r}\t{self.end[sid]!r}"
                         f"\t{self.evals[sid]}\t{self.value[sid]!r}\n")


class SpanTable:
    """Derived per-span quantities: self time and inclusive counts."""

    def __init__(self, tr: Tracer) -> None:
        n = len(tr.start)
        self.tracer = tr
        self.duration = [tr.end[i] - tr.start[i] for i in range(n)]
        child_time = [0.0] * n
        self.evals_incl = list(tr.evals)
        for i in range(n - 1, 0, -1):
            p = tr.parent[i]
            child_time[p] += self.duration[i]
            self.evals_incl[p] += self.evals_incl[i]
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def ids(self, names: str | tuple[str, ...]) -> list[int]:
        """Indices of the spans called ``names`` (one name or several)."""
        wanted = {self.tracer._name_ids.get(n)
                  for n in ((names,) if isinstance(names, str) else names)}
        return [i for i, x in enumerate(self.tracer.name) if x in wanted]

    def is_absent(self, names: str | tuple[str, ...]) -> bool:
        names = (names,) if isinstance(names, str) else names
        return any(n in self.tracer.absent for n in names)

    def mean(self, names: str | tuple[str, ...], column: list) -> float | None:
        """Mean of ``column`` over the spans called ``names``: 0.0 if there
        are none, None if one of the functions is absent."""
        if self.is_absent(names):
            return None
        ids = self.ids(names)
        return sum(column[i] for i in ids) / len(ids) if ids else 0.0

    def child_value(self, parent_name: str, child_name: str) -> float | None:
        """Mean over ``parent_name`` spans of their direct children's values
        (None if either function is absent)."""
        if self.is_absent((parent_name, child_name)):
            return None
        parents = self.ids(parent_name)
        if not parents:
            return 0.0
        wanted = set(parents)
        total = sum(self.tracer.value[i] for i in self.ids(child_name)
                    if self.tracer.parent[i] in wanted)
        return total / len(parents)
