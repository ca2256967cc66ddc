"""Span tracing of the laminar_secretary layers from outside the package.

The package itself carries no instrumentation.  ``Tracer.install`` replaces
the module-level names that call sites look up at call time with timing
wrappers, and ``Tracer.restore`` puts every original object back.  A name
bound by ``from .x import y`` is a separate binding in each importing module,
so every module of the package that binds the same object is patched, not
only the defining one.

Spans live in flat in-memory arrays (one entry per call: parent index,
top-level index, name index, start and end in integer nanoseconds) and are
written out once, after the run.  A span's self time is its duration minus
the durations of its direct children; integer clocks make that exact, so a
self time is never negative.
"""

from __future__ import annotations

import gzip
import importlib
import pkgutil
import random
from array import array
from pathlib import Path
from time import perf_counter_ns

# (module, attribute, span name).  A dotted attribute names a method on a
# module-level class.  ``random`` is patched by a shim whose ``Random`` is
# timed, because ``random.Random(seed)`` is the per-trial seeding step.
TARGETS = (
    ("model", "_Pre", "model.pre"),
    ("model", "LaminarInstance.element", "model.element"),
    ("model", "LaminarInstance.key", "model.key"),
    ("model", "load_instance", "model.load"),
    ("matroid", "_greedy_ranks", "matroid.greedy_ranks"),
    ("matroid", "greedy_opt", "matroid.greedy_opt"),
    ("kicknext", "_sample_ids", "kicknext.split"),
    ("kicknext", "_ref_rank_lists", "kicknext.refs"),
    ("kicknext", "_run_weight", "kicknext.walk"),
    ("kicknext", "run_kicknext", "kicknext.run_traced"),
    ("kicknext", "qualifies", "kicknext.qualifies"),
    ("theory", "_padded_brank", "theory.padded_brank"),
    ("theory", "g_exact", "theory.g_exact"),
    ("experiments", "derive_seed", "experiments.derive_seed"),
    ("experiments", "_trial_weights_chunk", "experiments.trial_loop"),
    ("experiments", "monte_carlo_ratio", "experiments.monte_carlo_ratio"),
    ("experiments", "exact_expectation", "experiments.exact_expectation"),
    ("experiments", "exact_ratio", "experiments.exact_ratio"),
    ("experiments", "verify_lemmas", "experiments.verify_lemmas"),
    ("experiments", "allkicked_frequency", "experiments.allkicked"),
    ("experiments", "_qualifying_counts", "experiments.qualifying_counts"),
    ("experiments", "qualifying_joint_probability", "experiments.qualifying"),
    ("generators", "generate", "generators.generate"),
)
RNG_SPAN = "rng.init"
_MISSING = object()


class _RandomShim:
    """Stands in for the ``random`` module inside one package module."""

    def __init__(self, rng_class):
        self.Random = rng_class

    def __getattr__(self, name):
        return getattr(random, name)


def package_modules(package):
    """The package and every submodule of it, imported.  ``__main__`` is
    skipped: importing it runs the command line."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


class Tracer:
    """Spans of the calls into ``package``'s layers, once installed."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.root = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded spans in place (wrappers hold the arrays); name ids
        stay valid."""
        for arr in (self.parent, self.root, self.name, self.start, self.end):
            del arr[:]
        del self._stack[1:]

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, span_name: str):
        """``fn`` wrapped so that each call records one span."""
        nid = self.name_id(span_name)
        stack, parents, roots, names = self._stack, self.parent, self.root, self.name
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = len(names)
            parents.append(parent)
            roots.append(sid if parent < 0 else roots[parent])
            names.append(nid)
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter_ns()
                starts[sid] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every module of the package that binds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = package_modules(self.package)
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        try:
            for mod_name, attr, span_name in TARGETS:
                home = by_name[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self.wrap(cls.__dict__[meth], span_name))
                    continue
                orig = getattr(home, attr)
                traced = self.wrap(orig, span_name)
                for mod in mods:
                    if getattr(mod, attr, _MISSING) is orig:
                        self._patch(mod, attr, traced)
            shim = _RandomShim(self.wrap(random.Random, RNG_SPAN))
            for mod in mods:
                if getattr(mod, "random", _MISSING) is random:
                    self._patch(mod, "random", shim)
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner, attr: str, value) -> None:
        # a class attribute is read from the class dict, so a method is
        # restored as the plain function, not as a bound or static wrapper
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every binding currently wrapped."""
        return list(self._undo)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> array:
        """Per-span self time in nanoseconds."""
        n = len(self.name)
        own = array("q", (self.end[i] - self.start[i] for i in range(n)))
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write_csv(self, path: Path) -> None:
        """All spans as gzip-compressed CSV, times in nanoseconds from the
        first span."""
        t0 = self.start[0] if len(self.name) else 0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,root,name,start_ns,end_ns\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.parent[i]},{self.root[i]},{names[self.name[i]]},"
                         f"{self.start[i] - t0},{self.end[i] - t0}\n")
