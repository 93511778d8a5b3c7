"""Span tracing of cmhodge from outside the package.

``Tracer.install`` replaces every public function and method of the layer
modules with a wrapper that records a span (name, start, end, parent, op id)
in flat arrays.  The replacement is done in every ``cmhodge`` module
namespace that holds a reference to the function, because the package uses
``from .algebra import bracket`` style imports, and on the defining class
for methods, so ``__rmul__ = __mul__`` and ``SpanBasis.insert`` are caught.
Spans stay in memory and are written to a file once the run ends; nothing
reaches the program's stdout.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

LAYERS = (
    "polynomials",
    "cyclotomic",
    "linalg",
    "cmfield",
    "algebra",
    "graphs",
    "verifiers",
    "acceptance",
    "cli",
)

# Span names other than "<layer>.<function name>"; arithmetic dunders drop
# their underscores ("cyclotomic.__mul__" is "cyclotomic.mul").
RENAMES = {"linalg.insert": "linalg.span_insert"}

# Arithmetic dunders that carry real work; other dunders are plumbing.
# Reflected aliases (``__rmul__ = __mul__``) share the original's wrapper.
DUNDERS = (
    "__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__truediv__", "__pow__",
)

# O(1) accessors left unwrapped: a span would cost more than the call, and
# their time is charged to the caller's self time.
SKIP = frozenset({
    "polynomials.degree", "polynomials.is_zero", "polynomials.leading",
    "cyclotomic.is_zero", "cyclotomic.is_rational_value",
    "cmfield.basis_pos", "cmfield.identity", "cmfield.apply", "cmfield.compose",
    "cmfield.inverse", "cmfield.act_index", "cmfield.bidegree_of_label",
    "cmfield.bidegree_of_index", "cmfield.grading_value", "cmfield.signed_indices",
    "cmfield.value", "cmfield.pair_tuple",
    "algebra.canonical_root_index", "algebra.bidegree", "algebra.ratio",
    "algebra.q_value", "algebra.is_zero", "algebra.coefficient",
})

# Outcome tallies: span name -> function of the result giving the amount to add.
TALLIES = {
    "linalg.span_insert": lambda added: int(bool(added)),
    "algebra.bracket": lambda z: int(not z.is_zero()),
    "cmfield.enumerate_orientations": len,
}


# Span names (prefixes) that start a new op: one CLI call, or one criterion.
OP_ROOTS = {
    "escape": ("cli.main",),
    "sweep": ("cli.main",),
    "selftest": ("acceptance.criterion_",),
}


class Tracer:
    """Records spans of wrapped calls; a span whose name starts with an op root opens a new op.

    The wrappers are built once, for ``package``; ``install`` puts them in
    place and ``uninstall`` restores the originals, so tracing can be switched
    on for single calls.
    """

    def __init__(self, package, op_roots=("cli.main",)):
        self.op_roots = tuple(op_roots)
        self.names = []
        self._name_id = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tallies = {}
        self._stack = [-1]
        self._op = -1
        self._patches = []  # (owner, attribute, original, wrapped)
        self._plan(package)

    def _intern(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn):
        nid = self._intern(name)
        is_root = name.startswith(self.op_roots)
        tally = TALLIES.get(name)
        clock, stack = time.perf_counter, self._stack
        s_name, s_parent, s_op, s_start, s_end = (
            self.name, self.parent, self.op, self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_root:
                self._op += 1
            i = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_op.append(self._op)
            s_end.append(0.0)
            stack.append(i)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[i] = clock()
                stack.pop()
            if tally is not None:
                self.tallies[name] = self.tallies.get(name, 0) + tally(result)
            return result

        return traced

    def _plan(self, package):
        """Wrap the public functions and methods of every layer module of ``package``."""
        holders = [
            m for m in vars(package).values()
            if inspect.ismodule(m) and m.__name__.startswith(package.__name__ + ".")
        ]
        holders.append(package)
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    self._plan_methods(layer, value)
                elif callable(value) and getattr(value, "__module__", None) == module.__name__:
                    name = _span_name(layer, attr)
                    if name in SKIP:
                        continue
                    wrapped = self.wrap(name, value)
                    for holder in holders:
                        for key, held in vars(holder).items():
                            if held is value:
                                self._patches.append((holder, key, value, wrapped))

    def _plan_methods(self, layer, cls):
        done = {}
        for attr, value in vars(cls).items():
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if isinstance(value, (classmethod, staticmethod)):
                kind, fn = type(value), value.__func__
            elif inspect.isfunction(value):
                kind, fn = None, value
            else:
                continue
            name = _span_name(layer, fn.__name__)
            if name in SKIP:
                continue
            # __rmul__ is the same function object as __mul__: one wrapper, one name.
            wrapped = done.get(id(fn))
            if wrapped is None:
                wrapped = done[id(fn)] = self.wrap(name, fn)
            self._patches.append((cls, attr, value, wrapped if kind is None else kind(wrapped)))

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def spans(self):
        """Recorded spans as (name, start, end, parent, op) tuples."""
        names = self.names
        return [
            (names[n], s, e, p, o)
            for n, s, e, p, o in zip(self.name, self.start, self.end, self.parent, self.op)
        ]

    def write(self, path):
        """Write the spans as JSON lines, one [name, start, end, parent, op] each."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")


def _span_name(layer, attr):
    name = f"{layer}.{attr.strip('_') if attr in DUNDERS else attr}"
    return RENAMES.get(name, name)


def self_times(spans):
    """Per name: [calls, total seconds, self seconds] from (name, start, end, parent, op) spans.

    A span's self time is its duration minus the durations of its direct
    children.  Children of one span run one after another in a single
    thread, so their intervals do not overlap and the subtraction is exact.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return out


def op_durations(spans, op_roots):
    """Duration of each op's root span, in op order."""
    return [end - start for name, start, end, _, _ in spans if name.startswith(op_roots)]
