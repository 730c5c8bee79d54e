"""In-memory call tracing of the bospec modules, installed from outside the
package.

`Tracer.install` replaces each public function of the layer modules by a
wrapper that records a span (name, start, end, parent) and restores the
originals on `uninstall`.  A function is rebound in every namespace that holds
it: its own module, the package namespace, sibling modules that imported it
(``eigensolver`` binds ``build_grid`` at import) and module-level dicts such as
the CLI command table.  Lazy ``from .x import f`` inside a function reads the
module attribute at call time, so patching the module covers it.  Methods are
patched on their class.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("potential", "grid", "eigensolver", "analytic", "probe", "cli")

# Methods and private helpers traced in addition to the public functions:
# the coordinate table and the potential batch evaluation are the work the
# assembly layer does, and each resolvent call is one linear solve.
EXTRA = {
    "grid": {"Grid.node_coords": ("Grid", "node_coords")},
    "potential": {"Potential.evaluate_many": ("Potential", "evaluate_many")},
    "probe": {"resolvent_solve": (None, "_resolvent_at_i")},
}


def _lowest_eigenpairs_counts(result):
    conv = result.converged
    return {"iterations": int(result.iterations), "pairs": int(conv.size),
            "converged": int(conv.sum())}


def _assemble_counts(result):
    return {"nnz": int(result.matrix.nnz)}


def _evaluate_many_counts(result):
    return {"points": int(len(result))}


COUNTERS = {
    "eigensolver.lowest_eigenpairs": _lowest_eigenpairs_counts,
    "grid.assemble_hamiltonian": _assemble_counts,
    "potential.Potential.evaluate_many": _evaluate_many_counts,
}


def _public_functions(module):
    names = getattr(module, "__all__", None) or [
        n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = vars(module).get(name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Spans are lists [name, start, end, parent_index, counts]."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [getattr(self.package, layer) for layer in LAYERS]
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, module in zip(LAYERS, modules):
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
            for label, (cls_name, attr) in EXTRA.get(layer, {}).items():
                owner = module if cls_name is None else getattr(module, cls_name)
                fn = vars(owner)[attr]
                wrapper = self._wrap(f"{layer}.{label}", fn)
                if cls_name is None:
                    wrappers[id(fn)] = (fn, wrapper)
                else:
                    self._set(owner, attr, wrapper)
        for namespace in [self.package, *modules]:
            for key, value in list(vars(namespace).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._set(namespace, key, wrappers[id(value)][1])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers and wrappers[id(v)][0] is v:
                            self._set(value, k, wrappers[id(v)][1])

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans) -> dict:
    """Per-name inclusive seconds (outermost call of a name only) and call
    counts, per-layer self seconds, and summed counters."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] += end - start
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    counts: dict[str, int] = {}
    for i, (name, start, end, parent, span_counts) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_s[layer] += (end - start) - children[i]
        calls[name] = calls.get(name, 0) + 1
        if not _has_ancestor(spans, parent, name):
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        for key, value in (span_counts or {}).items():
            counts[key] = counts.get(key, 0) + value
    return {"inclusive_s": inclusive, "calls": calls, "self_s": self_s,
            "counts": counts, "spans": len(spans)}


def _has_ancestor(spans, parent, name) -> bool:
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
