"""Per-module spans around the public functions of the arrinv package.

``Tracer.install`` wraps every public function of every layer module and
rebinds every name that refers to it, in every arrinv module: the
defining module, modules that imported it by name (``holonomy.rank``,
``osalgebra.rank_exact``, ``arrangement.rank_exact``, ...) and the package
namespace.  Calls inside a module that go through a module-level name
(``linalg.rank`` calling ``rank_exact``, ``lyndon_product`` recursing)
therefore show up as nested spans.  ``uninstall`` puts every original
binding back.

Self time is kept with a stack: each active span accumulates the time of
the spans it encloses, and a span's self time is its duration minus that
sum.  A layer's self time is the sum over its functions.  Counters are
computed from arguments and results outside the timed interval, and
their cost is excluded from every enclosing span's self time.

Only the benchmark's traced child process imports this module.
"""

from __future__ import annotations

import importlib
import time
import types

from metrics import LAYERS

# Functions whose lru_cache hit ratio is reported, as (layer, name).
CACHES = (("arrangement", "compute_l2"), ("holonomy", "holonomy_relators"),
          ("lyndon", "lyndon_product"))

# Matrix kernels whose arguments are counted; only the outermost call of a
# nest is counted, so a rank that delegates to rank_exact counts once.
_MATRIX_KERNELS = {"rank", "rank_exact", "rank_modular", "smith_diagonal"}


def _is_traceable(obj, module_name: str) -> bool:
    # plain functions and lru_cache wrappers defined in that module
    callable_kind = isinstance(obj, types.FunctionType) or (
        callable(obj) and hasattr(obj, "cache_info"))
    return callable_kind and getattr(obj, "__module__", None) == module_name


def matrix_shape(rows, ncols=None) -> tuple[int, int, int]:
    """(rows, columns, nonzeros) of a list of sparse rows."""
    nnz = 0
    width = 0
    for row in rows:
        for c, v in row.items():
            if v:
                nnz += 1
                if c >= width:
                    width = c + 1
    return len(rows), width if ncols is None else ncols, nnz


class Tracer:
    """Span and counter recorder; one per traced process."""

    def __init__(self, package: str = "arrinv", layers=LAYERS):
        self.package = package
        self.layers = layers
        self.spans: dict[str, list] = {}  # "layer.fn" -> [calls, self seconds]
        self.counters = {"linalg.rows": 0, "linalg.cols": 0, "linalg.nnz": 0,
                         "lyndon.basis_words": 0, "parsing.input_bytes": 0,
                         "milnor.residues": 0}
        self._stack: list[float] = []
        self._matrix_depth = 0
        self._bindings: list[tuple[types.ModuleType, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def _plain(self, fn, stat):
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
        return span

    def _counted(self, fn, stat, before, after):
        """A span whose counter hooks run outside its own timer."""
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            h0 = clock()
            args = before(args, kwargs)
            hook = clock() - h0
            result = None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                h1 = clock()
                after(result)
                hook += clock() - h1
                if stack:
                    stack[-1] += dt + hook
        return span

    def _hooks(self, layer: str, name: str):
        c = self.counters
        if layer == "linalg" and name in _MATRIX_KERNELS:
            def before(args, kwargs):
                depth = self._matrix_depth
                self._matrix_depth += 1
                if depth:
                    return args
                rows = args[0] if args else kwargs["rows"]
                if not isinstance(rows, list):
                    rows = list(rows)
                    args = (rows,) + tuple(args[1:]) if args else args
                    if "rows" in kwargs:
                        kwargs["rows"] = rows
                ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
                r, w, nnz = matrix_shape(rows, ncols)
                c["linalg.rows"] += r
                c["linalg.cols"] += w
                c["linalg.nnz"] += nnz
                return args

            def after(result):
                self._matrix_depth -= 1
            return before, after
        if (layer, name) == ("lyndon", "lyndon_words"):
            def after(result):
                c["lyndon.basis_words"] += len(result or ())
            return _no_args, after
        if (layer, name) == ("parsing", "parse_arrangement"):
            def before(args, kwargs):
                text = args[0] if args else kwargs["text"]
                c["parsing.input_bytes"] += len(text.encode("utf-8"))
                return args
            return before, _no_result
        if (layer, name) == ("milnor", "milnor_b1"):
            def before(args, kwargs):
                c["milnor.residues"] += args[0].total
                return args
            return before, _no_result
        return None

    # -------------------------------------------------------- install/remove

    def modules(self) -> list[types.ModuleType]:
        pkg = importlib.import_module(self.package)
        mods = [pkg] + [importlib.import_module("%s.%s" % (self.package, m))
                        for m in self.layers]
        return mods

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        mods = self.modules()
        wrappers: dict[int, object] = {}
        for layer, mod in zip(self.layers, mods[1:]):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not _is_traceable(obj, mod.__name__):
                    continue
                stat = self.spans.setdefault("%s.%s" % (layer, name), [0, 0.0])
                hooks = self._hooks(layer, name)
                span = self._plain(obj, stat) if hooks is None else \
                    self._counted(obj, stat, *hooks)
                span.__wrapped__ = obj
                span.__name__ = name
                if hasattr(obj, "cache_info"):
                    span.cache_info = obj.cache_info
                    span.cache_clear = obj.cache_clear
                wrappers[id(obj)] = span
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                span = wrappers.get(id(obj))
                if span is not None:
                    self._bindings.append((mod, name, obj))
                    setattr(mod, name, span)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._bindings):
            setattr(mod, name, obj)
        self._bindings.clear()

    @property
    def bindings(self):
        return list(self._bindings)

    # ------------------------------------------------------------- results

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        """Current (hits, misses) of the reported lru caches."""
        out = {}
        for layer, name in CACHES:
            mod = importlib.import_module("%s.%s" % (self.package, layer))
            info = getattr(mod, name).cache_info()
            out["%s.%s" % (layer, name)] = (info.hits, info.misses)
        return out


def _no_args(args, kwargs):
    return args


def _no_result(result):
    pass
