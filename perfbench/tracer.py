"""Outside-in tracer: wraps the public functions of fincat's modules from
the benchmark, records one span per call, and derives per-layer numbers.

Modules import names directly (``from .core import enumerate_functors``),
so a wrapper is bound in place of the original in every module that holds
it, not only in the module that defines it.  A generator's span covers only
the work done inside each ``next()``.  Per-lookup methods (``FinCat.compose``,
``FinFunctor.mor`` / ``ob``) stay unwrapped: they are called tens of
millions of times and wrapping them would cost more than they do.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass, field

LAYERS = (
    "core",
    "equivalence",
    "fibrations",
    "funcat",
    "limits",
    "wfs",
    "cosmos",
    "nerve",
    "counterexamples",
    "serialize",
    "cli",
)
# (class in fincat.core, method, span name)
METHODS = (
    ("FinFunctor", "__init__", "core.FinFunctor.init"),
    ("FinCat", "__init__", "core.FinCat.init"),
    ("FinCat", "__eq__", "core.FinCat.eq"),
)


@dataclass
class Stat:
    calls: int = 0
    yields: int = 0
    self_s: float = 0.0
    hits: int = 0          # calls whose result the observer counted as a hit


@dataclass
class Tracer:
    """Spans are kept in memory (the ``span_*`` arrays) until ``write_spans``.

    ``item`` is the identifier shared by all spans of one verdict item."""

    active: bool = False
    item: int = -1
    stats: dict = field(default_factory=dict)
    layer_s: dict = field(default_factory=dict)      # time inside each layer's outermost spans
    cones_checked: int = 0
    squares_checked: int = 0
    names: list = field(default_factory=list)
    _name_ids: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _layer_depth: dict = field(default_factory=dict)
    _patches: list = field(default_factory=list)
    _certificates: dict = field(default_factory=dict)

    def __post_init__(self):
        # one entry per span: id, parent id (-1 at the top), item, name id,
        # start, end, self time
        self.span_ids = array("q")
        self.span_parents = array("q")
        self.span_items = array("q")
        self.span_names = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self._next_id = 0

    # -- spans -------------------------------------------------------------

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return st

    def enter(self, name: str) -> None:
        layer = name.split(".", 1)[0]
        self._layer_depth[layer] = self._layer_depth.get(layer, 0) + 1
        sid = self._next_id
        self._next_id += 1
        self._stack.append([name, sid, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, sid, start, child = self._stack.pop()
        dur = end - start
        own = dur - child
        self.stat(name).self_s += own
        layer = name.split(".", 1)[0]
        self._layer_depth[layer] -= 1
        if self._layer_depth[layer] == 0:
            self.layer_s[layer] = self.layer_s.get(layer, 0.0) + dur
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][1]
        self.span_ids.append(sid)
        self.span_parents.append(parent)
        self.span_items.append(self.item)
        self.span_names.append(self._name_ids[name])
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_self.append(own)

    def _iterate(self, gen, name: str):
        st = self.stat(name)
        while True:
            if not self.active:
                yield from gen
                return
            self.enter(name)
            try:
                value = next(gen)
            except StopIteration:
                return
            finally:
                self.exit()
            st.yields += 1
            yield value

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name: str, observe=None):
        """A stand-in for ``fn`` that records a span per call while active.
        ``observe(stat, result, before)`` runs after the span closes;
        ``before`` is the value of ``observe.before()`` taken before the call."""
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                tracer.stat(name).calls += 1
                return tracer._iterate(fn(*args, **kwargs), name)

            return gen_wrapper

        before = getattr(observe, "before", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer.stat(name)
            st.calls += 1
            state = before() if before else None
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if observe is not None:
                observe(st, result, state)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self, extra_modules=()) -> None:
        """Wrap every public function of each layer and bind the wrapper in
        every fincat module (and each of ``extra_modules``) that holds it."""
        import fincat

        for layer in LAYERS:
            importlib.import_module(f"fincat.{layer}")
        holders = [m for n, m in sys.modules.items() if n == "fincat" or n.startswith("fincat.")]
        holders += list(extra_modules)
        observers = _observers(self)
        for layer in LAYERS:
            mod = sys.modules[f"fincat.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                observe = observers.get(name) or observers.get(f"{layer}.*")
                wrapper = self.wrap(fn, name, observe)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, wrapper)
        core = sys.modules["fincat.core"]
        for cls_name, method, name in METHODS:
            cls = getattr(core, cls_name)
            self._patch(cls, method, self.wrap(cls.__dict__[method], name))
        group = fincat.cli.main
        self._patch(group, "main", self.wrap(group.main, "cli.main"))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write the spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,item,name,start_s,end_s,self_s\n")
            for k in range(len(self.span_ids)):
                fh.write(
                    f"{self.span_ids[k]},{self.span_parents[k]},{self.span_items[k]},"
                    f"{self.names[self.span_names[k]]},{self.span_start[k]!r},"
                    f"{self.span_end[k]!r},{self.span_self[k]!r}\n"
                )

    def summary(self) -> dict:
        return {
            "stats": {
                name: {"calls": s.calls, "yields": s.yields, "self_s": s.self_s, "hits": s.hits}
                for name, s in self.stats.items()
            },
            "layer_s": dict(self.layer_s),
            "cones_checked": self.cones_checked,
            "squares_checked": self.squares_checked,
        }


_MISSING = object()


def _observers(tracer: Tracer) -> dict:
    """Result observers: hits for the ratio metrics, and the work counts
    read from returned certificates and NIP results."""
    from fincat import funcat
    from fincat.equivalence import EquivalenceWitness
    from fincat.limits import Certificate

    def found(st, result, _):
        st.hits += result is not None

    def equivalence(st, result, _):
        st.hits += isinstance(result, EquivalenceWitness)

    def cache_hit(st, result, size_before):
        st.hits += len(funcat._CACHE) == size_before

    cache_hit.before = lambda: len(funcat._CACHE)

    def certificate(st, result, _):
        cert = getattr(result, "certificate", None)
        if cert is None:
            cert = getattr(getattr(result, "witness", None), "certificate", None)
        # a nested construction's certificate can be handed up unchanged
        if isinstance(cert, Certificate) and id(cert) not in tracer._certificates:
            tracer._certificates[id(cert)] = cert
            tracer.cones_checked += cert.cones_checked

    def squares(st, result, _):
        tracer.squares_checked += result.squares_checked

    return {
        "core.find_isomorphism": found,
        "equivalence.classify_equivalence": equivalence,
        "funcat.functor_category": cache_hit,
        "limits.*": certificate,
        "cosmos.nip_square_filler": squares,
    }
