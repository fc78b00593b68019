"""Spans and counters around the package's public functions, from outside it.

`install` replaces each public function of every layer module with a wrapper
that records a span (id, parent, name, start, end), in every namespace of the
package that bound the function, so `from .zeta import zeta_det` in `cli` is
traced too. A span's self time is its duration minus the time its child spans
cover. Totals are kept for every span; raw spans are kept in memory up to
`SPAN_CAP` and written once, at the end of the pass.

Value types (`Moebius`, `Disk`, `Partition`) are not wrapped: their methods
run millions of times in a pass and a wrapper there costs more than the work.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("schottky", "reps", "transfer", "zeta", "congruence", "arithmetic", "cli")

# Methods of the two service classes that are layer entry points.
METHODS = {
    "schottky": ("SchottkyGroup", ("words_of_length", "words_up_to", "mirror", "word_matrix",
                                   "interval", "interval_length", "upsilon", "partition")),
    "reps": ("UnitaryRep", ("image", "inverse_image", "validate")),
}

# Private functions wrapped because a named metric is read from them.
PRIVATE = {"congruence": ("_closure_size",)}

# Spans whose inclusive time is reported as one figure; nested spans of one
# group count once.
GROUPS = {
    "reps.UnitaryRep.image": "reps.image",
    "reps.UnitaryRep.inverse_image": "reps.image",
    "congruence.rep_lambda_p": "congruence.rep",
    "congruence.rep_lambda_p0": "congruence.rep",
    "congruence.trace_formula": "congruence.trace",
    "congruence.trace_bruteforce": "congruence.trace",
    "zeta.zeta_det": "zeta.det",
    "zeta.refined_zeta": "zeta.det",
}

SPAN_CAP = 100_000


class _Namespace:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP):
        self.names: list[str] = []
        self.calls: dict[str, list] = {}     # name -> [calls, self seconds]
        self.groups: dict[str, list] = {}    # group -> [open depth, outer calls, inclusive seconds]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []         # (id, parent id, name index, start, end)
        self.dropped = 0
        self.span_cap = span_cap
        self._stack: list[list] = []         # open spans: [id, child seconds]
        self._next_id = 0

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name: str, fn, after=None):
        """`fn` recording a span called `name`; `after(args, kwargs, result)`
        runs after each call that returns."""
        index = len(self.names)
        self.names.append(name)
        stats = self.calls.setdefault(name, [0, 0.0])
        group = self.groups.setdefault(GROUPS.get(name, name), [0, 0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            depth = group[0]
            group[0] = depth + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                group[0] = depth
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed - frame[1]
                if depth == 0:
                    group[1] += 1
                    group[2] += elapsed
                if parent is not None:
                    parent[1] += elapsed
                if len(spans) < self.span_cap:
                    spans.append((span_id, parent[0] if parent else -1, index, start, end))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "groups": {g: v[1:] for g, v in self.groups.items()},
            "counters": self.counters,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "names": self.names, "dropped": self.dropped,
                       "spans": self.spans}, fh)


def _hooks(tracer: Tracer, modules: dict) -> dict:
    """Counters read from arguments and results at layer boundaries."""
    closure_cache = modules["congruence"]._closure_size
    seen = {"misses": closure_cache.cache_info().misses, "keys": set()}

    def assemble(args, kwargs, tm):
        pairs = kwargs["pairs"] if "pairs" in kwargs else args[1]
        tracer.count("transfer.assemble.blocks", len(pairs))
        tracer.count("transfer.matrix_bytes", tm.matrix.nbytes)
        dim = tm.matrix.shape[0]
        if dim > tracer.counters.get("transfer.matrix_dim.max", 0):
            tracer.counters["transfer.matrix_dim.max"] = dim

    def closure(args, kwargs, size):
        seen["keys"].add((args[0], args[1]))
        tracer.counters["congruence.closure.distinct"] = len(seen["keys"])
        misses = closure_cache.cache_info().misses
        if misses > seen["misses"]:
            tracer.count("congruence.closure.bfs_runs", misses - seen["misses"])
            tracer.count("congruence.closure.elements", size)
            seen["misses"] = misses

    def det(args, kwargs, value):
        n = args[0].shape[-1]
        per_mult_add = 8 if args[0].dtype.kind == "c" else 2
        tracer.count("zeta.linalg_det.flops", per_mult_add * n**3 / 3)

    def counter(key):
        return lambda args, kwargs, result: tracer.count(key, len(result))

    return {
        "transfer.assemble_pairs": assemble,
        "congruence._closure_size": closure,
        "zeta.np.linalg.det": det,
        "schottky.SchottkyGroup.words_of_length": counter("schottky.words.count"),
        "zeta.primitive_classes": counter("zeta.euler.classes"),
        "arithmetic.primes_between": counter("arithmetic.sieve.primes"),
    }


def install(tracer: Tracer, package: str = "schottky_zeta") -> None:
    """Wrap the public functions of every layer module of `package`."""
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    namespaces = [m for n, m in sys.modules.items()
                  if n == package or n.startswith(package + ".")]
    hooks = _hooks(tracer, modules)

    for layer, module in modules.items():
        targets = {}
        for attr, obj in vars(module).items():
            public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
            if (public and callable(obj) and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == module.__name__):
                targets[attr] = obj
        for attr, obj in targets.items():
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(name, obj, hooks.get(name))
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is obj:
                        setattr(namespace, key, wrapped)
        if layer in METHODS:
            cls_name, methods = METHODS[layer]
            cls = getattr(module, cls_name)
            for method in methods:
                name = f"{layer}.{cls_name}.{method}"
                setattr(cls, method, tracer.wrap(name, cls.__dict__[method], hooks.get(name)))

    # numpy's solvers as zeta sees them; other modules keep the real numpy.
    zeta = modules["zeta"]
    np = zeta.np
    zeta.np = _Namespace(np, linalg=_Namespace(
        np.linalg,
        det=tracer.wrap("zeta.np.linalg.det", np.linalg.det, hooks["zeta.np.linalg.det"]),
        eigvals=tracer.wrap("zeta.np.linalg.eigvals", np.linalg.eigvals),
    ))


def layer_of(name: str) -> str | None:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


def layer_metrics(summary: dict, run_s: float) -> dict:
    """Per-layer figures of one traced pass; `run_s` is the time from the end
    of the package import to the end of the last task."""
    calls = summary["calls"]
    groups = summary["groups"]
    counters = summary["counters"]

    def n(name):
        return calls.get(name, [0, 0.0])[0]

    def self_s(*names):
        return sum(calls.get(name, [0, 0.0])[1] for name in names)

    def group(name):
        return groups.get(name, [0, 0.0])

    out = {
        "transfer.assemble.calls": n("transfer.assemble_pairs"),
        "transfer.assemble.s": group("transfer.assemble_pairs")[1],
        "transfer.assemble.blocks": counters.get("transfer.assemble.blocks", 0),
        "transfer.matrix_dim.max": counters.get("transfer.matrix_dim.max", 0),
        "transfer.matrix_bytes": counters.get("transfer.matrix_bytes", 0),
        "zeta.det.calls": group("zeta.det")[0],
        "zeta.det.self_s": self_s("zeta.zeta_det", "zeta.refined_zeta"),
        "zeta.linalg_det.calls": n("zeta.np.linalg.det"),
        "zeta.linalg_det.s": group("zeta.np.linalg.det")[1],
        "zeta.linalg_det.flops": counters.get("zeta.linalg_det.flops", 0),
        "zeta.refined_square.s": self_s("zeta.refined_zeta"),
        "zeta.eig.calls": n("zeta.np.linalg.eigvals"),
        "zeta.eig.s": group("zeta.np.linalg.eigvals")[1],
        "zeta.euler.classes": counters.get("zeta.euler.classes", 0),
        "reps.image.calls": n("reps.UnitaryRep.image"),
        "reps.image.s": group("reps.image")[1],
        "schottky.partition.calls": n("schottky.SchottkyGroup.partition"),
        "schottky.partition.s": group("schottky.SchottkyGroup.partition")[1],
        "schottky.word_matrix.calls": n("schottky.SchottkyGroup.word_matrix"),
        "schottky.word_matrix.s": group("schottky.SchottkyGroup.word_matrix")[1],
        "schottky.words.count": counters.get("schottky.words.count", 0),
        "congruence.closure.calls": n("congruence._closure_size"),
        "congruence.closure.bfs_runs": counters.get("congruence.closure.bfs_runs", 0),
        "congruence.closure.s": group("congruence._closure_size")[1],
        "congruence.closure.elements": counters.get("congruence.closure.elements", 0),
        "congruence.coset_perm.calls": n("congruence.coset_perm"),
        "congruence.coset_perm.s": group("congruence.coset_perm")[1],
        "congruence.rep.calls": group("congruence.rep")[0],
        "congruence.rep.s": group("congruence.rep")[1],
        "congruence.trace.calls": group("congruence.trace")[0],
        "congruence.trace.s": group("congruence.trace")[1],
        "arithmetic.sieve.calls": n("arithmetic.primes_between"),
        "arithmetic.sieve.s": group("arithmetic.primes_between")[1],
        "arithmetic.sieve.primes": counters.get("arithmetic.sieve.primes", 0),
        "arithmetic.kronecker.calls": n("arithmetic.kronecker"),
        "arithmetic.kronecker.s": group("arithmetic.kronecker")[1],
    }
    bfs_runs = out["congruence.closure.bfs_runs"]
    distinct = counters.get("congruence.closure.distinct", 0)
    out["congruence.closure.useful_ratio"] = distinct / bfs_runs if bfs_runs else 0.0

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, seconds) in calls.items():
        layer = layer_of(name)
        if layer is not None:
            layer_self[layer] += seconds
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = seconds
    out["cli.unattributed.s"] = run_s - sum(layer_self.values())
    return out
