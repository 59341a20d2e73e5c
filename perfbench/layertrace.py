"""Outside-in layer tracing for the ``instanton`` package.

The benchmark never edits the package.  Instead it replaces the public
functions of each module with timing wrappers after ``import instanton``.
Modules import names by value (``from .quotient import canonical_rep``), so
after wrapping, every reference an ``instanton`` module, class or module-level
dict holds to an original function is rebound to its wrapper, and a second scan
proves that none is left.

Every wrapped call updates three figures for its boundary: calls, inclusive
time of the outermost calls (recursion is not counted twice) and self time (the
call's duration minus the time its wrapped children cover).  Boundaries marked
``keep`` also record a span (id, name, start, end, parent, sample); the hot
leaf boundaries (``Poly.__mul__`` and the like) are aggregated only, so that
memory stays bounded.  Times come from ``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux and so comparable across processes.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional

perf = time.perf_counter


class Boundary(NamedTuple):
    metric: str        # layer metric prefix; several functions may share one
    target: str        # "module:qualname" inside the instanton package
    keep: bool = True  # record a span per call (False: aggregate only)


BOUNDARIES: List[Boundary] = (
    [Boundary(f"acceptance.A{i}", f"acceptance:check_a{i}") for i in range(1, 14)]
    + [
        Boundary("quotient.canonical_rep", "quotient:canonical_rep", keep=False),
        Boundary("quotient.canonical_monomials", "quotient:canonical_monomials", keep=False),
        Boundary("floer.hilbert_compare", "floer:hilbert_compare"),
        Boundary("floer.graded", "floer:graded_ideal_dims"),
        Boundary("floer.graded", "floer:graded_quotient_dims"),
        Boundary("floer.model_build", "floer:model_for"),
        Boundary("floer.normal_form", "floer:QuotientModel.normal_form", keep=False),
        Boundary("floer.operator", "floer:QuotientModel.operator"),
        Boundary("floer.eigen_verify", "floer:eigen_verify"),
        Boundary("floer.solve_subleading", "floer:solve_subleading"),
        Boundary("floer.gamma_power_witness", "floer:gamma_power_witness"),
        Boundary("linalg.rref", "linalg:rref"),
        Boundary("linalg.restrict", "linalg:restrict"),
        Boundary("linalg.kernel_basis", "linalg:kernel_basis"),
        Boundary("linalg.matmul", "linalg:Matrix.__mul__", keep=False),
        Boundary("linalg.subspace_intersection", "linalg:subspace_intersection"),
        Boundary("poly.mul", "poly:Poly.__mul__", keep=False),
        Boundary("poly.change_coordinates", "poly:Poly.change_coordinates", keep=False),
        Boundary("poly.flip", "poly:Poly.flip", keep=False),
        Boundary("poly.monomials_of_degree", "poly:monomials_of_degree", keep=False),
        Boundary("relations.xi", "relations:xi", keep=False),
        Boundary("relations.rho_proj", "relations:rho_proj", keep=False),
        Boundary("relations.rho_series", "relations:rho_series"),
        Boundary("relations.r_poly", "relations:r_poly"),
        Boundary("relations.generators", "relations:igen"),
        Boundary("relations.generators", "relations:kprime_gen"),
        Boundary("relations.generators", "relations:jgen_n1"),
        Boundary("series.expand_rational_fn", "series:expand_rational_fn", keep=False),
        Boundary("series.binom_sqrt_dets", "series:binom_sqrt_dets"),
        Boundary("cli.run", "cli:run"),
        Boundary("cli.cache.get", "cli:Cache.get"),
        Boundary("cli.cache.put", "cli:Cache.put"),
    ]
)

# The two boundaries the untraced run keeps, for model_build_s and eigen_check_s.
TIMING_ONLY = ("floer.model_build", "floer.eigen_verify")


class Stat:
    __slots__ = ("calls", "incl", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0     # outermost calls only
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Span stack, per-metric statistics and extra counters of one process."""

    def __init__(self, sample: str):
        self.sample = sample
        self.stats: Dict[str, Stat] = {}
        self.extra: Dict[str, float] = {}
        self.spans: List[Optional[tuple]] = []
        self._stack: List[list] = []    # one [child_time] frame per open call
        self._open_span: Optional[int] = None
        self.run_entry: Optional[float] = None

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value

    def maximum(self, key: str, value: float) -> None:
        self.extra[key] = max(self.extra.get(key, 0.0), value)

    def wrap(self, boundary: Boundary, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        stat = self.stats.setdefault(boundary.metric, Stat())
        name = boundary.metric
        keep = boundary.keep
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open_span
            sid = None
            if keep:
                sid = len(spans)
                spans.append(None)
                self._open_span = sid
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                stat.depth -= 1
                dur = t1 - t0
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if stat.depth == 0:
                    stat.incl += dur
                if stack:
                    stack[-1][0] += dur
                if keep:
                    spans[sid] = (name, t0, t1, parent, self.sample)
                    self._open_span = parent
            if observe is not None:
                observe(self, args, result, t0)
            return result

        return traced

    def summary(self) -> dict:
        return {
            "stats": {k: {"calls": s.calls, "incl": s.incl, "self": s.self_s}
                      for k, s in self.stats.items()},
            "extra": self.extra,
            "spans": self.spans,  # a span's id is its index
        }


# -- observers: counts recorded at a boundary besides calls and time -------------


def _obs_canonical_rep(tr, args, result, t0):
    tr.add("quotient.canonical_rep.terms_out", len(result.terms))


def _obs_model_for(tr, args, result, t0):
    tr.maximum("floer.model_dim.max", result.dim)


def _entry_bits(matrix) -> int:
    best = 0
    for row in matrix.data:
        for x in row:
            b = x.numerator.bit_length() + x.denominator.bit_length()
            if b > best:
                best = b
    return best


def _obs_rref(tr, args, result, t0):
    m = args[0]
    tr.maximum("linalg.rref.max_cells", m.rows * m.cols)
    tr.maximum("linalg.rref.max_entry_bits", max(_entry_bits(result[0]), _entry_bits(result[2])))


def _obs_cache_get(tr, args, result, t0):
    tr.add("cli.cache.gets", 1)
    if result is not None:
        tr.add("cli.cache.hits", 1)
        if tr.run_entry is not None:
            # the command computed its result before it looked the key up
            tr.add("cli.compute_on_hit_s", t0 - tr.run_entry)


def _obs_cache_put(tr, args, result, t0):
    cache, key = args[0], args[1]
    tr.add("cli.cache.puts", 1)
    if cache.enabled:
        tr.add("cli.cache.put_bytes", os.path.getsize(cache._path(key)))


OBSERVERS = {
    "quotient:canonical_rep": _obs_canonical_rep,
    "floer:model_for": _obs_model_for,
    "linalg:rref": _obs_rref,
    "cli:Cache.get": _obs_cache_get,
    "cli:Cache.put": _obs_cache_put,
}


def _mark_run_entry(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def entry(*args, **kwargs):
        tracer.run_entry = perf()
        return fn(*args, **kwargs)
    return entry


# -- installation -------------------------------------------------------------------


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "instanton" or name.startswith("instanton."))]


def _resolve(target: str) -> Callable:
    module_name, qualname = target.split(":")
    owner = importlib.import_module(f"instanton.{module_name}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise LookupError(f"boundary {target} not found")
    return vars(owner)[attr]


def _references(originals: Dict[int, Callable]):
    """Yield (container, key, is_dict) for every reference to an original
    function held by an instanton module namespace, class or module-level dict.
    ``originals`` keeps the functions alive, so their ids stay unique."""
    seen_classes = set()
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if id(value) in originals:
                yield mod, key, False
            elif isinstance(value, type) and value.__module__.startswith("instanton"):
                if id(value) in seen_classes:
                    continue
                seen_classes.add(id(value))
                for ckey, cvalue in list(vars(value).items()):
                    if id(cvalue) in originals:
                        yield value, ckey, False
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if id(dvalue) in originals:
                        yield value, dkey, True


def install(tracer: Tracer, metrics: Optional[tuple] = None) -> None:
    """Wrap every boundary (or only those whose metric is in ``metrics``) and
    rebind every alias.  Raises RuntimeError if an original function is still
    reachable, or if a boundary had no reference to rebind."""
    originals: Dict[int, Callable] = {}
    wrappers: Dict[int, Callable] = {}
    for boundary in BOUNDARIES:
        if metrics is not None and boundary.metric not in metrics:
            continue
        fn = _resolve(boundary.target)
        wrapped = tracer.wrap(boundary, fn, OBSERVERS.get(boundary.target))
        if boundary.target == "cli:run":
            wrapped = _mark_run_entry(tracer, wrapped)
        originals[id(fn)] = fn
        wrappers[id(fn)] = wrapped
    rebound = set()
    for container, key, is_dict in list(_references(originals)):
        fid = id(container[key] if is_dict else getattr(container, key))
        if is_dict:
            container[key] = wrappers[fid]
        else:
            setattr(container, key, wrappers[fid])
        rebound.add(fid)
    left = [f"{getattr(c, '__name__', type(c).__name__)}.{k}"
            for c, k, _is_dict in _references(originals)]
    missing = [originals[fid].__qualname__ for fid in originals if fid not in rebound]
    if left or missing:
        raise RuntimeError(f"unwrapped aliases {left}; boundaries never bound {missing}")


def memo_entries(tracer: Tracer) -> None:
    """Record the size of the package's memo tables at the end of a process."""
    floer = sys.modules["instanton.floer"]
    relations = sys.modules["instanton.relations"]
    tracer.add("floer.memo.entries", len(floer._model_cache))
    tracer.add("relations.memo.entries", len(relations._xi_cache)
               + len(relations._rho_proj_cache) + len(relations._r_cache))
